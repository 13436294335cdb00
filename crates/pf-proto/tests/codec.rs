//! Every wire format in the protocol suite, on seeded inputs: encode →
//! decode is the identity on arbitrary field values, every decoder returns
//! a verdict (never panics) on noise and on damaged copies of its own
//! encodings, and the Pup checksum catches any single flipped data bit.
//! The release profile runs ten times the cases of the debug one.

use pf_net::medium::Medium;
use pf_proto::arp::ArpPacket;
use pf_proto::group::GroupMessage;
use pf_proto::ip::{decode_ip, decode_udp, encode_ip, encode_udp, IpHeader};
use pf_proto::pup::{Pup, PupAddr, PupError, MAX_PUP_DATA};
use pf_proto::tcp::Segment;
use pf_proto::vmtp::{VmtpPacket, VmtpType};
use pf_sim::rng::SplitMix64;

const CASES: u64 = if cfg!(debug_assertions) { 256 } else { 2_560 };

fn for_cases(seed: u64, mut check: impl FnMut(&mut SplitMix64, u64)) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..CASES {
        check(&mut rng, case);
    }
}

fn bytes(rng: &mut SplitMix64, max_len: u64) -> Vec<u8> {
    (0..rng.below(max_len))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// What a decoder must survive: noise up to `max_len` bytes or, every
/// other case, `valid` with up to three bits flipped and, one time in
/// three, cut short — input that gets past the first length and type
/// checks, which noise almost never does.
fn hostile(rng: &mut SplitMix64, case: u64, max_len: u64, mut valid: Vec<u8>) -> Vec<u8> {
    if case.is_multiple_of(2) || valid.is_empty() {
        return bytes(rng, max_len);
    }
    for _ in 0..rng.below(4) {
        let at = rng.below(valid.len() as u64) as usize;
        valid[at] ^= 1 << rng.below(8);
    }
    if rng.chance(0.33) {
        valid.truncate(rng.below(valid.len() as u64 + 1) as usize);
    }
    valid
}

fn pup(rng: &mut SplitMix64) -> Pup {
    let mut addr = || {
        PupAddr::new(
            rng.next_u64() as u8,
            rng.next_u64() as u8,
            rng.next_u64() as u32,
        )
    };
    let (dst, src) = (addr(), addr());
    Pup::new(
        rng.next_u64() as u8,
        rng.next_u64() as u32,
        dst,
        src,
        bytes(rng, MAX_PUP_DATA as u64),
    )
}

fn vmtp(rng: &mut SplitMix64) -> VmtpPacket {
    VmtpPacket {
        dst_entity: rng.next_u64() as u32,
        src_entity: rng.next_u64() as u32,
        trans: rng.next_u64() as u32,
        ptype: [
            VmtpType::Request,
            VmtpType::Response,
            VmtpType::Ack,
            VmtpType::Retry,
        ][rng.below(4) as usize],
        index: rng.next_u64() as u8,
        count: rng.next_u64() as u8,
        opcode: rng.next_u64() as u32,
        data: bytes(rng, 1024),
    }
}

fn segment(rng: &mut SplitMix64) -> Segment {
    Segment {
        src_port: rng.next_u64() as u16,
        dst_port: rng.next_u64() as u16,
        seq: rng.next_u64() as u32,
        ack: rng.next_u64() as u32,
        flags: rng.next_u64() as u8,
        window: rng.next_u64() as u16,
        data: bytes(rng, 1200),
    }
}

fn arp(rng: &mut SplitMix64) -> ArpPacket {
    ArpPacket {
        oper: rng.next_u64() as u16,
        sha: rng.below(1 << 48),
        spa: rng.next_u64() as u32,
        tha: rng.below(1 << 48),
        tpa: rng.next_u64() as u32,
    }
}

fn ip_header(rng: &mut SplitMix64) -> IpHeader {
    IpHeader {
        proto: rng.next_u64() as u8,
        ttl: rng.next_u64() as u8,
        src: rng.next_u64() as u32,
        dst: rng.next_u64() as u32,
        total_len: 0,
    }
}

#[test]
fn pup_round_trips() {
    let m = Medium::experimental_3mb();
    for_cases(0xC0DE_0001, |rng, case| {
        let p = pup(rng);
        let f = p.encode_frame(&m, rng.chance(0.5));
        assert_eq!(Pup::decode_frame(&m, &f), Ok(p), "case {case}");
    });
}

#[test]
fn pup_checksum_catches_any_single_bit_flip_in_data() {
    let m = Medium::experimental_3mb();
    for_cases(0xC0DE_0002, |rng, case| {
        let p = pup(rng);
        if p.data.is_empty() {
            return;
        }
        let mut f = p.encode_frame(&m, true);
        // The data region: after the 4-byte Ethernet header and the
        // 20-byte Pup header, before the 2-byte checksum.
        let pos = 24 + rng.below(f.len() as u64 - 26) as usize;
        let bit = rng.below(8);
        f[pos] ^= 1 << bit;
        assert!(
            matches!(Pup::decode_frame(&m, &f), Err(PupError::BadChecksum { .. })),
            "case {case}: flip at byte {pos} bit {bit} went undetected"
        );
    });
}

#[test]
fn pup_decoder_is_total() {
    let m = Medium::experimental_3mb();
    for_cases(0xC0DE_0003, |rng, case| {
        let valid = pup(rng).encode_frame(&m, rng.chance(0.5));
        let soup = hostile(rng, case, 700, valid);
        let _ = Pup::decode_frame(&m, &soup);
        let _ = Pup::decode_body(&soup);
        let _ = Pup::decode_body(soup.get(m.header_len..).unwrap_or(&[]));
    });
}

#[test]
fn vmtp_round_trips() {
    let m = Medium::standard_10mb();
    for_cases(0xC0DE_0004, |rng, case| {
        let p = vmtp(rng);
        let f = p.encode_frame(&m, 0x0B, 0x0A);
        assert_eq!(
            VmtpPacket::decode_frame(&m, &f),
            Some((p, 0x0A)),
            "case {case}"
        );
    });
}

#[test]
fn vmtp_decoder_is_total() {
    let m = Medium::standard_10mb();
    for_cases(0xC0DE_0005, |rng, case| {
        let valid = vmtp(rng).encode_frame_opts(&m, 0x0B, 0x0A, rng.chance(0.5));
        let soup = hostile(rng, case, 1514, valid);
        let _ = VmtpPacket::decode_frame(&m, &soup);
        let _ = VmtpPacket::decode_body(&soup);
        let _ = VmtpPacket::decode_body(soup.get(m.header_len..).unwrap_or(&[]));
    });
}

#[test]
fn tcp_segment_round_trips() {
    for_cases(0xC0DE_0006, |rng, case| {
        let s = segment(rng);
        assert_eq!(Segment::decode(&s.encode()), Some(s), "case {case}");
    });
}

#[test]
fn tcp_decoder_is_total() {
    for_cases(0xC0DE_0007, |rng, case| {
        let valid = segment(rng).encode();
        let _ = Segment::decode(&hostile(rng, case, 1500, valid));
    });
}

#[test]
fn ip_udp_round_trips() {
    for_cases(0xC0DE_0008, |rng, case| {
        let (sp, dp) = (rng.next_u64() as u16, rng.next_u64() as u16);
        let data = bytes(rng, 1400);
        let sent = ip_header(rng);
        let ip = encode_ip(&sent, &encode_udp(sp, dp, &data));
        let (h, body) = decode_ip(&ip).expect("own encoding decodes");
        assert_eq!(
            (h.proto, h.ttl, h.src, h.dst),
            (sent.proto, sent.ttl, sent.src, sent.dst),
            "case {case}"
        );
        assert_eq!(usize::from(h.total_len), ip.len(), "case {case}");
        assert_eq!(decode_udp(body), Some((sp, dp, &data[..])), "case {case}");
    });
}

#[test]
fn ip_udp_decoders_are_total() {
    for_cases(0xC0DE_0009, |rng, case| {
        let udp = encode_udp(
            rng.next_u64() as u16,
            rng.next_u64() as u16,
            &bytes(rng, 200),
        );
        let valid = encode_ip(&ip_header(rng), &udp);
        let soup = hostile(rng, case, 1500, valid);
        if let Some((_, body)) = decode_ip(&soup) {
            let _ = decode_udp(body);
        }
        let _ = decode_udp(&soup);
    });
}

#[test]
fn arp_round_trips() {
    for_cases(0xC0DE_000A, |rng, case| {
        let p = arp(rng);
        assert_eq!(
            ArpPacket::decode_body(&p.encode_body()),
            Some(p),
            "case {case}"
        );
    });
}

#[test]
fn arp_decoder_is_total() {
    for_cases(0xC0DE_000B, |rng, case| {
        let valid = arp(rng).encode_body();
        let _ = ArpPacket::decode_body(&hostile(rng, case, 64, valid));
    });
}

#[test]
fn group_message_round_trips() {
    let m = Medium::standard_10mb();
    for_cases(0xC0DE_000C, |rng, case| {
        let msg = GroupMessage {
            group: rng.next_u64() as u32,
            seq: rng.next_u64() as u32,
            data: bytes(rng, 1400),
        };
        let f = msg.encode_frame(&m, 0x0A);
        assert_eq!(GroupMessage::decode_frame(&m, &f), Some(msg), "case {case}");
    });
}

/// The monitor's dispatcher must survive anything on the wire: noise, and
/// damaged frames of every protocol it knows, read as either medium.
#[test]
fn monitor_decode_is_total() {
    let (m3, m10) = (Medium::experimental_3mb(), Medium::standard_10mb());
    for_cases(0xC0DE_000D, |rng, case| {
        let valid = match rng.below(3) {
            0 => pup(rng).encode_frame(&m3, rng.chance(0.5)),
            1 => vmtp(rng).encode_frame(&m10, 0x0B, 0x0A),
            _ => arp(rng).encode_frame(&m10, pf_proto::arp::ARP_ETHERTYPE, m10.broadcast, 0x0A),
        };
        let soup = hostile(rng, case, 1514, valid);
        let _ = pf_monitor::decode::decode(&m3, &soup);
        let _ = pf_monitor::decode::decode(&m10, &soup);
    });
}
