//! The Pup internetwork datagram (Boggs, Shoch, Taft & Metcalfe 1980).
//!
//! §5.1 of the paper: "At Stanford, almost all of the Pup protocols were
//! implemented for Unix, based entirely on the packet filter." This module
//! implements the Pup datagram in the figure 3-7 encapsulation for the
//! 3 Mbit/s Experimental Ethernet: a 20-byte Pup header, data, and a
//! trailing 16-bit software checksum (or the all-ones "no checksum"
//! value — the implementations measured in §6 did not checksum).
//!
//! Layout, as 16-bit words after the 4-byte Ethernet header:
//!
//! ```text
//! word 0: PupLength        (header + data + checksum, in bytes)
//! word 1: HopCount | PupType
//! word 2: PupIdentifier (high)
//! word 3: PupIdentifier (low)
//! word 4: DstNet | DstHost
//! word 5: DstSocket (high)
//! word 6: DstSocket (low)
//! word 7: SrcNet | SrcHost
//! word 8: SrcSocket (high)
//! word 9: SrcSocket (low)
//! …       data
//! last:   checksum
//! ```
//!
//! (Figure 3-7 shows these at Ethernet word offsets 2–11, which is where
//! the filter programs address them.)

use pf_net::frame;
use pf_net::medium::Medium;

/// Ethernet type for Pup on the 3 Mbit/s network (figure 3-8 tests for 2).
pub const PUP_ETHERTYPE: u16 = 2;

/// Pup header length in bytes (excluding the trailing checksum).
pub const PUP_HEADER: usize = 20;

/// Trailing checksum length in bytes.
pub const PUP_CHECKSUM: usize = 2;

/// Maximum Pup length (header + data + checksum) — "Pup (hence BSP) allows
/// a maximum packet size of 568 bytes" (§6.4).
pub const MAX_PUP: usize = 568;

/// Maximum data bytes per Pup.
pub const MAX_PUP_DATA: usize = MAX_PUP - PUP_HEADER - PUP_CHECKSUM;

/// The "no checksum" sentinel value.
pub const NO_CHECKSUM: u16 = 0xFFFF;

/// Well-known Pup types used by this reproduction.
pub mod types {
    /// Echo request ("EchoMe").
    pub const ECHO_ME: u8 = 1;
    /// Echo reply ("ImAnEcho").
    pub const IM_AN_ECHO: u8 = 2;
    /// BSP: request for connection.
    pub const BSP_RFC: u8 = 8;
    /// BSP: connection accepted.
    pub const BSP_OPEN: u8 = 9;
    /// BSP data, acknowledgement requested.
    pub const BSP_ADATA: u8 = 16;
    /// BSP data.
    pub const BSP_DATA: u8 = 17;
    /// BSP acknowledgement.
    pub const BSP_ACK: u8 = 18;
    /// BSP end of stream.
    pub const BSP_END: u8 = 19;
    /// BSP end acknowledgement.
    pub const BSP_END_REPLY: u8 = 20;
    /// BSP throttle: the receiver's kernel port crossed its backpressure
    /// mark; the sender should shrink its window (modeled on real BSP's
    /// out-of-band Interrupt packets).
    pub const BSP_THROTTLE: u8 = 24;
    /// Abort.
    pub const ABORT: u8 = 32;
}

/// A Pup endpoint address: network, host, and 32-bit socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PupAddr {
    /// Network number.
    pub net: u8,
    /// Host number (also the Ethernet address on the 3 Mb network).
    pub host: u8,
    /// Socket number.
    pub socket: u32,
}

impl PupAddr {
    /// Creates an address.
    pub fn new(net: u8, host: u8, socket: u32) -> Self {
        PupAddr { net, host, socket }
    }
}

/// A decoded Pup datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pup {
    /// The Pup type (figure 3-8 filters on this byte).
    pub ptype: u8,
    /// Gateway hop count.
    pub hops: u8,
    /// Transaction/sequence identifier.
    pub id: u32,
    /// Destination endpoint.
    pub dst: PupAddr,
    /// Source endpoint.
    pub src: PupAddr,
    /// Payload.
    pub data: Vec<u8>,
}

/// Errors decoding a Pup from a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PupError {
    /// Not a Pup Ethernet type.
    NotPup {
        /// The frame's actual Ethernet type.
        ethertype: u16,
    },
    /// The frame or its declared Pup length is malformed.
    Malformed,
    /// The software checksum did not verify.
    BadChecksum {
        /// Checksum carried in the packet.
        got: u16,
        /// Checksum computed over the packet.
        want: u16,
    },
}

impl core::fmt::Display for PupError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PupError::NotPup { ethertype } => write!(f, "ethertype {ethertype:#x} is not Pup"),
            PupError::Malformed => write!(f, "malformed Pup"),
            PupError::BadChecksum { got, want } => {
                write!(f, "bad Pup checksum {got:#06x} (computed {want:#06x})")
            }
        }
    }
}

impl std::error::Error for PupError {}

impl Pup {
    /// A minimal Pup with the given type, id, endpoints, and data.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`MAX_PUP_DATA`]; senders segment above
    /// this layer.
    pub fn new(ptype: u8, id: u32, dst: PupAddr, src: PupAddr, data: Vec<u8>) -> Self {
        assert!(
            data.len() <= MAX_PUP_DATA,
            "Pup data exceeds {MAX_PUP_DATA} bytes"
        );
        Pup {
            ptype,
            hops: 0,
            id,
            dst,
            src,
            data,
        }
    }

    /// Total Pup length (header + data + checksum).
    pub fn length(&self) -> usize {
        PUP_HEADER + self.data.len() + PUP_CHECKSUM
    }

    /// The Pup software checksum over a Pup image (all words except the
    /// trailing checksum word): 16-bit one's-complement add-and-left-cycle.
    /// That is arithmetic modulo 2¹⁶ − 1 (the add is modular, the cycle
    /// doubles): word `i` of `n` enters doubled `n − i` times, a shift by
    /// `(n − i) mod 16` as 2¹⁶ ≡ 1, so sixteen lanes of equal shift take the
    /// words with no carry chained between them. The sum's all-ones zero and
    /// the mapped-away sentinel are both the residue 0 that `%` returns.
    pub fn checksum(image: &[u8]) -> u16 {
        let mut lanes = [0u64; 16];
        let mut blocks = image.chunks_exact(32);
        for block in &mut blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(2)) {
                *lane += u64::from(u16::from_be_bytes([w[0], w[1]]));
            }
        }
        // An odd image's last byte is the high half of a zero-padded word.
        for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(2)) {
            *lane += u64::from(u16::from_be_bytes([w[0], *w.get(1).unwrap_or(&0)]));
        }
        let n = image.len().div_ceil(2);
        let shifted = |(j, lane): (usize, &u64)| lane << ((n % 16 + 16 - j) % 16);
        (lanes.iter().enumerate().map(shifted).sum::<u64>() % 0xFFFF) as u16
    }

    /// Encodes as the Pup body (header + data + checksum), without the
    /// Ethernet header. `checksummed` selects a real checksum or the
    /// [`NO_CHECKSUM`] sentinel.
    pub fn encode_body(&self, checksummed: bool) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.length());
        self.encode_body_into(&mut b, checksummed);
        b
    }

    /// Appends the Pup body to `b`: [`Self::encode_body`]'s bytes, its
    /// checksum taken over the body's own range of `b`.
    pub fn encode_body_into(&self, b: &mut Vec<u8>, checksummed: bool) {
        let start = b.len();
        let len = self.length() as u16;
        b.extend_from_slice(&len.to_be_bytes());
        b.push(self.hops);
        b.push(self.ptype);
        b.extend_from_slice(&self.id.to_be_bytes());
        b.push(self.dst.net);
        b.push(self.dst.host);
        b.extend_from_slice(&self.dst.socket.to_be_bytes());
        b.push(self.src.net);
        b.push(self.src.host);
        b.extend_from_slice(&self.src.socket.to_be_bytes());
        b.extend_from_slice(&self.data);
        let sum = if checksummed {
            Self::checksum(&b[start..])
        } else {
            NO_CHECKSUM
        };
        b.extend_from_slice(&sum.to_be_bytes());
    }

    /// Encodes as a complete 3 Mb Ethernet frame, the body written straight
    /// into it. The Ethernet source and destination are the Pup host bytes
    /// (local-network routing).
    pub fn encode_frame(&self, medium: &Medium, checksummed: bool) -> Vec<u8> {
        frame::build_with(
            medium,
            u64::from(self.dst.host),
            u64::from(self.src.host),
            PUP_ETHERTYPE,
            self.length(),
            |f| self.encode_body_into(f, checksummed),
        )
        .expect("MAX_PUP fits the 3 Mb medium")
    }

    /// Decodes a complete frame.
    ///
    /// # Errors
    ///
    /// Returns a [`PupError`] if the frame is not Pup, is malformed, or
    /// (when a real checksum is present) fails verification.
    pub fn decode_frame(medium: &Medium, frame_bytes: &[u8]) -> Result<Pup, PupError> {
        let h = frame::parse(medium, frame_bytes).map_err(|_| PupError::Malformed)?;
        if h.ethertype != PUP_ETHERTYPE {
            return Err(PupError::NotPup {
                ethertype: h.ethertype,
            });
        }
        let body = frame::payload(medium, frame_bytes).map_err(|_| PupError::Malformed)?;
        Self::decode_body(body)
    }

    /// Decodes a Pup body (header + data + checksum).
    ///
    /// # Errors
    ///
    /// Returns a [`PupError`] if lengths are inconsistent or the checksum
    /// fails.
    pub fn decode_body(body: &[u8]) -> Result<Pup, PupError> {
        if body.len() < PUP_HEADER + PUP_CHECKSUM {
            return Err(PupError::Malformed);
        }
        let length = usize::from(u16::from_be_bytes([body[0], body[1]]));
        if length < PUP_HEADER + PUP_CHECKSUM || length > body.len() || length > MAX_PUP {
            return Err(PupError::Malformed);
        }
        let carried = u16::from_be_bytes([body[length - 2], body[length - 1]]);
        if carried != NO_CHECKSUM {
            let want = Self::checksum(&body[..length - 2]);
            if carried != want {
                return Err(PupError::BadChecksum { got: carried, want });
            }
        }
        Ok(Pup {
            hops: body[2],
            ptype: body[3],
            id: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
            dst: PupAddr {
                net: body[8],
                host: body[9],
                socket: u32::from_be_bytes([body[10], body[11], body[12], body[13]]),
            },
            src: PupAddr {
                net: body[14],
                host: body[15],
                socket: u32::from_be_bytes([body[16], body[17], body[18], body[19]]),
            },
            data: body[PUP_HEADER..length - PUP_CHECKSUM].to_vec(),
        })
    }

    /// A figure-3-9-style packet-filter program accepting Pups addressed
    /// to `socket` (on the 3 Mb encapsulation).
    pub fn socket_filter(priority: u8, socket: u32) -> pf_filter::program::FilterProgram {
        pf_filter::samples::pup_socket_filter(
            priority,
            (socket >> 16) as u16,
            (socket & 0xFFFF) as u16,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::interp::CheckedInterpreter;
    use pf_filter::packet::PacketView;

    fn medium() -> Medium {
        Medium::experimental_3mb()
    }

    fn sample(data: &[u8]) -> Pup {
        Pup::new(
            types::BSP_DATA,
            0xDEADBEEF,
            PupAddr::new(1, 0x0B, 35),
            PupAddr::new(1, 0x0A, 0x99),
            data.to_vec(),
        )
    }

    #[test]
    fn round_trip_unchecksummed() {
        let p = sample(b"hello pup");
        let f = p.encode_frame(&medium(), false);
        let q = Pup::decode_frame(&medium(), &f).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn round_trip_checksummed() {
        let p = sample(&[0u8; 100]);
        let f = p.encode_frame(&medium(), true);
        let q = Pup::decode_frame(&medium(), &f).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn a_frame_is_its_body_behind_the_header() {
        for len in [0, 1, 7, 100, MAX_PUP_DATA] {
            let p = sample(&vec![0xA7; len]);
            for checksummed in [false, true] {
                let body = p.encode_body(checksummed);
                let want = frame::build(&medium(), 0x0B, 0x0A, PUP_ETHERTYPE, &body).unwrap();
                assert_eq!(p.encode_frame(&medium(), checksummed), want, "{len}");
            }
        }
    }

    #[test]
    fn corruption_detected_when_checksummed() {
        let p = sample(b"data");
        let mut f = p.encode_frame(&medium(), true);
        let idx = f.len() - 5; // inside data
        f[idx] ^= 0x40;
        assert!(matches!(
            Pup::decode_frame(&medium(), &f),
            Err(PupError::BadChecksum { .. })
        ));
    }

    #[test]
    fn corruption_passes_unchecksummed() {
        // The paper's BSP/VMTP did not checksum; corruption is the upper
        // layer's problem. Flipping payload bits must still decode.
        let p = sample(b"data");
        let mut f = p.encode_frame(&medium(), false);
        let idx = f.len() - 5;
        f[idx] ^= 0x40;
        assert!(Pup::decode_frame(&medium(), &f).is_ok());
    }

    #[test]
    fn wrong_ethertype_rejected() {
        let p = sample(b"x");
        let mut f = p.encode_frame(&medium(), false);
        f[3] = 9;
        assert!(matches!(
            Pup::decode_frame(&medium(), &f),
            Err(PupError::NotPup { ethertype: 0x0009 })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let p = sample(b"somedata");
        let f = p.encode_frame(&medium(), false);
        assert!(matches!(
            Pup::decode_frame(&medium(), &f[..10]),
            Err(PupError::Malformed)
        ));
    }

    #[test]
    fn declared_length_beyond_buffer_rejected() {
        let p = sample(b"");
        let mut f = p.encode_frame(&medium(), false);
        // Inflate the declared PupLength past the frame end.
        f[4] = 0x01;
        f[5] = 0xFF;
        assert!(matches!(
            Pup::decode_frame(&medium(), &f),
            Err(PupError::Malformed)
        ));
    }

    #[test]
    fn max_data_fits_medium() {
        let p = sample(&vec![7u8; MAX_PUP_DATA]);
        let f = p.encode_frame(&medium(), false);
        assert_eq!(f.len(), 4 + MAX_PUP);
        assert!(f.len() <= medium().max_packet);
        let q = Pup::decode_frame(&medium(), &f).unwrap();
        assert_eq!(q.data.len(), MAX_PUP_DATA);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_data_panics() {
        let _ = sample(&vec![0u8; MAX_PUP_DATA + 1]);
    }

    #[test]
    fn header_lands_on_fig_3_7_words() {
        // Per figure 3-7: the Pup type is the low byte of Ethernet word 3,
        // and the destination socket occupies Ethernet words 7-8 — the
        // exact offsets the figure 3-8/3-9 filters test.
        let p = sample(b"xy");
        let f = p.encode_frame(&medium(), false);
        let v = PacketView::new(&f);
        assert_eq!(v.word(1), Some(PUP_ETHERTYPE)); // EtherType
        assert_eq!(
            v.word(3).map(|w| w & 0xFF),
            Some(u16::from(types::BSP_DATA))
        );
        assert_eq!(v.word(7), Some(0)); // DstSocket high
        assert_eq!(v.word(8), Some(35)); // DstSocket low
    }

    #[test]
    fn socket_filter_matches_encoded_pups() {
        let interp = CheckedInterpreter::default();
        let f35 = Pup::socket_filter(10, 35);
        let hit = sample(b"x").encode_frame(&medium(), false);
        assert!(interp.eval(&f35, PacketView::new(&hit)));
        let mut miss = sample(b"x");
        miss.dst.socket = 36;
        let miss = miss.encode_frame(&medium(), false);
        assert!(!interp.eval(&f35, PacketView::new(&miss)));
        // 32-bit sockets: high word must be tested too.
        let f_big = Pup::socket_filter(10, 0x0001_0023);
        let mut big = sample(b"x");
        big.dst.socket = 0x0001_0023;
        let big = big.encode_frame(&medium(), false);
        assert!(interp.eval(&f_big, PacketView::new(&big)));
        assert!(!interp.eval(&f_big, PacketView::new(&hit)));
    }

    /// The checksum as the Pup specification words it, a byte pair at a
    /// time: the sum before the sentinel is mapped away.
    fn byte_pair_sum(image: &[u8]) -> u16 {
        let mut sum: u16 = 0;
        let mut i = 0;
        while i < image.len() {
            let hi = image[i];
            let lo = if i + 1 < image.len() { image[i + 1] } else { 0 };
            let w = u16::from_be_bytes([hi, lo]);
            let (s, carry) = sum.overflowing_add(w);
            sum = s + u16::from(carry);
            sum = sum.rotate_left(1);
            i += 2;
        }
        sum
    }

    fn byte_pair_checksum(image: &[u8]) -> u16 {
        match byte_pair_sum(image) {
            NO_CHECKSUM => 0,
            sum => sum,
        }
    }

    #[test]
    fn checksum_equals_the_byte_pair_loop_at_every_length() {
        let mut rng = pf_sim::rng::SplitMix64::new(0xC5);
        for len in 0..=MAX_PUP {
            for _ in 0..4 {
                let image: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                assert_eq!(Pup::checksum(&image), byte_pair_checksum(&image), "{len}");
            }
            // The word that completes a sum to all-ones, appended: the
            // image whose checksum would be the "unchecked" sentinel.
            let mut image: Vec<u8> = (0..len & !1).map(|_| rng.next_u64() as u8).collect();
            image.extend((!byte_pair_sum(&image)).to_be_bytes());
            assert_eq!(byte_pair_sum(&image), NO_CHECKSUM);
            assert_eq!(Pup::checksum(&image), 0, "sentinel at {}", image.len());
        }
    }

    #[test]
    fn checksum_never_produces_sentinel() {
        // 0xFFFF means "unchecked"; the checksum function must avoid it.
        // All-0xFF images drive the one's-complement sum toward 0xFFFF.
        for n in 1..64 {
            let image = vec![0xFFu8; n];
            assert_ne!(Pup::checksum(&image), NO_CHECKSUM, "n = {n}");
        }
    }
}
