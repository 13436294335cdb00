//! §7's motivating case for the indirect-push extension:
//!
//! "The filter language described in section 3 only allows the user to
//! specify packet fields at constant offsets from the beginning of a
//! packet. This has been adequate for protocols with fixed-format headers
//! (such as Pup), but many network protocols allow variable-format
//! headers. For example, since the IP header may include optional fields,
//! fields in higher layer protocol headers are not at constant offsets."
//!
//! These tests build IP packets whose header length (IHL) varies and show
//! that (a) a classic constant-offset filter for a TCP destination port
//! breaks as soon as IP options appear, while (b) a filter using the §7
//! extensions computes the offset at evaluation time with `PUSHIND` and
//! the arithmetic operators, and keeps matching.

use pf_filter::builder::{ArithOp, Expr};
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;

/// Builds a 3 Mb-Ethernet frame carrying an IP packet with `opt_words`
/// 32-bit option words, then a TCP header whose destination port is
/// `dst_port`.
fn ip_tcp_frame(opt_words: usize, dst_port: u16) -> Vec<u8> {
    let mut f = Vec::new();
    // 4-byte experimental-Ethernet header (dst, src, type=0x0800).
    f.extend_from_slice(&[0x0B, 0x0A, 0x08, 0x00]);
    // IP header: version 4, IHL = 5 + options.
    let ihl = 5 + opt_words;
    f.push(0x40 | ihl as u8);
    f.push(0);
    let total = (ihl * 4 + 20) as u16;
    f.extend_from_slice(&total.to_be_bytes());
    f.extend_from_slice(&[0, 0, 0, 0]); // id, frag
    f.push(30); // ttl
    f.push(6); // TCP
    f.extend_from_slice(&[0, 0]); // checksum
    f.extend_from_slice(&10u32.to_be_bytes()); // src ip
    f.extend_from_slice(&11u32.to_be_bytes()); // dst ip
    f.extend_from_slice(&vec![0u8; opt_words * 4]); // options
                                                    // TCP header: src port, dst port, ...
    f.extend_from_slice(&4321u16.to_be_bytes());
    f.extend_from_slice(&dst_port.to_be_bytes());
    f.extend_from_slice(&[0u8; 16]);
    f
}

/// The classic filter: assumes no IP options — the TCP destination port
/// sits at a constant offset (Ethernet word 13: 4 B link + 20 B IP + 2 B
/// src port = byte 26).
fn classic_port_filter(port: u16) -> FilterProgram {
    Expr::word(1)
        .eq(0x0800)
        .and(Expr::word(13).eq(port))
        .compile(10)
        .expect("classic filter compiles")
}

/// The §7 extended filter: reads the IHL nibble, converts it to a word
/// offset, and fetches the port through `PUSHIND`.
///
/// Offset arithmetic (in 16-bit words): the IP header begins at word 2,
/// spans `2 × IHL` words, and the destination port is the second TCP
/// word: `port_word = 2 + 2·IHL + 1`.
fn extended_port_filter(port: u16) -> FilterProgram {
    // IHL = word 2's high byte, low nibble.
    let ihl = Expr::word(2).arith(ArithOp::Rsh, 8).mask(0x0F);
    let port_word = ihl.arith(ArithOp::Mul, 2).arith(ArithOp::Add, 3);
    Expr::word(1)
        .eq(0x0800)
        .and(Expr::word_at(port_word).eq(port))
        .compile(10)
        .expect("extended filter compiles")
}

#[test]
fn classic_filter_works_only_without_options() {
    let interp = CheckedInterpreter;
    let f = classic_port_filter(23);
    assert!(
        interp.eval(&f, PacketView::new(&ip_tcp_frame(0, 23))),
        "no options: constant offset is right"
    );
    assert!(!interp.eval(&f, PacketView::new(&ip_tcp_frame(0, 25))));
    // Two option words shift the TCP header: the classic filter now reads
    // option bytes instead of the port and misses its packet.
    assert!(
        !interp.eval(&f, PacketView::new(&ip_tcp_frame(2, 23))),
        "§7: constant-offset filters break on variable-format headers"
    );
}

#[test]
fn extended_filter_tracks_the_moving_header() {
    let interp = CheckedInterpreter;
    let f = extended_port_filter(23);
    for opt_words in [0usize, 1, 2, 5, 10] {
        assert!(
            interp.eval(&f, PacketView::new(&ip_tcp_frame(opt_words, 23))),
            "IHL {} words: indirect push finds the port",
            5 + opt_words
        );
        assert!(
            !interp.eval(&f, PacketView::new(&ip_tcp_frame(opt_words, 24))),
            "IHL {}: and still discriminates",
            5 + opt_words
        );
    }
}

#[test]
fn extended_filter_rejects_truncated_packets_safely() {
    // If the computed offset points past the packet, the filter rejects —
    // the PUSHIND bounds check is the one that cannot be hoisted (§7).
    let interp = CheckedInterpreter;
    let f = extended_port_filter(23);
    let full = ip_tcp_frame(2, 23);
    let truncated = &full[..28]; // chops the TCP header off
    assert!(!interp.eval(&f, PacketView::new(truncated)));
}

#[test]
fn all_engines_agree_on_the_extended_filter() {
    use pf_filter::validate::ValidatedProgram;
    let f = extended_port_filter(23);
    let checked = CheckedInterpreter;
    let validated = ValidatedProgram::new(f.clone()).unwrap();
    for opt_words in 0..8 {
        for port in [22u16, 23, 24] {
            let pkt = ip_tcp_frame(opt_words, port);
            let view = PacketView::new(&pkt);
            let a = checked.eval(&f, view);
            assert_eq!(a, validated.eval(view));
        }
    }
}
