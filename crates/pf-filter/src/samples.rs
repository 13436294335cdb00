//! The paper's worked examples, as reusable artifacts.
//!
//! Figure 3-7 gives the layout of a Pup packet on the 3 Mbit/s Experimental
//! Ethernet (4-byte data-link header, packet type in the second 16-bit
//! word); figures 3-8 and 3-9 give two filters over that layout. These are
//! used throughout the test suites and benchmarks, exactly as the paper
//! uses them.

use crate::program::{Assembler, FilterProgram};
use crate::word::{BinaryOp, StackAction};

/// Ethernet type code for Pup on the 3 Mbit/s Experimental Ethernet.
pub const PUP_ETHERTYPE_3MB: u16 = 2;

/// Word index of the Ethernet type field (figure 3-7).
pub const WORD_ETHERTYPE: u8 = 1;

/// Word index of the `HopCount | PupType` word (PupType in the low byte).
pub const WORD_PUPTYPE: u8 = 3;

/// Word index of the high half of the Pup destination socket.
pub const WORD_DSTSOCKET_HI: u8 = 7;

/// Word index of the low half of the Pup destination socket.
pub const WORD_DSTSOCKET_LO: u8 = 8;

/// Figure 3-8: accepts all Pup packets with Pup types between 1 and 100.
///
/// ```text
/// struct enfilter f = {
///     10, 12,                       /* priority and length */
///     PUSHWORD+1, PUSHLIT | EQ, 2,  /* packet type == PUP  */
///     PUSHWORD+3, PUSH00FF | AND,   /* mask low byte       */
///     PUSHZERO | GT,                /* PupType > 0         */
///     PUSHWORD+3, PUSH00FF | AND,   /* mask low byte       */
///     PUSHLIT | LE, 100,            /* PupType <= 100      */
///     AND,                          /* 0 < PupType <= 100  */
///     AND                           /* && packet type == PUP */
/// };
/// ```
pub fn fig_3_8_pup_type_range() -> FilterProgram {
    Assembler::new(10)
        .pushword(WORD_ETHERTYPE)
        .pushlit_op(BinaryOp::Eq, PUP_ETHERTYPE_3MB)
        .pushword(WORD_PUPTYPE)
        .push_op(StackAction::Push00FF, BinaryOp::And)
        .pushzero_op(BinaryOp::Gt)
        .pushword(WORD_PUPTYPE)
        .push_op(StackAction::Push00FF, BinaryOp::And)
        .pushlit_op(BinaryOp::Le, 100)
        .op(BinaryOp::And)
        .op(BinaryOp::And)
        .finish()
}

/// Figure 3-9: accepts Pup packets with destination socket 35, testing the
/// socket *before* the type field so the `CAND` short-circuits exit early
/// on the common mismatch.
///
/// ```text
/// struct enfilter f = {
///     10, 8,                          /* priority and length      */
///     PUSHWORD+8, PUSHLIT | CAND, 35, /* low word of socket == 35 */
///     PUSHWORD+7, PUSHZERO | CAND,    /* high word of socket == 0 */
///     PUSHWORD+1, PUSHLIT | EQ, 2     /* packet type == Pup       */
/// };
/// ```
pub fn fig_3_9_pup_socket_35() -> FilterProgram {
    pup_socket_filter(10, 0, 35)
}

/// A figure-3-9-style filter for an arbitrary 32-bit destination socket.
pub fn pup_socket_filter(priority: u8, socket_hi: u16, socket_lo: u16) -> FilterProgram {
    // Zero constants use PUSHZERO, exactly as the paper's figure does for
    // the high socket word ("PUSHWORD+7, PUSHZERO | CAND").
    fn push_cmp(a: Assembler, value: u16, op: BinaryOp) -> Assembler {
        if value == 0 {
            a.pushzero_op(op)
        } else {
            a.pushlit_op(op, value)
        }
    }
    let mut a = Assembler::new(priority).pushword(WORD_DSTSOCKET_LO);
    a = push_cmp(a, socket_lo, BinaryOp::Cand);
    a = a.pushword(WORD_DSTSOCKET_HI);
    a = push_cmp(a, socket_hi, BinaryOp::Cand);
    a.pushword(WORD_ETHERTYPE)
        .pushlit_op(BinaryOp::Eq, PUP_ETHERTYPE_3MB)
        .finish()
}

/// A figure-3-8-style *range* filter: accepts Pup packets whose low
/// destination-socket word lies in `[lo, hi]` (inclusive), guarded by the
/// ethertype test. The shape of a port-range rule — the case the paper's
/// exact-match demultiplexers cannot index and the geometric classifier
/// exists for. Each ordering compare feeds a `CNOR 0` ("reject
/// immediately if the comparison came out false"), so the range is a
/// *required*, early-exiting condition exactly like figure 3-9's CANDs.
pub fn socket_range_filter(priority: u8, lo: u16, hi: u16) -> FilterProgram {
    Assembler::new(priority)
        .pushword(WORD_DSTSOCKET_LO)
        .pushlit_op(BinaryOp::Ge, lo)
        .pushzero_op(BinaryOp::Cnor)
        .pushword(WORD_DSTSOCKET_LO)
        .pushlit_op(BinaryOp::Le, hi)
        .pushzero_op(BinaryOp::Cnor)
        .pushword(WORD_ETHERTYPE)
        .pushlit_op(BinaryOp::Eq, PUP_ETHERTYPE_3MB)
        .finish()
}

/// A filter matching a single data-link type word — the "crude" kernel
/// demultiplexing criterion of §2, expressed in the filter language.
pub fn ethertype_filter(priority: u8, ethertype: u16) -> FilterProgram {
    Assembler::new(priority)
        .pushword(WORD_ETHERTYPE)
        .pushlit_op(BinaryOp::Eq, ethertype)
        .finish()
}

/// A filter that accepts every packet (useful for promiscuous monitoring).
pub fn accept_all(priority: u8) -> FilterProgram {
    Assembler::new(priority).pushone().finish()
}

/// A filter that rejects every packet.
/// Used by pf-kernel's `tests/fuzz.rs`, `tests/engine_agreement.rs` and pf-ir's unit tests.
pub fn reject_all(priority: u8) -> FilterProgram {
    Assembler::new(priority).pushzero().finish()
}

/// A synthetic filter of exactly `instructions` instruction words that
/// accepts every packet — used for table 6-10 (cost of interpreting
/// filters of various lengths). Zero instructions yields the empty
/// program, which accepts everything with no interpretation work
/// (historical semantics), exactly the table's zero-length row.
pub fn padded_accept_filter(priority: u8, instructions: usize) -> FilterProgram {
    let mut a = Assembler::new(priority);
    if instructions == 0 {
        return a.finish();
    }
    if instructions == 1 {
        return a.pushone().finish();
    }
    // Pairs of PUSHONE / AND keep the stack shallow at any length.
    a = a.pushone();
    let mut remaining = instructions - 1;
    while remaining >= 2 {
        a = a.pushone().op(BinaryOp::And);
        remaining -= 2;
    }
    if remaining == 1 {
        a = a.op(BinaryOp::Nop);
    }
    a.finish()
}

/// Builds a Pup packet for the 3 Mbit/s Experimental Ethernet, figure 3-7
/// layout, with the given Ethernet type, destination socket and Pup type.
///
/// Fields not parameterized here (hosts, nets, identifier) get fixed,
/// recognizable values; `data` is appended after the 24-byte header.
pub fn pup_packet_3mb_with_data(
    ethertype: u16,
    pup_type: u8,
    dst_socket_hi: u16,
    dst_socket_lo: u16,
    hop_count: u8,
    data: &[u8],
) -> Vec<u8> {
    let length = 22u16 + data.len() as u16; // Pup length: header-after-type + data
    let mut p = Vec::with_capacity(24 + data.len());
    let mut word = |w: u16| {
        p.push((w >> 8) as u8);
        p.push((w & 0xFF) as u8);
    };
    word(0x0102); // word 0: EtherDst=1, EtherSrc=2
    word(ethertype); // word 1: EtherType
    word(length); // word 2: PupLength
    word(u16::from(hop_count) << 8 | u16::from(pup_type)); // word 3
    word(0xBEEF); // words 4-5: PupIdentifier
    word(0x0001);
    word(0x0A0B); // word 6: DstNet=10, DstHost=11
    word(dst_socket_hi); // word 7
    word(dst_socket_lo); // word 8
    word(0x0C0D); // word 9: SrcNet=12, SrcHost=13
    word(0x0000); // words 10-11: SrcSocket
    word(0x0099);
    p.extend_from_slice(data);
    p
}

/// Convenience form of [`pup_packet_3mb_with_data`] with one word of data.
pub fn pup_packet_3mb(
    ethertype: u16,
    dst_socket_hi: u16,
    dst_socket_lo: u16,
    pup_type: u8,
) -> Vec<u8> {
    pup_packet_3mb_with_data(
        ethertype,
        pup_type,
        dst_socket_hi,
        dst_socket_lo,
        1,
        &[0xDD, 0xDD],
    )
}

/// Convenience form with the Pup type listed before the socket, used where
/// the type is the varying parameter.
/// Used by `tests/compiled_demux.rs` and pf-ir's unit tests.
pub fn pup_packet_3mb_typed(
    ethertype: u16,
    pup_type: u8,
    dst_socket_hi: u16,
    dst_socket_lo: u16,
    hop_count: u8,
) -> Vec<u8> {
    pup_packet_3mb_with_data(
        ethertype,
        pup_type,
        dst_socket_hi,
        dst_socket_lo,
        hop_count,
        &[0xDD, 0xDD],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::CheckedInterpreter;
    use crate::packet::PacketView;

    #[test]
    fn packet_layout_matches_fig_3_7() {
        let p = pup_packet_3mb(2, 7, 35, 42);
        let v = PacketView::new(&p);
        assert_eq!(v.word(usize::from(WORD_ETHERTYPE)), Some(2));
        assert_eq!(
            v.word(usize::from(WORD_PUPTYPE)).map(|w| w & 0xFF),
            Some(42)
        );
        assert_eq!(v.word(usize::from(WORD_DSTSOCKET_HI)), Some(7));
        assert_eq!(v.word(usize::from(WORD_DSTSOCKET_LO)), Some(35));
    }

    #[test]
    fn ethertype_filter_matches_only_type() {
        let i = CheckedInterpreter;
        let f = ethertype_filter(10, 2);
        assert!(i.eval(&f, PacketView::new(&pup_packet_3mb(2, 0, 9, 1))));
        assert!(!i.eval(&f, PacketView::new(&pup_packet_3mb(3, 0, 9, 1))));
    }

    #[test]
    fn accept_and_reject_all() {
        let i = CheckedInterpreter;
        let pkt = [0u8; 16];
        assert!(i.eval(&accept_all(1), PacketView::new(&pkt)));
        assert!(!i.eval(&reject_all(1), PacketView::new(&pkt)));
    }

    #[test]
    fn padded_filters_have_requested_length_and_accept() {
        let i = CheckedInterpreter;
        let pkt = [0u8; 16];
        for n in [1usize, 2, 3, 9, 10, 21, 40] {
            let f = padded_accept_filter(1, n);
            // No literals, so one word per instruction.
            assert_eq!(f.words().len(), n, "length {n}");
            assert!(i.eval(&f, PacketView::new(&pkt)), "length {n}");
        }
        assert!(i.eval(&padded_accept_filter(1, 0), PacketView::new(&pkt)));
    }
}
