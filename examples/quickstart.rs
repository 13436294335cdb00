//! Quickstart: the filter language in five minutes.
//!
//! Builds the paper's figure 3-9 filter three ways — raw assembler, the
//! ready-made sample, and the predicate-expression DSL — evaluates it
//! against packets, and shows the priority-ordered demultiplexing that
//! the kernel device performs.
//!
//! Run with: `cargo run --example quickstart`

use packet_filter::filter::builder::Expr;
use packet_filter::filter::dtree::FilterSet;
use packet_filter::filter::interp::CheckedInterpreter;
use packet_filter::filter::packet::PacketView;
use packet_filter::filter::program::Assembler;
use packet_filter::filter::samples;
use packet_filter::filter::word::BinaryOp;

fn main() {
    // --- 1. The figure 3-9 filter, written with the assembler ---------
    // "Accept Pup packets with a Pup DstSocket field of 35", testing the
    // socket first so the CAND short-circuits exit early on mismatches.
    let by_hand = Assembler::new(10)
        .pushword(8)
        .pushlit_op(BinaryOp::Cand, 35) // low word of socket == 35
        .pushword(7)
        .pushzero_op(BinaryOp::Cand) // high word of socket == 0
        .pushword(1)
        .pushlit_op(BinaryOp::Eq, 2) // packet type == Pup
        .finish();
    println!("figure 3-9, assembled by hand:\n{by_hand}");

    // --- 2. The same filter from the predicate DSL --------------------
    // The "library procedure" of §3.1: the compiler notices the leading
    // equality tests and emits the same CAND chain automatically.
    let from_dsl = Expr::word(8)
        .eq(35)
        .and(Expr::word(7).eq(0))
        .and(Expr::word(1).eq(2))
        .compile(10)
        .expect("static filter compiles");
    println!("the same predicate from the expression DSL:\n{from_dsl}");

    // --- 3. Evaluate against packets -----------------------------------
    let interp = CheckedInterpreter;
    let ours = samples::pup_packet_3mb(2, 0, 35, 1); // Pup to socket 35
    let theirs = samples::pup_packet_3mb(2, 0, 99, 1); // Pup to socket 99
    let (accept, stats) = interp.eval_with_stats(&by_hand, PacketView::new(&ours));
    println!(
        "packet to socket 35: accepted={accept} after {} instructions",
        stats.instructions
    );
    let (accept, stats) = interp.eval_with_stats(&by_hand, PacketView::new(&theirs));
    println!(
        "packet to socket 99: accepted={accept} after {} instructions \
         (short-circuited: {})",
        stats.instructions, stats.short_circuited
    );

    // --- 4. A demultiplexing set with priorities ------------------------
    // Higher priority wins when filters overlap (§3.2); the catch-all
    // monitor at low priority only sees what nobody claims… unless it
    // opts into copies via the deliver-to-lower option in the kernel.
    let mut set = FilterSet::new();
    set.insert(1, samples::pup_socket_filter(10, 0, 35)); // a connection
    set.insert(2, samples::pup_socket_filter(10, 0, 99)); // another one
    set.insert(3, samples::ethertype_filter(5, 2)); // any Pup, lower prio
    for (label, pkt) in [("socket 35", &ours), ("socket 99", &theirs)] {
        println!(
            "decision table routes {label} -> port {:?}",
            set.first_match(PacketView::new(pkt))
        );
    }
    let stray = samples::pup_packet_3mb(2, 0, 7, 1);
    println!(
        "unclaimed Pup (socket 7) falls through to the type filter -> port {:?}",
        set.first_match(PacketView::new(&stray))
    );
    println!(
        "({} of {} filters were table-compiled; the set answers in one hash probe)",
        set.table_compiled(),
        set.len()
    );
}
