//! §6.5's break-even analysis: how many active filters before kernel
//! demultiplexing loses its advantage?
//!
//! "Even with rather long filters (21 instructions) the additional cost
//! for filter interpretation is less than the cost of user-level
//! demultiplexing if no more than three such long filters are applied …
//! For filters using short-circuit conditionals, the break-even point is
//! closer to an average of about ten filters before acceptance, which
//! should occur when more than twenty filters are active. This means that
//! even if one assumes zero cost for decision-making in a user-level
//! demultiplexer, the break-even point comes with twenty different
//! processes using the network."

use crate::recvcost::{self, DemuxMode, RecvConfig};
use crate::report::Report;
use pf_kernel::device::DemuxEngine;

/// Per-packet cost with `filters` active short-circuit socket filters and
/// kernel demultiplexing (traffic spread uniformly, so the average packet
/// is tested against about half of them).
pub(crate) fn kernel_cost_ms(filters: usize) -> f64 {
    recvcost::run(&RecvConfig {
        mode: DemuxMode::Kernel,
        active_filters: filters,
        count: 240,
        spacing_us: 900 + 140 * filters as u64, // stay saturated but lossless
        ..Default::default()
    })
    .per_packet_ms
}

/// The same sweep point under an alternative demux engine (decision
/// table or the geometric classifier): per-packet cost should be
/// (nearly) independent of the filter population.
pub(crate) fn kernel_engine_cost_ms(filters: usize, engine: DemuxEngine) -> f64 {
    recvcost::run(&RecvConfig {
        mode: DemuxMode::Kernel,
        active_filters: filters,
        count: 240,
        spacing_us: 900,
        engine,
        ..Default::default()
    })
    .per_packet_ms
}

/// Per-packet cost of the user-level demultiplexer (independent of the
/// process count — the paper generously assumes zero decision cost).
pub(crate) fn user_cost_ms() -> f64 {
    recvcost::run(&RecvConfig {
        mode: DemuxMode::UserProcess,
        count: 240,
        spacing_us: 1_900,
        ..Default::default()
    })
    .per_packet_ms
}

/// The sweep: (filters, kernel ms/packet) pairs plus the flat user cost.
pub fn sweep() -> (Vec<(usize, f64)>, f64) {
    let filters = [1usize, 2, 4, 8, 16, 24, 32, 48];
    let kernel: Vec<(usize, f64)> = filters.iter().map(|&f| (f, kernel_cost_ms(f))).collect();
    (kernel, user_cost_ms())
}

/// First filter count at which kernel demultiplexing costs more than the
/// user-level demultiplexer, by linear interpolation over the sweep.
pub(crate) fn break_even(kernel: &[(usize, f64)], user: f64) -> Option<f64> {
    for pair in kernel.windows(2) {
        let (f0, c0) = pair[0];
        let (f1, c1) = pair[1];
        if c0 <= user && c1 > user {
            let t = (user - c0) / (c1 - c0);
            return Some(f0 as f64 + t * (f1 - f0) as f64);
        }
    }
    None
}

/// Builds the break-even report.
pub(crate) fn report_break_even() -> Report {
    let (kernel, user) = sweep();
    let mut r = Report::new(
        "Section 6.5",
        "Break-even: filter interpretation vs user-level demultiplexing",
    )
    .headers(&[
        "active filters",
        "kernel demux (ms/pkt)",
        "kernel, §7 decision table",
        "kernel, geom",
        "user demux (ms/pkt)",
    ]);
    for (f, c) in &kernel {
        let table = kernel_engine_cost_ms(*f, DemuxEngine::DecisionTable);
        let geom = kernel_engine_cost_ms(*f, DemuxEngine::Geom);
        r.row(&[
            f.to_string(),
            format!("{c:.2}"),
            format!("{table:.2}"),
            format!("{geom:.2}"),
            format!("{user:.2}"),
        ]);
    }
    match break_even(&kernel, user) {
        Some(be) => r.note(format!(
            "break-even at ~{be:.0} active filters (paper: more than twenty)"
        )),
        None => r.note("kernel demultiplexing cheaper across the whole sweep"),
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn break_even_lands_past_a_dozen_filters() {
        let (kernel, user) = sweep();
        // Kernel cost grows with the filter count…
        assert!(kernel.last().unwrap().1 > kernel.first().unwrap().1 + 0.5);
        // …and stays cheaper than user demux well into the teens.
        let at_8 = kernel.iter().find(|(f, _)| *f == 8).unwrap().1;
        assert!(at_8 < user, "8 filters: kernel {at_8:.2} vs user {user:.2}");
        let be = break_even(&kernel, user).expect("the sweep must cross the user-demux cost");
        assert!(
            (10.0..45.0).contains(&be),
            "break-even at {be:.0} filters (paper: >20)"
        );
    }

    #[test]
    fn decision_table_engine_is_population_independent() {
        // §7's "best possible performance": the compiled demultiplexer
        // never crosses the user-demux cost — its per-packet time is flat
        // in the number of active filters.
        let at_1 = kernel_engine_cost_ms(1, DemuxEngine::DecisionTable);
        let at_48 = kernel_engine_cost_ms(48, DemuxEngine::DecisionTable);
        assert!(
            (at_48 - at_1).abs() < 0.3,
            "table engine flat: {at_1:.2} vs {at_48:.2} ms/pkt"
        );
        let sequential_at_48 = kernel_cost_ms(48);
        assert!(
            at_48 < sequential_at_48 - 1.0,
            "table {at_48:.2} well under sequential {sequential_at_48:.2} at 48 filters"
        );
    }

    #[test]
    fn geom_engine_is_population_independent() {
        // The exact-tuple directory selects one member per packet on a
        // socket-filter population, so per-packet cost stays flat as the
        // population grows and lands well under the sequential loop. The
        // sweep's one-filter point binds the empty program, which costs no
        // engine anything to evaluate; the socket population starts at two.
        let at_2 = kernel_engine_cost_ms(2, DemuxEngine::Geom);
        let at_48 = kernel_engine_cost_ms(48, DemuxEngine::Geom);
        assert!(
            (at_48 - at_2).abs() < 0.3,
            "geom engine flat: {at_2:.2} vs {at_48:.2} ms/pkt"
        );
        let sequential_at_48 = kernel_cost_ms(48);
        assert!(
            at_48 < sequential_at_48 - 1.0,
            "geom {at_48:.2} well under sequential {sequential_at_48:.2} at 48 filters"
        );
    }
}
