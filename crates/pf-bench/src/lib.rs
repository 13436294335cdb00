//! Experiment harness: regenerates every table and figure in §6 of
//! *The Packet Filter: An Efficient Mechanism for User-level Network Code*
//! (SOSP 1987).
//!
//! Each module owns one experiment family and exposes both raw
//! measurement functions (used by the test suite to pin the paper's shape
//! claims) and a `report_*` function that renders a paper-vs-measured
//! table:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`sendcost`] | table 6-1 (send cost, pf vs UDP) |
//! | [`profile61`] | §6.1 (gprof-style kernel per-packet profile) |
//! | [`vmtp_exp`] | tables 6-2, 6-3, 6-4, 6-5 (VMTP comparisons) |
//! | [`streams`] | table 6-6 (BSP vs kernel TCP bulk streams) |
//! | [`telnet_exp`] | table 6-7 (telnet output rates) |
//! | [`recvcost`] | tables 6-8, 6-9, 6-10 (receive-path costs) |
//! | [`figures`] | figures 2-1/2-2, 2-3, 3-4/3-5 (as event counts) |
//! | [`breakeven`] | §6.5 (filter-count break-even sweep) |
//!
//! [`ablations`] additionally measures the §3.2/§7 design-choice knobs
//! (adaptive reordering, priority assignment, write batching).
//!
//! Six campaigns go beyond the paper. Each is a typed report, a `sweep`
//! whose claims are `assert!`s, and one `json()` that lists every field of
//! its `BENCH_<name>.json` once; [`cli::CAMPAIGNS`] is the table of them,
//! [`json`] the one value and renderer they share, and the `campaign`
//! binary runs any or all (`campaign mc overload`, `campaign --smoke`):
//!
//! | campaign | module | sweeps |
//! |----------|--------|--------|
//! | `chaos` | [`chaos`] | fault injection over BSP and VMTP, kernel degradation |
//! | `adversary` | [`adversary`] | five hostile-traffic families, undefended against hardened |
//! | `mc` | [`mc`] | one host's cores × the armor's poll batch × engines under a saturating burst |
//! | `overload` | [`overload`] | offered load to 8× capacity across the overload-armor tiers |
//! | `demux` | [`demux_json`] | the engine race against population, the range ladder, churn |
//! | `fabric` | [`fabric`] | [`flowgen`] workloads over routed rings: fault-free to 256 nodes × 100k flows (`steady`), and under router kill, link flap and partition |
//!
//! Run `cargo run -p pf-bench --release --bin paper-report` for everything
//! at once, or name the sections wanted (`paper-report table_6_3 figures`;
//! the names are `table_6_1` … `table_6_10`, `section_6_1`, `figures`,
//! `break_even` and `ablations`). `paper-report --cells` prints the
//! paper-versus-measured cells of the same reports, one per line, with
//! their relative errors (`report::cells_tsv`). `tests/paper.rs` holds
//! both outputs to their committed copies under `docs/`.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod adversary;
pub mod breakeven;
pub mod chaos;
pub mod cli;
pub mod demux_json;
pub mod fabric;
pub mod figures;
pub mod flowgen;
pub mod json;
pub mod mc;
pub mod overload;
pub mod profile61;
pub mod recvcost;
pub mod report;
pub mod sendcost;
pub mod streams;
pub mod telnet_exp;
pub mod vmtp_exp;
