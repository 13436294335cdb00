//! Table formatting for experiment reports.
//!
//! Every experiment prints a table with the paper's published value next
//! to the measured one, so a reader can check the *shape* claims (who
//! wins, by what factor) at a glance.
//!
//! `cells_tsv` reads those pairs back out of the rows the text is
//! rendered from, so the fidelity record cannot drift from the tables.
//!
//! Also home to `p99_us`, the latency quantile the overload,
//! adversary and mc campaigns share.

use std::fmt::Write as _;

/// p99 of nanosecond latencies by nearest rank — the smallest sample with
/// at least 99% of the samples at or below it — in µs; 0 for no samples.
pub(crate) fn p99_us(mut lat: Vec<u64>) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    lat[(lat.len() * 99).div_ceil(100) - 1] / 1_000
}

/// A rendered experiment table.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment identifier, e.g. `"Table 6-1"`.
    pub id: String,
    /// One-line description.
    pub(crate) title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Report {
    /// Starts a report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn headers(mut self, headers: &[&str]) -> Self {
        self.headers = headers.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// A ratio cell like `"2.01x"`.
    pub fn ratio(a: f64, b: f64) -> String {
        if b == 0.0 {
            "-".to_string()
        } else {
            format!("{:.2}x", a / b)
        }
    }
}

/// One paper-versus-measured pair of a [`Report`], as the table prints it.
struct Cell {
    /// The report's id, e.g. `"Table 6-3"`.
    table: String,
    /// The row's first cell.
    row: String,
    /// What the column pair measures (`"pf"` for `pf (paper)` beside
    /// `pf (measured)`); `"-"` where the headers are plain `paper` and
    /// `measured`.
    column: String,
    /// The paper's cell.
    paper: String,
    /// The reproduction's cell.
    measured: String,
}

/// The number a cell states: `1.9 ms`, `41%`, `~111 KB/s (half)`. A cell
/// with no leading number (`(profiled)`) or with a second one
/// (`0.8 + 0.122n ms`) states none.
fn stated_number(cell: &str) -> Option<f64> {
    let mut tokens = cell.trim_start_matches('~').split_whitespace();
    let value = tokens.next()?.trim_end_matches('%').parse().ok()?;
    tokens
        .all(|t| !t.contains(|c: char| c.is_ascii_digit()))
        .then_some(value)
}

impl Cell {
    /// `|measured - paper| / paper`, where both cells state a number.
    fn relative_error(&self) -> Option<f64> {
        let (paper, measured) = (stated_number(&self.paper)?, stated_number(&self.measured)?);
        Some((measured - paper).abs() / paper)
    }
}

impl Report {
    /// Every paper-versus-measured pair in the table: a `paper` or
    /// `… (paper)` column beside its `measured` partner, row by row. Empty
    /// for a table with no paper column.
    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (p, header) in self.headers.iter().enumerate() {
            let (column, partner) = match header.strip_suffix(" (paper)") {
                Some(what) => (what, format!("{what} (measured)")),
                None if header == "paper" => ("-", "measured".to_string()),
                None => continue,
            };
            let Some(m) = self.headers.iter().position(|h| *h == partner) else {
                continue;
            };
            for row in &self.rows {
                cells.push(Cell {
                    table: self.id.clone(),
                    row: row[0].clone(),
                    column: column.to_string(),
                    paper: row[p].clone(),
                    measured: row[m].clone(),
                });
            }
        }
        cells
    }
}

/// The cells of `reports` as tab-separated lines under a header line —
/// table, row, column, paper cell, measured cell, relative error to three
/// places, or `skipped` where a side states no number — and a closing `#`
/// line with the median and the worst error.
pub(crate) fn cells_tsv(reports: &[Report]) -> String {
    let mut out = String::from("table\trow\tcolumn\tpaper\tmeasured\trel_error\n");
    let mut errors: Vec<(f64, String)> = Vec::new();
    let mut skipped = 0;
    for c in reports.iter().flat_map(Report::cells) {
        let error = match c.relative_error() {
            Some(e) => {
                errors.push((e, format!("{}, {}, {}", c.table, c.row, c.column)));
                format!("{e:.3}")
            }
            None => {
                skipped += 1;
                "skipped".to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{error}",
            c.table, c.row, c.column, c.paper, c.measured
        );
    }
    errors.sort_by(|a, b| a.0.total_cmp(&b.0));
    if let Some((worst, at)) = errors.last() {
        let median = errors[errors.len() / 2].0;
        let _ = writeln!(
            out,
            "# {} cells, {skipped} skipped; relative error: median {median:.3}, worst {worst:.3} ({at})",
            errors.len()
        );
    }
    out
}

impl core::fmt::Display for Report {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(c.len());
                } else {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "=== {}: {} ===", self.id, self.title);
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, c) in row.iter().enumerate() {
                let _ = write!(line, "{:<w$}  ", c, w = widths.get(i).copied().unwrap_or(0));
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("Table X", "demo").headers(&["name", "paper", "measured"]);
        r.row(&["pf".into(), "1.9 ms".into(), "1.93 ms".into()]);
        r.row(&["udp-longer-name".into(), "3.1 ms".into(), "3.12 ms".into()]);
        r.note("shape holds");
        let s = r.to_string();
        assert!(s.contains("Table X"));
        assert!(s.contains("udp-longer-name"));
        assert!(s.contains("note: shape holds"));
        // Columns align: both rows have "ms" at consistent offsets.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with("name"));
    }

    #[test]
    fn cells_pair_paper_columns_with_their_measured_partners() {
        let mut plain = Report::new("Table P", "plain").headers(&["what", "paper", "measured"]);
        plain.row(&["rtt".into(), "10.0 ms".into(), "12.5 ms".into()]);
        plain.row(&["half".into(), "~100 KB/s (half)".into(), "90 KB/s".into()]);
        plain.row(&["arp".into(), "(profiled)".into(), "0.20 ms".into()]);
        plain.row(&["fit".into(), "0.8 + 0.1n ms".into(), "1.0 + 0.1n ms".into()]);
        let mut paired = Report::new("Table Q", "paired").headers(&[
            "size",
            "pf (paper)",
            "pf (measured)",
            "UDP (paper)",
            "UDP (measured)",
        ]);
        paired.row(&[
            "128 bytes".into(),
            "2.0 ms".into(),
            "1.0 ms".into(),
            "41%".into(),
            "41%".into(),
        ]);
        let bare = Report::new("Figure R", "no paper column").headers(&["mode", "syscalls/pkt"]);
        assert!(bare.cells().is_empty());

        let errors: Vec<Option<f64>> = plain.cells().iter().map(Cell::relative_error).collect();
        assert_eq!(errors, [Some(0.25), Some(0.1), None, None]);
        let cells = paired.cells();
        assert_eq!(
            (cells[0].column.as_str(), cells[1].column.as_str()),
            ("pf", "UDP")
        );
        assert_eq!(
            cells_tsv(&[plain, paired, bare]),
            "table\trow\tcolumn\tpaper\tmeasured\trel_error\n\
             Table P\trtt\t-\t10.0 ms\t12.5 ms\t0.250\n\
             Table P\thalf\t-\t~100 KB/s (half)\t90 KB/s\t0.100\n\
             Table P\tarp\t-\t(profiled)\t0.20 ms\tskipped\n\
             Table P\tfit\t-\t0.8 + 0.1n ms\t1.0 + 0.1n ms\tskipped\n\
             Table Q\t128 bytes\tpf\t2.0 ms\t1.0 ms\t0.500\n\
             Table Q\t128 bytes\tUDP\t41%\t41%\t0.000\n\
             # 4 cells, 2 skipped; relative error: median 0.250, worst 0.500 (Table Q, 128 bytes, pf)\n"
        );
    }

    #[test]
    fn p99_is_the_nearest_rank() {
        let mut rng = pf_sim::rng::SplitMix64::new(0x99);
        for n in [1, 2, 99, 100, 101, 472] {
            let lat: Vec<u64> = (0..n).map(|_| rng.below(5_000_000_000)).collect();
            // The smallest sample with at least 99% of them at or below it.
            let nearest = lat
                .iter()
                .filter(|&&x| 100 * lat.iter().filter(|&&y| y <= x).count() >= 99 * n)
                .min()
                .expect("the largest sample qualifies");
            assert_eq!(p99_us(lat.clone()), nearest / 1_000, "{n} samples");
        }
        assert_eq!(p99_us(Vec::new()), 0);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(Report::ratio(4.0, 2.0), "2.00x");
        assert_eq!(Report::ratio(1.0, 0.0), "-");
    }
}
