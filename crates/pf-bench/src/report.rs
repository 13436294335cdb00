//! Table formatting for experiment reports.
//!
//! Every experiment prints a table with the paper's published value next
//! to the measured one, so a reader can check the *shape* claims (who
//! wins, by what factor) at a glance.
//!
//! Also home to the two helpers every campaign's `BENCH_*.json` writer
//! shares: [`fmt_f64`] and [`p99_us`].

use std::fmt::Write as _;

/// A float as a JSON number with `places` decimals; `null` when it is not
/// finite (JSON has no NaN or infinity).
pub(crate) fn fmt_f64(x: f64, places: usize) -> String {
    if x.is_finite() {
        format!("{x:.places$}")
    } else {
        "null".to_string()
    }
}

/// p99 of nanosecond latencies by nearest rank, in µs; 0 for no samples.
pub(crate) fn p99_us(mut lat: Vec<u64>) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    lat[(lat.len() - 1) * 99 / 100] / 1_000
}

/// A rendered experiment table.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment identifier, e.g. `"Table 6-1"`.
    pub id: String,
    /// One-line description.
    pub title: String,
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
    fn ratio_formatting() {
        assert_eq!(Report::ratio(4.0, 2.0), "2.00x");
        assert_eq!(Report::ratio(1.0, 0.0), "-");
    }
}
