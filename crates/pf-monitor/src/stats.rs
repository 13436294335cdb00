//! Trace analysis: the "substantial analysis in real time" of §5.4.
//!
//! "Since one can easily write arbitrarily elaborate programs to analyze
//! the trace data … an integrated network monitor appears to be far more
//! useful than a dedicated one." This module is a small library of such
//! analyses: per-type traffic accounting, conversation matrices, size
//! histograms, and inter-arrival statistics.

use crate::capture::Captured;
use pf_net::frame;
use pf_net::medium::Medium;
use pf_sim::time::SimDuration;
use std::collections::HashMap;

/// Aggregate statistics over a captured trace.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Total packets analyzed.
    pub packets: u64,
    /// Total bytes on the wire.
    pub bytes: u64,
    /// Packets and bytes per Ethernet type.
    pub(crate) by_ethertype: HashMap<u16, (u64, u64)>,
    /// Packets per (source, destination) link-address pair.
    pub(crate) conversations: HashMap<(u64, u64), u64>,
    /// Packet-size histogram with 128-byte buckets.
    pub(crate) size_histogram: Vec<u64>,
    /// Smallest observed inter-arrival gap.
    pub min_gap: Option<SimDuration>,
    /// Mean inter-arrival gap.
    pub mean_gap: Option<SimDuration>,
    /// Frames that failed data-link parsing.
    pub malformed: u64,
}

impl TraceStats {
    /// Analyzes a trace captured on `medium`.
    pub fn analyze(medium: &Medium, trace: &[Captured]) -> Self {
        let mut s = TraceStats {
            size_histogram: vec![0; 13],
            ..Default::default()
        };
        let mut prev_stamp = None;
        let mut gap_total: u64 = 0;
        let mut gap_count: u64 = 0;
        for c in trace {
            s.packets += 1;
            s.bytes += c.bytes.len() as u64;
            let bucket = (c.bytes.len() / 128).min(s.size_histogram.len() - 1);
            s.size_histogram[bucket] += 1;
            match frame::parse(medium, &c.bytes) {
                Ok(h) => {
                    let e = s.by_ethertype.entry(h.ethertype).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += c.bytes.len() as u64;
                    *s.conversations.entry((h.src, h.dst)).or_insert(0) += 1;
                }
                Err(_) => s.malformed += 1,
            }
            if let (Some(prev), Some(now)) = (prev_stamp, c.stamp) {
                let gap = now.saturating_since(prev);
                s.min_gap = Some(s.min_gap.map_or(gap, |m: SimDuration| m.min(gap)));
                gap_total += gap.as_nanos();
                gap_count += 1;
            }
            prev_stamp = c.stamp.or(prev_stamp);
        }
        if let Some(mean) = gap_total.checked_div(gap_count) {
            s.mean_gap = Some(SimDuration::from_nanos(mean));
        }
        s
    }

    /// The busiest conversations, descending, at most `n`.
    pub fn top_talkers(&self, n: usize) -> Vec<((u64, u64), u64)> {
        let mut v: Vec<_> = self.conversations.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Packets of a given Ethernet type.
    /// Read by `tests/busy_ethernet.rs` and `tests/end_to_end.rs`.
    pub fn packets_of_type(&self, ethertype: u16) -> u64 {
        self.by_ethertype.get(&ethertype).map_or(0, |e| e.0)
    }

    /// Mean packet size in bytes.
    pub fn mean_size(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.bytes as f64 / self.packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_sim::time::SimTime;

    fn cap(bytes: Vec<u8>, at: u64) -> Captured {
        Captured {
            stamp: Some(SimTime(at)),
            bytes,
            dropped_before: 0,
        }
    }

    fn pup_frame(src: u64, dst: u64, len: usize) -> Vec<u8> {
        let m = Medium::experimental_3mb();
        frame::build(&m, dst, src, 2, &vec![0u8; len]).unwrap()
    }

    #[test]
    fn counts_types_and_conversations() {
        let m = Medium::experimental_3mb();
        let trace = vec![
            cap(pup_frame(1, 2, 10), 1_000),
            cap(pup_frame(1, 2, 20), 3_000),
            cap(pup_frame(3, 2, 30), 6_000),
            cap(frame::build(&m, 2, 4, 0x900, &[0; 4]).unwrap(), 10_000),
        ];
        let s = TraceStats::analyze(&m, &trace);
        assert_eq!(s.packets, 4);
        assert_eq!(s.packets_of_type(2), 3);
        assert_eq!(s.packets_of_type(0x900), 1);
        assert_eq!(s.conversations[&(1, 2)], 2);
        assert_eq!(s.top_talkers(1), vec![((1, 2), 2)]);
        assert_eq!(s.malformed, 0);
    }

    #[test]
    fn gap_statistics() {
        let trace = vec![
            cap(pup_frame(1, 2, 10), 1_000),
            cap(pup_frame(1, 2, 10), 2_000),
            cap(pup_frame(1, 2, 10), 5_000),
        ];
        let s = TraceStats::analyze(&Medium::experimental_3mb(), &trace);
        assert_eq!(s.min_gap, Some(SimDuration::from_nanos(1_000)));
        assert_eq!(s.mean_gap, Some(SimDuration::from_nanos(2_000)));
    }

    #[test]
    fn size_histogram_buckets() {
        let trace = vec![
            cap(pup_frame(1, 2, 10), 0),  // 14 bytes → bucket 0
            cap(pup_frame(1, 2, 300), 0), // 304 bytes → bucket 2
        ];
        let s = TraceStats::analyze(&Medium::experimental_3mb(), &trace);
        assert_eq!(s.size_histogram[0], 1);
        assert_eq!(s.size_histogram[2], 1);
        assert!((s.mean_size() - (14.0 + 304.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_frames_counted() {
        let trace = vec![Captured {
            stamp: None,
            bytes: vec![1],
            dropped_before: 0,
        }];
        let s = TraceStats::analyze(&Medium::experimental_3mb(), &trace);
        assert_eq!(s.malformed, 1);
    }

    #[test]
    fn empty_trace() {
        let s = TraceStats::analyze(&Medium::experimental_3mb(), &[]);
        assert_eq!(s.packets, 0);
        assert_eq!(s.mean_size(), 0.0);
        assert!(s.min_gap.is_none());
        assert!(s.top_talkers(5).is_empty());
    }
}
