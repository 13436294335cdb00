//! Receive-side scaling: how a host with N cores spreads its receive path.
//!
//! [`crate::world::World::set_rss`] gives a host one core per receive
//! queue. The NIC hashes configurable header words of each arriving frame
//! ([`RssConfig::steer`]) and the frame's driver, demultiplexing and
//! kernel-protocol work is charged to the core it steers to. The host
//! keeps one packet-filter device, so every frame meets the whole filter
//! table wherever it lands: steering and placement decide only *where work
//! is charged*, never which filters a frame is judged by.
//!
//! A process runs on the core its first pinned filter steers to, core 0
//! otherwise ([`RssConfig::placement_of`]). A filter is *pinned* when
//! every hashed word is provably held to a single value by the filter, as
//! its [`Form`] says: an exact required atom `packet[word] == literal`
//! ([`Form::required`]), or the leading equality test ([`Form::lead`]),
//! which pins even a program that fails validation after it. Every packet
//! the filter accepts then hashes identically, so its reader sits on the
//! core that demultiplexes its traffic. A *range* on a hashed word never
//! pins: different in-range values hash to different queues. A frame
//! demultiplexed on another core than its reader's pays a cross-core
//! wakeup (`CostModel::mc_wakeup`) to get there.

use pf_filter::form::Form;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;

/// Default RSS hash key (an arbitrary odd 64-bit constant; reproducible
/// runs want a fixed default, and any key gives the same steering
/// invariants).
pub const DEFAULT_RSS_KEY: u64 = 0x6d5a_6d5a_6d5a_6d5a;

/// Receive-side-scaling configuration: which header words the NIC hashes
/// and how many receive queues (one core each) it steers across.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RssConfig {
    /// Number of receive queues (= cores). Must be at least 1.
    pub queues: usize,
    /// The 16-bit packet words hashed (e.g. the destination-socket word).
    /// Words past the end of a short frame are skipped, never faulted.
    pub hash_words: Vec<u16>,
    /// Hash key; two NICs with the same key steer identically.
    pub key: u64,
}

impl RssConfig {
    /// Every host's front end until [`crate::world::World::set_rss`]: one
    /// queue, no hashing.
    pub fn single_queue() -> Self {
        RssConfig {
            queues: 1,
            hash_words: Vec::new(),
            key: DEFAULT_RSS_KEY,
        }
    }

    /// A multi-queue front end hashing the given header words.
    pub fn multi_queue(queues: usize, hash_words: Vec<u16>) -> Self {
        assert!(queues >= 1, "need at least one receive queue");
        RssConfig {
            queues,
            hash_words,
            key: DEFAULT_RSS_KEY,
        }
    }

    /// A multi-queue front end whose hash key is derived from a per-boot
    /// seed (forced odd, like the default key). With the well-known
    /// default key an adversary can precompute flows that all steer to
    /// one queue and pile a whole flood onto one core; a keyed boot seed
    /// makes the queue assignment unpredictable from outside the host.
    /// Single-queue steering never consults the key.
    pub fn keyed(queues: usize, hash_words: Vec<u16>, boot_seed: u64) -> Self {
        let mut cfg = Self::multi_queue(queues, hash_words);
        cfg.key = pf_sim::rng::SplitMix64::new(boot_seed).next_u64() | 1;
        cfg
    }

    /// The Toeplitz-like hash over the configured words of `frame`.
    ///
    /// Each present word is mixed with a key schedule derived by rotating
    /// the key per position; a final avalanche spreads the result so
    /// `hash % queues` is well distributed even for small word values.
    /// Missing words (short/truncated frames) are skipped — the hash is
    /// total over arbitrary byte strings and never faults.
    pub fn hash(&self, frame: &[u8]) -> u64 {
        let view = PacketView::new(frame);
        let mut h: u64 = self.key;
        for (i, &w) in self.hash_words.iter().enumerate() {
            let Some(v) = view.word(usize::from(w)) else {
                continue;
            };
            let k = self.key.rotate_left(((i * 17) % 64) as u32) | 1;
            h ^= (u64::from(v).wrapping_add(0x9E37_79B9_7F4A_7C15)).wrapping_mul(k);
            h = h.rotate_left(29);
        }
        // splitmix64 avalanche.
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// The receive queue `frame` steers to. Single-queue configurations
    /// return 0 without hashing.
    pub fn steer(&self, frame: &[u8]) -> usize {
        if self.queues == 1 {
            return 0;
        }
        (self.hash(frame) % self.queues as u64) as usize
    }

    /// The core every packet `program` accepts steers to, when the filter
    /// pins each hashed word to one value (see the module docs); `None`
    /// when it does not.
    pub fn placement_of(&self, program: &FilterProgram) -> Option<usize> {
        if self.queues == 1 {
            return Some(0);
        }
        if self.hash_words.is_empty() {
            return None;
        }
        let form = Form::of(program);
        // A frame carrying each hashed word's pinned literal: every
        // matching packet hashes like it, since the hash reads only those
        // words and a matching packet must carry each.
        let mut synthetic = Vec::new();
        for &w in &self.hash_words {
            let pin = form.lead().filter(|l| l.word == w);
            let exact = || {
                form.required()
                    .iter()
                    .copied()
                    .find(|iv| iv.word == w && iv.is_exact())
            };
            let literal = pin.or_else(exact)?.lo;
            let off = 2 * usize::from(w);
            if synthetic.len() < off + 2 {
                synthetic.resize(off + 2, 0);
            }
            synthetic[off..off + 2].copy_from_slice(&literal.to_be_bytes());
        }
        Some(self.steer(&synthetic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::samples;

    /// The destination-socket low word of a 3 Mb PUP frame (what
    /// `samples::pup_socket_filter(_, 0, sock)` tests).
    const SOCK_WORD: u16 = 8;

    fn pkt(sock: u16) -> Vec<u8> {
        samples::pup_packet_3mb(2, 0, sock, 1)
    }

    #[test]
    fn steering_is_stable_per_flow_and_covers_every_queue() {
        let rss = RssConfig::multi_queue(4, vec![SOCK_WORD]);
        let mut hit = [false; 4];
        for sock in 0..200u16 {
            let q = rss.steer(&pkt(sock));
            // Same socket, a longer frame: the same queue.
            let mut other = pkt(sock);
            other.extend_from_slice(&[0xAA; 37]);
            assert_eq!(q, rss.steer(&other), "sock {sock}");
            hit[q] = true;
        }
        assert!(hit.iter().all(|&h| h), "200 flows must cover 4 queues");
        assert_eq!(RssConfig::single_queue().steer(&pkt(35)), 0);
    }

    #[test]
    fn keyed_seeds_re_steer_and_never_move_a_single_queue() {
        let a = RssConfig::keyed(4, vec![SOCK_WORD], 0x0A);
        let b = RssConfig::keyed(4, vec![SOCK_WORD], 0x0B);
        assert_ne!(a.key, b.key, "distinct boot seeds derive distinct keys");
        let flows: Vec<Vec<u8>> = (0..64u16).map(|s| pkt(100 + s)).collect();
        let steer_a: Vec<usize> = flows.iter().map(|f| a.steer(f)).collect();
        let steer_b: Vec<usize> = flows.iter().map(|f| b.steer(f)).collect();
        assert_ne!(steer_a, steer_b, "same flow set, two seeds: new steering");
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let keyed = RssConfig::keyed(1, vec![SOCK_WORD], seed);
            assert!(flows.iter().all(|f| keyed.steer(f) == 0));
        }
    }

    #[test]
    fn short_frames_never_panic() {
        let rss = RssConfig::multi_queue(8, vec![0, SOCK_WORD, 300]);
        for len in 0..32usize {
            assert!(rss.steer(&vec![0x5Au8; len]) < 8);
        }
    }

    #[test]
    fn signature_filters_pin_to_their_flow_queue() {
        let rss = RssConfig::multi_queue(4, vec![SOCK_WORD]);
        for sock in 100..120u16 {
            let f = samples::pup_socket_filter(10, 0, sock);
            assert_eq!(rss.placement_of(&f), Some(rss.steer(&pkt(sock))));
        }
        // No witness on the hashed word: core 0.
        assert_eq!(rss.placement_of(&samples::accept_all(1)), None);
        let single = RssConfig::single_queue();
        assert_eq!(single.placement_of(&samples::accept_all(1)), Some(0));
    }

    #[test]
    fn interval_analysis_pins_multi_word_and_guarded_filters() {
        // Hash *both* socket words: the syntactic signature covers only
        // the low word, but the high word's `PUSHZERO CAND` is an exact
        // required constraint.
        let hi = u16::from(samples::WORD_DSTSOCKET_HI);
        let rss = RssConfig::multi_queue(4, vec![hi, SOCK_WORD]);
        let f = samples::pup_socket_filter(10, 0, 35);
        assert_eq!(rss.placement_of(&f), Some(rss.steer(&pkt(35))));

        // A range filter pins when the hash reads its equality guard
        // (every accepted packet carries ethertype == 2).
        let rss = RssConfig::multi_queue(4, vec![u16::from(samples::WORD_ETHERTYPE)]);
        let f = samples::socket_range_filter(10, 100, 200);
        assert_eq!(rss.placement_of(&f), Some(rss.steer(&pkt(150))));
    }

    #[test]
    fn a_ranged_hash_word_falls_back_to_core_zero() {
        // Different in-range values hash to different queues.
        let rss = RssConfig::multi_queue(4, vec![SOCK_WORD]);
        let f = samples::socket_range_filter(10, 100, 200);
        assert_eq!(rss.placement_of(&f), None);
    }
}
