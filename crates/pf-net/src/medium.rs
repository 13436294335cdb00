//! Data-link media: the two Ethernets of the paper's evaluation.
//!
//! The paper's measurements use both the 3 Mbit/s Experimental Ethernet
//! (Metcalfe & Boggs 1976 — 1-byte addresses, 4-byte header, the medium of
//! the Pup examples in figures 3-7/3-8/3-9) and the 10 Mbit/s DIX Ethernet
//! (6-byte addresses, 14-byte header). §3.3 says the packet filter reports
//! the data-link's type, address and header lengths, maximum packet size,
//! local address, and broadcast address to user programs; [`Medium`] is
//! that description.

use pf_sim::time::SimDuration;

/// The kind of simulated data link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediumKind {
    /// The 3 Mbit/s Experimental Ethernet: 1-byte addresses, 4-byte header.
    Experimental3Mb,
    /// The 10 Mbit/s DIX Ethernet: 6-byte addresses, 14-byte header.
    Standard10Mb,
}

/// Static description of a data link (§3.3's control/status information).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Medium {
    /// Which link this is.
    pub kind: MediumKind,
    /// Raw bandwidth in bits per second.
    /// Public so that other crates derive a `Medium` with struct-update syntax.
    pub bits_per_second: u64,
    /// Data-link address length in bytes.
    /// Read by this crate's `tests/fuzz.rs` to draw addresses.
    pub addr_len: usize,
    /// Data-link header length in bytes.
    pub header_len: usize,
    /// Maximum packet size (header + payload) in bytes.
    pub max_packet: usize,
    /// The broadcast address (all link addresses fit in a `u64` here).
    pub broadcast: u64,
}

impl Medium {
    /// The 3 Mbit/s Experimental Ethernet.
    pub fn experimental_3mb() -> Self {
        Medium {
            kind: MediumKind::Experimental3Mb,
            bits_per_second: 3_000_000,
            addr_len: 1,
            header_len: 4,
            // The experimental Ethernet carried Pups up to 568 bytes plus
            // encapsulation; 600 bytes is a comfortable frame ceiling.
            max_packet: 600,
            broadcast: 0,
        }
    }

    /// The 10 Mbit/s standard Ethernet.
    pub fn standard_10mb() -> Self {
        Medium {
            kind: MediumKind::Standard10Mb,
            bits_per_second: 10_000_000,
            addr_len: 6,
            header_len: 14,
            max_packet: 1514,
            broadcast: 0xFFFF_FFFF_FFFF,
        }
    }

    /// Time on the wire for a frame of `bytes` bytes (transmission delay
    /// only; propagation is accounted separately by the segment).
    /// Called by this crate's `tests/fuzz.rs` reference model.
    pub fn transmission_delay(&self, bytes: usize) -> SimDuration {
        // bits / (bits/s) = seconds; work in nanoseconds for precision.
        let bits = bytes as u64 * 8;
        SimDuration::from_nanos(bits * 1_000_000_000 / self.bits_per_second)
    }

    /// Whether an address is the broadcast address.
    /// Called by this crate's `tests/fuzz.rs` reference model.
    pub fn is_broadcast(&self, addr: u64) -> bool {
        addr == self.broadcast
    }

    /// Whether an address is a multicast group address (10 Mb Ethernet:
    /// low bit of the first address byte; the experimental Ethernet had no
    /// multicast, only broadcast).
    /// Called by this crate's `tests/fuzz.rs` reference model.
    pub fn is_multicast(&self, addr: u64) -> bool {
        match self.kind {
            MediumKind::Experimental3Mb => false,
            MediumKind::Standard10Mb => {
                // First byte on the wire is the most significant of the 48.
                !self.is_broadcast(addr) && (addr >> 40) & 1 == 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_delay_10mb() {
        let m = Medium::standard_10mb();
        // 1500 bytes at 10 Mbit/s = 1.2 ms.
        assert_eq!(m.transmission_delay(1500).as_micros(), 1200);
        // 128 bytes = 102.4 µs.
        assert_eq!(m.transmission_delay(128).as_nanos(), 102_400);
    }

    #[test]
    fn transmission_delay_3mb() {
        let m = Medium::experimental_3mb();
        // 568-byte Pup at 3 Mbit/s ≈ 1.515 ms.
        let d = m.transmission_delay(568).as_micros();
        assert!((1500..=1530).contains(&d), "{d} µs");
    }

    #[test]
    fn broadcast_addresses() {
        assert!(Medium::experimental_3mb().is_broadcast(0));
        assert!(Medium::standard_10mb().is_broadcast(0xFFFF_FFFF_FFFF));
        assert!(!Medium::standard_10mb().is_broadcast(1));
    }

    #[test]
    fn multicast_is_10mb_only() {
        let m3 = Medium::experimental_3mb();
        let m10 = Medium::standard_10mb();
        let mcast = 0x0100_0000_0001u64; // group bit set in first byte
        assert!(m10.is_multicast(mcast));
        assert!(!m10.is_multicast(0x0200_0000_0001));
        assert!(
            !m10.is_multicast(m10.broadcast),
            "broadcast is not multicast"
        );
        assert!(!m3.is_multicast(mcast));
    }

    #[test]
    fn header_and_addr_lengths() {
        assert_eq!(Medium::experimental_3mb().header_len, 4);
        assert_eq!(Medium::experimental_3mb().addr_len, 1);
        assert_eq!(Medium::standard_10mb().header_len, 14);
        assert_eq!(Medium::standard_10mb().addr_len, 6);
    }
}
