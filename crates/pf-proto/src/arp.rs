//! ARP (kernel-resident) and the shared ARP/RARP wire format.
//!
//! ARP is part of the kernel stack (it is 10% of the §6.1 profiling
//! workload); RARP — the §5.3 showcase for the packet filter — lives in
//! [`crate::rarp`] as pure user-level code.

use pf_kernel::kproto::KernelProtocol;
use pf_kernel::types::{ProcId, SockId};
use pf_kernel::world::KernelCtx;
use pf_net::frame;
use pf_net::medium::Medium;
use std::collections::HashMap;

/// Ethernet type for ARP.
pub const ARP_ETHERTYPE: u16 = 0x0806;

/// Ethernet type for RARP (a *parallel* layer to IP — the §5.3 design
/// question the packet filter made easy to answer).
pub const RARP_ETHERTYPE: u16 = 0x8035;

/// ARP/RARP operation codes.
pub mod oper {
    /// ARP request.
    pub const ARP_REQUEST: u16 = 1;
    /// ARP reply.
    pub const ARP_REPLY: u16 = 2;
    /// RARP request ("who am I?").
    pub const RARP_REQUEST: u16 = 3;
    /// RARP reply.
    pub const RARP_REPLY: u16 = 4;
}

/// A decoded ARP/RARP packet (Ethernet/IPv4 flavor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation code (see [`oper`]).
    pub oper: u16,
    /// Sender hardware address.
    pub sha: u64,
    /// Sender protocol (IP) address.
    pub spa: u32,
    /// Target hardware address.
    pub tha: u64,
    /// Target protocol (IP) address.
    pub tpa: u32,
}

impl ArpPacket {
    /// Encodes the 28-byte body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(28);
        b.extend_from_slice(&1u16.to_be_bytes()); // htype: Ethernet
        b.extend_from_slice(&0x0800u16.to_be_bytes()); // ptype: IP
        b.push(6); // hlen
        b.push(4); // plen
        b.extend_from_slice(&self.oper.to_be_bytes());
        b.extend_from_slice(&self.sha.to_be_bytes()[2..8]);
        b.extend_from_slice(&self.spa.to_be_bytes());
        b.extend_from_slice(&self.tha.to_be_bytes()[2..8]);
        b.extend_from_slice(&self.tpa.to_be_bytes());
        b
    }

    /// Decodes a body.
    pub fn decode_body(b: &[u8]) -> Option<ArpPacket> {
        if b.len() < 28 || b[0] != 0 || b[1] != 1 || b[4] != 6 || b[5] != 4 {
            return None;
        }
        let mut sha = [0u8; 8];
        sha[2..8].copy_from_slice(&b[8..14]);
        let mut tha = [0u8; 8];
        tha[2..8].copy_from_slice(&b[18..24]);
        Some(ArpPacket {
            oper: u16::from_be_bytes([b[6], b[7]]),
            sha: u64::from_be_bytes(sha),
            spa: u32::from_be_bytes([b[14], b[15], b[16], b[17]]),
            tha: u64::from_be_bytes(tha),
            tpa: u32::from_be_bytes([b[24], b[25], b[26], b[27]]),
        })
    }

    /// Encodes as a complete frame with the given Ethernet type
    /// ([`ARP_ETHERTYPE`] or [`RARP_ETHERTYPE`]).
    pub fn encode_frame(
        &self,
        medium: &Medium,
        ethertype: u16,
        eth_dst: u64,
        eth_src: u64,
    ) -> Vec<u8> {
        frame::build(medium, eth_dst, eth_src, ethertype, &self.encode_body())
            .expect("ARP fits any medium")
    }
}

/// The kernel-resident ARP module: answers requests for this host's
/// address and learns mappings from traffic it sees.
pub struct KernelArp {
    /// This host's IP address.
    pub ip: u32,
    /// Learned IP → Ethernet mappings.
    pub cache: HashMap<u32, u64>,
    /// ARP packets processed.
    /// Part of ROADMAP item 2(a)'s in/out ledger.
    pub packets_in: u64,
}

impl KernelArp {
    /// Creates the module for a host with address `ip`.
    pub fn new(ip: u32) -> Self {
        KernelArp {
            ip,
            cache: HashMap::new(),
            packets_in: 0,
        }
    }
}

impl KernelProtocol for KernelArp {
    fn name(&self) -> &'static str {
        "arp"
    }

    fn claims(&self, ethertype: u16) -> bool {
        ethertype == ARP_ETHERTYPE
    }

    fn input(&mut self, frame_bytes: Vec<u8>, k: &mut KernelCtx<'_>) {
        let (medium, my_eth) = k.link_info();
        let Ok(body) = frame::payload(&medium, &frame_bytes) else {
            return;
        };
        let Some(pkt) = ArpPacket::decode_body(body) else {
            return;
        };
        self.packets_in += 1;
        let cost = k.costs().arp_input;
        k.charge("arp:input", cost);
        if pkt.spa != 0 {
            self.cache.insert(pkt.spa, pkt.sha);
        }
        if pkt.oper == oper::ARP_REQUEST && pkt.tpa == self.ip {
            let reply = ArpPacket {
                oper: oper::ARP_REPLY,
                sha: my_eth,
                spa: self.ip,
                tha: pkt.sha,
                tpa: pkt.spa,
            };
            k.transmit(reply.encode_frame(&medium, ARP_ETHERTYPE, pkt.sha, my_eth));
        }
    }

    fn user_request(
        &mut self,
        _proc: ProcId,
        _sock: SockId,
        _op: u32,
        _data: Vec<u8>,
        _meta: [u64; 4],
        _k: &mut KernelCtx<'_>,
    ) {
        // ARP has no user-visible socket interface.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_kernel::world::World;
    use pf_net::segment::FaultModel;
    use pf_sim::cost::CostModel;
    use pf_sim::time::SimTime;
    use pf_sim::SimClock;

    #[test]
    fn body_round_trip() {
        let p = ArpPacket {
            oper: oper::RARP_REQUEST,
            sha: 0x0A0B0C0D0E0F,
            spa: 0,
            tha: 0x0A0B0C0D0E0F,
            tpa: 0,
        };
        assert_eq!(ArpPacket::decode_body(&p.encode_body()), Some(p));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(ArpPacket::decode_body(&[0; 27]).is_none());
        let mut b = ArpPacket {
            oper: 1,
            sha: 1,
            spa: 2,
            tha: 3,
            tpa: 4,
        }
        .encode_body();
        b[4] = 8; // wrong hlen
        assert!(ArpPacket::decode_body(&b).is_none());
    }

    #[test]
    fn kernel_arp_answers_requests_for_its_ip() {
        let mut w = World::new(3);
        let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
        let asker = w.add_host("asker", seg, 0x0A, CostModel::microvax_ii());
        let owner = w.add_host("owner", seg, 0x0B, CostModel::microvax_ii());
        w.register_protocol(owner, Box::new(KernelArp::new(42)));
        w.register_protocol(asker, Box::new(KernelArp::new(41)));
        let medium = Medium::standard_10mb();
        let req = ArpPacket {
            oper: oper::ARP_REQUEST,
            sha: 0x0A,
            spa: 41,
            tha: 0,
            tpa: 42,
        };
        let f = req.encode_frame(&medium, ARP_ETHERTYPE, medium.broadcast, 0x0A);
        w.inject_frame(owner, f, SimTime(0));
        w.run();
        // The owner answered; the asker's module learned the mapping.
        let asker_arp = w.protocol_ref::<KernelArp>(asker).unwrap();
        assert_eq!(asker_arp.cache.get(&42), Some(&0x0Bu64));
        let owner_arp = w.protocol_ref::<KernelArp>(owner).unwrap();
        assert_eq!(owner_arp.cache.get(&41), Some(&0x0Au64));
        assert_eq!(owner_arp.packets_in, 1);
        assert!(w.profiler(owner).stats("arp:input").calls > 0);
    }
}
