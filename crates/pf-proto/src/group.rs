//! V-system-style process-group communication (§5.2 + §3.2).
//!
//! The V architects "chose to design their own protocols … so that they
//! could make use of the multicast feature of Ethernet hardware", and the
//! packet filter's deliver-to-lower-priority option exists partly for
//! "'group' communication where a packet may be multicast to several
//! processes on one host" (§3.2). This module puts the two together: a
//! group message rides an Ethernet multicast frame; every member host's
//! interface subscribes to the group address; and every member *process*
//! on a host binds a filter with the deliver-to-lower option so each gets
//! its own copy of the packet.

use pf_filter::builder::Expr;
use pf_filter::program::FilterProgram;
use pf_kernel::app::App;
use pf_kernel::types::{Fd, PortConfig, ReadError, ReadMode, RecvPacket};
use pf_kernel::world::ProcCtx;
use pf_net::frame;
use pf_net::medium::Medium;

/// Ethernet type for the group IPC (an IKP-era code point).
pub const GROUP_ETHERTYPE: u16 = 0x805D;

/// The Ethernet multicast address for a group id (group bit set in the
/// first byte, group id in the low bits).
pub(crate) fn group_eth_addr(group: u32) -> u64 {
    0x0100_0000_0000u64 | u64::from(group)
}

/// A group message: group id, sequence, payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMessage {
    /// The process-group identifier.
    pub group: u32,
    /// Sender-assigned sequence number.
    pub seq: u32,
    /// Payload.
    pub data: Vec<u8>,
}

impl GroupMessage {
    /// Encodes as a complete multicast frame on the 10 Mb Ethernet.
    pub fn encode_frame(&self, medium: &Medium, eth_src: u64) -> Vec<u8> {
        let mut body = Vec::with_capacity(8 + self.data.len());
        body.extend_from_slice(&self.group.to_be_bytes());
        body.extend_from_slice(&self.seq.to_be_bytes());
        body.extend_from_slice(&self.data);
        frame::build(
            medium,
            group_eth_addr(self.group),
            eth_src,
            GROUP_ETHERTYPE,
            &body,
        )
        .expect("group message fits")
    }

    /// Decodes from a complete frame.
    pub fn decode_frame(medium: &Medium, bytes: &[u8]) -> Option<GroupMessage> {
        let h = frame::parse(medium, bytes).ok()?;
        if h.ethertype != GROUP_ETHERTYPE {
            return None;
        }
        let body = frame::payload(medium, bytes).ok()?;
        if body.len() < 8 {
            return None;
        }
        Some(GroupMessage {
            group: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
            seq: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
            data: body[8..].to_vec(),
        })
    }

    /// The member filter: group ethertype (word 6 on the 10 Mb net) and
    /// group id (words 7-8). Built with the DSL; every member binds it
    /// with `deliver_to_lower` so co-resident members each get a copy.
    pub fn member_filter(priority: u8, group: u32) -> FilterProgram {
        Expr::word(8)
            .eq((group & 0xFFFF) as u16)
            .and(Expr::word(7).eq((group >> 16) as u16))
            .and(Expr::word(6).eq(GROUP_ETHERTYPE))
            .compile(priority)
            .expect("static filter compiles")
    }
}

/// A process that joined a group and records what it receives.
pub struct GroupMember {
    group: u32,
    fd: Option<Fd>,
    /// Messages received, in order.
    pub received: Vec<GroupMessage>,
}

impl GroupMember {
    /// Creates a member of `group`.
    pub fn new(group: u32) -> Self {
        GroupMember {
            group,
            fd: None,
            received: Vec::new(),
        }
    }
}

impl App for GroupMember {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        // Join at the data-link layer (the V use of Ethernet multicast)…
        k.join_multicast(group_eth_addr(self.group));
        // …and at the packet filter, opting into shared delivery (§3.2).
        let fd = k.pf_open();
        k.pf_set_filter(fd, GroupMessage::member_filter(10, self.group));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                deliver_to_lower: true,
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let medium = Medium::standard_10mb();
        for p in packets {
            if let Some(m) = GroupMessage::decode_frame(&medium, &p.bytes) {
                self.received.push(m);
            }
        }
        k.pf_read(fd);
    }

    fn on_read_error(&mut self, fd: Fd, _e: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// A process that multicasts messages to a group.
pub struct GroupSender {
    group: u32,
    messages: Vec<Vec<u8>>,
    /// Messages transmitted.
    pub sent: u32,
}

impl GroupSender {
    /// Creates a sender that will multicast each payload once.
    pub fn new(group: u32, messages: Vec<Vec<u8>>) -> Self {
        GroupSender {
            group,
            messages,
            sent: 0,
        }
    }
}

impl App for GroupSender {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        let medium = Medium::standard_10mb();
        let (_, my_eth) = k.link_info();
        for (i, data) in self.messages.clone().into_iter().enumerate() {
            let m = GroupMessage {
                group: self.group,
                seq: i as u32 + 1,
                data,
            };
            let _ = k.pf_write_owned(fd, m.encode_frame(&medium, my_eth));
            self.sent += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_kernel::world::World;
    use pf_net::segment::FaultModel;
    use pf_sim::cost::CostModel;
    use pf_sim::SimClock;

    #[test]
    fn message_round_trip() {
        let medium = Medium::standard_10mb();
        let m = GroupMessage {
            group: 0x12345,
            seq: 7,
            data: b"state update".to_vec(),
        };
        let f = m.encode_frame(&medium, 0x0A);
        assert_eq!(GroupMessage::decode_frame(&medium, &f), Some(m));
    }

    #[test]
    fn multicast_reaches_every_member_process_once() {
        let mut w = World::new(64);
        let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
        let sender_host = w.add_host("sender", seg, 0x01, CostModel::microvax_ii());
        let host_a = w.add_host("a", seg, 0x0A, CostModel::microvax_ii());
        let host_b = w.add_host("b", seg, 0x0B, CostModel::microvax_ii());
        let host_c = w.add_host("c", seg, 0x0C, CostModel::microvax_ii());

        const GROUP: u32 = 0x77;
        // Two member processes on host A (the §3.2 same-host case), one on
        // host B, none on host C.
        let a1 = w.spawn(host_a, Box::new(GroupMember::new(GROUP)));
        let a2 = w.spawn(host_a, Box::new(GroupMember::new(GROUP)));
        let b1 = w.spawn(host_b, Box::new(GroupMember::new(GROUP)));
        // A member of a *different* group on host B: filtered out in the
        // kernel even though its host receives the frames? No — its host
        // never joins this group's address, and its filter is different.
        let other = w.spawn(host_b, Box::new(GroupMember::new(0x99)));

        w.spawn(
            sender_host,
            Box::new(GroupSender::new(
                GROUP,
                vec![b"one".to_vec(), b"two".to_vec()],
            )),
        );
        w.run();

        for (host, proc, label) in [(host_a, a1, "a1"), (host_a, a2, "a2"), (host_b, b1, "b1")] {
            let m = w.app_ref::<GroupMember>(host, proc).unwrap();
            assert_eq!(m.received.len(), 2, "{label} got each message once");
            assert_eq!(m.received[0].data, b"one");
            assert_eq!(m.received[1].data, b"two");
        }
        let o = w.app_ref::<GroupMember>(host_b, other).unwrap();
        assert!(o.received.is_empty(), "non-member saw nothing");
        // Host C never joined: its NIC filtered the frames out entirely.
        assert_eq!(w.counters(host_c).packets_received, 0);
        // Host A delivered two copies of each frame (two member ports).
        assert_eq!(w.counters(host_a).packets_delivered, 4);
    }

    #[test]
    fn member_filter_is_table_compiled() {
        // The group filter is a pure conjunction of equalities, so the §7
        // decision table folds it.
        let mut set = pf_filter::dtree::FilterSet::new();
        set.insert(1, GroupMessage::member_filter(10, 0x77));
        assert_eq!(
            set.member_kind(1),
            Some(pf_filter::dtree::MemberKind::Table)
        );
    }
}
