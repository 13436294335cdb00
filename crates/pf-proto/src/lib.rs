//! Protocol implementations for the packet-filter evaluation.
//!
//! Everything §5 and §6 of the paper run on top of the packet filter or
//! against it:
//!
//! * [`pup`] / [`bsp`] / [`bsp_app`] — the Pup datagram and the BSP byte
//!   stream protocol, implemented at user level over the packet filter
//!   (§5.1, table 6-6);
//! * [`vmtp`] / [`vmtp_user`] / [`vmtp_kernel`] — the same VMTP
//!   transaction machines embedded both as user processes over the packet
//!   filter and as a kernel-resident protocol (§5.2, tables 6-2/6-3/6-5);
//! * [`ip`] / [`tcp`] / [`stream`] — the kernel-resident IP/UDP/TCP-lite
//!   stack and its bulk-stream workloads (figure 3-2, §6.1, table 6-6);
//! * [`arp`] / [`rarp`] — kernel ARP and the §5.3 user-level RARP;
//! * [`router`] — the static-routed IP forwarding plane for
//!   `pf_net::Topology` routers, plus the glue deploying a topology
//!   into a `World`;
//! * [`telnet`] — the remote-terminal character streams of table 6-7.
//!
//! Protocol state machines are pure (effect-emitting) wherever a protocol
//! has both user-level and kernel-resident embeddings, so the two variants
//! provably run the same code — the paper's "essentially the same pattern
//! of packet transport", made literal.

#![forbid(unsafe_code)]

pub mod arp;
pub mod bsp;
pub mod bsp_app;
pub mod echo;
pub mod group;
pub mod ip;
pub mod pup;
pub mod rarp;
pub mod router;
pub mod stream;
pub mod tcp;
pub mod telnet;
pub mod vmtp;
pub mod vmtp_kernel;
pub mod vmtp_user;
