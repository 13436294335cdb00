//! Kernel-resident protocol plumbing.
//!
//! Figure 3-3 of the paper shows the packet filter *coexisting* with
//! kernel-resident protocols: the network-interface driver hands each
//! received packet to a kernel protocol if one claims its Ethernet type,
//! and to the packet filter otherwise. This module defines the hook a
//! kernel-resident protocol implements ([`KernelProtocol`]) and the
//! facilities the kernel gives it ([`crate::world::KernelCtx`]).
//!
//! The protocol implementations themselves (IP/UDP/TCP-lite, kernel VMTP,
//! ARP) live in the `pf-proto` crate — the packet-filter kernel module
//! stays protocol-independent, exactly as the paper insists.

use crate::types::{ProcId, SockId};
use crate::world::KernelCtx;
use std::any::Any;

/// A kernel-resident protocol module.
///
/// User processes talk to a kernel protocol through *kernel sockets*: the
/// process opens one with [`crate::world::ProcCtx::ksock_open`] and issues
/// requests with [`crate::world::ProcCtx::ksock_request`]; the protocol
/// answers by calling [`KernelCtx::complete`]. Request and completion
/// `op`/`meta` codes are protocol-defined (the style of `ioctl`).
pub trait KernelProtocol: Any {
    /// Protocol name, used by processes to open sockets against it.
    fn name(&self) -> &'static str;

    /// Whether this protocol consumes frames of the given Ethernet type.
    fn claims(&self, ethertype: u16) -> bool;

    /// A received frame of a claimed Ethernet type. The protocol charges
    /// its own processing costs through `k`.
    fn input(&mut self, frame: Vec<u8>, k: &mut KernelCtx<'_>);

    /// A user request on a socket bound to this protocol.
    fn user_request(
        &mut self,
        proc: ProcId,
        sock: SockId,
        op: u32,
        data: Vec<u8>,
        meta: [u64; 4],
        k: &mut KernelCtx<'_>,
    );

    /// A kernel timer set with [`KernelCtx::set_timer`] fired.
    fn on_timer(&mut self, token: u64, k: &mut KernelCtx<'_>) {
        let _ = (token, k);
    }
}
