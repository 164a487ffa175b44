//! A software-stack transport *model* standing in for kernel TCP in the
//! Fig. 8 perftest comparison.
//!
//! This is not a TCP implementation (DESIGN.md §5): Fig. 8's only claim is
//! that an offloaded RNIC beats a software stack on both throughput and
//! latency. The model captures the two costs that produce that gap:
//!
//! * **per-packet CPU cost** — the sender cannot emit packets faster than
//!   one per `cpu_per_pkt` (kernel stack processing), capping throughput
//!   below line rate;
//! * **stack traversal latency** — delivery to the application is delayed
//!   by `stack_latency` at the receiver (interrupt + socket wakeup), which
//!   dominates small-message latency.
//!
//! Reliability is a plain cumulative-ACK window with RTO rewind, enough for
//! the clean back-to-back link the figure uses.

use crate::cc::CongestionControl;
use crate::common::{ack_packet, tokens, FlowCfg, Placement};
use crate::rxcore::RxCore;
use crate::txcore::SenderCore;
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::{Packet, PktExt};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::{Nanos, US};
use dcp_netsim::RetxCause;
use dcp_rdma::qp::WorkReqOp;
use std::collections::VecDeque;

/// Software-stack cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct SwTcpConfig {
    /// CPU time consumed per transmitted packet (throughput cap:
    /// MTU / cpu_per_pkt). 150 ns/pkt ≈ 55 Gbps at 1 KB.
    pub cpu_per_pkt: Nanos,
    /// One-way kernel stack traversal latency added at the receiver.
    pub stack_latency: Nanos,
    pub rto: Nanos,
}

impl Default for SwTcpConfig {
    fn default() -> Self {
        SwTcpConfig { cpu_per_pkt: 150, stack_latency: 12 * US, rto: 1_000 * US }
    }
}

/// Sender side of the model.
pub struct SwTcpSender {
    core: SenderCore,
    cpu_per_pkt: Nanos,
    next_cpu_free: Nanos,
}

impl SwTcpSender {
    pub fn new(cfg: FlowCfg, tcfg: SwTcpConfig, cc: Box<dyn CongestionControl>) -> Self {
        SwTcpSender {
            core: SenderCore::new(cfg, cc, tcfg.rto),
            cpu_per_pkt: tcfg.cpu_per_pkt,
            next_cpu_free: 0,
        }
    }
}

impl Endpoint for SwTcpSender {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.core.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        if let PktExt::TcpAck { ack_seq } = ctx.pool.take(pkt).ext {
            let epsn = (ack_seq / self.core.cfg.mtu as u64) as u32;
            self.core.cum_ack(epsn, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        let c = &mut self.core;
        match tokens::kind(token) {
            tokens::RTO => {
                if c.rto_fired(token) && c.unacked() {
                    c.stats.timeouts += 1;
                    c.snd_nxt = c.snd_una;
                    c.arm_rto(ctx);
                }
            }
            _ => c.on_timer(token, ctx),
        }
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        let c = &mut self.core;
        // CPU gate: one packet per cpu_per_pkt.
        if !c.has_unsent() || c.hold_until(self.next_cpu_free, ctx, true) || !c.window_open() {
            return None;
        }
        let (psn, is_retx) = c.take_next();
        let mut pkt = c.build(psn, is_retx);
        if is_retx {
            // The model recovers by RTO rewind only.
            pkt.retx_cause = RetxCause::Timeout;
        }
        self.next_cpu_free = ctx.now + self.cpu_per_pkt;
        c.ensure_rto(ctx);
        Some(c.send(pkt, ctx))
    }

    fn has_pending(&self) -> bool {
        self.core.has_unsent()
    }

    fn stats(&self) -> TransportStats {
        self.core.stats
    }

    fn is_done(&self) -> bool {
        self.core.book.is_empty()
    }
}

/// Receiver side: buffers arrivals for `stack_latency` before the
/// application sees them (delayed completions and ACKs).
pub struct SwTcpReceiver {
    cfg: FlowCfg,
    rx: RxCore,
    /// Packets waiting out their stack traversal: (release_time, psn).
    staged: VecDeque<(Nanos, Packet)>,
    out: VecDeque<Packet>,
    tcfg: SwTcpConfig,
    uid: u64,
}

impl SwTcpReceiver {
    pub fn new(cfg: FlowCfg, tcfg: SwTcpConfig, placement: Placement) -> Self {
        let rx = RxCore::new(cfg.local, cfg.flow, u32::MAX, placement);
        SwTcpReceiver { cfg, rx, staged: VecDeque::new(), out: VecDeque::new(), tcfg, uid: 0 }
    }

    fn process_ready(&mut self, ctx: &mut EndpointCtx) {
        while let Some(&(release, _)) =
            self.staged.front().map(|e| (&e.0, ())).map(|_| self.staged.front().unwrap())
        {
            if release > ctx.now {
                break;
            }
            let (_, pkt) = self.staged.pop_front().unwrap();
            self.rx.on_data(&pkt, ctx);
            self.uid += 1;
            self.out.push_back(ack_packet(
                &self.cfg,
                PktExt::TcpAck { ack_seq: self.rx.epsn as u64 * self.cfg.mtu as u64 },
                0,
                self.uid,
            ));
        }
    }
}

impl Endpoint for SwTcpReceiver {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        if !pkt.is_data() {
            return;
        }
        let release = ctx.now + self.tcfg.stack_latency;
        self.staged.push_back((release, pkt));
        ctx.timers.push((release, tokens::PACE));
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut EndpointCtx) {
        self.process_ready(ctx);
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        self.out.pop_front().map(|p| ctx.pool.insert(p))
    }

    fn has_pending(&self) -> bool {
        !self.out.is_empty()
    }

    fn stats(&self) -> TransportStats {
        self.rx.stats
    }

    fn is_done(&self) -> bool {
        self.out.is_empty() && self.staged.is_empty()
    }
}

/// Builds a connected software-TCP pair.
pub fn swtcp_pair(
    cfg: FlowCfg,
    tcfg: SwTcpConfig,
    cc: Box<dyn CongestionControl>,
    placement: Placement,
) -> (SwTcpSender, SwTcpReceiver) {
    let rcfg = FlowCfg::receiver_of(&cfg);
    (SwTcpSender::new(cfg, tcfg, cc), SwTcpReceiver::new(rcfg, tcfg, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::StaticWindow;
    use crate::common::{data_packet, desc_at, TxBook};
    use dcp_netsim::endpoint::{deliver, pull_owned, Completion};
    use dcp_netsim::packet::{FlowId, NodeId};
    use dcp_netsim::pool::PacketPool;
    use dcp_rdma::headers::DcpTag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> FlowCfg {
        FlowCfg::sender(FlowId(1), NodeId(0), NodeId(1), DcpTag::NonDcp)
    }

    fn ctx<'a>(
        now: Nanos,
        pool: &'a mut PacketPool,
        t: &'a mut Vec<(Nanos, u64)>,
        c: &'a mut Vec<Completion>,
        r: &'a mut StdRng,
    ) -> EndpointCtx<'a> {
        EndpointCtx { now, pool, timers: t, completions: c, rng: r, probe: None }
    }

    #[test]
    fn cpu_gate_paces_transmission() {
        let mut s = SwTcpSender::new(
            cfg(),
            SwTcpConfig::default(),
            Box::new(StaticWindow { window_bytes: 1 << 20 }),
        );
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 4 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        assert!(pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some());
        assert!(pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_none(), "CPU busy");
        assert!(
            pull_owned(&mut s, &mut pool, 150, &mut t, &mut c, &mut r).is_some(),
            "free after cpu_per_pkt"
        );
    }

    #[test]
    fn receiver_delays_delivery_by_stack_latency() {
        let scfg = cfg();
        let mut book = TxBook::new();
        let m = book.post(0, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 1024, scfg.mtu);
        let pkt = data_packet(&scfg, &m, desc_at(&m, scfg.mtu, 0), 0, 0, false, 0);
        let mut rx = SwTcpReceiver::new(
            FlowCfg::receiver_of(&scfg),
            SwTcpConfig::default(),
            Placement::Virtual,
        );
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        deliver(&mut rx, &mut pool, pkt, 1000, &mut t, &mut c, &mut r);
        assert!(c.is_empty(), "not delivered yet");
        let (at, tok) = t[0];
        assert_eq!(at, 1000 + 12_000);
        rx.on_timer(tok, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(c.len(), 1, "delivered after stack latency");
        assert_eq!(c[0].at, 13_000);
        assert!(rx.has_pending(), "ACK queued");
    }

    /// An RTO rewind followed by a cumulative ACK that retires the whole
    /// message: the ACK must pull `snd_nxt` past the retired range, or the
    /// next pull looks up a PSN no message owns.
    #[test]
    fn cumulative_ack_after_rto_rewind_clamps_snd_nxt() {
        let mut s = SwTcpSender::new(
            cfg(),
            SwTcpConfig::default(),
            Box::new(StaticWindow { window_bytes: 1 << 20 }),
        );
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 4 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let mut now = 0;
        while s.has_pending() {
            if pull_owned(&mut s, &mut pool, now, &mut t, &mut c, &mut r).is_none() {
                now += 150;
            }
        }
        let (at, token) =
            t.iter().rfind(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        s.on_timer(token, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 1);
        assert!(s.has_pending(), "the rewind queues the whole message again");
        let ack = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::TcpAck { ack_seq: 4096 }, 0, 0);
        deliver(&mut s, &mut pool, ack, at + 1, &mut t, &mut c, &mut r);
        assert_eq!(c.len(), 1, "the ACK completes the message");
        assert!(pull_owned(&mut s, &mut pool, at + 1_000, &mut t, &mut c, &mut r).is_none());
        assert!(!s.has_pending() && s.is_done());
    }
}
