//! RNIC-GBN: the Go-Back-N transport of traditional RoCEv2 RNICs
//! (Mellanox CX5 class — the paper's testbed baseline, §2.1/§6.1).
//!
//! Receiver: strictly in-order. An out-of-order arrival elicits one NAK
//! carrying the expected PSN and is discarded; everything already received
//! is acknowledged cumulatively. Sender: on NAK or RTO it rewinds `snd_nxt`
//! to the cumulative pointer and resends the entire window — the behaviour
//! whose loss sensitivity motivates the whole paper (Fig. 10).

use crate::cc::CongestionControl;
use crate::common::{ack_packet, tokens, CnpGen, FlowCfg, Placement};
use crate::rxcore::RxCore;
use crate::txcore::SenderCore;
use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::packet::{Packet, PktExt};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::{Nanos, US};
use dcp_netsim::RetxCause;
use dcp_rdma::qp::WorkReqOp;
use std::collections::VecDeque;

/// Tunables for the GBN pair.
#[derive(Debug, Clone, Copy)]
pub struct GbnConfig {
    /// Retransmission timeout.
    pub rto: Nanos,
    /// DCQCN NP interval for CNP generation at the receiver.
    pub cnp_interval: Nanos,
}

impl Default for GbnConfig {
    fn default() -> Self {
        GbnConfig { rto: 200 * US, cnp_interval: 50 * US }
    }
}

/// Go-Back-N sender.
pub struct GbnSender {
    core: SenderCore,
    /// Signal behind the most recent rewind; stamped on every packet the
    /// rewind causes to be resent (GBN resends whole windows per episode).
    retx_cause: RetxCause,
}

impl GbnSender {
    pub fn new(cfg: FlowCfg, gcfg: GbnConfig, cc: Box<dyn CongestionControl>) -> Self {
        GbnSender { core: SenderCore::new(cfg, cc, gcfg.rto), retx_cause: RetxCause::Unknown }
    }
}

impl Endpoint for GbnSender {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.core.post(wr_id, op, len);
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let c = &mut self.core;
        match ctx.pool.take(pkt).ext {
            PktExt::GbnAck { epsn } => {
                c.cum_ack(epsn, ctx);
            }
            PktExt::GbnNak { epsn } => {
                // Go back: rewind to the receiver's expected PSN.
                if epsn > c.snd_una {
                    c.snd_una = epsn;
                    c.complete_psn_below(epsn, ctx);
                }
                c.snd_nxt = c.snd_una;
                self.retx_cause = RetxCause::Nack;
                c.arm_rto(ctx);
            }
            PktExt::Cnp => c.on_cnp(ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        let c = &mut self.core;
        match tokens::kind(token) {
            tokens::RTO => {
                if c.rto_fired(token) && c.unacked() {
                    c.stats.timeouts += 1;
                    c.snd_nxt = c.snd_una;
                    self.retx_cause = RetxCause::Timeout;
                    c.arm_rto(ctx);
                }
            }
            _ => c.on_timer(token, ctx),
        }
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        let c = &mut self.core;
        if !c.has_unsent() || c.paced(ctx, true) || !c.window_open() {
            return None;
        }
        let (psn, is_retx) = c.take_next();
        let mut pkt = c.build(psn, is_retx);
        if is_retx {
            pkt.retx_cause = self.retx_cause;
        }
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

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.core.recycle(flow, local, remote);
        self.retx_cause = RetxCause::Unknown;
        true
    }
}

/// Go-Back-N receiver: in-order acceptance, NAK on gaps.
pub struct GbnReceiver {
    cfg: FlowCfg,
    rx: RxCore,
    cnp: CnpGen,
    /// One NAK per gap episode; reset when the expected PSN arrives.
    nak_outstanding: bool,
    out: VecDeque<Packet>,
    uid: u64,
}

impl GbnReceiver {
    pub fn new(cfg: FlowCfg, gcfg: GbnConfig, placement: Placement) -> Self {
        // In-order only: any OOO arrival is outside the (zero-size) window.
        let rx = RxCore::new(cfg.local, cfg.flow, 0, placement);
        GbnReceiver {
            cfg,
            rx,
            cnp: CnpGen::new(gcfg.cnp_interval),
            nak_outstanding: false,
            out: VecDeque::new(),
            uid: 0,
        }
    }

    fn queue(&mut self, ext: PktExt) {
        self.uid += 1;
        self.out.push_back(ack_packet(&self.cfg, ext, 0, self.uid));
    }
}

impl Endpoint for GbnReceiver {
    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        let pkt = ctx.pool.take(pkt);
        if !pkt.is_data() {
            return;
        }
        if pkt.header.ip.ecn_ce() && self.cnp.should_send(ctx.now) {
            self.queue(PktExt::Cnp);
        }
        let psn = pkt.psn();
        if psn == self.rx.epsn {
            self.rx.on_data(&pkt, ctx);
            self.nak_outstanding = false;
            self.queue(PktExt::GbnAck { epsn: self.rx.epsn });
        } else if psn < self.rx.epsn {
            // Duplicate of something already delivered: re-ACK.
            self.rx.stats.duplicates += 1;
            self.rx.stats.pkts_received += 1;
            self.queue(PktExt::GbnAck { epsn: self.rx.epsn });
        } else {
            // Gap: discard (GBN receivers hold no OOO state) and NAK once.
            self.rx.stats.pkts_received += 1;
            if !self.nak_outstanding {
                self.nak_outstanding = true;
                self.queue(PktExt::GbnNak { epsn: self.rx.epsn });
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}

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
        self.out.is_empty()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.cfg.rebind(flow, local, remote, false);
        self.rx.recycle(local, flow);
        self.cnp.reset();
        self.nak_outstanding = false;
        self.out.clear();
        self.uid = 0;
        true
    }
}

/// Builds a connected GBN sender/receiver pair for `flow` from `src` to
/// `dst` with the given CC and payload placement.
pub fn gbn_pair(
    cfg: FlowCfg,
    gcfg: GbnConfig,
    cc: Box<dyn CongestionControl>,
    placement: Placement,
) -> (GbnSender, GbnReceiver) {
    let rcfg = FlowCfg::receiver_of(&cfg);
    (GbnSender::new(cfg, gcfg, cc), GbnReceiver::new(rcfg, gcfg, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::StaticWindow;
    use crate::common::{data_packet, desc_at, TxBook};
    use dcp_netsim::endpoint::Completion;
    use dcp_netsim::endpoint::{deliver, pull_owned};
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
    fn sender_emits_sequential_psns_within_window() {
        let mut s = GbnSender::new(
            cfg(),
            GbnConfig::default(),
            Box::new(StaticWindow { window_bytes: 3 * 1024 }),
        );
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 10 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        let mut psns = vec![];
        while let Some(p) = pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r) {
            psns.push(p.psn());
        }
        assert_eq!(psns, vec![0, 1, 2], "BDP window of 3 packets gates the burst");
        assert!(s.has_pending());
    }

    #[test]
    fn nak_rewinds_and_resends() {
        let mut s = GbnSender::new(
            cfg(),
            GbnConfig::default(),
            Box::new(StaticWindow { window_bytes: 8 * 1024 }),
        );
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 8 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        for _ in 0..5 {
            pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).unwrap();
        }
        // Receiver saw 0,1 then a gap: NAK epsn=2.
        let nak = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnNak { epsn: 2 }, 0, 0);
        deliver(&mut s, &mut pool, nak, 1000, &mut t, &mut c, &mut r);
        let p = pull_owned(&mut s, &mut pool, 1000, &mut t, &mut c, &mut r).unwrap();
        assert_eq!(p.psn(), 2);
        assert!(p.is_retx);
        assert_eq!(s.stats().retx_pkts, 1);
    }

    #[test]
    fn cumulative_ack_retires_messages() {
        let mut s = GbnSender::new(
            cfg(),
            GbnConfig::default(),
            Box::new(StaticWindow { window_bytes: 64 * 1024 }),
        );
        s.post(7, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 2 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let ack = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnAck { epsn: 2 }, 0, 0);
        deliver(&mut s, &mut pool, ack, 5000, &mut t, &mut c, &mut r);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].wr_id, 7);
        assert!(s.is_done());
    }

    #[test]
    fn rto_rewinds_without_feedback() {
        let mut s = GbnSender::new(
            cfg(),
            GbnConfig::default(),
            Box::new(StaticWindow { window_bytes: 64 * 1024 }),
        );
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 2 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let (at, token) =
            t.iter().find(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        s.on_timer(token, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 1);
        let p = pull_owned(&mut s, &mut pool, at, &mut t, &mut c, &mut r).unwrap();
        assert_eq!(p.psn(), 0);
        assert!(p.is_retx);
    }

    #[test]
    fn stale_rto_is_ignored_after_progress() {
        let mut s = GbnSender::new(
            cfg(),
            GbnConfig::default(),
            Box::new(StaticWindow { window_bytes: 64 * 1024 }),
        );
        s.post(1, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 2 * 1024);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        while pull_owned(&mut s, &mut pool, 0, &mut t, &mut c, &mut r).is_some() {}
        let (at, stale) =
            t.iter().find(|(_, tok)| tokens::kind(*tok) == tokens::RTO).copied().unwrap();
        // Full ACK arrives before the timer fires.
        let ack = ack_packet(&FlowCfg::receiver_of(&cfg()), PktExt::GbnAck { epsn: 2 }, 0, 0);
        deliver(&mut s, &mut pool, ack, 100, &mut t, &mut c, &mut r);
        s.on_timer(stale, &mut ctx(at, &mut pool, &mut t, &mut c, &mut r));
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn receiver_naks_once_per_gap() {
        let scfg = cfg();
        let mut book = TxBook::new();
        let m = book.post(0, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, 4 * 1024, scfg.mtu);
        let mk = |psn: u32| {
            data_packet(&scfg, &m, desc_at(&m, scfg.mtu, psn), psn, 0, false, psn as u64)
        };
        let mut rx =
            GbnReceiver::new(FlowCfg::receiver_of(&scfg), GbnConfig::default(), Placement::Virtual);
        let (mut pool, mut t, mut c, mut r) =
            (PacketPool::new(), vec![], vec![], StdRng::seed_from_u64(0));
        deliver(&mut rx, &mut pool, mk(0), 0, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, mk(2), 1, &mut t, &mut c, &mut r);
        deliver(&mut rx, &mut pool, mk(3), 2, &mut t, &mut c, &mut r);
        let mut outs = vec![];
        while let Some(p) = pull_owned(&mut rx, &mut pool, 3, &mut t, &mut c, &mut r) {
            outs.push(p.ext);
        }
        assert_eq!(
            outs,
            vec![PktExt::GbnAck { epsn: 1 }, PktExt::GbnNak { epsn: 1 }],
            "one ACK, one NAK, no NAK repeat"
        );
    }
}
