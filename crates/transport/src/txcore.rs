//! Shared sender machinery — the Tx-side mirror of [`crate::rxcore`].
//!
//! Every sender (GBN, IRN, RACK-TLP, MP-RDMA, EC, the software-stack model
//! and `dcp-core`'s DCP sender) holds one [`SenderCore`] by value. The core
//! owns what the transports used to copy-paste: the posted-message book,
//! the PSN cursors, the CC module and its pacing gate and tick timer, the
//! RTO clock, packet construction, message retirement with completions,
//! and the transport counters. What remains in each sender is its loss
//! detection: GBN's rewind, IRN's SACK bitmap, RACK's timestamps and
//! probes, MP-RDMA's per-path windows, EC's repair queue, DCP's
//! header-only RetransQ.
//!
//! Reliability stays separate from congestion control (§3): the CC hooks —
//! pacing and window gates, send, cumulative ACK, CNP, tick — sit in the
//! core, outside every sender's loss detection. (DCP credits acknowledged
//! bytes itself, per retired message: its ACKs carry an eMSN, not a PSN.)

use crate::cc::CongestionControl;
use crate::common::{data_packet, desc_at, tokens, FlowCfg, MsgState, TxBook};
use dcp_netsim::endpoint::{Completion, CompletionKind, EndpointCtx};
use dcp_netsim::packet::{FlowId, NodeId, Packet};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::time::Nanos;
use dcp_rdma::qp::WorkReqOp;

/// Send-side state shared by every transport.
pub struct SenderCore {
    pub cfg: FlowCfg,
    pub book: TxBook,
    pub cc: Box<dyn CongestionControl>,
    /// Oldest unacknowledged PSN (cumulative-ACK senders).
    pub snd_una: u32,
    /// Next PSN to (re)transmit.
    pub snd_nxt: u32,
    /// Highest PSN ever sent + 1: a PSN below it is a retransmission.
    pub max_sent: u32,
    pub uid: u64,
    pub stats: TransportStats,
    /// Messages retired by the last `complete_*` call (reused buffer, so
    /// retirement never allocates).
    pub retired: Vec<MsgState>,
    rto: Nanos,
    pub(crate) rto_gen: u64,
    rto_armed: bool,
    pace_armed: bool,
    cc_tick_armed: bool,
}

impl SenderCore {
    /// A core for `cfg` whose RTO clock runs `rto` after each arming.
    pub fn new(cfg: FlowCfg, cc: Box<dyn CongestionControl>, rto: Nanos) -> Self {
        SenderCore {
            cfg,
            book: TxBook::new(),
            cc,
            snd_una: 0,
            snd_nxt: 0,
            max_sent: 0,
            uid: 0,
            stats: TransportStats::default(),
            retired: Vec::new(),
            rto,
            rto_gen: 0,
            rto_armed: false,
            pace_armed: false,
            cc_tick_armed: false,
        }
    }

    /// Posts a message onto the book.
    pub fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.book.post(wr_id, op, len, self.cfg.mtu);
    }

    /// Whether posted PSNs remain beyond `snd_nxt`.
    pub fn has_unsent(&self) -> bool {
        self.snd_nxt < self.book.next_psn()
    }

    /// Whether sent-but-unacknowledged PSNs remain.
    pub fn unacked(&self) -> bool {
        self.snd_una < self.max_sent
    }

    /// Window gate: whether the CC module admits one more MTU beyond what
    /// is in flight between `snd_una` and `snd_nxt`.
    pub fn window_open(&self) -> bool {
        let inflight = (self.snd_nxt.saturating_sub(self.snd_una)) as u64 * self.cfg.mtu as u64;
        self.cc.awin(inflight) >= self.cfg.mtu as u64
    }

    /// Claims `snd_nxt` for transmission; returns it and whether it is a
    /// retransmission (below the highest PSN ever sent).
    pub fn take_next(&mut self) -> (u32, bool) {
        let psn = self.snd_nxt;
        self.snd_nxt += 1;
        let is_retx = psn < self.max_sent;
        self.max_sent = self.max_sent.max(self.snd_nxt);
        (psn, is_retx)
    }

    /// Builds the data packet for `psn` of message `m`.
    pub fn build_msg(&mut self, m: &MsgState, psn: u32, sretry: u8, is_retx: bool) -> Packet {
        let desc = desc_at(m, self.cfg.mtu, psn);
        self.uid += 1;
        data_packet(&self.cfg, m, desc, psn, sretry, is_retx, self.uid)
    }

    /// Builds the data packet for outstanding `psn` (retry round 0; only
    /// DCP stamps rounds, through [`SenderCore::build_msg`]).
    pub fn build(&mut self, psn: u32, is_retx: bool) -> Packet {
        let m = *self.book.locate(psn).expect("psn locates").0;
        self.build_msg(&m, psn, 0, is_retx)
    }

    /// Pacing gate at `t`: `true` (hold) while `t` lies ahead, arming one
    /// wake-up at `t` if the sender has something `pending`.
    pub fn hold_until(&mut self, t: Nanos, ctx: &mut EndpointCtx, pending: bool) -> bool {
        if t <= ctx.now {
            return false;
        }
        if pending && !self.pace_armed {
            self.pace_armed = true;
            ctx.timers.push((t, tokens::PACE));
        }
        true
    }

    /// The CC module's pacing gate (rate-based schemes).
    pub fn paced(&mut self, ctx: &mut EndpointCtx, pending: bool) -> bool {
        let t = self.cc.next_send_time(ctx.now);
        self.hold_until(t, ctx, pending)
    }

    /// Books `pkt` as sent — counters, the CC's send hook, and the CC tick
    /// timer if it is not yet running — and hands it to the fabric.
    pub fn send(&mut self, pkt: Packet, ctx: &mut EndpointCtx) -> PktRef {
        if pkt.is_retx {
            self.stats.retx_pkts += 1;
        } else {
            self.stats.data_pkts += 1;
        }
        self.cc.on_send(ctx.now, pkt.wire_bytes());
        if !self.cc_tick_armed {
            if let Some(next) = self.cc.on_tick(ctx.now) {
                self.cc_tick_armed = true;
                ctx.timers.push((next, tokens::CC_TICK));
            }
        }
        ctx.pool.insert(pkt)
    }

    /// Cumulative ACK up to `epsn`: credits the CC, moves `snd_una`, and
    /// pulls `snd_nxt` along — after a rewind, in-flight originals can
    /// advance the ACK past the rewound cursor. Returns whether it moved.
    pub fn advance_una(&mut self, epsn: u32, ctx: &EndpointCtx) -> bool {
        if epsn <= self.snd_una {
            return false;
        }
        self.cc.on_ack(ctx.now, (epsn - self.snd_una) as u64 * self.cfg.mtu as u64);
        self.snd_una = epsn;
        self.snd_nxt = self.snd_nxt.max(epsn);
        true
    }

    /// [`SenderCore::advance_una`], then retire what it covers and restart
    /// the RTO clock. Returns whether the ACK moved.
    pub fn cum_ack(&mut self, epsn: u32, ctx: &mut EndpointCtx) -> bool {
        if !self.advance_una(epsn, ctx) {
            return false;
        }
        self.complete_psn_below(self.snd_una, ctx);
        self.restart_rto(ctx);
        true
    }

    /// Retires every message whose PSNs all lie below `psn` and completes
    /// it; the retired messages stay in [`SenderCore::retired`].
    pub fn complete_psn_below(&mut self, psn: u32, ctx: &mut EndpointCtx) {
        self.retired.clear();
        self.book.retire_psn_below_into(psn, &mut self.retired);
        self.push_completions(ctx);
    }

    /// Retires and completes every message with MSN below `msn`; returns
    /// whether any retired (they stay in [`SenderCore::retired`]).
    pub fn complete_msn_below(&mut self, msn: u32, ctx: &mut EndpointCtx) -> bool {
        self.retired.clear();
        self.book.retire_below_into(msn, &mut self.retired);
        self.push_completions(ctx);
        !self.retired.is_empty()
    }

    fn push_completions(&self, ctx: &mut EndpointCtx) {
        for m in &self.retired {
            ctx.completions.push(Completion {
                host: self.cfg.local,
                flow: self.cfg.flow,
                wr_id: m.wqe.wr_id,
                kind: CompletionKind::SendComplete,
                bytes: m.wqe.len,
                imm: 0,
                at: ctx.now,
            });
        }
    }

    /// (Re)starts the RTO clock; any earlier token goes stale.
    pub fn arm_rto(&mut self, ctx: &mut EndpointCtx) {
        self.rto_gen += 1;
        self.rto_armed = true;
        ctx.timers.push((ctx.now + self.rto, tokens::RTO | self.rto_gen));
    }

    /// Starts the RTO clock unless it is already running.
    pub fn ensure_rto(&mut self, ctx: &mut EndpointCtx) {
        if !self.rto_armed {
            self.arm_rto(ctx);
        }
    }

    /// Stops the RTO clock; a pending token goes stale.
    pub fn stop_rto(&mut self) {
        self.rto_armed = false;
    }

    /// Forward progress: restarts the RTO clock while PSNs are still
    /// unacknowledged, stops it otherwise.
    pub fn restart_rto(&mut self, ctx: &mut EndpointCtx) {
        if self.unacked() {
            self.arm_rto(ctx);
        } else {
            self.stop_rto();
        }
    }

    /// Whether an RTO `token` is the live one (not superseded or stopped).
    pub fn rto_fired(&self, token: u64) -> bool {
        self.rto_armed && tokens::generation(token) == self.rto_gen
    }

    /// Handles the core's own timers (pacing wake-up, CC tick); other
    /// tokens are ignored.
    pub fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        match tokens::kind(token) {
            tokens::PACE => self.pace_armed = false,
            tokens::CC_TICK => {
                self.cc_tick_armed = false;
                if let Some(next) = self.cc.on_tick(ctx.now) {
                    if !self.book.is_empty() {
                        self.cc_tick_armed = true;
                        ctx.timers.push((next, tokens::CC_TICK));
                    }
                }
            }
            _ => {}
        }
    }

    /// A CNP arrived.
    pub fn on_cnp(&mut self, ctx: &EndpointCtx) {
        self.stats.cnps += 1;
        self.cc.on_congestion(ctx.now);
    }

    /// Returns the core to a fresh connection's state for `flow`, keeping
    /// buffer capacity. The RTO generation stays monotone, so a previous
    /// life's token that slips past the host's slot-generation filter
    /// still mismatches.
    pub fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) {
        self.cfg.rebind(flow, local, remote, true);
        self.book.clear();
        self.cc.reset();
        self.snd_una = 0;
        self.snd_nxt = 0;
        self.max_sent = 0;
        self.uid = 0;
        self.stats = TransportStats::default();
        self.rto_gen += 1;
        self.rto_armed = false;
        self.pace_armed = false;
        self.cc_tick_armed = false;
    }
}
