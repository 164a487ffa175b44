//! The traced run's per-layer ledger, measured from the outside: timers
//! around the driver's calls into `Simulator`, and decorators around the
//! objects the simulator calls back into (endpoints, the fault plane,
//! probes). Nothing here changes what the simulator computes; the
//! equality gate in `workloads` checks that.
//!
//! Self time is exclusive: a timed callback that runs inside another timed
//! callback on the same thread (a probe record emitted from a fault-plane
//! control) is charged to the inner layer only. Callbacks on the sharded
//! engine's worker threads are charged to their layers as well, so under
//! a parallel session the layer self times are thread-time, and the
//! engine's own share (`netsim.self_s`) is the residual that makes the
//! layers sum to the traced wall time.

use dcp_netsim::endpoint::{Endpoint, EndpointCtx};
use dcp_netsim::fault::{FaultPlane, FaultVerdict};
use dcp_netsim::packet::{FlowId, NodeId, Packet, PortId};
use dcp_netsim::pool::PktRef;
use dcp_netsim::stats::TransportStats;
use dcp_netsim::{Nanos, Simulator};
use dcp_rdma::qp::WorkReqOp;
use dcp_telemetry::{EventKind, KindMask, LogHistogram, Probe, ProbeEvent};
use dcp_workloads::TransportKind;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// Nanoseconds of timed callbacks that ran nested inside the current
    /// timed callback on this thread.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread is a sharded-engine session worker: 0 unknown,
    /// 1 yes, 2 no. Worker threads live for one parallel session.
    static SESSION_WORKER: Cell<u8> = const { Cell::new(0) };
}

/// Busy time and call count of one instrumented object. Counters are
/// statistics only (no other data is published through them), so
/// `Relaxed` suffices; they are read after the engine's worker threads
/// have been joined.
#[derive(Debug, Default)]
pub struct Meter {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Meter {
    /// Runs `f`, charging its duration minus nested timed callbacks.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let outer = NESTED_NS.replace(0);
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_nanos() as u64;
        let nested = NESTED_NS.get();
        self.ns.fetch_add(dt.saturating_sub(nested), Relaxed);
        self.calls.fetch_add(1, Relaxed);
        NESTED_NS.set(outer + dt);
        r
    }

    /// Runs a top-level call (a driver call into the simulator, a window
    /// hook), charging its whole duration.
    #[inline]
    pub fn time_inclusive<R>(&self, f: impl FnOnce() -> R) -> R {
        NESTED_NS.set(0);
        let t0 = Instant::now();
        let r = f();
        self.add(t0.elapsed().as_nanos() as u64);
        r
    }

    #[inline]
    fn add(&self, ns: u64) {
        self.ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }
}

/// Counts each parallel window session once, from the first endpoint
/// callback its spawned worker thread runs.
fn note_session(sessions: &AtomicU64) {
    SESSION_WORKER.with(|w| {
        if w.get() == 0 {
            let worker = std::thread::current().name().is_some_and(|n| n.starts_with("dcp-shard-"));
            w.set(if worker { 1 } else { 2 });
            if worker {
                sessions.fetch_add(1, Relaxed);
            }
        }
    });
}

/// Forwards every [`Endpoint`] method to the wrapped endpoint, timing the
/// four that do protocol work. `has_pending`, `stats`, `is_done` and
/// `recycle` are forwarded untimed: the host polls `has_pending` after
/// every callback, and timing a field read would cost more than the read.
pub(crate) struct TracedEndpoint {
    inner: Box<dyn Endpoint>,
    meter: Arc<Meter>,
    sessions: Arc<AtomicU64>,
}

impl TracedEndpoint {
    pub(crate) fn new(
        inner: Box<dyn Endpoint>,
        meter: Arc<Meter>,
        sessions: Arc<AtomicU64>,
    ) -> Self {
        TracedEndpoint { inner, meter, sessions }
    }
}

impl Endpoint for TracedEndpoint {
    fn post(&mut self, wr_id: u64, op: WorkReqOp, len: u64) {
        self.meter.time(|| self.inner.post(wr_id, op, len))
    }

    fn on_packet(&mut self, pkt: PktRef, ctx: &mut EndpointCtx) {
        note_session(&self.sessions);
        self.meter.time(|| self.inner.on_packet(pkt, ctx))
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        note_session(&self.sessions);
        self.meter.time(|| self.inner.on_timer(token, ctx))
    }

    fn pull(&mut self, ctx: &mut EndpointCtx) -> Option<PktRef> {
        note_session(&self.sessions);
        self.meter.time(|| self.inner.pull(ctx))
    }

    fn has_pending(&self) -> bool {
        self.inner.has_pending()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn recycle(&mut self, flow: FlowId, local: NodeId, remote: NodeId) -> bool {
        self.inner.recycle(flow, local, remote)
    }
}

/// Forwards both [`FaultPlane`] methods, timing each and counting the
/// per-arrival verdicts.
pub(crate) struct TracedPlane {
    inner: Box<dyn FaultPlane>,
    meter: Arc<Meter>,
    arrivals: Arc<AtomicU64>,
}

impl TracedPlane {
    pub(crate) fn new(
        inner: Box<dyn FaultPlane>,
        meter: Arc<Meter>,
        arrivals: Arc<AtomicU64>,
    ) -> Self {
        TracedPlane { inner, meter, arrivals }
    }
}

impl FaultPlane for TracedPlane {
    fn on_arrival(&mut self, now: Nanos, node: NodeId, port: PortId, pkt: &Packet) -> FaultVerdict {
        self.arrivals.fetch_add(1, Relaxed);
        self.meter.time(|| self.inner.on_arrival(now, node, port, pkt))
    }

    fn on_control(&mut self, token: u64, sim: &mut Simulator) {
        self.meter.time(|| self.inner.on_control(token, sim))
    }
}

/// Forwards every [`Probe`] method, timing `record`. `interest` is
/// forwarded so a `Fanout` filters exactly as it would for the bare probe.
pub(crate) struct TracedProbe {
    inner: Box<dyn Probe>,
    meter: Arc<Meter>,
}

impl TracedProbe {
    pub(crate) fn new(inner: Box<dyn Probe>, meter: Arc<Meter>) -> Self {
        TracedProbe { inner, meter }
    }
}

impl Probe for TracedProbe {
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        self.meter.time(|| self.inner.record(at, ev))
    }

    fn interest(&self) -> KindMask {
        self.inner.interest()
    }

    fn dump(&self) -> Option<String> {
        self.inner.dump()
    }

    fn drain_jsonl(&mut self) -> Vec<String> {
        self.inner.drain_jsonl()
    }
}

/// Key of one packet's residency in one egress queue.
type QueueKey = (u32, u32, u8, u32, u32);

/// Multiply-rotate hasher for the queue-delay map. Its keys are
/// simulator-made integers, not outside input, so the default hasher's
/// collision resistance buys nothing and would dominate the probe's cost.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Switch queueing delay, in simulated time: pairs each `Enqueue` with the
/// `Dequeue` of the same packet at the same queue.
#[derive(Default)]
struct QueueWait {
    waiting: HashMap<QueueKey, Nanos, BuildHasherDefault<MixHasher>>,
    /// Second and later copies of a key already waiting (a duplicate or
    /// retransmission queued behind its original), in arrival order.
    overflow: Vec<(QueueKey, Nanos)>,
    hist: LogHistogram,
}

/// The benchmark's own probe behind `netsim.switch.queue_wait_p99_us`.
#[derive(Clone, Default)]
pub(crate) struct QueueWaitProbe {
    state: Arc<Mutex<QueueWait>>,
}

impl QueueWaitProbe {
    /// p99 of the queueing delays seen so far, in microseconds.
    pub(crate) fn p99_us(&self) -> f64 {
        let s = self.state.lock().expect("queue-wait probe poisoned by a panicking run");
        s.hist.value_at_percentile(99.0) as f64 / 1e3
    }
}

impl Probe for QueueWaitProbe {
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        let mut s = self.state.lock().expect("queue-wait probe poisoned by a panicking run");
        match *ev {
            ProbeEvent::Enqueue { node, port, queue, flow, psn, .. } => {
                let key = (node, port, queue as u8, flow, psn);
                let QueueWait { waiting, overflow, .. } = &mut *s;
                match waiting.entry(key) {
                    Entry::Occupied(_) => overflow.push((key, at)),
                    Entry::Vacant(v) => {
                        v.insert(at);
                    }
                }
            }
            ProbeEvent::Dequeue { node, port, queue, flow, psn, .. } => {
                let key = (node, port, queue as u8, flow, psn);
                if let Some(t0) = s.waiting.remove(&key) {
                    s.hist.record(at - t0);
                    if let Some(i) = s.overflow.iter().position(|(k, _)| *k == key) {
                        let (_, t) = s.overflow.remove(i);
                        s.waiting.insert(key, t);
                    }
                }
            }
            _ => {}
        }
    }

    fn interest(&self) -> KindMask {
        KindMask::of(&[EventKind::Enqueue, EventKind::Dequeue])
    }
}

/// Layers a [`TracedEndpoint`] can be charged to: one per transport.
pub const TRANSPORTS: [&str; 7] = ["dcp", "gbn", "irn", "racktlp", "timeout_only", "mprdma", "ec"];

/// Index of `kind` in [`TRANSPORTS`].
pub(crate) fn transport_ix(kind: TransportKind) -> usize {
    match kind {
        TransportKind::Dcp => 0,
        TransportKind::Gbn => 1,
        TransportKind::Irn => 2,
        TransportKind::RackTlp => 3,
        TransportKind::TimeoutOnly => 4,
        TransportKind::MpRdma => 5,
        TransportKind::Ec => 6,
    }
}

/// Every meter of one traced run.
#[derive(Default)]
pub struct Ledger {
    /// Driver calls into `Simulator`, inclusive of the callbacks they run.
    pub sim_calls: Meter,
    /// The `install_endpoint` subset of `sim_calls`.
    pub install: Meter,
    /// `advance`, `advance_bounded`, `run_until` and `run_to_quiescence`.
    pub advance: Meter,
    /// Per-endpoint meters, by index into [`TRANSPORTS`].
    pub endpoints: RefCell<[Vec<Arc<Meter>>; 7]>,
    pub sessions: Arc<AtomicU64>,
    pub faults: Arc<Meter>,
    pub fault_arrivals: Arc<AtomicU64>,
    pub hooks: Meter,
    pub check_probes: Arc<Meter>,
    pub scope: Arc<Meter>,
    pub trace_probe: Arc<Meter>,
}

impl Ledger {
    /// Wraps an endpoint of transport `t` (an index into [`TRANSPORTS`]).
    pub fn endpoint(&self, t: usize, ep: Box<dyn Endpoint>) -> Box<dyn Endpoint> {
        let m = Arc::new(Meter::default());
        self.endpoints.borrow_mut()[t].push(Arc::clone(&m));
        Box::new(TracedEndpoint::new(ep, m, Arc::clone(&self.sessions)))
    }

    /// Replaces the installed fault plane with a timed wrapper around it.
    pub fn wrap_fault_plane(&self, sim: &mut Simulator) {
        if let Some(plane) = sim.take_fault_plane() {
            sim.set_fault_plane(Box::new(TracedPlane::new(
                plane,
                Arc::clone(&self.faults),
                Arc::clone(&self.fault_arrivals),
            )));
        }
    }

    /// A driver call into the simulator.
    #[inline]
    pub fn sim<R>(&self, f: impl FnOnce() -> R) -> R {
        self.sim_calls.time_inclusive(f)
    }

    /// A driver call that advances simulated time.
    #[inline]
    pub fn advance<R>(&self, f: impl FnOnce() -> R) -> R {
        self.sim_also(&self.advance, f)
    }

    /// An `install_endpoint` call.
    #[inline]
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        self.sim_also(&self.install, f)
    }

    /// A driver call into the simulator that is also charged to `extra`.
    #[inline]
    fn sim_also<R>(&self, extra: &Meter, f: impl FnOnce() -> R) -> R {
        NESTED_NS.set(0);
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_nanos() as u64;
        self.sim_calls.add(dt);
        extra.add(dt);
        r
    }

    /// Summed busy time and calls of transport `t`'s endpoints.
    pub fn transport(&self, t: usize) -> (u64, u64) {
        self.endpoints.borrow()[t].iter().fold((0, 0), |(ns, c), m| (ns + m.ns(), c + m.calls()))
    }

    /// Self time of every callback layer, summed over threads.
    pub fn callback_ns(&self) -> u64 {
        let eps: u64 = (0..TRANSPORTS.len()).map(|t| self.transport(t).0).sum();
        eps + self.faults.ns() + self.check_probes.ns() + self.scope.ns() + self.trace_probe.ns()
    }

    /// The engine's own time: driver calls into the simulator minus the
    /// callbacks they ran.
    pub fn netsim_self_ns(&self) -> i64 {
        self.sim_calls.ns() as i64 - self.callback_ns() as i64
    }
}
