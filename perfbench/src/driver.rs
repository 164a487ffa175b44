//! The traced run's driver: the same public calls into the simulator, in
//! the same order, as `dcp_workloads::run_flows_hooked` and
//! `dcp_workloads::run_collective`, with every endpoint wrapped in a
//! [`crate::ledger::TracedEndpoint`] and every call timed. The equality
//! gate compares its results with the runners' on the same inputs, so a
//! change to either runner that this file does not follow fails the
//! benchmark instead of skewing it.

use crate::ledger::{transport_ix, Ledger};
use dcp_netsim::endpoint::CompletionKind;
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::stats::TransportStats;
use dcp_netsim::{Nanos, Simulator, Topology};
use dcp_rdma::qp::WorkReqOp;
use dcp_workloads::{
    endpoint_pair, endpoint_pair_opts, CcKind, FlowRecord, FlowSpec, Group, GroupResult, RunOpts,
    TransportKind, WindowHook,
};
use std::collections::HashMap;

/// Posts `bytes` as ≤ `chunk` Write messages, as both runners do.
fn post_chunked(
    sim: &mut Simulator,
    led: &Ledger,
    host: NodeId,
    flow: FlowId,
    bytes: u64,
    chunk: u64,
    wr_base: u64,
) -> u64 {
    let bytes = bytes.max(1);
    let n = bytes.div_ceil(chunk);
    let mut remaining = bytes;
    for i in 0..n {
        let len = remaining.min(chunk);
        remaining -= len;
        let op = WorkReqOp::Write { remote_addr: 0x100_0000 + i * chunk, rkey: 1 };
        led.sim(|| sim.post(host, flow, wr_base + i, op, len));
    }
    n
}

/// What the flow driver returns beyond the runner's records.
pub(crate) struct FlowDrive {
    pub records: Vec<FlowRecord>,
    /// Largest `now − scheduled start` at injection.
    pub inject_late_ns_max: Nanos,
}

/// `run_flows_hooked`, traced.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_flows(
    sim: &mut Simulator,
    topo: &Topology,
    kind: TransportKind,
    cc: CcKind,
    flows: &[FlowSpec],
    deadline: Nanos,
    opts: RunOpts,
    mut hook: Option<(Nanos, WindowHook)>,
    led: &Ledger,
) -> Result<FlowDrive, String> {
    let t = transport_ix(kind);
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by_key(|&i| flows[i].start);
    let mut fct: HashMap<u32, Nanos> = HashMap::new();
    let mut msgs_left: HashMap<u32, u64> = HashMap::new();
    let mut remaining = flows.len();
    let mut next = 0usize;
    let mut late_max = 0;
    let window = hook.as_ref().map_or(Nanos::MAX, |(w, _)| (*w).max(1));
    let mut next_barrier = if hook.is_some() { window } else { Nanos::MAX };
    while remaining > 0 {
        while next < order.len() && flows[order[next]].start <= sim.now() {
            let ix = order[next];
            let f = flows[ix];
            late_max = late_max.max(sim.now() - f.start);
            let flow_id = FlowId(ix as u32 + 1);
            let (src, dst) = (topo.hosts[f.src], topo.hosts[f.dst]);
            let (tx, rx) = endpoint_pair_opts(kind, cc, flow_id, src, dst, opts);
            let (tx, rx) = (led.endpoint(t, tx), led.endpoint(t, rx));
            led.install(|| sim.install_endpoint(src, flow_id, tx));
            led.install(|| sim.install_endpoint(dst, flow_id, rx));
            if f.tenant.0 != 0 {
                led.sim(|| sim.host_mut(src).set_flow_tenant(flow_id, f.tenant.0));
                led.sim(|| sim.host_mut(dst).set_flow_tenant(flow_id, f.tenant.0));
            }
            let n = post_chunked(sim, led, src, flow_id, f.bytes, opts.chunk, 0);
            msgs_left.insert(ix as u32, n);
            next += 1;
        }
        if sim.now() >= deadline {
            break;
        }
        if next < order.len() {
            let next_start = flows[order[next]].start.min(next_barrier);
            if led.advance(|| sim.advance_bounded(next_start)).is_none() {
                led.advance(|| sim.run_until(next_start.min(deadline)));
                fire_barrier(sim, led, &mut hook, &mut next_barrier, window)?;
                continue;
            }
        } else if next_barrier < Nanos::MAX {
            if led.advance(|| sim.advance_bounded(next_barrier)).is_none() {
                if sim.pending_events() == 0 {
                    break;
                }
                led.advance(|| sim.run_until(next_barrier.min(deadline)));
            }
        } else if led.advance(|| sim.advance()).is_none() {
            break;
        }
        fire_barrier(sim, led, &mut hook, &mut next_barrier, window)?;
        led.sim(|| {
            sim.for_each_completion(|c| {
                if c.kind == CompletionKind::RecvComplete {
                    let ix = c.flow.0 - 1;
                    let left = msgs_left.get_mut(&ix).expect("completion for known flow");
                    *left -= 1;
                    if *left == 0 {
                        fct.insert(ix, c.at - flows[ix as usize].start);
                        remaining -= 1;
                    }
                }
            })
        });
    }
    let records = led.sim(|| {
        flows
            .iter()
            .enumerate()
            .map(|(ix, &spec)| {
                let flow_id = FlowId(ix as u32 + 1);
                let started = spec.start <= sim.now();
                let stats = |host: usize| {
                    if started {
                        sim.endpoint_stats(topo.hosts[host], flow_id)
                    } else {
                        TransportStats::default()
                    }
                };
                FlowRecord {
                    spec,
                    fct: fct.get(&(ix as u32)).copied(),
                    tx: stats(spec.src),
                    rx: stats(spec.dst),
                }
            })
            .collect()
    });
    Ok(FlowDrive { records, inject_late_ns_max: late_max })
}

fn fire_barrier(
    sim: &mut Simulator,
    led: &Ledger,
    hook: &mut Option<(Nanos, WindowHook)>,
    next_barrier: &mut Nanos,
    window: Nanos,
) -> Result<(), String> {
    if let Some((_, h)) = hook {
        if sim.now() >= *next_barrier {
            led.hooks.time_inclusive(|| h(sim))?;
            *next_barrier = (sim.now() / window + 1) * window;
        }
    }
    Ok(())
}

/// One collective message: when its step was posted and when it arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MessageTiming {
    /// Source and destination host indices.
    pub src: usize,
    pub dst: usize,
    pub bytes: u64,
    pub posted: Nanos,
    pub completed: Nanos,
}

/// Posts one collective slice and notes each message's post time, keyed
/// by `(flow, wr_id)`.
fn post_slice(
    sim: &mut Simulator,
    led: &Ledger,
    posted: &mut HashMap<(u32, u64), (u64, Nanos)>,
    host: NodeId,
    flow: FlowId,
    bytes: u64,
    wr_base: u64,
) {
    let chunk = dcp_core::config::MSG_CHUNK_BYTES;
    let n = post_chunked(sim, led, host, flow, bytes, chunk, wr_base);
    let mut remaining = bytes.max(1);
    for i in 0..n {
        let len = remaining.min(chunk);
        remaining -= len;
        posted.insert((flow.0, wr_base + i), (len, sim.now()));
    }
}

struct RingFlow {
    flow: FlowId,
    src_host: usize,
    steps_posted: u32,
    succ_ix: usize,
    chunks_per_step: u64,
    recv_in_step: u64,
}

/// `run_collective(.., Collective::RingAllReduce, ..)`, traced, plus the
/// post and completion time of every message.
pub(crate) fn drive_ring_allreduce(
    sim: &mut Simulator,
    topo: &Topology,
    kind: TransportKind,
    cc: CcKind,
    groups: &[Group],
    deadline: Nanos,
    led: &Ledger,
) -> Result<(Vec<GroupResult>, Vec<MessageTiming>), String> {
    let t = transport_ix(kind);
    let chunk = dcp_core::config::MSG_CHUNK_BYTES;
    let mut next_flow_id = 1u32;
    let mut ring_flows: HashMap<u32, usize> = HashMap::new();
    let mut rings: Vec<RingFlow> = Vec::new();
    let mut group_of_flow: HashMap<u32, usize> = HashMap::new();
    let mut expected: Vec<usize> = vec![0; groups.len()];
    let mut results: Vec<GroupResult> =
        groups.iter().map(|_| GroupResult { jct: 0, fcts: Vec::new() }).collect();
    // (flow, wr_id) → (bytes, post time).
    let mut posted: HashMap<(u32, u64), (u64, Nanos)> = HashMap::new();
    let mut timings = Vec::new();

    for (gix, g) in groups.iter().enumerate() {
        let n = g.members.len();
        assert!(n >= 2);
        let slice = (g.total_bytes / n as u64).max(1);
        let steps = 2 * (n as u32 - 1);
        let chunks = slice.div_ceil(chunk);
        expected[gix] = n * steps as usize * chunks as usize;
        let base = rings.len();
        for i in 0..n {
            let src = g.members[i];
            let flow = FlowId(next_flow_id);
            next_flow_id += 1;
            let dst = g.members[(i + 1) % n];
            let (tx, rx) = endpoint_pair(kind, cc, flow, topo.hosts[src], topo.hosts[dst]);
            let (tx, rx) = (led.endpoint(t, tx), led.endpoint(t, rx));
            led.install(|| sim.install_endpoint(topo.hosts[src], flow, tx));
            led.install(|| sim.install_endpoint(topo.hosts[dst], flow, rx));
            group_of_flow.insert(flow.0, gix);
            ring_flows.insert(flow.0, rings.len());
            rings.push(RingFlow {
                flow,
                src_host: src,
                steps_posted: 1,
                succ_ix: base + (i + 1) % n,
                chunks_per_step: chunks,
                recv_in_step: 0,
            });
            post_slice(sim, led, &mut posted, topo.hosts[src], flow, slice, 0);
        }
    }

    let mut done: Vec<usize> = vec![0; groups.len()];
    let total_expected: usize = expected.iter().sum();
    let mut total_done = 0usize;
    let mut comps = Vec::new();
    while total_done < total_expected && sim.now() < deadline {
        if led.advance(|| sim.advance()).is_none() {
            break;
        }
        led.sim(|| sim.drain_completions_into(&mut comps));
        for &c in &comps {
            if c.kind != CompletionKind::RecvComplete {
                continue;
            }
            let gix = group_of_flow[&c.flow.0];
            results[gix].fcts.push(c.at);
            results[gix].jct = results[gix].jct.max(c.at);
            done[gix] += 1;
            total_done += 1;
            let g = &groups[gix];
            let n = g.members.len();
            let steps = 2 * (n as u32 - 1);
            let slice = (g.total_bytes / n as u64).max(1);
            let rix = ring_flows[&c.flow.0];
            let (bytes, at) = posted[&(c.flow.0, c.wr_id)];
            timings.push(MessageTiming {
                src: rings[rix].src_host,
                dst: rings[rings[rix].succ_ix].src_host,
                bytes,
                posted: at,
                completed: c.at,
            });
            rings[rix].recv_in_step += 1;
            if rings[rix].recv_in_step == rings[rix].chunks_per_step {
                rings[rix].recv_in_step = 0;
                let succ_ix = rings[rix].succ_ix;
                let succ = &mut rings[succ_ix];
                if succ.steps_posted < steps {
                    let step = succ.steps_posted as u64;
                    succ.steps_posted += 1;
                    let (host, flow, chunks) =
                        (topo.hosts[succ.src_host], succ.flow, succ.chunks_per_step);
                    post_slice(sim, led, &mut posted, host, flow, slice, step * chunks);
                }
            }
        }
    }
    if total_done != total_expected {
        return Err(format!(
            "collective did not finish by deadline: {total_done}/{total_expected} at {}",
            sim.now()
        ));
    }
    Ok((results, timings))
}
