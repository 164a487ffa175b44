//! The three workloads: how each builds its inputs from the seed, runs
//! them through the public runners (untraced) or the benchmark's driver
//! (traced), and checks that the run was correct.
//!
//! Each workload offers a fixed number of bytes per run, taken as a prefix
//! of the seeded arrival sequence, so the amount of work does not swing
//! with how many heavy-tail flows a seed happens to draw; the seed still
//! decides arrival times, endpoints, sizes and every random stream.

use crate::driver::{drive_flows, drive_ring_allreduce};
use crate::ledger::{transport_ix, Ledger, QueueWaitProbe, TracedProbe};
use dcp_bench::{default_cc, fabric_cables};
use dcp_check::{DeliveryOracle, Liveness, Watchdog, WatchdogConfig};
use dcp_core::dcp_switch_config;
use dcp_faults::{FaultEngine, FaultEvent, FaultPlan, LossModel};
use dcp_netsim::switch::SwitchConfig;
use dcp_netsim::{
    topology, EcnConfig, LoadBalance, Nanos, NodeId, PortId, Simulator, Topology, MS, SEC, US,
};
use dcp_scope::ScopeProbe;
use dcp_telemetry::{Fanout, Probe};
use dcp_workloads::{
    endpoint_pair, poisson_flows, run_collective, run_flows_hooked, tenant_mix, CcKind, Collective,
    FlowRecord, FlowSpec, Group, GroupResult, IdealFct, RunOpts, SizeDist, TenantId, TenantKind,
    TenantSpec, TransportKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TenantMixChaos,
    AllreduceClos3,
    TransportSweepLossy,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::TenantMixChaos, Workload::AllreduceClos3, Workload::TransportSweepLossy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantMixChaos => "tenant_mix_chaos",
            Workload::AllreduceClos3 => "allreduce_clos3",
            Workload::TransportSweepLossy => "transport_sweep_lossy",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run size: `Bench` is what the benchmark measures; `Small` keeps every
/// mechanism of a workload at a fraction of the work, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Bench,
    Small,
}

/// Shards and worker threads `allreduce_clos3` pins in code.
pub const CLOS3_SHARDS: usize = 2;

/// One simulator with its inputs; a run is one or more cells.
pub(crate) struct Cell {
    sim: Simulator,
    topo: Topology,
    kind: TransportKind,
    cc: CcKind,
    traffic: Traffic,
    /// `(hosts per leaf, hosts per pod)` for the idle-path hop count.
    shape: (usize, Option<usize>),
    checks: Option<Checks>,
    queue_wait: Option<QueueWaitProbe>,
    /// The paced AllReduce job inside an open-loop flow set, whose
    /// iterations give the cell's job completion time.
    allreduce: Option<PacedRing>,
}

/// A paced ring AllReduce among a cell's flows: its iteration period and
/// the indices of its flows in the flow set.
struct PacedRing {
    period: Nanos,
    flows: Vec<usize>,
}

/// The tenant `tenant_mix_chaos` runs its AllReduce job as.
const ALLREDUCE_TENANT: TenantId = TenantId(2);

/// Iteration period and bytes reduced per iteration of the paced
/// AllReduce tenant of `tenant_mix_chaos`.
const ALLREDUCE_PERIOD: Nanos = 250 * US;
const ALLREDUCE_BYTES: u64 = 256 << 10;

enum Traffic {
    Flows { flows: Vec<FlowSpec>, opts: RunOpts, deadline: Nanos },
    Ring { groups: Vec<Group>, deadline: Nanos },
}

/// The in-run invariant checks of `tenant_mix_chaos`.
struct Checks {
    oracle: DeliveryOracle,
    watchdog: Watchdog,
    window: Nanos,
}

/// A run's inputs, built and ready.
pub struct Prepared {
    pub(crate) cells: Vec<Cell>,
    /// Time spent generating flows, within set-up.
    pub(crate) gen_s: f64,
}

/// What one run computed. `facts` is everything the simulation decided
/// (bit-identical across repeats of a seed and between the untraced and
/// traced runs); the rest is derived from it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub facts: Vec<CellFacts>,
    /// FCT slowdown of every flow (or collective message), by transport
    /// (an index into `ledger::TRANSPORTS`). Empty for untraced
    /// `allreduce_clos3`, whose runner reports completion times without
    /// post times.
    pub slowdowns: [Vec<f64>; 7],
    pub inject_late_ns_max: Nanos,
    pub queue_wait_p99_us: f64,
}

/// The simulated facts of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFacts {
    pub transport: usize,
    pub events: u64,
    pub peak_pending: usize,
    pub net: Vec<(&'static str, u64)>,
    pub endpoints: Vec<(&'static str, u64)>,
    /// Per-flow FCT, or per-group `(jct, completion times)`.
    pub fcts: Vec<Option<Nanos>>,
    pub groups: Vec<(Nanos, Vec<Nanos>)>,
    /// Job completion time: the slowest AllReduce group, the median
    /// AllReduce iteration, or the whole flow set.
    pub jct: Nanos,
    pub attempted: u64,
    pub now: Nanos,
}

impl CellFacts {
    pub fn net(&self, name: &str) -> u64 {
        self.net.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    pub fn endpoint(&self, name: &str) -> u64 {
        self.endpoints.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }
}

/// A size law conditioned on sizes up to its last point: `points` is a
/// prefix of a CDF from `dcp_workloads::SizeDist`, rescaled to end at 1.
fn body(points: &[(f64, f64)]) -> SizeDist {
    let top = points[points.len() - 1].1;
    SizeDist::new(points.iter().map(|&(s, c)| (s, c / top)).collect())
}

/// `SizeDist::websearch()` up to 200 KB: its short-flow body, 60 % of its
/// flows (mean 44 KB).
fn websearch_body() -> SizeDist {
    body(&[
        (1.0, 0.0),
        (10_000.0, 0.15),
        (20_000.0, 0.20),
        (30_000.0, 0.30),
        (50_000.0, 0.40),
        (80_000.0, 0.53),
        (200_000.0, 0.60),
    ])
}

/// `SizeDist::storage()` up to 256 KiB: its block-op body, 82 % of its
/// flows (mean 38 KB).
fn storage_body() -> SizeDist {
    body(&[
        (1.0, 0.0),
        (512.0, 0.05),
        (4_096.0, 0.25),
        (16_384.0, 0.50),
        (65_536.0, 0.70),
        (262_144.0, 0.82),
    ])
}

/// Keeps the prefix of `flows` (in arrival order) whose bytes first reach
/// `budget`.
fn byte_budget(mut flows: Vec<FlowSpec>, budget: u64) -> Vec<FlowSpec> {
    flows.sort_by_key(|f| f.start);
    let mut sum = 0u64;
    let keep = flows
        .iter()
        .position(|f| {
            sum += f.bytes;
            sum >= budget
        })
        .map_or(flows.len(), |i| i + 1);
    flows.truncate(keep);
    flows
}

/// A simulator that ignores `DCP_SHARDS`: every workload fixes its own
/// engine configuration in code.
fn new_sim(seed: u64) -> Simulator {
    let mut sim = Simulator::new(seed);
    sim.disable_auto_partition();
    sim
}

/// The probe a traced cell adds for switch queueing delay, and where it
/// lands.
fn queue_wait_probe(led: Option<&Ledger>) -> Option<(QueueWaitProbe, Box<dyn Probe>)> {
    led.map(|l| {
        let q = QueueWaitProbe::default();
        let boxed: Box<dyn Probe> =
            Box::new(TracedProbe::new(Box::new(q.clone()), Arc::clone(&l.trace_probe)));
        (q, boxed)
    })
}

/// `tenant_mix_chaos`: two independent fabrics (sub-seeds `2·seed` and
/// `2·seed + 1`), each a `tenant_mix_cell`.
fn setup_tenant_mix(seed: u64, size: Size, led: Option<&Ledger>) -> Prepared {
    let (a, gen_a) = tenant_mix_cell(seed.wrapping_mul(2), size, led);
    let (b, gen_b) = tenant_mix_cell(seed.wrapping_mul(2).wrapping_add(1), size, led);
    Prepared { cells: vec![a, b], gen_s: gen_a + gen_b }
}

/// Three tenants under per-tenant egress WRR on a two-tier CLOS running
/// DCP with adaptive routing, open-loop arrivals, GE loss bursts plus two
/// out-of-phase uplink flaps, the delivery oracle and watchdog at every
/// window barrier, and full span capture. Returns the cell and its
/// flow-generation time.
fn tenant_mix_cell(seed: u64, size: Size, led: Option<&Ledger>) -> (Cell, f64) {
    let (spines, leaves, hpl, budget) = match size {
        Size::Bench => (8, 8, 8, 300 << 20),
        Size::Small => (4, 4, 4, 10 << 20),
    };
    let n_hosts = leaves * hpl;
    let (web_load, storage_load) = (0.15, 0.10);
    // Long enough that the Poisson tenants alone reach the byte budget
    // with a wide margin (4x the expected time).
    let offered_bytes_per_ns = (web_load + storage_load) * n_hosts as f64 * 100.0 / 8.0;
    let horizon = (4.0 * budget as f64 / offered_bytes_per_ns) as Nanos;
    let specs = vec![
        TenantSpec {
            id: TenantId(0),
            name: "websearch",
            weight: 4,
            slo_p999: f64::INFINITY,
            kind: TenantKind::Poisson { dist: websearch_body(), load: web_load },
        },
        TenantSpec {
            id: TenantId(1),
            name: "storage",
            weight: 2,
            slo_p999: f64::INFINITY,
            kind: TenantKind::Poisson { dist: storage_body(), load: storage_load },
        },
        TenantSpec {
            id: ALLREDUCE_TENANT,
            name: "allreduce",
            weight: 2,
            slo_p999: f64::INFINITY,
            kind: TenantKind::AllReduce {
                group: (0..leaves).map(|l| l * hpl).collect(),
                bytes: ALLREDUCE_BYTES,
                period: ALLREDUCE_PERIOD,
            },
        },
    ];
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let flows = byte_budget(tenant_mix(&mut rng, &specs, n_hosts, 100.0, horizon), budget);
    let ring = (0..flows.len()).filter(|&i| flows[i].tenant == ALLREDUCE_TENANT).collect();
    let gen_s = t0.elapsed().as_secs_f64();
    let span = flows.last().map_or(MS, |f| f.start.max(MS));

    let mut sim = new_sim(seed);
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, hpl + spines);
    let topo = topology::clos(&mut sim, cfg, spines, leaves, hpl, 100.0, 100.0, US, US);
    let weights: Vec<u64> = specs.iter().map(|s| s.weight).collect();
    for &h in &topo.hosts {
        sim.host_mut(h).set_tenant_weights(&weights);
    }
    // GE bursts on every other uplink for the whole run; two uplinks of
    // different leaves flap once each, out of phase.
    let cables = fabric_cables(&sim, &topo, hpl);
    let bursty: Vec<_> = cables.iter().copied().step_by(2).collect();
    let (a, b) = (cables[1], cables[cables.len() / 2 + 1]);
    let (t, down) = (span / 4, 100 * US);
    let plan = FaultPlan::new(seed ^ 0xfade)
        .with_loss_on(&bursty, LossModel::fabric_bursty())
        .at(t, FaultEvent::LinkDown { sw: a.0, port: a.1 })
        .at(t + down, FaultEvent::LinkUp { sw: a.0, port: a.1 })
        .at(2 * t, FaultEvent::LinkDown { sw: b.0, port: b.1 })
        .at(2 * t + down, FaultEvent::LinkUp { sw: b.0, port: b.1 });
    FaultEngine::install(&mut sim, plan.sorted());
    let oracle = DeliveryOracle::new();
    let watchdog = Watchdog::new(WatchdogConfig::default());
    let mut queue_wait = None;
    let probes: Vec<Box<dyn Probe>> = match led {
        None => vec![oracle.probe(), watchdog.probe(), Box::new(ScopeProbe::new())],
        Some(l) => {
            l.wrap_fault_plane(&mut sim);
            let check = |p| -> Box<dyn Probe> {
                Box::new(TracedProbe::new(p, Arc::clone(&l.check_probes)))
            };
            let (q, qp) = queue_wait_probe(led).expect("traced");
            queue_wait = Some(q);
            vec![
                check(oracle.probe()),
                check(watchdog.probe()),
                Box::new(TracedProbe::new(Box::new(ScopeProbe::new()), Arc::clone(&l.scope))),
                qp,
            ]
        }
    };
    sim.set_probe(Box::new(Fanout::new(probes)));
    let mut opts = RunOpts { chunk: 64 << 10, ..Default::default() };
    opts.dcp.coarse_timeout = MS;
    let cell = Cell {
        sim,
        topo,
        kind: TransportKind::Dcp,
        cc: default_cc(TransportKind::Dcp),
        traffic: Traffic::Flows { flows, opts, deadline: 2 * SEC },
        shape: (hpl, None),
        checks: Some(Checks { oracle, watchdog, window: (span / 8).max(1) }),
        queue_wait,
        allreduce: Some(PacedRing { period: ALLREDUCE_PERIOD, flows: ring }),
    };
    (cell, gen_s)
}

/// `allreduce_clos3`: 16 ring-AllReduce groups whose members stride the
/// pods of a 1024-host three-tier CLOS, DCP with DCQCN, closed loop, on the
/// sharded engine pinned to two shards and two workers.
fn setup_allreduce(seed: u64, size: Size, led: Option<&Ledger>) -> Prepared {
    let (pods, leaves_per_pod, hpl, total_bytes) = match size {
        Size::Bench => (8, 8, 16, 1 << 20),
        Size::Small => (4, 4, 16, 64 << 10),
    };
    let (n_groups, group_size) = (16usize, 16usize);
    let n_hosts = pods * leaves_per_pod * hpl;
    let t0 = Instant::now();
    // Member m of every group sits in the m-th block of n_hosts/16 hosts, so
    // consecutive ring members alternate between the two halves of a pod
    // and across pods; the seed picks which host of the block.
    let block = n_hosts / group_size;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut members = vec![Vec::with_capacity(group_size); n_groups];
    for m in 0..group_size {
        let mut picks: Vec<usize> = (0..block).collect();
        for i in 0..n_groups {
            let j = rng.random_range(i..block);
            picks.swap(i, j);
            members[i].push(m * block + picks[i]);
        }
    }
    let groups: Vec<Group> =
        members.into_iter().map(|members| Group { members, total_bytes }).collect();
    let gen_s = t0.elapsed().as_secs_f64();

    let mut sim = new_sim(seed);
    let cfg = dcp_switch_config(LoadBalance::AdaptiveRouting, 24);
    let topo =
        topology::clos3(&mut sim, cfg, pods, 4, leaves_per_pod, hpl, 8, 100.0, 400.0, US, US);
    assert!(sim.partition(&topo, CLOS3_SHARDS), "the three-tier CLOS must partition");
    sim.set_workers(CLOS3_SHARDS);
    prewarm_connections(&mut sim, &topo, &groups);
    let mut queue_wait = None;
    if let Some((q, qp)) = queue_wait_probe(led) {
        queue_wait = Some(q);
        sim.set_probe(qp);
    }
    let cell = Cell {
        sim,
        topo,
        kind: TransportKind::Dcp,
        cc: default_cc(TransportKind::Dcp),
        traffic: Traffic::Ring { groups, deadline: 60 * SEC },
        shape: (hpl, Some(leaves_per_pod * hpl)),
        checks: None,
        queue_wait,
        allreduce: None,
    };
    Prepared { cells: vec![cell], gen_s }
}

/// Installs and removes every ring connection once, so the hosts'
/// connection tables are sized in set-up rather than in the timed run.
/// Removal runs in reverse, which hands the slots back in install order:
/// the run then sees the same slot layout as on fresh hosts.
fn prewarm_connections(sim: &mut Simulator, topo: &Topology, groups: &[Group]) {
    let mut installed = Vec::new();
    let mut flow = 1u32;
    for g in groups {
        let n = g.members.len();
        for i in 0..n {
            let id = dcp_netsim::FlowId(flow);
            flow += 1;
            let (src, dst) = (topo.hosts[g.members[i]], topo.hosts[g.members[(i + 1) % n]]);
            let (tx, rx) =
                endpoint_pair(TransportKind::Dcp, default_cc(TransportKind::Dcp), id, src, dst);
            installed.push((src, sim.install_endpoint(src, id, tx)));
            installed.push((dst, sim.install_endpoint(dst, id, rx)));
        }
    }
    for (host, qp) in installed.into_iter().rev() {
        sim.remove_endpoint(host, qp).expect("prewarmed connection is live");
    }
}

/// The seven transports and their fabric disciplines (`fault_matrix`'s
/// schemes; GBN on the lossy fabric), each with its default CC.
fn schemes() -> Vec<(TransportKind, SwitchConfig)> {
    let mut mp = SwitchConfig::lossless(LoadBalance::Ecmp);
    mp.ecn = Some(EcnConfig::default_100g());
    vec![
        (TransportKind::Dcp, dcp_switch_config(LoadBalance::AdaptiveRouting, 20)),
        (TransportKind::Gbn, SwitchConfig::lossy(LoadBalance::Ecmp)),
        (TransportKind::Irn, SwitchConfig::lossy(LoadBalance::AdaptiveRouting)),
        (TransportKind::RackTlp, SwitchConfig::lossy(LoadBalance::Ecmp)),
        (TransportKind::TimeoutOnly, SwitchConfig::lossy(LoadBalance::Ecmp)),
        (TransportKind::MpRdma, mp),
        (TransportKind::Ec, SwitchConfig::lossy(LoadBalance::AdaptiveRouting)),
    ]
}

/// `transport_sweep_lossy`: one WebSearch flow set under persistent BER on
/// half the fabric cables and GE bursts on the other half, once per
/// transport, serial engine, one tenant.
fn setup_sweep(seed: u64, size: Size, led: Option<&Ledger>) -> Prepared {
    let (spines, leaves, hpl, budget) = match size {
        Size::Bench => (4, 4, 4, 120 << 20),
        Size::Small => (2, 2, 4, 4 << 20),
    };
    let n_hosts = leaves * hpl;
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    // Three times the expected count reaches the byte budget.
    let sizes = websearch_body();
    let n = (3.0 * budget as f64 / sizes.mean()) as usize;
    let flows = byte_budget(poisson_flows(&mut rng, &sizes, n_hosts, 100.0, 0.4, n), budget);
    let gen_s = t0.elapsed().as_secs_f64();
    let rtt = 8 * US;
    let mut opts = RunOpts::for_rtt(rtt);
    opts.chunk = 64 << 10;
    opts.dcp.coarse_timeout = MS;
    let cells = schemes()
        .into_iter()
        .map(|(kind, cfg)| {
            let mut sim = new_sim(seed);
            let topo = topology::clos(&mut sim, cfg, spines, leaves, hpl, 100.0, 100.0, US, US);
            let cables = fabric_cables(&sim, &topo, hpl);
            let (ber, ge): (Vec<_>, Vec<_>) =
                cables.iter().enumerate().partition(|(i, _)| i % 2 == 0);
            let pick = |v: Vec<(usize, &(NodeId, PortId))>| -> Vec<(NodeId, PortId)> {
                v.into_iter().map(|(_, c)| *c).collect()
            };
            // These rates leave a few percent of all flows (those of the
            // RTO-only baselines) one retransmission timeout behind, so the
            // pooled p99 falls inside that mode. At a third of them it sat
            // on the mode's edge, at three times them among flows that lost
            // two timeouts; either way it swung twofold between seeds.
            let plan = FaultPlan::new(seed ^ 0xfa11)
                .with_loss_on(&pick(ber), LossModel::wire_ber(3e-7))
                .with_loss_on(&pick(ge), LossModel::bursty(1.5e-4, 0.1))
                .sorted();
            FaultEngine::install(&mut sim, plan);
            let mut queue_wait = None;
            if let Some((q, qp)) = queue_wait_probe(led) {
                led.expect("traced").wrap_fault_plane(&mut sim);
                queue_wait = Some(q);
                sim.set_probe(qp);
            }
            Cell {
                sim,
                topo,
                kind,
                cc: default_cc(kind),
                traffic: Traffic::Flows { flows: flows.clone(), opts, deadline: 2 * SEC },
                shape: (hpl, None),
                checks: None,
                queue_wait,
                allreduce: None,
            }
        })
        .collect();
    Prepared { cells, gen_s }
}

/// Builds a run's inputs. With a ledger, the probes and the fault plane
/// are wrapped in its decorators.
pub fn setup(w: Workload, seed: u64, size: Size, led: Option<&Ledger>) -> Prepared {
    match w {
        Workload::TenantMixChaos => setup_tenant_mix(seed, size, led),
        Workload::AllreduceClos3 => setup_allreduce(seed, size, led),
        Workload::TransportSweepLossy => setup_sweep(seed, size, led),
    }
}

/// Links on the idle path between two hosts: 2 within a leaf, 4 within a
/// pod (or across a two-tier fabric), 6 across pods.
fn path_links(shape: (usize, Option<usize>), src: usize, dst: usize) -> u64 {
    let (hpl, hpp) = shape;
    if src / hpl == dst / hpl {
        2
    } else if hpp.is_none_or(|p| src / p == dst / p) {
        4
    } else {
        6
    }
}

/// FCT ÷ the FCT of the same size alone on its idle path (1 µs per link,
/// 100 Gbps host links).
fn slowdown(shape: (usize, Option<usize>), src: usize, dst: usize, bytes: u64, fct: Nanos) -> f64 {
    let ideal =
        IdealFct { base_delay: path_links(shape, src, dst) * US, ..IdealFct::intra_dc_100g() };
    ideal.slowdown(bytes, fct)
}

/// Result of driving one cell, before the end-of-run checks.
enum Driven {
    Flows(Vec<FlowRecord>),
    Ring(Vec<GroupResult>, Option<Vec<crate::driver::MessageTiming>>),
}

/// Runs one cell through the public runners and drains the fabric.
fn run_cell(c: &mut Cell) -> Result<Driven, String> {
    let d = match &c.traffic {
        Traffic::Flows { flows, opts, deadline } => {
            let records = match &c.checks {
                Some(ch) => {
                    let mut hook = barrier_hook(ch);
                    run_flows_hooked(
                        &mut c.sim,
                        &c.topo,
                        c.kind,
                        c.cc,
                        flows,
                        *deadline,
                        *opts,
                        Some((ch.window, &mut hook)),
                    )?
                }
                None => run_flows_hooked(
                    &mut c.sim, &c.topo, c.kind, c.cc, flows, *deadline, *opts, None,
                )?,
            };
            Driven::Flows(records)
        }
        Traffic::Ring { groups, deadline } => Driven::Ring(
            run_collective(
                &mut c.sim,
                &c.topo,
                c.kind,
                c.cc,
                groups,
                Collective::RingAllReduce,
                *deadline,
            ),
            None,
        ),
    };
    drain(&mut c.sim, c.traffic.deadline())?;
    Ok(d)
}

/// Threads the untraced run spreads its cells over. Every workload keeps
/// both cores of the reference machine busy, so contention from other
/// tenants of the host, which comes and goes per core, averages out.
pub const RUN_THREADS: usize = 2;

/// Untraced timings of a run phase.
pub struct RunTime {
    /// Wall time of the whole phase.
    pub wall: f64,
    /// Sum of the cells' own wall times: the phase's serial-equivalent
    /// time, which the serial traced run is compared against.
    pub cells: f64,
}

/// Runs every cell through the public runners, on [`RUN_THREADS`] threads
/// that take cells in order, and drains each fabric.
pub fn run_untraced(p: Prepared) -> Result<(Outcome, RunTime), String> {
    let mut cells = p.cells;
    let n = cells.len();
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut Cell>> = cells.iter_mut().map(Mutex::new).collect();
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { return done };
            let mut cell = slot.lock().expect("each cell is taken once");
            let t = Instant::now();
            let d = run_cell(&mut cell);
            done.push((i, d, t.elapsed().as_secs_f64()));
        }
    };
    let mut results: Vec<(usize, Result<Driven, String>, f64)> = std::thread::scope(|sc| {
        let helpers: Vec<_> = (1..RUN_THREADS.min(n)).map(|_| sc.spawn(work)).collect();
        let mut all = work();
        for h in helpers {
            all.extend(h.join().expect("a cell thread panicked"));
        }
        all
    });
    let wall = t0.elapsed().as_secs_f64();
    drop(slots);
    results.sort_by_key(|r| r.0);
    let cell_time = results.iter().map(|r| r.2).sum();
    let driven = results.into_iter().map(|r| r.1).collect::<Result<Vec<_>, _>>()?;
    Ok((finish(&cells, driven, 0)?, RunTime { wall, cells: cell_time }))
}

/// Runs every cell through the benchmark's traced driver. Returns the
/// outcome and the wall time of the run phase.
pub fn run_traced(p: Prepared, led: &Ledger) -> Result<(Outcome, f64), String> {
    let mut driven = Vec::with_capacity(p.cells.len());
    let mut cells = p.cells;
    let mut late = 0;
    let t0 = Instant::now();
    for c in &mut cells {
        let d = match &c.traffic {
            Traffic::Flows { flows, opts, deadline } => {
                let drive = match &c.checks {
                    Some(ch) => {
                        let mut hook = barrier_hook(ch);
                        drive_flows(
                            &mut c.sim,
                            &c.topo,
                            c.kind,
                            c.cc,
                            flows,
                            *deadline,
                            *opts,
                            Some((ch.window, &mut hook)),
                            led,
                        )?
                    }
                    None => drive_flows(
                        &mut c.sim, &c.topo, c.kind, c.cc, flows, *deadline, *opts, None, led,
                    )?,
                };
                late = late.max(drive.inject_late_ns_max);
                Driven::Flows(drive.records)
            }
            Traffic::Ring { groups, deadline } => {
                let (res, timings) = drive_ring_allreduce(
                    &mut c.sim, &c.topo, c.kind, c.cc, groups, *deadline, led,
                )?;
                Driven::Ring(res, Some(timings))
            }
        };
        let deadline = c.traffic.deadline();
        led.advance(|| drain(&mut c.sim, deadline))?;
        driven.push(d);
    }
    let wall = t0.elapsed().as_secs_f64();
    Ok((finish(&cells, driven, late)?, wall))
}

impl Traffic {
    fn deadline(&self) -> Nanos {
        match self {
            Traffic::Flows { deadline, .. } | Traffic::Ring { deadline, .. } => *deadline,
        }
    }
}

/// Runs the fabric until nothing is left in flight.
fn drain(sim: &mut Simulator, deadline: Nanos) -> Result<(), String> {
    if sim.run_to_quiescence(sim.now().max(deadline) + SEC) {
        Ok(())
    } else {
        Err(format!("fabric failed to quiesce by t={} ns", sim.now()))
    }
}

/// The window-barrier checks of `tenant_mix_chaos`: lenient conservation,
/// the delivery oracle and the watchdog, all read-only.
fn barrier_hook(ch: &Checks) -> impl FnMut(&mut Simulator) -> Result<(), String> + '_ {
    move |sim: &mut Simulator| {
        let c = sim.check_conservation(false);
        if !c.is_ok() {
            return Err(format!("conservation violated at t={}: {:?}", sim.now(), c.violations));
        }
        let v = ch.oracle.violations();
        if !v.is_empty() {
            return Err(format!("delivery oracle at t={}: {}", sim.now(), v.join("; ")));
        }
        match ch.watchdog.check(sim.now(), ch.oracle.outstanding()) {
            Liveness::Ok => Ok(()),
            verdict => Err(ch.watchdog.report(&verdict, sim)),
        }
    }
}

/// The end-of-run correctness gate and the outcome of a drained run:
/// every flow or message completed, strict conservation, and for
/// `tenant_mix_chaos` a silent oracle and watchdog.
fn finish(cells: &[Cell], driven: Vec<Driven>, late: Nanos) -> Result<Outcome, String> {
    let mut out = Outcome {
        facts: Vec::new(),
        slowdowns: Default::default(),
        inject_late_ns_max: late,
        queue_wait_p99_us: 0.0,
    };
    for (c, d) in cells.iter().zip(driven) {
        let t = transport_ix(c.kind);
        if let Some(ch) = &c.checks {
            let verdict = ch.watchdog.check(c.sim.now(), ch.oracle.outstanding());
            if verdict != Liveness::Ok {
                return Err(ch.watchdog.report(&verdict, &c.sim));
            }
            ch.oracle.final_check().map_err(|e| format!("delivery oracle: {e}"))?;
        }
        let cons = c.sim.check_conservation(true);
        if !cons.is_ok() {
            return Err(format!("strict conservation violated: {:?}", cons.violations));
        }
        let mut facts = CellFacts {
            transport: t,
            events: c.sim.events_processed(),
            peak_pending: c.sim.peak_pending_events(),
            net: c.sim.net_stats().fields().collect(),
            endpoints: c.sim.all_endpoint_stats().fields().collect(),
            fcts: Vec::new(),
            groups: Vec::new(),
            jct: 0,
            attempted: 0,
            now: c.sim.now(),
        };
        match d {
            Driven::Flows(records) => {
                let unfinished = records.iter().filter(|r| r.fct.is_none()).count();
                if unfinished > 0 {
                    return Err(format!("{unfinished} of {} flows unfinished", records.len()));
                }
                for r in &records {
                    let fct = r.fct.expect("checked");
                    let s = slowdown(c.shape, r.spec.src, r.spec.dst, r.spec.bytes, fct);
                    out.slowdowns[t].push(s);
                }
                facts.jct = job_completion(&records, c.allreduce.as_ref());
                facts.attempted = records.len() as u64;
                facts.fcts = records.iter().map(|r| r.fct).collect();
            }
            Driven::Ring(groups, timings) => {
                facts.attempted = groups.iter().map(|g| g.fcts.len() as u64).sum();
                facts.jct = groups.iter().map(|g| g.jct).max().unwrap_or(0);
                facts.groups = groups.into_iter().map(|g| (g.jct, g.fcts)).collect();
                if let Some(timings) = timings {
                    for m in timings {
                        let s = slowdown(c.shape, m.src, m.dst, m.bytes, m.completed - m.posted);
                        out.slowdowns[t].push(s);
                    }
                }
            }
        }
        if let Some(q) = &c.queue_wait {
            out.queue_wait_p99_us = out.queue_wait_p99_us.max(q.p99_us());
        }
        out.facts.push(facts);
    }
    Ok(out)
}

/// Job completion time of finished `records`: the median over complete
/// iterations of the paced AllReduce of the time from an iteration's start
/// to its last delivery; without one, the time by which 99 % of the flow
/// set had completed (the very last flow is one loss-recovery draw, too
/// noisy to compare runs by).
fn job_completion(records: &[FlowRecord], ring: Option<&PacedRing>) -> Nanos {
    let end = |r: &FlowRecord| r.spec.start + r.fct.expect("finished");
    let Some(ring) = ring else {
        let mut ends: Vec<Nanos> = records.iter().map(end).collect();
        ends.sort_unstable();
        return ends.get((ends.len() * 99).div_ceil(100).saturating_sub(1)).copied().unwrap_or(0);
    };
    let Some(first) = ring.flows.iter().map(|&i| records[i].spec.start).min() else {
        return 0;
    };
    // Per iteration: (flows, completion relative to the iteration start).
    let mut iters: Vec<(usize, Nanos)> = Vec::new();
    for &i in &ring.flows {
        let r = &records[i];
        let k = ((r.spec.start - first) / ring.period) as usize;
        if iters.len() <= k {
            iters.resize(k + 1, (0, 0));
        }
        iters[k].0 += 1;
        iters[k].1 = iters[k].1.max(end(r) - (first + k as Nanos * ring.period));
    }
    // The byte budget can cut the last iteration short.
    let full = iters.iter().map(|i| i.0).max().unwrap_or(0);
    let mut jcts: Vec<Nanos> = iters.iter().filter(|i| i.0 == full).map(|i| i.1).collect();
    jcts.sort_unstable();
    jcts[(jcts.len() - 1) / 2]
}
