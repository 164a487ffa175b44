//! One benchmark run: untimed warm-up, timed untraced repetitions, then
//! traced repetitions, every one gated on correctness, reduced to the
//! end-to-end or per-layer metrics.

use crate::ledger::{Ledger, TRANSPORTS};
use crate::procfs;
use crate::workloads::{
    run_traced, run_untraced, setup, Outcome, Size, Workload, CLOS3_SHARDS, RUN_THREADS,
};
use dcp_telemetry::Json;
use std::time::{Duration, Instant};

/// Timed untraced repetitions made even when `seconds` has passed.
const MIN_REPS: usize = 3;

/// Extra set-ups timed (and dropped) per run, so `setup_s` is the median
/// of enough samples to be steady.
const SETUP_SAMPLES: usize = 15;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    pub size: Size,
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The result of a run that passed every correctness check; any failed
/// flow or message fails the run, so none is ever reported.
pub struct Report {
    pub attempted: u64,
    pub metrics: Vec<Metric>,
    pub identity: Json,
    /// Wall time of each timed untraced repetition, in run order.
    pub walls: Vec<f64>,
}

impl Report {
    /// The one-line result object.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::obj(), |o, (name, value, unit)| {
            o.set(name, Json::obj().set("value", *value).set("unit", *unit))
        });
        Json::obj()
            .set("correct", true)
            .set("attempted", self.attempted as f64)
            .set("failed", 0.0)
            .set("metrics", metrics)
    }
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    dcp_workloads::percentile(v, p)
}

/// Median of `v`; for an even count, the mean of the middle two.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A traced repetition: its ledger, outcome and wall time.
struct Traced {
    led: Ledger,
    out: Outcome,
    wall: f64,
}

fn traced_rep(cfg: &Config) -> Result<Traced, String> {
    let led = Ledger::default();
    let p = setup(cfg.workload, cfg.seed, cfg.size, Some(&led));
    let (out, wall) = run_traced(p, &led)?;
    Ok(Traced { led, out, wall })
}

/// Checks that two runs of one seed made the same simulation.
fn same_simulation(what: &str, a: &Outcome, b: &Outcome) -> Result<(), String> {
    if a.facts == b.facts {
        Ok(())
    } else {
        Err(format!("{what} differs from the reference run of this seed"))
    }
}

/// Runs the benchmark; `Err` names the first correctness check that failed.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let (mut setups, mut gens) = (Vec::new(), Vec::new());
    let mut timed_setup = || {
        let t = Instant::now();
        let p = setup(cfg.workload, cfg.seed, cfg.size, None);
        setups.push(t.elapsed().as_secs_f64());
        gens.push(p.gen_s);
        p
    };
    // Warm-up: the reference outcome every later repetition must equal.
    let (reference, _) = run_untraced(timed_setup())?;
    for _ in 0..SETUP_SAMPLES {
        drop(timed_setup());
    }

    let (mut walls, mut cell_times) = (Vec::new(), Vec::new());
    let (mut cpu_s, mut run_s) = (0.0, 0.0);
    let until = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while walls.len() < MIN_REPS || Instant::now() < until {
        let p = timed_setup();
        let cpu0 = procfs::cpu_seconds()?;
        let (out, time) = run_untraced(p)?;
        cpu_s += procfs::cpu_seconds()? - cpu0;
        run_s += time.wall;
        walls.push(time.wall);
        cell_times.push(time.cells);
        same_simulation("an untraced repetition", &reference, &out)?;
    }
    let peak_rss_mb = procfs::peak_rss_mib()?;
    let wall_s = median(&walls);

    // Traced repetitions: one for the equality gate, or as many as fit in
    // half of `seconds` when the per-layer metrics are wanted.
    let mut traced = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(cfg.seconds / 2.0);
    loop {
        let r = traced_rep(cfg)?;
        same_simulation("the traced run", &reference, &r.out)?;
        if r.out.inject_late_ns_max != 0 {
            return Err(format!(
                "a flow was injected {} ns after its scheduled start",
                r.out.inject_late_ns_max
            ));
        }
        traced.push(r);
        if !cfg.trace || Instant::now() >= until {
            break;
        }
    }
    // The repetition with the median wall time speaks for the traced run,
    // so its layer times sum to its own wall time.
    traced.sort_by(|a, b| a.wall.total_cmp(&b.wall));
    let rep = &traced[(traced.len() - 1) / 2];
    let out = &rep.out;
    let attempted: u64 = out.facts.iter().map(|f| f.attempted).sum();

    let metrics = if cfg.trace {
        let parallelism = if run_s > 0.0 { cpu_s / run_s } else { 0.0 };
        layer_metrics(rep, median(&cell_times), parallelism, median(&gens))
    } else {
        let mut s = out.slowdowns.concat();
        let jct = median(&out.facts.iter().map(|f| f.jct as f64).collect::<Vec<_>>());
        vec![
            ("wall_s".into(), wall_s, "s"),
            ("setup_s".into(), median(&setups), "s"),
            ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
            ("fct_slowdown_p50".into(), percentile(&mut s, 50.0), "x"),
            ("fct_slowdown_p99".into(), percentile(&mut s, 99.0), "x"),
            ("jct_ms".into(), jct / 1e6, "ms"),
        ]
    };
    let identity = identity(cfg, walls.len());
    Ok(Report { attempted, metrics, identity, walls })
}

/// The per-layer metrics of one traced repetition. `serial_s` is the
/// untraced run's serial-equivalent time (the sum of its cells' times),
/// the base the serial traced run compares against.
fn layer_metrics(rep: &Traced, serial_s: f64, parallelism: f64, gen_s: f64) -> Vec<Metric> {
    let (led, out) = (&rep.led, &rep.out);
    let s = |ns: u64| ns as f64 / 1e9;
    let sum = |name: &str| out.facts.iter().map(|f| f.net(name)).sum::<u64>() as f64;
    let events: u64 = out.facts.iter().map(|f| f.events).sum();
    let installs = led.install.calls();
    let mut m: Vec<Metric> = vec![
        ("netsim.self_s".into(), led.netsim_self_ns() as f64 / 1e9, "s"),
        ("netsim.events".into(), events as f64, "count"),
        ("netsim.events_per_s".into(), events as f64 / serial_s, "1/s"),
        (
            "netsim.peak_pending".into(),
            out.facts.iter().map(|f| f.peak_pending).max().unwrap_or(0) as f64,
            "count",
        ),
        ("netsim.advance_calls".into(), led.advance.calls() as f64, "count"),
        ("netsim.shard.parallelism".into(), parallelism, "ratio"),
        (
            "netsim.shard.sessions".into(),
            led.sessions.load(std::sync::atomic::Ordering::Relaxed) as f64,
            "count",
        ),
        (
            "netsim.install_ns".into(),
            if installs == 0 { 0.0 } else { led.install.ns() as f64 / installs as f64 },
            "ns",
        ),
        ("netsim.qps_installed".into(), installs as f64, "count"),
    ];
    for name in [
        "trims",
        "data_drops",
        "ecn_marks",
        "pauses_sent",
        "fault_drops",
        "ho_forwarded",
        "data_forwarded",
    ] {
        m.push((format!("netsim.switch.{name}"), sum(name), "count"));
    }
    m.push(("netsim.switch.queue_wait_p99_us".into(), out.queue_wait_p99_us, "us"));
    let mut layers_ns = 0u64;
    for (t, k) in TRANSPORTS.iter().enumerate() {
        let (ns, calls) = led.transport(t);
        layers_ns += ns;
        let cells = out.facts.iter().filter(|f| f.transport == t);
        let ep = |name: &str| cells.clone().map(|f| f.endpoint(name)).sum::<u64>() as f64;
        let sent = ep("data_pkts") + ep("retx_pkts");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut sd = out.slowdowns[t].clone();
        m.push((format!("transport.{k}.self_s"), s(ns), "s"));
        m.push((format!("transport.{k}.calls"), calls as f64, "count"));
        m.push((
            format!("transport.{k}.retx_ratio"),
            ratio(ep("retx_pkts"), ep("data_pkts")),
            "ratio",
        ));
        m.push((format!("transport.{k}.timeouts"), ep("timeouts"), "count"));
        m.push((
            format!("transport.{k}.useful_frac"),
            ratio(ep("pkts_received") - ep("duplicates"), sent),
            "ratio",
        ));
        m.push((format!("transport.{k}.fct_slowdown_p99"), percentile(&mut sd, 99.0), "x"));
    }
    let others = led.faults.ns()
        + led.hooks.ns()
        + led.check_probes.ns()
        + led.scope.ns()
        + led.trace_probe.ns();
    let driver_s = rep.wall - led.netsim_self_ns() as f64 / 1e9 - s(layers_ns) - s(others);
    m.extend([
        ("faults.self_s".into(), s(led.faults.ns()), "s"),
        (
            "faults.arrivals".into(),
            led.fault_arrivals.load(std::sync::atomic::Ordering::Relaxed) as f64,
            "count",
        ),
        ("check.hook_s".into(), s(led.hooks.ns()), "s"),
        ("check.hooks".into(), led.hooks.calls() as f64, "count"),
        ("check.probe_s".into(), s(led.check_probes.ns()), "s"),
        ("scope.self_s".into(), s(led.scope.ns()), "s"),
        ("scope.records".into(), led.scope.calls() as f64, "count"),
        ("workloads.gen_s".into(), gen_s, "s"),
        (
            "workloads.flows".into(),
            out.facts.iter().map(|f| f.attempted).sum::<u64>() as f64,
            "count",
        ),
        ("workloads.driver_s".into(), driver_s, "s"),
        ("workloads.inject_late_ns_max".into(), out.inject_late_ns_max as f64, "ns"),
        ("trace.probe_s".into(), s(led.trace_probe.ns()), "s"),
        ("trace.wall_s".into(), rep.wall, "s"),
        ("trace.overhead".into(), rep.wall / serial_s, "ratio"),
    ]);
    m
}

/// Seed, machine and build the numbers belong to.
fn identity(cfg: &Config, reps: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let (shards, workers) = if cfg.workload == Workload::AllreduceClos3 {
        (CLOS3_SHARDS, CLOS3_SHARDS)
    } else {
        (1, 1)
    };
    let env = |k: &str| std::env::var(k).map_or(Json::Null, Json::from);
    Json::obj()
        .set("workload", cfg.workload.name())
        .set("seed", cfg.seed as f64)
        .set("seconds", cfg.seconds)
        .set("trace", cfg.trace)
        .set("timed_reps", reps as f64)
        .set("nproc", nproc as f64)
        .set("git_rev", rev)
        .set("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .set("shards", shards as f64)
        .set("workers", workers as f64)
        .set("cell_threads", RUN_THREADS as f64)
        .set("env_DCP_SHARDS_ignored", env("DCP_SHARDS"))
        .set("env_DCP_THREADS_ignored", env("DCP_THREADS"))
}
