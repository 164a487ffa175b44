//! The benchmark's own checks, at reduced scale: determinism, that the
//! traced driver and decorators leave the simulation unchanged, and that
//! the reported numbers are complete and add up.

use dcp_perfbench::bench::{run, Config};
use dcp_perfbench::ledger::Ledger;
use dcp_perfbench::workloads::{run_traced, run_untraced, setup, Outcome, Size, Workload};

fn bare(w: Workload, seed: u64) -> Outcome {
    run_untraced(setup(w, seed, Size::Small, None)).expect("bare run passes its checks").0
}

#[test]
fn same_seed_twice_gives_identical_simulation() {
    for w in Workload::ALL {
        let (a, b) = (bare(w, 3), bare(w, 3));
        assert!(a.facts.iter().all(|f| f.events > 0 && f.attempted > 0), "{}", w.name());
        assert_eq!(a.facts, b.facts, "{}", w.name());
    }
}

#[test]
fn seeds_change_the_inputs() {
    for w in Workload::ALL {
        assert_ne!(bare(w, 3).facts, bare(w, 4).facts, "{}", w.name());
    }
}

#[test]
fn every_decorator_installed_equals_none() {
    for w in Workload::ALL {
        let plain = bare(w, 5);
        let led = Ledger::default();
        let (traced, _) =
            run_traced(setup(w, 5, Size::Small, Some(&led)), &led).expect("traced run passes");
        assert_eq!(plain.facts, traced.facts, "{}", w.name());
        assert_eq!(traced.inject_late_ns_max, 0, "{}", w.name());
        // The decorators were really in the path.
        let calls: u64 = (0..7).map(|t| led.transport(t).1).sum();
        assert!(calls > 0 && led.advance.calls() > 0, "{}", w.name());
        if w != Workload::AllreduceClos3 {
            assert!(led.faults.calls() > 0, "{}: fault plane not wrapped", w.name());
        }
        if w == Workload::TenantMixChaos {
            assert!(led.scope.calls() > 0 && led.hooks.calls() > 0 && led.check_probes.calls() > 0);
        }
    }
}

fn metrics(w: Workload, trace: bool) -> Vec<(String, f64, &'static str)> {
    let cfg = Config { workload: w, seed: 7, seconds: 0.0, trace, size: Size::Small };
    let report = run(&cfg).expect("run passes its checks");
    assert!(report.attempted > 0);
    let result = report.result_json();
    assert_eq!(result.get("failed").and_then(|f| f.as_u64()), Some(0));
    report.metrics
}

fn value(m: &[(String, f64, &'static str)], name: &str) -> f64 {
    m.iter().find(|(n, _, _)| n == name).unwrap_or_else(|| panic!("no metric {name}")).1
}

#[test]
fn end_to_end_metrics_are_reported_and_nonzero() {
    for w in Workload::ALL {
        let m = metrics(w, false);
        let names: Vec<&str> = m.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["wall_s", "setup_s", "peak_rss_mb", "fct_slowdown_p50", "fct_slowdown_p99", "jct_ms"]
        );
        for (name, v, _) in &m {
            assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name());
        }
        assert!(value(&m, "fct_slowdown_p99") >= value(&m, "fct_slowdown_p50"));
    }
}

#[test]
fn layer_self_times_sum_to_the_traced_wall_time() {
    for w in Workload::ALL {
        let m = metrics(w, true);
        assert!(m.iter().all(|(_, v, _)| v.is_finite()), "{}", w.name());
        let self_times: f64 = m
            .iter()
            .filter(|(n, _, _)| {
                n.ends_with(".self_s")
                    || ["check.hook_s", "check.probe_s", "trace.probe_s", "workloads.driver_s"]
                        .contains(&n.as_str())
            })
            .map(|(_, v, _)| v)
            .sum();
        let wall = value(&m, "trace.wall_s");
        assert!((self_times - wall).abs() < 1e-6 * wall, "{}: {self_times} vs {wall}", w.name());
        assert_eq!(value(&m, "workloads.inject_late_ns_max"), 0.0);
        assert!(value(&m, "netsim.events") > 0.0 && value(&m, "trace.overhead") > 0.0);
        assert!(value(&m, "transport.dcp.calls") > 0.0);
        let sweep = w == Workload::TransportSweepLossy;
        assert_eq!(value(&m, "transport.gbn.calls") > 0.0, sweep, "{}", w.name());
        let sharded = w == Workload::AllreduceClos3;
        assert_eq!(value(&m, "netsim.shard.sessions") > 0.0, sharded, "{}", w.name());
    }
}
