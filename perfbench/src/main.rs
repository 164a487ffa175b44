//! `dcp-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run's identity and every metric by name and unit, then, as
//! the last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. A run that fails any correctness check prints no result
//! and exits with status 1.

use dcp_perfbench::bench::{run, Config};
use dcp_perfbench::workloads::{Size, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::TenantMixChaos,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Bench,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {}", names.join(", "))
                })?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dcp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            println!("identity {}", report.identity.render());
            println!("timed repetitions wall_s {:?}", report.walls);
            for (name, value, unit) in &report.metrics {
                println!("{name:<40} {value:>16.6} {unit}");
            }
            println!("{}", report.result_json().render());
        }
        Err(e) => {
            eprintln!(
                "dcp-perfbench: {} seed {}: correctness check failed: {e}",
                cfg.workload.name(),
                cfg.seed
            );
            std::process::exit(1);
        }
    }
}
