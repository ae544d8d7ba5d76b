//! `hem-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sor|calls|serve-faults|em3d-sharded> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload until `--seconds` have passed (at least
//! [`MIN_REPS`] times), checks every repetition's outputs, prints one
//! line per metric and, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced repetitions, adds the workload's shadow run,
//! and reports the per-layer metrics. Exits 1 if any check failed and
//! 2 on a usage error. See `README.md` for the workloads and metrics.

mod host;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use hem_core::{ExecMode, SchedImpl};

use host::Speed;
use metrics::Metric;
use stats::{median, quartiles, spread, Tally};
use workloads::{Exec, Rep, Size, Workload};

/// Fewest repetitions behind any median.
const MIN_REPS: usize = 3;

/// Set-up-only runs behind `setup_s`. They run back to back after the
/// repetitions: a repetition's own set-up follows the previous one's
/// teardown, and how many repetitions a run fits varies with host speed,
/// so mixing the two would move the median.
const SETUP_SAMPLES: usize = 100;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(val).ok_or_else(bad)?),
            "--seed" => seed = Some(val.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Repeat `one` until `seconds` have passed and at least [`MIN_REPS`]
/// repetitions ran.
fn repeat<T>(seconds: u64, mut one: impl FnMut() -> T) -> Vec<T> {
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || t0.elapsed() < budget {
        out.push(one());
    }
    out
}

/// The shadow run is identical to the measured one in everything the
/// simulation defines: counters, clocks, traffic, makespan, values.
fn same_simulation(a: &Rep, b: &Rep) -> bool {
    a.stats.per_node == b.stats.per_node
        && a.stats.node_time == b.stats.node_time
        && a.stats.net == b.stats.net
        && a.stats.sched.events_dispatched == b.stats.sched.events_dispatched
        && a.makespan == b.makespan
        && a.values == b.values
}

/// The measured repetitions, the metrics derived from them, and the
/// host's calibration loop times (empty for a traced run).
struct Measured {
    metrics: Vec<Metric>,
    tally: Tally,
    reps: Vec<Rep>,
    speed: Vec<f64>,
}

fn measure(cli: &Cli, size: &Size) -> Measured {
    let w = cli.workload;
    let (seed, secs) = (cli.seed, cli.seconds);
    let mut tally = Tally::default();
    if !cli.trace {
        let exec = Exec::measured(w, false);
        let mut speed = Speed::new(exec.threads());
        let reps = repeat(secs, || {
            let (mut r, k) = speed.around(|| workloads::rep(w, size, seed, exec));
            r.scale = k;
            r
        });
        reps.iter().for_each(|r| tally.absorb(r.tally));
        let setups: Vec<f64> = (0..SETUP_SAMPLES)
            .map(|_| {
                let (s, k) = speed.around(|| workloads::setup_only(w, size, seed, exec));
                s * k
            })
            .collect();
        return Measured {
            metrics: metrics::end_to_end(&reps, &setups, host::peak_rss_mb()),
            tally,
            reps,
            speed: speed.samples,
        };
    }
    let pairs = repeat(secs, || {
        let untraced = workloads::rep(w, size, seed, Exec::measured(w, false));
        (
            untraced,
            workloads::rep(w, size, seed, Exec::measured(w, true)),
        )
    });
    let (untraced, mut traced): (Vec<Rep>, Vec<Rep>) = pairs.into_iter().unzip();
    let shadow_exec = match w {
        Workload::Calls => Some(Exec {
            mode: ExecMode::ParallelOnly,
            ..Exec::measured(w, true)
        }),
        Workload::Em3dSharded => Some(Exec {
            sched: SchedImpl::EventIndex,
            ..Exec::measured(w, true)
        }),
        Workload::Sor | Workload::ServeFaults => None,
    };
    let shadow = shadow_exec.map(|e| workloads::rep(w, size, seed, e));
    if let (Workload::Em3dSharded, Some(s)) = (w, &shadow) {
        for r in &mut traced {
            if !same_simulation(r, s) {
                r.tally.add(1, 1);
            }
        }
    }
    for r in untraced.iter().chain(&traced).chain(&shadow) {
        tally.absorb(r.tally);
    }
    Measured {
        metrics: metrics::per_layer(&traced, &untraced, shadow.as_ref()),
        tally,
        reps: traced,
        speed: Vec::new(),
    }
}

fn json(tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.ok(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hem-perfbench: {e}");
            eprintln!(
                "usage: hem-perfbench --workload <sor|calls|serve-faults|em3d-sharded> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Measured {
        metrics,
        tally,
        reps,
        speed,
    } = measure(&cli, &Size::full());

    println!(
        "# {} seed={} trace={} reps={} threads={}",
        cli.workload.name(),
        cli.seed,
        u8::from(cli.trace),
        reps.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    // Host time by span over the repetitions behind the metrics: total
    // and self (total minus child spans), median with quartiles.
    let mut names: Vec<&str> = Vec::new();
    for s in reps[0].spans.spans() {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    for name in names {
        let xs: Vec<f64> = reps.iter().map(|r| r.spans.total(name)).collect();
        let own: Vec<f64> = reps.iter().map(|r| r.spans.self_total(name)).collect();
        let (q1, q3) = quartiles(&xs);
        println!(
            "#   {name:<14} median {:.6} s  q1 {q1:.6}  q3 {q3:.6}  spread {:.3}  self {:.6} s",
            median(&xs),
            spread(&xs),
            median(&own)
        );
    }
    if let Some(s) = &reps[0].serve {
        let wall: Vec<f64> = reps.iter().map(Rep::wall_s).collect();
        println!(
            "#   serve: {} offered, {} completed ({:.1} req/s of median wall), {} pending; \
             steady-state sojourn p50 {} p99 {} cycles over {} completions",
            s.summary.offered,
            s.summary.completed,
            s.summary.completed as f64 / median(&wall),
            s.summary.pending,
            s.p50,
            s.p99,
            s.samples
        );
    }
    if !speed.is_empty() {
        let (q1, q3) = quartiles(&speed);
        println!(
            "#   host speed: calibration loop median {:.6} s  q1 {q1:.6}  q3 {q3:.6} \
             over {} timings; host times below are scaled to {} s",
            median(&speed),
            speed.len(),
            host::REFERENCE_LOOP_S
        );
    }
    println!(
        "#   failed_frac {} ({} of {} operations)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    for m in &metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(tally, &metrics));
    if tally.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_obs::json::Json;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_four_arguments_and_rejects_the_rest() {
        let c = parse(&args("--workload calls --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(c.workload, Workload::Calls);
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10, true));
        assert!(parse(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args("--workload sor --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse(&args("--workload sor --seed 7 --seconds 10")).is_err());
        assert!(parse(&args("--workload sor --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse(&args("--workload sor --seed 7 --seconds 10 --trace")).is_err());
    }

    /// The given keys of every entry of one `BENCHMARK.json` list.
    fn declared(section: &str, keys: &[&str]) -> Vec<Vec<String>> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|e| {
                keys.iter()
                    .map(|k| {
                        e.get(k)
                            .and_then(Json::as_str)
                            .expect("a string")
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    }

    fn emitted(ms: &[Metric]) -> Vec<Vec<String>> {
        ms.iter()
            .map(|m| vec![m.name.to_string(), m.unit.to_string()])
            .collect()
    }

    /// Every workload, run once at test size with and without tracing,
    /// passes its checks and emits exactly the metrics `BENCHMARK.json`
    /// declares, with matching units, as finite numbers; the result line
    /// parses as JSON with the same values.
    #[test]
    fn every_declared_metric_is_emitted_for_every_workload() {
        let ours: Vec<Vec<String>> = Workload::ALL
            .iter()
            .map(|w| vec![w.name().to_string()])
            .collect();
        assert_eq!(declared("workloads", &["name"]), ours, "workload list");
        for w in Workload::ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let cli = Cli {
                    workload: w,
                    seed: 3,
                    seconds: 0,
                    trace,
                };
                let Measured {
                    metrics: ms, tally, ..
                } = measure(&cli, &Size::tiny());
                let label = format!("{}/{section}", w.name());
                assert!(tally.ok(), "{label}: {tally:?}");
                assert!(tally.attempted >= MIN_REPS as u64, "{label}");
                assert_eq!(
                    emitted(&ms),
                    declared(section, &["name", "unit"]),
                    "{label}"
                );
                assert!(ms.iter().all(|m| m.value.is_finite()), "{label}: {ms:?}");
                let line = Json::parse(&json(tally, &ms)).expect("result line parses");
                assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
                let got = line.get("metrics").expect("metrics");
                for m in &ms {
                    let v = got.get(m.name).and_then(|v| v.get("value"));
                    assert_eq!(
                        v.and_then(Json::as_num),
                        Some(m.value),
                        "{label}: {}",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn end_to_end_metrics_are_never_zero() {
        for w in Workload::ALL {
            let cli = Cli {
                workload: w,
                seed: 11,
                seconds: 0,
                trace: false,
            };
            for m in measure(&cli, &Size::tiny()).metrics {
                assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
            }
        }
    }
}
