//! `sched_snapshot` — write a machine-readable scheduler-throughput
//! snapshot (`BENCH_sched_throughput.json`) for CI to archive.
//!
//! The criterion-shim benches in `benches/sched_throughput.rs` guard
//! bit-identity and print human-readable numbers; this binary distills
//! the same runs into one small JSON artifact per commit — per kernel ×
//! machine size × executor: the (deterministic) makespan and dispatched
//! event count, plus the median host wall time over a handful of
//! repetitions — so a perf regression shows up as a diffable number in
//! the CI artifact trail rather than a vibe in a log.
//!
//! ```text
//! sched_snapshot [--out FILE] [--reps N] [--procs P,P,...]
//! ```
//!
//! Defaults: `BENCH_sched_throughput.json` in the working directory, 5
//! repetitions, machine sizes 1,16,64. Host times vary run to run — only
//! the virtual-time columns are comparable across machines.

use std::time::Instant;

use hem_analysis::InterfaceSet;
use hem_apps::{em3d, sor};
use hem_bench::Args;
use hem_core::{ExecMode, Runtime, SchedImpl};
use hem_machine::cost::CostModel;
use hem_machine::topology::ProcGrid;

const SCHEDS: [(&str, SchedImpl); 2] = [
    ("event-index", SchedImpl::EventIndex),
    ("sharded-2", SchedImpl::Sharded { threads: 2 }),
];

/// One SOR run (64x64 grid, 4x4 blocks) on `p` nodes.
fn run_sor(p: u32, sched: SchedImpl) -> Runtime {
    let ids = sor::build();
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    rt.sched_impl = sched;
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(p),
        },
    );
    sor::run(&mut rt, &inst, 1).unwrap();
    rt
}

/// One EM3D run (4 nodes' worth of E/H objects per processor).
fn run_em3d(p: u32, sched: SchedImpl) -> Runtime {
    let ids = em3d::build(4);
    let graph = em3d::generate(4 * p, 4, p, 0.5, 7);
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    rt.sched_impl = sched;
    let inst = em3d::setup(&mut rt, &ids, &graph);
    em3d::run(&mut rt, &inst, em3d::Style::Pull, 1).unwrap();
    rt
}

struct Row {
    kernel: &'static str,
    p: u32,
    sched: &'static str,
    makespan: u64,
    events: u64,
    host_us_median: u128,
}

fn measure(
    kernel: &'static str,
    run: fn(u32, SchedImpl) -> Runtime,
    p: u32,
    label: &'static str,
    sched: SchedImpl,
    reps: usize,
) -> Row {
    let mut times: Vec<u128> = Vec::with_capacity(reps);
    let mut makespan = 0;
    let mut events = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let rt = run(p, sched);
        times.push(t0.elapsed().as_micros());
        makespan = rt.makespan();
        events = rt.stats().sched.events_dispatched;
    }
    times.sort_unstable();
    Row {
        kernel,
        p,
        sched: label,
        makespan,
        events,
        host_us_median: times[times.len() / 2],
    }
}

fn main() {
    let args = Args::capture();
    let out = args
        .get::<String>("--out")
        .unwrap_or_else(|| "BENCH_sched_throughput.json".into());
    let reps: usize = args.get("--reps").unwrap_or(5).max(1);
    let procs: Vec<u32> = match args.get::<String>("--procs") {
        Some(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("--procs takes a,b,c"))
            .collect(),
        None => vec![1, 16, 64],
    };

    let mut rows: Vec<Row> = Vec::new();
    for &(kernel, run) in &[
        ("sor64", run_sor as fn(u32, SchedImpl) -> Runtime),
        ("em3d_4xP", run_em3d),
    ] {
        for &p in &procs {
            for (label, sched) in SCHEDS {
                // The parallel executors only engage above one node.
                if p == 1 && sched != SchedImpl::EventIndex {
                    continue;
                }
                let row = measure(kernel, run, p, label, sched, reps);
                eprintln!(
                    "{:<10} P{:<4} {:<14} makespan {:>10}  events {:>9}  host median {:>8} us",
                    row.kernel, row.p, row.sched, row.makespan, row.events, row.host_us_median
                );
                rows.push(row);
            }
        }
    }

    // Sanity: the virtual-time columns are executor-invariant — refuse to
    // write a snapshot that disagrees with itself.
    for w in rows.chunk_by(|a, b| a.kernel == b.kernel && a.p == b.p) {
        for r in &w[1..] {
            assert_eq!(
                (r.makespan, r.events),
                (w[0].makespan, w[0].events),
                "{}/P{}: {} and {} disagree on the simulated run",
                r.kernel,
                r.p,
                r.sched,
                w[0].sched
            );
        }
    }

    let mut o = String::from("{\"reps\":");
    o.push_str(&reps.to_string());
    o.push_str(",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"kernel\":\"{}\",\"p\":{},\"sched\":\"{}\",\"makespan\":{},\
             \"events_dispatched\":{},\"host_us_median\":{}}}",
            r.kernel, r.p, r.sched, r.makespan, r.events, r.host_us_median
        ));
    }
    o.push_str("]}");
    std::fs::write(&out, &o).unwrap_or_else(|e| {
        eprintln!("sched_snapshot: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("sched_snapshot: wrote {out} ({} rows)", rows.len());
}
