//! Shared harness for the executor bit-identity suites
//! (`parallel_determinism`, `timewarp_determinism`): run an app kernel on
//! a chosen machine and dispatch loop with tracing and an online rollup
//! observer, then diff everything observable against a baseline run.

#![allow(dead_code)] // each integration test uses a subset

use hem::analysis::InterfaceSet;
use hem::apps::{em3d, md, sor, sync};
use hem::core::trace::TraceRecord;
use hem::core::{ExecMode, Runtime, SchedImpl};
use hem::machine::cost::CostModel;
use hem::machine::fault::FaultPlan;
use hem::machine::stats::MachineStats;
use hem::machine::topology::ProcGrid;
use hem::obs::{Report, Rollup};

/// Everything observable about one run, including the rendered rollup
/// report fed by an *online* observer (not the trace buffer).
pub struct Outcome {
    pub makespan: u64,
    pub stats: MachineStats,
    pub trace: Vec<TraceRecord>,
    pub report: String,
}

/// The machine a kernel runs on.
#[derive(Debug, Clone, Copy)]
pub enum Machine {
    /// 16 nodes, the kernel's native cost model.
    Native,
    /// 16 nodes, `CostModel::unit()`: zero wire latency, so no lookahead.
    ZeroLookahead,
    /// One node: nothing to shard.
    SingleNode,
}

pub const MACHINES: [Machine; 3] = [Machine::Native, Machine::ZeroLookahead, Machine::SingleNode];

/// Run `kernel` on `machine` with tracing and a rollup observer on;
/// `seed` drives graph/layout generation (MD, EM3D) and the fault plan.
pub fn run_kernel(
    kernel: &str,
    seed: u64,
    sched: SchedImpl,
    plan: Option<&FaultPlan>,
    machine: Machine,
) -> Outcome {
    let p = match machine {
        Machine::SingleNode => 1,
        _ => 16,
    };
    let cost = |native: CostModel| match machine {
        Machine::ZeroLookahead => CostModel::unit(),
        _ => native,
    };
    let arm = |rt: &mut Runtime| {
        rt.sched_impl = sched;
        rt.enable_trace();
        rt.attach_observer(Box::new(Rollup::new()));
        if let Some(p) = plan {
            rt.set_fault_plan(p.clone());
        }
    };
    let mut rt = match kernel {
        "sor" => {
            let ids = sor::build();
            let mut rt = Runtime::new(
                ids.program.clone(),
                p,
                cost(CostModel::cm5()),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt);
            let inst = sor::setup(
                &mut rt,
                &ids,
                sor::SorParams {
                    n: 20,
                    block: 2,
                    procs: ProcGrid::square(p),
                },
            );
            sor::run(&mut rt, &inst, 2).unwrap();
            rt
        }
        "em3d" => {
            let ids = em3d::build(4);
            let g = em3d::generate(40, 4, p, 0.4, seed);
            let mut rt = Runtime::new(
                ids.program.clone(),
                p,
                cost(CostModel::t3d()),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt);
            let inst = em3d::setup(&mut rt, &ids, &g);
            em3d::run(&mut rt, &inst, em3d::Style::Pull, 2).unwrap();
            rt
        }
        "md" => {
            let ids = md::build();
            let sys = md::generate(120, 1.2, p, md::Layout::Spatial, seed);
            let mut rt = Runtime::new(
                ids.program.clone(),
                p,
                cost(CostModel::cm5()),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt);
            let inst = md::setup(&mut rt, &ids, &sys);
            md::run_iteration(&mut rt, &inst).unwrap();
            rt
        }
        "sync" => {
            let ids = sync::build();
            let mut rt = Runtime::new(
                ids.program.clone(),
                p,
                cost(CostModel::cm5()),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt);
            let inst = sync::setup(&mut rt, &ids, 16);
            let driver = |i: usize| inst.drivers[i % inst.drivers.len()];
            rt.call(driver(0), ids.fan, &[]).unwrap();
            rt.call(driver(0), ids.scatter, &[]).unwrap();
            rt.call(driver(1), ids.sum_all, &[]).unwrap();
            rt.call(driver(2), ids.quiesce, &[]).unwrap();
            sync::run_rendezvous(&mut rt, &inst).unwrap();
            rt
        }
        other => panic!("unknown kernel {other}"),
    };
    let stats = rt.stats();
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("rollup attached");
    let rollup = any.downcast::<Rollup>().expect("a Rollup");
    let report = Report::new(kernel, &rollup, &stats, rt.program(), rt.schemas()).text();
    Outcome {
        makespan: rt.makespan(),
        stats,
        trace: rt.take_trace(),
        report,
    }
}

pub const KERNELS: [&str; 4] = ["sor", "em3d", "md", "sync"];

/// Thread counts the matrix diffs against the single-threaded baseline.
pub const THREADS: [usize; 2] = [2, 4];

/// Seeds: `HYBRID_TEST_SEED` (one seed) when set, else a pinned trio,
/// matching the fault-matrix harness.
pub fn seeds() -> Vec<u64> {
    match std::env::var("HYBRID_TEST_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("HYBRID_TEST_SEED must be an unsigned integer")],
        Err(_) => vec![1, 0xDEAD_BEEF, 3_141_592_653],
    }
}

/// Assert `other` reproduces `base` bit for bit: makespan, per-node clocks
/// and counters, net/fault stats, the full trace, events dispatched, and
/// the rollup report text.
pub fn assert_bit_identical(label: &str, base: &Outcome, other: &Outcome) {
    assert_eq!(base.makespan, other.makespan, "{label}: makespan");
    assert_eq!(
        base.stats.node_time, other.stats.node_time,
        "{label}: per-node clocks"
    );
    assert_eq!(
        base.stats.per_node, other.stats.per_node,
        "{label}: per-node counters"
    );
    assert_eq!(base.stats.net, other.stats.net, "{label}: net/fault stats");
    if let Some(i) =
        (0..base.trace.len().min(other.trace.len())).find(|&i| base.trace[i] != other.trace[i])
    {
        panic!(
            "{label}: traces diverge at record {i}:\n  baseline: {:?}\n  compared: {:?}",
            base.trace[i], other.trace[i]
        );
    }
    assert_eq!(base.trace.len(), other.trace.len(), "{label}: trace length");
    assert_eq!(
        base.stats.sched.events_dispatched, other.stats.sched.events_dispatched,
        "{label}: events dispatched"
    );
    assert_eq!(base.report, other.report, "{label}: rollup report text");
}
