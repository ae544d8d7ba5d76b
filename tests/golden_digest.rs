//! Golden virtual-time digests.
//!
//! Every other suite compares two runs of the *same* interpreter (one
//! executor against another, one mode against another), so a change that
//! shifts a charge, a counter or a trace record the same way on both
//! sides passes all of them. This suite pins the observables of fixed
//! runs to recorded values instead: an FNV-1a digest over the call
//! results, makespan, per-node clocks, per-node counters, network and
//! fault stats, and the full trace, plus the makespan and trace length in
//! the clear so a failure says at a glance what moved.
//!
//! The cases are the Table-3 call suite on one node (hybrid under each
//! interface set, and parallel-only) and the four app kernels at one
//! pinned generation seed on the event index, in both modes.
//!
//! A deliberate change to the cost model, the counters or the trace
//! vocabulary changes these values. The failure message lists every case
//! with its new value, ready to paste into `GOLDEN` after review.

mod common;

use common::{run_kernel, Cfg, Outcome, KERNELS};
use hem::analysis::InterfaceSet;
use hem::apps::callintensive;
use hem::core::{ExecMode, Runtime};
use hem::ir::Value;
use hem::machine::cost::CostModel;
use hem::NodeId;
use std::fmt::Write as _;

/// Generation seed of the EM3D graph and the MD layout.
const SEED: u64 = 20_260_806;

/// `(case, makespan, trace records, digest)`.
const GOLDEN: &[(&str, u64, usize, u64)] = &[
    ("calls/hybrid/full", 195099, 6709, 0x4be1eb8ff518b282),
    ("calls/hybrid/mbcp", 212203, 6709, 0xdb523353c2573b58),
    ("calls/hybrid/cp", 218912, 6709, 0x892a00a42b8bce29),
    ("calls/parallel-only", 996509, 33832, 0xa948b4dcc0c19ea9),
    ("sor/hybrid", 42238, 17392, 0x07c1b64091229e7a),
    ("sor/parallel-only", 59542, 24384, 0x6ee5ba2a90ce6666),
    ("em3d/hybrid", 33798, 5280, 0x9b43c48fda282d9c),
    ("em3d/parallel-only", 40112, 6416, 0x142694fc4241f00f),
    ("md/hybrid", 83017, 21759, 0x5a9c7b308beabd4a),
    ("md/parallel-only", 115574, 24896, 0xa54adbf7b00cab08),
    ("sync/hybrid", 6725, 795, 0x536d6679bc53a698),
    ("sync/parallel-only", 8896, 980, 0xfa68a068ccf5afd6),
];

/// FNV-1a over the `Debug` rendering of whatever is written into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of one run's observables. The scheduler's heap diagnostics
/// (`SchedStats`) are executor details and stay out.
fn digest(o: &Outcome) -> u64 {
    let mut h = Fnv::new();
    write!(
        h,
        "{:?}|{}|{:?}|{:?}|{:?}",
        o.results, o.makespan, o.stats.node_time, o.stats.per_node, o.stats.net
    )
    .unwrap();
    for r in &o.trace {
        write!(h, "|{r:?}").unwrap();
    }
    h.0
}

/// The Table-3 suite at small sizes, one root call per benchmark, on a
/// single traced node.
fn run_calls(mode: ExecMode, ifaces: InterfaceSet) -> Outcome {
    let suite = callintensive::build();
    let mut rt = Runtime::new(suite.program.clone(), 1, CostModel::cm5(), mode, ifaces).unwrap();
    rt.enable_trace();
    let math = rt.alloc_object_by_name("Math", NodeId(0));
    let int = Value::Int;
    let calls = [
        (suite.fib, vec![int(15)]),
        (suite.tak, vec![int(12), int(8), int(4)]),
        (suite.nqueens, vec![int(6)]),
        (suite.qsort_run, vec![int(200), int(7)]),
        (suite.nrev_run, vec![int(30)]),
        (suite.ack, vec![int(2), int(3)]),
    ];
    let results = calls
        .iter()
        .map(|(m, args)| rt.call(math, *m, args).unwrap())
        .collect();
    assert_eq!(rt.live_contexts(), 0, "calls/{mode}: context leak");
    Outcome::capture(&mut rt, "calls", results)
}

fn cases() -> Vec<(String, Outcome)> {
    let mut out = Vec::new();
    for (tag, ifaces) in [
        ("full", InterfaceSet::Full),
        ("mbcp", InterfaceSet::MbCp),
        ("cp", InterfaceSet::CpOnly),
    ] {
        out.push((
            format!("calls/hybrid/{tag}"),
            run_calls(ExecMode::Hybrid, ifaces),
        ));
    }
    out.push((
        "calls/parallel-only".to_string(),
        run_calls(ExecMode::ParallelOnly, InterfaceSet::Full),
    ));
    for kernel in KERNELS {
        for (tag, mode) in [
            ("hybrid", ExecMode::Hybrid),
            ("parallel-only", ExecMode::ParallelOnly),
        ] {
            let cfg = Cfg {
                mode,
                gen_seed: Some(SEED),
                ..Cfg::default()
            };
            out.push((format!("{kernel}/{tag}"), run_kernel(kernel, &cfg)));
        }
    }
    out
}

#[test]
fn virtual_time_observables_match_the_recorded_digests() {
    let got: Vec<(String, u64, usize, u64)> = cases()
        .into_iter()
        .map(|(name, o)| {
            let d = digest(&o);
            (name, o.makespan, o.trace.len(), d)
        })
        .collect();
    let want: Vec<(String, u64, usize, u64)> = GOLDEN
        .iter()
        .map(|&(n, m, t, d)| (n.to_string(), m, t, d))
        .collect();
    if got != want {
        let mut table = String::new();
        for (n, m, t, d) in &got {
            writeln!(table, "    (\"{n}\", {m}, {t}, 0x{d:016x}),").unwrap();
        }
        panic!("golden digests differ; this run's values:\n{table}");
    }
}

/// The digest is a function of the run, not of the process: two
/// identical runs agree.
#[test]
fn digest_is_reproducible() {
    let a = run_calls(ExecMode::Hybrid, InterfaceSet::Full);
    let b = run_calls(ExecMode::Hybrid, InterfaceSet::Full);
    assert_eq!(digest(&a), digest(&b));
    assert!(!a.trace.is_empty(), "the call suite must be traced");
}
