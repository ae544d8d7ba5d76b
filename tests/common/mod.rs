//! Shared harness for the integration suites.
//!
//! Every executor-crossing suite takes its executor axis ([`EXECUTORS`]),
//! its seeds ([`seeds`]), its run set-up ([`Cfg::arm`]), and its outcome
//! comparison ([`Outcome`], [`assert_bit_identical`]) from here, plus the
//! P=16 app-kernel instances they share ([`run_kernel`]). The
//! schedule-exploration half holds micro kernels built for specific
//! protocol invariants and reduced-size app-kernel runners with the
//! sanitizer armed.

#![allow(dead_code)] // each integration test uses a subset

use hem::analysis::InterfaceSet;
use hem::apps::{em3d, md, sor, sync};
use hem::core::trace::TraceRecord;
use hem::core::{ExecMode, NodeObjectState, Runtime, SchedImpl, TieBreak, TieChoice};
use hem::ir::{BinOp, LocalityHint, MethodId, Program, ProgramBuilder, Value};
use hem::machine::cost::CostModel;
use hem::machine::fault::FaultPlan;
use hem::machine::stats::MachineStats;
use hem::machine::topology::ProcGrid;
use hem::obs::{Report, Rollup};
use hem::NodeId;

/// The four application kernels.
pub const KERNELS: [&str; 4] = ["sor", "em3d", "md", "sync"];

/// Seeds: `HYBRID_TEST_SEED` (one seed) when set — the seeded CI job
/// pins three — else a built-in trio.
pub fn seeds() -> Vec<u64> {
    seeds_or(&[1, 0xDEAD_BEEF, 3_141_592_653])
}

/// [`seeds`] with a suite-specific built-in set.
pub fn seeds_or(default: &[u64]) -> Vec<u64> {
    match std::env::var("HYBRID_TEST_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("HYBRID_TEST_SEED must be an unsigned integer")],
        Err(_) => default.to_vec(),
    }
}

/// SplitMix64 step (the same generator the proptest shim and the seeded
/// tie-break policy use), for deriving per-sample seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ================= executor axis =================

/// One point on the executor axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The scan reference: the exploring loop under
    /// `TieBreak::Replay(vec![])`, which re-scans every node per event
    /// and dispatches the canonical `(time, kind, node)` minimum — the
    /// executable specification of the dispatch order.
    Scan,
    /// A production executor.
    Sched(SchedImpl),
}

/// The single-threaded event index, the baseline every other executor
/// is diffed against.
pub const EVENT_INDEX: Exec = Exec::Sched(SchedImpl::EventIndex);

/// Thread counts of the sharded points on the axis.
pub const THREADS: [usize; 2] = [2, 4];

/// The executor axis: the event-index baseline first, then the scan
/// reference and the sharded executor at each of [`THREADS`].
pub const EXECUTORS: [Exec; 4] = [
    EVENT_INDEX,
    Exec::Scan,
    Exec::Sched(SchedImpl::Sharded { threads: 2 }),
    Exec::Sched(SchedImpl::Sharded { threads: 4 }),
];

impl Exec {
    /// The sharded executor at `threads`.
    pub fn sharded(threads: usize) -> Exec {
        Exec::Sched(SchedImpl::Sharded { threads })
    }
}

impl std::fmt::Display for Exec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exec::Scan => write!(f, "scan"),
            Exec::Sched(SchedImpl::EventIndex) => write!(f, "event-index"),
            Exec::Sched(SchedImpl::Sharded { threads }) => write!(f, "sharded-{threads}"),
            Exec::Sched(SchedImpl::Speculative { threads }) => {
                write!(f, "speculative-{threads}")
            }
        }
    }
}

// ================= run set-up =================

/// The machine an app kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// 16 nodes, the kernel's native cost model.
    Native,
    /// 16 nodes, `CostModel::unit()`: zero wire latency, so no lookahead.
    ZeroLookahead,
    /// One node: nothing to shard.
    SingleNode,
}

pub const MACHINES: [Machine; 3] = [Machine::Native, Machine::ZeroLookahead, Machine::SingleNode];

/// How one run is configured. Tracing is always on.
#[derive(Debug, Clone, Copy)]
pub struct Cfg<'a> {
    pub exec: Exec,
    pub mode: ExecMode,
    pub machine: Machine,
    /// EM3D graph / MD layout generation seed; `None` pins the instance
    /// (EM3D seed 3, MD seed 5).
    pub gen_seed: Option<u64>,
    /// Fault plan to install (engages the reliable transport).
    pub plan: Option<&'a FaultPlan>,
    /// Engage the reliable transport even without a plan.
    pub transport: bool,
    /// Attach an online `Rollup` observer; [`Outcome::report`] holds its
    /// rendered text.
    pub rollup: bool,
    /// Smaller SOR and EM3D instances run for one iteration.
    pub small: bool,
}

impl Default for Cfg<'_> {
    fn default() -> Self {
        Cfg {
            exec: EVENT_INDEX,
            mode: ExecMode::Hybrid,
            machine: Machine::Native,
            gen_seed: None,
            plan: None,
            transport: false,
            rollup: false,
            small: false,
        }
    }
}

impl Cfg<'_> {
    /// Apply the configuration to a fresh runtime: executor, tracing,
    /// observer, fault plan / transport.
    pub fn arm(&self, rt: &mut Runtime) {
        match self.exec {
            Exec::Scan => rt.set_tie_break(TieBreak::Replay(Vec::new())),
            Exec::Sched(s) => rt.sched_impl = s,
        }
        rt.enable_trace();
        if self.rollup {
            rt.attach_observer(Box::new(Rollup::new()));
        }
        match self.plan {
            Some(p) => rt.set_fault_plan(p.clone()),
            None if self.transport => rt.enable_reliable_transport(),
            None => {}
        }
    }
}

// ================= outcome =================

/// Everything observable about one run.
pub struct Outcome {
    /// Root-call replies in call order (empty where a kernel driver makes
    /// the calls itself).
    pub results: Vec<Option<Value>>,
    /// Final per-node object state.
    pub objects: Vec<NodeObjectState>,
    /// The tie-break decisions the run took (replay vector).
    pub tie_choices: Vec<u32>,
    /// The full decision log (choice + arity), for the explorer's DFS.
    pub tie_log: Vec<TieChoice>,
    /// Sanitizer violations (empty on a clean run).
    pub violations: Vec<String>,
    /// Final virtual time.
    pub makespan: u64,
    /// Machine counters.
    pub stats: MachineStats,
    /// The buffered trace (empty when tracing was off).
    pub trace: Vec<TraceRecord>,
    /// Rendered report of an attached online `Rollup` (empty without
    /// one).
    pub report: String,
}

impl Outcome {
    /// Capture a finished run. An attached `Rollup` observer is detached
    /// and rendered under `title`; the sanitizer, if armed, runs its
    /// end-of-program check first.
    pub fn capture(rt: &mut Runtime, title: &str, results: Vec<Option<Value>>) -> Outcome {
        rt.sanitizer_check_quiescent();
        let stats = rt.stats();
        let report = rt.take_observer().map_or_else(String::new, |obs| {
            let any: Box<dyn std::any::Any> = obs;
            let rollup = any.downcast::<Rollup>().expect("a Rollup observer");
            Report::new(title, &rollup, &stats, rt.program(), rt.schemas()).text()
        });
        Outcome {
            results,
            objects: rt.object_state(),
            tie_choices: rt.tie_choices(),
            tie_log: rt.tie_log().to_vec(),
            violations: rt.take_sanitizer_violations(),
            makespan: rt.makespan(),
            stats,
            trace: rt.take_trace(),
            report,
        }
    }

    /// The last root-call reply.
    pub fn result(&self) -> Option<Value> {
        self.results.last().cloned().flatten()
    }
}

/// Assert `other` reproduces `base` bit for bit: call results, makespan,
/// per-node clocks and counters, net/fault stats, the full trace (first
/// divergence reported), events dispatched, the rollup report text, and
/// the final object state. The heap diagnostics (`heap_pushes`,
/// `stale_pops`, `max_heap_depth`) are implementation details of each
/// executor and are not compared.
pub fn assert_bit_identical(label: &str, base: &Outcome, other: &Outcome) {
    assert_eq!(base.results, other.results, "{label}: call results");
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
            "{label}: traces diverge at record {i}:\n  base:  {:?}\n  other: {:?}",
            base.trace[i], other.trace[i]
        );
    }
    assert_eq!(base.trace.len(), other.trace.len(), "{label}: trace length");
    assert_eq!(
        base.stats.sched.events_dispatched, other.stats.sched.events_dispatched,
        "{label}: events dispatched"
    );
    assert_eq!(base.report, other.report, "{label}: rollup report text");
    assert_eq!(base.objects, other.objects, "{label}: object state");
}

// ================= app kernels at P=16 =================

/// Run an app kernel on `cfg.machine` (16 nodes, or one) to quiescence
/// and capture it. The sync kernel makes the full structure mix of root
/// calls — acked multicast (fan), fire-and-forget multicast (scatter),
/// modeled reduce and barrier, then the continuation-stored rendezvous —
/// so every collective leg kind meets every fault fate.
pub fn run_kernel(kernel: &str, cfg: &Cfg) -> Outcome {
    let p = match cfg.machine {
        Machine::SingleNode => 1,
        _ => 16,
    };
    let cost = |native: CostModel| match cfg.machine {
        Machine::ZeroLookahead => CostModel::unit(),
        _ => native,
    };
    let new_rt = |program: &Program, native: CostModel| {
        let mut rt = Runtime::new(
            program.clone(),
            p,
            cost(native),
            cfg.mode,
            InterfaceSet::Full,
        )
        .unwrap();
        cfg.arm(&mut rt);
        rt
    };
    let (sor_n, em3d_n, iters) = if cfg.small { (12, 30, 1) } else { (20, 40, 2) };
    let mut results = Vec::new();
    let mut rt = match kernel {
        "sor" => {
            let ids = sor::build();
            let mut rt = new_rt(&ids.program, CostModel::cm5());
            let params = sor::SorParams {
                n: sor_n,
                block: 2,
                procs: ProcGrid::square(p),
            };
            let inst = sor::setup(&mut rt, &ids, params);
            sor::run(&mut rt, &inst, iters).unwrap();
            rt
        }
        "em3d" => {
            let ids = em3d::build(4);
            let g = em3d::generate(em3d_n, 4, p, 0.4, cfg.gen_seed.unwrap_or(3));
            let mut rt = new_rt(&ids.program, CostModel::t3d());
            let inst = em3d::setup(&mut rt, &ids, &g);
            em3d::run(&mut rt, &inst, em3d::Style::Pull, iters).unwrap();
            rt
        }
        "md" => {
            let ids = md::build();
            let layout = md::Layout::Spatial;
            let sys = md::generate(120, 1.2, p, layout, cfg.gen_seed.unwrap_or(5));
            let mut rt = new_rt(&ids.program, CostModel::cm5());
            let inst = md::setup(&mut rt, &ids, &sys);
            md::run_iteration(&mut rt, &inst).unwrap();
            rt
        }
        "sync" => {
            let ids = sync::build();
            let mut rt = new_rt(&ids.program, CostModel::cm5());
            let inst = sync::setup(&mut rt, &ids, 16);
            let driver = |i: usize| inst.drivers[i % inst.drivers.len()];
            for (d, m) in [
                (0, ids.fan),
                (0, ids.scatter),
                (1, ids.sum_all),
                (2, ids.quiesce),
            ] {
                results.push(rt.call(driver(d), m, &[]).unwrap());
            }
            sync::run_rendezvous(&mut rt, &inst).unwrap();
            rt
        }
        other => panic!("unknown kernel {other}"),
    };
    let label = format!("{kernel}/{}/{}", cfg.exec, cfg.mode);
    assert!(rt.is_quiescent(), "{label}: not quiescent after run");
    assert_eq!(rt.live_contexts(), 0, "{label}: context leak");
    Outcome::capture(&mut rt, kernel, results)
}

/// [`run_kernel`] on `machine` with an online rollup attached; `seed`
/// drives graph/layout generation (MD, EM3D).
pub fn run_rollup(
    kernel: &str,
    seed: u64,
    exec: Exec,
    plan: Option<&FaultPlan>,
    machine: Machine,
) -> Outcome {
    let cfg = Cfg {
        exec,
        machine,
        gen_seed: Some(seed),
        plan,
        rollup: true,
        ..Cfg::default()
    };
    run_kernel(kernel, &cfg)
}

// ================= state comparison =================

/// How to replay a failing schedule, for panic messages.
pub fn replay_help(kernel: &str, choices: &[u32]) -> String {
    format!(
        "kernel {kernel}: failing tie-break sequence {choices:?} — replay with \
         rt.set_tie_break(TieBreak::Replay(vec!{choices:?}))"
    )
}

/// Value equality up to floating-point accumulation order: different
/// schedules and modes re-associate float sums, so floats compare within
/// a tolerance; everything else exactly.
pub fn value_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            (x - y).abs() <= 1e-6_f64.max(1e-9 * x.abs().max(y.abs()))
        }
        _ => a == b,
    }
}

type ObjectState = [Vec<(u32, Vec<Value>, Vec<Vec<Value>>)>];

/// Structural object-state equality with [`value_close`] on the payload.
pub fn assert_state_close(label: &str, a: &ObjectState, b: &ObjectState) {
    assert_eq!(a.len(), b.len(), "{label}: node count");
    for (ni, (na, nb)) in a.iter().zip(b).enumerate() {
        assert_eq!(na.len(), nb.len(), "{label}: node {ni} object count");
        for (oi, (oa, ob)) in na.iter().zip(nb).enumerate() {
            assert_eq!(oa.0, ob.0, "{label}: node {ni} obj {oi} class");
            let scal =
                oa.1.len() == ob.1.len() && oa.1.iter().zip(&ob.1).all(|(x, y)| value_close(x, y));
            let arr = oa.2.len() == ob.2.len()
                && oa.2.iter().zip(&ob.2).all(|(xs, ys)| {
                    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| value_close(x, y))
                });
            assert!(
                scal && arr,
                "{label}: node {ni} obj {oi} state differs:\n  a: {oa:?}\n  b: {ob:?}"
            );
        }
    }
}

/// A conformant run recorded no sanitizer violations; the panic message
/// carries the schedule's replay vector.
pub fn assert_clean(label: &str, o: &Outcome) {
    assert!(
        o.violations.is_empty(),
        "{label}: sanitizer violations {:?}\n{}",
        o.violations,
        replay_help(label, &o.tie_choices)
    );
}

// ================= micro kernels =================

/// Peer allocation + root-argument production for a micro kernel.
pub type MakeArgs = Box<dyn Fn(&mut Runtime) -> Vec<Value>>;

/// A self-contained micro program exercising one slice of the protocol.
pub struct MicroKernel {
    /// Name, for labels.
    pub name: &'static str,
    /// The program.
    pub program: Program,
    /// Root entry method (on an object of `entry_class`, node 0).
    pub entry: MethodId,
    /// Class the root object is allocated from.
    pub entry_class: &'static str,
    /// Node count.
    pub nodes: u32,
    /// Lowered `max_seq_depth`, when the kernel targets the §4.1 guard.
    pub max_seq_depth: Option<u32>,
    /// Allocate peers and produce the root-call arguments.
    pub make_args: MakeArgs,
}

/// Future fan-out: two remote `bump`s touched together. Exercises the
/// multi-future touch (a wake is sound only when *every* touched slot is
/// satisfied) and the one-reply-per-call root invariant.
pub fn micro_fan2() -> MicroKernel {
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("Micro", false);
    let value = pb.field(cls, "value");
    let bump = pb.method(cls, "bump", 1, |mb| {
        let x = mb.arg(0);
        let v = mb.get_field(value);
        let nv = mb.binl(BinOp::Add, v, x);
        mb.set_field(value, nv);
        mb.reply(nv);
    });
    let entry = pb.method(cls, "fan", 2, |mb| {
        let s1 = mb.invoke_into(mb.arg(0), bump, &[Value::Int(10).into()]);
        let s2 = mb.invoke_into(mb.arg(1), bump, &[Value::Int(20).into()]);
        mb.touch(&[s1, s2]);
        let a = mb.get_slot(s1);
        let b = mb.get_slot(s2);
        let r = mb.binl(BinOp::Add, a, b);
        mb.reply(r);
    });
    MicroKernel {
        name: "fan2",
        program: pb.finish(),
        entry,
        entry_class: "Micro",
        nodes: 4,
        max_seq_depth: None,
        make_args: Box::new(move |rt| {
            let p1 = rt.alloc_object_by_name("Micro", NodeId(1));
            let p2 = rt.alloc_object_by_name("Micro", NodeId(2));
            rt.set_field(p1, value, Value::Int(0));
            rt.set_field(p2, value, Value::Int(0));
            vec![Value::Obj(p1), Value::Obj(p2)]
        }),
    }
}

/// Join fan-out: two remote `bump`s replying into one join counter.
/// Exercises join-decrement delivery through the remote reply path.
pub fn micro_jfan() -> MicroKernel {
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("Micro", false);
    let value = pb.field(cls, "value");
    let bump = pb.method(cls, "bump", 1, |mb| {
        let x = mb.arg(0);
        let v = mb.get_field(value);
        let nv = mb.binl(BinOp::Add, v, x);
        mb.set_field(value, nv);
        mb.reply(nv);
    });
    let entry = pb.method(cls, "jfan", 2, |mb| {
        let j = mb.slot();
        mb.join_init(j, 2i64);
        mb.invoke(
            Some(j),
            mb.arg(0),
            bump,
            &[Value::Int(5).into()],
            LocalityHint::Unknown,
        );
        mb.invoke(
            Some(j),
            mb.arg(1),
            bump,
            &[Value::Int(7).into()],
            LocalityHint::Unknown,
        );
        mb.touch(&[j]);
        mb.reply(1i64);
    });
    MicroKernel {
        name: "jfan",
        program: pb.finish(),
        entry,
        entry_class: "Micro",
        nodes: 4,
        max_seq_depth: None,
        make_args: Box::new(move |rt| {
            let p1 = rt.alloc_object_by_name("Micro", NodeId(1));
            let p2 = rt.alloc_object_by_name("Micro", NodeId(2));
            rt.set_field(p1, value, Value::Int(0));
            rt.set_field(p2, value, Value::Int(0));
            vec![Value::Obj(p1), Value::Obj(p2)]
        }),
    }
}

/// Continuation-passing callee whose caller's return slot is *not* slot
/// 0: `park` stores its continuation in a field and halts; a separate
/// `release` (joined at slot 0, forcing the CP future to slot 1) sends
/// through it later. Exercises lazy shell creation (§3.2.3) at a nonzero
/// continuation-slot offset, adoption, and first-class sends.
pub fn micro_cpfan() -> MicroKernel {
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("Micro", false);
    let parked = pb.field(cls, "parked");
    let value = pb.field(cls, "value");
    let park = pb.method(cls, "park", 1, |mb| {
        mb.set_field(value, mb.arg(0));
        mb.store_cont(parked);
        mb.halt();
    });
    let release = pb.method(cls, "release", 0, |mb| {
        let k = mb.get_field(parked);
        let v = mb.get_field(value);
        let nv = mb.binl(BinOp::Mul, v, 3);
        mb.send_to_cont(k, nv);
        mb.set_field(parked, Value::Nil);
        mb.reply_nil();
    });
    let entry = pb.method(cls, "cpfan", 1, |mb| {
        // Slot 0 is a join the CP call does not use, so the CP callee's
        // continuation lands at slot offset 1 — the shell invariant must
        // hold away from offset 0.
        let j = mb.slot();
        mb.join_init(j, 1i64);
        let s = mb.invoke_into(mb.arg(0), park, &[Value::Int(4).into()]);
        mb.invoke(Some(j), mb.arg(0), release, &[], LocalityHint::Unknown);
        let v = mb.touch_get(s);
        mb.touch(&[j]);
        mb.reply(v);
    });
    MicroKernel {
        name: "cpfan",
        program: pb.finish(),
        entry,
        entry_class: "Micro",
        nodes: 2,
        max_seq_depth: None,
        make_args: Box::new(move |rt| {
            // The peer must be on the caller's node: only a *local*
            // sequential invoke of a CP callee takes the lazy-shell path.
            let p = rt.alloc_object_by_name("Micro", NodeId(0));
            rt.set_field(p, parked, Value::Nil);
            rt.set_field(p, value, Value::Int(0));
            vec![Value::Obj(p)]
        }),
    }
}

/// Deep all-local MayBlock recursion, run with `max_seq_depth` lowered to
/// 16: the §4.1 revert-to-parallel guard must divert the chain through
/// heap contexts instead of recursing on the host stack.
pub fn micro_deep_chain() -> MicroKernel {
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("Micro", false);
    let down = pb.declare(cls, "down", 1);
    pb.define(down, |mb| {
        let k = mb.arg(0);
        let done = mb.binl(BinOp::Le, k, 0);
        mb.if_else(
            done,
            |mb| mb.reply(0i64),
            |mb| {
                let me = mb.self_ref();
                let k1 = mb.binl(BinOp::Sub, k, 1);
                // Unknown locality keeps `down` MayBlock (flow rule 1), so
                // the §4.1 depth guard diverts through a heap context
                // instead of trapping — local self-recursion would be
                // classified NonBlocking and a deep NB chain is a genuine
                // stack overflow.
                let s = mb.invoke_into(me, down, &[k1.into()]);
                let v = mb.touch_get(s);
                let r = mb.binl(BinOp::Add, v, 1);
                mb.reply(r);
            },
        );
    });
    MicroKernel {
        name: "deep-chain",
        program: pb.finish(),
        entry: down,
        entry_class: "Micro",
        nodes: 1,
        max_seq_depth: Some(16),
        make_args: Box::new(|_| vec![Value::Int(64)]),
    }
}

/// All protocol micro kernels.
pub fn micro_kernels() -> Vec<MicroKernel> {
    vec![
        micro_fan2(),
        micro_jfan(),
        micro_cpfan(),
        micro_deep_chain(),
    ]
}

/// Run a micro kernel once under `(mode, tie)` with the sanitizer armed.
pub fn run_micro(m: &MicroKernel, mode: ExecMode, tie: TieBreak) -> Outcome {
    run_micro_sched(m, mode, tie, SchedImpl::EventIndex)
}

/// [`run_micro`] with an explicit scheduler implementation (the sharded
/// executor only engages under `TieBreak::Det`; any other tie-break
/// routes to the single-threaded exploring loop).
pub fn run_micro_sched(
    m: &MicroKernel,
    mode: ExecMode,
    tie: TieBreak,
    sched: SchedImpl,
) -> Outcome {
    let mut rt = Runtime::new(
        m.program.clone(),
        m.nodes,
        CostModel::cm5(),
        mode,
        InterfaceSet::Full,
    )
    .unwrap();
    if let Some(d) = m.max_seq_depth {
        rt.max_seq_depth = d;
    }
    rt.enable_sanitizer();
    rt.set_tie_break(tie);
    rt.sched_impl = sched;
    let root = rt.alloc_object_by_name(m.entry_class, NodeId(0));
    let args = (m.make_args)(&mut rt);
    let result = rt.call(root, m.entry, &args).unwrap();
    Outcome::capture(&mut rt, m.name, vec![result])
}

// ================= app kernels (reduced sizes) =================

/// Run an app kernel at conformance size under `(mode, set, tie)` with
/// the sanitizer armed.
pub fn run_app(kernel: &str, mode: ExecMode, set: InterfaceSet, tie: TieBreak) -> Outcome {
    run_app_sched(kernel, mode, set, tie, SchedImpl::EventIndex)
}

/// [`run_app`] with an explicit scheduler implementation.
pub fn run_app_sched(
    kernel: &str,
    mode: ExecMode,
    set: InterfaceSet,
    tie: TieBreak,
    sched: SchedImpl,
) -> Outcome {
    let arm = |rt: &mut Runtime| {
        rt.enable_sanitizer();
        rt.set_tie_break(tie.clone());
        rt.sched_impl = sched;
    };
    let mut rt = match kernel {
        "sor" => {
            let ids = sor::build();
            let mut rt = Runtime::new(ids.program.clone(), 4, CostModel::cm5(), mode, set).unwrap();
            arm(&mut rt);
            let inst = sor::setup(
                &mut rt,
                &ids,
                sor::SorParams {
                    n: 8,
                    block: 2,
                    procs: ProcGrid::square(4),
                },
            );
            sor::run(&mut rt, &inst, 2).unwrap();
            rt
        }
        "em3d" => {
            let ids = em3d::build(4);
            let g = em3d::generate(24, 4, 8, 0.4, 3);
            let mut rt = Runtime::new(ids.program.clone(), 8, CostModel::t3d(), mode, set).unwrap();
            arm(&mut rt);
            let inst = em3d::setup(&mut rt, &ids, &g);
            em3d::run(&mut rt, &inst, em3d::Style::Pull, 2).unwrap();
            rt
        }
        "md" => {
            let ids = md::build();
            let sys = md::generate(60, 1.2, 8, md::Layout::Spatial, 5);
            let mut rt = Runtime::new(ids.program.clone(), 8, CostModel::cm5(), mode, set).unwrap();
            arm(&mut rt);
            let inst = md::setup(&mut rt, &ids, &sys);
            md::run_iteration(&mut rt, &inst).unwrap();
            rt
        }
        "sync" => {
            let ids = sync::build();
            let mut rt = Runtime::new(ids.program.clone(), 8, CostModel::cm5(), mode, set).unwrap();
            arm(&mut rt);
            let inst = sync::setup(&mut rt, &ids, 8);
            rt.call(inst.drivers[0], ids.fan, &[]).unwrap();
            sync::run_rendezvous(&mut rt, &inst).unwrap();
            rt
        }
        other => panic!("unknown kernel {other}"),
    };
    Outcome::capture(&mut rt, kernel, Vec::new())
}
