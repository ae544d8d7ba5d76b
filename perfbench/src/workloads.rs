//! The four workloads. Each repetition builds its world from scratch,
//! runs it, checks its outputs against native references, and records
//! a span around every call into a layer's public functions.

use hem_analysis::{Analysis, InterfaceSet};
use hem_apps::service::{self, Disposition, ServeParams};
use hem_apps::{callintensive, em3d, sor};
use hem_bench::serve::ServeConfig;
use hem_core::{ExecMode, Observer, Runtime, SchedImpl};
use hem_ir::{FieldId, Program, Value};
use hem_machine::arrival::ArrivalDist;
use hem_machine::cost::CostModel;
use hem_machine::fault::FaultPlan;
use hem_machine::stats::MachineStats;
use hem_machine::topology::ProcGrid;
use hem_machine::{Cycles, NodeId};
use hem_obs::{
    critpath, perfetto, Blame, Fanout, Report, Rollup, SchedSummary, Series, ServiceSummary,
    Timeline,
};

use crate::stats::Tally;
use crate::trace::{Spans, TimedObserver};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SOR on a block-cyclic grid: dispatch, heap contexts, raw network.
    Sor,
    /// The Table-3 call suite on one node: the stack interpreter.
    Calls,
    /// The open-system service under faults, fully observed.
    ServeFaults,
    /// EM3D forward style on the sharded window engine.
    Em3dSharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Sor,
        Workload::Calls,
        Workload::ServeFaults,
        Workload::Em3dSharded,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sor => "sor",
            Workload::Calls => "calls",
            Workload::ServeFaults => "serve-faults",
            Workload::Em3dSharded => "em3d-sharded",
        }
    }

    /// Parse a `--workload` value.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes. [`Size::full`] is what the benchmark measures;
/// [`Size::tiny`] runs the same code paths in milliseconds for tests.
#[derive(Debug, Clone)]
pub struct Size {
    /// SOR grid side.
    pub sor_n: u32,
    /// SOR machine size (a square).
    pub sor_p: u32,
    /// SOR iterations.
    pub sor_iters: u32,
    /// `fib(n)`.
    pub fib: i64,
    /// `tak(x, y, z)`.
    pub tak: (i64, i64, i64),
    /// `nqueens(n)`.
    pub nqueens: i64,
    /// Elements `qsort` sorts.
    pub qsort: usize,
    /// `nrev(n)`.
    pub nrev: i64,
    /// `ack(m, n)`.
    pub ack: (i64, i64),
    /// Service machine size.
    pub serve_p: u32,
    /// Service backend population.
    pub serve_backends: u32,
    /// Service horizon in cycles.
    pub serve_horizon: Cycles,
    /// Service warm-up cutoff in cycles.
    pub serve_warmup: Cycles,
    /// EM3D nodes per side.
    pub em3d_n: u32,
    /// EM3D machine size.
    pub em3d_p: u32,
    /// EM3D timesteps.
    pub em3d_iters: u32,
}

impl Size {
    /// The measured sizes.
    pub fn full() -> Size {
        Size {
            sor_n: 256,
            sor_p: 64,
            sor_iters: 2,
            fib: 28,
            tak: (22, 16, 8),
            nqueens: 10,
            qsort: 16384,
            nrev: 120,
            ack: (3, 5),
            serve_p: 64,
            serve_backends: 128,
            serve_horizon: 1_000_000,
            serve_warmup: 50_000,
            em3d_n: 4096,
            em3d_p: 256,
            em3d_iters: 10,
        }
    }

    /// Test sizes: every layer still engaged, milliseconds per workload.
    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            sor_n: 16,
            sor_p: 4,
            sor_iters: 1,
            fib: 10,
            tak: (8, 4, 2),
            nqueens: 5,
            qsort: 64,
            nrev: 10,
            ack: (2, 2),
            serve_p: 4,
            serve_backends: 8,
            serve_horizon: 40_000,
            serve_warmup: 4_000,
            em3d_n: 64,
            em3d_p: 8,
            em3d_iters: 2,
        }
    }
}

/// Serve-mode results and the numbers its check rests on.
#[derive(Debug, Clone, Default)]
pub struct ServeCheck {
    /// The steady-state summary the report prints.
    pub summary: ServiceSummary,
    /// Completed requests the blame tracker decomposed.
    pub blamed: u64,
    /// Decomposed requests whose segments do not tile their sojourn.
    pub untiled: u64,
    /// Steady-state sojourn median, cycles.
    pub p50: Cycles,
    /// Steady-state sojourn 99th percentile, cycles.
    pub p99: Cycles,
    /// Completions behind the two quantiles.
    pub samples: u64,
}

impl ServeCheck {
    /// Requests attempted and failed. A shed request fails, and so does
    /// a completed one whose blame segments do not tile its sojourn. If
    /// the books do not balance (offered = admitted + shed, admitted =
    /// completed + pending, every completion blamed), no request can be
    /// trusted and all count as failed.
    pub fn tally(&self) -> Tally {
        let s = &self.summary;
        let shed = s.shed_queue + s.shed_deadline;
        let balanced = s.offered == s.admitted + shed
            && s.admitted == s.completed + s.pending
            && self.blamed == s.completed
            && self.samples > 0;
        let attempted = s.offered.max(1);
        let failed = if balanced {
            (shed + self.untiled).min(attempted)
        } else {
            attempted
        };
        let mut t = Tally::default();
        t.add(attempted, failed);
        t
    }
}

/// What one repetition produced.
pub struct Rep {
    /// Spans of this repetition.
    pub spans: Spans,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Counters of the measured runtime.
    pub stats: MachineStats,
    /// Virtual makespan.
    pub makespan: Cycles,
    /// Service results (serve-faults only).
    pub serve: Option<ServeCheck>,
    /// Records the observer saw and the ns it spent on them (traced
    /// serve-faults only).
    pub observed: Option<(u64, u64)>,
    /// Bit patterns of the computed values (EM3D only), so a shadow run
    /// on another executor can be compared exactly.
    pub values: Vec<u64>,
    /// Factor converting this repetition's host seconds to seconds at
    /// the reference host speed (1 when not calibrated).
    pub scale: f64,
    /// The configuration it ran under.
    pub exec: Exec,
}

impl Rep {
    /// Host seconds of the whole repetition.
    pub fn wall_s(&self) -> f64 {
        self.spans.total("rep")
    }
}

/// Machine configuration shared by a measured run and its shadow run.
#[derive(Debug, Clone, Copy)]
pub struct Exec {
    /// Execution mode.
    pub mode: ExecMode,
    /// Event executor.
    pub sched: SchedImpl,
    /// Time every observer call and record the separate analysis span.
    pub traced: bool,
}

impl Exec {
    /// Host threads the run keeps busy.
    pub fn threads(&self) -> usize {
        match self.sched {
            SchedImpl::Sharded { threads } | SchedImpl::Speculative { threads } => threads,
            _ => 1,
        }
    }

    /// How each workload is measured.
    pub fn measured(w: Workload, traced: bool) -> Exec {
        Exec {
            mode: ExecMode::Hybrid,
            sched: match w {
                Workload::Em3dSharded => SchedImpl::Sharded { threads: 2 },
                _ => SchedImpl::EventIndex,
            },
            traced,
        }
    }
}

/// Run one repetition of `w`.
pub fn rep(w: Workload, size: &Size, seed: u64, exec: Exec) -> Rep {
    let mut spans = Spans::default();
    let mut out = spans.time("rep", |sp| match w {
        Workload::Sor => sor_rep(sp, size, exec),
        Workload::Calls => calls_rep(sp, size, seed, exec),
        Workload::ServeFaults => serve_rep(sp, size, seed, exec),
        Workload::Em3dSharded => em3d_rep(sp, size, seed, exec),
    });
    out.spans = spans;
    out
}

/// A repetition's result before its spans are attached.
fn done(tally: Tally, rt: &Runtime, exec: Exec) -> Rep {
    Rep {
        spans: Spans::default(),
        tally,
        stats: rt.stats(),
        makespan: rt.makespan(),
        serve: None,
        observed: None,
        values: Vec::new(),
        scale: 1.0,
        exec,
    }
}

/// IR build, analysis (traced runs only: it repeats work `Runtime::new`
/// does), and runtime construction.
fn build_runtime<T>(
    sp: &mut Spans,
    exec: Exec,
    nodes: u32,
    build: impl FnOnce() -> T,
    program: impl Fn(&T) -> &Program,
) -> (T, Runtime) {
    let ids = sp.time("ir.build", |_| build());
    if exec.traced {
        sp.time("analysis", |_| {
            std::hint::black_box(Analysis::analyze(program(&ids)).schemas(InterfaceSet::Full))
        });
    }
    let mut rt = sp.time("core.new", |_| {
        Runtime::new(
            program(&ids).clone(),
            nodes,
            CostModel::cm5(),
            exec.mode,
            InterfaceSet::Full,
        )
        .expect("benchmark kernels validate")
    });
    rt.sched_impl = exec.sched;
    (ids, rt)
}

/// Time the set-up phase alone: build the world, then drop it.
pub fn setup_only(w: Workload, size: &Size, seed: u64, exec: Exec) -> f64 {
    let mut sp = Spans::default();
    match w {
        Workload::Sor => drop(sor_setup(&mut sp, size, exec)),
        Workload::Calls => drop(calls_setup(&mut sp, size, seed, exec)),
        Workload::ServeFaults => drop(serve_setup(&mut sp, &serve_config(size, seed), exec)),
        Workload::Em3dSharded => drop(em3d_setup(&mut sp, size, seed, exec)),
    }
    sp.total("setup")
}

fn sor_setup(sp: &mut Spans, size: &Size, exec: Exec) -> (Runtime, sor::SorInstance) {
    sp.time("setup", |sp| {
        let (ids, mut rt) = build_runtime(sp, exec, size.sor_p, sor::build, |i| &i.program);
        let params = sor::SorParams {
            n: size.sor_n,
            block: 4,
            procs: ProcGrid::square(size.sor_p),
        };
        let inst = sp.time("apps.setup", |_| sor::setup(&mut rt, &ids, params));
        (rt, inst)
    })
}

fn sor_rep(sp: &mut Spans, size: &Size, exec: Exec) -> Rep {
    let (mut rt, inst) = sor_setup(sp, size, exec);
    let ran = sp.time("run", |_| sor::run(&mut rt, &inst, size.sor_iters));
    let ok = sp.time("check", |_| {
        ran.is_ok()
            && bits(&sor::grid_values(&rt, &inst)) == bits(&sor::native(size.sor_n, size.sor_iters))
    });
    let mut tally = Tally::default();
    tally.add(1, u64::from(!ok));
    done(tally, &rt, exec)
}

/// The call suite placed on one node, with the seeded qsort input
/// stored in the `Math` object's `data` array.
struct CallWorld {
    suite: callintensive::CallSuite,
    rt: Runtime,
    math: hem_ir::ObjRef,
    data: FieldId,
    qsort: Vec<i64>,
}

fn calls_setup(sp: &mut Spans, size: &Size, seed: u64, exec: Exec) -> CallWorld {
    sp.time("setup", |sp| {
        let (suite, mut rt) = build_runtime(sp, exec, 1, callintensive::build, |s| &s.program);
        let qsort = sp.time("apps.generate", |_| {
            SplitMix(seed).take(size.qsort, 1 << 31)
        });
        let (math, data) = sp.time("apps.setup", |_| {
            let math = rt.alloc_object_by_name("Math", NodeId(0));
            let data = field_id(rt.program(), "Math", "data");
            let vs = qsort.iter().map(|&x| Value::Int(x)).collect();
            rt.set_array(math, data, vs);
            (math, data)
        });
        CallWorld {
            suite,
            rt,
            math,
            data,
            qsort,
        }
    })
}

fn calls_rep(sp: &mut Spans, size: &Size, seed: u64, exec: Exec) -> Rep {
    let CallWorld {
        suite,
        mut rt,
        math,
        data,
        qsort: input,
    } = calls_setup(sp, size, seed, exec);
    let qsort = rt
        .find_method("Math", "qsort")
        .expect("the suite defines qsort");
    let int = Value::Int;
    let (t, a) = (size.tak, size.ack);
    let calls: [(hem_ir::MethodId, Vec<Value>, Option<i64>); 6] = [
        (
            suite.fib,
            vec![int(size.fib)],
            Some(callintensive::fib_native(size.fib as u64) as i64),
        ),
        (
            suite.tak,
            vec![int(t.0), int(t.1), int(t.2)],
            Some(callintensive::tak_native(t.0, t.1, t.2)),
        ),
        (
            suite.nqueens,
            vec![int(size.nqueens)],
            Some(callintensive::nqueens_native(size.nqueens as u32) as i64),
        ),
        (qsort, vec![int(0), int(size.qsort as i64 - 1)], None),
        (
            suite.nrev_run,
            vec![int(size.nrev)],
            Some(callintensive::nrev_native_sum(size.nrev)),
        ),
        (
            suite.ack,
            vec![int(a.0), int(a.1)],
            Some(callintensive::ack_native(a.0, a.1)),
        ),
    ];
    let results: Vec<_> = sp.time("run", |_| {
        calls
            .iter()
            .map(|(m, args, _)| rt.call(math, *m, args))
            .collect()
    });
    let failed = sp.time("check", |_| {
        let mut sorted = input.clone();
        sorted.sort_unstable();
        let sorted: Vec<Value> = sorted.into_iter().map(Value::Int).collect();
        calls
            .iter()
            .zip(&results)
            .filter(|((_, _, want), got)| match (want, got) {
                (Some(w), Ok(Some(Value::Int(g)))) => w != g,
                (None, Ok(_)) => rt.get_array(math, data) != sorted.as_slice(),
                _ => true,
            })
            .count() as u64
    });
    let mut tally = Tally::default();
    tally.add(calls.len() as u64, failed);
    done(tally, &rt, exec)
}

/// The serve-faults configuration at `size`, arrivals and faults seeded
/// from `seed`.
fn serve_config(size: &Size, seed: u64) -> ServeConfig {
    let mut fault = FaultPlan::seeded(seed ^ 0x9E37_79B9_7F4A_7C15);
    fault.drop_permille = 20;
    fault.jitter_max = 40;
    ServeConfig {
        p: size.serve_p,
        backends: size.serve_backends,
        horizon: size.serve_horizon,
        warmup: size.serve_warmup,
        dist: ArrivalDist::Poisson { mean_gap: 400.0 },
        clients: 4,
        seed,
        fault: Some(fault),
        ..ServeConfig::new()
    }
}

/// Build the service world with the steps of
/// `ServeConfig::run_with_observer`, a span around each.
fn serve_setup(
    sp: &mut Spans,
    cfg: &ServeConfig,
    exec: Exec,
) -> (Runtime, service::ServiceInstance) {
    sp.time("setup", |sp| {
        let (ids, mut rt) = build_runtime(sp, exec, cfg.p, service::build, |i| &i.program);
        let inst = sp.time("apps.setup", |_| {
            rt.enable_trace();
            rt.set_fault_plan(cfg.fault.clone().expect("serve-faults injects faults"));
            let fan = Fanout::new()
                .with(Box::new(Rollup::new()))
                .with(Box::new(Blame::new()))
                .with(Box::new(Series::new((cfg.horizon / 50).max(1))));
            let obs: Box<dyn Observer> = if exec.traced {
                Box::new(TimedObserver::new(Box::new(fan)))
            } else {
                Box::new(fan)
            };
            rt.attach_observer(obs);
            service::setup(&mut rt, &ids, cfg.backends)
        });
        (rt, inst)
    })
}

/// Play the arrival stream, run the exporters that
/// `hemprof blame --series --critical-path --perfetto` runs, and check
/// the books.
fn serve_rep(sp: &mut Spans, size: &Size, seed: u64, exec: Exec) -> Rep {
    let cfg = serve_config(size, seed);
    let (mut rt, inst) = serve_setup(sp, &cfg, exec);
    let params = ServeParams {
        horizon: cfg.horizon,
        dist: cfg.dist,
        clients: cfg.clients,
        seed: cfg.seed,
        deadline: cfg.deadline,
        max_queue: cfg.max_queue,
    };
    let outcome = sp.time("run", |_| service::run_service(&mut rt, &inst, &params));
    let Ok(outcome) = outcome else {
        let mut tally = Tally::default();
        tally.add(1, 1);
        return done(tally, &rt, exec);
    };

    let (rollup, blame, series, observed) = sp.time("obs.detach", |_| {
        let mut obs: Box<dyn std::any::Any> = rt.take_observer().expect("observer attached");
        let mut observed = None;
        if exec.traced {
            let timed = obs.downcast::<TimedObserver>().expect("a TimedObserver");
            observed = Some((timed.records, timed.ns));
            obs = timed.into_inner();
        }
        let fan = obs.downcast::<Fanout>().expect("a Fanout");
        let mut parts = fan
            .into_parts()
            .into_iter()
            .map(|p| -> Box<dyn std::any::Any> { p });
        let mut next = || parts.next().expect("three observers");
        let rollup = next().downcast::<Rollup>().expect("a Rollup");
        let blame = next().downcast::<Blame>().expect("a Blame");
        let series = next().downcast::<Series>().expect("a Series");
        (rollup, blame, series, observed)
    });
    let stats = rt.stats();
    let summary = cfg.summary(&outcome);
    sp.time("obs.report", |_| {
        let report = Report::new(&cfg.title(), &rollup, &stats, rt.program(), rt.schemas())
            .with_sched(SchedSummary::from_stats(&stats.sched))
            .with_service(summary.clone())
            .with_blame(blame.summary(0.99, 10))
            .with_series(series.summary());
        std::hint::black_box((report.text(), report.json()));
    });
    let records = rt.take_trace();
    let tl = sp.time("obs.timeline", |_| {
        Timeline::build(&records, stats.per_node.len())
    });
    sp.time("obs.critpath", |_| {
        std::hint::black_box(critpath::critical_path_until(&tl, cfg.horizon));
    });
    sp.time("obs.perfetto", |_| {
        std::hint::black_box(perfetto::to_json(&records, &tl, rt.program()).len());
    });

    let serve = sp.time("check", |_| {
        let mut lat: Vec<Cycles> = outcome
            .records
            .iter()
            .filter_map(|r| match r.disposition {
                Disposition::Completed(at) if r.arrived >= cfg.warmup => Some(at - r.arrived),
                _ => None,
            })
            .collect();
        lat.sort_unstable();
        let untiled = blame
            .finished()
            .iter()
            .filter(|r| r.segs.iter().map(|s| s.1).sum::<u64>() != r.sojourn())
            .count() as u64;
        ServeCheck {
            summary: summary.clone(),
            blamed: blame.finished().len() as u64,
            untiled,
            p50: quantile(&lat, 0.50),
            p99: quantile(&lat, 0.99),
            samples: lat.len() as u64,
        }
    });
    let tally = serve.tally();
    let mut rep = done(tally, &rt, exec);
    rep.serve = Some(serve);
    rep.observed = observed;
    rep
}

fn em3d_setup(
    sp: &mut Spans,
    size: &Size,
    seed: u64,
    exec: Exec,
) -> (Runtime, em3d::Em3dInstance, em3d::Em3dGraph) {
    sp.time("setup", |sp| {
        let (ids, mut rt) = build_runtime(sp, exec, size.em3d_p, || em3d::build(4), |i| &i.program);
        let graph = sp.time("apps.generate", |_| {
            em3d::generate(size.em3d_n, 4, size.em3d_p, 0.2, seed)
        });
        let inst = sp.time("apps.setup", |_| em3d::setup(&mut rt, &ids, &graph));
        (rt, inst, graph)
    })
}

fn em3d_rep(sp: &mut Spans, size: &Size, seed: u64, exec: Exec) -> Rep {
    let (mut rt, inst, graph) = em3d_setup(sp, size, seed, exec);
    let ran = sp.time("run", |_| {
        em3d::run(&mut rt, &inst, em3d::Style::Forward, size.em3d_iters)
    });
    let (ok, values) = sp.time("check", |_| {
        let (e, h) = em3d::values(&rt, &inst);
        let (en, hn) = em3d::native(&graph, size.em3d_iters);
        // Forwarding accumulates in arrival order, so sums match the
        // in-edge order of the native reference only to rounding.
        let ok = ran.is_ok() && close(&e, &en, 1e-9) && close(&h, &hn, 1e-9);
        (ok, bits(&e).into_iter().chain(bits(&h)).collect())
    });
    let mut tally = Tally::default();
    tally.add(1, u64::from(!ok));
    let mut rep = done(tally, &rt, exec);
    rep.values = values;
    rep
}

fn field_id(p: &Program, class: &str, field: &str) -> FieldId {
    let cls = p
        .classes
        .iter()
        .find(|c| c.name == class)
        .unwrap_or_else(|| panic!("class {class}"));
    let ix = cls
        .fields
        .iter()
        .position(|f| f.name == field)
        .unwrap_or_else(|| panic!("field {class}.{field}"));
    FieldId(ix as u16)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Elementwise relative closeness.
fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
}

/// Nearest-rank quantile of a sorted sample (0 when empty).
fn quantile(sorted: &[Cycles], q: f64) -> Cycles {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed alone.
struct SplitMix(u64);

impl SplitMix {
    /// Next 64-bit output.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` values in `0..bound`.
    fn take(&mut self, n: usize, bound: u64) -> Vec<i64> {
        (0..n).map(|_| (self.next_u64() % bound) as i64).collect()
    }
}
