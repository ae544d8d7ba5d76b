//! Every metric the benchmark reports, by name and unit, and how each
//! is derived from repetitions. Host times are medians over the
//! repetitions of one run; counts come from the measured runtime's
//! `MachineStats` and repeat exactly.

use hem_core::ExecMode;
use hem_machine::stats::MachineStats;

use crate::stats::{median, ns_per, ratio};
use crate::workloads::Rep;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median over repetitions of a per-repetition quantity.
fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The untraced end-to-end metrics. Host times are in seconds at the
/// reference host speed. `setups` holds the times of set-up-only runs.
///
/// # Panics
/// On an empty `reps` or `setups`.
pub fn end_to_end(reps: &[Rep], setups: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        m("wall_s", "s", med(reps, |r| r.wall_s() * r.scale)),
        m("setup_s", "s", median(setups)),
        m("run_s", "s", med(reps, |r| r.spans.total("run") * r.scale)),
        m("peak_rss_mb", "MiB", peak_rss_mb),
        m("sim_makespan_cycles", "cycles", reps[0].makespan as f64),
    ]
}

/// The traced per-layer metrics. `traced` and `untraced` alternate in
/// the same process; their wall-time ratio is the tracing overhead.
/// `shadow` is a second run of the same inputs under another
/// configuration: the call suite in parallel-only mode, or EM3D on the
/// serial event index.
///
/// # Panics
/// On an empty `traced` or `untraced`.
pub fn per_layer(traced: &[Rep], untraced: &[Rep], shadow: Option<&Rep>) -> Vec<Metric> {
    let r = &traced[0];
    let st: &MachineStats = &r.stats;
    let t = st.totals();
    let sched = &st.sched;
    let net = &st.net;
    let span = |name: &'static str| med(traced, |r| r.spans.self_total(name));
    let run_s = span("run");

    let stack = t.stack_nb + t.stack_mb + t.stack_cp;
    let (par_run_s, par_invokes) = match shadow {
        Some(p) if p.exec.mode == ExecMode::ParallelOnly => {
            (p.spans.total("run"), p.stats.totals().total_invokes())
        }
        _ => (0.0, 0),
    };
    let serial_run_s = match shadow {
        Some(s) if r.exec.threads() > 1 && s.exec.threads() == 1 => s.spans.total("run"),
        _ => run_s,
    };
    let records = r.observed.map_or(0, |o| o.0);
    let observe_s = med(traced, |r| r.observed.map_or(0.0, |o| o.1 as f64 * 1e-9));
    let serve = r.serve.clone().unwrap_or_default();

    vec![
        m("ir.build_s", "s", span("ir.build")),
        m("analysis.s", "s", span("analysis")),
        m("core.new_s", "s", span("core.new")),
        m("apps.generate_s", "s", span("apps.generate")),
        m("apps.setup_s", "s", span("apps.setup")),
        m("core.instr", "count", t.instructions as f64),
        m("core.events", "count", sched.events_dispatched as f64),
        m("core.ns_per_instr", "ns", ns_per(run_s, t.instructions)),
        m(
            "core.ns_per_event",
            "ns",
            ns_per(run_s, sched.events_dispatched),
        ),
        m("core.seq.stack_invokes", "count", stack as f64),
        m("core.seq.inlined", "count", t.inlined as f64),
        m(
            "core.seq.stack_frac",
            "frac",
            ratio(
                (stack + t.inlined) as f64,
                (t.total_invokes() + t.fallbacks) as f64,
            ),
        ),
        m("core.seq.fallbacks", "count", t.fallbacks as f64),
        m(
            "core.seq.fallback_frac",
            "frac",
            ratio(t.fallbacks as f64, (stack + t.fallbacks) as f64),
        ),
        m("core.par.invokes", "count", t.par_invokes as f64),
        m("core.par.ctx_alloc", "count", t.ctx_alloc as f64),
        m("core.par.suspends", "count", t.suspends as f64),
        m(
            "core.par.touch_miss_frac",
            "frac",
            ratio(t.touch_misses as f64, t.touches as f64),
        ),
        m("core.par.run_s", "s", par_run_s),
        m(
            "core.par.ns_per_invoke",
            "ns",
            ns_per(par_run_s, par_invokes),
        ),
        m("core.rt.heap_pushes", "count", sched.heap_pushes as f64),
        m(
            "core.rt.stale_pop_frac",
            "frac",
            ratio(sched.stale_pops as f64, sched.heap_pushes as f64),
        ),
        m(
            "core.rt.max_heap_depth",
            "count",
            sched.max_heap_depth as f64,
        ),
        m("core.wrapper_runs", "count", t.wrapper_runs as f64),
        m("core.conts_created", "count", t.conts_created as f64),
        m("core.proxy_conts", "count", t.proxy_conts as f64),
        m("core.stack_forwards", "count", t.stack_forwards as f64),
        m("machine.net.msgs", "count", net.sent as f64),
        m("machine.net.words", "count", net.words as f64),
        m("machine.net.coll_legs", "count", net.coll_legs as f64),
        m("machine.fault.drops", "count", net.faults.lost() as f64),
        m("machine.fault.dups", "count", net.faults.duplicated as f64),
        m("core.retx.retransmits", "count", t.retransmits as f64),
        m("core.retx.acks", "count", t.acks_sent as f64),
        m(
            "core.retx.dups_suppressed",
            "count",
            t.dups_suppressed as f64,
        ),
        m(
            "machine.net.goodput_frac",
            "frac",
            ratio(t.msgs_handled as f64, net.sent as f64),
        ),
        m("core.shard.windows", "count", sched.windows as f64),
        m(
            "core.shard.mean_window_events",
            "count",
            ratio(sched.window_events as f64, sched.windows as f64),
        ),
        m(
            "core.shard.serial_steps",
            "count",
            sched.serial_steps as f64,
        ),
        m("core.shard.pool_reuses", "count", sched.pool_reuses as f64),
        m(
            "core.shard.runtime_moves",
            "count",
            sched.runtime_moves as f64,
        ),
        m(
            "core.shard.coord_roundtrips",
            "count",
            sched.coord_roundtrips as f64,
        ),
        m("core.shard.serial_run_s", "s", serial_run_s),
        m("core.shard.speedup", "x", ratio(serial_run_s, run_s)),
        m("obs.records", "count", records as f64),
        m("obs.observe_s", "s", observe_s),
        m("obs.ns_per_record", "ns", ns_per(observe_s, records)),
        m("obs.report_s", "s", span("obs.report")),
        m("obs.timeline_s", "s", span("obs.timeline")),
        m("obs.critpath_s", "s", span("obs.critpath")),
        m("obs.perfetto_s", "s", span("obs.perfetto")),
        m("serve.offered", "count", serve.summary.offered as f64),
        m("serve.completed", "count", serve.summary.completed as f64),
        m("serve.pending", "count", serve.summary.pending as f64),
        m(
            "serve.req_per_s",
            "1/s",
            med(untraced, |u| {
                ratio(serve.summary.completed as f64, u.wall_s())
            }),
        ),
        m("serve.sim_p50_cycles", "cycles", serve.p50 as f64),
        m("serve.sim_p99_cycles", "cycles", serve.p99 as f64),
        m("serve.latency_samples", "count", serve.samples as f64),
        m(
            "trace.overhead_frac",
            "frac",
            ratio(med(traced, Rep::wall_s), med(untraced, Rep::wall_s)) - 1.0,
        ),
    ]
}
