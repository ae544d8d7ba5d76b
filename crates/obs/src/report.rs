//! Paper-Table-style summaries built from a [`Rollup`].
//!
//! [`Report::text`] renders the per-method invocation-path table the
//! paper's evaluation revolves around (which fraction of each method's
//! invocations stayed on the stack, how often speculation fell back),
//! followed by traffic, histogram and machine sections. [`Report::json`]
//! emits the same data machine-readably (validated by the integration
//! tests through [`crate::json`]).

use std::fmt::Write as _;

use hem_analysis::SchemaMap;
use hem_ir::{MethodId, Program};
use hem_machine::stats::MachineStats;

use crate::blame::BlameSummary;
use crate::hist::Log2Hist;
use crate::json::escape;
use crate::rollup::{MethodCell, Rollup};
use crate::series::SeriesSummary;

/// Scheduler-occupancy counters lifted straight out of
/// `MachineStats.sched`: how the dispatch loop (and, for the parallel
/// executor, the window coordinator) actually ran. Host-execution
/// diagnostics: they vary with the executor and thread count while the
/// simulated machine stays bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedSummary {
    /// Events actually dispatched.
    pub events_dispatched: u64,
    /// Parallel virtual-time windows executed (0 under the
    /// single-threaded dispatchers).
    pub windows: u64,
    /// Events the window coordinator stepped serially.
    pub serial_steps: u64,
    /// Events dispatched inside parallel windows.
    pub window_events: u64,
    /// Most events dispatched in any single parallel window.
    pub max_window_events: u64,
}

impl SchedSummary {
    /// Lift the counters out of the machine's own stats block.
    pub fn from_stats(s: &hem_machine::stats::SchedStats) -> SchedSummary {
        SchedSummary {
            events_dispatched: s.events_dispatched,
            windows: s.windows,
            serial_steps: s.serial_steps,
            window_events: s.window_events,
            max_window_events: s.max_window_events,
        }
    }

    /// Mean events per parallel window (0.0 when no windows formed).
    pub fn mean_window_events(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.window_events as f64 / self.windows as f64
        }
    }
}

/// Steady-state summary of an open-system (`hemprof serve`) run: what the
/// arrival process offered, what admission control did with it, and the
/// post-warm-up latency distribution.
#[derive(Debug, Clone, Default)]
pub struct ServiceSummary {
    /// Requests the arrival process generated inside the horizon.
    pub offered: u64,
    /// Requests injected into the machine.
    pub admitted: u64,
    /// Requests shed because the target's queue was over the cap.
    pub shed_queue: u64,
    /// Requests shed because the deadline was already infeasible.
    pub shed_deadline: u64,
    /// Admitted requests that completed before the horizon.
    pub completed: u64,
    /// Admitted requests still in flight at the horizon.
    pub pending: u64,
    /// Completions whose sojourn exceeded the deadline (0 when no
    /// deadline was set).
    pub missed_deadline: u64,
    /// Completions discarded by warm-up trimming (arrival < warmup).
    pub trimmed: u64,
    /// Virtual-time horizon of the run.
    pub horizon: u64,
    /// Warm-up cutoff: completions of requests arriving before it are
    /// excluded from `latency`.
    pub warmup: u64,
    /// Steady-state sojourn times (arrival → reply) of the kept
    /// completions.
    pub latency: Log2Hist,
}

/// One method's row.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method id.
    pub method: u32,
    /// `Class::method` name.
    pub name: String,
    /// Selected sequential schema.
    pub schema: String,
    /// Counts summed over nodes.
    pub cell: MethodCell,
}

/// A rendered summary.
#[derive(Debug)]
pub struct Report {
    /// Caption, e.g. `sor p=64 seed=1`.
    pub title: String,
    /// Per-method rows (methods that were invoked at least once).
    pub rows: Vec<MethodRow>,
    /// Grand totals.
    pub total: MethodCell,
    /// Messages and words by cause: `(requests, replies, acks, retx,
    /// multicasts, reduces, barriers)`, each `(msgs, words)`.
    pub traffic: [(u64, u64); 7],
    /// Active directed links.
    pub links: usize,
    /// Continuations lazily materialized.
    pub conts: u64,
    /// Residency histogram summary.
    pub residency: String,
    /// Residency mean (cycles).
    pub residency_mean: f64,
    /// Residency p50/p95/p99 (cycles).
    pub residency_q: [u64; 3],
    /// Touch-latency histogram summary.
    pub touch: String,
    /// Touch-latency mean (cycles).
    pub touch_mean: f64,
    /// Touch-latency p50/p95/p99 (cycles).
    pub touch_q: [u64; 3],
    /// Open-system section (set via [`Report::with_service`]).
    pub service: Option<ServiceSummary>,
    /// Scheduler / window-occupancy counters (set via
    /// [`Report::with_sched`]). Opt-in because they are host-execution
    /// diagnostics: they vary with the executor and thread count, and the
    /// determinism suites compare default reports across executors
    /// bit-for-bit.
    pub sched: Option<SchedSummary>,
    /// Per-request blame section (set via [`Report::with_blame`]).
    pub blame: Option<BlameSummary>,
    /// Virtual-time series section (set via [`Report::with_series`]).
    pub series: Option<SeriesSummary>,
    /// Makespan in cycles.
    pub makespan: u64,
    /// Node count.
    pub nodes: usize,
    /// Trace-ring evictions over the run (non-zero = the trace the
    /// rollup saw was truncated).
    pub dropped_events: u64,
    per_link: Vec<(u32, u32, u64, u64)>,
}

impl Report {
    /// Build a report from a rollup plus the machine's own stats.
    pub fn new(
        title: &str,
        rollup: &Rollup,
        stats: &MachineStats,
        program: &Program,
        schemas: &SchemaMap,
    ) -> Report {
        let mut rows = Vec::new();
        for m in rollup.methods() {
            let cell = rollup.method_totals(m);
            let meth = program.method(MethodId(m));
            let class = &program.class(meth.class).name;
            rows.push(MethodRow {
                method: m,
                name: format!("{class}::{}", meth.name),
                schema: schemas.of(MethodId(m)).to_string(),
                cell,
            });
        }
        let mut traffic = [(0u64, 0u64); 7];
        let mut per_link = Vec::new();
        for ((f, t), l) in rollup.per_link() {
            for (i, tr) in traffic.iter_mut().enumerate() {
                tr.0 += l.msgs[i];
                tr.1 += l.words[i];
            }
            per_link.push((f, t, l.total_msgs(), l.total_words()));
        }
        Report {
            title: title.to_string(),
            rows,
            total: rollup.grand_total(),
            traffic,
            links: per_link.len(),
            conts: rollup.total_conts(),
            residency: rollup.residency.summary(),
            residency_mean: rollup.residency.mean(),
            residency_q: quantiles(&rollup.residency),
            touch: rollup.touch_latency.summary(),
            touch_mean: rollup.touch_latency.mean(),
            touch_q: quantiles(&rollup.touch_latency),
            service: None,
            sched: None,
            blame: None,
            series: None,
            makespan: stats.makespan(),
            nodes: stats.per_node.len(),
            dropped_events: stats.sched.dropped_events,
            per_link,
        }
    }

    /// Attach the open-system service section.
    pub fn with_service(mut self, s: ServiceSummary) -> Report {
        self.service = Some(s);
        self
    }

    /// Attach the scheduler-occupancy diagnostics section.
    pub fn with_sched(mut self, s: SchedSummary) -> Report {
        self.sched = Some(s);
        self
    }

    /// Attach the per-request blame section.
    pub fn with_blame(mut self, b: BlameSummary) -> Report {
        self.blame = Some(b);
        self
    }

    /// Attach the virtual-time series section.
    pub fn with_series(mut self, s: SeriesSummary) -> Report {
        self.series = Some(s);
        self
    }

    /// Render the text report.
    pub fn text(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(o, "== {} ==", self.title);
        let _ = writeln!(
            o,
            "{} nodes, makespan {} cycles{}",
            self.nodes,
            self.makespan,
            if self.dropped_events > 0 {
                format!(
                    " [TRUNCATED TRACE: {} records dropped]",
                    self.dropped_events
                )
            } else {
                String::new()
            }
        );
        let _ = writeln!(o);
        let _ = writeln!(
            o,
            "{:<24} {:>3} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7}",
            "method", "sch", "NB", "MB", "CP", "inline", "par", "fallbk", "shell", "stack%", "fb%"
        );
        for r in &self.rows {
            let c = &r.cell;
            let _ = writeln!(
                o,
                "{:<24} {:>3} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>6.1}% {:>6.1}%",
                r.name,
                r.schema,
                c.stack_nb,
                c.stack_mb,
                c.stack_cp,
                c.inlined,
                c.par_invokes,
                c.fallbacks,
                c.shells_adopted,
                100.0 * c.stack_fraction(),
                100.0 * c.fallback_rate(),
            );
        }
        let c = &self.total;
        let _ = writeln!(
            o,
            "{:<24} {:>3} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>6.1}% {:>6.1}%",
            "TOTAL",
            "",
            c.stack_nb,
            c.stack_mb,
            c.stack_cp,
            c.inlined,
            c.par_invokes,
            c.fallbacks,
            c.shells_adopted,
            100.0 * c.stack_fraction(),
            100.0 * c.fallback_rate(),
        );
        let _ = writeln!(o);
        let names = [
            "requests",
            "replies",
            "acks",
            "retransmits",
            "multicasts",
            "reduces",
            "barriers",
        ];
        let _ = writeln!(o, "traffic ({} active links):", self.links);
        for (i, name) in names.iter().enumerate() {
            let (m, w) = self.traffic[i];
            if m > 0 {
                let _ = writeln!(o, "  {name:<12} {m:>8} msgs {w:>10} words");
            }
        }
        if self.conts > 0 {
            let _ = writeln!(o, "  {:<12} {:>8}", "lazy conts", self.conts);
        }
        let _ = writeln!(o);
        let _ = writeln!(
            o,
            "ctx residency (cycles, log2 buckets, mean {:.1}, p50/p95/p99 {}/{}/{}):\n  {}",
            self.residency_mean,
            self.residency_q[0],
            self.residency_q[1],
            self.residency_q[2],
            self.residency
        );
        let _ = writeln!(
            o,
            "touch latency (cycles, log2 buckets, mean {:.1}, p50/p95/p99 {}/{}/{}):\n  {}",
            self.touch_mean, self.touch_q[0], self.touch_q[1], self.touch_q[2], self.touch
        );
        if let Some(s) = &self.service {
            let q = try_quantiles(&s.latency);
            let _ = writeln!(o);
            let _ = writeln!(
                o,
                "service (open system, horizon {}, warm-up {}):",
                s.horizon, s.warmup
            );
            let _ = writeln!(
                o,
                "  offered {}  admitted {}  shed {} (queue {}, deadline {})",
                s.offered,
                s.admitted,
                s.shed_queue + s.shed_deadline,
                s.shed_queue,
                s.shed_deadline
            );
            let _ = writeln!(
                o,
                "  completed {}  pending-at-horizon {}  missed-deadline {}  warm-up-trimmed {}",
                s.completed, s.pending, s.missed_deadline, s.trimmed
            );
            let _ = writeln!(
                o,
                "  latency (cycles, {} steady-state samples, mean {:.1}):",
                s.latency.count(),
                s.latency.mean()
            );
            match q {
                Some(q) => {
                    let _ = writeln!(
                        o,
                        "    p50 {}  p95 {}  p99 {}  max {}",
                        q[0],
                        q[1],
                        q[2],
                        s.latency.max()
                    );
                }
                // Warm-up trimming (or a too-short horizon) can leave
                // zero steady-state completions; an empty histogram has
                // no quantiles, and printing 0 would fabricate a perfect
                // latency.
                None => {
                    let _ = writeln!(o, "    p50 n/a  p95 n/a  p99 n/a  max n/a (no samples)");
                }
            }
        }
        if let Some(s) = &self.sched {
            let _ = writeln!(o);
            let _ = writeln!(
                o,
                "scheduler windows (host diagnostics): windows {}  serial-steps {}  \
                 window-events {} (mean {:.1}/window, max {})",
                s.windows,
                s.serial_steps,
                s.window_events,
                s.mean_window_events(),
                s.max_window_events
            );
        }
        if let Some(b) = &self.blame {
            let _ = writeln!(o);
            o.push_str(&b.text());
        }
        if let Some(s) = &self.series {
            let _ = writeln!(o);
            o.push_str(&s.text());
        }
        o
    }

    /// Render the JSON report.
    pub fn json(&self) -> String {
        let mut o = String::new();
        let _ = write!(
            o,
            "{{\"title\":\"{}\",\"nodes\":{},\"makespan\":{},\"dropped_events\":{},\
             \"truncated\":{},",
            escape(&self.title),
            self.nodes,
            self.makespan,
            self.dropped_events,
            self.dropped_events > 0
        );
        let _ = write!(o, "\"methods\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let c = &r.cell;
            let _ = write!(
                o,
                "{{\"id\":{},\"name\":\"{}\",\"schema\":\"{}\",\"stack_nb\":{},\
                 \"stack_mb\":{},\"stack_cp\":{},\"inlined\":{},\"par_invokes\":{},\
                 \"fallbacks\":{},\"shells_adopted\":{},\"stack_fraction\":{:.6},\
                 \"fallback_rate\":{:.6}}}",
                r.method,
                escape(&r.name),
                r.schema,
                c.stack_nb,
                c.stack_mb,
                c.stack_cp,
                c.inlined,
                c.par_invokes,
                c.fallbacks,
                c.shells_adopted,
                c.stack_fraction(),
                c.fallback_rate(),
            );
        }
        let _ = write!(o, "],\"traffic\":{{");
        let names = [
            "requests",
            "replies",
            "acks",
            "retransmits",
            "multicasts",
            "reduces",
            "barriers",
        ];
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let (m, w) = self.traffic[i];
            let _ = write!(o, "\"{name}\":{{\"msgs\":{m},\"words\":{w}}}");
        }
        let _ = write!(o, "}},\"links\":[");
        for (i, (f, t, m, w)) in self.per_link.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"from\":{f},\"to\":{t},\"msgs\":{m},\"words\":{w}}}");
        }
        let _ = write!(
            o,
            "],\"conts_created\":{},\"residency_mean\":{:.6},\"touch_latency_mean\":{:.6}",
            self.conts, self.residency_mean, self.touch_mean
        );
        let _ = write!(
            o,
            ",\"residency\":{},\"touch_latency\":{}",
            quantile_obj(self.residency_q),
            quantile_obj(self.touch_q)
        );
        if let Some(s) = &self.service {
            let q = try_quantiles(&s.latency);
            let _ = write!(
                o,
                ",\"service\":{{\"horizon\":{},\"warmup\":{},\"offered\":{},\"admitted\":{},\
                 \"shed_queue\":{},\"shed_deadline\":{},\"completed\":{},\"pending\":{},\
                 \"missed_deadline\":{},\"trimmed\":{},\"samples\":{},\"latency_mean\":{},\
                 \"latency_max\":{},\"latency\":{}}}",
                s.horizon,
                s.warmup,
                s.offered,
                s.admitted,
                s.shed_queue,
                s.shed_deadline,
                s.completed,
                s.pending,
                s.missed_deadline,
                s.trimmed,
                s.latency.count(),
                // An empty histogram has no mean/max/quantiles: emit
                // `null` (consumers key off `samples`), never a fake 0.
                if q.is_some() {
                    format!("{:.6}", s.latency.mean())
                } else {
                    "null".into()
                },
                if q.is_some() {
                    s.latency.max().to_string()
                } else {
                    "null".into()
                },
                quantile_obj_opt(q)
            );
        }
        if let Some(sc) = &self.sched {
            let _ = write!(
                o,
                ",\"sched\":{{\"events_dispatched\":{},\"windows\":{},\"serial_steps\":{},\
                 \"window_events\":{},\"max_window_events\":{}}}",
                sc.events_dispatched,
                sc.windows,
                sc.serial_steps,
                sc.window_events,
                sc.max_window_events
            );
        }
        if let Some(b) = &self.blame {
            let _ = write!(o, ",\"blame\":{}", b.json());
        }
        if let Some(s) = &self.series {
            let _ = write!(o, ",\"series\":{}", s.json());
        }
        o.push('}');
        o
    }
}

fn quantiles(h: &Log2Hist) -> [u64; 3] {
    [h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)]
}

/// `None` when the histogram is empty — empty histograms have no
/// quantiles, and the `quantile` fallback of 0 must never reach a report.
fn try_quantiles(h: &Log2Hist) -> Option<[u64; 3]> {
    Some([
        h.try_quantile(0.50)?,
        h.try_quantile(0.95)?,
        h.try_quantile(0.99)?,
    ])
}

fn quantile_obj(q: [u64; 3]) -> String {
    format!("{{\"p50\":{},\"p95\":{},\"p99\":{}}}", q[0], q[1], q[2])
}

fn quantile_obj_opt(q: Option<[u64; 3]>) -> String {
    match q {
        Some(q) => quantile_obj(q),
        None => r#"{"p50":null,"p95":null,"p99":null}"#.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use hem_core::{MsgCause, TraceEvent, TraceRecord};
    use hem_machine::NodeId;

    fn toy() -> (Rollup, MachineStats, Program, SchemaMap) {
        let mut pb = hem_ir::ProgramBuilder::new();
        let c = pb.class("C", false);
        let m = pb.declare(c, "work", 0);
        pb.define(m, |mb| mb.reply(1));
        let program = pb.finish();
        let schemas =
            hem_analysis::Analysis::analyze(&program).schemas(hem_analysis::InterfaceSet::Full);
        let recs = vec![
            TraceRecord {
                at: 1,
                event: TraceEvent::StackComplete {
                    node: NodeId(0),
                    method: MethodId(0),
                    schema: hem_analysis::Schema::MayBlock,
                },
            },
            TraceRecord {
                at: 2,
                event: TraceEvent::MsgSent {
                    from: NodeId(0),
                    to: NodeId(1),
                    words: 4,
                    cause: MsgCause::Request,
                    req: 0,
                    wire: 0,
                },
            },
        ];
        let rollup = Rollup::from_records(&recs);
        let mut stats = MachineStats::new(2);
        stats.node_time = vec![10, 20];
        (rollup, stats, program, schemas)
    }

    #[test]
    fn text_report_has_the_method_table() {
        let (r, s, p, sm) = toy();
        let rep = Report::new("toy", &r, &s, &p, &sm);
        let text = rep.text();
        assert!(text.contains("C::work"));
        assert!(text.contains("makespan 20"));
        assert!(text.contains("requests"));
        assert!(!text.contains("TRUNCATED"));
    }

    #[test]
    fn json_report_parses_and_carries_the_counts() {
        let (r, s, p, sm) = toy();
        let rep = Report::new("toy", &r, &s, &p, &sm);
        let doc = Json::parse(&rep.json()).expect("valid json");
        assert_eq!(doc.get("makespan").unwrap().as_num(), Some(20.0));
        let methods = doc.get("methods").unwrap().as_arr().unwrap();
        assert_eq!(methods.len(), 1);
        assert_eq!(methods[0].get("stack_mb").unwrap().as_num(), Some(1.0));
        let traffic = doc.get("traffic").unwrap();
        assert_eq!(
            traffic
                .get("requests")
                .unwrap()
                .get("msgs")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
    }

    #[test]
    fn truncation_is_loud() {
        let (r, mut s, p, sm) = toy();
        s.sched.dropped_events = 7;
        let rep = Report::new("toy", &r, &s, &p, &sm);
        assert!(rep.text().contains("TRUNCATED TRACE: 7"));
        // The JSON side carries the same marker.
        let doc = Json::parse(&rep.json()).expect("valid json");
        assert_eq!(doc.get("truncated").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("dropped_events").unwrap().as_num(), Some(7.0));
    }

    #[test]
    fn json_carries_quantiles_and_untruncated_flag() {
        let (r, s, p, sm) = toy();
        let rep = Report::new("toy", &r, &s, &p, &sm);
        let doc = Json::parse(&rep.json()).expect("valid json");
        assert_eq!(doc.get("truncated").unwrap().as_bool(), Some(false));
        for key in ["residency", "touch_latency"] {
            let q = doc.get(key).unwrap();
            for p in ["p50", "p95", "p99"] {
                assert!(q.get(p).unwrap().as_num().is_some(), "{key}.{p}");
            }
        }
        assert!(doc.get("service").is_none(), "closed system: no section");
    }

    #[test]
    fn service_section_renders_in_text_and_json() {
        let (r, s, p, sm) = toy();
        let mut latency = Log2Hist::default();
        for v in [10, 20, 40, 80, 160] {
            latency.add(v);
        }
        let rep = Report::new("toy", &r, &s, &p, &sm).with_service(ServiceSummary {
            offered: 10,
            admitted: 8,
            shed_queue: 1,
            shed_deadline: 1,
            completed: 5,
            pending: 3,
            missed_deadline: 2,
            trimmed: 1,
            horizon: 10_000,
            warmup: 1_000,
            latency,
        });
        let text = rep.text();
        assert!(text.contains("service (open system, horizon 10000, warm-up 1000)"));
        assert!(text.contains("offered 10  admitted 8  shed 2 (queue 1, deadline 1)"));
        assert!(text.contains("p50"));
        let doc = Json::parse(&rep.json()).expect("valid json");
        let svc = doc.get("service").unwrap();
        assert_eq!(svc.get("offered").unwrap().as_num(), Some(10.0));
        assert_eq!(svc.get("samples").unwrap().as_num(), Some(5.0));
        let q = svc.get("latency").unwrap();
        let p50 = q.get("p50").unwrap().as_num().unwrap();
        let p99 = q.get("p99").unwrap().as_num().unwrap();
        assert!(p50 > 0.0 && p99 >= p50);
        assert_eq!(svc.get("latency_max").unwrap().as_num(), Some(160.0));
    }

    #[test]
    fn empty_service_latency_reports_na_not_zero() {
        // Warm-up trimming can leave zero steady-state completions; the
        // report must say so instead of fabricating p50/p95/p99 = 0.
        let (r, s, p, sm) = toy();
        let rep = Report::new("toy", &r, &s, &p, &sm).with_service(ServiceSummary {
            offered: 3,
            admitted: 3,
            shed_queue: 0,
            shed_deadline: 0,
            completed: 2,
            pending: 1,
            missed_deadline: 0,
            trimmed: 2,
            horizon: 1_000,
            warmup: 900,
            latency: Log2Hist::default(),
        });
        let text = rep.text();
        assert!(
            text.contains("p50 n/a  p95 n/a  p99 n/a  max n/a (no samples)"),
            "text quantiles honest about emptiness:\n{text}"
        );
        assert!(!text.contains("p50 0"), "no fabricated zero quantile");
        let doc = Json::parse(&rep.json()).expect("valid json");
        let svc = doc.get("service").unwrap();
        assert_eq!(svc.get("samples").unwrap().as_num(), Some(0.0));
        assert_eq!(svc.get("latency").unwrap().get("p50"), Some(&Json::Null));
        assert_eq!(svc.get("latency").unwrap().get("p99"), Some(&Json::Null));
        assert_eq!(svc.get("latency_max"), Some(&Json::Null));
        assert_eq!(svc.get("latency_mean"), Some(&Json::Null));
    }

    #[test]
    fn sched_blame_and_series_sections_render() {
        let (r, mut st, p, sm) = toy();
        st.sched.events_dispatched = 100;
        st.sched.windows = 10;
        st.sched.serial_steps = 3;
        st.sched.window_events = 40;
        st.sched.max_window_events = 9;
        let blame = crate::blame::Blame::from_records(&[
            TraceRecord {
                at: 5,
                event: TraceEvent::RequestArrived {
                    node: NodeId(0),
                    req: 0,
                },
            },
            TraceRecord {
                at: 25,
                event: TraceEvent::RequestDone {
                    node: NodeId(0),
                    req: 0,
                },
            },
        ])
        .summary(0.99, 4);
        let series = crate::series::Series::from_records(16, &[]).summary();
        let rep = Report::new("toy", &r, &st, &p, &sm)
            .with_sched(SchedSummary::from_stats(&st.sched))
            .with_blame(blame)
            .with_series(series);
        let text = rep.text();
        assert!(text.contains("scheduler windows"));
        assert!(text.contains("windows 10  serial-steps 3"));
        assert!(text.contains("blame (per-request"));
        assert!(text.contains("series (window 16"));
        let doc = Json::parse(&rep.json()).expect("valid json");
        let sc = doc.get("sched").unwrap();
        assert_eq!(sc.get("windows").unwrap().as_num(), Some(10.0));
        assert_eq!(sc.get("window_events").unwrap().as_num(), Some(40.0));
        assert_eq!(
            doc.get("blame").unwrap().get("completed").unwrap().as_num(),
            Some(1.0)
        );
        assert_eq!(
            doc.get("series").unwrap().get("window").unwrap().as_num(),
            Some(16.0)
        );
        // Without the builders, all three sections stay absent — the
        // determinism suites rely on default reports being
        // executor-invariant.
        let plain = Report::new("toy", &r, &st, &p, &sm);
        assert!(!plain.text().contains("scheduler windows"));
        let base = Json::parse(&plain.json()).unwrap();
        assert!(base.get("blame").is_none());
        assert!(base.get("series").is_none());
        assert!(base.get("sched").is_none());
    }
}
