//! Chrome/Perfetto `trace_event` export.
//!
//! Serializes a [`Timeline`] into the JSON Trace Event Format that
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly:
//!
//! * each simulated node becomes a *process* (`pid` = node id) with two
//!   tracks: `tid` 0 "sched" (scheduler steps as `X` complete slices) and
//!   `tid` 1 "contexts" (heap-context residency as `b`/`e` async spans);
//! * joined message flows become `s`/`f` flow arrows from the sender's
//!   sched track to the receiver's;
//! * fallbacks and shell adoptions become instant events — the moments
//!   the hybrid model *adapted*.
//!
//! Virtual cycles are written one-per-microsecond (the format's `ts`
//! unit), so "1 µs" in the UI reads as one machine cycle. The writer is
//! hand-rolled — the environment has no serde — and its output is
//! validated by the integration tests through [`crate::json`].

use std::fmt::Write as _;

use hem_core::TraceEvent;
use hem_ir::Program;
use hem_machine::Cycles;

use crate::model::Timeline;
use hem_core::TraceRecord;

/// Track ids within a node's process.
const TID_SCHED: u32 = 0;
const TID_CTX: u32 = 1;
const TID_REQ: u32 = 2;

struct W {
    out: String,
    first: bool,
}

impl W {
    fn new() -> W {
        W {
            out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    /// Append one event object (the caller provides the inner fields).
    fn event(&mut self, inner: std::fmt::Arguments<'_>) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push('{');
        let _ = self.out.write_fmt(inner);
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

fn esc(s: &str) -> String {
    crate::json::escape(s)
}

/// Serialize a timeline (plus the raw records, for instants) to a
/// Perfetto-loadable JSON string.
pub fn to_json(records: &[TraceRecord], tl: &Timeline, program: &Program) -> String {
    to_json_full(records, tl, program, None)
}

/// [`to_json`], optionally with virtual-time series counter tracks: a
/// synthetic "series" process whose `C` (counter) events plot the
/// windowed load (arrived/done/shed), in-flight requests, queue-wait
/// integral, and total node occupancy over virtual time — one sample per
/// series window, stamped at the window's start.
pub fn to_json_full(
    records: &[TraceRecord],
    tl: &Timeline,
    program: &Program,
    series: Option<&crate::SeriesSummary>,
) -> String {
    let mut w = W::new();

    if let Some(se) = series {
        // A process above the node pids (pid `n_nodes` stays unused).
        let pid = tl.n_nodes + 1;
        w.event(format_args!(
            "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"series (window {} cycles)\"}}",
            se.window
        ));
        for b in &se.buckets {
            let ts = b.start;
            w.event(format_args!(
                "\"ph\":\"C\",\"cat\":\"series\",\"name\":\"load\",\"pid\":{pid},\"tid\":0,\
                 \"ts\":{ts},\"args\":{{\"arrived\":{},\"done\":{},\"shed\":{}}}",
                b.arrived, b.done, b.shed
            ));
            w.event(format_args!(
                "\"ph\":\"C\",\"cat\":\"series\",\"name\":\"in-flight\",\"pid\":{pid},\
                 \"tid\":0,\"ts\":{ts},\"args\":{{\"requests\":{}}}",
                b.in_flight
            ));
            w.event(format_args!(
                "\"ph\":\"C\",\"cat\":\"series\",\"name\":\"queue wait\",\"pid\":{pid},\
                 \"tid\":0,\"ts\":{ts},\"args\":{{\"cycles\":{}}}",
                b.queue_wait
            ));
            w.event(format_args!(
                "\"ph\":\"C\",\"cat\":\"series\",\"name\":\"occupancy\",\"pid\":{pid},\
                 \"tid\":0,\"ts\":{ts},\"args\":{{\"busy_cycles\":{}}}",
                b.busy_total()
            ));
        }
    }

    // Process/thread naming metadata.
    for n in 0..tl.n_nodes {
        w.event(format_args!(
            "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{n},\"tid\":0,\
             \"args\":{{\"name\":\"node {n}\"}}"
        ));
        w.event(format_args!(
            "\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{n},\"tid\":{TID_SCHED},\
             \"args\":{{\"name\":\"sched\"}}"
        ));
        w.event(format_args!(
            "\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{n},\"tid\":{TID_CTX},\
             \"args\":{{\"name\":\"contexts\"}}"
        ));
        if !tl.requests.is_empty() {
            w.event(format_args!(
                "\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{n},\"tid\":{TID_REQ},\
                 \"args\":{{\"name\":\"requests\"}}"
            ));
        }
    }

    // Scheduler steps as complete slices.
    for steps in &tl.steps {
        for s in steps {
            w.event(format_args!(
                "\"ph\":\"X\",\"cat\":\"sched\",\"name\":\"{}\",\"pid\":{},\
                 \"tid\":{TID_SCHED},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"msgs\":{}}}",
                s.kind_name(),
                s.node,
                s.start,
                s.end - s.start,
                s.msgs.len(),
            ));
        }
    }

    // Context residency as async spans (id = span index; ids are unique
    // trace-wide so `cat`+`id` matching never collides across reuse).
    for (i, c) in tl.ctx_spans.iter().enumerate() {
        let name = format!(
            "{}{} ctx{}",
            if c.fallback { "fallback " } else { "" },
            esc(&program.method(c.method).name),
            c.ctx
        );
        w.event(format_args!(
            "\"ph\":\"b\",\"cat\":\"ctx\",\"name\":\"{name}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_CTX},\"ts\":{}",
            c.node, c.start
        ));
        let end = c.end.unwrap_or(tl.makespan);
        w.event(format_args!(
            "\"ph\":\"e\",\"cat\":\"ctx\",\"name\":\"{name}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_CTX},\"ts\":{end}",
            c.node
        ));
    }

    // External request sojourns (open-system runs) as async spans on the
    // target node's "requests" track; shed requests are instants. Ids are
    // unique within `cat` "req", so they never collide with ctx spans.
    for (i, r) in tl.requests.iter().enumerate() {
        if r.shed {
            w.event(format_args!(
                "\"ph\":\"i\",\"s\":\"t\",\"cat\":\"req\",\"name\":\"shed req{}\",\
                 \"pid\":{},\"tid\":{TID_REQ},\"ts\":{}",
                r.req, r.node, r.start
            ));
            continue;
        }
        let name = format!("req{}", r.req);
        w.event(format_args!(
            "\"ph\":\"b\",\"cat\":\"req\",\"name\":\"{name}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_REQ},\"ts\":{}",
            r.node, r.start
        ));
        let end = r.end.unwrap_or(tl.makespan).max(r.start);
        w.event(format_args!(
            "\"ph\":\"e\",\"cat\":\"req\",\"name\":\"{name}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_REQ},\"ts\":{end}",
            r.node
        ));
    }

    // Message flows as arrows between sched tracks.
    for (i, f) in tl.flows.iter().enumerate() {
        w.event(format_args!(
            "\"ph\":\"s\",\"cat\":\"msg\",\"name\":\"{}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_SCHED},\"ts\":{}",
            f.cause, f.from, f.sent_at
        ));
        w.event(format_args!(
            "\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"msg\",\"name\":\"{}\",\"id\":{i},\
             \"pid\":{},\"tid\":{TID_SCHED},\"ts\":{}",
            f.cause, f.to, f.handled_at
        ));
    }

    // Adaptation instants.
    for r in records {
        match r.event {
            TraceEvent::Fallback { node, method, .. } => instant(
                &mut w,
                node.0,
                r.at,
                &format!("fallback {}", esc(&program.method(method).name)),
            ),
            TraceEvent::ShellAdopted { node, method, .. } => instant(
                &mut w,
                node.0,
                r.at,
                &format!("shell adopted {}", esc(&program.method(method).name)),
            ),
            TraceEvent::Retransmit { node, to, attempt } => instant(
                &mut w,
                node.0,
                r.at,
                &format!("retransmit->n{} #{attempt}", to.0),
            ),
            _ => {}
        }
    }

    w.finish()
}

fn instant(w: &mut W, node: u32, at: Cycles, name: &str) {
    w.event(format_args!(
        "\"ph\":\"i\",\"s\":\"t\",\"cat\":\"adapt\",\"name\":\"{name}\",\
         \"pid\":{node},\"tid\":{TID_SCHED},\"ts\":{at}"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use hem_core::MsgCause;
    use hem_machine::NodeId;

    fn program_with_one_method() -> Program {
        let mut pb = hem_ir::ProgramBuilder::new();
        let c = pb.class("C", false);
        let m = pb.declare(c, "m", 0);
        pb.define(m, |mb| mb.reply(0));
        pb.finish()
    }

    #[test]
    fn series_counter_track_is_optional_and_parses() {
        let a = NodeId(0);
        let recs = vec![
            TraceRecord {
                at: 0,
                event: TraceEvent::EventStart {
                    node: a,
                    kind: 1,
                    req: 0,
                },
            },
            TraceRecord {
                at: 6,
                event: TraceEvent::EventEnd { node: a },
            },
        ];
        let tl = Timeline::build(&recs, 2);
        let program = program_with_one_method();
        // Without a summary the output is unchanged: no counter events.
        let plain = Json::parse(&to_json(&recs, &tl, &program)).expect("valid JSON");
        let count_c = |doc: &Json| {
            doc.get("traceEvents")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C"))
                .count()
        };
        assert_eq!(count_c(&plain), 0);
        let series = crate::SeriesSummary {
            window: 4,
            nodes: 2,
            buckets: vec![crate::series::SeriesBucket {
                start: 0,
                arrived: 3,
                done: 2,
                shed: 1,
                in_flight: 1,
                queue_wait: 5,
                busy: vec![4, 2],
            }],
        };
        let out = to_json_full(&recs, &tl, &program, Some(&series));
        let doc = Json::parse(&out).expect("valid JSON");
        assert_eq!(count_c(&doc), 4, "load, in-flight, queue-wait, occupancy");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let load = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("load"))
            .expect("load counter");
        let args = load.get("args").unwrap();
        assert_eq!(args.get("arrived").unwrap().as_num(), Some(3.0));
        assert_eq!(args.get("shed").unwrap().as_num(), Some(1.0));
        // The counter track lives on its own pid above the node pids.
        assert_eq!(load.get("pid").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn exports_valid_json_with_slices_flows_and_spans() {
        let a = NodeId(0);
        let b = NodeId(1);
        let recs = vec![
            TraceRecord {
                at: 0,
                event: TraceEvent::EventStart {
                    node: a,
                    kind: 1,
                    req: 0,
                },
            },
            TraceRecord {
                at: 1,
                event: TraceEvent::ParInvoke {
                    node: a,
                    method: hem_ir::MethodId(0),
                    ctx: 0,
                },
            },
            TraceRecord {
                at: 2,
                event: TraceEvent::MsgSent {
                    from: a,
                    to: b,
                    words: 3,
                    cause: MsgCause::Request,
                    req: 0,
                    wire: 0,
                },
            },
            TraceRecord {
                at: 5,
                event: TraceEvent::CtxFreed { node: a, ctx: 0 },
            },
            TraceRecord {
                at: 6,
                event: TraceEvent::EventEnd { node: a },
            },
            TraceRecord {
                at: 9,
                event: TraceEvent::EventStart {
                    node: b,
                    kind: 0,
                    req: 0,
                },
            },
            TraceRecord {
                at: 9,
                event: TraceEvent::MsgHandled {
                    node: b,
                    from: a,
                    wire: 0,
                    cause: MsgCause::Request,
                    req: 0,
                    deliver: 0,
                    retx: false,
                },
            },
            TraceRecord {
                at: 12,
                event: TraceEvent::EventEnd { node: b },
            },
        ];
        let tl = Timeline::build(&recs, 2);
        let program = program_with_one_method();
        let out = to_json(&recs, &tl, &program);
        let doc = Json::parse(&out).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(p))
                .count()
        };
        assert_eq!(ph("X"), 2, "one slice per step");
        assert_eq!(ph("s"), 1, "flow start");
        assert_eq!(ph("f"), 1, "flow end");
        assert_eq!(ph("b"), 1, "ctx span begin");
        assert_eq!(ph("e"), 1, "ctx span end");
        assert!(ph("M") >= 6, "naming metadata per node");
        // No open-system records: no "requests" track metadata.
        assert!(
            !events
                .iter()
                .any(|e| { e.get("cat").and_then(|v| v.as_str()) == Some("req") }),
            "closed-system trace has no request events"
        );
        // Every node has at least one slice.
        for n in 0..2 {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(|v| v.as_str()) == Some("X")
                        && e.get("pid").and_then(|v| v.as_num()) == Some(n as f64)
                }),
                "node {n} has a slice"
            );
        }
    }

    #[test]
    fn request_spans_export_on_their_own_track() {
        let n = NodeId(0);
        let recs = vec![
            TraceRecord {
                at: 10,
                event: TraceEvent::RequestArrived { node: n, req: 1 },
            },
            TraceRecord {
                at: 12,
                event: TraceEvent::RequestShed { node: n, req: 2 },
            },
            TraceRecord {
                at: 11,
                event: TraceEvent::EventStart {
                    node: n,
                    kind: 0,
                    req: 0,
                },
            },
            TraceRecord {
                at: 30,
                event: TraceEvent::RequestDone { node: n, req: 1 },
            },
            TraceRecord {
                at: 30,
                event: TraceEvent::EventEnd { node: n },
            },
        ];
        let tl = Timeline::build(&recs, 1);
        let program = program_with_one_method();
        let out = to_json(&recs, &tl, &program);
        let doc = Json::parse(&out).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let req = |p: &str| {
            events
                .iter()
                .filter(|e| {
                    e.get("cat").and_then(|v| v.as_str()) == Some("req")
                        && e.get("ph").and_then(|v| v.as_str()) == Some(p)
                })
                .count()
        };
        assert_eq!(req("b"), 1, "one request span begin");
        assert_eq!(req("e"), 1, "one request span end");
        assert_eq!(req("i"), 1, "shed instant");
        assert!(
            events.iter().any(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    == Some("requests")
            }),
            "requests track named"
        );
    }
}
