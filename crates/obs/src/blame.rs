//! Per-request blame decomposition.
//!
//! A streaming [`Observer`] that follows each external request's blame
//! tag (`req + 1` on [`TraceEvent`] fields; see `hem_core::trace`)
//! through the causal chain and splits the request's sojourn —
//! `done.at − arrived.at` — into *tiling* segments:
//!
//! | category | meaning |
//! |---|---|
//! | [`BlameCat::Queue`]  | admission / inbox / scheduler wait |
//! | [`BlameCat::Exec`]   | on-node execution charged to the request |
//! | [`BlameCat::Wire`]   | first-copy wire transit |
//! | [`BlameCat::Lock`]   | deferred on a held object lock |
//! | [`BlameCat::Retx`]   | recovery via a retransmitted copy |
//!
//! The decomposition is a *frontier cursor*: each request keeps a single
//! virtual-time cursor starting at its arrival; every tagged event that
//! lands past the cursor pushes it forward and charges the gap to one
//! category. Concurrent branches (fan-out requests) therefore never
//! double-count — overlapped work hides behind the frontier — and the
//! segments sum to the sojourn *exactly*, by construction (the finalize
//! step pads a trailing `Exec` remainder or trims overshoot from the
//! tail). That hard invariant is what the property tests pin.
//!
//! Like every observer, the blame tracker is zero-virtual-time: traces,
//! clocks and makespan are bit-identical with it attached or not, and
//! because it is a pure function of the (executor-invariant) record
//! stream, its output is bit-identical across all three executors and
//! every thread count.

use std::collections::HashMap;
use std::fmt::Write as _;

use hem_core::{Observer, TraceEvent, TraceRecord};

use crate::hist::Log2Hist;
use crate::json::escape;

/// Where a slice of a request's sojourn went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlameCat {
    /// Waiting: admission-to-dispatch, inbox, or scheduler queue.
    Queue,
    /// Executing on a node (handler + charged work).
    Exec,
    /// First-copy wire transit.
    Wire,
    /// Deferred on a held object lock.
    Lock,
    /// Recovered via a retransmitted copy (lost/slow first copy).
    Retx,
}

impl BlameCat {
    /// All categories, report order.
    pub const ALL: [BlameCat; 5] = [
        BlameCat::Queue,
        BlameCat::Exec,
        BlameCat::Wire,
        BlameCat::Lock,
        BlameCat::Retx,
    ];

    /// Stable lowercase name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            BlameCat::Queue => "queue",
            BlameCat::Exec => "exec",
            BlameCat::Wire => "wire",
            BlameCat::Lock => "lock",
            BlameCat::Retx => "retx",
        }
    }

    fn index(self) -> usize {
        match self {
            BlameCat::Queue => 0,
            BlameCat::Exec => 1,
            BlameCat::Wire => 2,
            BlameCat::Lock => 3,
            BlameCat::Retx => 4,
        }
    }
}

impl std::fmt::Display for BlameCat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A request still in flight.
#[derive(Debug)]
struct LiveReq {
    arrived: u64,
    node: u32,
    cursor: u64,
    /// What the gap up to the next local-work dispatch is: `Queue`
    /// normally, `Lock` after a lock deferral.
    pending: BlameCat,
    segs: Vec<(BlameCat, u64)>,
}

impl LiveReq {
    fn advance(&mut self, cat: BlameCat, to: u64) {
        if to > self.cursor {
            self.segs.push((cat, to - self.cursor));
            self.cursor = to;
        }
    }
}

/// One completed request's blame record.
#[derive(Debug, Clone)]
pub struct RequestBlame {
    /// External request id.
    pub req: u64,
    /// Arrival (target) node.
    pub node: u32,
    /// Arrival time.
    pub arrived: u64,
    /// Reply-delivery time.
    pub done: u64,
    /// Tiling segments, causal order, adjacent categories merged.
    /// Invariant: the durations sum to exactly `done − arrived`.
    pub segs: Vec<(BlameCat, u64)>,
}

impl RequestBlame {
    /// The request's sojourn in cycles.
    pub fn sojourn(&self) -> u64 {
        self.done - self.arrived
    }

    /// Total cycles blamed on one category.
    pub fn total(&self, cat: BlameCat) -> u64 {
        self.segs.iter().filter(|s| s.0 == cat).map(|s| s.1).sum()
    }
}

/// The streaming blame tracker. Attach with
/// `rt.attach_observer(Box::new(Blame::new()))` (or inside a
/// [`crate::Fanout`] next to a rollup), or replay a drained trace with
/// [`Blame::from_records`] — both see the same stream, so both produce
/// identical output.
#[derive(Debug, Default)]
pub struct Blame {
    live: HashMap<u64, LiveReq>,
    finished: Vec<RequestBlame>,
    shed: u64,
    arrived: u64,
}

impl Blame {
    /// An empty tracker.
    pub fn new() -> Blame {
        Blame::default()
    }

    /// Replay a drained trace.
    pub fn from_records(records: &[TraceRecord]) -> Blame {
        let mut b = Blame::new();
        for r in records {
            b.feed(r);
        }
        b
    }

    /// Feed one record (the observer hook calls this).
    pub fn feed(&mut self, rec: &TraceRecord) {
        match rec.event {
            TraceEvent::RequestArrived { node, req } => {
                self.arrived += 1;
                self.live.insert(
                    req,
                    LiveReq {
                        arrived: rec.at,
                        node: node.0,
                        cursor: rec.at,
                        pending: BlameCat::Queue,
                        segs: Vec::new(),
                    },
                );
            }
            TraceEvent::RequestShed { .. } => self.shed += 1,
            // kind 1 = local work (a lock grant or a resumed context):
            // the gap since the frontier is whatever the request was last
            // waiting on. kind 0 steps are decomposed by their MsgHandled
            // (same timestamp, which carries the delivery time); kind 2
            // timer steps are never tagged.
            TraceEvent::EventStart { kind: 1, req, .. } if req != 0 => {
                if let Some(l) = self.live.get_mut(&(req - 1)) {
                    l.advance(l.pending, rec.at);
                    l.pending = BlameCat::Queue;
                }
            }
            TraceEvent::MsgHandled {
                req, deliver, retx, ..
            } if req != 0 => {
                if let Some(l) = self.live.get_mut(&(req - 1)) {
                    let wire = if retx { BlameCat::Retx } else { BlameCat::Wire };
                    l.advance(wire, deliver);
                    l.advance(BlameCat::Queue, rec.at);
                }
            }
            // Sends mark execution progress — except transport frames:
            // an ack is stamped at the moment of delivery (before the
            // delivery's own MsgHandled record), so charging it to Exec
            // would swallow the wire/retx split that record carries; and
            // the gap up to a retransmit send is timeout wait, part of
            // the retransmit penalty, not execution.
            TraceEvent::MsgSent { req, cause, .. } if req != 0 => {
                if let Some(l) = self.live.get_mut(&(req - 1)) {
                    match cause {
                        hem_core::MsgCause::Ack => {}
                        hem_core::MsgCause::Retransmit => l.advance(BlameCat::Retx, rec.at),
                        _ => l.advance(BlameCat::Exec, rec.at),
                    }
                }
            }
            TraceEvent::LockDeferred { req, .. } if req != 0 => {
                if let Some(l) = self.live.get_mut(&(req - 1)) {
                    l.advance(BlameCat::Exec, rec.at);
                    l.pending = BlameCat::Lock;
                }
            }
            TraceEvent::RequestDone { req, .. } => self.finalize(req, rec.at),
            _ => {}
        }
    }

    /// Close a request: make the segments tile `[arrived, done]` exactly,
    /// merge adjacent categories, move it to the finished list.
    fn finalize(&mut self, req: u64, done: u64) {
        let Some(mut l) = self.live.remove(&req) else {
            return; // arrival fell outside the observed stream
        };
        let target = done.saturating_sub(l.arrived);
        let sum: u64 = l.segs.iter().map(|s| s.1).sum();
        if sum < target {
            // The frontier trails the reply delivery: the remainder is
            // the final on-node stretch that produced the reply.
            l.segs.push((BlameCat::Exec, target - sum));
        } else if sum > target {
            // A concurrent branch (fan-out) pushed the frontier past the
            // reply; trim the overshoot off the tail.
            let mut over = sum - target;
            while over > 0 {
                let last = l.segs.last_mut().expect("overshoot implies segments");
                if last.1 > over {
                    last.1 -= over;
                    over = 0;
                } else {
                    over -= last.1;
                    l.segs.pop();
                }
            }
        }
        let mut segs: Vec<(BlameCat, u64)> = Vec::with_capacity(l.segs.len());
        for (cat, d) in l.segs {
            if d == 0 {
                continue;
            }
            match segs.last_mut() {
                Some(last) if last.0 == cat => last.1 += d,
                _ => segs.push((cat, d)),
            }
        }
        self.finished.push(RequestBlame {
            req,
            node: l.node,
            arrived: l.arrived,
            done,
            segs,
        });
    }

    /// Completed requests, in completion (stream) order.
    pub fn finished(&self) -> &[RequestBlame] {
        &self.finished
    }

    /// Requests that arrived but had not completed when the stream ended.
    pub fn incomplete(&self) -> u64 {
        self.live.len() as u64
    }

    /// Aggregate into a report section. `tail_q` is the sojourn quantile
    /// (e.g. `0.99`) above which requests are folded into the tail view;
    /// `top` bounds the per-request rows kept (slowest first, ties by
    /// request id).
    pub fn summary(&self, tail_q: f64, top: usize) -> BlameSummary {
        let mut s = BlameSummary {
            arrived: self.arrived,
            completed: self.finished.len() as u64,
            shed: self.shed,
            incomplete: self.incomplete(),
            tail_quantile: tail_q,
            ..BlameSummary::default()
        };
        for r in &self.finished {
            s.sojourn.add(r.sojourn());
            for &(cat, d) in &r.segs {
                s.totals[cat.index()] += d;
            }
        }
        s.tail_threshold = s.sojourn.quantile(tail_q);
        for r in &self.finished {
            if r.sojourn() >= s.tail_threshold {
                s.tail_count += 1;
                for &(cat, d) in &r.segs {
                    s.tail_totals[cat.index()] += d;
                }
            }
        }
        let mut slow: Vec<&RequestBlame> = self.finished.iter().collect();
        slow.sort_by(|a, b| b.sojourn().cmp(&a.sojourn()).then(a.req.cmp(&b.req)));
        s.slowest = slow.into_iter().take(top).cloned().collect();
        s
    }
}

impl Observer for Blame {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.feed(rec);
    }
}

/// The aggregate blame view a report carries.
#[derive(Debug, Clone, Default)]
pub struct BlameSummary {
    /// Requests that entered the machine.
    pub arrived: u64,
    /// Requests whose reply was delivered inside the stream.
    pub completed: u64,
    /// Requests the admission controller refused.
    pub shed: u64,
    /// Requests still in flight when the stream ended.
    pub incomplete: u64,
    /// Cycles blamed per category over all completions
    /// ([`BlameCat::ALL`] order); sums to the total of all sojourns.
    pub totals: [u64; 5],
    /// Sojourn distribution over completions.
    pub sojourn: Log2Hist,
    /// The quantile defining the tail view.
    pub tail_quantile: f64,
    /// Sojourn at that quantile; tail = completions at or above it.
    pub tail_threshold: u64,
    /// Completions in the tail.
    pub tail_count: u64,
    /// Cycles blamed per category over tail completions only.
    pub tail_totals: [u64; 5],
    /// Slowest completions (sojourn-descending, ties by id), bounded.
    pub slowest: Vec<RequestBlame>,
}

impl BlameSummary {
    fn share_line(totals: &[u64; 5]) -> String {
        let sum: u64 = totals.iter().sum();
        let mut o = String::new();
        for (i, cat) in BlameCat::ALL.iter().enumerate() {
            let _ = write!(
                o,
                "{}{} {} ({:.1}%)",
                if i == 0 { "" } else { "  " },
                cat,
                totals[i],
                100.0 * totals[i] as f64 / sum.max(1) as f64
            );
        }
        o
    }

    /// Render the text section.
    pub fn text(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(
            o,
            "blame (per-request sojourn decomposition; segments tile arrival -> reply exactly):"
        );
        let _ = writeln!(
            o,
            "  completed {}  incomplete-at-end {}  shed {}",
            self.completed, self.incomplete, self.shed
        );
        let _ = writeln!(
            o,
            "  sojourn (cycles, mean {:.1}): p50 {}  p95 {}  p99 {}  max {}",
            self.sojourn.mean(),
            self.sojourn.quantile(0.50),
            self.sojourn.quantile(0.95),
            self.sojourn.quantile(0.99),
            self.sojourn.max()
        );
        let _ = writeln!(o, "  all completions: {}", Self::share_line(&self.totals));
        let _ = writeln!(
            o,
            "  tail (p{:.0}+, {} reqs, sojourn >= {}): {}",
            100.0 * self.tail_quantile,
            self.tail_count,
            self.tail_threshold,
            Self::share_line(&self.tail_totals)
        );
        if !self.slowest.is_empty() {
            let _ = writeln!(o, "  slowest requests:");
            for r in &self.slowest {
                let mut segs = String::new();
                for (i, (cat, d)) in r.segs.iter().enumerate() {
                    let _ = write!(segs, "{}{cat}:{d}", if i == 0 { "" } else { " " });
                }
                let _ = writeln!(
                    o,
                    "    req {:>6} n{:<3} [{:>8}..{:>8}] sojourn {:>8}  {}",
                    r.req,
                    r.node,
                    r.arrived,
                    r.done,
                    r.sojourn(),
                    segs
                );
            }
        }
        o
    }

    fn totals_json(totals: &[u64; 5]) -> String {
        let mut o = String::from("{");
        for (i, cat) in BlameCat::ALL.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "\"{}\":{}", cat, totals[i]);
        }
        o.push('}');
        o
    }

    /// Render the JSON section (the value of the report's `"blame"` key).
    pub fn json(&self) -> String {
        let mut o = String::new();
        let _ = write!(
            o,
            "{{\"arrived\":{},\"completed\":{},\"shed\":{},\"incomplete\":{},\
             \"totals\":{},\"sojourn\":{{\"samples\":{},\"mean\":{:.6},\"max\":{},\
             \"p50\":{},\"p95\":{},\"p99\":{}}},\
             \"tail\":{{\"quantile\":{:.6},\"threshold\":{},\"count\":{},\"totals\":{}}},\
             \"slowest\":[",
            self.arrived,
            self.completed,
            self.shed,
            self.incomplete,
            Self::totals_json(&self.totals),
            self.sojourn.count(),
            self.sojourn.mean(),
            self.sojourn.max(),
            self.sojourn.quantile(0.50),
            self.sojourn.quantile(0.95),
            self.sojourn.quantile(0.99),
            self.tail_quantile,
            self.tail_threshold,
            self.tail_count,
            Self::totals_json(&self.tail_totals),
        );
        for (i, r) in self.slowest.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"req\":{},\"node\":{},\"arrived\":{},\"done\":{},\"sojourn\":{},\"segs\":[",
                r.req,
                r.node,
                r.arrived,
                r.done,
                r.sojourn()
            );
            for (j, (cat, d)) in r.segs.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                let _ = write!(o, "{{\"cat\":\"{}\",\"cycles\":{}}}", escape(cat.name()), d);
            }
            o.push_str("]}");
        }
        o.push_str("]}");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_core::{MsgCause, TraceEvent, TraceRecord};
    use hem_machine::NodeId;

    fn rec(at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { at, event }
    }

    fn arrived(at: u64, node: u32, req: u64) -> TraceRecord {
        rec(
            at,
            TraceEvent::RequestArrived {
                node: NodeId(node),
                req,
            },
        )
    }

    fn done(at: u64, node: u32, req: u64) -> TraceRecord {
        rec(
            at,
            TraceEvent::RequestDone {
                node: NodeId(node),
                req,
            },
        )
    }

    fn handled(at: u64, node: u32, req: u64, deliver: u64, retx: bool) -> TraceRecord {
        rec(
            at,
            TraceEvent::MsgHandled {
                node: NodeId(node),
                from: NodeId(0),
                wire: 0,
                cause: MsgCause::Request,
                req: req + 1,
                deliver,
                retx,
            },
        )
    }

    fn sent(at: u64, from: u32, req: u64) -> TraceRecord {
        rec(
            at,
            TraceEvent::MsgSent {
                from: NodeId(from),
                to: NodeId(1),
                words: 7,
                cause: MsgCause::Request,
                req: req + 1,
                wire: 0,
            },
        )
    }

    #[test]
    fn simple_rpc_decomposes_into_queue_exec_wire() {
        // Arrive at 100; dispatched (handled) at 120 after delivery at
        // 110; sends at 130; reply delivered at 150 and handled at 160;
        // done at 170.
        let recs = vec![
            arrived(100, 0, 0),
            handled(120, 0, 0, 110, false),
            sent(130, 0, 0),
            handled(160, 0, 0, 150, false),
            done(170, 0, 0),
        ];
        let b = Blame::from_records(&recs);
        assert_eq!(b.finished().len(), 1);
        let r = &b.finished()[0];
        assert_eq!(r.sojourn(), 70);
        assert_eq!(r.segs.iter().map(|s| s.1).sum::<u64>(), 70, "exact tiling");
        // 100..110 wire, 110..120 queue, 120..130 exec, 130..150 wire,
        // 150..160 queue, 160..170 exec.
        assert_eq!(r.total(BlameCat::Wire), 30);
        assert_eq!(r.total(BlameCat::Queue), 20);
        assert_eq!(r.total(BlameCat::Exec), 20);
        assert_eq!(r.total(BlameCat::Lock), 0);
        assert_eq!(r.total(BlameCat::Retx), 0);
    }

    #[test]
    fn retransmitted_copy_blames_retx_not_wire() {
        let recs = vec![
            arrived(0, 0, 0),
            handled(500, 0, 0, 480, true),
            done(520, 0, 0),
        ];
        let b = Blame::from_records(&recs);
        let r = &b.finished()[0];
        assert_eq!(r.sojourn(), 520);
        assert_eq!(r.total(BlameCat::Retx), 480);
        assert_eq!(r.total(BlameCat::Wire), 0);
        assert_eq!(r.total(BlameCat::Queue), 20);
        assert_eq!(r.total(BlameCat::Exec), 20);
    }

    #[test]
    fn lock_deferral_blames_the_wait_on_lock() {
        let recs = vec![
            arrived(0, 0, 0),
            handled(10, 0, 0, 5, false),
            rec(
                20,
                TraceEvent::LockDeferred {
                    node: NodeId(0),
                    obj: 3,
                    req: 1,
                },
            ),
            // Lock granted: local-work dispatch at 90.
            rec(
                90,
                TraceEvent::EventStart {
                    node: NodeId(0),
                    kind: 1,
                    req: 1,
                },
            ),
            done(100, 0, 0),
        ];
        let b = Blame::from_records(&recs);
        let r = &b.finished()[0];
        assert_eq!(r.sojourn(), 100);
        assert_eq!(r.total(BlameCat::Lock), 70, "deferral 20 -> grant 90");
        assert_eq!(r.total(BlameCat::Exec), 20 - 10 + 10);
        assert_eq!(
            r.segs.iter().map(|s| s.1).sum::<u64>(),
            r.sojourn(),
            "exact tiling"
        );
    }

    #[test]
    fn fork_overshoot_is_trimmed_to_the_sojourn() {
        // A side branch pushes the frontier to 300, but the reply landed
        // at 250: the trailing segments must be trimmed so the tiling
        // still holds.
        let recs = vec![
            arrived(0, 0, 0),
            handled(10, 0, 0, 5, false),
            sent(300, 0, 0), // concurrent branch, far frontier
            done(250, 0, 0),
        ];
        let b = Blame::from_records(&recs);
        let r = &b.finished()[0];
        assert_eq!(r.sojourn(), 250);
        assert_eq!(r.segs.iter().map(|s| s.1).sum::<u64>(), 250);
    }

    #[test]
    fn untagged_and_unknown_events_are_ignored() {
        let recs = vec![
            arrived(0, 0, 7),
            // Untagged traffic from a closed-system phase.
            rec(
                5,
                TraceEvent::MsgSent {
                    from: NodeId(0),
                    to: NodeId(1),
                    words: 7,
                    cause: MsgCause::Request,
                    req: 0,
                    wire: 0,
                },
            ),
            // A done for a request whose arrival we never saw.
            done(50, 0, 99),
            done(60, 0, 7),
        ];
        let b = Blame::from_records(&recs);
        assert_eq!(b.finished().len(), 1);
        assert_eq!(b.finished()[0].req, 7);
        assert_eq!(b.finished()[0].sojourn(), 60);
    }

    #[test]
    fn summary_aggregates_and_json_parses() {
        let recs = vec![
            arrived(0, 0, 0),
            handled(10, 0, 0, 5, false),
            done(20, 0, 0),
            arrived(0, 1, 1),
            handled(400, 1, 1, 395, false),
            done(420, 1, 1),
            rec(
                0,
                TraceEvent::RequestShed {
                    node: NodeId(0),
                    req: 2,
                },
            ),
            arrived(500, 0, 3), // never completes
        ];
        let b = Blame::from_records(&recs);
        let s = b.summary(0.99, 10);
        assert_eq!(s.completed, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.incomplete, 1);
        assert_eq!(s.totals.iter().sum::<u64>(), 20 + 420, "sojourns tile");
        assert_eq!(s.slowest.len(), 2);
        assert_eq!(s.slowest[0].req, 1, "slowest first");
        assert!(s.tail_count >= 1);
        let doc = crate::json::Json::parse(&s.json()).expect("valid json");
        assert_eq!(doc.get("completed").unwrap().as_num(), Some(2.0));
        let totals = doc.get("totals").unwrap();
        let mut sum = 0.0;
        for cat in BlameCat::ALL {
            sum += totals.get(cat.name()).unwrap().as_num().unwrap();
        }
        assert_eq!(sum as u64, 440);
        let slow = doc.get("slowest").unwrap().as_arr().unwrap();
        assert_eq!(slow.len(), 2);
        let segs = slow[0].get("segs").unwrap().as_arr().unwrap();
        let seg_sum: f64 = segs
            .iter()
            .map(|s| s.get("cycles").unwrap().as_num().unwrap())
            .sum();
        assert_eq!(
            seg_sum as u64,
            slow[0].get("sojourn").unwrap().as_num().unwrap() as u64
        );
        let text = s.text();
        assert!(text.contains("completed 2"));
        assert!(text.contains("slowest requests:"));
    }

    #[test]
    fn observer_and_replay_agree() {
        let recs = vec![
            arrived(0, 0, 0),
            handled(10, 0, 0, 5, false),
            sent(15, 0, 0),
            handled(40, 0, 0, 30, false),
            done(45, 0, 0),
        ];
        let mut obs = Blame::new();
        for r in &recs {
            obs.on_record(r);
        }
        obs.on_flush();
        let replay = Blame::from_records(&recs);
        assert_eq!(obs.summary(0.99, 4).json(), replay.summary(0.99, 4).json());
    }
}
