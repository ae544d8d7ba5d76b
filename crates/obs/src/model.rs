//! Timeline reconstruction from the trace stream.
//!
//! `EventStart`/`EventEnd` pairs delimit scheduler steps; records between
//! a pair belong to the step. Records emitted *outside* any step come from
//! root invocations driven by the harness (`Runtime::call` runs the first
//! activation inline before the dispatch loop starts) and are folded into
//! synthetic *root* steps.
//!
//! Message sends join their handles exactly, on the wire id every wire
//! record carries. A table maps each wire id to its send time and its
//! live copies: `MsgSent` inserts an entry with one copy,
//! `MsgDuplicated` adds a copy, and each fate record (`MsgHandled`,
//! `DupSuppressed`, `MsgDropped`) consumes one, removing the entry at
//! zero. The table therefore holds only copies still in flight. A handle
//! whose send is not in the trace (an external arrival, or a send lost
//! off the front of a bounded ring) has no send time and no flow.

use std::collections::HashMap;

use hem_core::{MsgCause, TraceEvent, TraceRecord};
use hem_ir::MethodId;
use hem_machine::Cycles;

/// Step kinds: the dispatch-loop candidate kinds plus the synthetic root.
pub const KIND_MSG: u8 = 0;
/// Local work (lock grant or ready context).
pub const KIND_LOCAL: u8 = 1;
/// Retransmission-timer sweep.
pub const KIND_TIMERS: u8 = 2;
/// Synthetic: harness-driven root invocation outside the dispatch loop.
pub const KIND_ROOT: u8 = 3;

/// A message arrival consumed by a step, with its joined send when known.
#[derive(Debug, Clone, Copy)]
pub struct MsgIn {
    /// Sender node.
    pub from: u32,
    /// Joined send time on the sender, when the send was in the trace.
    pub sent_at: Option<Cycles>,
}

/// One scheduler step (or synthetic root span) on a node.
#[derive(Debug, Clone)]
pub struct Step {
    /// The node.
    pub node: u32,
    /// `KIND_MSG` / `KIND_LOCAL` / `KIND_TIMERS` / `KIND_ROOT`.
    pub kind: u8,
    /// Clock when the step began.
    pub start: Cycles,
    /// Clock after all work charged in the step.
    pub end: Cycles,
    /// Messages handled within the step, in handle order: the first is
    /// the dispatched one for a message step, later ones are nested
    /// deliveries during sends.
    pub msgs: Vec<MsgIn>,
}

impl Step {
    /// Human name of the step kind.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            KIND_MSG => "handle msg",
            KIND_LOCAL => "local work",
            KIND_TIMERS => "retx timers",
            _ => "root",
        }
    }
}

/// A context's residency span (allocation → free; `end` is `None` when the
/// run finished with the context still live).
#[derive(Debug, Clone, Copy)]
pub struct CtxSpan {
    /// Node.
    pub node: u32,
    /// Context index (reused after free; spans for one index never
    /// overlap).
    pub ctx: u32,
    /// Method, when the allocation event named one.
    pub method: MethodId,
    /// True when created by fallback (vs an eager parallel invocation).
    pub fallback: bool,
    /// Allocation time.
    pub start: Cycles,
    /// Free time.
    pub end: Option<Cycles>,
}

/// A joined send → handle pair.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Sender.
    pub from: u32,
    /// Send time (sender clock).
    pub sent_at: Cycles,
    /// Receiver.
    pub to: u32,
    /// Handle time (receiver clock).
    pub handled_at: Cycles,
    /// Payload kind.
    pub cause: MsgCause,
}

/// An external request's sojourn through the machine (open-system mode):
/// arrival (offered-load stamp) to completion on the serving node. Shed
/// requests get a zero-length span flagged `shed`.
#[derive(Debug, Clone, Copy)]
pub struct ReqSpan {
    /// Request id.
    pub req: u64,
    /// Target node.
    pub node: u32,
    /// Arrival time (wall stamp of the arrival process — may be ahead of
    /// the node's clock).
    pub start: Cycles,
    /// Completion time on the serving node (`None`: still in flight at
    /// the horizon).
    pub end: Option<Cycles>,
    /// True when admission control refused the request.
    pub shed: bool,
}

/// An interval during which a node had at least one suspended context.
#[derive(Debug, Clone, Copy)]
pub struct SuspendSpan {
    /// Suspend time.
    pub start: Cycles,
    /// Resume time (`None`: still suspended at the end — a deadlocked or
    /// trapped run).
    pub end: Option<Cycles>,
}

/// The reconstructed timeline.
#[derive(Debug)]
pub struct Timeline {
    /// Number of nodes (highest node id seen + 1, or as told by the
    /// caller via [`Timeline::build`]).
    pub n_nodes: usize,
    /// Per-node steps, in start order.
    pub steps: Vec<Vec<Step>>,
    /// Context spans, in allocation order.
    pub ctx_spans: Vec<CtxSpan>,
    /// Joined message flows, in handle order.
    pub flows: Vec<Flow>,
    /// Per-node suspend intervals, in start order (may overlap when
    /// several contexts are suspended at once).
    pub suspends: Vec<Vec<SuspendSpan>>,
    /// External request spans, in arrival order (empty for closed-system
    /// runs).
    pub requests: Vec<ReqSpan>,
    /// Per-node clock at the last record.
    pub node_end: Vec<Cycles>,
    /// Largest node clock seen.
    pub makespan: Cycles,
}

impl Timeline {
    /// Reconstruct a timeline from a drained trace. `n_nodes` must be at
    /// least the machine size (node ids beyond it grow the vectors).
    pub fn build(records: &[TraceRecord], n_nodes: usize) -> Timeline {
        let mut b = Builder::new(n_nodes);
        for r in records {
            b.feed(r);
        }
        b.finish()
    }
}

struct Builder {
    steps: Vec<Vec<Step>>,
    open: Vec<Option<Step>>,
    /// Open step is synthetic root (close it on the next EventStart).
    open_is_root: Vec<bool>,
    ctx_spans: Vec<CtxSpan>,
    open_ctx: HashMap<(u32, u32), usize>,
    flows: Vec<Flow>,
    /// Wire id → (send time, copies not yet consumed).
    in_flight: HashMap<u64, (Cycles, u32)>,
    suspends: Vec<Vec<SuspendSpan>>,
    open_susp: HashMap<(u32, u32), usize>,
    requests: Vec<ReqSpan>,
    open_req: HashMap<u64, usize>,
    node_end: Vec<Cycles>,
}

impl Builder {
    fn new(n_nodes: usize) -> Builder {
        Builder {
            steps: vec![Vec::new(); n_nodes],
            open: (0..n_nodes).map(|_| None).collect(),
            open_is_root: vec![false; n_nodes],
            ctx_spans: Vec::new(),
            open_ctx: HashMap::new(),
            flows: Vec::new(),
            in_flight: HashMap::new(),
            suspends: vec![Vec::new(); n_nodes],
            open_susp: HashMap::new(),
            requests: Vec::new(),
            open_req: HashMap::new(),
            node_end: vec![0; n_nodes],
        }
    }

    fn grow(&mut self, node: u32) {
        let need = node as usize + 1;
        if need > self.steps.len() {
            self.steps.resize_with(need, Vec::new);
            self.open.resize_with(need, || None);
            self.open_is_root.resize(need, false);
            self.suspends.resize_with(need, Vec::new);
            self.node_end.resize(need, 0);
        }
    }

    fn close_open(&mut self, node: u32, end: Cycles) {
        if let Some(mut s) = self.open[node as usize].take() {
            s.end = s.end.max(end);
            self.steps[node as usize].push(s);
            self.open_is_root[node as usize] = false;
        }
    }

    /// Record on-node activity at `at` outside any open step: open (or
    /// extend) a synthetic root step.
    fn touch_root(&mut self, node: u32, at: Cycles) {
        let ni = node as usize;
        match &mut self.open[ni] {
            Some(s) => s.end = s.end.max(at),
            None => {
                self.open[ni] = Some(Step {
                    node,
                    kind: KIND_ROOT,
                    start: at,
                    end: at,
                    msgs: Vec::new(),
                });
                self.open_is_root[ni] = true;
            }
        }
    }

    fn feed(&mut self, rec: &TraceRecord) {
        let node = crate::event_node(&rec.event);
        self.grow(node);
        let ni = node as usize;

        // Arrival-process stamps are *offered load*, not node activity:
        // the arrival time can be ahead of the target node's clock, so
        // they must neither advance `node_end` nor open a root step.
        match rec.event {
            TraceEvent::RequestArrived { node, req } => {
                let idx = self.requests.len();
                self.requests.push(ReqSpan {
                    req,
                    node: node.0,
                    start: rec.at,
                    end: None,
                    shed: false,
                });
                self.open_req.insert(req, idx);
                return;
            }
            TraceEvent::RequestShed { node, req } => {
                self.requests.push(ReqSpan {
                    req,
                    node: node.0,
                    start: rec.at,
                    end: Some(rec.at),
                    shed: true,
                });
                return;
            }
            _ => {}
        }

        self.node_end[ni] = self.node_end[ni].max(rec.at);

        match rec.event {
            TraceEvent::EventStart { node, kind, .. } => {
                // A still-open step (a root span, or a step whose
                // `EventEnd` a trap skipped) ends where its last record
                // was.
                if let Some(prev_end) = self.open[ni].as_ref().map(|s| s.end) {
                    self.close_open(node.0, prev_end);
                }
                self.open[ni] = Some(Step {
                    node: node.0,
                    kind,
                    start: rec.at,
                    end: rec.at,
                    msgs: Vec::new(),
                });
            }
            TraceEvent::EventEnd { .. } => {
                self.close_open(node, rec.at);
            }
            TraceEvent::MsgSent { wire, .. } => {
                self.touch_activity(node, rec.at);
                self.in_flight.insert(wire, (rec.at, 1));
            }
            TraceEvent::MsgDuplicated { wire, .. } => {
                self.touch_activity(node, rec.at);
                if let Some((_, copies)) = self.in_flight.get_mut(&wire) {
                    *copies += 1;
                }
            }
            TraceEvent::DupSuppressed { wire, .. } | TraceEvent::MsgDropped { wire, .. } => {
                self.touch_activity(node, rec.at);
                self.consume(wire);
            }
            TraceEvent::MsgHandled {
                node: n,
                from,
                wire,
                cause,
                ..
            } => {
                self.touch_activity(node, rec.at);
                let sent_at = self.consume(wire);
                if let Some(sent_at) = sent_at {
                    self.flows.push(Flow {
                        from: from.0,
                        sent_at,
                        to: n.0,
                        handled_at: rec.at,
                        cause,
                    });
                }
                let m = MsgIn {
                    from: from.0,
                    sent_at,
                };
                match &mut self.open[ni] {
                    Some(s) => s.msgs.push(m),
                    None => unreachable!("touch_activity opened a step"),
                }
            }
            TraceEvent::ParInvoke { node, method, ctx }
            | TraceEvent::Fallback { node, method, ctx } => {
                self.touch_activity(node.0, rec.at);
                let fallback = matches!(rec.event, TraceEvent::Fallback { .. });
                let idx = self.ctx_spans.len();
                self.ctx_spans.push(CtxSpan {
                    node: node.0,
                    ctx,
                    method,
                    fallback,
                    start: rec.at,
                    end: None,
                });
                self.open_ctx.insert((node.0, ctx), idx);
            }
            TraceEvent::CtxFreed { node, ctx } => {
                self.touch_activity(node.0, rec.at);
                if let Some(idx) = self.open_ctx.remove(&(node.0, ctx)) {
                    self.ctx_spans[idx].end = Some(rec.at);
                }
            }
            TraceEvent::Suspend { node, ctx } => {
                self.touch_activity(node.0, rec.at);
                let idx = self.suspends[ni].len();
                self.suspends[ni].push(SuspendSpan {
                    start: rec.at,
                    end: None,
                });
                self.open_susp.insert((node.0, ctx), idx);
            }
            TraceEvent::Resume { node, ctx } => {
                self.touch_activity(node.0, rec.at);
                if let Some(idx) = self.open_susp.remove(&(node.0, ctx)) {
                    self.suspends[ni][idx].end = Some(rec.at);
                }
            }
            TraceEvent::RequestDone { req, .. } => {
                self.touch_activity(node, rec.at);
                if let Some(idx) = self.open_req.remove(&req) {
                    self.requests[idx].end = Some(rec.at);
                }
            }
            _ => {
                self.touch_activity(node, rec.at);
            }
        }
    }

    /// On-node activity at `at`: extend the open step, or open a root
    /// step when the node is acting outside the dispatch loop.
    fn touch_activity(&mut self, node: u32, at: Cycles) {
        let ni = node as usize;
        match &mut self.open[ni] {
            Some(s) => s.end = s.end.max(at),
            None => self.touch_root(node, at),
        }
    }

    /// Consume one copy of wire id `wire`, returning its send time when
    /// the send is in the trace.
    fn consume(&mut self, wire: u64) -> Option<Cycles> {
        let (sent_at, copies) = self.in_flight.get_mut(&wire)?;
        let sent_at = *sent_at;
        *copies -= 1;
        if *copies == 0 {
            self.in_flight.remove(&wire);
        }
        Some(sent_at)
    }

    fn finish(mut self) -> Timeline {
        for ni in 0..self.open.len() {
            if let Some(s) = self.open[ni].take() {
                self.steps[ni].push(s);
            }
        }
        let makespan = self.node_end.iter().copied().max().unwrap_or(0);
        Timeline {
            n_nodes: self.steps.len(),
            steps: self.steps,
            ctx_spans: self.ctx_spans,
            flows: self.flows,
            suspends: self.suspends,
            requests: self.requests,
            node_end: self.node_end,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_machine::NodeId;

    fn rec(at: Cycles, event: TraceEvent) -> TraceRecord {
        TraceRecord { at, event }
    }

    #[test]
    fn steps_bracket_their_records() {
        let n = NodeId(0);
        let recs = vec![
            rec(
                5,
                TraceEvent::EventStart {
                    node: n,
                    kind: KIND_LOCAL,
                    req: 0,
                },
            ),
            rec(
                9,
                TraceEvent::StackComplete {
                    node: n,
                    method: MethodId(0),
                    schema: hem_analysis::Schema::MayBlock,
                },
            ),
            rec(12, TraceEvent::EventEnd { node: n }),
        ];
        let tl = Timeline::build(&recs, 1);
        assert_eq!(tl.steps[0].len(), 1);
        let s = &tl.steps[0][0];
        assert_eq!((s.start, s.end, s.kind), (5, 12, KIND_LOCAL));
        assert_eq!(tl.makespan, 12);
    }

    #[test]
    fn root_activity_outside_steps_becomes_a_root_step() {
        let n = NodeId(0);
        let recs = vec![
            rec(
                2,
                TraceEvent::Inlined {
                    node: n,
                    method: MethodId(1),
                },
            ),
            rec(
                7,
                TraceEvent::MsgSent {
                    from: n,
                    to: NodeId(1),
                    words: 3,
                    cause: MsgCause::Request,
                    req: 0,
                    wire: 0,
                },
            ),
            rec(
                10,
                TraceEvent::EventStart {
                    node: n,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(11, TraceEvent::EventEnd { node: n }),
        ];
        let tl = Timeline::build(&recs, 2);
        assert_eq!(tl.steps[0].len(), 2);
        assert_eq!(tl.steps[0][0].kind, KIND_ROOT);
        assert_eq!((tl.steps[0][0].start, tl.steps[0][0].end), (2, 7));
        assert_eq!(tl.steps[0][1].kind, KIND_MSG);
    }

    /// Wire id of `from`'s `k`-th injection.
    fn wire(k: u64, from: NodeId) -> u64 {
        (k << 20) | from.0 as u64
    }

    fn sent(at: Cycles, from: NodeId, to: NodeId, cause: MsgCause, wire: u64) -> TraceRecord {
        rec(
            at,
            TraceEvent::MsgSent {
                from,
                to,
                words: 2,
                cause,
                req: 0,
                wire,
            },
        )
    }

    /// A message step on `node` at `at` that handles wire id `wire`.
    fn handle_step(
        at: Cycles,
        node: NodeId,
        from: NodeId,
        cause: MsgCause,
        wire: u64,
    ) -> [TraceRecord; 3] {
        [
            rec(
                at,
                TraceEvent::EventStart {
                    node,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(
                at,
                TraceEvent::MsgHandled {
                    node,
                    from,
                    wire,
                    cause,
                    req: 0,
                    deliver: at,
                    retx: false,
                },
            ),
            rec(at + 1, TraceEvent::EventEnd { node }),
        ]
    }

    /// Build the timeline, also returning how many wire ids the join
    /// table still holds at the end.
    fn build(recs: &[TraceRecord], n_nodes: usize) -> (Timeline, usize) {
        let mut b = Builder::new(n_nodes);
        for r in recs {
            b.feed(r);
        }
        let left = b.in_flight.len();
        (b.finish(), left)
    }

    #[test]
    fn same_link_sends_handled_in_reverse_order_join_by_wire_id() {
        // Two requests a → b of the same cause, handled in the opposite
        // order (a deeper tree leg or jitter overtook the first). A FIFO
        // per (from, to, cause) pairs them crosswise.
        let (a, b) = (NodeId(0), NodeId(1));
        let (w1, w2) = (wire(0, a), wire(1, a));
        let mut recs = vec![
            sent(1, a, b, MsgCause::Request, w1),
            sent(4, a, b, MsgCause::Request, w2),
        ];
        recs.extend(handle_step(6, b, a, MsgCause::Request, w2));
        recs.extend(handle_step(9, b, a, MsgCause::Request, w1));
        let (tl, left) = build(&recs, 2);
        let pairs: Vec<_> = tl.flows.iter().map(|f| (f.sent_at, f.handled_at)).collect();
        assert_eq!(pairs, vec![(4, 6), (1, 9)]);
        assert_eq!(tl.steps[1][0].msgs[0].sent_at, Some(4));
        assert_eq!(left, 0);
    }

    #[test]
    fn handle_of_a_lost_original_joins_the_retransmit() {
        let (a, b) = (NodeId(0), NodeId(1));
        let (orig, retx) = (wire(0, a), wire(1, a));
        let mut recs = vec![
            sent(1, a, b, MsgCause::Request, orig),
            rec(
                1,
                TraceEvent::MsgDropped {
                    from: a,
                    to: b,
                    wire: orig,
                    partitioned: false,
                },
            ),
            sent(40, a, b, MsgCause::Retransmit, retx),
        ];
        recs.extend(handle_step(45, b, a, MsgCause::Request, retx));
        let (tl, left) = build(&recs, 2);
        assert_eq!(tl.flows.len(), 1);
        assert_eq!((tl.flows[0].sent_at, tl.flows[0].handled_at), (40, 45));
        assert_eq!(left, 0, "the drop consumed the original's only copy");
    }

    #[test]
    fn both_copies_of_a_duplicated_ack_join_the_one_send() {
        let (a, b) = (NodeId(0), NodeId(1));
        let w = wire(0, b);
        let mut recs = vec![
            sent(10, b, a, MsgCause::Ack, w),
            rec(
                10,
                TraceEvent::MsgDuplicated {
                    from: b,
                    to: a,
                    wire: w,
                },
            ),
        ];
        recs.extend(handle_step(20, a, b, MsgCause::Ack, w));
        recs.extend(handle_step(30, a, b, MsgCause::Ack, w));
        let (tl, left) = build(&recs, 2);
        let pairs: Vec<_> = tl.flows.iter().map(|f| (f.sent_at, f.handled_at)).collect();
        assert_eq!(pairs, vec![(10, 20), (10, 30)]);
        assert_eq!(left, 0, "the second handle consumed the last copy");
    }

    #[test]
    fn request_spans_pair_up_without_phantom_steps() {
        let n = NodeId(0);
        let recs = vec![
            // Arrival stamped ahead of the node clock: must not move
            // makespan or open a root step.
            rec(100, TraceEvent::RequestArrived { node: n, req: 7 }),
            rec(120, TraceEvent::RequestShed { node: n, req: 8 }),
            rec(
                105,
                TraceEvent::EventStart {
                    node: n,
                    kind: KIND_MSG,
                    req: 0,
                },
            ),
            rec(110, TraceEvent::RequestDone { node: n, req: 7 }),
            rec(110, TraceEvent::EventEnd { node: n }),
        ];
        let tl = Timeline::build(&recs, 1);
        assert_eq!(tl.steps[0].len(), 1);
        assert_eq!(tl.makespan, 110);
        assert_eq!(tl.requests.len(), 2);
        assert_eq!(
            (
                tl.requests[0].start,
                tl.requests[0].end,
                tl.requests[0].shed
            ),
            (100, Some(110), false)
        );
        assert!(tl.requests[1].shed);
    }

    #[test]
    fn suspend_intervals_close_on_resume() {
        let n = NodeId(2);
        let recs = vec![
            rec(3, TraceEvent::Suspend { node: n, ctx: 1 }),
            rec(9, TraceEvent::Resume { node: n, ctx: 1 }),
            rec(11, TraceEvent::Suspend { node: n, ctx: 2 }),
        ];
        let tl = Timeline::build(&recs, 3);
        assert_eq!(tl.suspends[2].len(), 2);
        assert_eq!(tl.suspends[2][0].end, Some(9));
        assert_eq!(tl.suspends[2][1].end, None);
    }
}
