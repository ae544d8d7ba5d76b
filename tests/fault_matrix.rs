//! Fault-matrix harness: the execution model's semantics must be invariant
//! under interconnect faults.
//!
//! Every application kernel is run under a grid of deterministic fault
//! schedules — random loss (0‰/10‰/50‰), wire duplication, delivery
//! jitter, directed link-partition windows, and node stall windows — with
//! the reliable transport engaged, and the harness asserts:
//!
//! 1. **Scheduler equivalence under faults**: the O(log P) event-index
//!    dispatcher and the scan reference produce bit-identical traces,
//!    clocks, counters, and final object state for the same fault
//!    schedule, in both execution modes.
//! 2. **Repeatability**: the same `(kernel, mode, plan)` run twice is
//!    bit-identical — fault injection is a pure function of the plan.
//! 3. **Semantic transparency**: the final object state equals the
//!    fault-free run's, in both Hybrid and ParallelOnly modes — loss,
//!    duplication, reordering, and partitions change timing, never
//!    answers.
//! 4. **Transport conservation**: exactly-once delivery
//!    (`msgs_sent + replies_sent == msgs_handled`), every received data
//!    copy acked (`acks_sent == msgs_handled + dups_suppressed`), and no
//!    context leaks.
//! 5. **Causal completeness**: every wire copy has exactly one fate
//!    record, every handle joins its send by wire id with the same
//!    sender and blame tag, and the critical path tiles `[0, makespan]`.
//!
//! Seeds come from `HYBRID_TEST_SEED` when set (the seeded CI job pins
//! three), else a built-in trio.

mod common;

use common::{
    assert_bit_identical, assert_state_close, run_kernel, seeds, Cfg, Exec, Outcome, EVENT_INDEX,
    KERNELS, THREADS,
};
use hem::core::trace::TraceEvent;
use hem::core::ExecMode;
use hem::machine::fault::{FaultPlan, LinkWindow, NodeWindow};
use hem::obs::{critical_path, Timeline};
use hem::NodeId;
use proptest::prelude::*;
use std::collections::HashMap;

/// Run `kernel` at P=16 under `exec`, with `plan` installed (which also
/// engages the reliable transport) or, fault-free, with the transport on
/// anyway so object state is compared across plans under one protocol.
fn run(kernel: &str, mode: ExecMode, exec: Exec, plan: Option<&FaultPlan>) -> Outcome {
    let cfg = Cfg {
        exec,
        mode,
        plan,
        transport: true,
        ..Cfg::default()
    };
    run_kernel(kernel, &cfg)
}

/// The fault grid for one seed: loss ∈ {0‰, 10‰, 50‰} crossed with
/// duplication and jitter, plus a partition schedule and a stall schedule.
fn fault_grid(seed: u64) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    for (drop_permille, dup_permille, jitter_max) in [
        (0, 0, 0),
        (10, 0, 0),
        (50, 0, 0),
        (0, 30, 120),
        (50, 20, 60),
    ] {
        let mut p = FaultPlan::seeded(seed);
        p.drop_permille = drop_permille;
        p.dup_permille = dup_permille;
        p.jitter_max = jitter_max;
        plans.push(p);
    }
    // Directed link partitions: node 1 cannot reach node 0 for a while
    // (requests get through, replies and acks do not), and later nothing
    // reaches node 3.
    let mut p = FaultPlan::seeded(seed);
    p.drop_permille = 10;
    p.partitions = vec![
        LinkWindow {
            src: Some(NodeId(1)),
            dest: Some(NodeId(0)),
            from: 2_000,
            until: 12_000,
        },
        LinkWindow {
            src: None,
            dest: Some(NodeId(3)),
            from: 5_000,
            until: 9_000,
        },
    ];
    plans.push(p);
    // A node stall: deliveries into node 2 are deferred past the window.
    let mut p = FaultPlan::seeded(seed);
    p.dup_permille = 10;
    p.stalls = vec![NodeWindow {
        node: NodeId(2),
        from: 1_000,
        until: 20_000,
    }];
    plans.push(p);
    plans
}

fn assert_conservation(label: &str, o: &Outcome) {
    let t = o.stats.totals();
    assert_eq!(
        t.msgs_sent + t.replies_sent,
        t.msgs_handled,
        "{label}: exactly-once delivery"
    );
    assert_eq!(
        t.acks_sent,
        t.msgs_handled + t.dups_suppressed,
        "{label}: every received data copy acked"
    );
    assert_eq!(t.ctx_alloc, t.ctx_free, "{label}: context conservation");
    // Wire duplication can deliver (and so handle) one ack twice; beyond
    // that, acks cannot be conjured.
    assert!(
        t.acks_handled <= t.acks_sent + o.stats.net.faults.duplicated,
        "{label}: acks cannot be conjured"
    );
}

/// Causal completeness of a quiescent run's trace. Every wire copy (one
/// per `MsgSent`, plus one per `MsgDuplicated`) has exactly one fate
/// record: handled, suppressed, or dropped. Every handle except an
/// external arrival (wire id bit 63 set) joins a `MsgSent` with the same
/// sender and blame tag. The critical path totals the makespan, and its
/// segments tile `[0, makespan]`.
fn assert_causal_completeness(label: &str, o: &Outcome) {
    // Wire id → (sender, blame tag) of its send.
    let mut sends = HashMap::new();
    // Wire id → copies injected minus fates recorded.
    let mut open: HashMap<u64, i64> = HashMap::new();
    for rec in &o.trace {
        match rec.event {
            TraceEvent::MsgSent {
                from, req, wire, ..
            } => {
                assert!(
                    sends.insert(wire, (from, req)).is_none(),
                    "{label}: wire id {wire:#x} sent twice"
                );
                *open.entry(wire).or_default() += 1;
            }
            TraceEvent::MsgDuplicated { wire, .. } => *open.entry(wire).or_default() += 1,
            TraceEvent::MsgHandled { wire, .. } if wire >> 63 == 1 => {}
            TraceEvent::MsgHandled {
                from, req, wire, ..
            } => {
                assert_eq!(
                    sends.get(&wire),
                    Some(&(from, req)),
                    "{label}: handle of wire id {wire:#x} joins no send with its sender and tag"
                );
                *open.entry(wire).or_default() -= 1;
            }
            TraceEvent::DupSuppressed { wire, .. } | TraceEvent::MsgDropped { wire, .. } => {
                *open.entry(wire).or_default() -= 1
            }
            _ => {}
        }
    }
    let mut unbalanced: Vec<_> = open.into_iter().filter(|&(_, n)| n != 0).collect();
    unbalanced.sort_unstable();
    assert!(
        unbalanced.is_empty(),
        "{label}: wire ids whose copies and fate records differ (id, copies - fates): \
         {unbalanced:x?}"
    );
    let tl = Timeline::build(&o.trace, o.stats.per_node.len());
    let cp = critical_path(&tl);
    assert_eq!(cp.total, o.makespan, "{label}: critical path == makespan");
    assert_eq!(cp.segments.first().map(|s| s.start), Some(0), "{label}");
    assert_eq!(
        cp.segments.last().map(|s| s.end),
        Some(o.makespan),
        "{label}"
    );
    for w in cp.segments.windows(2) {
        assert_eq!(w[0].end, w[1].start, "{label}: contiguous segments");
    }
}

/// The full matrix: every kernel × every fault plan × every seed, checked
/// for scheduler equivalence, repeatability, conservation, causal
/// completeness, and fault-transparency of the final object state.
#[test]
fn fault_matrix_semantics_invariant() {
    for kernel in KERNELS {
        // Fault-free references (transport on), one per mode.
        let clean_h = run(kernel, ExecMode::Hybrid, EVENT_INDEX, None);
        let clean_p = run(kernel, ExecMode::ParallelOnly, EVENT_INDEX, None);
        assert_conservation(&format!("{kernel}/clean/hybrid"), &clean_h);
        assert_causal_completeness(&format!("{kernel}/clean/hybrid"), &clean_h);
        assert_causal_completeness(&format!("{kernel}/clean/par"), &clean_p);
        assert_state_close(
            &format!("{kernel}: hybrid vs parallel-only final state (fault-free)"),
            &clean_h.objects,
            &clean_p.objects,
        );
        for seed in seeds() {
            for (pi, plan) in fault_grid(seed).iter().enumerate() {
                let label = format!("{kernel}/seed{seed}/plan{pi}");
                let h_heap = run(kernel, ExecMode::Hybrid, EVENT_INDEX, Some(plan));
                let h_scan = run(kernel, ExecMode::Hybrid, Exec::Scan, Some(plan));
                assert_bit_identical(&format!("{label}/hybrid heap-vs-scan"), &h_heap, &h_scan);
                let h_again = run(kernel, ExecMode::Hybrid, EVENT_INDEX, Some(plan));
                assert_bit_identical(&format!("{label}/hybrid repeat"), &h_heap, &h_again);
                let p_heap = run(kernel, ExecMode::ParallelOnly, EVENT_INDEX, Some(plan));
                let p_scan = run(kernel, ExecMode::ParallelOnly, Exec::Scan, Some(plan));
                assert_bit_identical(&format!("{label}/par heap-vs-scan"), &p_heap, &p_scan);
                assert_conservation(&format!("{label}/hybrid"), &h_heap);
                assert_conservation(&format!("{label}/par"), &p_heap);
                assert_causal_completeness(&format!("{label}/hybrid"), &h_heap);
                assert_causal_completeness(&format!("{label}/par"), &p_heap);
                // Faults perturb timing, never answers: final object state
                // matches the fault-free run in both modes.
                assert_state_close(
                    &format!("{label}: hybrid state under faults"),
                    &h_heap.objects,
                    &clean_h.objects,
                );
                assert_state_close(
                    &format!("{label}: parallel-only state under faults"),
                    &p_heap.objects,
                    &clean_p.objects,
                );
                // The injector actually did something on lossy plans.
                if plan.drop_permille >= 50 || !plan.partitions.is_empty() {
                    let t = h_heap.stats.totals();
                    assert!(
                        h_heap.stats.net.faults.lost() > 0,
                        "{label}: lossy plan lost nothing"
                    );
                    assert!(t.retransmits > 0, "{label}: losses but no retransmits");
                }
                if plan.dup_permille >= 10 {
                    assert!(
                        h_heap.stats.net.faults.duplicated > 0,
                        "{label}: duplicating plan duplicated nothing"
                    );
                }
            }
        }
    }
}

/// Regression: a wire-duplicated copy of a frame addressed to a stalled
/// node must be deferred through `stalled_until` exactly like the
/// original. The stall window opens at time 0, so *every* delivery into
/// node 2 — original or duplicate — is deferred to at or past the
/// window's end, and node 2 cannot handle any message before it: a
/// handling earlier than `until` can only come from a copy that bypassed
/// the stall fixpoint.
#[test]
fn duplicates_respect_stall_windows() {
    const UNTIL: u64 = 20_000;
    for seed in seeds() {
        let mut plan = FaultPlan::seeded(seed);
        plan.dup_permille = 150;
        plan.stalls = vec![NodeWindow {
            node: NodeId(2),
            from: 0,
            until: UNTIL,
        }];
        let o = run("sor", ExecMode::Hybrid, EVENT_INDEX, Some(&plan));
        let label = format!("dup-stall/seed{seed}");
        // The plan must actually exercise both fault mechanisms.
        assert!(
            o.stats.net.faults.duplicated > 0,
            "{label}: plan duplicated nothing"
        );
        assert!(
            o.stats.net.faults.stall_defers > 0,
            "{label}: plan deferred nothing"
        );
        for rec in &o.trace {
            if let TraceEvent::MsgHandled { node, from, .. } = rec.event {
                assert!(
                    node != NodeId(2) || rec.at >= UNTIL,
                    "{label}: message from {from:?} handled at stalled node 2 \
                     at {} — inside the stall window [0, {UNTIL})",
                    rec.at
                );
            }
        }
        assert_conservation(&label, &o);
        assert_causal_completeness(&label, &o);
    }
}

/// Sharded fault soak: the windowed multi-thread executor against the
/// single-threaded event index under the grid's two nastiest plans (mixed
/// loss + duplication + jitter; duplication + a long node stall) — every
/// kernel, every pinned seed, threads ∈ {2, 4}, bit-identical
/// everything. This is the fault-plan half of the `threads`-invariance
/// contract (the fault-free half lives in `parallel_determinism.rs`).
#[test]
fn sharded_matches_event_index_under_fault_grid() {
    for kernel in KERNELS {
        for seed in seeds() {
            let grid = fault_grid(seed);
            for (pi, plan) in [(4, &grid[4]), (6, &grid[6])] {
                let label = format!("{kernel}/seed{seed}/plan{pi}/sharded");
                let base = run(kernel, ExecMode::Hybrid, EVENT_INDEX, Some(plan));
                for threads in THREADS {
                    let sharded = run(kernel, ExecMode::Hybrid, Exec::sharded(threads), Some(plan));
                    assert_bit_identical(&format!("{label}/threads{threads}"), &base, &sharded);
                    assert_causal_completeness(&format!("{label}/threads{threads}"), &sharded);
                }
                assert_conservation(&label, &base);
            }
        }
    }
}

/// Zero-fault transport sanity: with the transport on but an all-zero
/// plan, nothing is lost, nothing retransmits, and the object state
/// matches the raw (transport-off) framing.
#[test]
fn zero_fault_transport_is_transparent() {
    for kernel in KERNELS {
        let raw = run_kernel(kernel, &Cfg::default());
        let clean = run(kernel, ExecMode::Hybrid, EVENT_INDEX, None);
        let t = clean.stats.totals();
        assert_eq!(t.retransmits, 0, "{kernel}: retransmits on a clean wire");
        assert_eq!(t.dups_suppressed, 0, "{kernel}: duplicates on a clean wire");
        assert_eq!(
            t.acks_sent, t.msgs_handled,
            "{kernel}: one ack per data frame"
        );
        assert_eq!(clean.stats.net.faults.lost(), 0);
        assert_state_close(
            &format!("{kernel}: transport changed the answer"),
            &raw.objects,
            &clean.objects,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized corner of the matrix: arbitrary loss/duplication/jitter
    /// rates and seeds on the cheapest kernel, checking the same three
    /// properties as the grid.
    #[test]
    fn random_fault_plans_preserve_semantics(
        seed in any::<u64>(),
        drop_permille in 0u16..=60,
        dup_permille in 0u16..=40,
        jitter_max in 0u64..=100,
    ) {
        let mut plan = FaultPlan::seeded(seed);
        plan.drop_permille = drop_permille;
        plan.dup_permille = dup_permille;
        plan.jitter_max = jitter_max;
        let clean = run("sync", ExecMode::Hybrid, EVENT_INDEX, None);
        let heap = run("sync", ExecMode::Hybrid, EVENT_INDEX, Some(&plan));
        let scan = run("sync", ExecMode::Hybrid, Exec::Scan, Some(&plan));
        assert_bit_identical("random/heap-vs-scan", &heap, &scan);
        assert_conservation("random", &heap);
        assert_causal_completeness("random", &heap);
        assert_state_close("random: state under faults", &heap.objects, &clean.objects);
        let par = run("sync", ExecMode::ParallelOnly, EVENT_INDEX, Some(&plan));
        assert_conservation("random/par", &par);
        assert_causal_completeness("random/par", &par);
        assert_state_close("random: parallel-only state", &par.objects, &clean.objects);
    }
}
