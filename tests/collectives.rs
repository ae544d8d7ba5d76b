//! Cross-executor conformance for the modeled collectives
//! (multicast / reduce / barrier).
//!
//! Collectives are priced on a virtual binary fan-out tree (see
//! `hem_machine::net`): every down leg originates at the initiator but is
//! delivered `depth` wire hops later, and contributions fold up the same
//! tree in slot order. Their observable behaviour must be a pure function
//! of (program, placement, cost model, fault plan) on *every* scheduler
//! implementation. This suite pins that down three ways:
//!
//! * **Executor matrix** — the collectives-heavy kernels (sync's full
//!   cast/reduce/barrier mix, EM3D, SOR) run bit-identically on the
//!   scan reference and the sharded executor at 2 and 4 threads, against
//!   the event-index baseline, over three pinned seeds, with and without
//!   a seeded fault plan.
//! * **Degenerate groups** — empty groups, size-1 groups, groups covering
//!   every node, and a root that is itself a member (self-leg) all
//!   resolve with the right values and the same bit-identity.
//! * **Hop pricing** — an explicit assertion on the delivery schedule:
//!   deeper tree legs land exactly `Δdepth × msg_latency` later than
//!   shallow ones. A uniform mispricing (every leg charged one hop) is
//!   invisible to cross-executor diffing — every executor reproduces the
//!   wrong schedule bit-identically — so only this direct check catches
//!   the seeded `collective-skips-hop-cost` mutant.
//!
//! Seeds come from `HYBRID_TEST_SEED` when set (the seeded CI job pins
//! them), else a built-in trio.

mod common;

use common::{assert_bit_identical, run_kernel, seeds, Cfg, Exec, Outcome, EVENT_INDEX, EXECUTORS};
use hem::analysis::InterfaceSet;
use hem::apps::sync;
use hem::core::trace::{MsgCause, TraceEvent};
use hem::core::{ExecMode, Runtime};
use hem::ir::Value;
use hem::machine::cost::CostModel;
use hem::machine::fault::FaultPlan;
use hem::machine::NodeId;
use std::collections::HashMap;

/// Run one collectives-exercising kernel at P=16 on the small instances,
/// with the rollup observer on. `seed` drives graph generation (EM3D).
fn run(kernel: &str, seed: u64, exec: Exec, plan: Option<&FaultPlan>) -> Outcome {
    let cfg = Cfg {
        exec,
        gen_seed: Some(seed),
        plan,
        rollup: true,
        small: true,
        ..Cfg::default()
    };
    run_kernel(kernel, &cfg)
}

const KERNELS: [&str; 3] = ["sync", "em3d", "sor"];

/// Sanity floor for the matrix: every kernel actually issues collectives
/// (otherwise the suite silently stops testing them).
fn assert_uses_collectives(label: &str, out: &Outcome) {
    let t = out.stats.totals();
    assert!(
        t.coll_initiated > 0,
        "{label}: kernel issued no collectives"
    );
    assert!(t.coll_legs_sent > 0, "{label}: no collective legs sent");
}

/// Fault-free matrix: every collectives kernel × pinned seed × executor
/// against the event-index baseline.
#[test]
fn collectives_bit_identical_across_executors() {
    for kernel in KERNELS {
        for seed in seeds() {
            let base = run(kernel, seed, EVENT_INDEX, None);
            assert_uses_collectives(&format!("{kernel}/seed{seed}"), &base);
            for exec in &EXECUTORS[1..] {
                let other = run(kernel, seed, *exec, None);
                assert_bit_identical(&format!("{kernel}/seed{seed}/{exec}"), &base, &other);
            }
        }
    }
}

/// Faulty matrix: the same diff with a seeded fault plan (loss,
/// duplication, jitter; reliable transport engaged) — collective legs
/// take the same transport path as point-to-point sends, so their fault
/// fates and retransmissions must replay identically everywhere.
#[test]
fn collectives_bit_identical_under_faults() {
    for kernel in KERNELS {
        for seed in seeds() {
            let mut plan = FaultPlan::seeded(seed);
            plan.drop_permille = 20;
            plan.dup_permille = 20;
            plan.jitter_max = 80;
            let base = run(kernel, seed, EVENT_INDEX, Some(&plan));
            assert_uses_collectives(&format!("{kernel}/seed{seed}/faulty"), &base);
            for exec in &EXECUTORS[1..] {
                let other = run(kernel, seed, *exec, Some(&plan));
                assert_bit_identical(&format!("{kernel}/seed{seed}/faulty/{exec}"), &base, &other);
            }
        }
    }
}

/// Run the sync structures over a `n_cells`-member group at P=4; the
/// outcome carries the fan / sum_all / quiesce results.
fn run_degenerate(n_cells: u32, exec: Exec) -> Outcome {
    let ids = sync::build();
    let mut rt = Runtime::new(
        ids.program.clone(),
        4,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    let cfg = Cfg {
        exec,
        rollup: true,
        ..Cfg::default()
    };
    cfg.arm(&mut rt);
    let inst = sync::setup(&mut rt, &ids, n_cells);
    // Drivers live on every node; cells fill nodes round-robin from node
    // 0 — so driver 0's collectives include a self-leg (root == member
    // node) whenever n_cells > 0, and driver 1's never do for n_cells=1.
    let results = vec![
        rt.call(inst.drivers[1], ids.fan, &[]).unwrap(),
        rt.call(inst.drivers[0], ids.sum_all, &[]).unwrap(),
        rt.call(inst.drivers[0], ids.quiesce, &[]).unwrap(),
    ];
    Outcome::capture(&mut rt, "sync-degenerate", results)
}

/// Degenerate group shapes: empty, singleton, and a group spanning every
/// node (so the initiator is also a member's host) — correct values on
/// the baseline and bit-identity on every executor.
#[test]
fn degenerate_groups_resolve_and_stay_identical() {
    // (n_cells, expected sum_all result). fan bumps every cell by 1
    // first, so the reduce over n cells folds n ones; an empty group
    // resolves to Nil immediately.
    let cases = [
        (0u32, Value::Nil),
        (1, Value::Int(1)),
        (4, Value::Int(4)), // one cell per node: group size == P
    ];
    for (n_cells, want_sum) in cases {
        let base = run_degenerate(n_cells, EVENT_INDEX);
        assert_eq!(
            base.results,
            vec![Some(Value::Nil), Some(want_sum), Some(Value::Nil)],
            "degenerate/{n_cells}: fan / sum_all / quiesce results"
        );
        let t = base.stats.totals();
        assert_eq!(
            t.coll_initiated, 3,
            "degenerate/{n_cells}: collectives issued"
        );
        assert_eq!(
            t.coll_legs_sent % 2,
            0,
            "degenerate/{n_cells}: reduce+barrier up legs mirror down legs \
             (fan is acked, so every kind pairs its legs)"
        );
        for exec in &EXECUTORS[1..] {
            let other = run_degenerate(n_cells, *exec);
            assert_bit_identical(&format!("degenerate/{n_cells}/{exec}"), &base, &other);
        }
    }
}

/// The explicit hop-cost check that kills `collective-skips-hop-cost`.
///
/// One fire-and-forget multicast from node 0 to seven members on nodes
/// 1..=7 (rank r on node r+1, so tree position r+1): every leg originates
/// at the initiator, whose clock advances by `msg_word × words` per
/// injected leg, and a leg at tree depth d is delivered d wire hops
/// later. Each member node is otherwise idle and receives exactly one
/// message, so the first `Multicast` handled on node k reads
///
/// ```text
/// h(rank) = T0 + (rank+1)·msg_word·words + depth(rank+1)·msg_latency + k
/// ```
///
/// for a constant k — and pairwise differences expose the per-hop term
/// exactly. The mutant prices every leg at one hop; every executor
/// reproduces that wrong schedule bit-identically, so this direct
/// assertion is the only line of defense.
#[test]
fn multicast_legs_pay_per_hop_latency() {
    let ids = sync::build();
    let cm = CostModel::cm5();
    let mut rt = Runtime::new(
        ids.program.clone(),
        8,
        cm.clone(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    rt.enable_trace();
    // Hand placement: the driver on node 0, cell rank r on node r+1.
    let cells: Vec<_> = (0..7u32)
        .map(|r| {
            let c = rt.alloc_object_by_name("Cell", NodeId(r + 1));
            rt.set_field(c, ids.value, Value::Int(0));
            c
        })
        .collect();
    let driver = rt.alloc_object_by_name("Driver", NodeId(0));
    rt.set_array(
        driver,
        ids.cells,
        cells.iter().map(|c| Value::Obj(*c)).collect(),
    );
    rt.call(driver, ids.scatter, &[]).unwrap();
    for c in &cells {
        assert_eq!(
            rt.get_field(*c, ids.value),
            Value::Int(10),
            "down-sweep ran"
        );
    }

    let trace = rt.take_trace();
    // Payload size of each injection, by wire id.
    let sent_words: HashMap<u64, u64> = trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::MsgSent { wire, words, .. } => Some((wire, words)),
            _ => None,
        })
        .collect();
    // First Multicast handled on each member node, with the payload size
    // of its joined send.
    let handled = |node: u32| -> (u64, u64) {
        trace
            .iter()
            .find_map(|r| match r.event {
                TraceEvent::MsgHandled {
                    node: n,
                    wire,
                    cause: MsgCause::Multicast,
                    ..
                } if n.0 == node => Some((r.at, sent_words[&wire])),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no multicast leg handled on node {node}"))
    };
    let (h1, words) = handled(1); // rank 0, pos 1, depth 1
    let (h3, _) = handled(3); // rank 2, pos 3, depth 2
    let (h7, _) = handled(7); // rank 6, pos 7, depth 3
    let per_leg = cm.msg_word * words; // initiator's injection time per leg
    let hop = cm.msg_latency;
    assert_eq!(
        h3 - h1,
        2 * per_leg + hop,
        "a depth-2 leg must land one extra wire hop after a depth-1 leg"
    );
    assert_eq!(
        h7 - h1,
        6 * per_leg + 2 * hop,
        "a depth-3 leg must land two extra wire hops after a depth-1 leg"
    );
}
