//! Host-parallel sharded-executor determinism.
//!
//! `SchedImpl::Sharded` spreads the event index across host worker
//! threads under a conservative virtual-time window protocol; its
//! contract is that host parallelism is *invisible* — the run is the same
//! pure function of (program, placement, cost model, mode, fault plan) at
//! every thread count. These tests pin that down against the
//! single-threaded event index on all four app kernels × three pinned
//! seeds, with and without a fault plan, and on two degenerate machines:
//! a zero-lookahead cost model (`CostModel::unit()`, where the sharded
//! executor falls back to the event index) and a single node:
//!
//! * bit-identical makespans, per-node clocks, per-node counters, and
//!   network/fault statistics;
//! * bit-identical full trace sequences (first divergence reported);
//! * bit-identical observer streams — an attached `hem_obs::Rollup` sees
//!   the merged shard captures in exactly the single-threaded emission
//!   order, so the rendered rollup *report text* matches byte for byte.
//!
//! The heap diagnostics (`heap_pushes`, `stale_pops`, `max_heap_depth`)
//! are per-worker implementation details and read 0 under the sharded
//! executor; they are deliberately excluded from the comparison, as are
//! the reports (which never show them).
//!
//! Seeds come from `HYBRID_TEST_SEED` when set (the seeded CI job pins
//! three), else a built-in trio.

mod common;

use common::{
    assert_bit_identical, run_rollup as run, seeds, Exec, Machine, EVENT_INDEX, KERNELS, MACHINES,
    THREADS,
};
use hem::machine::fault::FaultPlan;

/// Fault-free matrix: every machine × kernel × pinned seed, sharded at 2
/// and 4 threads vs the single-threaded event index.
#[test]
fn sharded_matches_event_index_on_all_kernels() {
    for machine in MACHINES {
        for kernel in KERNELS {
            for seed in seeds() {
                let label = format!("{kernel}/{machine:?}/seed{seed}");
                let base = run(kernel, seed, EVENT_INDEX, None, machine);
                for threads in THREADS {
                    let sh = run(kernel, seed, Exec::sharded(threads), None, machine);
                    assert_bit_identical(&format!("{label}/threads{threads}"), &base, &sh);
                }
            }
        }
    }
}

/// Faulty matrix: the same diff with a seeded fault plan installed
/// (loss, duplication, jitter; reliable transport engaged) — the window
/// protocol must stay conservative when retransmission timers and
/// fault-perturbed delivery times are in play.
#[test]
fn sharded_matches_event_index_under_faults() {
    for kernel in KERNELS {
        for seed in seeds() {
            let mut plan = FaultPlan::seeded(seed);
            plan.drop_permille = 20;
            plan.dup_permille = 20;
            plan.jitter_max = 80;
            let base = run(kernel, seed, EVENT_INDEX, Some(&plan), Machine::Native);
            for threads in THREADS {
                let sh = run(
                    kernel,
                    seed,
                    Exec::sharded(threads),
                    Some(&plan),
                    Machine::Native,
                );
                assert_bit_identical(
                    &format!("{kernel}/seed{seed}/faulty/threads{threads}"),
                    &base,
                    &sh,
                );
            }
        }
    }
}

/// Degenerate thread counts fall back to the event index outright:
/// `threads` ∈ {0, 1} and thread counts above the node count (clamped)
/// all reproduce the baseline.
#[test]
fn degenerate_thread_counts_match() {
    let base = run("sor", 1, EVENT_INDEX, None, Machine::Native);
    for threads in [0usize, 1, 16, 64] {
        let sh = run("sor", 1, Exec::sharded(threads), None, Machine::Native);
        assert_bit_identical(&format!("sor/degenerate/threads{threads}"), &base, &sh);
    }
}
