//! `SchedImpl::Speculative` determinism.
//!
//! The optimistic (Time-Warp) executor has been removed; `Speculative`
//! is a retained alias that runs the conservative sharded engine with
//! the same thread count. Its contract is the sharded executor's: the
//! run is the same pure function of (program, placement, cost model,
//! mode, fault plan) at every thread count, and — because it *is* the
//! sharded engine — its scheduler counters equal `Sharded`'s exactly.
//!
//! The matrix pins that down against the single-threaded event index on
//! all four app kernels × three pinned seeds × threads {2, 4}, with and
//! without a fault plan:
//!
//! * bit-identical makespans, per-node clocks, per-node counters, and
//!   network/fault statistics;
//! * bit-identical full trace sequences (first divergence reported);
//! * bit-identical observer streams — the rendered rollup *report text*
//!   matches byte for byte;
//! * degenerate cases: P=1, threads > P, threads ∈ {0, 1}, and a
//!   zero-latency cost model, where the alias falls back to the event
//!   index (no parallel windows) exactly as `Sharded` does.
//!
//! Seeds come from `HYBRID_TEST_SEED` when set, else a built-in trio.

mod common;

use common::{
    assert_bit_identical, run_rollup as run, seeds, Exec, Machine, EVENT_INDEX, KERNELS, THREADS,
};
use hem::core::SchedImpl;
use hem::machine::fault::FaultPlan;

fn speculative(threads: usize) -> Exec {
    Exec::Sched(SchedImpl::Speculative { threads })
}

/// Fault-free matrix: every kernel × every pinned seed, the alias at 2
/// and 4 threads vs the single-threaded event index, and its scheduler
/// counters vs `Sharded` at the same thread count.
#[test]
fn speculative_matches_event_index_on_all_kernels() {
    for kernel in KERNELS {
        for seed in seeds() {
            let run = |exec| run(kernel, seed, exec, None, Machine::Native);
            let base = run(EVENT_INDEX);
            for threads in THREADS {
                let label = format!("{kernel}/seed{seed}/threads{threads}");
                let sp = run(speculative(threads));
                assert_bit_identical(&label, &base, &sp);
                let sh = run(Exec::sharded(threads));
                assert_eq!(
                    sh.stats.sched, sp.stats.sched,
                    "{label}: the alias must run the sharded engine"
                );
            }
        }
    }
}

/// Faulty matrix: the same diff with a seeded fault plan installed
/// (loss, duplication, jitter; reliable transport engaged).
#[test]
fn speculative_matches_event_index_under_faults() {
    for kernel in KERNELS {
        for seed in seeds() {
            let mut plan = FaultPlan::seeded(seed);
            plan.drop_permille = 20;
            plan.dup_permille = 20;
            plan.jitter_max = 80;
            let run = |exec| run(kernel, seed, exec, Some(&plan), Machine::Native);
            let base = run(EVENT_INDEX);
            for threads in THREADS {
                let sp = run(speculative(threads));
                assert_bit_identical(
                    &format!("{kernel}/seed{seed}/faulty/threads{threads}"),
                    &base,
                    &sp,
                );
            }
        }
    }
}

/// The zero-lookahead regime. Under `CostModel::unit()` the minimum wire
/// latency is zero, so no conservative window can open: `Sharded` and
/// the alias both fall back to the event index, and must still
/// reproduce it bit for bit. (The name predates the removal of the
/// optimistic executor, which windowed here.)
#[test]
fn speculative_wins_the_zero_lookahead_regime_bit_identically() {
    for kernel in ["sor", "sync"] {
        let run = |exec| run(kernel, 1, exec, None, Machine::ZeroLookahead);
        let base = run(EVENT_INDEX);
        let sh = run(Exec::sharded(4));
        assert_bit_identical(&format!("{kernel}/unit/sharded4"), &base, &sh);
        for threads in THREADS {
            let label = format!("{kernel}/unit/threads{threads}");
            let sp = run(speculative(threads));
            assert_bit_identical(&label, &base, &sp);
            assert_eq!(
                sp.stats.sched.windows, 0,
                "{label}: zero lookahead cannot open a conservative window"
            );
        }
    }
}

/// Degenerate thread counts fall back to the event index outright
/// (threads ∈ {0, 1}, with no parallel windows), and thread counts above
/// the node count clamp and still reproduce the baseline.
#[test]
fn degenerate_thread_counts_match() {
    let run = |exec| run("sor", 1, exec, None, Machine::Native);
    let base = run(EVENT_INDEX);
    for threads in [0usize, 1, 16, 64] {
        let sp = run(speculative(threads));
        assert_bit_identical(&format!("sor/degenerate/threads{threads}"), &base, &sp);
        if threads <= 1 {
            assert_eq!(
                sp.stats.sched.windows, 0,
                "threads={threads}: fallback must not window"
            );
        }
    }
}

/// P=1: a single-node machine leaves nothing to shard — every thread
/// count clamps to one worker and falls back to the event index.
#[test]
fn single_node_machine_matches() {
    let run = |exec| run("sync", 1, exec, None, Machine::SingleNode);
    let base = run(EVENT_INDEX);
    for threads in THREADS {
        let sp = run(speculative(threads));
        assert_bit_identical(&format!("sync/P=1/threads{threads}"), &base, &sp);
        assert_eq!(sp.stats.sched.windows, 0, "P=1 cannot window");
    }
}
