//! Scheduler determinism and event-index equivalence.
//!
//! The dispatch loop's contract is a total order on events —
//! `(virtual time, message-before-compute, node id, message seq)` — so a
//! run is a pure function of (program, placement, cost model, mode). These
//! tests pin that down two ways:
//!
//! 1. **Repeatability**: every kernel run twice produces bit-identical
//!    makespans, per-node clocks, per-node counters, and full trace event
//!    sequences.
//! 2. **Implementation equivalence**: the O(log P) event-index dispatcher
//!    and the O(P) scan reference (the exploring loop under an empty
//!    replay vector) select exactly the same events in exactly the same
//!    order — the scan is the executable specification the heap is
//!    checked against, trace record by trace record.

mod common;

use common::{assert_bit_identical, run_kernel, Cfg, Exec, EVENT_INDEX, KERNELS};
use hem::core::ExecMode;

const MODES: [ExecMode; 2] = [ExecMode::Hybrid, ExecMode::ParallelOnly];

/// Identical runs are bit-identical: makespan, per-node clocks, per-node
/// counters, and the full trace sequence.
#[test]
fn kernels_repeat_bit_identically() {
    for kernel in KERNELS {
        for mode in MODES {
            let cfg = Cfg {
                mode,
                ..Cfg::default()
            };
            let a = run_kernel(kernel, &cfg);
            let b = run_kernel(kernel, &cfg);
            assert_bit_identical(&format!("{kernel}/{mode}/repeat"), &a, &b);
        }
    }
}

/// The event index and the scan reference are the same scheduler:
/// identical traces, clocks, and counters on every kernel in both
/// execution modes. (The name predates the scan's move from a
/// `SchedImpl` variant to the exploring loop.)
#[test]
fn event_index_matches_linear_scan() {
    for kernel in KERNELS {
        for mode in MODES {
            let run = |exec| {
                run_kernel(
                    kernel,
                    &Cfg {
                        exec,
                        mode,
                        ..Cfg::default()
                    },
                )
            };
            let heap = run(EVENT_INDEX);
            let scan = run(Exec::Scan);
            assert_bit_identical(&format!("{kernel}/{mode}/index-vs-scan"), &heap, &scan);
        }
    }
}

/// The scheduler counters are live under the event index, and both
/// implementations dispatch the same event count.
#[test]
fn sched_stats_reflect_dispatch() {
    let heap = run_kernel("sor", &Cfg::default());
    let scan = run_kernel(
        "sor",
        &Cfg {
            exec: Exec::Scan,
            ..Cfg::default()
        },
    );
    assert_eq!(
        heap.stats.sched.events_dispatched, scan.stats.sched.events_dispatched,
        "both implementations dispatch the same event count"
    );
    assert!(heap.stats.sched.events_dispatched > 0);
    assert!(heap.stats.sched.heap_pushes >= heap.stats.sched.events_dispatched);
    assert!(heap.stats.sched.max_heap_depth > 0);
}
