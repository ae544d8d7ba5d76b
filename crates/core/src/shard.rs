//! Host-parallel sharded execution with bit-identical observables.
//!
//! [`SchedImpl::Sharded`] partitions the simulated nodes into contiguous
//! shards, one OS worker thread per shard, and advances each shard with
//! its own `(time, kind, node)` event index — the serial dispatch loop,
//! run with the window end as its horizon — inside **conservative
//! virtual-time windows**: the classical conservative-PDES discipline,
//! specialized to this machine's structure. Serial execution is the
//! one-shard case of the same loop.
//!
//! - **Lookahead** `L` is the minimum latency any packet can spend on the
//!   wire: `CostModel::min_wire_latency()`, capped by the retransmission
//!   timeout base when the reliable transport is engaged (an in-window
//!   send may arm a timer no earlier than `now + retx_base`), and never
//!   *reduced* by an installed [`hem_machine::fault::FaultPlan`] — fault
//!   plans only delay delivery (`FaultPlan::min_extra_latency` is the
//!   hook that records this).
//! - Each **window** is `[W, E)` where `W` is the global minimum
//!   candidate time and `E = min(W + L, TB)`, with `TB` the earliest
//!   retransmission-timer candidate anywhere. Every message sent at or
//!   after `W` is delivered at or after `W + L ≥ E`, and every timer due
//!   before `E` would contradict `E ≤ TB` — so inside a window the
//!   shards are causally independent: each may dispatch every candidate
//!   with key `< E` in its local key order, and the union is exactly the
//!   set of events a single-threaded run dispatches in `[W, E)`.
//! - When the window is empty (`E ≤ W`, i.e. a retransmission timer *is*
//!   the next event), the coordinator pulls every node back and runs one
//!   **serial step** with exact single-threaded semantics — retransmit
//!   logic may inspect remote inboxes (`frame_in_flight`), which the
//!   windowed workers never do.
//!
//! **Coordinator-free steady state.** Worker state is *persistent*: a
//! [`ShardPool`] pins each shard's worker runtime (and the nodes it
//! owns) to one OS thread for the lifetime of the pool — across windows
//! and across `run_until` chunks. The window edge is a seqlock-style
//! **epoch publication**, not a channel rendezvous: the coordinator
//! writes the window end and bumps an atomic epoch (Release); each
//! worker observes the bump (Acquire), reseeds its index from its own
//! nodes, runs the window, publishes its post-window minimum candidate
//! key and earliest timer into its cell, and stores the epoch into its
//! ack slot (Release). Cell ownership alternates with the protocol:
//! worker `s` owns `cells[s]` while `acks[s] < epoch`, the coordinator
//! owns it while `acks[s] == epoch`. On the steady-state path **no
//! worker `Runtime` ever moves and no coordinator channel round-trip
//! happens** — `SchedStats::{runtime_moves, coord_roundtrips}` assert
//! exactly that, and `SchedStats::pool_reuses` counts chunks served by
//! one pool. Each wait is graded (spin → `yield_now` → park, see
//! [`spin_tiers`]) so oversubscribed hosts degrade to parking instead of
//! burning full spin budgets against each other.
//!
//! The per-shard published minima replace the coordinator's O(P) scan:
//! the next window base is the min over `T` published keys, adjusted
//! during outbox routing (delivering a packet into node `d` can only add
//! the candidate `(max(node time, deliver), 0, d)`, which the
//! coordinator mins into the destination shard's slot as it routes).
//!
//! **Profile-guided shard maps.** The partition is contiguous but not
//! necessarily equal-sized: [`Runtime::set_shard_weights`] installs
//! per-node busy weights (exported by `hem_obs::Rollup`) and
//! [`shard_partition`] cuts shard boundaries by cumulative weight, so a
//! placement whose hot nodes sit in one contiguous slice no longer idles
//! most workers. The merge rule below is partition-independent, so any
//! weighting is observationally invisible.
//!
//! **Determinism.** Worker shards capture every trace record under its
//! dispatching event's `(time, kind, node)` key. At each window barrier
//! the coordinator concatenates the shard captures, stable-sorts by key
//! (equal keys never span shards, and stability keeps each shard's
//! dispatch order), and replays them through the coordinator's trace
//! buffer and observer — reconstructing the exact single-threaded
//! emission order, including bounded-ring truncation counts.
//! Cross-shard packets are parked in per-shard outboxes and routed into
//! destination inboxes at the barrier (inbox order is a deterministic
//! function of `(delivery time, wire seq)`, so routing order is
//! irrelevant). Wire sequence numbers are per-sender (see
//! `Node::wire_seq`), so fault fates and same-cycle tie-breaks are
//! identical at every thread count.
//! The result: traces, makespan, `MachineStats`, and observer rollups
//! are bit-identical between `threads = 1` and any other thread count —
//! with the single documented exception of the scheduler heap
//! diagnostics, which read 0 under `Sharded`.
//!
//! **Traps.** If any shard traps, the coordinator keeps the trap with
//! the minimum event key (windows are thread-count-invariant, so this is
//! the trap a single-threaded run would hit first), truncates the merged
//! capture to records at or below that key, and returns the error.
//! Machine *state* past the trapping event (work other shards completed
//! inside the same window) is not rolled back; only the error and the
//! trace are normative after a trap.

use crate::error::Trap;
use crate::explore::TieBreak;
use crate::rt::{InboxEntry, Node, Runtime, SchedImpl};
use crate::trace::TraceRecord;
use hem_machine::net::Network;
use hem_machine::stats::{NetStats, SchedStats};
use hem_machine::{Cycles, NodeId};
use std::cell::UnsafeCell;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};

/// A dispatched event's identity: `(virtual time, kind, node)` — the
/// total order every dispatch loop implementation selects by.
pub(crate) type EventKey = (Cycles, u8, u32);

/// Shard-worker state hung off a worker [`Runtime`] (absent on every
/// user-constructed runtime). Holds the node-ownership map, the trace
/// capture for the deterministic merge, and the cross-shard outbox.
pub(crate) struct ShardCtx {
    /// `owns[i]` — does this shard own global node `i`?
    pub owns: Vec<bool>,
    /// Records emitted this window, each under its dispatching event's
    /// key, appended in dispatch order.
    pub capture: Vec<(EventKey, TraceRecord)>,
    /// Packets addressed to nodes of other shards, parked for the
    /// coordinator to route at the window barrier.
    pub outbox: Vec<(u32, InboxEntry)>,
    /// Key of the event currently being dispatched (capture tag; also
    /// identifies the trapping event when a dispatch returns an error).
    pub cur: EventKey,
    /// Capture records at all? Mirrors "trace buffer enabled or observer
    /// attached" on the coordinator.
    pub record: bool,
}

/// Full spin budget before yielding on a cross-thread wait. Windows are
/// short (microseconds of host time), so the other side usually responds
/// within the spin budget; parking is the slow path.
const SPIN: u32 = 20_000;

/// Iterations of the `yield_now` tier between spinning and parking: long
/// enough to cover a descheduled peer's timeslice on a busy host, short
/// enough that an idle pool parks almost immediately.
const YIELDS: u32 = 64;

fn host_cores() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Graded wait budget for a pool of `threads` workers (coordinator
/// included). Three tiers: spin (`spin_loop` hint), `yield_now`, park.
///
/// The spin budget is graded by oversubscription: with `threads` at or
/// under the host's `available_parallelism` every waiter may burn the
/// full [`SPIN`] budget (the peer is genuinely running on another core),
/// but with more workers than cores the surplus waiters would only spin
/// *against* the threads they are waiting for — so the budget shrinks
/// proportionally (`SPIN · cores / threads`) and collapses to zero on a
/// single-core host, where the yield tier hands the timeslice straight
/// to the producer.
struct SpinTiers {
    spin: u32,
    yields: u32,
}

fn spin_tiers(threads: usize) -> SpinTiers {
    let cores = host_cores();
    if cores <= 1 {
        return SpinTiers {
            spin: 0,
            yields: YIELDS / 2,
        };
    }
    let spin = if threads <= cores {
        SPIN
    } else {
        ((SPIN as u64 * cores as u64) / threads as u64) as u32
    };
    SpinTiers {
        spin,
        yields: YIELDS,
    }
}

/// Contiguous node→shard partition. With `weights == None`, shard `s`
/// owns the equal slice `[s·p/T, (s+1)·p/T)`. With weights, shard
/// boundaries cut by cumulative weight (each node weighs at least 1, so
/// all-zero or short weight vectors degrade to near-equal slices), and
/// every shard is guaranteed at least one node when `p ≥ threads`.
///
/// The partition only shapes host-time balance: the window protocol and
/// the capture merge are partition-independent, so observables are
/// bit-identical under every return value of this function.
pub(crate) fn shard_partition(p: usize, threads: usize, weights: Option<&[u64]>) -> Vec<usize> {
    let threads = threads.clamp(1, p.max(1));
    let mut owner = vec![0usize; p];
    let Some(w) = weights else {
        for s in 0..threads {
            for o in &mut owner[s * p / threads..(s + 1) * p / threads] {
                *o = s;
            }
        }
        return owner;
    };
    let weight = |i: usize| -> u128 { w.get(i).copied().unwrap_or(0).max(1) as u128 };
    let total: u128 = (0..p).map(weight).sum();
    let mut s = 0usize;
    let mut acc: u128 = 0;
    for (i, o) in owner.iter_mut().enumerate() {
        *o = s;
        acc += weight(i);
        if s + 1 >= threads || i + 1 >= p {
            continue;
        }
        // Nearest-boundary cut: advance when the next node's weight
        // midpoint lies at or past shard s's quota — i.e. keeping node
        // i+1 here would land us farther from the ideal boundary than
        // cutting now. (The plain "quota met" rule cuts one node late
        // whenever a boundary falls mid-node, e.g. two near-equal hot
        // nodes would both land in shard 0.)
        let over_quota = (2 * acc + weight(i + 1)) * threads as u128 >= 2 * (s as u128 + 1) * total;
        let must_cut = p - i - 1 == threads - s - 1; // one node per remaining shard
        if over_quota || must_cut {
            s += 1;
        }
    }
    owner
}

/// One shard's slot in the pool: the pinned worker runtime plus the
/// results it publishes at each window edge. Ownership alternates with
/// the epoch protocol (see [`PoolShared::cells`]).
struct WorkerCell {
    rt: Runtime,
    /// Global indices of the nodes this shard owns (the dense form of
    /// `ShardCtx::owns`; workers reseed and scan only these).
    owned: Vec<u32>,
    /// Minimum post-window candidate key over owned nodes.
    min_key: Option<EventKey>,
    /// Earliest retransmission-timer candidate over owned nodes.
    min_timer: Cycles,
    /// The window's trap, if any, keyed by the trapping event.
    trap: Option<(EventKey, Trap)>,
}

/// State shared between the coordinator and the pinned worker threads.
///
/// # Safety protocol
///
/// `cells[s]` (for `s ≥ 1`) is owned by worker `s` from the moment the
/// coordinator publishes an epoch `e > acks[s]` until the worker stores
/// `acks[s] = e`; at every other time the coordinator owns it.
/// `cells[0]` is only ever touched by the coordinator (shard 0 runs
/// inline on the coordinating thread). All cell writes are published by
/// the Release store that transfers ownership (`epoch` coordinator →
/// worker, `acks[s]` worker → coordinator) and read after the matching
/// Acquire load — hence the manual `Sync`.
struct PoolShared {
    /// Window-publication epoch: the seqlock edge. Strictly monotone;
    /// bumped only while the coordinator owns every cell.
    epoch: AtomicU64,
    /// Window end `E` for the current epoch (written before the bump).
    end: AtomicU64,
    /// Per-worker ack: the last epoch worker `s` finished. Slot 0 is
    /// unused (shard 0 is inline).
    acks: Vec<AtomicU64>,
    cells: Vec<UnsafeCell<WorkerCell>>,
    /// Coordinator thread to unpark after an ack. Rewritten at every
    /// chunk entry — a `Runtime` may migrate between user threads.
    coord: Mutex<Option<Thread>>,
    /// A worker panicked; waits panic instead of hanging.
    died: AtomicBool,
    /// Tear the pool down (set by `Drop`, observed after an epoch bump).
    shutdown: AtomicBool,
}

// Safety: see the protocol above — every cell access is serialized by
// the epoch/ack handoff, and all other fields are atomics or a Mutex.
unsafe impl Sync for PoolShared {}

fn unpark_coord(shared: &PoolShared) {
    let guard = shared.coord.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(t) = guard.as_ref() {
        t.unpark();
    }
}

/// Recompute a cell's published minima from its owned nodes (O(P/T)).
fn publish_minima(cell: &mut WorkerCell) {
    let mut mk: Option<EventKey> = None;
    let mut mt = Cycles::MAX;
    for &i in &cell.owned {
        let i = i as usize;
        if let Some((t, k)) = cell.rt.node_candidate(i) {
            let key = (t, k, i as u32);
            if mk.is_none_or(|b| key < b) {
                mk = Some(key);
            }
        }
        if let Some(t2) = cell.rt.node_timer_candidate(i) {
            mt = mt.min(t2);
        }
    }
    cell.min_key = mk;
    cell.min_timer = mt;
}

/// Run one window on a shard cell: reseed the index from owned
/// candidates below `end`, dispatch them with the serial event-index loop
/// (`end` is its horizon), then publish the post-window minima and any
/// trap. Shared verbatim by the pinned workers and the inline
/// shard 0.
fn run_shard_window(cell: &mut WorkerCell, end: Cycles) {
    let rt = &mut cell.rt;
    rt.sched.clear();
    for &i in &cell.owned {
        let i = i as usize;
        rt.nodes[i].sched_noted = None;
        if let Some((t, k)) = rt.node_candidate(i) {
            if t < end {
                rt.sched_note(t, k, i);
            }
        }
    }
    let r = rt.run_event_index(end);
    cell.trap = r
        .err()
        .map(|trap| (rt.shard.as_ref().expect("shard ctx").cur, trap));
    publish_minima(cell);
}

/// The pinned worker's whole life: wait for an epoch bump, run the
/// published window on the owned cell, ack, repeat — no channels, no
/// runtime moves.
fn worker_loop(shared: &PoolShared, s: usize, threads: usize) {
    let tiers = spin_tiers(threads);
    let mut seen = 0u64;
    loop {
        // Graded wait for the next epoch; parks between windows and
        // across chunk gaps (the unconditional `unpark` at publication
        // makes a lost-wakeup race impossible: park tokens saturate).
        let mut spins = 0u32;
        let mut yields = 0u32;
        let e = loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                break e;
            }
            if spins < tiers.spin {
                spins += 1;
                std::hint::spin_loop();
            } else if yields < tiers.yields {
                yields += 1;
                std::thread::yield_now();
            } else {
                std::thread::park();
            }
        };
        seen = e;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let end = shared.end.load(Ordering::Relaxed);
        // Safety: `acks[s] < epoch` here, so this worker owns its cell.
        let cell = unsafe { &mut *shared.cells[s].get() };
        run_shard_window(cell, end);
        shared.acks[s].store(e, Ordering::Release);
        unpark_coord(shared);
    }
}

/// Pool identity: a pool is reusable by a later chunk only if nothing a
/// worker runtime snapshots at build time has changed.
#[derive(PartialEq, Eq, Clone, Copy)]
struct PoolKey {
    threads: usize,
    p: usize,
    record: bool,
    san: bool,
    /// `Runtime::pool_gen` at build time: bumped by every
    /// pool-invalidating mutation (fault plan, transport, shard weights).
    gen: u64,
}

/// The persistent worker pool: pinned worker threads, the node→shard
/// map, and the epoch state. Lives on the coordinator [`Runtime`] and
/// survives across `run_until` chunks; dropped (joining its threads)
/// when invalidated or when the runtime is dropped. Between chunks every
/// cell holds only node husks — the real nodes are swapped back into the
/// coordinator so the public API (`inject_request`, `stats`,
/// `queue_depth`, …) keeps working unchanged.
pub(crate) struct ShardPool {
    threads: usize,
    owner: Vec<usize>,
    shared: Arc<PoolShared>,
    /// Park/unpark handles for workers `1..threads` (index 0 is a
    /// placeholder for the inline shard).
    worker_threads: Vec<Thread>,
    handles: Vec<JoinHandle<()>>,
    /// The coordinator's view of the published epoch.
    epoch: u64,
    key: PoolKey,
}

impl ShardPool {
    /// Safety: caller must hold coordinator ownership of cell `s` under
    /// the epoch/ack protocol (no window in flight, or `acks[s]` caught
    /// up; cell 0 is always coordinator-owned).
    #[allow(clippy::mut_from_ref)]
    unsafe fn cell(&self, s: usize) -> &mut WorkerCell {
        &mut *self.shared.cells[s].get()
    }

    /// Swap every owned node between the coordinator and its shard cell.
    /// An involution: called once at chunk entry (nodes → cells) and
    /// once at chunk exit (nodes → coordinator); also brackets serial
    /// steps, which need full-machine visibility. Only the coordinator
    /// may call this (it owns every cell at those points).
    fn swap_nodes(&mut self, rt: &mut Runtime) {
        for s in 0..self.threads {
            // Safety: coordinator owns all cells between windows.
            let cell = unsafe { self.cell(s) };
            for &i in &cell.owned {
                std::mem::swap(&mut rt.nodes[i as usize], &mut cell.rt.nodes[i as usize]);
            }
        }
    }

    /// Publish window `[_, end)` to the pinned workers: the seqlock
    /// edge. The Release bump transfers cell ownership to the workers;
    /// the unconditional unparks cover parked ones (tokens saturate, so
    /// an unpark racing a not-yet-parked worker is harmless).
    fn publish(&mut self, end: Cycles) {
        self.shared.end.store(end, Ordering::Relaxed);
        self.epoch += 1;
        self.shared.epoch.store(self.epoch, Ordering::Release);
        for t in &self.worker_threads[1..] {
            t.unpark();
        }
    }

    /// Graded wait until every pinned worker has acked the current
    /// epoch, transferring all cells back to the coordinator.
    fn wait_acks(&self) {
        let tiers = spin_tiers(self.threads);
        for s in 1..self.threads {
            let mut spins = 0u32;
            let mut yields = 0u32;
            loop {
                if self.shared.acks[s].load(Ordering::Acquire) == self.epoch {
                    break;
                }
                if self.shared.died.load(Ordering::Relaxed) {
                    panic!("shard worker thread died");
                }
                if spins < tiers.spin {
                    spins += 1;
                    std::hint::spin_loop();
                } else if yields < tiers.yields {
                    yields += 1;
                    std::thread::yield_now();
                } else {
                    std::thread::park();
                }
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for t in &self.worker_threads[1..] {
            t.unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Runtime {
    /// Drive the machine until every candidate is at or past `horizon`
    /// (`Cycles::MAX` = quiescence) with the sharded executor. Falls
    /// back to the plain event index when fewer than two shards are
    /// possible or the cost model has zero wire latency (no lookahead —
    /// every window would be empty).
    pub(crate) fn run_sharded(&mut self, threads: usize, horizon: Cycles) -> Result<(), Trap> {
        let p = self.nodes.len();
        let threads = threads.min(p);
        let wire = self.cost.min_wire_latency();
        let mut lookahead = if self.reliable {
            wire.min(self.retx_base)
        } else {
            wire
        };
        // Fault plans may only *delay* delivery, so any plan-derived slack
        // is additive (today always zero; the call records the dependency).
        lookahead =
            lookahead.saturating_add(self.net.plan().map_or(0, |plan| plan.min_extra_latency()));
        if threads <= 1 || lookahead == 0 {
            return self.run_sharded_fallback(horizon);
        }
        self.run_sharded_windows(threads, lookahead, horizon)
    }

    /// Zero-lookahead / single-shard path: run the plain event index,
    /// then zero the heap diagnostics so `MachineStats` is identical to
    /// what the windowed path reports at higher thread counts. Reseeds
    /// the index from scratch and clears it afterwards, so repeated
    /// horizon-bounded calls compose.
    fn run_sharded_fallback(&mut self, horizon: Cycles) -> Result<(), Trap> {
        let saved = self.sched_impl;
        self.sched_impl = SchedImpl::EventIndex;
        for i in 0..self.nodes.len() {
            self.nodes[i].sched_noted = None;
            if let Some((t, k)) = self.node_candidate(i) {
                self.sched_note(t, k, i);
            }
        }
        let r = self.run_event_index(horizon);
        self.sched_impl = saved;
        self.sched.clear();
        for n in &mut self.nodes {
            n.sched_noted = None;
        }
        self.sched_stats.heap_pushes = 0;
        self.sched_stats.stale_pops = 0;
        self.sched_stats.max_heap_depth = 0;
        r
    }

    /// Build the worker runtime for shard `s`: a full machine husk (every
    /// node present so global indexing works, but only owned nodes ever
    /// hold state during a window) sharing the program and fault plan,
    /// with tracing redirected into the shard capture.
    fn make_worker(&self, s: usize, owner: &[usize], record: bool) -> Runtime {
        let mut net = Network::new();
        net.set_plan(self.net.plan().cloned());
        Runtime {
            program: Arc::clone(&self.program),
            layouts: self.layouts.clone(),
            schemas: self.schemas.clone(),
            call_table: self.call_table.clone(),
            cost: self.cost.clone(),
            mode: self.mode,
            nodes: (0..owner.len() as u32)
                .map(|i| Node::new(NodeId(i)))
                .collect(),
            net,
            // Namespaced so worker-created task tokens (lock-holder
            // identities, live only within one dispatched event) never
            // collide with the coordinator's or another shard's.
            next_task: (s as u64 + 1) << 48,
            current_task: 0,
            current_req: 0,
            result: None,
            active: None,
            seq_depth: 0,
            max_seq_depth: self.max_seq_depth,
            enable_inlining: self.enable_inlining,
            sched_impl: SchedImpl::EventIndex,
            sched: BinaryHeap::new(),
            sched_stats: SchedStats::default(),
            trace_buf: crate::trace::Trace::default(),
            observer: None,
            sanitizer: if self.sanitizer.is_some() {
                Some(Box::default())
            } else {
                None
            },
            tie_break: TieBreak::Det,
            tie_rng: 0,
            tie_cursor: 0,
            tie_log: Vec::new(),
            #[cfg(any(test, feature = "mutants"))]
            mutant: self.mutant,
            reliable: self.reliable,
            retx_base: self.retx_base,
            retx_cap: self.retx_cap,
            poll_floor: Cycles::MAX,
            san_step: Self::SAN_ROOT_STEP,
            ext_seq: 0,
            completions: std::collections::BTreeMap::new(),
            shard: Some(Box::new(ShardCtx {
                owns: owner.iter().map(|&o| o == s).collect(),
                capture: Vec::new(),
                outbox: Vec::new(),
                cur: (0, 0, 0),
                record,
            })),
            shard_weights: None,
            pool: None,
            pool_gen: 0,
        }
    }

    /// Reuse the persistent pool when its build-time snapshot still
    /// matches, else (re)build it: partition the nodes (honoring any
    /// installed shard weights), construct one pinned worker runtime per
    /// shard, and spawn the worker threads for shards `1..threads`
    /// (shard 0 runs inline on the coordinating thread).
    fn ensure_pool(&mut self, threads: usize, record: bool) {
        let key = PoolKey {
            threads,
            p: self.nodes.len(),
            record,
            san: self.sanitizer.is_some(),
            gen: self.pool_gen,
        };
        if self.pool.as_ref().is_some_and(|pool| pool.key == key) {
            self.sched_stats.pool_reuses += 1;
            return;
        }
        self.pool = None; // joins any stale pool's workers first
        let p = self.nodes.len();
        let owner = shard_partition(p, threads, self.shard_weights.as_deref());
        let cells: Vec<UnsafeCell<WorkerCell>> = (0..threads)
            .map(|s| {
                UnsafeCell::new(WorkerCell {
                    rt: self.make_worker(s, &owner, record),
                    owned: owner
                        .iter()
                        .enumerate()
                        .filter(|&(_, &o)| o == s)
                        .map(|(i, _)| i as u32)
                        .collect(),
                    min_key: None,
                    min_timer: Cycles::MAX,
                    trap: None,
                })
            })
            .collect();
        let shared = Arc::new(PoolShared {
            epoch: AtomicU64::new(0),
            end: AtomicU64::new(0),
            acks: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            cells,
            coord: Mutex::new(None),
            died: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let mut worker_threads = vec![std::thread::current(); 1]; // slot 0: inline shard
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for s in 1..threads {
            let shared = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("hem-shard-{s}"))
                .spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&shared, s, threads)
                    }));
                    if r.is_err() {
                        shared.died.store(true, Ordering::SeqCst);
                        unpark_coord(&shared);
                    }
                })
                .expect("spawn shard worker");
            worker_threads.push(h.thread().clone());
            handles.push(h);
        }
        self.pool = Some(ShardPool {
            threads,
            owner,
            shared,
            worker_threads,
            handles,
            epoch: 0,
            key,
        });
    }

    /// The windowed coordinator loop (see the [module docs](self)):
    /// steady state is publish-epoch → inline shard 0 → wait acks →
    /// merge/route at the barrier. Whole chunks share one pool; node
    /// state only crosses a thread boundary by `mem::swap` at chunk
    /// edges and serial steps, never through a channel.
    fn run_sharded_windows(
        &mut self,
        threads: usize,
        lookahead: Cycles,
        horizon: Cycles,
    ) -> Result<(), Trap> {
        let record = self.trace_buf.enabled() || self.observer.is_some();
        self.ensure_pool(threads, record);
        let mut pool = self.pool.take().expect("pool just ensured");
        *pool.shared.coord.lock().unwrap_or_else(|e| e.into_inner()) = Some(std::thread::current());
        // Chunk entry: pin the nodes into their shard cells.
        pool.swap_nodes(self);
        // Initial per-shard minima (the coordinator owns every cell).
        let mut shard_min: Vec<Option<EventKey>> = vec![None; threads];
        let mut shard_timer: Vec<Cycles> = vec![Cycles::MAX; threads];
        for s in 0..threads {
            // Safety: no window in flight.
            let cell = unsafe { pool.cell(s) };
            publish_minima(cell);
            shard_min[s] = cell.min_key;
            shard_timer[s] = cell.min_timer;
        }

        let mut outcome: Result<(), (EventKey, Trap)> = Ok(());
        let mut merged: Vec<(EventKey, TraceRecord)> = Vec::new();
        'windows: loop {
            // W and the timer bound from the published per-shard minima
            // (O(T), replacing the old coordinator's O(P) rescan).
            let mut wkey: Option<EventKey> = None;
            let mut timer_bound = Cycles::MAX;
            for s in 0..threads {
                if let Some(k) = shard_min[s] {
                    if wkey.is_none_or(|b| k < b) {
                        wkey = Some(k);
                    }
                }
                timer_bound = timer_bound.min(shard_timer[s]);
            }
            let Some(wkey) = wkey else {
                break; // quiescent
            };
            if wkey.0 >= horizon {
                break; // every candidate is at or past the horizon
            }
            // Capping the window at the horizon keeps horizon-bounded
            // runs an exact event-set prefix of unbounded ones; the
            // serial-step branch below stays unreachable from the cap
            // because `wkey.0 < horizon` here.
            let end = wkey
                .0
                .saturating_add(lookahead)
                .min(timer_bound)
                .min(horizon);
            if end <= wkey.0 {
                // Serial step: the next event is (or ties with) a
                // retransmission timer; run it with full-machine
                // visibility and exact single-threaded semantics.
                pool.swap_nodes(self); // every node home
                self.sched_stats.serial_steps += 1;
                let r = self.dispatch_event(wkey.0, wkey.1, wkey.2 as usize);
                pool.swap_nodes(self); // and back out
                if let Err(trap) = r {
                    outcome = Err((wkey, trap));
                    break 'windows;
                }
                for s in 0..threads {
                    // Safety: no window in flight.
                    let cell = unsafe { pool.cell(s) };
                    publish_minima(cell);
                    shard_min[s] = cell.min_key;
                    shard_timer[s] = cell.min_timer;
                }
                continue;
            }

            // Parallel window [wkey.0, end): one atomic publication.
            pool.publish(end);
            // Safety: cell 0 is always coordinator-owned.
            run_shard_window(unsafe { pool.cell(0) }, end);
            pool.wait_acks();

            // Barrier pass 1 (coordinator owns every cell again): fold
            // dispatch counts and completion logs, collect traps and the
            // published minima, concatenate the captures.
            let mut wevents = 0u64;
            let mut fails: Vec<(EventKey, Trap)> = Vec::new();
            merged.clear();
            for s in 0..threads {
                // Safety: all acks collected.
                let cell = unsafe { pool.cell(s) };
                let wk = &mut cell.rt;
                wevents += wk.sched_stats.events_dispatched;
                self.sched_stats.events_dispatched += wk.sched_stats.events_dispatched;
                wk.sched_stats.events_dispatched = 0;
                if wk.result.is_some() {
                    self.result = wk.result.take();
                }
                if !wk.completions.is_empty() {
                    // Request ids are unique, so folding worker logs
                    // into the id-ordered coordinator map is
                    // insertion-order independent.
                    self.completions.append(&mut wk.completions);
                }
                shard_min[s] = cell.min_key;
                shard_timer[s] = cell.min_timer;
                if let Some(f) = cell.trap.take() {
                    fails.push(f);
                }
                merged.append(&mut wk.shard.as_mut().expect("shard ctx").capture);
            }
            // Barrier pass 2: route cross-shard packets straight into
            // the destination cells (all published minima are in hand,
            // so lowering a destination shard's minimum is sound even
            // when the destination shard index precedes the source's).
            for s in 0..threads {
                // Safety: coordinator owns all cells; the take below
                // ends the borrow before the destination cell is
                // touched, and a shard never outboxes to itself.
                let mut out = {
                    let cell = unsafe { pool.cell(s) };
                    std::mem::take(&mut cell.rt.shard.as_mut().expect("shard ctx").outbox)
                };
                for (d, entry) in out.drain(..) {
                    let ds = pool.owner[d as usize];
                    // Safety: as above.
                    let dcell = unsafe { pool.cell(ds) };
                    let node = &mut dcell.rt.nodes[d as usize];
                    let key = (node.time.max(entry.deliver), 0u8, d);
                    node.inbox.push(entry);
                    if shard_min[ds].is_none_or(|b| key < b) {
                        shard_min[ds] = Some(key);
                    }
                }
                // Hand the drained buffer back so its capacity is reused.
                let cell = unsafe { pool.cell(s) };
                cell.rt.shard.as_mut().expect("shard ctx").outbox = out;
            }
            self.sched_stats.windows += 1;
            self.sched_stats.window_events += wevents;
            self.sched_stats.max_window_events = self.sched_stats.max_window_events.max(wevents);
            // Deterministic merge: a stable sort by key. Equal keys never
            // span shards (the node id is part of the key), and stability
            // keeps each shard's records in dispatch order within a key.
            merged.sort_by_key(|(k, _)| *k);
            if let Some(&(trap_key, _)) = fails.iter().min_by_key(|(k, _)| *k) {
                // Keep only what a single-threaded run would have
                // emitted before (and during) the trapping event.
                for (k, rec) in merged.drain(..) {
                    if k <= trap_key {
                        self.flush_record(rec);
                    }
                }
                let (key, trap) = fails
                    .into_iter()
                    .min_by_key(|(k, _)| *k)
                    .expect("nonempty fails");
                outcome = Err((key, trap));
                break 'windows;
            }
            for (_, rec) in merged.drain(..) {
                self.flush_record(rec);
            }
        }

        // Chunk exit: unpin the nodes (the involution swaps them home)
        // and fold worker-side global state into the coordinator. The
        // pool itself — threads, shard map, worker husks — stays put for
        // the next chunk.
        pool.swap_nodes(self);
        for s in 0..threads {
            // Safety: no window in flight after the loop.
            let cell = unsafe { pool.cell(s) };
            let wk = &mut cell.rt;
            self.net.absorb_counters(&wk.net);
            // `absorb_counters` reads without draining; zero the source
            // so the next chunk's fold doesn't double-count.
            wk.net.restore_counters(&NetStats::default());
            if let (Some(main_s), Some(wk_s)) =
                (self.sanitizer.as_deref_mut(), wk.sanitizer.as_deref_mut())
            {
                main_s.absorb(wk_s); // drains the worker-side tallies
            }
        }
        for n in &mut self.nodes {
            n.sched_noted = None;
        }
        self.pool = Some(pool);
        outcome.map_err(|(_, trap)| trap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Observer, TraceRecord};
    use crate::{ExecMode, InterfaceSet};
    use hem_ir::{BinOp, MethodId, ObjRef, ProgramBuilder, Value};
    use hem_machine::cost::CostModel;
    use hem_machine::fault::FaultPlan;

    /// A ring of P objects, one per node; `bounce(n)` hops to the next
    /// peer `n` times, summing the countdown on the way back — every hop
    /// is cross-node traffic, so windows, outboxes, and the merge all see
    /// work.
    fn ring_runtime(p: u32, cost: CostModel) -> (Runtime, ObjRef, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C", false);
        let peer = pb.field(c, "peer");
        let bounce = pb.declare(c, "bounce", 1);
        pb.define(bounce, |mb| {
            let n = mb.arg(0);
            let done = mb.binl(BinOp::Lt, n, 1);
            mb.if_else(
                done,
                |mb| mb.reply(n),
                |mb| {
                    let pr = mb.get_field(peer);
                    let n1 = mb.binl(BinOp::Sub, n, 1);
                    let s = mb.invoke_into(pr, bounce, &[n1.into()]);
                    let v = mb.touch_get(s);
                    let r = mb.binl(BinOp::Add, v, n);
                    mb.reply(r);
                },
            );
        });
        let mut rt = Runtime::new(pb.finish(), p, cost, ExecMode::Hybrid, InterfaceSet::Full)
            .expect("valid ring program");
        let objs: Vec<ObjRef> = (0..p)
            .map(|i| rt.alloc_object_by_name("C", NodeId(i)))
            .collect();
        for (i, &o) in objs.iter().enumerate() {
            rt.set_field(o, peer, Value::Obj(objs[(i + 1) % objs.len()]));
        }
        (rt, objs[0], bounce)
    }

    struct Collect(Vec<TraceRecord>);
    impl Observer for Collect {
        fn on_record(&mut self, rec: &TraceRecord) {
            self.0.push(*rec);
        }
    }

    struct Outcome {
        result: Option<Value>,
        makespan: Cycles,
        trace: Vec<TraceRecord>,
        observed: Vec<TraceRecord>,
        stats: hem_machine::stats::MachineStats,
    }

    fn run_ring(sched: SchedImpl, cost: CostModel, faults: Option<FaultPlan>) -> Outcome {
        run_ring_weighted(sched, cost, faults, None)
    }

    fn run_ring_weighted(
        sched: SchedImpl,
        cost: CostModel,
        faults: Option<FaultPlan>,
        weights: Option<Vec<u64>>,
    ) -> Outcome {
        let (mut rt, root, bounce) = ring_runtime(4, cost);
        rt.sched_impl = sched;
        rt.enable_trace();
        rt.attach_observer(Box::new(Collect(Vec::new())));
        if let Some(plan) = faults {
            rt.set_fault_plan(plan);
        }
        rt.set_shard_weights(weights);
        let result = rt.call(root, bounce, &[Value::Int(25)]).expect("ring runs");
        let obs = rt.take_observer().expect("observer attached");
        let observed = (obs as Box<dyn std::any::Any>)
            .downcast::<Collect>()
            .expect("collect observer")
            .0;
        Outcome {
            result,
            makespan: rt.makespan(),
            trace: rt.take_trace(),
            observed,
            stats: rt.stats(),
        }
    }

    fn assert_bit_identical(a: &Outcome, b: &Outcome, what: &str) {
        assert_eq!(a.result, b.result, "{what}: result");
        assert_eq!(a.makespan, b.makespan, "{what}: makespan");
        if let Some(i) = (0..a.trace.len().min(b.trace.len())).find(|&i| a.trace[i] != b.trace[i]) {
            panic!(
                "{what}: traces diverge at record {i}:\n  a: {:?}\n  b: {:?}",
                a.trace[i], b.trace[i]
            );
        }
        assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
        assert_eq!(a.observed, b.observed, "{what}: observer stream");
        assert_eq!(a.stats.node_time, b.stats.node_time, "{what}: clocks");
        assert_eq!(a.stats.per_node, b.stats.per_node, "{what}: counters");
        assert_eq!(a.stats.net, b.stats.net, "{what}: net stats");
        assert_eq!(
            a.stats.sched.events_dispatched, b.stats.sched.events_dispatched,
            "{what}: dispatch count"
        );
    }

    #[test]
    fn sharded_matches_event_index_on_a_ring() {
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        assert_eq!(base.result, Some(Value::Int(325)), "25+24+...+1");
        for threads in [2, 3, 4, 7] {
            let sharded = run_ring(SchedImpl::Sharded { threads }, CostModel::cm5(), None);
            assert_bit_identical(&base, &sharded, &format!("threads={threads}"));
            assert_eq!(
                sharded.stats.sched.heap_pushes, 0,
                "sharded heap stats read 0"
            );
            assert_eq!(sharded.stats.sched.max_heap_depth, 0);
        }
    }

    #[test]
    fn sharded_matches_event_index_under_faults() {
        let plan = FaultPlan::seeded(7);
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), Some(plan.clone()));
        for threads in [2, 4] {
            let sharded = run_ring(
                SchedImpl::Sharded { threads },
                CostModel::cm5(),
                Some(plan.clone()),
            );
            assert_bit_identical(&base, &sharded, &format!("faulty threads={threads}"));
        }
    }

    #[test]
    fn zero_lookahead_and_degenerate_thread_counts_fall_back() {
        // The unit cost model has zero wire latency: no lookahead, so the
        // sharded executor must run the plain event index (and still
        // report zeroed heap diagnostics).
        let base = run_ring(SchedImpl::EventIndex, CostModel::unit(), None);
        for threads in [0, 1, 4] {
            let sharded = run_ring(SchedImpl::Sharded { threads }, CostModel::unit(), None);
            assert_bit_identical(&base, &sharded, &format!("unit-cost threads={threads}"));
            assert_eq!(sharded.stats.sched.heap_pushes, 0);
        }
        // Degenerate thread counts on a real cost model: same story.
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        for threads in [0, 1] {
            let sharded = run_ring(SchedImpl::Sharded { threads }, CostModel::cm5(), None);
            assert_bit_identical(&base, &sharded, &format!("cm5 threads={threads}"));
        }
    }

    #[test]
    fn sharded_ring_truncation_counts_match() {
        // Bounded trace ring: eviction counts must survive the merge.
        let run = |sched: SchedImpl| {
            let (mut rt, root, bounce) = ring_runtime(4, CostModel::cm5());
            rt.sched_impl = sched;
            rt.enable_trace_ring(16);
            rt.call(root, bounce, &[Value::Int(25)]).expect("ring runs");
            (rt.trace_dropped_total(), rt.take_trace())
        };
        let (base_dropped, base_tail) = run(SchedImpl::EventIndex);
        assert!(base_dropped > 0, "ring must truncate for the test to bite");
        for threads in [2, 4] {
            let (dropped, tail) = run(SchedImpl::Sharded { threads });
            assert_eq!(dropped, base_dropped, "threads={threads}: evictions");
            assert_eq!(tail, base_tail, "threads={threads}: ring tail");
        }
    }

    #[test]
    fn pool_persists_across_chunks_with_zero_moves() {
        // Two root calls = two executor chunks. The second must reuse
        // the pinned worker pool, and the steady-state window protocol
        // must never ship a runtime through a channel or rendezvous with
        // a coordinator channel pair.
        let (mut rt, root, bounce) = ring_runtime(4, CostModel::cm5());
        rt.sched_impl = SchedImpl::Sharded { threads: 2 };
        let a = rt.call(root, bounce, &[Value::Int(25)]).expect("chunk 1");
        let b = rt.call(root, bounce, &[Value::Int(25)]).expect("chunk 2");
        assert_eq!(a, b, "bounce is pure; both chunks agree");
        let st = rt.stats();
        assert!(st.sched.windows > 0, "windowed path exercised");
        assert_eq!(st.sched.runtime_moves, 0, "zero Runtime moves");
        assert_eq!(st.sched.coord_roundtrips, 0, "zero channel round-trips");
        assert!(st.sched.pool_reuses >= 1, "second chunk reused the pool");
    }

    #[test]
    fn pool_rebuilds_when_the_fault_plan_changes() {
        let (mut rt, root, bounce) = ring_runtime(4, CostModel::cm5());
        rt.sched_impl = SchedImpl::Sharded { threads: 2 };
        rt.call(root, bounce, &[Value::Int(5)]).expect("chunk 1");
        rt.set_fault_plan(FaultPlan::seeded(7));
        rt.call(root, bounce, &[Value::Int(5)]).expect("chunk 2");
        // The plan change invalidated the pool (worker networks hold a
        // plan copy), so the second chunk built a fresh one.
        assert_eq!(rt.stats().sched.pool_reuses, 0);
        rt.call(root, bounce, &[Value::Int(5)]).expect("chunk 3");
        assert_eq!(rt.stats().sched.pool_reuses, 1);
    }

    #[test]
    fn weighted_partition_defaults_to_equal_slices() {
        for (p, threads) in [(8, 2), (10, 4), (7, 3), (4, 4), (5, 1)] {
            let plain = shard_partition(p, threads, None);
            for s in 0..threads {
                for o in &plain[s * p / threads..(s + 1) * p / threads] {
                    assert_eq!(*o, s, "p={p} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn weighted_partition_splits_hot_slices_and_keeps_shards_nonempty() {
        // All the heat in the first quarter: the weighted cut must split
        // it instead of handing it to one shard.
        let mut w = vec![1u64; 16];
        for x in &mut w[0..4] {
            *x = 1000;
        }
        let owner = shard_partition(16, 4, Some(&w));
        assert!(owner.windows(2).all(|ab| ab[0] <= ab[1]), "contiguous");
        assert!(
            owner[0..4]
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1,
            "hot slice split across shards: {owner:?}"
        );
        for s in 0..4 {
            assert!(owner.contains(&s), "shard {s} nonempty: {owner:?}");
        }
        // Degenerate weights (zeros, short vectors) still partition.
        let owner = shard_partition(6, 3, Some(&[0, 0]));
        for s in 0..3 {
            assert!(owner.contains(&s), "shard {s} nonempty: {owner:?}");
        }
    }

    #[test]
    fn weighted_runs_stay_bit_identical() {
        // The shard map is host-time tuning: a wildly skewed weighting
        // must not change a single observable bit.
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        for threads in [2, 4] {
            let skew = run_ring_weighted(
                SchedImpl::Sharded { threads },
                CostModel::cm5(),
                None,
                Some(vec![1_000_000, 1, 1, 1]),
            );
            assert_bit_identical(&base, &skew, &format!("weighted threads={threads}"));
        }
    }

    #[test]
    fn spin_tiers_shrink_under_oversubscription() {
        let cores = host_cores();
        let matched = spin_tiers(cores.max(2));
        let oversub = spin_tiers(cores.max(2) * 8);
        assert!(oversub.spin <= matched.spin, "budget never grows");
        if cores > 1 {
            assert_eq!(matched.spin, SPIN, "at-or-under cores spins fully");
            assert!(oversub.spin < SPIN, "oversubscribed budget shrinks");
        } else {
            assert_eq!(matched.spin, 0, "single-core hosts never spin");
        }
        assert!(oversub.yields > 0, "yield tier precedes parking");
    }
}
