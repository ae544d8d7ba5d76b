//! End-to-end scenarios exercising every mechanism of the hybrid model:
//! stack execution, fallback, remote invocation, forwarding, stored
//! continuations, joins, locks, and the parallel-only baseline.

use hem_analysis::{InterfaceSet, Schema};
use hem_core::{ExecMode, Runtime};
use hem_ir::{BinOp, FieldId, LocalityHint, MethodId, Program, ProgramBuilder, UnOp, Value};
use hem_machine::cost::CostModel;
use hem_machine::NodeId;

fn rt_with(program: Program, nodes: u32, mode: ExecMode, ifaces: InterfaceSet) -> Runtime {
    Runtime::new(program, nodes, CostModel::cm5(), mode, ifaces).expect("valid program")
}

// ---------- fib: pure non-blocking recursion ----------

fn fib_program() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    let math = pb.class("Math", false);
    let fib = pb.declare(math, "fib", 1);
    pb.define(fib, |mb| {
        let n = mb.arg(0);
        let small = mb.binl(BinOp::Lt, n, 2);
        mb.if_else(
            small,
            |mb| mb.reply(n),
            |mb| {
                let me = mb.self_ref();
                let a = mb.binl(BinOp::Sub, n, 1);
                let b = mb.binl(BinOp::Sub, n, 2);
                let s1 = mb.invoke_local(me, fib, &[a.into()]);
                let s2 = mb.invoke_local(me, fib, &[b.into()]);
                mb.touch(&[s1, s2]);
                let x = mb.get_slot(s1);
                let y = mb.get_slot(s2);
                let r = mb.binl(BinOp::Add, x, y);
                mb.reply(r);
            },
        );
    });
    (pb.finish(), fib)
}

#[test]
fn fib_hybrid_runs_entirely_on_stack() {
    let (p, fib) = fib_program();
    let mut rt = rt_with(p, 1, ExecMode::Hybrid, InterfaceSet::Full);
    assert_eq!(rt.schemas().of(fib), Schema::NonBlocking);
    let o = rt.alloc_object_by_name("Math", NodeId(0));
    let r = rt.call(o, fib, &[Value::Int(15)]).unwrap();
    assert_eq!(r, Some(Value::Int(610)));
    let t = rt.stats().totals();
    assert_eq!(
        t.ctx_alloc, 0,
        "non-blocking recursion needs no heap contexts"
    );
    assert_eq!(t.fallbacks, 0);
    assert_eq!(t.par_invokes, 0);
    assert_eq!(t.msgs_sent, 0);
    assert!(
        t.stack_nb > 500,
        "every call completed on the stack: {}",
        t.stack_nb
    );
    assert_eq!(rt.live_contexts(), 0);
}

#[test]
fn fib_parallel_only_matches_but_allocates() {
    let (p, fib) = fib_program();
    let mut rt = rt_with(p, 1, ExecMode::ParallelOnly, InterfaceSet::Full);
    let o = rt.alloc_object_by_name("Math", NodeId(0));
    let r = rt.call(o, fib, &[Value::Int(15)]).unwrap();
    assert_eq!(r, Some(Value::Int(610)));
    let t = rt.stats().totals();
    assert!(
        t.ctx_alloc > 500,
        "heap context per invocation: {}",
        t.ctx_alloc
    );
    assert_eq!(t.ctx_alloc, t.ctx_free, "no context leaks");
    assert_eq!(rt.live_contexts(), 0);
}

#[test]
fn hybrid_is_cheaper_than_parallel_only_sequentially() {
    let (p, fib) = fib_program();
    let mut h = rt_with(p.clone(), 1, ExecMode::Hybrid, InterfaceSet::Full);
    let oh = h.alloc_object_by_name("Math", NodeId(0));
    h.call(oh, fib, &[Value::Int(15)]).unwrap();

    let mut par = rt_with(p, 1, ExecMode::ParallelOnly, InterfaceSet::Full);
    let op = par.alloc_object_by_name("Math", NodeId(0));
    par.call(op, fib, &[Value::Int(15)]).unwrap();

    assert!(
        h.makespan() * 3 < par.makespan(),
        "hybrid {} should be several times cheaper than parallel-only {}",
        h.makespan(),
        par.makespan()
    );
}

#[test]
fn interface_restriction_still_correct_but_slower() {
    let (p, fib) = fib_program();
    let mut results = Vec::new();
    let mut times = Vec::new();
    for ifc in [InterfaceSet::Full, InterfaceSet::MbCp, InterfaceSet::CpOnly] {
        let mut rt = rt_with(p.clone(), 1, ExecMode::Hybrid, ifc);
        let o = rt.alloc_object_by_name("Math", NodeId(0));
        results.push(rt.call(o, fib, &[Value::Int(12)]).unwrap());
        times.push(rt.makespan());
    }
    assert!(results.iter().all(|r| *r == Some(Value::Int(144))));
    assert!(
        times[0] <= times[1] && times[1] <= times[2],
        "more interfaces should not be slower: {times:?}"
    );
    assert!(times[0] < times[2], "NB fast path should beat CP-only");
}

// ---------- remote invocation & lazy context creation ----------

/// Two objects on two nodes; `Driver.go` calls `Echo.twice` remotely.
/// Returns (program, go, peer_field).
fn remote_program() -> (Program, MethodId, FieldId) {
    let mut pb = ProgramBuilder::new();
    let echo = pb.class("Echo", false);
    let twice = pb.method(echo, "twice", 1, |mb| {
        let r = mb.binl(BinOp::Mul, mb.arg(0), 2);
        mb.reply(r);
    });
    let driver = pb.class("Driver", false);
    let peer = pb.field(driver, "peer");
    let go = pb.method(driver, "go", 1, |mb| {
        let p = mb.get_field(peer);
        let s = mb.invoke_into(p, twice, &[mb.arg(0).into()]);
        let v = mb.touch_get(s);
        let r = mb.binl(BinOp::Add, v, 1);
        mb.reply(r);
    });
    (pb.finish(), go, peer)
}

#[test]
fn remote_invoke_falls_back_and_replies() {
    let (p, go, peer) = remote_program();
    let mut rt = rt_with(p, 2, ExecMode::Hybrid, InterfaceSet::Full);
    let e = rt.alloc_object_by_name("Echo", NodeId(1));
    let d = rt.alloc_object_by_name("Driver", NodeId(0));
    rt.set_field(d, peer, Value::Obj(e));
    let r = rt.call(d, go, &[Value::Int(21)]).unwrap();
    assert_eq!(r, Some(Value::Int(43)));
    let t = rt.stats().totals();
    assert_eq!(t.remote_invokes, 1);
    assert_eq!(t.msgs_sent, 1);
    assert_eq!(t.replies_sent, 1);
    assert_eq!(t.fallbacks, 1, "caller lazily created its own context");
    assert_eq!(t.ctx_alloc, 1);
    assert_eq!(
        t.wrapper_runs, 1,
        "remote side ran from the message handler"
    );
    assert_eq!(rt.live_contexts(), 0, "all contexts reclaimed");
    let s = rt.stats();
    assert_eq!(
        s.per_node[1].ctx_alloc, 0,
        "callee ran on the handler's stack"
    );
}

#[test]
fn remote_invoke_parallel_only_allocates_on_both_sides() {
    let (p, go, peer) = remote_program();
    let mut rt = rt_with(p, 2, ExecMode::ParallelOnly, InterfaceSet::Full);
    let e = rt.alloc_object_by_name("Echo", NodeId(1));
    let d = rt.alloc_object_by_name("Driver", NodeId(0));
    rt.set_field(d, peer, Value::Obj(e));
    let r = rt.call(d, go, &[Value::Int(21)]).unwrap();
    assert_eq!(r, Some(Value::Int(43)));
    let s = rt.stats();
    assert!(s.per_node[0].ctx_alloc >= 1);
    assert!(
        s.per_node[1].ctx_alloc >= 1,
        "baseline allocates at the receiver"
    );
    assert_eq!(rt.live_contexts(), 0);
}

// ---------- forwarding (continuation passing on the stack) ----------

/// root -> intermed -> respond via Forward. Returns (program, root, next).
fn forward_program(local: bool) -> (Program, MethodId, FieldId) {
    let hint = if local {
        LocalityHint::AlwaysLocal
    } else {
        LocalityHint::Unknown
    };
    let mut pb = ProgramBuilder::new();
    let c = pb.class("F", false);
    let next = pb.field(c, "next");
    let respond = pb.method(c, "respond", 1, |mb| {
        let r = mb.binl(BinOp::Add, mb.arg(0), 100);
        mb.reply(r);
    });
    let intermed = pb.method(c, "intermed", 1, |mb| {
        let n = mb.get_field(next);
        mb.forward(n, respond, &[mb.arg(0).into()], hint);
    });
    let root = pb.method(c, "root", 1, |mb| {
        let n = mb.get_field(next);
        let s = mb.slot();
        mb.invoke(Some(s), n, intermed, &[mb.arg(0).into()], hint);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    (pb.finish(), root, next)
}

#[test]
fn local_forward_chain_completes_on_stack() {
    let (p, root, next) = forward_program(true);
    let mut rt = rt_with(p, 1, ExecMode::Hybrid, InterfaceSet::Full);
    let a = rt.alloc_object_by_name("F", NodeId(0));
    let b = rt.alloc_object_by_name("F", NodeId(0));
    let c = rt.alloc_object_by_name("F", NodeId(0));
    rt.set_field(a, next, Value::Obj(b));
    rt.set_field(b, next, Value::Obj(c));
    let r = rt.call(a, root, &[Value::Int(5)]).unwrap();
    assert_eq!(r, Some(Value::Int(105)));
    let t = rt.stats().totals();
    assert_eq!(t.ctx_alloc, 0, "whole forwarding chain ran on the stack");
    assert_eq!(t.conts_created, 0, "continuation never materialized");
    assert!(t.stack_forwards >= 1);
    assert!(t.stack_cp >= 1, "intermed used the CP schema");
}

#[test]
fn cross_node_forward_materializes_continuation() {
    let (p, root, next) = forward_program(false);
    let mut rt = rt_with(p, 2, ExecMode::Hybrid, InterfaceSet::Full);
    let a = rt.alloc_object_by_name("F", NodeId(0));
    let b = rt.alloc_object_by_name("F", NodeId(0));
    let c = rt.alloc_object_by_name("F", NodeId(1)); // responder remote
    rt.set_field(a, next, Value::Obj(b));
    rt.set_field(b, next, Value::Obj(c));
    let r = rt.call(a, root, &[Value::Int(5)]).unwrap();
    assert_eq!(r, Some(Value::Int(105)));
    let t = rt.stats().totals();
    assert!(
        t.conts_created >= 1,
        "off-node forward forces materialization"
    );
    assert_eq!(t.msgs_sent, 1, "one forwarded request");
    assert!(t.fallbacks >= 1, "root adopted the shell context");
    assert_eq!(rt.live_contexts(), 0);
}

#[test]
fn forwarded_message_replies_to_original_caller_across_three_nodes() {
    let (p, root, next) = forward_program(false);
    let mut rt = rt_with(p, 3, ExecMode::Hybrid, InterfaceSet::Full);
    let a = rt.alloc_object_by_name("F", NodeId(0));
    let b = rt.alloc_object_by_name("F", NodeId(1));
    let c = rt.alloc_object_by_name("F", NodeId(2));
    rt.set_field(a, next, Value::Obj(b));
    rt.set_field(b, next, Value::Obj(c));
    let r = rt.call(a, root, &[Value::Int(7)]).unwrap();
    assert_eq!(r, Some(Value::Int(107)));
    let s = rt.stats();
    assert_eq!(
        s.per_node[1].ctx_alloc, 0,
        "intermediate node stays stackless"
    );
    assert!(
        s.per_node[1].proxy_conts >= 1,
        "proxy context used by the wrapper"
    );
    assert_eq!(s.per_node[2].ctx_alloc, 0, "responder ran from the handler");
    assert_eq!(rt.live_contexts(), 0);
}

// ---------- stored continuations: a custom barrier (Fig. 3) ----------

/// Returns (program, go, fields...) for a master fanning out to workers
/// that meet at a counting barrier built from stored continuations.
#[allow(clippy::type_complexity)]
fn barrier_program() -> (Program, MethodId, FieldId, FieldId, FieldId, FieldId) {
    let mut pb = ProgramBuilder::new();
    let bar = pb.class("Barrier", true);
    let count = pb.field(bar, "count");
    let waiters = pb.array_field(bar, "waiters");
    let arrive = pb.declare(bar, "arrive", 0);
    pb.define(arrive, |mb| {
        let c = mb.get_field(count);
        let c1 = mb.binl(BinOp::Sub, c, 1);
        mb.set_field(count, c1);
        let done = mb.binl(BinOp::Eq, c1, 0);
        mb.if_else(
            done,
            |mb| {
                let n = mb.arr_len(waiters);
                mb.for_range(0i64, n, |mb, i| {
                    let w = mb.get_elem(waiters, i);
                    let nilp = mb.unl(UnOp::IsNil, w);
                    let present = mb.binl(BinOp::Eq, nilp, false);
                    mb.if_(present, |mb| {
                        mb.send_to_cont(w, 1i64);
                    });
                });
                mb.reply(1i64);
            },
            |mb| {
                mb.store_cont_at(waiters, c1);
                mb.halt();
            },
        );
    });
    let worker = pb.class("Worker", false);
    let barf = pb.field(worker, "bar");
    let work = pb.method(worker, "work", 0, |mb| {
        let b = mb.get_field(barf);
        let s = mb.invoke_into(b, arrive, &[]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    let master = pb.class("Master", false);
    let ws = pb.array_field(master, "workers");
    let go = pb.method(master, "go", 0, |mb| {
        let n = mb.arr_len(ws);
        let join = mb.slot();
        mb.join_init(join, n);
        mb.for_range(0i64, n, |mb, i| {
            let w = mb.get_elem(ws, i);
            mb.invoke(Some(join), w, work, &[], LocalityHint::Unknown);
        });
        mb.touch(&[join]);
        mb.reply(7i64);
    });
    (pb.finish(), go, count, waiters, barf, ws)
}

#[test]
fn barrier_via_master_both_modes() {
    let (p, go, count, waiters, barf, ws) = barrier_program();
    for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
        let mut rt = rt_with(p.clone(), 4, mode, InterfaceSet::Full);
        let b = rt.alloc_object_by_name("Barrier", NodeId(0));
        rt.set_field(b, count, Value::Int(3));
        rt.set_array(b, waiters, vec![Value::Nil; 3]);
        let mut wrefs = Vec::new();
        for n in 1..4u32 {
            let w = rt.alloc_object_by_name("Worker", NodeId(n));
            rt.set_field(w, barf, Value::Obj(b));
            wrefs.push(Value::Obj(w));
        }
        let m = rt.alloc_object_by_name("Master", NodeId(0));
        rt.set_array(m, ws, wrefs);
        let r = rt.call(m, go, &[]).unwrap();
        assert_eq!(
            r,
            Some(Value::Int(7)),
            "{mode}: barrier released all workers"
        );
        assert_eq!(rt.live_contexts(), 0, "{mode}: no leaked contexts");
        if mode == ExecMode::Hybrid {
            let t = rt.stats().totals();
            assert!(
                t.conts_created >= 2,
                "parked arrivals materialized continuations"
            );
        }
    }
}

// ---------- locks ----------

#[test]
fn locked_object_serializes_and_defers() {
    // A locked Cell whose `bump` reads a remote value (suspending while
    // holding the lock), forcing later arrivals to defer.
    let mut pb = ProgramBuilder::new();
    let remote = pb.class("Remote", false);
    let get1 = pb.method(remote, "get1", 0, |mb| mb.reply(1i64));
    let cell = pb.class("Cell", true);
    let n = pb.field(cell, "n");
    let peer = pb.field(cell, "peer");
    let bump = pb.method(cell, "bump", 0, |mb| {
        let p = mb.get_field(peer);
        let s = mb.invoke_into(p, get1, &[]);
        let v = mb.touch_get(s);
        let cur = mb.get_field(n);
        let nv = mb.binl(BinOp::Add, cur, v);
        mb.set_field(n, nv);
        mb.reply(nv);
    });
    let master = pb.class("Master", false);
    let cellf = pb.field(master, "cell");
    let go = pb.method(master, "go", 0, |mb| {
        let c = mb.get_field(cellf);
        let join = mb.slot();
        mb.join_init(join, 4i64);
        for _ in 0..4 {
            mb.invoke(Some(join), c, bump, &[], LocalityHint::Unknown);
        }
        mb.touch(&[join]);
        mb.reply(0i64);
    });
    let p = pb.finish();

    for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
        let mut rt = rt_with(p.clone(), 3, mode, InterfaceSet::Full);
        let r = rt.alloc_object_by_name("Remote", NodeId(2));
        let c = rt.alloc_object_by_name("Cell", NodeId(1));
        rt.set_field(c, n, Value::Int(0));
        rt.set_field(c, peer, Value::Obj(r));
        let m = rt.alloc_object_by_name("Master", NodeId(0));
        rt.set_field(m, cellf, Value::Obj(c));
        let res = rt.call(m, go, &[]).unwrap();
        assert_eq!(res, Some(Value::Int(0)), "{mode}");
        assert_eq!(
            rt.get_field(c, n),
            Value::Int(4),
            "{mode}: all four bumps serialized"
        );
        assert_eq!(rt.live_contexts(), 0, "{mode}");
        let t = rt.stats().totals();
        assert!(
            t.lock_conflicts >= 1,
            "{mode}: suspending holder forced deferrals"
        );
    }
}

// ---------- determinism ----------

#[test]
fn runs_are_deterministic() {
    let (p, go, peer) = remote_program();
    let run = || {
        let mut rt = rt_with(p.clone(), 2, ExecMode::Hybrid, InterfaceSet::Full);
        let e = rt.alloc_object_by_name("Echo", NodeId(1));
        let d = rt.alloc_object_by_name("Driver", NodeId(0));
        rt.set_field(d, peer, Value::Obj(e));
        let r = rt.call(d, go, &[Value::Int(3)]).unwrap();
        (r, rt.makespan(), rt.stats().totals())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

// ---------- seq-opt cost model ----------

#[test]
fn seq_opt_removes_parallelization_overhead() {
    let (p, fib) = fib_program();
    let mut full = Runtime::new(
        p.clone(),
        1,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    let o1 = full.alloc_object_by_name("Math", NodeId(0));
    full.call(o1, fib, &[Value::Int(14)]).unwrap();

    let mut opt = Runtime::new(
        p,
        1,
        CostModel::cm5().seq_opt(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    let o2 = opt.alloc_object_by_name("Math", NodeId(0));
    opt.call(o2, fib, &[Value::Int(14)]).unwrap();

    assert!(opt.makespan() < full.makespan(), "seq-opt must be cheaper");
}

// ---------- C baseline ----------

#[test]
fn c_baseline_matches_and_is_cheapest() {
    let (p, fib) = fib_program();
    let mut rt = rt_with(p, 1, ExecMode::Hybrid, InterfaceSet::Full);
    let o = rt.alloc_object_by_name("Math", NodeId(0));
    let (v, c_cycles) = rt.call_c_baseline(o, fib, &[Value::Int(15)]).unwrap();
    assert_eq!(v, Some(Value::Int(610)));

    let before = rt.makespan();
    rt.call(o, fib, &[Value::Int(15)]).unwrap();
    let hybrid_cycles = rt.makespan() - before;
    assert!(
        c_cycles < hybrid_cycles,
        "C baseline {c_cycles} must undercut hybrid {hybrid_cycles}"
    );
    assert!(
        hybrid_cycles < c_cycles * 3,
        "hybrid {hybrid_cycles} should be C-like, C was {c_cycles}"
    );
}

// ---------- speculative inlining ----------

#[test]
fn inlinable_leaf_uses_guard_cost() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let get = pb.method(c, "get", 0, |mb| {
        mb.inlinable();
        mb.reply(42i64);
    });
    let go = pb.method(c, "go", 0, |mb| {
        let me = mb.self_ref();
        let s = mb.invoke_local(me, get, &[]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    let p = pb.finish();
    let mut rt = rt_with(p, 1, ExecMode::Hybrid, InterfaceSet::Full);
    let o = rt.alloc_object_by_name("C", NodeId(0));
    let r = rt.call(o, go, &[]).unwrap();
    assert_eq!(r, Some(Value::Int(42)));
    let t = rt.stats().totals();
    assert_eq!(t.inlined, 1);
    assert_eq!(t.stack_nb, 1, "only `go` itself counts as an NB stack call");
}

/// `walk(n)`: fib-shaped NB recursion whose leaves call an inlinable
/// accessor.
fn walk_program() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let get = pb.method(c, "get", 0, |mb| {
        mb.inlinable();
        mb.reply(1i64);
    });
    let walk = pb.declare(c, "walk", 1);
    pb.define(walk, |mb| {
        let n = mb.arg(0);
        let me = mb.self_ref();
        let small = mb.binl(BinOp::Lt, n, 2);
        mb.if_else(
            small,
            |mb| {
                let s = mb.invoke_local(me, get, &[]);
                let v = mb.touch_get(s);
                mb.reply(v);
            },
            |mb| {
                let a = mb.binl(BinOp::Sub, n, 1);
                let b = mb.binl(BinOp::Sub, n, 2);
                let s1 = mb.invoke_local(me, walk, &[a.into()]);
                let s2 = mb.invoke_local(me, walk, &[b.into()]);
                mb.touch(&[s1, s2]);
                let x = mb.get_slot(s1);
                let y = mb.get_slot(s2);
                let r = mb.binl(BinOp::Add, x, y);
                mb.reply(r);
            },
        );
    });
    (pb.finish(), walk)
}

/// `Runtime::cost` and `Runtime::enable_inlining` are public fields: a
/// change made after `Runtime::new` must still price the next run. The
/// pinned `(makespan, inlined, stack NB calls)` values are the ones the
/// runtime produced before the call path cached anything per method.
#[test]
fn cost_and_inlining_changes_after_construction_apply() {
    let (p, walk) = walk_program();
    let run = |mode: ExecMode, tweak: &dyn Fn(&mut Runtime)| {
        let mut rt = rt_with(p.clone(), 1, mode, InterfaceSet::Full);
        tweak(&mut rt);
        let o = rt.alloc_object_by_name("C", NodeId(0));
        let r = rt.call(o, walk, &[Value::Int(10)]).unwrap();
        assert_eq!(r, Some(Value::Int(89)));
        let t = rt.stats().totals();
        (rt.makespan(), t.inlined, t.stack_nb)
    };
    let mut got = Vec::new();
    for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
        got.push(run(mode, &|_| {}));
        got.push(run(mode, &|rt| rt.cost.plain_call += 7));
        got.push(run(mode, &|rt| rt.enable_inlining = false));
    }
    // Hybrid: 177 walk calls run on the stack; 89 leaf calls of `get`
    // are inlined until inlining is switched off, when they become
    // plain NB calls too.
    let (base, slower, no_inline) = (got[0], got[1], got[2]);
    assert_eq!(slower.0 - base.0, 7 * base.2, "plain_call priced per call");
    assert_eq!((no_inline.1, no_inline.2), (0, base.1 + base.2));
    // Parallel-only makes no stack calls, so `plain_call` prices nothing
    // there; switching inlining off turns its 89 inlined leaves into heap
    // contexts.
    assert_eq!(
        got,
        vec![
            (5661, 89, 177),
            (6900, 89, 177),
            (6284, 0, 266),
            (31924, 89, 0),
            (31924, 89, 0),
            (45096, 0, 0),
        ]
    );
}

// ---------- misc protocol robustness ----------

#[test]
fn fire_and_forget_does_not_block_caller() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let sink = pb.field(c, "sink");
    let note = pb.method(c, "note", 1, |mb| {
        mb.set_field(sink, mb.arg(0));
        mb.reply_nil();
    });
    let go = pb.method(c, "go", 1, |mb| {
        mb.invoke(None, mb.arg(0), note, &[7i64.into()], LocalityHint::Unknown);
        mb.reply(1i64);
    });
    let p = pb.finish();
    let mut rt = rt_with(p, 2, ExecMode::Hybrid, InterfaceSet::Full);
    let a = rt.alloc_object_by_name("C", NodeId(0));
    let b = rt.alloc_object_by_name("C", NodeId(1));
    let r = rt.call(a, go, &[Value::Obj(b)]).unwrap();
    assert_eq!(r, Some(Value::Int(1)));
    assert_eq!(rt.get_field(b, sink), Value::Int(7), "side effect arrived");
    let t = rt.stats().totals();
    assert_eq!(t.fallbacks, 0, "fire-and-forget needs no caller context");
    assert_eq!(
        t.replies_sent, 0,
        "discard continuation suppresses the reply"
    );
}

#[test]
fn unresolved_get_slot_traps() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let m = pb.method(c, "bad", 0, |mb| {
        let s = mb.slot();
        let v = mb.get_slot(s);
        mb.reply(v);
    });
    let p = pb.finish();
    let mut rt = rt_with(p, 1, ExecMode::Hybrid, InterfaceSet::Full);
    let o = rt.alloc_object_by_name("C", NodeId(0));
    let e = rt.call(o, m, &[]).unwrap_err();
    assert!(e.what.contains("unresolved slot"), "{e}");
}

#[test]
fn deep_mb_recursion_diverts_through_heap() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let down = pb.declare(c, "down", 1);
    pb.define(down, |mb| {
        let n = mb.arg(0);
        let z = mb.binl(BinOp::Le, n, 0);
        mb.if_else(
            z,
            |mb| mb.reply(0i64),
            |mb| {
                let me = mb.self_ref();
                let n1 = mb.binl(BinOp::Sub, n, 1);
                // Unknown hint ⇒ may-block schema.
                let s = mb.invoke_into(me, down, &[n1.into()]);
                let v = mb.touch_get(s);
                let r = mb.binl(BinOp::Add, v, 1);
                mb.reply(r);
            },
        );
    });
    let p = pb.finish();
    let mut rt = rt_with(p, 1, ExecMode::Hybrid, InterfaceSet::Full);
    rt.max_seq_depth = 50;
    let o = rt.alloc_object_by_name("C", NodeId(0));
    let r = rt.call(o, down, &[Value::Int(3000)]).unwrap();
    assert_eq!(r, Some(Value::Int(3000)));
    let t = rt.stats().totals();
    assert!(
        t.par_invokes > 0,
        "depth guard diverted calls through the heap"
    );
    assert_eq!(rt.live_contexts(), 0);
}

#[test]
fn reactive_halt_leaves_future_pending_and_reports_stuck() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let silent = pb.method(c, "silent", 0, |mb| mb.halt());
    let go = pb.method(c, "go", 1, |mb| {
        let s = mb.invoke_into(mb.arg(0), silent, &[]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    let p = pb.finish();
    let mut rt = rt_with(p, 2, ExecMode::Hybrid, InterfaceSet::Full);
    let a = rt.alloc_object_by_name("C", NodeId(0));
    let b = rt.alloc_object_by_name("C", NodeId(1));
    let r = rt.call(a, go, &[Value::Obj(b)]).unwrap();
    assert_eq!(r, None, "no reply ever produced");
    assert!(!rt.stuck_contexts().is_empty(), "caller is parked forever");
}
