//! Heap activation frames (contexts) and the per-node context table.
//!
//! A context is the paper's heap-allocated activation record: program
//! counter, locals, and — crucially — the **future slots embedded in the
//! frame itself**. (StackThreads allocates futures separately and pays an
//! extra memory reference per touch; the paper calls this out as a design
//! difference, and the `ablation_futures` bench quantifies it.)
//!
//! Contexts are recycled through a free list with a generation counter;
//! every [`ContRef`](hem_ir::ContRef) carries the generation it was minted
//! against, so a stale continuation reaching a recycled context is caught
//! as a trap instead of corrupting an unrelated activation.

use crate::cont::Continuation;
use hem_ir::{MethodId, ObjRef, Value};

/// The state of one future slot inside an activation frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotState {
    /// Untouched.
    Empty,
    /// An invocation will reply here.
    Pending,
    /// Resolved.
    Full(Value),
    /// A join counter awaiting `n` more completions; `Join(0)` is resolved.
    Join(u32),
}

impl SlotState {
    /// Is the slot resolved (a touch of it would not block)?
    pub fn satisfied(&self) -> bool {
        matches!(self, SlotState::Full(_) | SlotState::Join(0))
    }

    /// The value a `GetSlot` reads: the payload for `Full`, `Nil` for a
    /// completed join.
    pub fn value(&self) -> Option<Value> {
        match self {
            SlotState::Full(v) => Some(*v),
            SlotState::Join(0) => Some(Value::Nil),
            _ => None,
        }
    }
}

/// The mutable core of an activation: identical for stack frames (the
/// sequential interpreter keeps one on the host stack) and heap contexts
/// (which wrap one in scheduling state). Falling back from stack to heap
/// is *moving* an `ActFrame` into a [`Context`] — the mechanical heart of
/// the paper's lazy context allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ActFrame {
    /// Executing method.
    pub method: MethodId,
    /// Receiver (`self`); always local to the executing node.
    pub obj: ObjRef,
    /// Next instruction index.
    pub pc: u32,
    /// Registers (`0..params` are the arguments).
    pub locals: Vec<Value>,
    /// Embedded future slots.
    pub slots: Vec<SlotState>,
}

impl ActFrame {
    /// Fresh frame for invoking `method` on `obj`. `locals` holds the
    /// arguments and becomes the register file: it is padded with `Nil`
    /// up to `nlocals` registers, which reuses its allocation when the
    /// caller reserved that capacity.
    ///
    /// # Panics
    /// If there are more arguments than registers. Every call site the
    /// program contains is arity-checked by validation, and
    /// `Runtime::call` checks a root call's arity before it gets here.
    pub fn new(
        method: MethodId,
        obj: ObjRef,
        mut locals: Vec<Value>,
        nlocals: u16,
        nslots: u16,
    ) -> Self {
        assert!(
            locals.len() <= nlocals as usize,
            "{} arguments exceed {nlocals} registers",
            locals.len()
        );
        locals.resize(nlocals as usize, Value::Nil);
        ActFrame {
            method,
            obj,
            pc: 0,
            locals,
            slots: vec![SlotState::Empty; nslots as usize],
        }
    }

    /// Words of live state (locals + slots): the save/restore cost basis.
    pub fn words(&self) -> u64 {
        (self.locals.len() + self.slots.len()) as u64
    }
}

/// Scheduling status of a heap context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitState {
    /// On the ready queue (or about to be).
    Ready,
    /// Currently being stepped by the scheduler.
    Running,
    /// Suspended on a touch: `mask` bits are the awaited slots, `missing`
    /// of them are still unresolved.
    Waiting {
        /// Bitmask of awaited slot indices.
        mask: u64,
        /// Number of awaited slots still unresolved.
        missing: u16,
    },
    /// A lazily created shell awaiting population by its unwinding caller
    /// (paper §3.2.3 case 3).
    Shell,
    /// Free-list entry.
    Free,
}

/// A heap activation record: frame + scheduling metadata.
#[derive(Debug, Clone)]
pub struct Context {
    /// The activation state.
    pub frame: ActFrame,
    /// Reply capability (set at creation for parallel invocations, linked
    /// lazily on fallback for sequential ones — paper Fig. 6).
    pub cont: Continuation,
    /// Scheduling status.
    pub wait: WaitState,
    /// Generation (stale-continuation guard).
    pub gen: u32,
    /// Whether this context holds its receiver's lock.
    pub holds_lock: bool,
    /// True if this context's continuation has been consumed (forwarded or
    /// stored); a subsequent `Reply` is a trap.
    pub cont_consumed: bool,
    /// Blame tag (originating external request id + 1; 0 = untagged) of
    /// the step that created this context; dispatching the context later
    /// re-establishes the tag.
    pub req: u64,
}

/// Per-node context table: slab with free list and generations.
#[derive(Debug, Default, Clone)]
pub struct CtxTable {
    entries: Vec<Context>,
    free: Vec<u32>,
    /// Contexts currently allocated (for leak checks).
    pub live: u64,
    /// High-water mark of simultaneously live contexts.
    pub peak: u64,
}

impl CtxTable {
    /// Allocate a context; returns its index.
    pub fn alloc(&mut self, frame: ActFrame, cont: Continuation, wait: WaitState) -> u32 {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if let Some(i) = self.free.pop() {
            let e = &mut self.entries[i as usize];
            debug_assert_eq!(e.wait, WaitState::Free);
            e.frame = frame;
            e.cont = cont;
            e.wait = wait;
            e.holds_lock = false;
            e.cont_consumed = false;
            e.req = 0;
            // gen was bumped at free time.
            i
        } else {
            self.entries.push(Context {
                frame,
                cont,
                wait,
                gen: 0,
                holds_lock: false,
                cont_consumed: false,
                req: 0,
            });
            (self.entries.len() - 1) as u32
        }
    }

    /// Free a context, bumping its generation.
    pub fn release(&mut self, i: u32) {
        let e = &mut self.entries[i as usize];
        debug_assert_ne!(e.wait, WaitState::Free, "double free of context {i}");
        e.wait = WaitState::Free;
        e.gen = e.gen.wrapping_add(1);
        e.frame.locals.clear();
        e.frame.slots.clear();
        self.free.push(i);
        self.live -= 1;
    }

    /// Borrow a context.
    pub fn get(&self, i: u32) -> &Context {
        &self.entries[i as usize]
    }

    /// Borrow a context mutably.
    pub fn get_mut(&mut self, i: u32) -> &mut Context {
        &mut self.entries[i as usize]
    }

    /// Current generation of slot `i` (for minting continuations).
    pub fn gen(&self, i: u32) -> u32 {
        self.entries[i as usize].gen
    }

    /// Indices of live (non-free) contexts — diagnostics for stuck runs.
    pub fn live_indices(&self) -> Vec<u32> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.wait != WaitState::Free)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_machine::NodeId;

    fn frame() -> ActFrame {
        ActFrame::new(
            MethodId(0),
            ObjRef {
                node: NodeId(0),
                index: 0,
            },
            vec![Value::Int(7)],
            4,
            2,
        )
    }

    #[test]
    fn frame_initialization() {
        let f = frame();
        assert_eq!(f.locals[0], Value::Int(7));
        assert_eq!(f.locals[1], Value::Nil);
        assert_eq!(f.slots, vec![SlotState::Empty; 2]);
        assert_eq!(f.words(), 6);
        assert_eq!(f.pc, 0);
    }

    #[test]
    fn slot_states() {
        assert!(!SlotState::Empty.satisfied());
        assert!(!SlotState::Pending.satisfied());
        assert!(SlotState::Full(Value::Nil).satisfied());
        assert!(SlotState::Join(0).satisfied());
        assert!(!SlotState::Join(3).satisfied());
        assert_eq!(SlotState::Full(Value::Int(1)).value(), Some(Value::Int(1)));
        assert_eq!(SlotState::Join(0).value(), Some(Value::Nil));
        assert_eq!(SlotState::Pending.value(), None);
    }

    #[test]
    fn table_allocates_and_recycles_with_generation() {
        let mut t = CtxTable::default();
        let a = t.alloc(frame(), Continuation::Unset, WaitState::Ready);
        assert_eq!(t.live, 1);
        assert_eq!(t.gen(a), 0);
        t.release(a);
        assert_eq!(t.live, 0);
        let b = t.alloc(frame(), Continuation::Root, WaitState::Shell);
        assert_eq!(b, a, "free list reuses the slot");
        assert_eq!(t.gen(b), 1, "generation bumped");
        assert_eq!(t.get(b).wait, WaitState::Shell);
        assert_eq!(t.peak, 1);
    }

    #[test]
    fn live_indices_reports_leaks() {
        let mut t = CtxTable::default();
        let a = t.alloc(frame(), Continuation::Unset, WaitState::Ready);
        let b = t.alloc(frame(), Continuation::Unset, WaitState::Ready);
        t.release(a);
        assert_eq!(t.live_indices(), vec![b]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_caught() {
        let mut t = CtxTable::default();
        let a = t.alloc(frame(), Continuation::Unset, WaitState::Ready);
        t.release(a);
        t.release(a);
    }
}
