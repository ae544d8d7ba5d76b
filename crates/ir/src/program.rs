//! Program structure: classes, methods, and static validation.

use crate::instr::{Instr, Operand};
use crate::{ClassId, FieldId, Local, MethodId, Slot};

/// A field declaration. Scalar fields hold one [`crate::Value`]; array
/// fields hold a growable vector of values sized by `ArrNew`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name (diagnostics only).
    pub name: String,
    /// True for array fields.
    pub array: bool,
}

/// A class: a field layout plus the implicit-locking policy.
///
/// In ICC++ locking is dictated by data definitions; here `locked = true`
/// means every method invocation on an instance acquires the object lock
/// for the duration of the method (including across suspensions), and a
/// held lock defers incoming invocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Class {
    /// Class name.
    pub name: String,
    /// Declared fields.
    pub fields: Vec<FieldDecl>,
    /// Whether instances carry an implicit lock.
    pub locked: bool,
}

/// A method: `params` arguments arriving in registers `0..params`,
/// `locals` total registers, `slots` future slots, and a flat body.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    /// Method name (diagnostics and lookup).
    pub name: String,
    /// Receiver class.
    pub class: ClassId,
    /// Number of parameters.
    pub params: u16,
    /// Total registers (≥ `params`).
    pub locals: u16,
    /// Number of future slots.
    pub slots: u16,
    /// Instruction sequence.
    pub body: Vec<Instr>,
    /// Marks tiny leaf methods (accessors) eligible for speculative
    /// inlining: when the runtime check proves the target local and
    /// unlocked, the body runs with only the guard cost, no call overhead
    /// (paper §4.2 includes speculative inlining in all measurements).
    pub inlinable: bool,
}

/// A complete program: class table + method table. The entry point is
/// chosen by the harness (any method can be the root invocation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Class table.
    pub classes: Vec<Class>,
    /// Method table.
    pub methods: Vec<Method>,
}

/// A static validation error, with enough context to locate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Offending method, if applicable.
    pub method: Option<MethodId>,
    /// Instruction index within the method, if applicable.
    pub at: Option<usize>,
    /// Human-readable description.
    pub what: String,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.method, self.at) {
            (Some(m), Some(i)) => write!(f, "method #{} instr {}: {}", m.0, i, self.what),
            (Some(m), None) => write!(f, "method #{}: {}", m.0, self.what),
            _ => write!(f, "{}", self.what),
        }
    }
}

impl Program {
    /// Look up a method by id.
    #[inline]
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.idx()]
    }

    /// Look up a class by id.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.idx()]
    }

    /// Find a method by `Class::name` and `Method::name`.
    pub fn find_method(&self, class: &str, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| m.name == name && self.classes[m.class.idx()].name == class)
            .map(|i| MethodId(i as u32))
    }

    /// Statically validate the program. Checks register/slot/field bounds,
    /// jump targets, call-site arity, terminator discipline and
    /// `StoreCont`/array-field shape agreement. Returns all errors found.
    pub fn validate(&self) -> Result<(), Vec<ValidationError>> {
        let mut errs = Vec::new();
        for (mi, m) in self.methods.iter().enumerate() {
            let mid = MethodId(mi as u32);
            let mut err = |at: Option<usize>, what: String| {
                errs.push(ValidationError {
                    method: Some(mid),
                    at,
                    what,
                });
            };
            if m.class.idx() >= self.classes.len() {
                err(None, format!("class #{} out of range", m.class.0));
                continue;
            }
            if m.locals < m.params {
                err(None, format!("locals {} < params {}", m.locals, m.params));
            }
            if m.body.is_empty() {
                err(None, "empty body".into());
                continue;
            }
            if !m.body[m.body.len() - 1].no_fallthrough() {
                err(
                    Some(m.body.len() - 1),
                    "last instruction can fall off the end of the method".into(),
                );
            }
            let cls = &self.classes[m.class.idx()];
            for (pi, ins) in m.body.iter().enumerate() {
                self.validate_instr(m, cls, ins, pi, &mut |at, what| {
                    errs.push(ValidationError {
                        method: Some(mid),
                        at: Some(at),
                        what,
                    })
                });
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    fn validate_instr(
        &self,
        m: &Method,
        cls: &Class,
        ins: &Instr,
        at: usize,
        err: &mut dyn FnMut(usize, String),
    ) {
        let check_local = |l: Local, err: &mut dyn FnMut(usize, String)| {
            if l.idx() >= m.locals as usize {
                err(
                    at,
                    format!("register {} out of range ({} locals)", l.0, m.locals),
                );
            }
        };
        let check_op = |o: &Operand, err: &mut dyn FnMut(usize, String)| {
            if let Operand::L(l) = o {
                if l.idx() >= m.locals as usize {
                    err(
                        at,
                        format!("register {} out of range ({} locals)", l.0, m.locals),
                    );
                }
            }
        };
        let check_slot = |s: Slot, err: &mut dyn FnMut(usize, String)| {
            if s.idx() >= m.slots as usize {
                err(at, format!("slot {} out of range ({} slots)", s.0, m.slots));
            }
        };
        let check_field = |f: FieldId, want_array: bool, err: &mut dyn FnMut(usize, String)| {
            if f.idx() >= cls.fields.len() {
                err(
                    at,
                    format!("field {} out of range ({} fields)", f.0, cls.fields.len()),
                );
            } else if cls.fields[f.idx()].array != want_array {
                err(
                    at,
                    format!(
                        "field {} ({}) is {}an array",
                        f.0,
                        cls.fields[f.idx()].name,
                        if cls.fields[f.idx()].array {
                            ""
                        } else {
                            "not "
                        }
                    ),
                );
            }
        };
        let check_target = |to: u32, err: &mut dyn FnMut(usize, String)| {
            if to as usize >= m.body.len() {
                err(
                    at,
                    format!("jump target {} out of range ({} instrs)", to, m.body.len()),
                );
            }
        };
        let check_call =
            |method: MethodId, args: &[Operand], err: &mut dyn FnMut(usize, String)| {
                if method.idx() >= self.methods.len() {
                    err(at, format!("callee #{} out of range", method.0));
                } else if self.methods[method.idx()].params as usize != args.len() {
                    err(
                        at,
                        format!(
                            "callee {} expects {} args, got {}",
                            self.methods[method.idx()].name,
                            self.methods[method.idx()].params,
                            args.len()
                        ),
                    );
                }
            };

        match ins {
            Instr::Mov { dst, src } => {
                check_local(*dst, err);
                check_op(src, err);
            }
            Instr::Bin { dst, a, b, .. } => {
                check_local(*dst, err);
                check_op(a, err);
                check_op(b, err);
            }
            Instr::Un { dst, a, .. } => {
                check_local(*dst, err);
                check_op(a, err);
            }
            Instr::SelfRef { dst } | Instr::MyNode { dst } => check_local(*dst, err),
            Instr::NodeOf { dst, obj } => {
                check_local(*dst, err);
                check_op(obj, err);
            }
            Instr::NewLocal { dst, class } => {
                check_local(*dst, err);
                if class.idx() >= self.classes.len() {
                    err(at, format!("class #{} out of range", class.0));
                }
            }
            Instr::GetField { dst, field } => {
                check_local(*dst, err);
                check_field(*field, false, err);
            }
            Instr::SetField { field, src } => {
                check_field(*field, false, err);
                check_op(src, err);
            }
            Instr::GetElem { dst, field, idx } => {
                check_local(*dst, err);
                check_field(*field, true, err);
                check_op(idx, err);
            }
            Instr::SetElem { field, idx, src } => {
                check_field(*field, true, err);
                check_op(idx, err);
                check_op(src, err);
            }
            Instr::ArrNew { field, len } => {
                check_field(*field, true, err);
                check_op(len, err);
            }
            Instr::ArrLen { dst, field } => {
                check_local(*dst, err);
                check_field(*field, true, err);
            }
            Instr::Invoke {
                slot,
                target,
                method,
                args,
                ..
            } => {
                if let Some(s) = slot {
                    check_slot(*s, err);
                }
                check_op(target, err);
                check_call(*method, args, err);
                for a in args {
                    check_op(a, err);
                }
            }
            Instr::Touch { slots } => {
                for s in slots {
                    check_slot(*s, err);
                }
            }
            Instr::GetSlot { dst, slot } => {
                check_local(*dst, err);
                check_slot(*slot, err);
            }
            Instr::JoinInit { slot, count } => {
                check_slot(*slot, err);
                check_op(count, err);
            }
            Instr::Multicast {
                slot,
                group,
                method,
                args,
            } => {
                if let Some(s) = slot {
                    check_slot(*s, err);
                }
                check_field(*group, true, err);
                check_call(*method, args, err);
                for a in args {
                    check_op(a, err);
                }
            }
            Instr::Reduce {
                slot,
                group,
                method,
                args,
                ..
            } => {
                check_slot(*slot, err);
                check_field(*group, true, err);
                check_call(*method, args, err);
                for a in args {
                    check_op(a, err);
                }
            }
            Instr::Barrier { slot, group } => {
                check_slot(*slot, err);
                check_field(*group, true, err);
            }
            Instr::Reply { src } => check_op(src, err),
            Instr::Forward {
                target,
                method,
                args,
                ..
            } => {
                check_op(target, err);
                check_call(*method, args, err);
                for a in args {
                    check_op(a, err);
                }
            }
            Instr::Halt => {}
            Instr::StoreCont { field, idx } => {
                check_field(*field, idx.is_some(), err);
                if let Some(i) = idx {
                    check_op(i, err);
                }
            }
            Instr::SendToCont { cont, value } => {
                check_op(cont, err);
                check_op(value, err);
            }
            Instr::Jmp { to } => check_target(*to, err),
            Instr::Br { cond, t, f } => {
                check_op(cond, err);
                check_target(*t, err);
                check_target(*f, err);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BinOp;

    fn tiny_program() -> Program {
        Program {
            classes: vec![Class {
                name: "C".into(),
                fields: vec![
                    FieldDecl {
                        name: "x".into(),
                        array: false,
                    },
                    FieldDecl {
                        name: "arr".into(),
                        array: true,
                    },
                ],
                locked: false,
            }],
            methods: vec![Method {
                name: "m".into(),
                class: ClassId(0),
                params: 1,
                locals: 2,
                slots: 1,
                body: vec![
                    Instr::Bin {
                        dst: Local(1),
                        op: BinOp::Add,
                        a: Local(0).into(),
                        b: 1.into(),
                    },
                    Instr::Reply {
                        src: Local(1).into(),
                    },
                ],
                inlinable: false,
            }],
        }
    }

    #[test]
    fn valid_program_passes() {
        assert!(tiny_program().validate().is_ok());
    }

    #[test]
    fn catches_bad_register() {
        let mut p = tiny_program();
        p.methods[0].body[0] = Instr::Mov {
            dst: Local(9),
            src: 0.into(),
        };
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("register 9")));
    }

    #[test]
    fn catches_bad_slot_and_field() {
        let mut p = tiny_program();
        p.methods[0].body.insert(
            0,
            Instr::GetSlot {
                dst: Local(1),
                slot: Slot(4),
            },
        );
        p.methods[0].body.insert(
            0,
            Instr::GetField {
                dst: Local(1),
                field: FieldId(7),
            },
        );
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("slot 4")));
        assert!(errs.iter().any(|e| e.what.contains("field 7")));
    }

    #[test]
    fn catches_scalar_array_mismatch() {
        let mut p = tiny_program();
        // GetField on the array field is an error.
        p.methods[0].body[0] = Instr::GetField {
            dst: Local(1),
            field: FieldId(1),
        };
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("array")));
    }

    #[test]
    fn catches_fallthrough_and_empty() {
        let mut p = tiny_program();
        p.methods[0].body.pop(); // remove Reply: ends with Bin
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("fall off")));

        p.methods[0].body.clear();
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("empty body")));
    }

    #[test]
    fn catches_bad_arity_and_callee() {
        let mut p = tiny_program();
        p.methods[0].body[0] = Instr::Invoke {
            slot: Some(Slot(0)),
            target: Local(0).into(),
            method: MethodId(0),
            args: vec![], // wrong: expects 1
            hint: Default::default(),
        };
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("expects 1 args")));

        p.methods[0].body[0] = Instr::Invoke {
            slot: None,
            target: Local(0).into(),
            method: MethodId(5),
            args: vec![],
            hint: Default::default(),
        };
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("callee #5")));
    }

    #[test]
    fn catches_bad_jump_target() {
        let mut p = tiny_program();
        p.methods[0].body[0] = Instr::Jmp { to: 99 };
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("jump target 99")));
    }

    #[test]
    fn find_method_by_name() {
        let p = tiny_program();
        assert_eq!(p.find_method("C", "m"), Some(MethodId(0)));
        assert_eq!(p.find_method("C", "nope"), None);
        assert_eq!(p.find_method("D", "m"), None);
    }

    #[test]
    fn storecont_shape_checked() {
        let mut p = tiny_program();
        // StoreCont with idx targets an array field; without idx a scalar.
        p.methods[0].body[0] = Instr::StoreCont {
            field: FieldId(0),
            idx: Some(0.into()),
        };
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("array")));
        p.methods[0].body[0] = Instr::StoreCont {
            field: FieldId(0),
            idx: None,
        };
        assert!(p.validate().is_ok());
    }
}
