//! Linear machine programs.
//!
//! A fully-lowered expression (machine nodes over `Var`/`Const` leaves) is
//! *emitted* into a linear, register-based program with common
//! subexpression elimination — the form the cycle model prices and the VM
//! executes. [`Program::render`] prints the assembly-like listings used by
//! the Figure 3 report.
//!
//! Emission is value numbering over the DAG, so it costs time linear in
//! *unique* nodes like every other pass: each `Arc` is visited once, and
//! an instruction is identified by its opcode and operand *registers*
//! rather than by hashing the subtree below it.

use fpir::expr::{Expr, ExprKind, RcExpr};
use fpir::identity::IdMap;
use fpir::types::VectorType;
use fpir::{Isa, MachOp};
use fpir_isa::{MachSem, Target};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// A virtual register id.
pub type Reg = usize;

/// One program instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PInst {
    /// Destination register.
    pub dst: Reg,
    /// Result type.
    pub ty: VectorType,
    /// What executes.
    pub kind: PKind,
}

/// Instruction payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PKind {
    /// Stream an input vector from memory.
    Load {
        /// Input name.
        name: String,
    },
    /// Broadcast a constant (loop-invariant; free in the cycle model).
    Splat {
        /// The constant.
        value: i128,
    },
    /// A machine operation.
    Op {
        /// Opcode.
        op: MachOp,
        /// Source registers.
        args: Vec<Reg>,
    },
}

/// A linear machine program for one target.
#[derive(Debug, Clone)]
pub struct Program {
    /// The target ISA.
    pub isa: Isa,
    insts: Vec<PInst>,
    output: Reg,
}

impl Program {
    /// The instructions, in execution order.
    pub fn insts(&self) -> &[PInst] {
        &self.insts
    }

    /// The register holding the result.
    pub fn output(&self) -> Reg {
        self.output
    }

    /// Count of `Op` instructions (loads and splats excluded).
    pub fn op_count(&self) -> usize {
        self.insts.iter().filter(|i| matches!(i.kind, PKind::Op { .. })).count()
    }

    /// An assembly-like listing (Intel order: `instr dst, operands`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for inst in &self.insts {
            let line = match &inst.kind {
                PKind::Load { name } => format!("load      v{}.{}, [{}]", inst.dst, inst.ty, name),
                PKind::Splat { value } => {
                    format!("splat     v{}.{}, #{}", inst.dst, inst.ty, value)
                }
                PKind::Op { op, args } => {
                    let srcs = args.iter().map(|r| format!("v{r}")).collect::<Vec<_>>().join(", ");
                    format!("{:<9} v{}.{}, {}", op.name, inst.dst, inst.ty, srcs)
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Emission failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitError {
    /// What was wrong.
    pub what: String,
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot emit: {}", self.what)
    }
}

impl std::error::Error for EmitError {}

/// Emit a fully-lowered expression into a linear program with CSE.
///
/// # Errors
///
/// Fails if the expression still contains non-machine interior nodes
/// (run `fpir_isa::legalize` first) or an instruction violates its
/// table definition.
pub fn emit(expr: &RcExpr, target: &Target) -> Result<Program, EmitError> {
    let mut e =
        Emitter { target, insts: Vec::new(), by_node: IdMap::default(), by_value: HashMap::new() };
    let output = e.emit(expr)?;
    Ok(Program { isa: target.isa, insts: e.insts, output })
}

struct Emitter<'t> {
    target: &'t Target,
    insts: Vec<PInst>,
    /// Register of every node already emitted, keyed by
    /// [`Expr::ptr_id`]. The root borrowed by [`emit`] keeps every node
    /// alive for the whole call, so no address is recycled.
    by_node: IdMap<Reg>,
    /// Value numbers: the register holding each distinct instruction.
    /// Operands are already registers, so structurally-equal nodes in
    /// distinct allocations get the same key without a subtree walk.
    /// Keeps the default hasher: load names and splat values come from
    /// client expressions, which must not pick the collisions.
    by_value: HashMap<(VectorType, PKind), Reg>,
}

impl Emitter<'_> {
    fn emit(&mut self, expr: &RcExpr) -> Result<Reg, EmitError> {
        let id = Expr::ptr_id(expr);
        if let Some(&r) = self.by_node.get(&id) {
            return Ok(r);
        }
        let kind = match expr.kind() {
            ExprKind::Var(name) => PKind::Load { name: name.clone() },
            ExprKind::Const(v) => PKind::Splat { value: *v },
            ExprKind::Mach(op, args) => {
                let def = self
                    .target
                    .def(*op)
                    .ok_or_else(|| EmitError { what: format!("unknown opcode {op}") })?;
                if args.len() != def.sem.arity() {
                    return Err(EmitError {
                        what: format!(
                            "{op} takes {} operands, got {}",
                            def.sem.arity(),
                            args.len()
                        ),
                    });
                }
                for &i in def.needs_const {
                    if args[i].as_const().is_none() {
                        return Err(EmitError {
                            what: format!("{op} operand {i} must be an immediate"),
                        });
                    }
                }
                let regs = args.iter().map(|a| self.emit(a)).collect::<Result<Vec<_>, _>>()?;
                PKind::Op { op: *op, args: regs }
            }
            other => return Err(EmitError { what: format!("unlowered node {other:?} in {expr}") }),
        };
        let ty = expr.ty();
        let reg = match self.by_value.entry((ty, kind)) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let dst = self.insts.len();
                self.insts.push(PInst { dst, ty, kind: v.key().1.clone() });
                *v.insert(dst)
            }
        };
        self.by_node.insert(id, reg);
        Ok(reg)
    }
}

/// The cycle model: cost units for one evaluation of the program over its
/// logical vectors.
///
/// * `Op` costs its table cost × the native registers it touches (the
///   widest of its result and operands);
/// * `Load` costs [`LOAD_COST`] per native register streamed;
/// * `Splat` is loop-invariant and free;
/// * zero-cost aliases (reinterprets) are free.
pub fn cycle_cost(p: &Program, target: &Target) -> u64 {
    assert_eq!(p.isa, target.isa, "program/target mismatch");
    let mut total = 0u64;
    for inst in &p.insts {
        match &inst.kind {
            PKind::Load { .. } => total += LOAD_COST * target.reg_factor(inst.ty),
            PKind::Splat { .. } => {}
            PKind::Op { op, args } => {
                let def = target.def(*op).expect("emitted ops are known");
                let rf = args
                    .iter()
                    .map(|&r| target.reg_factor(p.insts[r].ty))
                    .chain(std::iter::once(target.reg_factor(inst.ty)))
                    .max()
                    .unwrap_or(1);
                total += def.cost as u64 * rf;
            }
        }
    }
    total
}

/// Cost units charged per native register of streamed input.
pub const LOAD_COST: u64 = 2;

/// True when the op is one of the data-movement instructions the Rake
/// baseline's swizzle optimizer targets (extensions, truncations and
/// packs — everything that shuffles lanes rather than computing).
pub fn is_swizzle(op: MachOp, target: &Target) -> bool {
    target.def(op).is_some_and(|d| {
        matches!(d.sem, MachSem::ExtendTo | MachSem::TruncTo | MachSem::PackSatSignedTo)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir_isa::{legalize, target};

    fn lower(e: &RcExpr, isa: Isa) -> Program {
        let t = target(isa);
        let m = legalize(e, t).unwrap();
        emit(&m, t).unwrap()
    }

    #[test]
    fn cse_shares_subexpressions() {
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let sum = build::widening_add(a, b);
        let e = build::add(sum.clone(), sum);
        let p = lower(&e, Isa::ArmNeon);
        // loads a, b; one uaddl; one add = 4 instructions.
        assert_eq!(p.insts().len(), 4);
        assert_eq!(p.op_count(), 2);
    }

    #[test]
    fn cse_shares_equal_subexpressions_in_distinct_allocations() {
        let t = V::new(S::U8, 16);
        let sum = || build::widening_add(build::var("a", t), build::var("b", t));
        let (l, r) = (sum(), sum());
        assert!(!std::sync::Arc::ptr_eq(&l, &r));
        let p = lower(&build::add(l, r), Isa::ArmNeon);
        // Same program as the one-`Arc` case: loads a, b; one uaddl; one add.
        assert_eq!(p.insts().len(), 4);
        let PKind::Op { args, .. } = &p.insts()[p.output()].kind else { panic!("{p}") };
        assert_eq!(args[0], args[1], "both operands read the one uaddl\n{p}");
    }

    #[test]
    fn unlowered_nodes_are_rejected() {
        let t = V::new(S::U8, 16);
        let e = build::add(build::var("a", t), build::var("b", t));
        assert!(emit(&e, target(Isa::ArmNeon)).is_err());
    }

    #[test]
    fn cycle_cost_charges_register_factors() {
        let isa = Isa::ArmNeon;
        let t8 = V::new(S::U8, 16);
        let t16 = V::new(S::U16, 16);
        let narrow = lower(&build::add(build::var("a", t8), build::var("b", t8)), isa);
        let wide = lower(&build::add(build::var("a", t16), build::var("b", t16)), isa);
        let (cn, cw) = (cycle_cost(&narrow, target(isa)), cycle_cost(&wide, target(isa)));
        assert_eq!(cw, 2 * cn, "u16x16 spans two Neon registers");
    }

    #[test]
    fn splats_are_free() {
        let t = V::new(S::U8, 16);
        let e = build::add(build::var("a", t), build::constant(3, t));
        let p = lower(&e, Isa::ArmNeon);
        let with_const = cycle_cost(&p, target(Isa::ArmNeon));
        let e = build::add(build::var("a", t), build::var("b", t));
        let p = lower(&e, Isa::ArmNeon);
        let with_var = cycle_cost(&p, target(Isa::ArmNeon));
        assert!(with_const < with_var);
    }

    #[test]
    fn render_is_readable() {
        let t = V::new(S::U8, 16);
        let e = build::widening_add(build::var("a", t), build::var("b", t));
        let p = lower(&e, Isa::ArmNeon);
        let listing = p.render();
        assert!(listing.contains("uaddl"), "{listing}");
        assert!(listing.contains("load"), "{listing}");
    }
}
