//! Differential test of the value-numbering emitter against the
//! structural-hash emitter it replaced.
//!
//! The old emitter did CSE through a `HashMap<RcExpr, Reg>`, whose derived
//! `Hash` walks a node's whole subtree as a tree on every probe. It
//! survives here only as an oracle: [`fpir_sim::emit`] must produce the
//! same instructions, register numbers, output register and errors on
//! every named workload, every backend, and random trees.

use fpir::build;
use fpir::expr::{ExprKind, RcExpr};
use fpir::rand_expr::{gen_expr, GenConfig};
use fpir::types::ScalarType;
use fpir_isa::{legalize, Target, BACKENDS};
use fpir_sim::{emit, EmitError, PInst, PKind};
use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
use pitchfork::Pitchfork;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The structural-CSE emitter, kept verbatim apart from returning its
/// parts instead of a `Program`.
fn oracle_emit(expr: &RcExpr, target: &Target) -> Result<(Vec<PInst>, usize), EmitError> {
    struct Emitter<'t> {
        target: &'t Target,
        insts: Vec<PInst>,
        cse: HashMap<RcExpr, usize>,
    }
    impl Emitter<'_> {
        fn emit(&mut self, expr: &RcExpr) -> Result<usize, EmitError> {
            if let Some(&r) = self.cse.get(expr) {
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
                other => {
                    return Err(EmitError { what: format!("unlowered node {other:?} in {expr}") })
                }
            };
            let dst = self.insts.len();
            self.insts.push(PInst { dst, ty: expr.ty(), kind });
            self.cse.insert(expr.clone(), dst);
            Ok(dst)
        }
    }
    let mut e = Emitter { target, insts: Vec::new(), cse: HashMap::new() };
    let output = e.emit(expr)?;
    Ok((e.insts, output))
}

/// Emit `expr` with both emitters and require identical results.
fn assert_same(expr: &RcExpr, target: &Target, what: &str) {
    let new = emit(expr, target).map(|p| (p.insts().to_vec(), p.output()));
    assert_eq!(new, oracle_emit(expr, target), "{what} on {}", target.isa);
}

/// [`assert_same`] on `e` as Pitchfork selects it, as the bare legalizer
/// lowers it, and unlowered (where both emitters must fail alike), on
/// every backend.
fn check_all_backends(e: &RcExpr) {
    for desc in BACKENDS {
        let target = fpir_isa::target(desc.isa);
        if let Ok(out) = Pitchfork::new(desc.isa).compile(e) {
            assert_same(&out.lowered, target, "pitchfork");
        }
        if let Ok(m) = legalize(e, target) {
            assert_same(&m, target, "legalize");
        }
        assert_same(e, target, "unlowered");
    }
}

#[test]
fn named_workloads_emit_identically_on_every_backend() {
    let named: Vec<_> =
        all_workloads().into_iter().chain(extra_workloads()).chain(unrolled_workloads()).collect();
    assert_eq!(named.len(), 25);
    for w in &named {
        for desc in BACKENDS {
            let out = Pitchfork::new(desc.isa)
                .compile(&w.pipeline.expr)
                .unwrap_or_else(|err| panic!("{} on {}: {err}", w.name(), desc.isa));
            assert_same(&out.lowered, fpir_isa::target(desc.isa), w.name());
        }
    }
}

const TYPES: [ScalarType; 6] = [
    ScalarType::U8,
    ScalarType::U16,
    ScalarType::U32,
    ScalarType::I8,
    ScalarType::I16,
    ScalarType::I32,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random trees, selected by Pitchfork and by the bare legalizer, emit
    /// identically; unlowered trees fail with the identical error. Each
    /// tree is also summed with a structurally-equal twin built in
    /// separate allocations, which only value numbering can share.
    #[test]
    fn random_trees_emit_identically(seed in any::<u64>(), ti in 0usize..TYPES.len()) {
        let gen = || {
            gen_expr(&mut StdRng::seed_from_u64(seed), &GenConfig::default(), TYPES[ti])
        };
        let tree = gen();
        let twins = build::add(gen(), gen());
        for e in [tree, twins] {
            check_all_backends(&e);
        }
    }
}
