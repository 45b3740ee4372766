//! Regression test: emission scales with *unique* DAG nodes, not with
//! tree size.
//!
//! A doubling chain `x_{k+1} = add(x_k, x_k)` of depth n is a DAG of n + 1
//! nodes but a tree of 2^(n+1) - 1. An emitter that hashes or walks
//! subtrees as trees cannot finish it; a value-numbering one emits one
//! instruction per unique node. (Nothing here may call `size()`,
//! `to_string()` or `render()` on the chain: those are tree walks.)

use fpir::build;
use fpir::expr::{Expr, RcExpr};
use fpir::types::{ScalarType as S, VectorType as V};
use fpir::Isa;
use fpir_isa::{legalize, target};
use fpir_sim::{emit, Executable, PKind};
use std::time::{Duration, Instant};

const DEPTH: usize = 64; // tree size 2^65 - 1: unwalkable

fn doubling_chain(depth: usize) -> RcExpr {
    let mut e = build::var("x", V::new(S::U8, 16));
    for _ in 0..depth {
        e = build::add(e.clone(), e);
    }
    e
}

#[test]
fn emit_is_linear_in_unique_nodes() {
    let e = doubling_chain(DEPTH);
    assert_eq!(Expr::unique_count(&e), DEPTH + 1);

    let start = Instant::now();
    let t = target(Isa::ArmNeon);
    let lowered = legalize(&e, t).unwrap();
    assert_eq!(Expr::unique_count(&lowered), DEPTH + 1);
    let p = emit(&lowered, t).unwrap();
    let exe = Executable::link(&p, t).unwrap();
    let elapsed = start.elapsed();

    // One load, then one add per level, each reading the level below twice.
    assert_eq!(p.insts().len(), DEPTH + 1);
    assert_eq!(p.op_count(), DEPTH);
    assert_eq!(p.output(), DEPTH);
    assert!(matches!(p.insts()[0].kind, PKind::Load { .. }));
    for (k, inst) in p.insts().iter().enumerate().skip(1) {
        let PKind::Op { args, .. } = &inst.kind else { panic!("inst {k} is not an op") };
        assert_eq!(args, &[k - 1, k - 1], "inst {k}");
    }
    assert_eq!(exe.step_count(), DEPTH);
    // Generous: the linear path takes microseconds, a tree walk forever.
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}
