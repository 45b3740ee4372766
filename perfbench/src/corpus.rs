//! Inputs: the named expressions, seeded random trees, and the static
//! checks that keep every generated input inside what the compiler
//! supports.

use fpir::expr::{BinOp, CmpOp, Expr, ExprKind, FpirOp, RcExpr};
use fpir::rand_expr::{gen_expr, GenConfig};
use fpir::types::ScalarType;
use fpir::Isa;
use fpir_isa::def::{SignReq, Target};
use fpir_isa::sem::MachSem;
use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads, Workload};
use pitchfork_service::Json;
use rand::prelude::*;
use std::collections::BTreeMap;

/// Which part of the corpus an entry comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The 16 figure workloads.
    Figure,
    /// The 3 extra image-processing workloads.
    Extra,
    /// The 6 vectorize-and-unroll DAGs (heavily shared subterms).
    Unrolled,
    /// A seeded `fpir::rand_expr` tree.
    Random,
}

impl Group {
    pub fn name(self) -> &'static str {
        match self {
            Group::Figure => "figure",
            Group::Extra => "extra",
            Group::Unrolled => "unrolled",
            Group::Random => "random",
        }
    }
}

/// The 25 named workloads, tagged with their group.
pub fn named_workloads() -> Vec<(Group, Workload)> {
    let tag = |g: Group, ws: Vec<Workload>| ws.into_iter().map(move |w| (g, w));
    tag(Group::Figure, all_workloads())
        .chain(tag(Group::Extra, extra_workloads()))
        .chain(tag(Group::Unrolled, unrolled_workloads()))
        .collect()
}

/// Widest lane (in bits) of any node of `e`.
pub fn max_lane_bits(e: &RcExpr) -> u32 {
    let mut bits = 0;
    Expr::visit_unique(e, &mut |n| bits = bits.max(n.elem().bits()));
    bits
}

fn has_division(e: &RcExpr) -> bool {
    let mut found = false;
    Expr::visit_unique(e, &mut |n| {
        found |= matches!(n.kind(), ExprKind::Bin(BinOp::Div | BinOp::Mod, _, _));
    });
    found
}

/// Why an (input, backend) pair is left out. Every reason is found by a
/// static walk of the input, against the backend's registry entry or, for
/// the known selector defect, a list of backends; none by compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skip {
    /// A source lane is wider than the backend has (HVX: no 64-bit lanes).
    LaneWidth(u32),
    /// Legalization's fallback for an FPIR operation with no native row
    /// needs a lane, or a `>`/`==` comparison, at a width the backend
    /// lacks (32-bit fixed-point work through 64-bit intermediates on HVX,
    /// 64-bit comparisons on x86).
    Fallback(u32),
    /// An 8-bit `rounding_mul_shr` by 7 on ARM or HVX, whose lowering
    /// rules pick their rounding-doubling multiply-high row (`sqrdmulh`,
    /// `vmpyo:rnd:sat`) although it has no 8-bit form, so selection fails
    /// ("illegal at 8 bits"). A known selector defect.
    I8RoundingMulShr,
}

impl Skip {
    pub fn reason(self) -> &'static str {
        match self {
            Skip::LaneWidth(_) => "lane_width",
            Skip::Fallback(_) => "fallback_width",
            Skip::I8RoundingMulShr => "i8_rounding_mul_shr",
        }
    }

    fn bits(self) -> u32 {
        match self {
            Skip::LaneWidth(b) | Skip::Fallback(b) => b,
            Skip::I8RoundingMulShr => 8,
        }
    }
}

/// Whether the backend's registry entry rejects `e`'s lane widths — the
/// capability check every input passes (HVX has no 64-bit lanes).
pub fn lane_skip(isa: Isa, e: &RcExpr) -> Option<Skip> {
    let bits = max_lane_bits(e);
    (bits > fpir_isa::target(isa).max_lane_bits()).then_some(Skip::LaneWidth(bits))
}

fn has_row(t: &Target, sem: MachSem, elem: ScalarType) -> bool {
    t.defs().iter().any(|d| {
        d.sem == sem
            && d.widths.contains(&elem.bits())
            && match d.sign {
                SignReq::Any => true,
                SignReq::Signed => elem.is_signed(),
                SignReq::Unsigned => !elem.is_signed(),
            }
    })
}

/// Whether legalization can compare at `elem`: every ordering is
/// normalised to `>`, (in)equality to `==`.
fn can_compare(t: &Target, op: CmpOp, elem: ScalarType) -> bool {
    let base = if matches!(op, CmpOp::Eq | CmpOp::Ne) { CmpOp::Eq } else { CmpOp::Gt };
    has_row(t, MachSem::Cmp(base), elem)
}

/// Whether an FPIR operation on `elem` operands has a native row, as
/// legalization looks it up (a saturating cast only for a one-step
/// narrow).
fn native_fpir(t: &Target, op: FpirOp, elem: ScalarType) -> bool {
    match op {
        FpirOp::SaturatingCast(to) => {
            elem.narrow() == Some(to)
                && (has_row(t, MachSem::Fpir(FpirOp::SaturatingNarrow), elem)
                    || (elem.is_signed()
                        && !to.is_signed()
                        && has_row(t, MachSem::SatCastTo, elem)))
        }
        _ => has_row(t, MachSem::Fpir(op), elem),
    }
}

/// Legalization's fallback, walked statically: every FPIR operation with
/// no native row is expanded into its primitive definition (Table 1),
/// and every node of the result must fit the backend's lanes and, for
/// comparisons and compare-based min/max, its compare rows. Conservative:
/// selection rules that map a tree onto native rows first may need less
/// (so the named pipelines, which selection keeps narrow, skip this).
fn fallback(t: &Target, e: &RcExpr) -> Option<Skip> {
    let mut found = None;
    Expr::visit_unique(e, &mut |n| {
        if found.is_some() {
            return;
        }
        let bits = n.elem().bits();
        found = match n.kind() {
            _ if bits > t.max_lane_bits() => Some(Skip::Fallback(bits)),
            ExprKind::Cmp(op, a, _) if !can_compare(t, *op, a.elem()) => {
                Some(Skip::Fallback(a.elem().bits()))
            }
            ExprKind::Bin(op @ (BinOp::Min | BinOp::Max), a, _)
                if !has_row(t, MachSem::Bin(*op), a.elem())
                    && !can_compare(t, CmpOp::Gt, a.elem()) =>
            {
                Some(Skip::Fallback(a.elem().bits()))
            }
            ExprKind::Fpir(op, args) if !native_fpir(t, *op, args[0].elem()) => {
                match fpir::semantics::expand_fpir(*op, args) {
                    Ok(x) => fallback(t, &fpir::simplify::const_fold(&x)),
                    Err(_) => Some(Skip::Fallback(2 * args[0].elem().bits())),
                }
            }
            _ => None,
        };
    });
    found
}

/// Backends with the [`Skip::I8RoundingMulShr`] defect. A property of
/// their rule packs, not of the registry: x86 has such a row too, but its
/// rules never pick it for this shape.
const I8_ROUNDING_MUL_SHR_DEFECT: [Isa; 2] = [Isa::ArmNeon, Isa::HexagonHvx];

fn has_i8_rounding_mul_shr(e: &RcExpr) -> bool {
    let mut found = false;
    Expr::visit_unique(e, &mut |n| {
        if let ExprKind::Fpir(FpirOp::RoundingMulShr, args) = n.kind() {
            found |= n.elem().bits() == 8 && matches!(args[2].kind(), ExprKind::Const(7));
        }
    });
    found
}

/// Why a random tree cannot go to a backend, if it cannot: the lane
/// check, then legalization's fallback, then the known selector defect.
/// The named pipelines take only the lane check.
pub fn random_skip(isa: Isa, e: &RcExpr) -> Option<Skip> {
    let t = fpir_isa::target(isa);
    lane_skip(isa, e).or_else(|| fallback(t, e)).or_else(|| {
        let defect = I8_ROUNDING_MUL_SHR_DEFECT.contains(&isa) && has_i8_rounding_mul_shr(e);
        defect.then_some(Skip::I8RoundingMulShr)
    })
}

/// The (input, backend) pairs a run left out: every one listed, and a
/// count per reason and backend.
#[derive(Debug, Default)]
pub struct Skips {
    list: Vec<Json>,
    counts: BTreeMap<(&'static str, &'static str), u64>,
}

impl Skips {
    /// Record one skipped pair; `list` keeps it in the detail record too
    /// (the serve workload's novel keys are only counted).
    pub fn add(&mut self, name: &str, isa: Isa, why: Skip, list: bool) {
        *self.counts.entry((why.reason(), isa.slug())).or_default() += 1;
        if list {
            self.list.push(Json::Object(vec![
                ("input".into(), Json::str(name)),
                ("isa".into(), Json::str(isa.slug())),
                ("reason".into(), Json::str(why.reason())),
                ("bits".into(), Json::Int(why.bits().into())),
            ]));
        }
    }

    pub fn to_json(&self) -> Json {
        let counts = self
            .counts
            .iter()
            .map(|((why, isa), n)| (format!("{why}.{isa}"), Json::Int((*n).into())))
            .collect();
        Json::Object(vec![
            ("counts".into(), Json::Object(counts)),
            ("pairs".into(), Json::Array(self.list.clone())),
        ])
    }
}

/// Lane counts a random tree may use.
const RANDOM_LANES: [u32; 4] = [8, 16, 32, 64];

/// Widest lane a random tree may have. `GenConfig`'s default types stop
/// at 32 bits, so this guard rejects nothing unless the generator
/// changes.
const RANDOM_MAX_LANE_BITS: u32 = 32;

/// Why generated trees were thrown away before any backend saw them.
/// Kept in every run's detail record, so what the filter hides stays
/// visible.
#[derive(Debug, Default)]
pub struct Rejected {
    pub division: u64,
    pub wide_lanes: u64,
    pub no_vars: u64,
    pub reprint: u64,
}

impl Rejected {
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("division".into(), Json::Int(self.division.into())),
            ("wide_lanes".into(), Json::Int(self.wide_lanes.into())),
            ("no_vars".into(), Json::Int(self.no_vars.into())),
            ("reprint".into(), Json::Int(self.reprint.into())),
        ])
    }
}

/// One seeded random tree that passes the input filter: no division (no
/// target has a vector divide), no lane wider than
/// [`RANDOM_MAX_LANE_BITS`], at least one variable, and a printed form
/// that parses back to itself (so the same tree can travel over the
/// wire). Returns the tree and its text; which backends may take it is
/// [`random_skip`]'s call.
pub fn random_tree(rng: &mut StdRng, rejected: &mut Rejected) -> (RcExpr, String) {
    loop {
        let lanes = *RANDOM_LANES.choose(rng).expect("nonempty");
        let cfg = GenConfig { lanes, ..GenConfig::default() };
        let elem = *cfg.types.choose(rng).expect("nonempty");
        // Constant-only subtrees print without their operand types, so
        // fold them first; the folded tree prints faithfully.
        let e = fpir::simplify::const_fold(&gen_expr(rng, &cfg, elem));
        let counter = if e.free_vars().is_empty() {
            &mut rejected.no_vars
        } else if has_division(&e) {
            &mut rejected.division
        } else if max_lane_bits(&e) > RANDOM_MAX_LANE_BITS {
            &mut rejected.wide_lanes
        } else {
            let text = e.to_string();
            match fpir::parser::parse_expr(&text, lanes) {
                Ok(back) if back.to_string() == text => return (back, text),
                _ => &mut rejected.reprint,
            }
        };
        *counter += 1;
    }
}
