//! Parser for the printed expression syntax.
//!
//! Reads back what [`crate::printer`] writes (and what the paper's figures
//! use): infix arithmetic, `u16(x)` casts, `name_u8` type-suffixed
//! variables, `saturating_cast<u8>(x)`, `select(...)`, and every FPIR
//! instruction by name. The printed form elides lane counts, so parsing
//! takes the lane count to assign (variables become `elem x lanes`
//! vectors).
//!
//! Untyped integer literals take their type from context (the sibling
//! operand or the enclosing cast); a literal with no context is an error.
//!
//! ```
//! use fpir::parser::parse_expr;
//!
//! let e = parse_expr("saturating_cast<u8>(widening_add(a_u8, b_u8) + 2)", 16)?;
//! assert_eq!(e.to_string(), "saturating_cast<u8>(widening_add(a_u8, b_u8) + 2)");
//! # Ok::<(), fpir::parser::ParseError>(())
//! ```

use crate::expr::{BinOp, CmpOp, Expr, FpirOp, RcExpr, TypeError};
use crate::types::{ScalarType, VectorType};
use std::fmt;

/// Parse failure: a syntax error with position, or a type error during
/// resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        ParseError { message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<TypeError> for ParseError {
    fn from(e: TypeError) -> ParseError {
        ParseError::new(e.to_string())
    }
}

/// Deepest expression [`parse_expr`] accepts.
///
/// An expression's depth is the height of its parse tree: a variable or
/// literal is one level, and every operator, call, cast, negation and
/// pair of grouping parentheses adds one level above its deepest
/// operand, so `(a_u8 + b_u8) * c_u8` is four deep. Every pass after
/// the parser recurses over the tree, and so does the parser itself;
/// the bound is what keeps an untrusted expression (a `pitchforkd`
/// request) from overflowing a thread's stack. The deepest named
/// workload is far shallower, and an expression at exactly this depth
/// compiles on every backend on a default 2 MiB thread.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Parse one expression; all vectors get `lanes` lanes.
///
/// # Errors
///
/// Fails on malformed syntax, unknown names, unresolvable literal types,
/// operand-type mismatches, or nesting deeper than [`MAX_EXPR_DEPTH`].
pub fn parse_expr(src: &str, lanes: u32) -> Result<RcExpr, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0, lanes, depth: 0 };
    let (ast, _) = p.parse_bin(0)?;
    p.expect_end()?;
    let resolved = resolve(&ast, None, lanes)?
        .ok_or_else(|| ParseError::new("cannot infer the type of a bare constant"))?;
    Ok(resolved)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(i128),
    Sym(&'static str),
}

fn tokenize(src: &str) -> Result<Vec<Tok>, ParseError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push(Tok::Ident(src[start..i].to_string()));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let n: i128 = src[start..i]
                .parse()
                .map_err(|_| ParseError::new(format!("bad number at byte {start}")))?;
            out.push(Tok::Num(n));
            continue;
        }
        let two: &[(&str, &str)] =
            &[("<<", "<<"), (">>", ">>"), ("==", "=="), ("!=", "!="), ("<=", "<="), (">=", ">=")];
        if i + 1 < bytes.len() {
            let pair = &src[i..i + 2];
            if let Some((_, s)) = two.iter().find(|(t, _)| *t == pair) {
                out.push(Tok::Sym(s));
                i += 2;
                continue;
            }
        }
        let one = match c {
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '/' => "/",
            '%' => "%",
            '&' => "&",
            '|' => "|",
            '^' => "^",
            '<' => "<",
            '>' => ">",
            '(' => "(",
            ')' => ")",
            ',' => ",",
            _ => return Err(ParseError::new(format!("unexpected character `{c}`"))),
        };
        out.push(Tok::Sym(one));
        i += 1;
    }
    Ok(out)
}

/// Untyped AST produced by the grammar, resolved to typed [`Expr`]s later.
#[derive(Debug, Clone)]
enum Ast {
    Var(String, ScalarType),
    Num(i128),
    Bin(BinOp, Box<Ast>, Box<Ast>),
    Cmp(CmpOp, Box<Ast>, Box<Ast>),
    Select(Box<Ast>, Box<Ast>, Box<Ast>),
    Cast(ScalarType, Box<Ast>),
    Reinterpret(ScalarType, Box<Ast>),
    Fpir(FpirOp, Vec<Ast>),
    Neg(Box<Ast>),
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
    #[allow(dead_code)]
    lanes: u32,
    /// Levels open above the token being parsed; each will be an
    /// ancestor in the tree, so the count never exceeds its height.
    depth: usize,
}

fn too_deep() -> ParseError {
    ParseError::new(format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"))
}

/// The height of a node above children at most `height` deep, refused
/// past [`MAX_EXPR_DEPTH`].
fn level(height: usize) -> Result<usize, ParseError> {
    if height >= MAX_EXPR_DEPTH {
        return Err(too_deep());
    }
    Ok(height + 1)
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(ParseError::new(format!("expected `{s}` at token {}", self.pos)))
        }
    }

    /// Open one level before recursing into it, refusing past the bound
    /// before the recursion itself can exhaust the stack.
    fn open(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        Ok(())
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(ParseError::new(format!("trailing input at token {}", self.pos)))
        }
    }

    /// Pratt parser over binary operators (comparisons lowest). Returns
    /// the tree and its height.
    #[allow(clippy::while_let_loop)]
    fn parse_bin(&mut self, min_prec: u8) -> Result<(Ast, usize), ParseError> {
        self.open()?;
        let (mut lhs, mut height) = self.parse_atom()?;
        loop {
            let (prec, kind) = match self.peek() {
                Some(Tok::Sym(s)) => match *s {
                    "|" => (1, OpKind::Bin(BinOp::Or)),
                    "^" => (2, OpKind::Bin(BinOp::Xor)),
                    "&" => (3, OpKind::Bin(BinOp::And)),
                    "==" => (4, OpKind::Cmp(CmpOp::Eq)),
                    "!=" => (4, OpKind::Cmp(CmpOp::Ne)),
                    "<" => (4, OpKind::Cmp(CmpOp::Lt)),
                    "<=" => (4, OpKind::Cmp(CmpOp::Le)),
                    ">" => (4, OpKind::Cmp(CmpOp::Gt)),
                    ">=" => (4, OpKind::Cmp(CmpOp::Ge)),
                    "<<" => (5, OpKind::Bin(BinOp::Shl)),
                    ">>" => (5, OpKind::Bin(BinOp::Shr)),
                    "+" => (6, OpKind::Bin(BinOp::Add)),
                    "-" => (6, OpKind::Bin(BinOp::Sub)),
                    "*" => (7, OpKind::Bin(BinOp::Mul)),
                    "/" => (7, OpKind::Bin(BinOp::Div)),
                    "%" => (7, OpKind::Bin(BinOp::Mod)),
                    _ => break,
                },
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let (rhs, rhs_height) = self.parse_bin(prec + 1)?;
            // A left-leaning chain (`a + b + c + ...`) grows here, in a
            // loop rather than by recursion.
            height = level(height.max(rhs_height))?;
            lhs = match kind {
                OpKind::Bin(op) => Ast::Bin(op, Box::new(lhs), Box::new(rhs)),
                OpKind::Cmp(op) => Ast::Cmp(op, Box::new(lhs), Box::new(rhs)),
            };
        }
        self.depth -= 1;
        Ok((lhs, height))
    }

    /// One operand and its height.
    fn parse_atom(&mut self) -> Result<(Ast, usize), ParseError> {
        match self.bump() {
            Some(Tok::Num(n)) => Ok((Ast::Num(n), 1)),
            Some(Tok::Sym("-")) => {
                self.open()?;
                let (inner, height) = self.parse_atom()?;
                self.depth -= 1;
                Ok((Ast::Neg(Box::new(inner)), level(height)?))
            }
            Some(Tok::Sym("(")) => {
                let (inner, height) = self.parse_bin(0)?;
                self.expect_sym(")")?;
                Ok((inner, level(height)?))
            }
            Some(Tok::Ident(name)) => self.parse_ident(name),
            other => Err(ParseError::new(format!("unexpected token {other:?}"))),
        }
    }

    fn parse_ident(&mut self, name: String) -> Result<(Ast, usize), ParseError> {
        // Cast: `u16(expr)`.
        if let Some(t) = ScalarType::from_name(&name) {
            self.expect_sym("(")?;
            let (inner, height) = self.parse_bin(0)?;
            self.expect_sym(")")?;
            return Ok((Ast::Cast(t, Box::new(inner)), level(height)?));
        }
        // Type-parameterised calls: saturating_cast<u8>(x), reinterpret<i16>(x).
        if name == "saturating_cast" || name == "reinterpret" {
            self.expect_sym("<")?;
            let t = match self.bump() {
                Some(Tok::Ident(tn)) => ScalarType::from_name(&tn)
                    .ok_or_else(|| ParseError::new(format!("unknown type `{tn}`")))?,
                other => return Err(ParseError::new(format!("expected type, got {other:?}"))),
            };
            self.expect_sym(">")?;
            self.expect_sym("(")?;
            let (inner, height) = self.parse_bin(0)?;
            self.expect_sym(")")?;
            let ast = if name == "saturating_cast" {
                Ast::Fpir(FpirOp::SaturatingCast(t), vec![inner])
            } else {
                Ast::Reinterpret(t, Box::new(inner))
            };
            return Ok((ast, level(height)?));
        }
        // General calls: select, min, max, and FPIR instructions by name.
        if self.eat_sym("(") {
            let mut args = Vec::new();
            let mut height = 0;
            if !self.eat_sym(")") {
                loop {
                    let (arg, h) = self.parse_bin(0)?;
                    args.push(arg);
                    height = height.max(h);
                    if self.eat_sym(")") {
                        break;
                    }
                    self.expect_sym(",")?;
                }
            }
            return Ok((build_call(&name, args)?, level(height)?));
        }
        // A variable: `name_u8`.
        if let Some(idx) = name.rfind('_') {
            if let Some(t) = ScalarType::from_name(&name[idx + 1..]) {
                return Ok((Ast::Var(name[..idx].to_string(), t), 1));
            }
        }
        Err(ParseError::new(format!("variable `{name}` needs a type suffix such as `{name}_u8`")))
    }
}

enum OpKind {
    Bin(BinOp),
    Cmp(CmpOp),
}

/// Extract a literal value from `Num` or `Neg(Num)` nodes.
fn as_literal(ast: &Ast) -> Option<i128> {
    match ast {
        Ast::Num(n) => Some(*n),
        Ast::Neg(inner) => match &**inner {
            Ast::Num(n) => Some(-n),
            _ => None,
        },
        _ => None,
    }
}

/// The narrowest lane type containing `n` (signed types only for negative
/// values, unsigned preferred otherwise — the choice is semantically inert
/// under a wrapping cast).
fn smallest_containing(n: i128) -> Option<ScalarType> {
    use crate::types::ALL_SCALAR_TYPES;
    let mut candidates: Vec<ScalarType> =
        ALL_SCALAR_TYPES.iter().copied().filter(|t| t.contains(n)).collect();
    candidates.sort_by_key(|t| (t.bits(), t.is_signed()));
    candidates.first().copied()
}

fn build_call(name: &str, args: Vec<Ast>) -> Result<Ast, ParseError> {
    let expect = |n: usize| -> Result<(), ParseError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(ParseError::new(format!("`{name}` takes {n} arguments, got {}", args.len())))
        }
    };
    match name {
        "select" => {
            expect(3)?;
            let mut it = args.into_iter();
            Ok(Ast::Select(
                Box::new(it.next().unwrap()),
                Box::new(it.next().unwrap()),
                Box::new(it.next().unwrap()),
            ))
        }
        "min" | "max" => {
            expect(2)?;
            let op = if name == "min" { BinOp::Min } else { BinOp::Max };
            let mut it = args.into_iter();
            Ok(Ast::Bin(op, Box::new(it.next().unwrap()), Box::new(it.next().unwrap())))
        }
        _ => {
            let op = fpir_op_by_name(name)
                .ok_or_else(|| ParseError::new(format!("unknown function `{name}`")))?;
            expect(op.arity())?;
            Ok(Ast::Fpir(op, args))
        }
    }
}

fn fpir_op_by_name(name: &str) -> Option<FpirOp> {
    crate::expr::ALL_FPIR_OPS
        .iter()
        .copied()
        .find(|op| !matches!(op, FpirOp::SaturatingCast(_)) && op.name() == name)
}

/// Resolve an untyped AST against an optional expected type.
///
/// Returns `Ok(None)` when the node is a literal whose type is still
/// unknown — the caller retries with a type from a sibling.
fn resolve(
    ast: &Ast,
    expected: Option<VectorType>,
    lanes: u32,
) -> Result<Option<RcExpr>, ParseError> {
    match ast {
        Ast::Var(name, t) => Ok(Some(Expr::var(name.clone(), VectorType::new(*t, lanes)))),
        Ast::Num(n) => match expected {
            Some(ty) => Ok(Some(Expr::constant(*n, ty)?)),
            None => Ok(None),
        },
        // A negated literal folds into a constant; anything else becomes 0 - e.
        Ast::Neg(inner) => {
            if let Ast::Num(n) = &**inner {
                return match expected {
                    Some(ty) => Ok(Some(Expr::constant(-n, ty)?)),
                    None => Ok(None),
                };
            }
            match resolve(inner, expected, lanes)? {
                Some(e) => {
                    let zero = Expr::constant(0, e.ty())?;
                    Ok(Some(Expr::bin(BinOp::Sub, zero, e)?))
                }
                None => Ok(None),
            }
        }
        Ast::Bin(op, a, b) => match resolve_pair(a, b, expected, lanes)? {
            Some((ea, eb)) => Ok(Some(Expr::bin(*op, ea, eb)?)),
            None => Ok(None),
        },
        Ast::Cmp(op, a, b) => match resolve_pair(a, b, expected, lanes)? {
            Some((ea, eb)) => Ok(Some(Expr::cmp(*op, ea, eb)?)),
            None => Ok(None),
        },
        Ast::Select(c, t, e) => match resolve_pair(t, e, expected, lanes)? {
            Some((et, ee)) => {
                let ec = resolve(c, Some(et.ty()), lanes)?.ok_or_else(|| {
                    ParseError::new("cannot infer the type of a select condition")
                })?;
                Ok(Some(Expr::select(ec, et, ee)?))
            }
            None => Ok(None),
        },
        Ast::Cast(t, inner) => {
            // A cast of a bare literal is just a typed literal; a cast of a
            // constant-only subterm is computed at the cast's own type. A
            // literal too wide for the cast type keeps its own (smallest
            // containing) type under the cast — the wrapping cast's value
            // depends only on the literal, so any containing type is exact.
            if let Some(n) = as_literal(inner) {
                if t.contains(n) {
                    return Ok(Some(Expr::constant(n, VectorType::new(*t, lanes))?));
                }
                let src = smallest_containing(n)
                    .ok_or_else(|| ParseError::new(format!("literal {n} fits no lane type")))?;
                let c = Expr::constant(n, VectorType::new(src, lanes))?;
                return Ok(Some(Expr::cast(*t, c)));
            }
            match resolve(inner, None, lanes)? {
                Some(e) => Ok(Some(Expr::cast(*t, e))),
                None => {
                    let e = resolve(inner, Some(VectorType::new(*t, lanes)), lanes)?
                        .ok_or_else(|| ParseError::new("cannot infer the type under a cast"))?;
                    Ok(Some(Expr::cast(*t, e)))
                }
            }
        }
        Ast::Reinterpret(t, inner) => {
            // A reinterpret of a literal: the source must be a same-width
            // type containing the value — `t` itself if it fits (identity
            // reinterpret), otherwise the opposite signedness.
            if let Some(n) = as_literal(inner) {
                let src = if t.contains(n) {
                    *t
                } else {
                    let flip = if t.is_signed() { t.with_unsigned() } else { t.with_signed() };
                    if !flip.contains(n) {
                        return Err(ParseError::new(format!(
                            "literal {n} fits no {}-bit lane type",
                            t.bits()
                        )));
                    }
                    flip
                };
                let c = Expr::constant(n, VectorType::new(src, lanes))?;
                return Ok(Some(Expr::reinterpret(*t, c)?));
            }
            let e = resolve(inner, None, lanes)?
                .ok_or_else(|| ParseError::new("cannot reinterpret this literal subterm"))?;
            Ok(Some(Expr::reinterpret(*t, e)?))
        }
        Ast::Fpir(op, args) => {
            // saturating_cast of a bare literal: the saturated value
            // depends only on the literal, so any containing source type
            // is exact — use the smallest.
            if let (FpirOp::SaturatingCast(_), Some(n)) = (op, args.first().and_then(as_literal)) {
                if args.len() == 1 {
                    let src = smallest_containing(n)
                        .ok_or_else(|| ParseError::new(format!("literal {n} fits no lane type")))?;
                    let c = Expr::constant(n, VectorType::new(src, lanes))?;
                    return Ok(Some(Expr::fpir(*op, vec![c])?));
                }
            }
            // Resolve non-literal arguments first, then give literals the
            // first resolved argument's type (shift counts and the like).
            let mut resolved: Vec<Option<RcExpr>> = Vec::with_capacity(args.len());
            for a in args {
                resolved.push(resolve(a, None, lanes)?);
            }
            // Per-slot hint: extending ops relate their operand widths, so
            // a literal first operand takes the *widened* second type.
            let extending =
                matches!(op, FpirOp::ExtendingAdd | FpirOp::ExtendingSub | FpirOp::ExtendingMul);
            // When no argument resolved at all, fall back to hints derived
            // from the enclosing expected (result) type.
            let widening = matches!(
                op,
                FpirOp::WideningAdd
                    | FpirOp::WideningSub
                    | FpirOp::WideningMul
                    | FpirOp::WideningShl
                    | FpirOp::WideningShr
            );
            for i in 0..resolved.len() {
                if resolved[i].is_some() {
                    continue;
                }
                let hint = if extending && i == 0 {
                    resolved[1].as_ref().and_then(|e| e.ty().widen())
                } else if extending && i == 1 {
                    resolved[0].as_ref().and_then(|e| e.ty().narrow())
                } else {
                    resolved.iter().flatten().next().map(|e| e.ty())
                };
                let hint = hint.or_else(|| match expected {
                    Some(r) if widening => r.narrow(),
                    Some(r) if extending && i == 0 => Some(r),
                    Some(r) if extending && i == 1 => r.narrow(),
                    Some(r) if matches!(op, FpirOp::SaturatingNarrow) => r.widen(),
                    Some(_) if matches!(op, FpirOp::SaturatingCast(_)) => None,
                    Some(r) => Some(r),
                    None => None,
                });
                let Some(ty) = hint else {
                    return if expected.is_none() {
                        Ok(None)
                    } else {
                        Err(ParseError::new(format!(
                            "cannot infer literal types in `{}`",
                            op.name()
                        )))
                    };
                };
                resolved[i] = resolve(&args[i], Some(ty), lanes)?;
            }
            let args: Vec<RcExpr> = resolved.into_iter().map(|e| e.expect("filled")).collect();
            Ok(Some(Expr::fpir(*op, args)?))
        }
    }
}

/// Resolve a pair whose types must match, letting a literal side adopt the
/// other side's type. Returns `Ok(None)` when neither side's type can be
/// determined yet (a constant-only subterm) so an enclosing context can
/// retry with a hint.
fn resolve_pair(
    a: &Ast,
    b: &Ast,
    expected: Option<VectorType>,
    lanes: u32,
) -> Result<Option<(RcExpr, RcExpr)>, ParseError> {
    match resolve(a, expected, lanes)? {
        Some(ea) => {
            let eb = resolve(b, Some(ea.ty()), lanes)?
                .ok_or_else(|| ParseError::new("cannot infer a literal's type"))?;
            Ok(Some((ea, eb)))
        }
        None => match resolve(b, expected, lanes)? {
            Some(eb) => {
                let ea = resolve(a, Some(eb.ty()), lanes)?
                    .ok_or_else(|| ParseError::new("cannot infer a literal's type"))?;
                Ok(Some((ea, eb)))
            }
            None => Ok(None),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &str) {
        let e = parse_expr(src, 8).unwrap();
        assert_eq!(e.to_string(), src);
    }

    #[test]
    fn round_trips() {
        round_trip("a_u8 + b_u8 * c_u8");
        round_trip("u16(a_u8) + u16(b_u8)");
        round_trip("saturating_cast<u8>(x_u16)");
        round_trip("widening_add(a_u8, b_u8)");
        round_trip("rounding_mul_shr(x_i16, y_i16, 15)");
        round_trip("select(a_u8 < b_u8, b_u8 - a_u8, a_u8 - b_u8)");
        round_trip("u8(min(x_u16, 255))");
        round_trip("reinterpret<i16>(x_u16)");
        round_trip("x_u16 >> 3");
    }

    #[test]
    fn literal_adopts_sibling_type() {
        let e = parse_expr("x_u16 + 255", 4).unwrap();
        assert_eq!(e.children()[1].ty().elem, ScalarType::U16);
        let e = parse_expr("2 * x_i8", 4).unwrap();
        assert_eq!(e.children()[0].ty().elem, ScalarType::I8);
    }

    #[test]
    fn negative_literals() {
        let e = parse_expr("x_i8 + -3", 4).unwrap();
        assert_eq!(e.children()[1].as_const(), Some(-3));
    }

    #[test]
    fn bare_literal_fails() {
        assert!(parse_expr("42", 4).is_err());
        assert!(parse_expr("1 + 2", 4).is_err());
    }

    #[test]
    fn unknown_function_fails() {
        assert!(parse_expr("frobnicate(a_u8)", 4).is_err());
    }

    #[test]
    fn missing_suffix_fails() {
        assert!(parse_expr("a + b_u8", 4).is_err());
    }

    #[test]
    fn lanes_are_applied() {
        let e = parse_expr("a_u8", 32).unwrap();
        assert_eq!(e.ty().lanes, 32);
    }

    #[test]
    fn type_mismatch_fails() {
        assert!(parse_expr("a_u8 + b_u16", 4).is_err());
    }

    /// Expressions exactly `n` levels deep, one per kind of level.
    fn shapes(n: usize) -> [(&'static str, String); 4] {
        [
            ("chain", (1..n).fold("a_u8".to_string(), |acc, _| acc + " + b_u8")),
            ("parens", format!("{}a_u8{}", "(".repeat(n - 1), ")".repeat(n - 1))),
            ("negations", format!("{}a_i8", "- ".repeat(n - 1))),
            ("calls", format!("{}a_u8{}", "min(b_u8, ".repeat(n - 1), ")".repeat(n - 1))),
        ]
    }

    #[test]
    fn depth_bound_is_exact_for_every_kind_of_level() {
        for (what, src) in shapes(MAX_EXPR_DEPTH) {
            assert!(parse_expr(&src, 4).is_ok(), "{what} at the bound");
        }
        for (what, src) in shapes(MAX_EXPR_DEPTH + 1) {
            let err = parse_expr(&src, 4).unwrap_err();
            assert!(err.to_string().contains("deeper than"), "{what}: {err}");
        }
    }

    #[test]
    fn far_too_deep_is_refused_without_exhausting_the_stack() {
        let n = 100_000;
        for src in [
            format!("{}a_u8{}", "(".repeat(n), " + b_u8)".repeat(n)),
            (0..n).fold("a_u8".to_string(), |acc, _| acc + "+b_u8"),
            format!("{}a_i8", "-".repeat(n)),
        ] {
            let err = parse_expr(&src, 4).unwrap_err();
            assert!(err.to_string().contains("deeper than"), "{err}");
        }
    }

    #[test]
    fn paper_figure_2b_parses() {
        // The Sobel input expression from Figure 2b (one absd arm).
        let src = "u8(min(absd(u16(a_u8) + u16(b_u8) * 2 + u16(c_u8), \
                   u16(d_u8) + u16(e_u8) * 2 + u16(f_u8)) + \
                   absd(u16(g_u8) + u16(h_u8) * 2 + u16(i_u8), \
                   u16(j_u8) + u16(k_u8) * 2 + u16(l_u8)), 255))";
        let e = parse_expr(src, 16).unwrap();
        assert_eq!(e.ty().elem, ScalarType::U8);
    }
}
