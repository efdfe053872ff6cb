//! Literal lifting: the *shape* of a query, which keys the engine's plan
//! cache.
//!
//! Two queries that differ only in the strings they compare against
//! compile to one plan up to those strings.  [`lift`] replaces each such
//! literal by a parameter slot ([`Expr::Param`]), numbering the slots in
//! the order the literals appear in the query text, and returns the
//! values it took out.  The lifted AST compiles to a plan *template*;
//! `pf_algebra::Plan::bind` writes the values back in.  A slot is opaque
//! to the optimizer (`pf_algebra::Const::Param`), so the template's plan
//! is right for every value bound into it.
//!
//! Lifted:
//!
//! * the string-literal operands of general and value comparisons;
//! * the needle (second argument) of `contains`, `starts-with` and
//!   `ends-with`.
//!
//! Never lifted:
//!
//! * `doc()` URIs — they name the document whose statistics and indexes
//!   the optimizer plans with;
//! * numeric literals — `[n]` is a positional predicate, and numbers
//!   feed numeric index probes;
//! * constructor content and every other function argument.
//!
//! A query with nothing to lift is a shape with zero slots.
//!
//! ```
//! use pf_xquery::{lift, parse_query};
//!
//! let a = lift(&parse_query(r#"doc("d.xml")//p[@id = "p1"]"#).unwrap());
//! let b = lift(&parse_query(r#"doc("d.xml")//p[@id = "p2"]"#).unwrap());
//! assert_eq!(a.key(), b.key());
//! assert_eq!(a.values, ["p1"]);
//! ```

use crate::ast::{Expr, OrderKey};

/// A query split into its shape and the literals lifted out of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Lifted {
    /// The query with every liftable string literal replaced by
    /// [`Expr::Param`]`(k)`.
    pub shape: Expr,
    /// `values[k]` is the literal slot `k` replaced, as the lexer read it
    /// (a doubled quote already resolved).
    pub values: Vec<String>,
}

impl Lifted {
    /// The shape key: a canonical rendering of [`Lifted::shape`], so two
    /// queries share a key exactly when their lifted ASTs are equal.
    pub fn key(&self) -> String {
        format!("{:?}", self.shape)
    }
}

/// Lift the string literals of `query` (a parsed, not yet normalized
/// AST) into parameter slots.  See the module docs for what is lifted.
pub fn lift(query: &Expr) -> Lifted {
    let mut shape = query.clone();
    let mut values = Vec::new();
    lift_in(&mut shape, &mut values);
    Lifted { shape, values }
}

fn lift_in(expr: &mut Expr, values: &mut Vec<String>) {
    match expr {
        Expr::BinOp { op, left, right } if op.is_comparison() => {
            operand(left, values);
            operand(right, values);
        }
        Expr::FunCall { name, args }
            if args.len() == 2
                && matches!(name.as_str(), "contains" | "starts-with" | "ends-with") =>
        {
            lift_in(&mut args[0], values);
            operand(&mut args[1], values);
        }
        _ => {
            for child in children_mut(expr) {
                lift_in(child, values);
            }
        }
    }
}

/// Lift `expr` if it is a string literal in a liftable position; descend
/// into it otherwise.
fn operand(expr: &mut Expr, values: &mut Vec<String>) {
    if let Expr::StrLit(literal) = expr {
        let slot = values.len() as u32;
        values.push(std::mem::take(literal));
        *expr = Expr::Param(slot);
    } else {
        lift_in(expr, values);
    }
}

/// The direct subexpressions of `expr`, in query-text order.
fn children_mut(expr: &mut Expr) -> Vec<&mut Expr> {
    match expr {
        Expr::IntLit(_)
        | Expr::DecLit(_)
        | Expr::StrLit(_)
        | Expr::Param(_)
        | Expr::EmptySeq
        | Expr::Var(_)
        | Expr::ContextItem => Vec::new(),
        Expr::Sequence(items)
        | Expr::FunCall { args: items, .. }
        | Expr::ElemConstr { content: items, .. }
        | Expr::AttrConstr { value: items, .. }
        | Expr::TextConstr(items) => items.iter_mut().collect(),
        Expr::For {
            seq,
            where_clause,
            order_by,
            body,
            ..
        } => std::iter::once(&mut **seq)
            .chain(where_clause.as_deref_mut())
            .chain(order_by.iter_mut().map(|OrderKey { expr, .. }| expr))
            .chain(std::iter::once(&mut **body))
            .collect(),
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => vec![&mut **cond, &mut **then_branch, &mut **else_branch],
        Expr::Let {
            value: first,
            body: second,
            ..
        }
        | Expr::Some {
            seq: first,
            satisfies: second,
            ..
        }
        | Expr::BinOp {
            left: first,
            right: second,
            ..
        }
        | Expr::Filter {
            input: first,
            pred: second,
        } => vec![&mut **first, &mut **second],
        Expr::Neg(inner) | Expr::PathStep { input: inner, .. } => vec![&mut **inner],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn lifted(query: &str) -> Lifted {
        lift(&parse_query(query).unwrap())
    }

    #[test]
    fn comparison_operands_and_needles_are_lifted_in_text_order() {
        let l = lifted(r#"for $p in doc("d")//p where $p/@a = "x" or contains($p, "y") return $p"#);
        assert_eq!(l.values, ["x", "y"]);
        let l = lifted(r#""a" eq "b""#);
        assert_eq!(l.values, ["a", "b"]);
        assert_eq!(
            l.shape,
            Expr::BinOp {
                op: crate::BinOpKind::Eq,
                left: Box::new(Expr::Param(0)),
                right: Box::new(Expr::Param(1)),
            }
        );
    }

    #[test]
    fn other_literals_stay_in_the_shape() {
        for query in [
            r#"doc("d")//p"#,
            r#"doc("d")//p[1]"#,
            r#"doc("d")//p[@n = 3]"#,
            r#"element e { "x" }"#,
            r#"concat("a", "b")"#,
            r#"contains("hay", $x)"#,
        ] {
            let l = lifted(query);
            assert!(l.values.is_empty(), "{query} lifted {:?}", l.values);
            assert_eq!(l.shape, parse_query(query).unwrap());
        }
    }

    #[test]
    fn values_are_the_literals_as_lexed() {
        // The lexer resolves a doubled quote; it leaves `&amp;` as written.
        let l = lifted(r#"$x = "p""0" or $x = "a&amp;b""#);
        assert_eq!(l.values, ["p\"0", "a&amp;b"]);
    }
}
