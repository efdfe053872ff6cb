//! Abstract syntax of the supported XQuery dialect (Table 2 of the paper).
//!
//! The dialect covers atomic literals, sequences, variables, `let`, `for`
//! (with optional positional variable, `where` and `order by`),
//! `if`/`then`/`else`, XPath path expressions with predicates, computed
//! element / attribute / text constructors, arithmetic, value and general
//! comparisons, boolean connectives, node identity (`is`) and document order
//! (`<<`), and the built-in function library (`fn:doc`, `fn:count`,
//! `fn:sum`, `fn:empty`, `fn:data`, `fn:root`, `fn:position`, `fn:last`,
//! `fs:distinct-doc-order`, …).
//!
//! Direct element constructors (`<a>{…}</a>`) are not parsed; the equivalent
//! computed constructors (`element a { … }`) are used instead — see
//! DESIGN.md for the list of deviations.

use std::collections::HashSet;

use pf_store::{Axis, NodeTest};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOpKind {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `idiv`
    IDiv,
    /// `mod`
    Mod,
    /// General/value equality (`=` / `eq`).
    Eq,
    /// `!=` / `ne`
    Ne,
    /// `<` / `lt`
    Lt,
    /// `<=` / `le`
    Le,
    /// `>` / `gt`
    Gt,
    /// `>=` / `ge`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
    /// Node identity `is`.
    Is,
    /// Document order `<<`.
    Before,
    /// Document order `>>`.
    After,
}

impl BinOpKind {
    /// `true` for the six (general or value) comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOpKind::Eq
                | BinOpKind::Ne
                | BinOpKind::Lt
                | BinOpKind::Le
                | BinOpKind::Gt
                | BinOpKind::Ge
        )
    }

    /// `true` for the arithmetic operators.
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            BinOpKind::Add
                | BinOpKind::Sub
                | BinOpKind::Mul
                | BinOpKind::Div
                | BinOpKind::IDiv
                | BinOpKind::Mod
        )
    }
}

/// One `order by` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Key expression (evaluated once per tuple of the FLWOR stream).
    pub expr: Expr,
    /// `true` for `descending`.
    pub descending: bool,
}

/// An XQuery expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Decimal / double literal.
    DecLit(f64),
    /// String literal.
    StrLit(String),
    /// Parameter slot `k`: a string literal [`crate::lift()`] took out of
    /// the query, compiled to a [`pf_algebra::Const::Param`].
    Param(u32),
    /// The empty sequence `()`.
    EmptySeq,
    /// Sequence construction `(e1, e2, …)`.
    Sequence(Vec<Expr>),
    /// Variable reference `$v`.
    Var(String),
    /// The context item `.`.
    ContextItem,
    /// `let $var := value return body`
    Let {
        /// Bound variable (without `$`).
        var: String,
        /// Bound expression.
        value: Box<Expr>,
        /// Body.
        body: Box<Expr>,
    },
    /// `for $var [at $pos] in seq [where w] [order by …] return body`
    For {
        /// Bound variable (without `$`).
        var: String,
        /// Optional positional variable (`at $p`).
        pos_var: Option<String>,
        /// Sequence iterated over.
        seq: Box<Expr>,
        /// Optional `where` clause.
        where_clause: Option<Box<Expr>>,
        /// `order by` keys (empty when absent).
        order_by: Vec<OrderKey>,
        /// Loop body (`return` expression).
        body: Box<Expr>,
    },
    /// `if (cond) then … else …`
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then branch.
        then_branch: Box<Expr>,
        /// Else branch.
        else_branch: Box<Expr>,
    },
    /// `some $var in seq satisfies pred`
    Some {
        /// Bound variable.
        var: String,
        /// Sequence.
        seq: Box<Expr>,
        /// Predicate.
        satisfies: Box<Expr>,
    },
    /// Binary operation.
    BinOp {
        /// Operator.
        op: BinOpKind,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// One XPath location step applied to `input`.
    PathStep {
        /// Context expression.
        input: Box<Expr>,
        /// Axis.
        axis: Axis,
        /// Node test.
        test: NodeTest,
    },
    /// Predicate filter `input[pred]`.
    Filter {
        /// Filtered expression.
        input: Box<Expr>,
        /// Predicate (positional if it evaluates to a number).
        pred: Box<Expr>,
    },
    /// Function call `name(args…)`; names are stored without the `fn:`
    /// prefix.
    FunCall {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Computed element constructor `element name { content }`.
    ElemConstr {
        /// Element name.
        tag: String,
        /// Content expressions.
        content: Vec<Expr>,
    },
    /// Computed attribute constructor `attribute name { value }`.
    AttrConstr {
        /// Attribute name.
        name: String,
        /// Value expressions.
        value: Vec<Expr>,
    },
    /// Computed text node constructor `text { content }`.
    TextConstr(Vec<Expr>),
}

impl Expr {
    /// The number of nodes on the longest root-to-leaf path (a literal has
    /// height 1).  Recursive: meant for trees the parser has bounded (see
    /// [`crate::parser::MAX_NESTING_DEPTH`]).
    pub fn height(&self) -> usize {
        fn tallest<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> usize {
            exprs.into_iter().map(Expr::height).max().unwrap_or(0)
        }
        1 + match self {
            Expr::IntLit(_)
            | Expr::DecLit(_)
            | Expr::StrLit(_)
            | Expr::Param(_)
            | Expr::EmptySeq
            | Expr::Var(_)
            | Expr::ContextItem => 0,
            Expr::Sequence(items)
            | Expr::FunCall { args: items, .. }
            | Expr::ElemConstr { content: items, .. }
            | Expr::AttrConstr { value: items, .. }
            | Expr::TextConstr(items) => tallest(items),
            Expr::For {
                seq,
                where_clause,
                order_by,
                body,
                ..
            } => tallest(
                [&**seq, &**body]
                    .into_iter()
                    .chain(where_clause.as_deref())
                    .chain(order_by.iter().map(|key| &key.expr)),
            ),
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => tallest([&**cond, then_branch, else_branch]),
            Expr::Let {
                value: left,
                body: right,
                ..
            }
            | Expr::Some {
                seq: left,
                satisfies: right,
                ..
            }
            | Expr::BinOp { left, right, .. }
            | Expr::Filter {
                input: left,
                pred: right,
            } => left.height().max(right.height()),
            Expr::Neg(inner) | Expr::PathStep { input: inner, .. } => inner.height(),
        }
    }

    /// The set of free variables of this expression (variables that are
    /// referenced but not bound by an enclosing `let`/`for`/`some` within
    /// the expression itself).  Used by the join recognizer to decide
    /// whether a nested `for` iterates over a loop-independent sequence.
    pub fn free_vars(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.collect_free(&mut HashSet::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut HashSet<String>, out: &mut HashSet<String>) {
        match self {
            Expr::Var(name) => {
                if !bound.contains(name) {
                    out.insert(name.clone());
                }
            }
            Expr::IntLit(_)
            | Expr::DecLit(_)
            | Expr::StrLit(_)
            | Expr::Param(_)
            | Expr::EmptySeq
            | Expr::ContextItem => {}
            Expr::Sequence(items) => {
                for item in items {
                    item.collect_free(bound, out);
                }
            }
            Expr::Let { var, value, body } => {
                value.collect_free(bound, out);
                let added = bound.insert(var.clone());
                body.collect_free(bound, out);
                if added {
                    bound.remove(var);
                }
            }
            Expr::For {
                var,
                pos_var,
                seq,
                where_clause,
                order_by,
                body,
            } => {
                seq.collect_free(bound, out);
                let added_var = bound.insert(var.clone());
                let added_pos = pos_var.as_ref().map(|p| bound.insert(p.clone()));
                if let Some(w) = where_clause {
                    w.collect_free(bound, out);
                }
                for key in order_by {
                    key.expr.collect_free(bound, out);
                }
                body.collect_free(bound, out);
                if added_var {
                    bound.remove(var);
                }
                if let (Some(p), Some(true)) = (pos_var, added_pos) {
                    bound.remove(p);
                }
            }
            Expr::Some {
                var,
                seq,
                satisfies,
            } => {
                seq.collect_free(bound, out);
                let added = bound.insert(var.clone());
                satisfies.collect_free(bound, out);
                if added {
                    bound.remove(var);
                }
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.collect_free(bound, out);
                then_branch.collect_free(bound, out);
                else_branch.collect_free(bound, out);
            }
            Expr::BinOp { left, right, .. } => {
                left.collect_free(bound, out);
                right.collect_free(bound, out);
            }
            Expr::Neg(inner) => inner.collect_free(bound, out),
            Expr::PathStep { input, .. } => input.collect_free(bound, out),
            Expr::Filter { input, pred } => {
                input.collect_free(bound, out);
                pred.collect_free(bound, out);
            }
            Expr::FunCall { args, .. } => {
                for arg in args {
                    arg.collect_free(bound, out);
                }
            }
            Expr::ElemConstr { content, .. } => {
                for c in content {
                    c.collect_free(bound, out);
                }
            }
            Expr::AttrConstr { value, .. } => {
                for v in value {
                    v.collect_free(bound, out);
                }
            }
            Expr::TextConstr(content) => {
                for c in content {
                    c.collect_free(bound, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    #[test]
    fn free_vars_of_let_and_for() {
        // let $x := $y return $x + $z  — free: y, z
        let e = Expr::Let {
            var: "x".into(),
            value: Box::new(var("y")),
            body: Box::new(Expr::BinOp {
                op: BinOpKind::Add,
                left: Box::new(var("x")),
                right: Box::new(var("z")),
            }),
        };
        let free = e.free_vars();
        assert!(free.contains("y"));
        assert!(free.contains("z"));
        assert!(!free.contains("x"));
    }

    #[test]
    fn for_binds_its_variable_and_positional_variable() {
        let e = Expr::For {
            var: "v".into(),
            pos_var: Some("p".into()),
            seq: Box::new(var("src")),
            where_clause: Some(Box::new(var("p"))),
            order_by: vec![],
            body: Box::new(Expr::BinOp {
                op: BinOpKind::Add,
                left: Box::new(var("v")),
                right: Box::new(var("w")),
            }),
        };
        let free = e.free_vars();
        assert_eq!(
            free,
            ["src", "w"]
                .iter()
                .map(|s| s.to_string())
                .collect::<HashSet<_>>()
        );
    }

    #[test]
    fn operator_classification() {
        assert!(BinOpKind::Eq.is_comparison());
        assert!(!BinOpKind::Eq.is_arithmetic());
        assert!(BinOpKind::Mod.is_arithmetic());
        assert!(!BinOpKind::And.is_comparison());
    }
}
