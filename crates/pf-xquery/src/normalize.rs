//! Normalization to a small core dialect.
//!
//! The demonstration describes an "output of type-annotated XQuery Core
//! expression equivalents" (Section 4); this module is the reproduction's
//! (much lighter) counterpart: it rewrites surface constructs into the core
//! forms the loop-lifting compiler handles and performs static checks
//! (known functions, correct arity, variables bound before use).
//!
//! Rewrites performed:
//!
//! * `some $x in S satisfies P`  ⇒  `exists(for $x in S where P return 1)`
//! * `fn:zero-or-one(e)`, `fn:exactly-one(e)`, `fn:one-or-more(e)` ⇒ `e`
//! * `fn:boolean(e)` in `if`-conditions is implicit (dropped)

use std::collections::HashSet;

use crate::ast::{Expr, OrderKey};
use crate::error::{XqError, XqResult};

/// The built-in function library: `(name, min_arity, max_arity)`.
pub const BUILTINS: &[(&str, usize, usize)] = &[
    ("doc", 1, 1),
    ("root", 0, 1),
    ("data", 1, 1),
    ("string", 1, 1),
    ("number", 1, 1),
    ("count", 1, 1),
    ("sum", 1, 1),
    ("avg", 1, 1),
    ("min", 1, 1),
    ("max", 1, 1),
    ("empty", 1, 1),
    ("exists", 1, 1),
    ("not", 1, 1),
    ("boolean", 1, 1),
    ("position", 0, 0),
    ("last", 0, 0),
    ("distinct-values", 1, 1),
    ("distinct-doc-order", 1, 1),
    ("contains", 2, 2),
    ("starts-with", 2, 2),
    ("string-length", 1, 1),
    ("concat", 2, 8),
    ("zero-or-one", 1, 1),
    ("exactly-one", 1, 1),
    ("one-or-more", 1, 1),
    ("name", 1, 1),
];

/// Normalize `expr` and check it statically.
pub fn normalize(expr: &Expr) -> XqResult<Expr> {
    let rewritten = rewrite(expr);
    check(&rewritten, &mut HashSet::new())?;
    Ok(rewritten)
}

fn rewrite(expr: &Expr) -> Expr {
    match expr {
        Expr::Some {
            var,
            seq,
            satisfies,
        } => {
            // some $x in S satisfies P  ≡  exists(for $x in S where P return 1)
            let inner = Expr::For {
                var: var.clone(),
                pos_var: None,
                seq: Box::new(rewrite(seq)),
                where_clause: Some(Box::new(rewrite(satisfies))),
                order_by: vec![],
                body: Box::new(Expr::IntLit(1)),
            };
            Expr::FunCall {
                name: "exists".into(),
                args: vec![inner],
            }
        }
        Expr::FunCall { name, args }
            if matches!(name.as_str(), "zero-or-one" | "exactly-one" | "one-or-more")
                && args.len() == 1 =>
        {
            rewrite(&args[0])
        }
        Expr::FunCall { name, args } => Expr::FunCall {
            name: name.clone(),
            args: args.iter().map(rewrite).collect(),
        },
        Expr::Sequence(items) => Expr::Sequence(items.iter().map(rewrite).collect()),
        Expr::Let { var, value, body } => Expr::Let {
            var: var.clone(),
            value: Box::new(rewrite(value)),
            body: Box::new(rewrite(body)),
        },
        Expr::For {
            var,
            pos_var,
            seq,
            where_clause,
            order_by,
            body,
        } => Expr::For {
            var: var.clone(),
            pos_var: pos_var.clone(),
            seq: Box::new(rewrite(seq)),
            where_clause: where_clause.as_ref().map(|w| Box::new(rewrite(w))),
            order_by: order_by
                .iter()
                .map(|k| OrderKey {
                    expr: rewrite(&k.expr),
                    descending: k.descending,
                })
                .collect(),
            body: Box::new(rewrite(body)),
        },
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let cond = match rewrite(cond) {
                // fn:boolean is implicit in condition position.
                Expr::FunCall { name, mut args } if name == "boolean" && args.len() == 1 => {
                    args.remove(0)
                }
                other => other,
            };
            Expr::If {
                cond: Box::new(cond),
                then_branch: Box::new(rewrite(then_branch)),
                else_branch: Box::new(rewrite(else_branch)),
            }
        }
        Expr::BinOp { op, left, right } => Expr::BinOp {
            op: *op,
            left: Box::new(rewrite(left)),
            right: Box::new(rewrite(right)),
        },
        Expr::Neg(inner) => Expr::Neg(Box::new(rewrite(inner))),
        Expr::PathStep { input, axis, test } => Expr::PathStep {
            input: Box::new(rewrite(input)),
            axis: *axis,
            test: test.clone(),
        },
        Expr::Filter { input, pred } => Expr::Filter {
            input: Box::new(rewrite(input)),
            pred: Box::new(rewrite(pred)),
        },
        Expr::ElemConstr { tag, content } => Expr::ElemConstr {
            tag: tag.clone(),
            content: content.iter().map(rewrite).collect(),
        },
        Expr::AttrConstr { name, value } => Expr::AttrConstr {
            name: name.clone(),
            value: value.iter().map(rewrite).collect(),
        },
        Expr::TextConstr(content) => Expr::TextConstr(content.iter().map(rewrite).collect()),
        other => other.clone(),
    }
}

/// Static checks: every referenced variable is bound, every called function
/// exists with a valid arity.
fn check(expr: &Expr, bound: &mut HashSet<String>) -> XqResult<()> {
    match expr {
        Expr::Var(name) => {
            if !bound.contains(name) {
                return Err(XqError::normalize(format!("unbound variable `${name}`")));
            }
            Ok(())
        }
        Expr::FunCall { name, args } => {
            let known = BUILTINS.iter().find(|(n, _, _)| n == name);
            match known {
                None => Err(XqError::normalize(format!("unknown function `fn:{name}`"))),
                Some((_, lo, hi)) if args.len() < *lo || args.len() > *hi => {
                    Err(XqError::normalize(format!(
                        "function `fn:{name}` called with {} argument(s), expected {lo}..{hi}",
                        args.len()
                    )))
                }
                Some(_) => {
                    for a in args {
                        check(a, bound)?;
                    }
                    Ok(())
                }
            }
        }
        Expr::Let { var, value, body } => {
            check(value, bound)?;
            let added = bound.insert(var.clone());
            check(body, bound)?;
            if added {
                bound.remove(var);
            }
            Ok(())
        }
        Expr::For {
            var,
            pos_var,
            seq,
            where_clause,
            order_by,
            body,
        } => {
            check(seq, bound)?;
            let added = bound.insert(var.clone());
            let added_pos = pos_var
                .as_ref()
                .map(|p| bound.insert(p.clone()))
                .unwrap_or(false);
            if let Some(w) = where_clause {
                check(w, bound)?;
            }
            for k in order_by {
                check(&k.expr, bound)?;
            }
            check(body, bound)?;
            if added {
                bound.remove(var);
            }
            if added_pos {
                bound.remove(pos_var.as_ref().unwrap());
            }
            Ok(())
        }
        Expr::Some {
            var,
            seq,
            satisfies,
        } => {
            check(seq, bound)?;
            let added = bound.insert(var.clone());
            check(satisfies, bound)?;
            if added {
                bound.remove(var);
            }
            Ok(())
        }
        Expr::Sequence(items) | Expr::TextConstr(items) => {
            for i in items {
                check(i, bound)?;
            }
            Ok(())
        }
        Expr::ElemConstr { content, .. } => {
            for c in content {
                check(c, bound)?;
            }
            Ok(())
        }
        Expr::AttrConstr { value, .. } => {
            for v in value {
                check(v, bound)?;
            }
            Ok(())
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            check(cond, bound)?;
            check(then_branch, bound)?;
            check(else_branch, bound)
        }
        Expr::BinOp { left, right, .. } => {
            check(left, bound)?;
            check(right, bound)
        }
        Expr::Neg(inner) => check(inner, bound),
        Expr::PathStep { input, .. } => check(input, bound),
        Expr::Filter { input, pred } => {
            check(input, bound)?;
            check(pred, bound)
        }
        Expr::IntLit(_)
        | Expr::DecLit(_)
        | Expr::StrLit(_)
        | Expr::Param(_)
        | Expr::EmptySeq
        | Expr::ContextItem => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn some_is_rewritten_to_exists() {
        let ast = parse_query("some $x in (1,2,3) satisfies $x = 2").unwrap();
        let core = normalize(&ast).unwrap();
        let Expr::FunCall { name, args } = core else {
            panic!()
        };
        assert_eq!(name, "exists");
        assert!(matches!(
            &args[0],
            Expr::For {
                where_clause: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn cardinality_wrappers_are_dropped() {
        let ast = parse_query("fn:zero-or-one($x)").unwrap();
        // $x is unbound — wrap in a let to make the check pass.
        let ast = Expr::Let {
            var: "x".into(),
            value: Box::new(Expr::IntLit(1)),
            body: Box::new(ast),
        };
        let core = normalize(&ast).unwrap();
        let Expr::Let { body, .. } = core else {
            panic!()
        };
        assert!(matches!(*body, Expr::Var(_)));
    }

    #[test]
    fn unbound_variables_are_rejected() {
        let ast = parse_query("$nope + 1").unwrap();
        let err = normalize(&ast).unwrap_err();
        assert!(err.message.contains("unbound variable"));
    }

    #[test]
    fn unknown_functions_and_bad_arity_are_rejected() {
        let ast = parse_query("frobnicate(1)").unwrap();
        assert!(normalize(&ast)
            .unwrap_err()
            .message
            .contains("unknown function"));
        let ast = parse_query("count(1, 2)").unwrap();
        assert!(normalize(&ast).unwrap_err().message.contains("expected"));
    }

    #[test]
    fn flwor_variables_are_visible_in_where_and_body() {
        let ast = parse_query("for $p at $i in (1,2) where $i = 1 return $p").unwrap();
        assert!(normalize(&ast).is_ok());
    }

    #[test]
    fn boolean_wrapper_in_condition_is_dropped() {
        let ast = parse_query("if (boolean((1,2))) then 1 else 2").unwrap();
        let core = normalize(&ast).unwrap();
        let Expr::If { cond, .. } = core else {
            panic!()
        };
        assert!(matches!(*cond, Expr::Sequence(_)));
    }
}
