//! The loop-lifting compiler: XQuery core → relational algebra.
//!
//! Every XQuery subexpression is represented by a relation with schema
//! `iter|pos|item` relative to its *iteration scope* (Figure 2/3 of the
//! paper): `iter` identifies the iteration of the enclosing FLWOR scope the
//! value belongs to, `pos` the sequence position within that iteration, and
//! `item` the value.  A scope is described by its `loop` relation (the set
//! of live `iter` values) and by one relation per visible variable.
//!
//! * A `for` loop opens a new scope: row numbering (`%`) over the bound
//!   sequence generates the inner `iter` values; the `map(inner,outer)`
//!   relation relates them to the enclosing scope (Figure 3(f)); free
//!   variables are *loop-lifted* into the new scope by joining them with
//!   `map`; results are mapped back with another `%` that restores sequence
//!   order (the `%pos1:⟨iter,pos⟩/outer` node in Figure 5).
//! * `if` splits the loop relation into the iterations where the condition
//!   holds and those where it does not, compiles both branches against the
//!   restricted loops, and reunites the two (disjoint) results.
//! * Arithmetic and comparisons become equi-joins on `iter` followed by a
//!   column-wise `⊙` operator — again exactly the Figure 5 shape.
//!
//! **Join recognition** (\[3\], "Pathfinder compiles these queries into join
//! plans"): a nested `for $x in SEQ where A θ B return …` whose sequence is
//! independent of the enclosing loop and whose `where` clause compares a
//! key of `$x` against a key of the outer scope is compiled into an
//! equi-/theta-join of the two key relations instead of lifting `SEQ` once
//! per outer iteration.  This avoids the `|outer| × |SEQ|` intermediate
//! result that makes the naive compilation (and navigational engines)
//! collapse on XMark Q8–Q12.

use std::collections::{HashMap, HashSet};

use pf_algebra::{AlgOp, OpId, Plan, PlanBuilder, SortSpec};
use pf_relational::ops::{AggFunc, BinaryOp, CmpOp, UnaryOp};
use pf_relational::Value;
use pf_store::Axis;

use crate::ast::{BinOpKind, Expr, OrderKey};
use crate::error::{XqError, XqResult};

/// Compiler options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Recognize joins in `for … where key θ key` patterns (on by default).
    pub join_recognition: bool,
    /// Insert `fs:distinct-doc-order` after every location step (on by
    /// default; the peephole optimizer removes the redundant ones).
    pub insert_doc_order: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            join_recognition: true,
            insert_doc_order: true,
        }
    }
}

/// The result of compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The relational plan; its root produces the query result as an
    /// `iter|pos|item` table in the top-level scope (a single iteration).
    pub plan: Plan,
    /// Whether the join recognizer fired at least once.
    pub joins_recognized: usize,
}

/// Compile a normalized expression into a relational plan.
pub fn compile(expr: &Expr, options: &CompileOptions) -> XqResult<Compiled> {
    let mut ctx = Ctx {
        b: PlanBuilder::new(),
        opts: options.clone(),
        joins_recognized: 0,
    };
    let loop0 = ctx.lit(vec!["iter"], vec![vec![Value::Nat(1)]]);
    let scope = Scope {
        loop_op: loop0,
        vars: HashMap::new(),
        numeric: HashSet::new(),
    };
    let root = ctx.compile_expr(expr, &scope)?;
    Ok(Compiled {
        plan: ctx.b.finish(root),
        joins_recognized: ctx.joins_recognized,
    })
}

/// An iteration scope: its loop relation and the visible variables.
#[derive(Debug, Clone)]
struct Scope {
    loop_op: OpId,
    vars: HashMap<String, OpId>,
    /// The visible variables statically bound to one number per
    /// iteration (what makes a predicate `[$v]` positional).
    numeric: HashSet<String>,
}

impl Scope {
    /// A scope over `loop_op` that knows the numeric variables of `outer`
    /// (its variables are lifted in by the caller).
    fn nested(loop_op: OpId, outer: &Scope) -> Scope {
        Scope {
            loop_op,
            vars: HashMap::new(),
            numeric: outer.numeric.clone(),
        }
    }

    /// Bind `var` to `op`, numeric when `numeric` is set.
    fn bind(&mut self, var: &str, op: OpId, numeric: bool) {
        self.vars.insert(var.to_string(), op);
        if numeric {
            self.numeric.insert(var.to_string());
        } else {
            self.numeric.remove(var);
        }
    }

    /// Whether `expr` statically evaluates to a single number per
    /// iteration: numeric literals, arithmetic, the numeric functions and
    /// numeric variables.
    fn is_numeric(&self, expr: &Expr) -> bool {
        match expr {
            Expr::IntLit(_) | Expr::DecLit(_) | Expr::Neg(_) => true,
            Expr::BinOp { op, .. } => op.is_arithmetic(),
            Expr::Var(v) => self.numeric.contains(v),
            Expr::Sequence(items) => matches!(items.as_slice(), [item] if self.is_numeric(item)),
            Expr::FunCall { name, .. } => matches!(
                name.as_str(),
                "count" | "sum" | "avg" | "number" | "string-length" | "position" | "last"
            ),
            _ => false,
        }
    }

    /// Whether every item of `expr` is statically a number, so a `for`
    /// over it binds a numeric variable.
    fn items_numeric(&self, expr: &Expr) -> bool {
        match expr {
            Expr::Sequence(items) => !items.is_empty() && items.iter().all(|i| self.is_numeric(i)),
            other => self.is_numeric(other),
        }
    }
}

struct Ctx {
    b: PlanBuilder,
    opts: CompileOptions,
    joins_recognized: usize,
}

impl Ctx {
    // ----- small plan-construction helpers -------------------------------

    fn lit(&mut self, columns: Vec<&str>, rows: Vec<Vec<Value>>) -> OpId {
        self.b.add(AlgOp::Lit {
            columns: columns.into_iter().map(str::to_string).collect(),
            rows,
        })
    }

    fn project(&mut self, input: OpId, columns: &[(&str, &str)]) -> OpId {
        self.b.add(AlgOp::Project {
            input,
            columns: columns
                .iter()
                .map(|(s, t)| (s.to_string(), t.to_string()))
                .collect(),
        })
    }

    fn attach(&mut self, input: OpId, target: &str, value: Value) -> OpId {
        self.b.add(AlgOp::Attach {
            input,
            target: target.to_string(),
            value,
        })
    }

    fn equi_join(&mut self, left: OpId, right: OpId, lcol: &str, rcol: &str) -> OpId {
        self.b.add(AlgOp::EquiJoin {
            left,
            right,
            left_col: lcol.to_string(),
            right_col: rcol.to_string(),
        })
    }

    fn row_number(
        &mut self,
        input: OpId,
        target: &str,
        order_by: Vec<SortSpec>,
        partition: Option<&str>,
    ) -> OpId {
        self.b.add(AlgOp::RowNum {
            input,
            target: target.to_string(),
            order_by,
            partition: partition.map(str::to_string),
        })
    }

    fn union(&mut self, left: OpId, right: OpId) -> OpId {
        self.b.add(AlgOp::Union { left, right })
    }

    fn difference(&mut self, left: OpId, right: OpId) -> OpId {
        self.b.add(AlgOp::Difference { left, right })
    }

    /// The empty `iter|pos|item` relation.
    fn empty_seq(&mut self) -> OpId {
        self.lit(vec!["iter", "pos", "item"], vec![])
    }

    /// Loop-lift a constant: one row per live iteration, `pos = 1`.
    fn const_item(&mut self, scope: &Scope, value: Value) -> OpId {
        let with_pos = self.attach(scope.loop_op, "pos", Value::Nat(1));
        self.attach(with_pos, "item", value)
    }

    /// Project to the canonical `iter|pos|item` schema.
    fn canonical(&mut self, input: OpId) -> OpId {
        self.project(input, &[("iter", "iter"), ("pos", "pos"), ("item", "item")])
    }

    /// Renumber `pos` to 1…k per iteration, preserving the current order.
    fn renumber_pos(&mut self, input: OpId) -> OpId {
        let numbered = self.row_number(input, "pos1", vec![SortSpec::asc("pos")], Some("iter"));
        self.project(
            numbered,
            &[("iter", "iter"), ("pos1", "pos"), ("item", "item")],
        )
    }

    /// Effective boolean value per iteration, completed with `false` for
    /// iterations that produced no value.  Result schema: `iter|item`.
    ///
    /// **Pattern provenance:** this exact scaffolding —
    /// `π(ebv) ∪ @item:=false(loop ∖ π_iter(ebv))` — is what the
    /// `indexscan` optimizer rule recognizes as its *Ebv* shape (both
    /// before and after selection pushdown splits the union).  Changing
    /// the emitted operators here requires updating
    /// `pf-algebra/src/optimize/indexscan.rs` in lockstep, or the rule
    /// silently stops firing.
    fn ebv_bool(&mut self, input: OpId, loop_op: OpId) -> OpId {
        let ebv = self.b.add(AlgOp::Ebv { input });
        let present = self.project(ebv, &[("iter", "iter"), ("item", "item")]);
        let present_iters = self.project(ebv, &[("iter", "iter")]);
        let missing_iters = self.difference(loop_op, present_iters);
        let missing = self.attach(missing_iters, "item", Value::Bool(false));
        self.union(present, missing)
    }

    /// Turn an `iter|item` boolean relation into a canonical
    /// `iter|pos|item` singleton sequence.
    fn bool_to_seq(&mut self, bools: OpId) -> OpId {
        let with_pos = self.attach(bools, "pos", Value::Nat(1));
        self.canonical(with_pos)
    }

    /// Concatenate several canonical sequences, preserving order of parts
    /// and of items within each part.
    fn seq_concat(&mut self, parts: Vec<OpId>) -> XqResult<OpId> {
        if parts.is_empty() {
            return Ok(self.empty_seq());
        }
        if parts.len() == 1 {
            return Ok(parts[0]);
        }
        let mut tagged: Option<OpId> = None;
        for (index, part) in parts.into_iter().enumerate() {
            let with_ord = self.attach(part, "ord", Value::Nat(index as u64 + 1));
            tagged = Some(match tagged {
                None => with_ord,
                Some(prev) => self.union(prev, with_ord),
            });
        }
        let all = tagged.expect("at least one part");
        let numbered = self.row_number(
            all,
            "pos1",
            vec![SortSpec::asc("ord"), SortSpec::asc("pos")],
            Some("iter"),
        );
        Ok(self.project(
            numbered,
            &[("iter", "iter"), ("pos1", "pos"), ("item", "item")],
        ))
    }

    /// Loop-lift variable relation `var_op` from the outer scope into the
    /// inner scope described by `map` (`inner|outer`).
    fn lift_var(&mut self, var_op: OpId, map: OpId) -> OpId {
        let joined = self.equi_join(var_op, map, "iter", "outer");
        self.project(
            joined,
            &[("inner", "iter"), ("pos", "pos"), ("item", "item")],
        )
    }

    /// Restrict a variable relation to the iterations of `new_loop`
    /// (semijoin); used for the two branches of `if`.
    fn restrict_var(&mut self, var_op: OpId, new_loop: OpId) -> OpId {
        let loop2 = self.project(new_loop, &[("iter", "iter2")]);
        let joined = self.equi_join(var_op, loop2, "iter", "iter2");
        self.canonical(joined)
    }

    /// Complete an `iter|value` aggregate with a default value for
    /// iterations of `loop_op` that have no group, producing a canonical
    /// sequence.
    fn complete_aggregate(
        &mut self,
        agg: OpId,
        value_col: &str,
        loop_op: OpId,
        default: Option<Value>,
    ) -> OpId {
        let present_pairs = self.project(agg, &[("iter", "iter"), (value_col, "item")]);
        let with_pos = self.attach(present_pairs, "pos", Value::Nat(1));
        let present = self.canonical(with_pos);
        let Some(default) = default else {
            return present;
        };
        let present_iters = self.project(agg, &[("iter", "iter")]);
        let missing_iters = self.difference(loop_op, present_iters);
        let missing_items = self.attach(missing_iters, "item", default);
        let missing_pos = self.attach(missing_items, "pos", Value::Nat(1));
        let missing = self.canonical(missing_pos);
        self.union(present, missing)
    }

    // ----- expression compilation ----------------------------------------

    fn compile_expr(&mut self, expr: &Expr, scope: &Scope) -> XqResult<OpId> {
        match expr {
            Expr::IntLit(i) => Ok(self.const_item(scope, Value::Int(*i))),
            Expr::DecLit(d) => Ok(self.const_item(scope, Value::Dbl(*d))),
            Expr::StrLit(s) => Ok(self.const_item(scope, Value::Str(s.clone()))),
            Expr::EmptySeq => Ok(self.empty_seq()),
            Expr::Sequence(items) => {
                let parts = items
                    .iter()
                    .map(|item| self.compile_expr(item, scope))
                    .collect::<XqResult<Vec<_>>>()?;
                self.seq_concat(parts)
            }
            Expr::Var(name) => scope
                .vars
                .get(name)
                .copied()
                .ok_or_else(|| XqError::compile(format!("unbound variable `${name}`"))),
            Expr::ContextItem => scope
                .vars
                .get(".")
                .copied()
                .ok_or_else(|| XqError::compile("the context item is undefined here")),
            Expr::Let { var, value, body } => {
                let value_op = self.compile_expr(value, scope)?;
                let mut inner = scope.clone();
                inner.bind(var, value_op, scope.is_numeric(value));
                self.compile_expr(body, &inner)
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => self.compile_if(cond, then_branch, else_branch, scope),
            Expr::For {
                var,
                pos_var,
                seq,
                where_clause,
                order_by,
                body,
            } => self.compile_for(
                var,
                pos_var.as_deref(),
                seq,
                where_clause.as_deref(),
                order_by,
                body,
                scope,
            ),
            Expr::BinOp { op, left, right } => self.compile_binop(*op, left, right, scope),
            Expr::Neg(inner) => {
                let q = self.compile_expr(inner, scope)?;
                let mapped = self.b.add(AlgOp::UnaryMap {
                    input: q,
                    target: "res".into(),
                    op: UnaryOp::Neg,
                    source: "item".into(),
                });
                Ok(self.project(mapped, &[("iter", "iter"), ("pos", "pos"), ("res", "item")]))
            }
            Expr::PathStep { input, axis, test } => {
                let q = self.compile_expr(input, scope)?;
                let context = self.project(q, &[("iter", "iter"), ("item", "item")]);
                let step = self.b.add(AlgOp::Step {
                    input: context,
                    axis: *axis,
                    test: test.clone(),
                });
                if self.opts.insert_doc_order && *axis != Axis::Attribute {
                    Ok(self.b.add(AlgOp::DocOrder { input: step }))
                } else {
                    Ok(step)
                }
            }
            Expr::Filter { input, pred } => self.compile_filter(input, pred, scope),
            Expr::FunCall { name, args } => self.compile_funcall(name, args, scope),
            Expr::ElemConstr { tag, content } => {
                let parts = content
                    .iter()
                    .map(|c| self.compile_expr(c, scope))
                    .collect::<XqResult<Vec<_>>>()?;
                let content_op = self.seq_concat(parts)?;
                Ok(self.b.add(AlgOp::ElemConstruct {
                    loop_input: scope.loop_op,
                    tag: tag.clone(),
                    content: content_op,
                }))
            }
            Expr::AttrConstr { name, value } => {
                let parts = value
                    .iter()
                    .map(|c| self.compile_expr(c, scope))
                    .collect::<XqResult<Vec<_>>>()?;
                let content_op = self.seq_concat(parts)?;
                Ok(self.b.add(AlgOp::AttrConstruct {
                    loop_input: scope.loop_op,
                    name: name.clone(),
                    content: content_op,
                }))
            }
            Expr::TextConstr(content) => {
                let parts = content
                    .iter()
                    .map(|c| self.compile_expr(c, scope))
                    .collect::<XqResult<Vec<_>>>()?;
                let content_op = self.seq_concat(parts)?;
                Ok(self.b.add(AlgOp::TextConstruct {
                    loop_input: scope.loop_op,
                    content: content_op,
                }))
            }
            Expr::Some { .. } => Err(XqError::compile(
                "quantified expressions must be normalized before compilation",
            )),
        }
    }

    fn compile_if(
        &mut self,
        cond: &Expr,
        then_branch: &Expr,
        else_branch: &Expr,
        scope: &Scope,
    ) -> XqResult<OpId> {
        let qc = self.compile_expr(cond, scope)?;
        let bools = self.ebv_bool(qc, scope.loop_op);
        let true_rows = self.b.add(AlgOp::Select {
            input: bools,
            column: "item".into(),
        });
        let loop_then = self.project(true_rows, &[("iter", "iter")]);
        let loop_else = self.difference(scope.loop_op, loop_then);

        let mut then_scope = Scope::nested(loop_then, scope);
        let mut else_scope = Scope::nested(loop_else, scope);
        for (name, &op) in &scope.vars {
            then_scope
                .vars
                .insert(name.clone(), self.restrict_var(op, loop_then));
            else_scope
                .vars
                .insert(name.clone(), self.restrict_var(op, loop_else));
        }
        let q_then = self.compile_expr(then_branch, &then_scope)?;
        let q_else = self.compile_expr(else_branch, &else_scope)?;
        Ok(self.union(q_then, q_else))
    }

    fn compile_binop(
        &mut self,
        op: BinOpKind,
        left: &Expr,
        right: &Expr,
        scope: &Scope,
    ) -> XqResult<OpId> {
        match op {
            BinOpKind::And | BinOpKind::Or => {
                let ql = self.compile_expr(left, scope)?;
                let qr = self.compile_expr(right, scope)?;
                let bl = self.ebv_bool(ql, scope.loop_op);
                let br = self.ebv_bool(qr, scope.loop_op);
                let br_renamed = self.project(br, &[("iter", "iter1"), ("item", "item1")]);
                let joined = self.equi_join(bl, br_renamed, "iter", "iter1");
                let bin = if op == BinOpKind::And {
                    BinaryOp::And
                } else {
                    BinaryOp::Or
                };
                let mapped = self.b.add(AlgOp::BinaryMap {
                    input: joined,
                    target: "res".into(),
                    left: "item".into(),
                    op: bin,
                    right: "item1".into(),
                });
                let pairs = self.project(mapped, &[("iter", "iter"), ("res", "item")]);
                Ok(self.bool_to_seq(pairs))
            }
            op if op.is_arithmetic() => {
                let ql = self.compile_expr(left, scope)?;
                let qr = self.compile_expr(right, scope)?;
                let qr_renamed = self.project(qr, &[("iter", "iter1"), ("item", "item1")]);
                let joined = self.equi_join(ql, qr_renamed, "iter", "iter1");
                let arith = match op {
                    BinOpKind::Add => pf_relational::value::ArithOp::Add,
                    BinOpKind::Sub => pf_relational::value::ArithOp::Sub,
                    BinOpKind::Mul => pf_relational::value::ArithOp::Mul,
                    BinOpKind::Div => pf_relational::value::ArithOp::Div,
                    BinOpKind::IDiv => pf_relational::value::ArithOp::IDiv,
                    BinOpKind::Mod => pf_relational::value::ArithOp::Mod,
                    _ => unreachable!(),
                };
                let mapped = self.b.add(AlgOp::BinaryMap {
                    input: joined,
                    target: "res".into(),
                    left: "item".into(),
                    op: BinaryOp::Arith(arith),
                    right: "item1".into(),
                });
                Ok(self.project(mapped, &[("iter", "iter"), ("pos", "pos"), ("res", "item")]))
            }
            op => {
                // General (existential) comparison, node identity and
                // document order.
                let cmp = comparison_operator(op).ok_or_else(|| {
                    XqError::compile(format!("unsupported binary operator {op:?}"))
                })?;
                let ql = self.compile_expr(left, scope)?;
                let qr = self.compile_expr(right, scope)?;
                self.existential_comparison(ql, qr, cmp, scope.loop_op)
            }
        }
    }

    /// `left θ right` with existential semantics over sequences, completed
    /// with `false` for iterations where either side is empty.
    ///
    /// **Pattern provenance:** the core
    /// `σ_res(⊙res:(item θ item1)(ql ⋈iter=iter1 qr))` emitted here is the
    /// `indexscan` rule's *Exact* shape: when one join side traces to a
    /// step chain and the other to a loop-lifted literal, the rule splices
    /// an `IndexScan` below the join and keeps this σ as the residual.
    /// Keep the operator sequence in sync with
    /// `pf-algebra/src/optimize/indexscan.rs`.
    fn existential_comparison(
        &mut self,
        ql: OpId,
        qr: OpId,
        cmp: CmpOp,
        loop_op: OpId,
    ) -> XqResult<OpId> {
        let l = self.project(ql, &[("iter", "iter"), ("item", "item")]);
        let r = self.project(qr, &[("iter", "iter1"), ("item", "item1")]);
        let joined = self.equi_join(l, r, "iter", "iter1");
        let mapped = self.b.add(AlgOp::BinaryMap {
            input: joined,
            target: "res".into(),
            left: "item".into(),
            op: BinaryOp::Cmp(cmp),
            right: "item1".into(),
        });
        let matching = self.b.add(AlgOp::Select {
            input: mapped,
            column: "res".into(),
        });
        let matched_iters_dup = self.project(matching, &[("iter", "iter")]);
        let matched_iters = self.b.add(AlgOp::Distinct {
            input: matched_iters_dup,
        });
        let trues = self.attach(matched_iters, "item", Value::Bool(true));
        let missing_iters = self.difference(loop_op, matched_iters);
        let falses = self.attach(missing_iters, "item", Value::Bool(false));
        let all = self.union(trues, falses);
        Ok(self.bool_to_seq(all))
    }

    fn compile_filter(&mut self, input: &Expr, pred: &Expr, scope: &Scope) -> XqResult<OpId> {
        let q = self.compile_expr(input, scope)?;
        // Positional predicate with a literal index: a plain selection on `pos`.
        if let Expr::IntLit(n) = pred {
            if *n >= 1 {
                let selected = self.b.add(AlgOp::SelectEq {
                    input: q,
                    column: "pos".into(),
                    value: Value::Nat(*n as u64),
                });
                return Ok(self.renumber_pos(selected));
            }
            return Ok(self.empty_seq());
        }
        // `[last()]`: keep the row whose pos equals the per-iteration count.
        if matches!(pred, Expr::FunCall { name, args } if name == "last" && args.is_empty()) {
            let counts = self.b.add(AlgOp::Aggregate {
                input: q,
                group: "iter".into(),
                target: "cnt".into(),
                func: AggFunc::Count,
                value: "item".into(),
            });
            let counts_renamed = self.project(counts, &[("iter", "iterc"), ("cnt", "cnt")]);
            let joined = self.equi_join(q, counts_renamed, "iter", "iterc");
            let flagged = self.b.add(AlgOp::BinaryMap {
                input: joined,
                target: "is_last".into(),
                left: "pos".into(),
                op: BinaryOp::Cmp(CmpOp::Eq),
                right: "cnt".into(),
            });
            let selected = self.b.add(AlgOp::Select {
                input: flagged,
                column: "is_last".into(),
            });
            let canonical = self.canonical(selected);
            return Ok(self.renumber_pos(canonical));
        }

        // General predicate: open a per-item scope (exactly like `for`),
        // bind the context item, position() and last(), evaluate the
        // predicate's effective boolean value and keep the matching rows.
        let numbered = self.row_number(
            q,
            "inner",
            vec![SortSpec::asc("iter"), SortSpec::asc("pos")],
            None,
        );
        let map = self.project(numbered, &[("inner", "inner"), ("iter", "outer")]);
        let inner_loop = self.project(numbered, &[("inner", "iter")]);
        let dot_pairs = self.project(numbered, &[("inner", "iter"), ("item", "item")]);
        let dot_pos = self.attach(dot_pairs, "pos", Value::Nat(1));
        let dot = self.canonical(dot_pos);
        let position_pairs = self.project(numbered, &[("inner", "iter"), ("pos", "item")]);
        let position_pos = self.attach(position_pairs, "pos", Value::Nat(1));
        let position = self.canonical(position_pos);
        let counts = self.b.add(AlgOp::Aggregate {
            input: q,
            group: "iter".into(),
            target: "cnt".into(),
            func: AggFunc::Count,
            value: "item".into(),
        });
        let counts_renamed = self.project(counts, &[("iter", "iterc"), ("cnt", "cnt")]);
        let with_counts = self.equi_join(numbered, counts_renamed, "iter", "iterc");
        let last_pairs = self.project(with_counts, &[("inner", "iter"), ("cnt", "item")]);
        let last_pos = self.attach(last_pairs, "pos", Value::Nat(1));
        let last = self.canonical(last_pos);

        let mut pred_scope = Scope::nested(inner_loop, scope);
        for (name, &op) in &scope.vars {
            pred_scope.vars.insert(name.clone(), self.lift_var(op, map));
        }
        pred_scope.vars.insert(".".into(), dot);
        pred_scope.vars.insert("fs:position".into(), position);
        pred_scope.vars.insert("fs:last".into(), last);

        let q_pred = self.compile_expr(pred, &pred_scope)?;
        let keep = if pred_scope.is_numeric(pred) {
            // A numeric predicate is positional: keep the iterations whose
            // value equals their position.
            let positions = self.project(position, &[("iter", "iterp"), ("item", "posp")]);
            let paired = self.equi_join(q_pred, positions, "iter", "iterp");
            let flagged = self.b.add(AlgOp::BinaryMap {
                input: paired,
                target: "at".into(),
                left: "item".into(),
                op: BinaryOp::Cmp(CmpOp::Eq),
                right: "posp".into(),
            });
            let hits = self.b.add(AlgOp::Select {
                input: flagged,
                column: "at".into(),
            });
            let iters = self.project(hits, &[("iter", "inner2")]);
            self.b.add(AlgOp::Distinct { input: iters })
        } else {
            let bools = self.ebv_bool(q_pred, inner_loop);
            let keep_rows = self.b.add(AlgOp::Select {
                input: bools,
                column: "item".into(),
            });
            self.project(keep_rows, &[("iter", "inner2")])
        };
        let surviving = self.equi_join(numbered, keep, "inner", "inner2");
        let canonical = self.canonical(surviving);
        Ok(self.renumber_pos(canonical))
    }

    fn compile_funcall(&mut self, name: &str, args: &[Expr], scope: &Scope) -> XqResult<OpId> {
        match name {
            "doc" => {
                let Some(Expr::StrLit(uri)) = args.first() else {
                    return Err(XqError::compile("fn:doc expects a string literal argument"));
                };
                let doc = self.b.add(AlgOp::Doc { uri: uri.clone() });
                let crossed = self.b.add(AlgOp::Cross {
                    left: scope.loop_op,
                    right: doc,
                });
                let with_pos = self.attach(crossed, "pos", Value::Nat(1));
                Ok(self.canonical(with_pos))
            }
            "root" => {
                let q = if args.is_empty() {
                    self.compile_expr(&Expr::ContextItem, scope)?
                } else {
                    self.compile_expr(&args[0], scope)?
                };
                Ok(self.b.add(AlgOp::FnRoot { input: q }))
            }
            "data" | "string" => {
                let q = self.compile_expr(&args[0], scope)?;
                Ok(self.b.add(AlgOp::FnData { input: q }))
            }
            "number" => {
                let q = self.compile_expr(&args[0], scope)?;
                let data = self.b.add(AlgOp::FnData { input: q });
                let mapped = self.b.add(AlgOp::UnaryMap {
                    input: data,
                    target: "res".into(),
                    op: UnaryOp::ToNumber,
                    source: "item".into(),
                });
                Ok(self.project(mapped, &[("iter", "iter"), ("pos", "pos"), ("res", "item")]))
            }
            "string-length" => {
                let q = self.compile_expr(&args[0], scope)?;
                let data = self.b.add(AlgOp::FnData { input: q });
                let mapped = self.b.add(AlgOp::UnaryMap {
                    input: data,
                    target: "res".into(),
                    op: UnaryOp::StrLen,
                    source: "item".into(),
                });
                Ok(self.project(mapped, &[("iter", "iter"), ("pos", "pos"), ("res", "item")]))
            }
            "count" | "sum" | "avg" | "min" | "max" => {
                let q = self.compile_expr(&args[0], scope)?;
                let (func, needs_data, default) = match name {
                    "count" => (AggFunc::Count, false, Some(Value::Int(0))),
                    "sum" => (AggFunc::Sum, true, Some(Value::Int(0))),
                    "avg" => (AggFunc::Avg, true, None),
                    "min" => (AggFunc::Min, true, None),
                    "max" => (AggFunc::Max, true, None),
                    _ => unreachable!(),
                };
                let input = if needs_data {
                    self.b.add(AlgOp::FnData { input: q })
                } else {
                    q
                };
                let agg = self.b.add(AlgOp::Aggregate {
                    input,
                    group: "iter".into(),
                    target: "res".into(),
                    func,
                    value: "item".into(),
                });
                Ok(self.complete_aggregate(agg, "res", scope.loop_op, default))
            }
            "empty" | "exists" => {
                let q = self.compile_expr(&args[0], scope)?;
                let present_dup = self.project(q, &[("iter", "iter")]);
                let present = self.b.add(AlgOp::Distinct { input: present_dup });
                let (present_value, missing_value) = if name == "empty" {
                    (Value::Bool(false), Value::Bool(true))
                } else {
                    (Value::Bool(true), Value::Bool(false))
                };
                let present_items = self.attach(present, "item", present_value);
                let missing_iters = self.difference(scope.loop_op, present);
                let missing_items = self.attach(missing_iters, "item", missing_value);
                let all = self.union(present_items, missing_items);
                Ok(self.bool_to_seq(all))
            }
            "not" | "boolean" => {
                let q = self.compile_expr(&args[0], scope)?;
                let bools = self.ebv_bool(q, scope.loop_op);
                if name == "boolean" {
                    return Ok(self.bool_to_seq(bools));
                }
                let mapped = self.b.add(AlgOp::UnaryMap {
                    input: bools,
                    target: "res".into(),
                    op: UnaryOp::Not,
                    source: "item".into(),
                });
                let pairs = self.project(mapped, &[("iter", "iter"), ("res", "item")]);
                Ok(self.bool_to_seq(pairs))
            }
            "position" => scope.vars.get("fs:position").copied().ok_or_else(|| {
                XqError::compile("fn:position() is only available inside a predicate")
            }),
            "last" => {
                scope.vars.get("fs:last").copied().ok_or_else(|| {
                    XqError::compile("fn:last() is only available inside a predicate")
                })
            }
            "distinct-values" => {
                let q = self.compile_expr(&args[0], scope)?;
                let data = self.b.add(AlgOp::FnData { input: q });
                let pairs = self.project(data, &[("iter", "iter"), ("item", "item")]);
                let distinct = self.b.add(AlgOp::Distinct { input: pairs });
                let numbered =
                    self.row_number(distinct, "pos", vec![SortSpec::asc("item")], Some("iter"));
                Ok(self.canonical(numbered))
            }
            "distinct-doc-order" => {
                let q = self.compile_expr(&args[0], scope)?;
                Ok(self.b.add(AlgOp::DocOrder { input: q }))
            }
            "contains" | "starts-with" => {
                let ql = self.compile_expr(&args[0], scope)?;
                let qr = self.compile_expr(&args[1], scope)?;
                let dl = self.b.add(AlgOp::FnData { input: ql });
                let dr = self.b.add(AlgOp::FnData { input: qr });
                let r = self.project(dr, &[("iter", "iter1"), ("item", "item1")]);
                let joined = self.equi_join(dl, r, "iter", "iter1");
                let op = if name == "contains" {
                    BinaryOp::Contains
                } else {
                    BinaryOp::StartsWith
                };
                let mapped = self.b.add(AlgOp::BinaryMap {
                    input: joined,
                    target: "res".into(),
                    left: "item".into(),
                    op,
                    right: "item1".into(),
                });
                Ok(self.project(mapped, &[("iter", "iter"), ("pos", "pos"), ("res", "item")]))
            }
            "concat" => {
                let mut acc = self.compile_expr(&args[0], scope)?;
                acc = self.b.add(AlgOp::FnData { input: acc });
                for (index, arg) in args.iter().enumerate().skip(1) {
                    let q = self.compile_expr(arg, scope)?;
                    let d = self.b.add(AlgOp::FnData { input: q });
                    let iter1 = format!("iter{index}");
                    let item1 = format!("item{index}");
                    let r = self.project(d, &[("iter", iter1.as_str()), ("item", item1.as_str())]);
                    let joined = self.equi_join(acc, r, "iter", &iter1);
                    let mapped = self.b.add(AlgOp::BinaryMap {
                        input: joined,
                        target: "res".into(),
                        left: "item".into(),
                        op: BinaryOp::Concat,
                        right: item1.clone(),
                    });
                    acc =
                        self.project(mapped, &[("iter", "iter"), ("pos", "pos"), ("res", "item")]);
                }
                Ok(acc)
            }
            other => Err(XqError::compile(format!(
                "function `fn:{other}` is not supported by the compiler"
            ))),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_for(
        &mut self,
        var: &str,
        pos_var: Option<&str>,
        seq: &Expr,
        where_clause: Option<&Expr>,
        order_by: &[OrderKey],
        body: &Expr,
        scope: &Scope,
    ) -> XqResult<OpId> {
        // --- join recognition --------------------------------------------
        if self.opts.join_recognition && pos_var.is_none() && order_by.is_empty() {
            if let Some(where_expr) = where_clause {
                if let Some(result) =
                    self.try_join_recognition(var, seq, where_expr, body, scope)?
                {
                    self.joins_recognized += 1;
                    return Ok(result);
                }
            }
        }

        // --- generic loop lifting ----------------------------------------
        let q_seq = self.compile_expr(seq, scope)?;
        let numbered = self.row_number(
            q_seq,
            "inner",
            vec![SortSpec::asc("iter"), SortSpec::asc("pos")],
            None,
        );
        let map = self.project(numbered, &[("inner", "inner"), ("iter", "outer")]);
        let inner_loop = self.project(numbered, &[("inner", "iter")]);
        let var_pairs = self.project(numbered, &[("inner", "iter"), ("item", "item")]);
        let var_pos = self.attach(var_pairs, "pos", Value::Nat(1));
        let var_table = self.canonical(var_pos);

        let mut body_scope = Scope::nested(inner_loop, scope);
        for (name, &op) in &scope.vars {
            body_scope.vars.insert(name.clone(), self.lift_var(op, map));
        }
        body_scope.bind(var, var_table, scope.items_numeric(seq));
        if let Some(pos_name) = pos_var {
            let pos_pairs = self.project(numbered, &[("inner", "iter"), ("pos", "item")]);
            let pos_pos = self.attach(pos_pairs, "pos", Value::Nat(1));
            let pos_table = self.canonical(pos_pos);
            body_scope.bind(pos_name, pos_table, true);
        }

        // `where` desugars to `if (…) then body else ()` inside the loop.
        let effective_body: Expr = match where_clause {
            Some(w) => Expr::If {
                cond: Box::new(w.clone()),
                then_branch: Box::new(body.clone()),
                else_branch: Box::new(Expr::EmptySeq),
            },
            None => body.clone(),
        };
        let q_body = self.compile_expr(&effective_body, &body_scope)?;

        // Back-mapping to the outer scope, optionally reordered by the
        // `order by` keys (evaluated once per inner iteration).
        let mut back = self.equi_join(q_body, map, "iter", "inner");
        let mut sort_keys: Vec<SortSpec> = Vec::new();
        for (index, key) in order_by.iter().enumerate() {
            let q_key = self.compile_expr(&key.expr, &body_scope)?;
            let data = self.b.add(AlgOp::FnData { input: q_key });
            let inner_name = format!("okey_inner{index}");
            let item_name = format!("okey{index}");
            let key_pairs = self.project(
                data,
                &[("iter", inner_name.as_str()), ("item", item_name.as_str())],
            );
            back = self.equi_join(back, key_pairs, "inner", &inner_name);
            sort_keys.push(if key.descending {
                SortSpec::desc(item_name)
            } else {
                SortSpec::asc(item_name)
            });
        }
        sort_keys.push(SortSpec::asc("iter"));
        sort_keys.push(SortSpec::asc("pos"));
        let renumbered = self.row_number(back, "pos1", sort_keys, Some("outer"));
        Ok(self.project(
            renumbered,
            &[("outer", "iter"), ("pos1", "pos"), ("item", "item")],
        ))
    }

    /// Attempt to compile `for $var in seq where <lhs θ rhs> return body` as
    /// a join between the key relation of `$var` and the key relation of the
    /// enclosing scope.  Returns `Ok(None)` when the pattern does not apply.
    fn try_join_recognition(
        &mut self,
        var: &str,
        seq: &Expr,
        where_expr: &Expr,
        body: &Expr,
        scope: &Scope,
    ) -> XqResult<Option<OpId>> {
        // The sequence must not depend on any enclosing variable.
        let seq_free = seq.free_vars();
        if seq_free.iter().any(|v| scope.vars.contains_key(v)) || seq_free.contains(var) {
            return Ok(None);
        }
        // The where clause must be a single comparison.
        let Expr::BinOp { op, left, right } = where_expr else {
            return Ok(None);
        };
        if !op.is_comparison() {
            return Ok(None);
        }
        let cmp = comparison_operator(*op).expect("comparison checked above");
        let left_free = left.free_vars();
        let right_free = right.free_vars();
        // Exactly one side must depend on `$var`; the other side must not.
        let (inner_expr, outer_expr, cmp) = if left_free.contains(var) && !right_free.contains(var)
        {
            // left is the inner key: pairs must satisfy inner θ outer,
            // i.e. outer θ⁻¹ inner when the outer side is the join's left input.
            (left.as_ref(), right.as_ref(), cmp.mirror())
        } else if right_free.contains(var) && !left_free.contains(var) {
            (right.as_ref(), left.as_ref(), cmp)
        } else {
            return Ok(None);
        };
        // The inner key must depend on nothing but `$var`.
        if inner_expr.free_vars().iter().any(|v| v != var) {
            return Ok(None);
        }
        // The outer key must be compilable in the enclosing scope (its free
        // variables are checked by normalization).

        // 1. Compile the independent sequence once, in a singleton scope.
        let single_loop = self.lit(vec!["iter"], vec![vec![Value::Nat(1)]]);
        let single_scope = Scope {
            loop_op: single_loop,
            vars: HashMap::new(),
            numeric: HashSet::new(),
        };
        let q_seq = self.compile_expr(seq, &single_scope)?;
        let keyed = self.row_number(
            q_seq,
            "aid",
            vec![SortSpec::asc("iter"), SortSpec::asc("pos")],
            None,
        );
        let items_by_aid = self.project(keyed, &[("aid", "aid2"), ("item", "item")]);

        // 2. Compile the inner key with $var bound per candidate binding.
        let aid_loop = self.project(keyed, &[("aid", "iter")]);
        let var_pairs = self.project(keyed, &[("aid", "iter"), ("item", "item")]);
        let var_pos = self.attach(var_pairs, "pos", Value::Nat(1));
        let var_single = self.canonical(var_pos);
        let mut key_scope = Scope {
            loop_op: aid_loop,
            vars: HashMap::new(),
            numeric: HashSet::new(),
        };
        key_scope.bind(var, var_single, single_scope.items_numeric(seq));
        let q_inner_key = self.compile_expr(inner_expr, &key_scope)?;
        let inner_key_data = self.b.add(AlgOp::FnData { input: q_inner_key });
        let inner_keys = self.project(inner_key_data, &[("iter", "aid1"), ("item", "item1")]);

        // 3. Compile the outer key in the enclosing scope.
        let q_outer_key = self.compile_expr(outer_expr, scope)?;
        let outer_key_data = self.b.add(AlgOp::FnData { input: q_outer_key });
        let outer_keys = self.project(outer_key_data, &[("iter", "outer"), ("item", "okey")]);

        // 4. Join the key relations: surviving (outer, aid) pairs are the
        //    iterations of the new scope.  Pattern provenance: when one
        //    side of this θ-join traces to a step chain and the other to
        //    a loop-lifted literal, the `indexscan` rule treats the join
        //    itself as the residual (its *Theta* shape) — see
        //    `pf-algebra/src/optimize/indexscan.rs`.
        let joined = if cmp == CmpOp::Eq {
            self.equi_join(outer_keys, inner_keys, "okey", "item1")
        } else {
            self.b.add(AlgOp::ThetaJoin {
                left: outer_keys,
                right: inner_keys,
                left_col: "okey".into(),
                op: BinaryOp::Cmp(cmp),
                right_col: "item1".into(),
            })
        };
        let pairs_dup = self.project(joined, &[("outer", "outer"), ("aid1", "aid")]);
        let pairs_distinct = self.b.add(AlgOp::Distinct { input: pairs_dup });
        let pairs = self.row_number(
            pairs_distinct,
            "inner",
            vec![SortSpec::asc("outer"), SortSpec::asc("aid")],
            None,
        );
        let inner_loop = self.project(pairs, &[("inner", "iter")]);
        let map = self.project(pairs, &[("inner", "inner"), ("outer", "outer")]);

        // 5. Bind $var in the new scope by fetching the matching items.
        let with_items = self.equi_join(pairs, items_by_aid, "aid", "aid2");
        let var_pairs2 = self.project(with_items, &[("inner", "iter"), ("item", "item")]);
        let var_pos2 = self.attach(var_pairs2, "pos", Value::Nat(1));
        let var_table = self.canonical(var_pos2);

        // 6. Lift the enclosing variables and compile the body.
        let mut body_scope = Scope::nested(inner_loop, scope);
        for (name, &op) in &scope.vars {
            body_scope.vars.insert(name.clone(), self.lift_var(op, map));
        }
        body_scope.bind(var, var_table, scope.items_numeric(seq));
        let q_body = self.compile_expr(body, &body_scope)?;

        // 7. Back-map to the enclosing scope.
        let back = self.equi_join(q_body, map, "iter", "inner");
        let renumbered = self.row_number(
            back,
            "pos1",
            vec![SortSpec::asc("iter"), SortSpec::asc("pos")],
            Some("outer"),
        );
        Ok(Some(self.project(
            renumbered,
            &[("outer", "iter"), ("pos1", "pos"), ("item", "item")],
        )))
    }
}

/// Map AST comparison operators onto the engine's comparison operators.
fn comparison_operator(op: BinOpKind) -> Option<CmpOp> {
    Some(match op {
        BinOpKind::Eq | BinOpKind::Is => CmpOp::Eq,
        BinOpKind::Ne => CmpOp::Ne,
        BinOpKind::Lt | BinOpKind::Before => CmpOp::Lt,
        BinOpKind::Le => CmpOp::Le,
        BinOpKind::Gt | BinOpKind::After => CmpOp::Gt,
        BinOpKind::Ge => CmpOp::Ge,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::parser::parse_query;

    fn compile_str(query: &str) -> Compiled {
        let ast = parse_query(query).unwrap();
        let core = normalize(&ast).unwrap();
        compile(&core, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn compiles_figure5_query() {
        // The query of Figure 5 of the paper.
        let compiled = compile_str("for $v in (10,20) return $v + 100");
        let hist = compiled.plan.operator_histogram();
        let count = |name: &str| {
            hist.iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert!(
            count("rownum") >= 2,
            "numbering for the new scope and the back-mapping"
        );
        assert!(
            count("equi-join") >= 1,
            "loop-lifted addition joins on iter"
        );
        assert!(count("project") >= 3);
    }

    #[test]
    fn compiles_nested_flwor_of_figure3() {
        let compiled = compile_str("for $v in (10,20), $w in (100,200) return $v + $w");
        assert!(compiled.plan.operator_count() > 15);
        assert_eq!(compiled.joins_recognized, 0);
    }

    #[test]
    fn join_recognition_fires_on_value_join() {
        let q = "for $p in doc(\"site.xml\")//person \
                 return count(for $t in doc(\"site.xml\")//closed_auction \
                              where $t/buyer/@person = $p/@id return $t)";
        let compiled = compile_str(q);
        assert_eq!(compiled.joins_recognized, 1);
        let hist = compiled.plan.operator_histogram();
        let thetas = hist
            .iter()
            .find(|(n, _)| n == "theta-join")
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert_eq!(thetas, 0, "an equality predicate must become an equi-join");
    }

    #[test]
    fn join_recognition_uses_theta_join_for_inequalities() {
        let q = "for $p in doc(\"site.xml\")//person \
                 return count(for $i in doc(\"site.xml\")//initial \
                              where $p/profile/@income > $i return $i)";
        let compiled = compile_str(q);
        assert_eq!(compiled.joins_recognized, 1);
        let hist = compiled.plan.operator_histogram();
        let thetas = hist
            .iter()
            .find(|(n, _)| n == "theta-join")
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert_eq!(thetas, 1);
    }

    #[test]
    fn join_recognition_can_be_disabled() {
        let q = "for $p in doc(\"site.xml\")//person \
                 return count(for $t in doc(\"site.xml\")//closed_auction \
                              where $t/buyer/@person = $p/@id return $t)";
        let ast = parse_query(q).unwrap();
        let core = normalize(&ast).unwrap();
        let compiled = compile(
            &core,
            &CompileOptions {
                join_recognition: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(compiled.joins_recognized, 0);
    }

    #[test]
    fn join_recognition_requires_independent_sequence() {
        // The inner sequence depends on $p, so the rewrite must not fire.
        let q = "for $p in doc(\"site.xml\")//person \
                 return count(for $t in $p//watch where $t/@open = $p/@id return $t)";
        let compiled = compile_str(q);
        assert_eq!(compiled.joins_recognized, 0);
    }

    #[test]
    fn doc_order_operators_are_inserted_and_optimizable() {
        let compiled = compile_str("doc(\"a.xml\")//person/name");
        let hist = compiled.plan.operator_histogram();
        let ddo = hist
            .iter()
            .find(|(n, _)| n == "ddo")
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert_eq!(ddo, 2, "one ddo per location step");
        let mut plan = compiled.plan.clone();
        let report = pf_algebra::optimize(&mut plan);
        assert_eq!(report.doc_orders_removed, 2);
    }

    #[test]
    fn unsupported_constructs_are_reported() {
        let ast = parse_query("doc($x)").unwrap();
        // $x unbound: bypass normalize and compile directly to reach the
        // compiler's own error path.
        let err = compile(&ast, &CompileOptions::default()).unwrap_err();
        assert!(err.message.contains("string literal") || err.message.contains("unbound"));
    }

    #[test]
    fn plan_sizes_grow_with_query_complexity() {
        let simple = compile_str("1 + 2");
        let path = compile_str("doc(\"a.xml\")//site/people/person/name");
        let join = compile_str(
            "for $p in doc(\"a.xml\")//person return element item { \
               count(for $t in doc(\"a.xml\")//closed_auction where $t/buyer/@person = $p/@id return $t) }",
        );
        assert!(simple.plan.operator_count() < path.plan.operator_count());
        assert!(path.plan.operator_count() < join.plan.operator_count());
        // The paper reports ~120 operators for the (larger) XMark Q8 before
        // optimization; this reduced Q8 core already needs dozens.
        assert!(join.plan.operator_count() > 40);
    }

    #[test]
    fn filters_compile_with_position_and_last() {
        let compiled = compile_str("doc(\"a.xml\")//item[2]");
        assert!(compiled.plan.operator_count() > 3);
        let compiled = compile_str("doc(\"a.xml\")//item[last()]");
        assert!(compiled.plan.operator_count() > 5);
        let compiled = compile_str("doc(\"a.xml\")//person[@id = \"p0\"]");
        assert!(compiled.plan.operator_count() > 10);
        let compiled = compile_str("doc(\"a.xml\")//item[position() = 2]");
        assert!(compiled.plan.operator_count() > 10);
    }
}
