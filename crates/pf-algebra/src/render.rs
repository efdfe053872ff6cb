//! Plan rendering — the demonstration's "graphical output of relational
//! query plans at different compilation stages" (Section 4, Figure 5).
//!
//! Two renderers are provided: Graphviz DOT (for graphical output) and an
//! indented ASCII tree with sharing markers (for terminal use and tests),
//! optionally annotated with each operator's properties and the physical
//! node that runs it (`EXPLAIN`).

use std::collections::HashMap;

use crate::physical::{PhysKind, PhysicalPlan};
use crate::plan::{OpId, Plan};
use crate::properties::PlanProperties;

/// Render `plan` as a Graphviz DOT digraph.
pub fn to_dot(plan: &Plan) -> String {
    let mut out = String::from("digraph plan {\n  node [shape=box, fontname=\"monospace\"];\n");
    let reachable = plan.reachable();
    for &id in &reachable {
        let label = plan.op(id).symbol().replace('"', "\\\"");
        let shape_extra = if id == plan.root() {
            ", style=bold"
        } else {
            ""
        };
        out.push_str(&format!("  n{id} [label=\"{label}\"{shape_extra}];\n"));
    }
    for &id in &reachable {
        for child in plan.op(id).children() {
            out.push_str(&format!("  n{id} -> n{child};\n"));
        }
    }
    out.push_str("}\n");
    out
}

/// Render `plan` as an indented ASCII tree rooted at the plan root.
///
/// Nodes referenced more than once (shared subexpressions) are expanded only
/// the first time; further references print `*see #id`.
pub fn to_ascii(plan: &Plan) -> String {
    let mut reference_count: HashMap<OpId, usize> = HashMap::new();
    for id in plan.reachable() {
        for child in plan.op(id).children() {
            *reference_count.entry(child).or_default() += 1;
        }
    }
    let mut out = String::new();
    let mut printed: HashMap<OpId, ()> = HashMap::new();
    render_node(
        plan,
        plan.root(),
        0,
        &reference_count,
        &mut printed,
        &mut out,
    );
    out
}

/// Render `plan` as an indented ASCII tree with each operator annotated
/// by its statically inferred properties (schema, keys, constants,
/// estimated rows) from [`PlanProperties`].
///
/// This is the dump the plan verifier embeds in its error messages, so
/// a rejected rewrite is debuggable without re-running the analysis by
/// hand.  The plan must be well-formed (the property pass assumes
/// resolvable children); for structurally broken plans use
/// [`to_ascii`].
pub fn to_ascii_annotated(plan: &Plan) -> String {
    let props = PlanProperties::analyze(plan);
    render_annotated(plan, &|id| Some(annotate(&props, id)))
}

/// [`to_ascii_annotated`] with each operator also tagged by the node of
/// `physical` (compiled from `plan`) that runs it: `pipe#k` for the fused
/// kernel's pipeline `k`, `brk#k` for breaker `k` — the `EXPLAIN` dump.
pub fn to_ascii_physical(plan: &Plan, physical: &PhysicalPlan) -> String {
    let props = PlanProperties::analyze(plan);
    let mut tags: Vec<Option<String>> = vec![None; plan.ops().len()];
    for (k, node) in physical.nodes().iter().enumerate() {
        match &node.kind {
            PhysKind::Breaker => tags[node.output] = Some(format!("brk#{k}")),
            PhysKind::Pipeline { ops } => {
                for &op in ops {
                    tags[op] = Some(format!("pipe#{k}"));
                }
            }
        }
    }
    render_annotated(plan, &|id| {
        let tag = tags[id].as_deref().unwrap_or("-");
        Some(format!(" {tag}{}", annotate(&props, id)))
    })
}

/// The indented tree with `annotation` after each operator.
fn render_annotated(plan: &Plan, annotation: &dyn Fn(OpId) -> Option<String>) -> String {
    let mut reference_count: HashMap<OpId, usize> = HashMap::new();
    for id in plan.reachable() {
        for child in plan.op(id).children() {
            *reference_count.entry(child).or_default() += 1;
        }
    }
    let mut out = String::new();
    let mut printed: HashMap<OpId, ()> = HashMap::new();
    render_node_with(
        plan,
        plan.root(),
        0,
        &reference_count,
        &mut printed,
        &mut out,
        annotation,
    );
    out
}

/// One operator's property annotation:
/// `{cols=[iter,pos] keys={pos} const=[iter=Nat(1)] rows≈12}`.
fn annotate(props: &PlanProperties, id: OpId) -> String {
    let cols = props.columns(id).join(",");
    let keys = props
        .keys(id)
        .iter()
        .map(|k| format!("{{{}}}", k.iter().cloned().collect::<Vec<_>>().join(",")))
        .collect::<Vec<_>>()
        .join("");
    let consts = props
        .constants(id)
        .iter()
        .map(|(c, v)| match v {
            Some(v) => format!("{c}={v:?}"),
            None => c.clone(),
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        " {{cols=[{cols}] keys=[{keys}] const=[{consts}] rows≈{:.0}}}",
        props.rows(id)
    )
}

fn render_node(
    plan: &Plan,
    id: OpId,
    depth: usize,
    refs: &HashMap<OpId, usize>,
    printed: &mut HashMap<OpId, ()>,
    out: &mut String,
) {
    render_node_with(plan, id, depth, refs, printed, out, &|_| None);
}

fn render_node_with(
    plan: &Plan,
    id: OpId,
    depth: usize,
    refs: &HashMap<OpId, usize>,
    printed: &mut HashMap<OpId, ()>,
    out: &mut String,
    annotation: &dyn Fn(OpId) -> Option<String>,
) {
    let indent = "  ".repeat(depth);
    let shared = refs.get(&id).copied().unwrap_or(0) > 1;
    if printed.contains_key(&id) && shared {
        out.push_str(&format!("{indent}*see #{id}\n"));
        return;
    }
    let marker = if shared {
        format!(" [#{id}]")
    } else {
        String::new()
    };
    let props = annotation(id).unwrap_or_default();
    out.push_str(&format!(
        "{indent}{}{marker}{props}\n",
        plan.op(id).symbol()
    ));
    printed.insert(id, ());
    for child in plan.op(id).children() {
        render_node_with(plan, child, depth + 1, refs, printed, out, annotation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AlgOp;
    use crate::plan::PlanBuilder;
    use pf_relational::Value;

    fn shared_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Int(10)]],
        });
        let p1 = b.add(AlgOp::Project {
            input: lit,
            columns: vec![("iter".into(), "iter".into())],
        });
        let p2 = b.add(AlgOp::Project {
            input: lit,
            columns: vec![("iter".into(), "iter1".into())],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: p1,
            right: p2,
            left_col: "iter".into(),
            right_col: "iter1".into(),
        });
        b.finish(join)
    }

    #[test]
    fn dot_output_contains_all_reachable_nodes_and_edges() {
        let plan = shared_plan();
        let dot = to_dot(&plan);
        assert!(dot.starts_with("digraph plan {"));
        assert_eq!(dot.matches("label=").count(), 4);
        assert_eq!(dot.matches("->").count(), 4);
        assert!(dot.contains("⋈"));
    }

    #[test]
    fn ascii_output_marks_shared_nodes() {
        let plan = shared_plan();
        let ascii = to_ascii(&plan);
        assert!(ascii.contains("⋈[iter=iter1]"));
        assert!(
            ascii.contains("*see #0"),
            "shared literal should be referenced: {ascii}"
        );
    }

    #[test]
    fn ascii_indentation_reflects_depth() {
        let plan = shared_plan();
        let ascii = to_ascii(&plan);
        let lines: Vec<&str> = ascii.lines().collect();
        assert!(lines[0].starts_with('⋈'));
        assert!(lines[1].starts_with("  π"));
    }

    #[test]
    fn annotated_ascii_carries_schema_keys_and_constants() {
        let plan = shared_plan();
        let ascii = to_ascii_annotated(&plan);
        let lines: Vec<&str> = ascii.lines().collect();
        // The join root: concatenated schema, a key (both sides are
        // single-row literals), and the constant join columns.
        assert!(lines[0].contains("cols=[iter,iter1]"), "{ascii}");
        assert!(lines[0].contains("keys=["), "{ascii}");
        assert!(lines[0].contains("iter=Nat(1)"), "{ascii}");
        assert!(lines[0].contains("rows≈1"), "{ascii}");
        // Sharing markers survive annotation.
        assert!(ascii.contains("*see #0"), "{ascii}");
    }

    #[test]
    fn physical_dump_tags_every_operator_with_its_node() {
        let plan = shared_plan();
        let physical = PhysicalPlan::compile(&plan);
        let ascii = to_ascii_physical(&plan, &physical);
        let lines: Vec<&str> = ascii.lines().collect();
        // Nodes in topological order: the literal, the two projections
        // (one-step pipelines: the literal's result is shared), the join.
        assert!(
            lines[0].starts_with("⋈[iter=iter1] brk#3 {cols="),
            "{ascii}"
        );
        assert!(lines[1].starts_with("  π[iter] pipe#2 {"), "{ascii}");
        assert!(lines[2].contains("[#0] brk#0 {"), "{ascii}");
        assert!(lines[3].starts_with("  π[iter1:iter] pipe#1 {"), "{ascii}");
        assert!(ascii.contains("rows≈1"), "{ascii}");
    }
}
