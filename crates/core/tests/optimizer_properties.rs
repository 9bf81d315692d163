#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Property tests for the fusion optimizer:
//!
//! * memo-table invariants after exploration (references point to groups
//!   with compatible open plans; no closed entries without references),
//! * `MPSkipEnum` with pruning finds the same optimum as exhaustive
//!   enumeration on randomly generated DAGs,
//! * selected operator plans are well-formed (covered sets are connected
//!   along fusion references; entries match HOP arities),
//! * code generation is deterministic and the structural hash is stable.

use fusedml_core::codegen::{compile_spec, CodegenOptions};
use fusedml_core::explore::explore;
use fusedml_core::opt::cost::PlanCoster;
use fusedml_core::opt::{
    cost, mpskip_enum, partitions, select_plans, CostModel, EnumConfig, SelectionPolicy,
};
use fusedml_hop::{DagBuilder, HopDag, HopId};
use proptest::prelude::*;

/// A small random DAG generator: layered cell-wise ops, aggregates, and
/// occasional matrix-vector products with shared intermediates.
#[derive(Debug, Clone)]
struct RandomDag {
    ops: Vec<(u8, u8, u8)>, // (op selector, input a selector, input b selector)
    rows: usize,
    cols: usize,
}

fn dag_strategy() -> impl Strategy<Value = RandomDag> {
    (proptest::collection::vec((0u8..8, 0u8..16, 0u8..16), 2..12), 100usize..2000, 10usize..100)
        .prop_map(|(ops, rows, cols)| RandomDag { ops, rows, cols })
}

fn build(spec: &RandomDag) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", spec.rows, spec.cols, 1.0);
    let y = b.read("Y", spec.rows, spec.cols, 0.1);
    let mut pool: Vec<HopId> = vec![x, y];
    for &(op, ia, ib) in &spec.ops {
        let a = pool[ia as usize % pool.len()];
        let bb = pool[ib as usize % pool.len()];
        // Only matrix-shaped nodes participate (aggregates end chains).
        let node = match op {
            0 => b.mult(a, bb),
            1 => b.add(a, bb),
            2 => b.sub(a, bb),
            3 => b.abs(a),
            4 => b.sq(a),
            5 => {
                let c = b.lit(0.5);
                b.mult(a, c)
            }
            6 => b.exp(a),
            _ => b.min(a, bb),
        };
        pool.push(node);
    }
    // Close with aggregates over the last few nodes (multiple roots create
    // materialization points).
    let mut roots = Vec::new();
    let tail: Vec<HopId> = pool.iter().rev().take(3).copied().collect();
    for t in tail {
        roots.push(b.sum(t));
    }
    b.build(roots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Memo invariants: every fused reference points to a group containing
    /// at least one open plan merge-compatible with the referencing entry.
    #[test]
    fn memo_references_are_compatible(spec in dag_strategy()) {
        let dag = build(&spec);
        let memo = explore(&dag);
        for g in memo.group_ids() {
            for e in memo.entries(g) {
                prop_assert_eq!(e.inputs.len(), dag.hop(g).inputs.len(), "arity");
                for r in e.refs() {
                    prop_assert!(
                        memo.entries(r).iter().any(|se| !se.closed && e.ttype.merge_compatible(se.ttype)),
                        "ref {} from {} ({:?}) lacks a compatible open plan",
                        r, g, e.ttype
                    );
                }
                // Closed single-op plans must have been pruned.
                prop_assert!(!(e.closed && e.ref_count() == 0));
            }
        }
    }

    /// Pruned enumeration (lower bounds, seeded upper bounds, the exact
    /// skip rule, cut-set decomposition) returns exhaustive search's
    /// optimum: the same cost and the same assignment, the first optimal
    /// plan in enumeration order.
    #[test]
    fn mpskipenum_preserves_optimality(spec in dag_strategy()) {
        let dag = build(&spec);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let compute = cost::compute_costs(&dag);
        let model = CostModel::default();
        for part in &parts {
            if part.interesting.len() > 14 {
                continue; // keep exhaustive search tractable
            }
            let full = mpskip_enum(
                &dag, &memo, part, &compute, &model,
                &EnumConfig { cost_prune: false, structural_prune: false, max_eval: u64::MAX },
            );
            let pruned = mpskip_enum(&dag, &memo, part, &compute, &model, &EnumConfig::default());
            prop_assert_eq!(pruned.capped, 0);
            prop_assert!(
                (full.cost - pruned.cost).abs() <= 1e-9 * full.cost.max(1.0),
                "optimum lost: exhaustive {} vs pruned {} ({} points)",
                full.cost, pruned.cost, part.interesting.len()
            );
            prop_assert_eq!(&pruned.assignment, &full.assignment, "{} points", part.interesting.len());
            // Structural decomposition may cost a handful of extra plans on
            // tiny spaces (sub-problem enumerations are counted too); it must
            // never blow past the exhaustive count asymptotically.
            prop_assert!(pruned.evaluated <= 2 * full.evaluated + 4);
        }
    }

    /// The exact skip rule's premise: materializing points the costing of
    /// an assignment never touched leaves its cost unchanged.
    #[test]
    fn untouched_points_leave_cost_unchanged(spec in dag_strategy(), bits in 0u64..u64::MAX) {
        let dag = build(&spec);
        let memo = explore(&dag);
        let compute = cost::compute_costs(&dag);
        let model = CostModel::default();
        for part in partitions(&dag, &memo).iter().filter(|p| p.interesting.len() < 63) {
            let all = (1u64 << part.interesting.len()) - 1;
            let mut coster = PlanCoster::new(&dag, &memo, part, &compute, &model);
            let q = bits & all;
            let c = coster.cost(q, f64::INFINITY);
            let free = all & !q & !coster.touched();
            for extra in [free, free & bits.rotate_left(17), free & !bits.rotate_left(17)] {
                prop_assert_eq!(coster.cost(q | extra, f64::INFINITY).to_bits(), c.to_bits());
            }
        }
    }

    /// Selected plans are well-formed: the covered set is closed under the
    /// entries' fused references, and contains the root.
    #[test]
    fn selected_plans_are_wellformed(spec in dag_strategy()) {
        let dag = build(&spec);
        let memo = explore(&dag);
        for policy in [
            SelectionPolicy::CostBased(EnumConfig::default()),
            SelectionPolicy::FuseAll,
            SelectionPolicy::FuseNoRedundancy,
        ] {
            let sel = select_plans(&dag, &memo, policy, &CostModel::default());
            for op in &sel.operators {
                let covered = op.covered();
                prop_assert!(covered.contains(&op.root));
                for (&h, e) in &op.entries {
                    for (j, &input) in dag.hop(h).inputs.iter().enumerate() {
                        if e.inputs[j].is_fused() {
                            prop_assert!(
                                covered.contains(&input),
                                "fused ref {}→{} leaves the covered set", h, input
                            );
                        }
                    }
                }
            }
        }
    }

    /// Codegen determinism: compiling the same CPlan twice yields identical
    /// specs, and the structural hash is invariant.
    #[test]
    fn codegen_is_deterministic(spec in dag_strategy()) {
        let dag = build(&spec);
        let memo = explore(&dag);
        let sel = select_plans(
            &dag,
            &memo,
            SelectionPolicy::CostBased(EnumConfig::default()),
            &CostModel::default(),
        );
        let opts = CodegenOptions::default();
        for op in &sel.operators {
            if let Ok(cp) = fusedml_core::cplan::construct(&dag, op) {
                let s1 = compile_spec(&cp, &opts);
                let s2 = compile_spec(&cp, &opts);
                prop_assert_eq!(&s1, &s2);
                prop_assert_eq!(cp.structural_hash(), cp.clone().structural_hash());
            }
        }
    }
}
