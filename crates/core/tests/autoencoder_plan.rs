#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Regression test for `MPSkipEnum` on the AutoEncoder: the 4-layer batch
//! DAG at training geometry (batch 512 × 100 features, h1 64, h2 2) has the
//! largest partition of every algorithm (20 interesting points). Selection
//! must prove the optimum within the evaluation cap, not return the best
//! plan found when the cap stops the search.

use fusedml_core::explore::explore;
use fusedml_core::memo::MemoTable;
use fusedml_core::opt::cost::{self, assignment_mask, PlanCoster};
use fusedml_core::opt::{
    heuristics, mpskip_enum, partitions, select_plans, CostModel, EnumConfig, PlanPartition,
    SelectionPolicy,
};
use fusedml_hop::{DagBuilder, HopDag};
use fusedml_linalg::ops::UnaryOp;

/// The AutoEncoder's per-batch forward+backward DAG, shape for shape as the
/// algorithm driver builds it (outputs: loss, dW1..dW4).
fn autoencoder_dag(bsz: usize, m: usize, h1: usize, h2: usize) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("Xb", bsz, m, 1.0);
    let w1 = b.read("W1", m, h1, 1.0);
    let w2 = b.read("W2", h1, h2, 1.0);
    let w3 = b.read("W3", h2, h1, 1.0);
    let w4 = b.read("W4", h1, m, 1.0);
    let a1 = b.mm(x, w1);
    let z1 = b.sigmoid(a1);
    let a2 = b.mm(z1, w2);
    let z2 = b.sigmoid(a2);
    let a3 = b.mm(z2, w3);
    let z3 = b.sigmoid(a3);
    let xhat = b.mm(z3, w4);
    let diff = b.sub(xhat, x);
    let sq = b.sq(diff);
    let se = b.sum(sq);
    let scale = b.lit(0.5 / bsz as f64);
    let loss = b.mult(scale, se);
    let dscale = b.lit(1.0 / bsz as f64);
    let dxhat = b.mult(diff, dscale);
    let z3t = b.t(z3);
    let dw4 = b.mm(z3t, dxhat);
    let w4t = b.t(w4);
    let dz3 = b.mm(dxhat, w4t);
    let s3 = b.unary(UnaryOp::Sprop, z3);
    let da3 = b.mult(dz3, s3);
    let z2t = b.t(z2);
    let dw3 = b.mm(z2t, da3);
    let w3t = b.t(w3);
    let dz2 = b.mm(da3, w3t);
    let s2 = b.unary(UnaryOp::Sprop, z2);
    let da2 = b.mult(dz2, s2);
    let z1t = b.t(z1);
    let dw2 = b.mm(z1t, da2);
    let w2t = b.t(w2);
    let dz1 = b.mm(da2, w2t);
    let s1 = b.unary(UnaryOp::Sprop, z1);
    let da1 = b.mult(dz1, s1);
    let xt = b.t(x);
    let dw1 = b.mm(xt, da1);
    b.build(vec![loss, dw1, dw2, dw3, dw4])
}

/// The memo table cost-based selection enumerates over, and its largest
/// partition.
fn setup(dag: &HopDag) -> (MemoTable, PlanPartition) {
    let mut memo = explore(dag);
    memo.prune_useless_row_plans(dag);
    let part = partitions(dag, &memo)
        .into_iter()
        .max_by_key(|p| p.interesting.len())
        .expect("the AutoEncoder DAG has fusion partitions");
    (memo, part)
}

/// The exhaustive optimum of the 20-point partition under the default
/// `CostModel`: the first optimal plan in enumeration order and its cost.
/// Exhaustive search costs all 2^20 plans, too slow for a debug test run;
/// these were computed by `mpskip_enum` with `EnumConfig { cost_prune:
/// false, structural_prune: false, max_eval: u64::MAX }` in a release build.
const OPTIMUM: &str = "10101100010111001110";
const OPTIMUM_COST: f64 = 8.942_464_5e-3;

#[test]
fn autoencoder_selection_proves_the_exhaustive_optimum() {
    let dag = autoencoder_dag(512, 100, 64, 2);
    let (memo, part) = setup(&dag);
    assert_eq!(part.interesting.len(), 20, "the partition the cap used to truncate");
    let compute = cost::compute_costs(&dag);
    let model = CostModel::default();

    let r = mpskip_enum(&dag, &memo, &part, &compute, &model, &EnumConfig::default());
    assert_eq!(r.capped, 0, "the search must finish within the cap");
    let q: String = r.assignment.iter().map(|&on| if on { '1' } else { '0' }).collect();
    assert_eq!(q, OPTIMUM, "first optimal assignment in enumeration order");
    assert!(
        (r.cost - OPTIMUM_COST).abs() <= 1e-9 * OPTIMUM_COST,
        "cost {} vs exhaustive optimum {OPTIMUM_COST}",
        r.cost
    );
    // Far fewer plans than the 2^20 exhaustive search costs.
    assert!(r.evaluated < 1 << 17, "{} plans costed", r.evaluated);

    // Never worse than the plans that seed the upper bound.
    let mut coster = PlanCoster::new(&dag, &memo, &part, &compute, &model);
    let fnr = assignment_mask(&heuristics::fuse_no_redundancy(&dag, &part));
    let all = assignment_mask(&vec![true; part.interesting.len()]);
    for (name, seed) in [("fuse-no-redundancy", fnr), ("all-materialized", all)] {
        let c = coster.cost(seed, f64::INFINITY);
        assert!(r.cost <= c, "optimum {} above {name} {c}", r.cost);
    }
    assert_eq!(coster.cost(assignment_mask(&r.assignment), f64::INFINITY), r.cost);

    // Selection over the whole DAG reports no capped partition.
    let sel = select_plans(
        &dag,
        &explore(&dag),
        SelectionPolicy::CostBased(EnumConfig::default()),
        &model,
    );
    assert_eq!(sel.capped, 0);
}

/// A cap below what the proof needs is reported, and still yields a plan.
#[test]
fn cap_hits_are_reported() {
    let dag = autoencoder_dag(512, 100, 64, 2);
    let (memo, part) = setup(&dag);
    let compute = cost::compute_costs(&dag);
    let cfg = EnumConfig { max_eval: 1_000, ..EnumConfig::default() };
    let r = mpskip_enum(&dag, &memo, &part, &compute, &CostModel::default(), &cfg);
    assert_eq!(r.capped, 1);
    assert!(r.evaluated <= 1_000);
    assert!(r.cost.is_finite() && r.cost >= OPTIMUM_COST * (1.0 - 1e-9));
    let sel =
        select_plans(&dag, &explore(&dag), SelectionPolicy::CostBased(cfg), &CostModel::default());
    assert_eq!(sel.capped, 1);
}
