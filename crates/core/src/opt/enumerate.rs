//! `MPSkipEnum` — materialization-point skip enumeration (paper §4.4,
//! Algorithm 2, Figure 7).
//!
//! The exponential space of 2^|M′| materialization assignments is
//! linearized from negative to positive (fuse-all first), scanned with
//! cost-based skip-ahead over subtrees whose lower bound exceeds the best
//! known plan, and decomposed into independent sub-problems at valid cut
//! sets of the reachability graph (structural pruning). With cost-based
//! pruning on, two more exact rules apply (DESIGN.md §4 X12):
//! the upper bound is seeded with the fuse-no-redundancy and
//! all-materialized plans, and a subtree is skipped whole when its free
//! points cannot change any memo-entry pick of the plan just costed.

use crate::memo::MemoTable;
use crate::opt::cost::{assignment_mask, CostModel, PlanCoster};
use crate::opt::heuristics;
use crate::opt::partition::PlanPartition;
use crate::util::FxHashSet;
use fusedml_hop::{HopDag, HopId};

/// Enumeration configuration (the Figure 12 ablation switches).
#[derive(Clone, Copy, Debug)]
pub struct EnumConfig {
    /// Cost-based pruning: lower bounds, seeded upper bounds, and the exact
    /// skip rule.
    pub cost_prune: bool,
    /// Structural pruning via cut sets of the reachability graph.
    pub structural_prune: bool,
    /// Safety cap on costed plans (enumeration returns the best plan found
    /// so far once exceeded and reports the partition as capped;
    /// `u64::MAX` disables).
    pub max_eval: u64,
}

impl Default for EnumConfig {
    fn default() -> Self {
        // The cap only bounds worst-case optimization time on pathological
        // DAGs (SystemML similarly bounds its search space and falls back to
        // the best plan found). No DAG of the algorithms, the fig8 patterns
        // or the benchmark corpus comes near it: the 20-point AutoEncoder
        // partition, the largest, proves its optimum in ~81k of its 2^20
        // plans.
        EnumConfig { cost_prune: true, structural_prune: true, max_eval: 1 << 20 }
    }
}

/// Result of one partition enumeration.
#[derive(Clone, Debug)]
pub struct EnumResult {
    /// Best assignment over the partition's interesting points (in
    /// `part.interesting` order).
    pub assignment: Vec<bool>,
    /// Cost of the best plan.
    pub cost: f64,
    /// Number of plans actually costed.
    pub evaluated: u64,
    /// Size of the full search space (2^|M′|).
    pub search_space: f64,
    /// 1 if `max_eval` cut the search short (the plan may then be
    /// suboptimal), else 0.
    pub capped: u64,
}

/// Enumerates the optimal assignment for one partition.
pub fn mpskip_enum(
    dag: &HopDag,
    memo: &MemoTable,
    part: &PlanPartition,
    compute: &[f64],
    model: &CostModel,
    cfg: &EnumConfig,
) -> EnumResult {
    let mut coster = PlanCoster::new(dag, memo, part, compute, model);
    enumerate_partition(dag, part, &mut coster, cfg)
}

/// [`mpskip_enum`] over an already built costing kernel.
pub(crate) fn enumerate_partition(
    dag: &HopDag,
    part: &PlanPartition,
    coster: &mut PlanCoster<'_>,
    cfg: &EnumConfig,
) -> EnumResult {
    let n = part.interesting.len();
    // Order: cut-set points first (structural pruning), then the rest.
    let (order, cutset) =
        if cfg.structural_prune { plan_order(dag, part) } else { ((0..n).collect(), None) };
    let seeds = if cfg.cost_prune && n > 0 {
        vec![
            assignment_mask(&heuristics::fuse_no_redundancy(dag, part)),
            assignment_mask(&vec![true; n]),
        ]
    } else {
        Vec::new()
    };
    let mut state = EnumState { coster, cfg, seeds, evaluated: 0, capped: false };
    let (q, cost) = state.enumerate(&order, cutset.as_ref(), 0);
    EnumResult {
        assignment: (0..n).map(|i| i < 64 && q >> i & 1 == 1).collect(),
        cost,
        evaluated: state.evaluated,
        search_space: 2f64.powi(n as i32),
        capped: u64::from(state.capped),
    }
}

/// A cut set over point indices (into `part.interesting`) with its
/// sub-problems.
#[derive(Clone, Debug)]
struct CutSet {
    /// Positions (in the enumeration `order`) forming the cut set — always a
    /// prefix of the order by construction.
    len: usize,
    /// Sub-problem point positions (in `order`, relative to the suffix).
    s1: Vec<usize>,
    s2: Vec<usize>,
}

struct EnumState<'c, 'a> {
    coster: &'c mut PlanCoster<'a>,
    cfg: &'c EnumConfig,
    /// Partition-wide assignments that seed the upper bound.
    seeds: Vec<u64>,
    evaluated: u64,
    capped: bool,
}

/// A costed plan at scan position `j`.
#[derive(Clone, Copy, Debug)]
struct Costed {
    j: u64,
    q: u64,
    cost: f64,
    /// The plan's touched points, in scan-position bits.
    touched: u64,
}

impl EnumState<'_, '_> {
    /// The core linearized scan with skip-ahead (Algorithm 2) over the
    /// points `order` (indices into `part.interesting`), on top of the
    /// materialized points `fixed` (used by recursive sub-problem calls).
    /// Returns the best assignment (point mask, `fixed` included) and its
    /// cost; ties go to the first plan in scan order.
    fn enumerate(&mut self, order: &[usize], cutset: Option<&CutSet>, fixed: u64) -> (u64, f64) {
        let len = order.len();
        if len == 0 || len >= 63 {
            // Nothing to choose, or a degenerate width: fuse-all
            // (practically unreachable thanks to partitioning).
            self.evaluated += 1;
            return (fixed, self.coster.cost(fixed, f64::INFINITY));
        }
        // createAssignment: bit b of j drives point order[len-1-b], so j=0
        // is fuse-all and increments flip from the back.
        let bit_point: Vec<u64> = (0..len).map(|b| 1u64 << order[len - 1 - b]).collect();
        let assign = |j: u64| -> u64 {
            let mut q = fixed;
            let mut m = j;
            while m != 0 {
                q |= bit_point[m.trailing_zeros() as usize];
                m &= m - 1;
            }
            q
        };
        let to_j = |q: u64| -> u64 {
            (0..len).filter(|&b| q & bit_point[b] != 0).fold(0, |j, b| j | 1 << b)
        };
        let total: u64 = 1u64 << len;
        // The best plan so far, ordered by (cost, scan position): seeds may
        // lie ahead of the scan, and an earlier plan of equal cost beats
        // them. `bound(j)` is the cost plan `j` must stay below to win.
        let mut best = Costed { j: u64::MAX, q: fixed, cost: f64::INFINITY, touched: 0 };
        let bound =
            |best: &Costed, j: u64| if j < best.j { best.cost.next_up() } else { best.cost };
        let mut costed_seeds: Vec<Costed> = Vec::new();
        let mut seeds_done = false;
        let start = self.evaluated;
        let mut fuse_all_touched = 0;
        let mut j: u64 = 0;
        while j < total {
            if self.evaluated >= self.cfg.max_eval {
                self.capped = true;
                break;
            }
            let q = assign(j);

            // Structural pruning via cut-set decomposition (lines 6-10).
            if let Some(cs) = cutset {
                let cs_bits = total - (1u64 << (len - cs.len));
                if j == cs_bits && !cs.s1.is_empty() && !cs.s2.is_empty() {
                    // Solve the sub-problems independently (no nested
                    // structural pruning, as in the paper: RG = null).
                    let s1_order: Vec<usize> = cs.s1.iter().map(|&i| order[i]).collect();
                    let s2_order: Vec<usize> = cs.s2.iter().map(|&i| order[i]).collect();
                    let (q1, _) = self.enumerate(&s1_order, None, q);
                    let (q2, _) = self.enumerate(&s2_order, None, q);
                    let combined = q1 | q2;
                    self.evaluated += 1;
                    let c = self.coster.cost(combined, bound(&best, j));
                    if c < bound(&best, j) {
                        best = Costed { j, q: combined, cost: c, touched: 0 };
                    }
                    // Skip the whole subtree below the cut set.
                    j += 1u64 << (len - cs.len);
                    continue;
                }
            }

            // Cost-based pruning (lines 11-15).
            if self.cfg.cost_prune && j > 0 && self.coster.lower_bound(q) >= bound(&best, j) {
                j += 1u64 << j.trailing_zeros();
                continue;
            }

            let plan = match costed_seeds.iter().find(|s| s.j == j) {
                Some(&s) => s,
                None => {
                    self.evaluated += 1;
                    let cost = self.coster.cost(q, bound(&best, j));
                    Costed { j, q, cost, touched: to_j(self.coster.touched()) }
                }
            };
            if plan.cost < bound(&best, j) {
                best = plan;
            }
            if j == 0 {
                fuse_all_touched = plan.touched;
            }
            if self.cfg.cost_prune && !seeds_done && self.evaluated - start >= len as u64 {
                // Seed the upper bound once the scan proves long. Only seeds
                // still ahead of the scan can matter; one that agrees with
                // fuse-all on every point fuse-all's costing touched costs
                // the same as fuse-all, and one whose lower bound cannot win
                // is never chosen: skip those.
                seeds_done = true;
                for i in 0..self.seeds.len() {
                    let sj = to_j(self.seeds[i]);
                    if sj <= j
                        || sj & fuse_all_touched == 0
                        || costed_seeds.iter().any(|x| x.j == sj)
                        || self.evaluated >= self.cfg.max_eval
                    {
                        continue;
                    }
                    let sq = assign(sj);
                    if self.coster.lower_bound(sq) >= bound(&best, sj) {
                        continue;
                    }
                    self.evaluated += 1;
                    let cost = self.coster.cost(sq, f64::INFINITY);
                    let seed = Costed { j: sj, q: sq, cost, touched: to_j(self.coster.touched()) };
                    if cost < bound(&best, sj) {
                        best = seed;
                    }
                    costed_seeds.push(seed);
                }
            }
            // Exact skip rule: plans j..j+2^k differ from j only in its k
            // trailing (zero) points; if the costing never consulted them,
            // every one of those plans costs exactly the same and none can
            // beat j, which comes first.
            let k = if self.cfg.cost_prune {
                j.trailing_zeros().min(plan.touched.trailing_zeros()).min(len as u32)
            } else {
                0
            };
            j += 1u64 << k;
        }
        (best.q, best.cost)
    }
}

/// Builds the enumeration order: the best-scoring valid cut set first (if
/// any), then all remaining points. Returns (order, cutset).
fn plan_order(dag: &HopDag, part: &PlanPartition) -> (Vec<usize>, Option<CutSet>) {
    let n = part.interesting.len();
    let default: Vec<usize> = (0..n).collect();
    if n < 3 {
        return (default, None);
    }
    // Candidates: composite points per distinct target (single points are
    // the 1-element case); plus non-overlapping pairs of those composites.
    let mut targets: Vec<HopId> = part.interesting.iter().map(|p| p.target).collect();
    targets.sort_unstable();
    targets.dedup();
    let composite =
        |t: HopId| -> Vec<usize> { (0..n).filter(|&i| part.interesting[i].target == t).collect() };
    let mut candidates: Vec<Vec<usize>> = targets.iter().map(|&t| composite(t)).collect();
    let pairs: Vec<Vec<usize>> = {
        let mut v = Vec::new();
        for i in 0..targets.len() {
            for k in i + 1..targets.len() {
                let mut c = composite(targets[i]);
                c.extend(composite(targets[k]));
                v.push(c);
            }
        }
        v
    };
    candidates.extend(pairs);

    // (score, cutset, left split, right split)
    type BestSplit = (f64, Vec<usize>, Vec<usize>, Vec<usize>);
    let mut best: Option<BestSplit> = None;
    for cs in candidates {
        if cs.len() >= n {
            continue;
        }
        if let Some((s1, s2)) = split_by_cutset(dag, part, &cs) {
            if s1.is_empty() || s2.is_empty() {
                continue;
            }
            // Eq. (5): (2^|cs|-1)/2^|cs| · 2^|M'| + 1/2^|cs| · (2^|S1|+2^|S2|)
            let p_cs = 2f64.powi(cs.len() as i32);
            let score = (p_cs - 1.0) / p_cs * 2f64.powi(n as i32)
                + (2f64.powi(s1.len() as i32) + 2f64.powi(s2.len() as i32)) / p_cs;
            if best.as_ref().is_none_or(|(b, ..)| score < *b) {
                best = Some((score, cs, s1, s2));
            }
        }
    }
    match best {
        None => (default, None),
        Some((_, cs, s1, s2)) => {
            // Order: cut set, then S1, then S2 (relative positions recorded).
            let mut order: Vec<usize> = cs.clone();
            let s1_pos: Vec<usize> = (0..s1.len()).map(|k| cs.len() + k).collect();
            order.extend(s1.iter().copied());
            let s2_pos: Vec<usize> = (0..s2.len()).map(|k| cs.len() + s1.len() + k).collect();
            order.extend(s2.iter().copied());
            let cut = CutSet { len: cs.len(), s1: s1_pos, s2: s2_pos };
            (order, Some(cut))
        }
    }
}

/// Checks whether materializing `cs` splits the remaining points into
/// root-side (S1) and descendant-side (S2) sets with `S1 ∩ S2 = ∅`
/// (Figure 7(b)). Returns point indices into `part.interesting`.
fn split_by_cutset(
    dag: &HopDag,
    part: &PlanPartition,
    cs: &[usize],
) -> Option<(Vec<usize>, Vec<usize>)> {
    let part_set: FxHashSet<HopId> = part.nodes.iter().copied().collect();
    let cut_targets: FxHashSet<HopId> = cs.iter().map(|&i| part.interesting[i].target).collect();
    // S1: nodes reachable from partition roots without descending through
    // cut targets.
    let mut top: FxHashSet<HopId> = FxHashSet::default();
    let mut stack: Vec<HopId> = part.roots.clone();
    while let Some(h) = stack.pop() {
        if !part_set.contains(&h) || !top.insert(h) {
            continue;
        }
        if cut_targets.contains(&h) {
            continue; // do not descend through the cut
        }
        stack.extend(dag.hop(h).inputs.iter().copied());
    }
    // S2: nodes reachable strictly below the cut targets.
    let mut bottom: FxHashSet<HopId> = FxHashSet::default();
    let mut stack: Vec<HopId> =
        cut_targets.iter().flat_map(|&t| dag.hop(t).inputs.clone()).collect();
    while let Some(h) = stack.pop() {
        if !part_set.contains(&h) || !bottom.insert(h) {
            continue;
        }
        stack.extend(dag.hop(h).inputs.iter().copied());
    }
    // The decomposition is only sound if the two sides share no nodes
    // beyond the cut itself: a node reachable both from the roots around
    // the cut and from below it couples the sides through redundant-compute
    // and shared-read effects (S1 ∩ S2 = ∅, paper §4.4).
    if top.iter().any(|h| !cut_targets.contains(h) && bottom.contains(h)) {
        return None;
    }
    let cs_set: FxHashSet<usize> = cs.iter().copied().collect();
    let mut s1 = Vec::new();
    let mut s2 = Vec::new();
    for i in 0..part.interesting.len() {
        if cs_set.contains(&i) {
            continue;
        }
        let p = part.interesting[i];
        let in_top = top.contains(&p.consumer)
            && !cut_targets.contains(&p.target)
            && top.contains(&p.target);
        let in_bottom = bottom.contains(&p.consumer)
            || (bottom.contains(&p.target) && !top.contains(&p.consumer));
        match (in_top, in_bottom) {
            (true, false) => s1.push(i),
            (false, true) => s2.push(i),
            // Overlap or unreachable: not a valid cut.
            _ => return None,
        }
    }
    Some((s1, s2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::opt::cost::compute_costs;
    use crate::opt::partition::partitions;
    use fusedml_hop::DagBuilder;

    /// A DAG with a genuine materialization decision: expensive shared
    /// intermediate consumed twice.
    fn shared_dag() -> HopDag {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2000, 2000, 1.0);
        let y = b.read("Y", 2000, 2000, 1.0);
        let shared = b.exp(x);
        let p1 = b.mult(shared, y);
        let s1 = b.sum(p1);
        let p2 = b.mult(shared, x);
        let s2 = b.sum(p2);
        b.build(vec![s1, s2])
    }

    fn run(dag: &HopDag, cfg: EnumConfig) -> (EnumResult, usize) {
        let memo = explore(dag);
        let parts = partitions(dag, &memo);
        let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
        let compute = compute_costs(dag);
        let model = CostModel::default();
        let r = mpskip_enum(dag, &memo, part, &compute, &model, &cfg);
        (r, part.interesting.len())
    }

    #[test]
    fn exhaustive_and_pruned_agree_on_optimum() {
        let dag = shared_dag();
        let (full, n) = run(
            &dag,
            EnumConfig { cost_prune: false, structural_prune: false, max_eval: u64::MAX },
        );
        let (pruned, _) = run(&dag, EnumConfig::default());
        assert!(n >= 2);
        assert_eq!(full.evaluated, 1 << n, "exhaustive costs every plan");
        assert!(
            (full.cost - pruned.cost).abs() <= 1e-9 * full.cost.max(1.0),
            "pruning must preserve the optimum: {} vs {}",
            full.cost,
            pruned.cost
        );
        assert!(pruned.evaluated <= full.evaluated);
    }

    #[test]
    fn optimal_plan_materializes_expensive_shared_node() {
        let dag = shared_dag();
        let (r, _) = run(
            &dag,
            EnumConfig { cost_prune: false, structural_prune: false, max_eval: u64::MAX },
        );
        // exp(X) over 2000² with weight 20 is compute-dominant; computing it
        // twice is worse than materializing. The best plan must set at least
        // one materialization bit on the shared node's edges.
        assert!(r.assignment.iter().any(|&b| b), "best plan materializes: {:?}", r.assignment);
    }

    #[test]
    fn fuse_all_is_optimal_without_sharing() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let z = b.read("Z", 1000, 1000, 1.0);
        let m1 = b.mult(x, y);
        let m2 = b.mult(m1, z);
        let s = b.sum(m2);
        let dag = b.build(vec![s]);
        let (r, _) = run(&dag, EnumConfig::default());
        assert!(r.assignment.iter().all(|&b| !b), "no reason to materialize");
    }

    #[test]
    fn cost_pruning_reduces_evaluated_plans() {
        // Cheap compute, huge shared intermediates: materializing is
        // clearly bad, so lower bounds prune most of the search space.
        let mut b = DagBuilder::new();
        let x = b.read("X", 4000, 4000, 1.0);
        let y = b.read("Y", 4000, 4000, 1.0);
        let s1 = b.abs(x);
        let s2 = b.sq(y);
        let m1 = b.mult(s1, s2);
        let m2 = b.mult(s1, y);
        let m3 = b.mult(s2, x);
        let t1 = b.sum(m1);
        let t2 = b.sum(m2);
        let t3 = b.sum(m3);
        let dag = b.build(vec![t1, t2, t3]);
        let (full, n) = run(
            &dag,
            EnumConfig { cost_prune: false, structural_prune: false, max_eval: u64::MAX },
        );
        let (pruned, _) =
            run(&dag, EnumConfig { cost_prune: true, structural_prune: false, max_eval: u64::MAX });
        assert!(n >= 3, "need a real search space, got {n}");
        assert!(
            pruned.evaluated < full.evaluated,
            "pruning must skip plans: {} vs {}",
            pruned.evaluated,
            full.evaluated
        );
        assert!((full.cost - pruned.cost).abs() <= 1e-9 * full.cost.max(1.0));
    }

    #[test]
    fn max_eval_caps_work() {
        let dag = shared_dag();
        let (r, _) =
            run(&dag, EnumConfig { cost_prune: false, structural_prune: false, max_eval: 2 });
        assert!(r.evaluated <= 2);
        assert!(r.cost.is_finite());
        assert_eq!(r.capped, 1);
    }

    /// A seed that ties with an earlier plan must not win: the result is
    /// the first optimal plan in scan order, as exhaustive search returns.
    /// Here materializing the transpose's input edge changes nothing once
    /// the matrix-vector edge is materialized, so the seeds tie with the
    /// optimum that precedes them.
    #[test]
    fn seeds_keep_first_in_order_ties() {
        let mut b = DagBuilder::new();
        let a = b.read("A", 155, 26, 1.0);
        let v = b.read("v", 26, 1, 1.0);
        let w = b.read("w", 155, 1, 1.0);
        let s = b.unary(fusedml_linalg::ops::UnaryOp::Sprop, a);
        let sv = b.mm(s, v);
        let wsv = b.mult(w, sv);
        let st = b.t(s);
        let g = b.mm(st, wsv);
        let dag = b.build(vec![wsv, g]);
        let exhaustive =
            EnumConfig { cost_prune: false, structural_prune: false, max_eval: u64::MAX };
        let (full, n) = run(&dag, exhaustive);
        let (pruned, _) = run(&dag, EnumConfig::default());
        assert_eq!(n, 3);
        assert_eq!(pruned.cost.to_bits(), full.cost.to_bits());
        assert_eq!(pruned.assignment, full.assignment);
    }
}
