//! The analytical cost model for DAG-structured fusion plans (paper §4.3,
//! Equation 4):
//!
//! `C(P|q) = Σ_p ( T̂w_p + max(T̂r_p, T̂c_p) )`
//!
//! Read/write times derive from input/output sizes divided by peak memory
//! bandwidth; compute time from floating-point operations divided by peak
//! compute bandwidth. Shared reads and CSEs inside one fused operator are
//! captured by *cost vectors*; memoization of (operator, cost-vector) pairs
//! returns zero on re-visits while still accounting for the redundant
//! compute of overlapping operators. Sparsity-exploiting operators scale
//! compute down by the main input's sparsity.

use crate::memo::{MemoEntry, MemoTable};
use crate::opt::partition::{InterestingPoint, PlanPartition};
use crate::templates::TemplateType;
use crate::util::{FxHashMap, FxHashSet};
use fusedml_hop::{HopDag, HopId, OpKind};
use fusedml_linalg::ops::UnaryOp;

/// Distributed-execution cost parameters (paper §4.4 "Constraints and
/// Distributed Operations"; DESIGN.md substitution X2).
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Number of executors.
    pub executors: usize,
    /// Aggregate executor scan bandwidth (bytes/s).
    pub exec_read_bw: f64,
    /// Point-to-point network bandwidth for broadcasts (bytes/s).
    pub net_bw: f64,
    /// Single-node memory budget: operators whose largest input exceeds
    /// this execute distributed.
    pub local_budget: f64,
    /// Block size constraint: distributed Row templates require
    /// `ncol(X) <= block_cols` (access to entire rows).
    pub block_cols: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            executors: 6,
            exec_read_bw: 6.0 * 32e9,
            net_bw: 1.25e9, // 10 Gb Ethernet
            local_budget: fusedml_hop::memory::DEFAULT_LOCAL_BUDGET,
            block_cols: 1000,
        }
    }
}

/// Bandwidth constants of the cost model. Defaults follow the paper's
/// nominal per-node peaks; only ratios matter for plan comparisons.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Peak read bandwidth (bytes/s).
    pub read_bw: f64,
    /// Peak write bandwidth (bytes/s).
    pub write_bw: f64,
    /// Peak compute bandwidth (FLOP/s).
    pub compute_bw: f64,
    /// Per-cell dispatch overhead of generated Cell/MAgg/Outer operators in
    /// FLOP-equivalents. The scalar register interpreter paid ~10–20 here;
    /// the tile-vectorized block backend amortizes instruction dispatch over
    /// whole tiles, leaving a small constant (re-measured by
    /// `calibrate::calibrate`) so the optimizer's Gen-vs-Base tradeoff
    /// reflects the faster backend.
    pub fused_dispatch_flops: f64,
    /// Per-row dispatch overhead of generated Row operators in
    /// FLOP-equivalents: the band-lowered row kernel pays its instruction
    /// dispatch once per row (per-row scalar prologue + per-row body
    /// dispatch), not per cell.
    pub row_dispatch_flops: f64,
    /// Distributed configuration (None = single-node only).
    pub dist: Option<DistConfig>,
}

/// Default per-cell dispatch overhead of the block backend (FLOP-equivalents
/// per generated-operator cell).
pub const DEFAULT_FUSED_DISPATCH_FLOPS: f64 = 2.0;

/// Default per-row dispatch overhead of the Row backend (FLOP-equivalents
/// per iterated main-input row).
pub const DEFAULT_ROW_DISPATCH_FLOPS: f64 = 32.0;

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_bw: 32e9,
            write_bw: 16e9,
            compute_bw: 4e9,
            fused_dispatch_flops: DEFAULT_FUSED_DISPATCH_FLOPS,
            row_dispatch_flops: DEFAULT_ROW_DISPATCH_FLOPS,
            dist: None,
        }
    }
}

/// Fixed per-operator dispatch overhead of sharded execution in seconds:
/// channel sends, reply collection, and merge bookkeeping across the shard
/// pool. The local-vs-sharded break-even point this implies (~a few MB of
/// input at 4 shards) is what the plan-choice tests pin.
pub const SHARD_DISPATCH_S: f64 = 40e-6;

impl CostModel {
    /// A model with the distributed backend enabled.
    pub fn with_distributed(dist: DistConfig) -> Self {
        CostModel { dist: Some(dist), ..CostModel::default() }
    }

    /// Estimated wall time of one operator executed locally (paper Eq. 4:
    /// write + max(read, compute), all single-node bandwidths).
    pub fn local_op_seconds(&self, in_bytes: f64, out_bytes: f64, flops: f64) -> f64 {
        out_bytes / self.write_bw + (in_bytes / self.read_bw).max(flops / self.compute_bw)
    }

    /// Estimated wall time of the same operator executed across `shards`
    /// worker shards (Boehm 2017-style): partitioned inputs scan at the
    /// aggregate executor bandwidth, broadcast sides pay the interconnect
    /// once per shard, compute divides across shards, and the driver pays a
    /// fixed dispatch overhead plus the partial-output merge.
    pub fn shard_op_seconds(
        &self,
        dist: &DistConfig,
        part_bytes: f64,
        bcast_bytes: f64,
        out_bytes: f64,
        flops: f64,
        shards: usize,
    ) -> f64 {
        let k = shards.max(1) as f64;
        let scan = part_bytes / dist.exec_read_bw;
        let bcast = bcast_bytes * k / dist.net_bw;
        let compute = flops / (self.compute_bw * k);
        // Partial outputs flow back over the same interconnect and merge at
        // driver write bandwidth (the merge reads k partials, writes one).
        let merge = out_bytes * k / dist.net_bw + out_bytes / self.write_bw;
        SHARD_DISPATCH_S + bcast + scan.max(compute) + merge
    }
}

impl DistConfig {
    /// Cost constants for the in-process shard runtime (`runtime::shard`):
    /// shards are threads in one address space, so "network" transfers are
    /// memcpy-class (an `Arc` clone for broadcasts, buffer copies for
    /// partition slices and partial merges) and executor scan bandwidth is
    /// the shared memory bus. Used both by the planner's local-vs-sharded
    /// choice and by `table6`'s modeled column, so modeled and measured
    /// execution share one estimator.
    pub fn in_process(shards: usize) -> Self {
        DistConfig {
            executors: shards.max(1),
            exec_read_bw: 32e9,
            net_bw: 8e9,
            local_budget: fusedml_hop::memory::DEFAULT_LOCAL_BUDGET,
            block_cols: usize::MAX,
        }
    }
}

/// Per-hop compute workload in FLOPs (sparse-aware: proportional to the
/// estimated non-zeros actually touched).
pub fn compute_costs(dag: &HopDag) -> Vec<f64> {
    dag.iter()
        .map(|h| {
            let out_nnz = h.size.nnz();
            match &h.kind {
                OpKind::Read { .. } | OpKind::Literal { .. } => 0.0,
                OpKind::Unary { op } => out_nnz * unary_weight(*op),
                OpKind::Binary { .. } => out_nnz,
                OpKind::Ternary { .. } => 2.0 * out_nnz,
                OpKind::MatMult => {
                    // FLOPs for (m×k)%*%(k×n): 2·m·k·n scaled by the sparser
                    // input (sparse×dense iterates non-zeros of the sparse).
                    let a = dag.hop(h.inputs[0]);
                    let b = dag.hop(h.inputs[1]);
                    let sp = a.size.sparsity.min(b.size.sparsity).clamp(1e-12, 1.0);
                    2.0 * a.size.rows as f64 * a.size.cols as f64 * b.size.cols as f64 * sp
                }
                OpKind::Transpose => h.size.nnz(),
                OpKind::Agg { .. } => dag.hop(h.inputs[0]).size.nnz(),
                OpKind::CumAgg { .. } => h.size.cells() as f64,
                OpKind::RightIndex { .. } => out_nnz,
                OpKind::CBind | OpKind::RBind => out_nnz,
                OpKind::Diag => h.size.rows as f64,
            }
        })
        .collect()
}

fn unary_weight(op: UnaryOp) -> f64 {
    match op {
        UnaryOp::Exp | UnaryOp::Log | UnaryOp::Sigmoid | UnaryOp::Sqrt => 20.0,
        _ => 1.0,
    }
}

/// Mask of a boolean assignment over `part.interesting`: bit `i` set means
/// point `i` is materialized. Points past bit 63 cannot be represented and
/// stay fused (enumeration itself stops below 63 points).
pub fn assignment_mask(assignment: &[bool]) -> u64 {
    assignment.iter().take(64).enumerate().filter(|(_, &on)| on).fold(0, |m, (i, _)| m | 1 << i)
}

/// One local node of a [`PlanCoster`]: a partition node, or a hop outside
/// the partition that a fused reference points to.
#[derive(Clone, Copy, Debug)]
struct Node {
    in_part: bool,
    /// Row operators read transposes directly and charge them no compute.
    transpose: bool,
    compute: f64,
    out_bytes: f64,
    /// Eq. (4) cost of executing the node as a basic operator.
    basic: f64,
    /// This node's runs in `PlanCoster::entries` and `PlanCoster::inputs`.
    entries: (u32, u32),
    inputs: (u32, u32),
}

/// A memo entry in pick order, with its validity precomputed as a mask.
#[derive(Clone, Copy, Debug)]
struct Entry {
    ttype: TemplateType,
    /// Bit `t` set: an open operator of type `t` may extend into this entry.
    extends: u8,
    /// Bit `j` set: input `j` is a fused reference.
    fused: u8,
    /// The interesting points `(hop, ref)` that invalidate this entry.
    invalid: u64,
    /// Index into `memo.entries(hop)`.
    memo_ix: u32,
}

/// One positional input of a local node.
#[derive(Clone, Copy, Debug)]
struct Input {
    /// Local node index (`u32::MAX` when the input is not local).
    node: u32,
    operand: u32,
    in_part: bool,
    scalar: bool,
}

/// What a fused operator reading a hop sees of it.
#[derive(Clone, Copy, Debug)]
struct Operand {
    bytes: f64,
    sparsity: f64,
    cells: f64,
    rows: f64,
}

/// A cost vector: the running description of one opened fused operator
/// (paper §4.3 "Cost Computation via Cost Vectors"). Its distinct inputs
/// are `PlanCoster::cv_inputs[start..]`; open vectors nest strictly, so one
/// stack of operand ids serves them all.
#[derive(Clone, Copy, Debug)]
struct CostVector {
    id: u32,
    ttype: TemplateType,
    out_bytes: f64,
    compute: f64,
    start: usize,
}

/// The plan-costing kernel for one partition (Eq. 4 over the plan an
/// assignment selects). Dense tables are built once per partition; an
/// assignment is a `u64` mask (see [`assignment_mask`]), an entry is valid
/// iff `invalid & q == 0`, and costing reuses its scratch buffers, so after
/// the first evaluation it allocates nothing. Consecutive assignments
/// resume after the longest prefix of roots whose picks they leave
/// unchanged (DESIGN.md §4 X12).
pub struct PlanCoster<'a> {
    memo: &'a MemoTable,
    model: CostModel,
    nodes: Vec<Node>,
    local: FxHashMap<HopId, u32>,
    entries: Vec<Entry>,
    inputs: Vec<Input>,
    operands: Vec<Operand>,
    roots: Vec<u32>,
    /// Per interesting point, its target's index among distinct targets.
    point_target: Vec<u32>,
    /// Per distinct target, the write and read seconds of materializing it.
    target_io: Vec<(f64, f64)>,
    statics: StaticCosts,
    // Scratch, reused across evaluations.
    q: u64,
    touched: u64,
    /// The points any pick so far read (see `pick`): changing none of them
    /// in either direction leaves the traversal unchanged.
    read: u64,
    next_id: u32,
    /// Running cost, and the bound at which costing aborts.
    total: f64,
    upper: f64,
    /// Visited `(node, cost-vector id)` pairs as a bitset (id 0: no open
    /// operator).
    visited: Vec<u64>,
    cvs: Vec<CostVector>,
    cv_inputs: Vec<u32>,
    /// `prefixes[i]`: the state after costing `roots[..=i]` under its `q`,
    /// valid for every assignment agreeing with `q` on its read points.
    prefixes: Vec<Prefix>,
    /// The prefixes' visited bitsets, `visited.len()` words per root.
    prefix_visited: Vec<u64>,
}

/// Costing state after a prefix of the roots.
#[derive(Clone, Copy, Debug, Default)]
struct Prefix {
    q: u64,
    touched: u64,
    read: u64,
    total: f64,
    next_id: u32,
}

impl<'a> PlanCoster<'a> {
    pub fn new(
        dag: &HopDag,
        memo: &'a MemoTable,
        part: &PlanPartition,
        compute: &[f64],
        model: &CostModel,
    ) -> Self {
        let part_set: FxHashSet<HopId> = part.nodes.iter().copied().collect();
        // Local nodes: the partition, then out-of-partition fused targets.
        let mut hops: Vec<HopId> = part.nodes.clone();
        for &h in &part.nodes {
            for r in memo.entries(h).iter().flat_map(MemoEntry::refs) {
                if !part_set.contains(&r) && !hops.contains(&r) {
                    hops.push(r);
                }
            }
        }
        let local: FxHashMap<HopId, u32> =
            hops.iter().enumerate().map(|(i, &h)| (h, i as u32)).collect();
        let point_ix: FxHashMap<InterestingPoint, usize> =
            part.interesting.iter().take(64).enumerate().map(|(i, &p)| (p, i)).collect();

        let mut coster = PlanCoster {
            memo,
            model: *model,
            nodes: Vec::with_capacity(hops.len()),
            local,
            entries: Vec::new(),
            inputs: Vec::new(),
            operands: Vec::new(),
            roots: Vec::new(),
            point_target: Vec::new(),
            target_io: Vec::new(),
            statics: static_parts(dag, part, compute, model),
            q: 0,
            touched: 0,
            read: 0,
            next_id: 1,
            total: 0.0,
            upper: f64::INFINITY,
            visited: vec![0; (part.nodes.len() + 1) * hops.len() / 64 + 1],
            cvs: Vec::new(),
            cv_inputs: Vec::new(),
            prefixes: Vec::new(),
            prefix_visited: Vec::new(),
        };
        let mut operand_ix: FxHashMap<HopId, u32> = FxHashMap::default();
        for &h in &hops {
            let hop = dag.hop(h);
            let in_part = part_set.contains(&h);
            let e0 = coster.entries.len() as u32;
            if in_part {
                for (memo_ix, e) in memo.entries(h).iter().enumerate() {
                    let fused = e
                        .inputs
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.is_fused())
                        .fold(0u8, |m, (j, _)| m | 1 << j);
                    let invalid = e
                        .refs()
                        .filter_map(|r| point_ix.get(&InterestingPoint { consumer: h, target: r }))
                        .fold(0u64, |m, &i| m | 1 << i);
                    use TemplateType::{Cell, MAgg, Outer, Row};
                    let extends = [Row, Cell, MAgg, Outer]
                        .iter()
                        .filter(|t| t.merge_compatible(e.ttype))
                        .fold(0u8, |m, &t| m | type_bit(t));
                    coster.entries.push(Entry {
                        ttype: e.ttype,
                        extends,
                        fused,
                        invalid,
                        memo_ix: memo_ix as u32,
                    });
                }
                // Pick order: maximal references first, then template
                // preference; the stable sort keeps the first of equals.
                coster.entries[e0 as usize..].sort_by_key(|e| {
                    std::cmp::Reverse((e.fused.count_ones(), e.ttype.preference()))
                });
            }
            let i0 = coster.inputs.len() as u32;
            for &input in &hop.inputs {
                let size = dag.hop(input).size;
                let next = coster.operands.len() as u32;
                let operand = *operand_ix.entry(input).or_insert(next);
                if operand == next {
                    coster.operands.push(Operand {
                        bytes: size.bytes(),
                        sparsity: size.sparsity,
                        cells: size.cells() as f64,
                        rows: size.rows as f64,
                    });
                }
                coster.inputs.push(Input {
                    node: coster.local.get(&input).copied().unwrap_or(u32::MAX),
                    operand,
                    in_part: part_set.contains(&input),
                    scalar: dag.hop(input).is_scalar(),
                });
            }
            let basic = if hop.kind.is_leaf() {
                0.0
            } else {
                let t_c = compute[h.index()] / model.compute_bw;
                coster.io_cost(
                    hop.size.bytes(),
                    hop.inputs.iter().map(|&i| dag.hop(i).size.bytes()),
                    t_c,
                )
            };
            coster.nodes.push(Node {
                in_part,
                transpose: hop.kind == OpKind::Transpose,
                compute: compute[h.index()],
                out_bytes: hop.size.bytes(),
                basic,
                entries: (e0, coster.entries.len() as u32),
                inputs: (i0, coster.inputs.len() as u32),
            });
        }
        coster.roots = part.roots.iter().filter_map(|r| coster.local.get(r).copied()).collect();
        coster.prefixes.reserve(coster.roots.len());
        coster.prefix_visited = vec![0; coster.roots.len() * coster.visited.len()];
        let mut targets: Vec<HopId> = Vec::new();
        for p in part.interesting.iter().take(64) {
            let t = match targets.iter().position(|&t| t == p.target) {
                Some(t) => t,
                None => {
                    targets.push(p.target);
                    let b = dag.hop(p.target).size.bytes();
                    coster.target_io.push((b / model.write_bw, b / model.read_bw));
                    targets.len() - 1
                }
            };
            coster.point_target.push(t as u32);
        }
        coster
    }

    /// Costs the partition under assignment `q`; aborts early returning
    /// `f64::INFINITY` once the running cost reaches `upper_bound` (partial
    /// costing, paper §4.4). Roots are costed in order, and each adds ≥ 0.
    pub fn cost(&mut self, q: u64, upper_bound: f64) -> f64 {
        self.q = q;
        self.upper = upper_bound;
        // Roots whose picks `q` leaves unchanged traverse and cost exactly
        // as before: resume after the longest such prefix still below the
        // bound (a prefix reaching it is re-costed, to abort where a fresh
        // traversal would).
        let keep = self
            .prefixes
            .iter()
            .take_while(|p| (p.q ^ q) & p.read == 0 && p.total < upper_bound)
            .count();
        self.prefixes.truncate(keep);
        let dirty = self.used_words();
        self.visited[..dirty].fill(0);
        let resume = self.prefixes.last().copied().unwrap_or_default();
        self.touched = resume.touched;
        self.read = resume.read;
        self.next_id = resume.next_id.max(1);
        self.total = resume.total;
        let words = self.visited.len();
        if keep > 0 {
            let used = self.used_words();
            let snapshot = &self.prefix_visited[(keep - 1) * words..][..used];
            self.visited[..used].copy_from_slice(snapshot);
        }
        for r in keep..self.roots.len() {
            self.visit(self.roots[r] as usize, false);
            if self.total >= upper_bound {
                self.total = f64::INFINITY;
                break;
            }
            self.prefixes.push(Prefix {
                q,
                touched: self.touched,
                read: self.read,
                total: self.total,
                next_id: self.next_id,
            });
            let used = self.used_words();
            self.prefix_visited[r * words..][..used].copy_from_slice(&self.visited[..used]);
        }
        self.cvs.clear();
        self.cv_inputs.clear();
        self.total
    }

    /// Words of `visited` the cost-vector ids handed out so far can touch.
    fn used_words(&self) -> usize {
        (self.next_id as usize * self.nodes.len()).div_ceil(64).min(self.visited.len())
    }

    /// The interesting points the last [`cost`](Self::cost) call depended
    /// on: the union of the invalidation masks of every entry it picked.
    /// Materializing any other point (on top of that assignment) leaves
    /// every pick, hence the whole traversal and its cost, unchanged.
    pub fn touched(&self) -> u64 {
        self.touched
    }

    /// Sound lower bound on the cost of `q` and of every assignment that
    /// materializes a superset of it (paper §4.4): static costs plus one
    /// write and one read of every distinct materialized target.
    pub fn lower_bound(&self, q: u64) -> f64 {
        let (w, r) = self.mp_cost(q);
        self.statics.lower_bound(w, r)
    }

    /// Minimal materialization costs of an assignment (`getMPCost`): every
    /// distinct materialized target requires at least one write and one
    /// read. Returns `(write_seconds, read_seconds)`.
    fn mp_cost(&self, q: u64) -> (f64, f64) {
        let mut targets = 0u64;
        for_each_bit(q & low_mask(self.point_target.len()), |i| {
            targets |= 1 << self.point_target[i];
        });
        let (mut w, mut r) = (0.0, 0.0);
        for_each_bit(targets, |t| {
            w += self.target_io[t].0;
            r += self.target_io[t].1;
        });
        (w, r)
    }

    /// The memo entry the plan under `q` uses at `hop` (paper: query the
    /// memo table "for the best fusion plan regarding template type and
    /// fusion references"): maximal references first, then template
    /// preference, among entries no materialized point invalidates
    /// (paper §4.2); `current` restricts to merge-compatible types when
    /// extending an open operator.
    pub fn pick_best(
        &self,
        hop: HopId,
        current: Option<TemplateType>,
        q: u64,
    ) -> Option<&'a MemoEntry> {
        let n = *self.local.get(&hop)? as usize;
        let e = self.pick(n, current, q).0?;
        self.memo.entries(hop).get(e.memo_ix as usize)
    }

    /// The first valid merge-compatible entry of node `n` under `q`, and the
    /// points the choice read: the masks of every compatible entry up to
    /// and including the winner.
    fn pick(&self, n: usize, current: Option<TemplateType>, q: u64) -> (Option<Entry>, u64) {
        let (lo, hi) = self.nodes[n].entries;
        let cur = current.map_or(u8::MAX, type_bit);
        let mut read = 0;
        for e in &self.entries[lo as usize..hi as usize] {
            if e.extends & cur != 0 {
                read |= e.invalid;
                if e.invalid & q == 0 {
                    return (Some(*e), read);
                }
            }
        }
        (None, read)
    }

    /// Costs node `n`, either extending the innermost open operator
    /// (`extend`) or as the root of a new one (or of a basic operator).
    fn visit(&mut self, n: usize, extend: bool) {
        let (id, current) = match self.cvs.last() {
            Some(cv) if extend => (cv.id, Some(cv.ttype)),
            _ => (0, None),
        };
        let bit = id as usize * self.nodes.len() + n;
        if self.visited[bit / 64] & 1 << (bit % 64) != 0 {
            return;
        }
        self.visited[bit / 64] |= 1 << (bit % 64);
        let node = self.nodes[n];
        let (best, read) = self.pick(n, current, self.q);
        self.read |= read;
        if let Some(e) = best {
            self.touched |= e.invalid;
        }
        let has_cv = if extend {
            true
        } else if let Some(e) = best {
            self.cvs.push(CostVector {
                id: self.next_id,
                ttype: e.ttype,
                out_bytes: node.out_bytes,
                compute: 0.0,
                start: self.cv_inputs.len(),
            });
            self.next_id += 1;
            true
        } else {
            false // a basic operator
        };
        // Add this operator's compute workload (skipping transposes fused
        // into Row operators, which read rows directly).
        if node.in_part && has_cv {
            if let Some(cv) = self.cvs.last_mut() {
                if !(cv.ttype == TemplateType::Row && node.transpose) {
                    cv.compute += node.compute;
                }
            }
        }
        let fused = best.map_or(0, |e| e.fused);
        for k in node.inputs.0..node.inputs.1 {
            let input = self.inputs[k as usize];
            if fused >> (k - node.inputs.0) & 1 == 1 {
                self.visit(input.node as usize, true);
            } else {
                if input.in_part {
                    self.visit(input.node as usize, false);
                }
                if has_cv && !input.scalar {
                    let start = self.cvs.last().map_or(0, |cv| cv.start);
                    if !self.cv_inputs[start..].contains(&input.operand) {
                        self.cv_inputs.push(input.operand);
                    }
                }
            }
            if self.total >= self.upper {
                return; // partial costing abort: unwind
            }
        }
        if !extend {
            self.total += if has_cv { self.close() } else { node.basic };
        }
    }

    /// Closes the innermost open operator: its Eq. (4) contribution.
    fn close(&mut self) -> f64 {
        let Some(v) = self.cvs.pop() else { return 0.0 };
        let ops = &self.cv_inputs[v.start..];
        let operands = || ops.iter().map(|&o| &self.operands[o as usize]);
        let mut compute = v.compute;
        let max_cells = operands().fold(0.0f64, |m, o| m.max(o.cells));
        // The driver (main) input: the largest bound matrix. Its sparsity
        // and row count steer sparsity exploitation and per-row overheads.
        let (mut driver_sp, mut driver_rows) = (1.0f64, 0.0f64);
        for o in operands().filter(|o| o.cells >= 0.5 * max_cells) {
            driver_sp = driver_sp.min(o.sparsity);
            driver_rows = driver_rows.max(o.rows);
        }
        let iter_cells = match v.ttype {
            // Sparsity exploitation: Outer operators iterate non-zeros of
            // the sparse driver. The covered `UVᵀ` product is estimated
            // dense by `compute_costs`, so the driver's sparsity is the
            // correction for computing it at non-zero positions only.
            TemplateType::Outer => {
                compute *= driver_sp;
                max_cells * driver_sp
            }
            // Row operators execute sparse main rows over their non-zeros
            // (sparse-aware band execution). Per-hop compute is already
            // nnz-proportional for everything a Row template covers
            // (element-wise, matmult, agg), so no extra sparsity factor —
            // only the per-row instruction dispatch, paid once per row,
            // not per cell.
            TemplateType::Row => {
                compute += self.model.row_dispatch_flops * driver_rows;
                max_cells
            }
            _ => max_cells,
        };
        // Per-cell dispatch overhead of the generated operator's register
        // program (Cell/MAgg/Outer evaluate it per iterated tile cell).
        if v.ttype != TemplateType::Row {
            compute += self.model.fused_dispatch_flops * iter_cells;
        }
        let t_c = compute / self.model.compute_bw;
        let cost = self.io_cost(v.out_bytes, operands().map(|o| o.bytes), t_c);
        self.cv_inputs.truncate(v.start);
        cost
    }

    /// `T̂w + max(T̂r, T̂c)` with local/distributed bandwidth selection.
    fn io_cost(&self, out_bytes: f64, inputs: impl Iterator<Item = f64> + Clone, t_c: f64) -> f64 {
        let model = &self.model;
        match model.dist {
            Some(d) if inputs.clone().fold(0.0f64, f64::max) > d.local_budget => {
                // Distributed operator: large inputs scan at aggregate
                // bandwidth; small inputs are broadcast to every executor.
                let mut t_r = 0.0;
                for b in inputs {
                    if b > d.local_budget {
                        t_r += b / d.exec_read_bw;
                    } else {
                        t_r += b * d.executors as f64 / d.net_bw;
                    }
                }
                let t_w = if out_bytes > d.local_budget {
                    out_bytes / (d.exec_read_bw / 2.0)
                } else {
                    // Collect to the driver.
                    out_bytes * d.executors as f64 / d.net_bw / d.executors as f64
                        + out_bytes / model.write_bw
                };
                let t_c_dist = t_c / d.executors as f64;
                t_w + t_r.max(t_c_dist)
            }
            _ => {
                let t_r: f64 = inputs.sum::<f64>() / model.read_bw;
                let t_w = out_bytes / model.write_bw;
                t_w + t_r.max(t_c)
            }
        }
    }
}

fn type_bit(t: TemplateType) -> u8 {
    1 << t as u8
}

/// The low `n` bits (all 64 for `n >= 64`).
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

fn for_each_bit(mut m: u64, mut f: impl FnMut(usize)) {
    while m != 0 {
        f(m.trailing_zeros() as usize);
        m &= m - 1;
    }
}

/// The components of a partition's static lower bound (paper §4.4).
#[derive(Clone, Copy, Debug)]
pub struct StaticCosts {
    /// Writing the partition roots (seconds).
    pub root_writes: f64,
    /// Reading every partition input once (seconds).
    pub input_reads: f64,
    /// Minimal computation with maximal sparsity exploitation (seconds).
    pub min_compute: f64,
}

impl StaticCosts {
    /// Combines with per-assignment materialization costs into a sound
    /// lower bound on Eq. (4):
    ///
    /// `Σ_p (T̂w + max(T̂r, T̂c)) ≥ (root + mat writes) +
    ///  max(input reads + mat reads, min compute)`
    ///
    /// The materialization *reads* must stay inside the max — a
    /// compute-bound plan overlaps them with computation.
    pub fn lower_bound(&self, mat_writes: f64, mat_reads: f64) -> f64 {
        self.root_writes + mat_writes + (self.input_reads + mat_reads).max(self.min_compute)
    }
}

/// Computes the static lower-bound components: reading partition inputs
/// once, minimal computation, and writing partition roots.
pub fn static_parts(
    dag: &HopDag,
    part: &PlanPartition,
    compute: &[f64],
    model: &CostModel,
) -> StaticCosts {
    let input_reads: f64 =
        part.inputs.iter().map(|&i| dag.hop(i).size.bytes()).sum::<f64>() / model.read_bw;
    // Minimal compute assumes maximal sparsity exploitation: a
    // sparsity-exploiting operator (Outer, sparse-aware Row) scales its
    // whole compute by its driver's sparsity, so the sound per-node factor
    // is the minimum sparsity over everything the partition touches.
    let min_sp = part
        .nodes
        .iter()
        .chain(part.inputs.iter())
        .map(|&n| dag.hop(n).size.sparsity)
        .fold(1.0f64, f64::min)
        .clamp(0.0, 1.0);
    let min_compute: f64 =
        part.nodes.iter().map(|&n| compute[n.index()] * min_sp).sum::<f64>() / model.compute_bw;
    let root_writes: f64 =
        part.roots.iter().map(|&r| dag.hop(r).size.bytes()).sum::<f64>() / model.write_bw;
    StaticCosts { root_writes, input_reads, min_compute }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::opt::partition::partitions;
    use fusedml_hop::DagBuilder;

    fn cost_of(dag: &HopDag, memo: &MemoTable, part: &PlanPartition, q: u64) -> f64 {
        let compute = compute_costs(dag);
        let model = CostModel::default();
        PlanCoster::new(dag, memo, part, &compute, &model).cost(q, f64::INFINITY)
    }

    /// Fusing `sum(X⊙Y⊙Z)` must be cheaper than materializing intermediates.
    #[test]
    fn fusion_beats_materialization_for_cell_chain() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let z = b.read("Z", 1000, 1000, 1.0);
        let m1 = b.mult(x, y);
        let m2 = b.mult(m1, z);
        let s = b.sum(m2);
        let dag = b.build(vec![s]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        assert_eq!(parts.len(), 1);
        let c_fused = cost_of(&dag, &memo, &parts[0], 0);
        // Materialize the m1→m2 edge — but it is not an interesting point
        // here (single consumer); instead compare against an empty memo
        // (pure base execution).
        let empty = MemoTable::new();
        let c_base = cost_of(&dag, &empty, &parts[0], 0);
        assert!(c_fused < c_base * 0.8, "fused {c_fused} must beat base {c_base} clearly");
    }

    /// Redundant compute appears when a shared intermediate is fused into
    /// two consumers, and disappears when materialized.
    #[test]
    fn shared_intermediate_costs_reflect_redundancy() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2000, 2000, 1.0);
        let y = b.read("Y", 2000, 2000, 1.0);
        let shared = b.exp(x); // expensive unary
        let p1 = b.mult(shared, y);
        let s1 = b.sum(p1);
        let p2 = b.mult(shared, x);
        let s2 = b.sum(p2);
        let dag = b.build(vec![s1, s2]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        assert_eq!(parts.len(), 1);
        let part = &parts[0];
        // Find the interesting points for the shared node's consumer edges.
        let shared_pts: Vec<bool> = part.interesting.iter().map(|p| p.target == shared).collect();
        assert_eq!(shared_pts.iter().filter(|&&on| on).count(), 2);
        let c_redundant = cost_of(&dag, &memo, part, 0);
        let c_materialized = cost_of(&dag, &memo, part, assignment_mask(&shared_pts));
        // exp is compute-heavy: computing it twice must cost more than one
        // materialize + two reads.
        assert!(
            c_materialized < c_redundant,
            "materialized {c_materialized} vs redundant {c_redundant}"
        );
    }

    /// Outer-template sparsity exploitation: the same expression over a
    /// sparse driver costs far less than over a dense driver.
    #[test]
    fn outer_sparsity_scales_compute() {
        let build = |sp: f64| {
            let mut b = DagBuilder::new();
            let x = b.read("X", 20_000, 20_000, sp);
            let u = b.read("U", 20_000, 100, 1.0);
            let v = b.read("V", 20_000, 100, 1.0);
            let vt = b.t(v);
            let uvt = b.mm(u, vt);
            let prod = b.mult(x, uvt);
            let s = b.sum(prod);
            b.build(vec![s])
        };
        let cost = |dag: &HopDag| {
            let memo = explore(dag);
            let parts = partitions(dag, &memo);
            // Pick the partition holding the main expression (largest).
            let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
            cost_of(dag, &memo, part, 0)
        };
        let sparse = build(0.001);
        let dense = build(1.0);
        let c_sparse = cost(&sparse);
        let c_dense = cost(&dense);
        assert!(
            c_sparse * 20.0 < c_dense,
            "sparse driver {c_sparse} must be ≫ cheaper than dense {c_dense}"
        );
    }

    /// Row-template sparsity exploitation: the mv-chain over a sparse main
    /// must cost far less than over a dense main (the band-lowered Row
    /// backend iterates non-zeros), and the per-row dispatch overhead must
    /// be visible for row-heavy shapes.
    #[test]
    fn row_sparsity_scales_compute() {
        let build = |sp: f64| {
            let mut b = DagBuilder::new();
            let x = b.read("X", 100_000, 1_000, sp);
            let v = b.read("v", 1_000, 1, 1.0);
            let xv = b.mm(x, v);
            let xt = b.t(x);
            let out = b.mm(xt, xv);
            b.build(vec![out])
        };
        let cost = |dag: &HopDag| {
            let memo = explore(dag);
            let parts = partitions(dag, &memo);
            let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
            cost_of(dag, &memo, part, 0)
        };
        let c_sparse = cost(&build(0.01));
        let c_dense = cost(&build(1.0));
        assert!(
            c_sparse * 5.0 < c_dense,
            "sparse row driver {c_sparse} must be ≫ cheaper than dense {c_dense}"
        );
        // The per-row overhead term responds to the model constant.
        let dag = build(0.01);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
        let compute = compute_costs(&dag);
        let cheap = CostModel { row_dispatch_flops: 0.0, ..CostModel::default() };
        let heavy = CostModel { row_dispatch_flops: 10_000.0, ..CostModel::default() };
        let c_cheap = PlanCoster::new(&dag, &memo, part, &compute, &cheap).cost(0, f64::INFINITY);
        let c_heavy = PlanCoster::new(&dag, &memo, part, &compute, &heavy).cost(0, f64::INFINITY);
        assert!(c_heavy > c_cheap, "per-row dispatch overhead must be visible");
    }

    /// Distributed operators charge broadcast costs for small side inputs.
    #[test]
    fn distributed_broadcast_costs_vectors() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 50_000_000, 100, 1.0); // 40 GB — distributed
        let v = b.read("v", 50_000_000, 1, 1.0); // 400 MB vector
        let m = b.mult(x, v);
        let s = b.sum(m);
        let dag = b.build(vec![s]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
        let compute = compute_costs(&dag);
        let local_model = CostModel::default();
        let dist_model = CostModel::with_distributed(DistConfig::default());
        let c_local =
            PlanCoster::new(&dag, &memo, part, &compute, &local_model).cost(0, f64::INFINITY);
        let c_dist =
            PlanCoster::new(&dag, &memo, part, &compute, &dist_model).cost(0, f64::INFINITY);
        // The broadcast of the 400 MB vector to 6 executors over 1.25 GB/s
        // must be visible in the distributed cost.
        assert!(c_dist != c_local);
        assert!(c_dist > 0.4e9 * 6.0 / 1.25e9 * 0.5, "broadcast term present: {c_dist}");
    }

    #[test]
    fn static_and_mp_costs_are_lower_bounds() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let shared = b.mult(x, y);
        let e1 = b.exp(shared);
        let s1 = b.sum(e1);
        let sq = b.sq(shared);
        let s2 = b.sum(sq);
        let dag = b.build(vec![s1, s2]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let part = &parts[0];
        let compute = compute_costs(&dag);
        let model = CostModel::default();
        let mut coster = PlanCoster::new(&dag, &memo, part, &compute, &model);
        for q in [0, assignment_mask(&vec![true; part.interesting.len()])] {
            let lb = coster.lower_bound(q);
            let actual = coster.cost(q, f64::INFINITY);
            assert!(lb <= actual * 1.0001, "lower bound {lb} must not exceed actual {actual}");
        }
    }

    /// A multi-root partition with shared intermediates and several
    /// interesting points.
    fn multi_root_dag() -> HopDag {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2000, 200, 1.0);
        let y = b.read("Y", 2000, 200, 1.0);
        let v = b.read("v", 200, 1, 1.0);
        let e = b.exp(x);
        let m = b.mult(e, y);
        let s1 = b.sum(m);
        let q = b.sq(m);
        let s2 = b.sum(q);
        let xv = b.mm(e, v);
        let w = b.mult(xv, xv);
        let et = b.t(e);
        let g = b.mm(et, w);
        let a = b.abs(q);
        let s3 = b.sum(a);
        b.build(vec![s1, s2, g, s3])
    }

    /// Resuming from cached root prefixes is invisible: every cost and
    /// touched mask equals a fresh kernel's, aborts included.
    #[test]
    fn prefix_reuse_matches_fresh_costing() {
        let dag = multi_root_dag();
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let part = parts.iter().max_by_key(|p| p.interesting.len()).unwrap();
        let n = part.interesting.len();
        assert!(n >= 4 && part.roots.len() >= 2, "{n} points, {} roots", part.roots.len());
        let compute = compute_costs(&dag);
        let model = CostModel::default();
        let mut reused = PlanCoster::new(&dag, &memo, part, &compute, &model);
        let full = reused.cost(0, f64::INFINITY);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut q = 0;
        for step in 0..600 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Mostly one-point steps, as in a scan, so prefixes get reused.
            q = if step % 5 == 0 { state } else { q ^ 1 << (state % n as u64) } & ((1 << n) - 1);
            let upper = [f64::INFINITY, full, 0.5 * full, 0.9 * full, 1.1 * full][step % 5];
            let mut fresh = PlanCoster::new(&dag, &memo, part, &compute, &model);
            let want = fresh.cost(q, upper);
            assert_eq!(reused.cost(q, upper).to_bits(), want.to_bits(), "q={q:b} upper={upper}");
            assert_eq!(reused.touched(), fresh.touched(), "q={q:b} upper={upper}");
        }
    }
}
