//! Per-layer measurement from outside the engine.
//!
//! [`compile_phases`] runs the phases of `Engine::compile` one public call
//! at a time, in the order the engine runs them, with a span around each.
//! [`replay`] executes a compiled plan one operator at a time, timing each
//! fused kernel and each uncovered basic operator, and sets each fused
//! operator's measured time beside the cost model's estimate for it.

use crate::trace::Tracer;
use fusedml_core::codegen::CodegenOptions;
use fusedml_core::cplan::{self, CPlan};
use fusedml_core::explore::explore;
use fusedml_core::opt::cost::compute_costs;
use fusedml_core::opt::{select_plans, CostModel, EnumConfig, SelectionPolicy};
use fusedml_core::optimizer::dag_structural_hash;
use fusedml_core::plancache::PlanCache;
use fusedml_core::spoof::FusedSpec;
use fusedml_core::{FusedOperator, FusionPlan};
use fusedml_hop::interp::{self, Bindings};
use fusedml_hop::{liveness, HopDag, HopId};
use fusedml_linalg::matrix::Value;
use fusedml_runtime::side::SideInput;
use fusedml_runtime::{schedule, shard, spoof, verify, Engine};
use std::collections::BTreeMap;

/// Accumulates named per-layer values (sums; ratios are formed at the end).
#[derive(Default, Debug, Clone)]
pub struct Acc(pub BTreeMap<String, f64>);

impl Acc {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }
}

/// Runs `f` inside a span and returns its result with the span's ms.
fn timed<R>(tr: &Tracer, name: &str, parent: u64, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let open = tr.open(name, Some(parent), req);
    let r = f();
    (r, tr.close(open) * 1e3)
}

/// Compiles `dag` phase by phase as `Engine::compile` does for a Gen engine
/// with `shards` shards, adding each phase's time and counts to `acc` in
/// total and under `family`. Codegen runs on a cold plan cache. Returns the
/// plan, or `None` when the verifier rejects the compiled artifact.
#[allow(clippy::too_many_arguments)]
pub fn compile_phases(
    dag: &HopDag,
    model: &CostModel,
    enum_cfg: EnumConfig,
    shards: usize,
    family: &str,
    tr: &Tracer,
    parent: u64,
    req: u64,
    acc: &mut Acc,
) -> Option<FusionPlan> {
    let phase = |acc: &mut Acc, name: &str, ms: f64| {
        acc.add(&format!("{name}.ms"), ms);
        acc.add(&format!("{name}.ms.{family}"), ms);
        acc.add(&format!("core.compile.ms.{family}"), ms);
    };
    let (memo, ms) = timed(tr, "core.explore", parent, req, || explore(dag));
    phase(acc, "core.explore", ms);
    acc.add("core.explore.memo_entries", memo.total_entries() as f64);

    let policy = SelectionPolicy::CostBased(enum_cfg);
    let (sel, ms) =
        timed(tr, "core.opt.select", parent, req, || select_plans(dag, &memo, policy, model));
    phase(acc, "core.opt.select", ms);
    acc.add("core.opt.plans_evaluated", sel.plans_evaluated as f64);
    acc.add("core.opt.partitions", sel.partitions as f64);
    acc.add("core.opt.interesting_points", sel.interesting_points as f64);

    // CPlan construction in the optimizer's order: single operators, then
    // MultiAgg groups (members falling back to single operators).
    let (cplans, ms) = timed(tr, "core.cplan", parent, req, || {
        let in_magg: std::collections::HashSet<usize> =
            sel.magg_groups.iter().flatten().copied().collect();
        let mut out: Vec<(Vec<HopId>, CPlan)> = Vec::new();
        for (i, op) in sel.operators.iter().enumerate() {
            if !in_magg.contains(&i) {
                if let Ok(cp) = cplan::construct(dag, op) {
                    out.push((vec![op.root], cp));
                }
            }
        }
        for group in &sel.magg_groups {
            let mut members = Vec::new();
            let mut roots = Vec::new();
            for &i in group {
                if let Ok(cp) = cplan::construct(dag, &sel.operators[i]) {
                    members.push(cp);
                    roots.push(sel.operators[i].root);
                }
            }
            match cplan::construct_multi_agg(&members) {
                Ok(magg) => out.push((roots, magg)),
                Err(_) => out.extend(members.into_iter().zip(roots).map(|(cp, r)| (vec![r], cp))),
            }
        }
        out
    });
    phase(acc, "core.cplan", ms);

    let (plan, ms) = timed(tr, "core.codegen", parent, req, || {
        let cache = PlanCache::new();
        let opts = CodegenOptions::default();
        let operators = cplans
            .into_iter()
            .map(|(roots, cplan)| {
                let op = cache.get_or_compile(&cplan, &opts);
                FusedOperator { roots, cplan, op }
            })
            .collect();
        FusionPlan { operators, dag_hash: dag_structural_hash(dag) }
    });
    phase(acc, "core.codegen", ms);
    acc.add("core.codegen.operators", plan.operators.len() as f64);
    let source: usize = plan.operators.iter().map(|f| f.op.source.len()).sum();
    acc.add("core.codegen.source_bytes", source as f64);

    let (graph, ms) = timed(tr, "runtime.schedule.prepare", parent, req, || {
        let mut g = schedule::prepare(dag, Some(&plan), None);
        if shards >= 2 {
            g.set_shard_specs(&shard::plan_shards(dag, &plan, shards, model));
        }
        g
    });
    phase(acc, "runtime.schedule.prepare", ms);
    acc.add("runtime.schedule.tasks", graph.shard_specs().len() as f64);

    let (live, ms) = timed(tr, "hop.liveness", parent, req, || liveness::analyze(dag));
    phase(acc, "hop.liveness", ms);

    let (verdict, ms) = timed(tr, "runtime.verify", parent, req, || {
        verify::verify_compiled(dag, Some(&plan), &graph, &live)
    });
    phase(acc, "runtime.verify", ms);
    verdict.ok().map(|()| plan)
}

fn template(spec: &FusedSpec) -> &'static str {
    match spec {
        FusedSpec::Cell(_) => "cell",
        FusedSpec::MAgg(_) => "magg",
        FusedSpec::Row(_) => "row",
        FusedSpec::Outer(_) => "outer",
    }
}

/// Result of one operator-at-a-time replay.
pub struct Replay {
    /// Root values, for the reference check.
    pub roots: Vec<Value>,
    /// Summed kernel and basic-operator time, ms.
    pub kernel_ms: f64,
    /// Per fused operator: cost-model local estimate over measured time.
    pub est_ratios: Vec<f64>,
}

/// Executes `plan` over `bindings` one operator at a time on the calling
/// thread (demand-driven, as the engine's sequential oracle does), timing
/// every fused kernel through `runtime::spoof::execute` and every uncovered
/// operator through `hop::interp::eval_op_inputs`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    engine: &Engine,
    dag: &HopDag,
    plan: &FusionPlan,
    bindings: &Bindings,
    model: &CostModel,
    tr: &Tracer,
    parent: u64,
    req: u64,
    acc: &mut Acc,
) -> Replay {
    let _scope = engine.scope();
    let compute = compute_costs(dag);
    let mut op_of: BTreeMap<HopId, usize> = BTreeMap::new();
    for (i, f) in plan.operators.iter().enumerate() {
        for &r in &f.roots {
            op_of.insert(r, i);
        }
    }
    let mut st = ReplayState {
        dag,
        plan,
        bindings,
        op_of,
        vals: vec![None; dag.len()],
        kernel_ms: 0.0,
        est_ratios: Vec::new(),
        compute,
        model,
        tr,
        parent,
        req,
        acc,
    };
    for &r in dag.roots() {
        st.materialize(r);
    }
    let roots =
        dag.roots().iter().map(|r| st.vals[r.index()].clone().expect("root computed")).collect();
    Replay { roots, kernel_ms: st.kernel_ms, est_ratios: st.est_ratios }
}

struct ReplayState<'a> {
    dag: &'a HopDag,
    plan: &'a FusionPlan,
    bindings: &'a Bindings,
    op_of: BTreeMap<HopId, usize>,
    vals: Vec<Option<Value>>,
    kernel_ms: f64,
    est_ratios: Vec<f64>,
    compute: Vec<f64>,
    model: &'a CostModel,
    tr: &'a Tracer,
    parent: u64,
    req: u64,
    acc: &'a mut Acc,
}

impl ReplayState<'_> {
    fn matrix(&self, h: HopId) -> fusedml_linalg::Matrix {
        self.vals[h.index()].as_ref().expect("input computed").as_matrix()
    }

    fn materialize(&mut self, hop: HopId) {
        if self.vals[hop.index()].is_some() {
            return;
        }
        if let Some(&ix) = self.op_of.get(&hop) {
            let f = &self.plan.operators[ix];
            for h in f.cplan.main.iter().chain(&f.cplan.sides).chain(&f.cplan.scalars) {
                self.materialize(*h);
            }
            let main = f.cplan.main.map(|h| self.matrix(h));
            let side_mats: Vec<_> = f.cplan.sides.iter().map(|&h| self.matrix(h)).collect();
            let sides: Vec<SideInput> = side_mats.iter().map(SideInput::bind).collect();
            let scalars: Vec<f64> = f
                .cplan
                .scalars
                .iter()
                .map(|&h| self.vals[h.index()].as_ref().expect("scalar computed").as_scalar())
                .collect();
            let t = template(&f.op.spec);
            let (outs, ms) =
                timed(self.tr, &format!("runtime.spoof.{t}"), self.parent, self.req, || {
                    spoof::execute(
                        &f.op.spec,
                        main.as_ref(),
                        &sides,
                        &scalars,
                        f.cplan.iter_rows,
                        f.cplan.iter_cols,
                    )
                });
            let bytes: usize =
                main.iter().chain(&side_mats).chain(&outs).map(|m| m.size_in_bytes()).sum();
            self.kernel_ms += ms;
            self.acc.add(&format!("runtime.spoof.{t}.ms"), ms);
            self.acc.add(&format!("runtime.spoof.{t}.calls"), 1.0);
            self.acc.add(&format!("runtime.spoof.{t}.bytes"), bytes as f64);
            let est = shard::estimate_operator(self.dag, f, &self.compute, 1, self.model);
            if ms > 0.0 {
                self.est_ratios.push(est.local_seconds * 1e3 / ms);
            }
            for (slot, &r) in f.roots.iter().enumerate() {
                let m = &outs[slot];
                let v = if self.dag.hop(r).is_scalar() && m.is_scalar_shaped() {
                    Value::Scalar(m.get(0, 0))
                } else {
                    Value::Matrix(m.clone())
                };
                self.vals[r.index()] = Some(v);
            }
            return;
        }
        let inputs = self.dag.hop(hop).inputs.clone();
        for &i in &inputs {
            self.materialize(i);
        }
        let ins: Vec<Value> =
            inputs.iter().map(|i| self.vals[i.index()].clone().expect("input computed")).collect();
        let v = if self.dag.hop(hop).kind.is_leaf() {
            interp::eval_op_inputs(self.dag, hop, &ins, self.bindings)
        } else {
            let (v, ms) = timed(self.tr, "linalg.ops", self.parent, self.req, || {
                interp::eval_op_inputs(self.dag, hop, &ins, self.bindings)
            });
            self.kernel_ms += ms;
            self.acc.add("linalg.ops.ms", ms);
            self.acc.add("linalg.ops.calls", 1.0);
            v
        };
        self.vals[hop.index()] = Some(v);
    }
}
