//! The four workloads. Each makes its inputs from the seed, sets up (timed,
//! several times), measures for the given seconds, checks every output
//! against a reference, and in a traced run also measures every layer.

use crate::check::{self, DAG_TOL, TRAIN_TOL};
use crate::dags::{self, Entry, Shapes};
use crate::layers::{self, Acc};
use crate::rng::{mix, Rng};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use fusedml_algos::{alscg, autoencoder, glm, kmeans, l2svm, mlogreg, AlgoResult};
use fusedml_hop::interp::{self, Bindings};
use fusedml_hop::HopDag;
use fusedml_linalg::matrix::Value;
use fusedml_linalg::ops::{self, BinaryOp};
use fusedml_linalg::{generate, Matrix};
use fusedml_runtime::{Engine, EngineBuilder, FusionMode};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Replays per DAG in the per-layer pass (kernel figures are their mean).
const LAYER_REPS: usize = 3;

/// Training geometry: tall-skinny dense X, sparse ratings for ALS-CG, a
/// sparse X for MLogreg, and the AutoEncoder's input.
pub const TRAIN: Shapes = Shapes {
    dense: (50_000, 100),
    sparse: (50_000, 1_000, 0.01),
    als: (2_000, 2_000, 0.01, 20),
    ae: (512, 100, 64, 2),
    k: 5,
    k1: 1,
};
/// AutoEncoder training rows (whole batches of `TRAIN.ae.0`).
const AE_ROWS: usize = 8_192;

/// The recompile corpus declares small inputs so that the reference run
/// after each compile stays cheap; the AutoEncoder DAG keeps its training
/// geometry, as its compile cost is what the workload is about.
const CORPUS: Shapes = Shapes {
    dense: (2_000, 100),
    sparse: (2_000, 1_000, 0.01),
    als: (400, 400, 0.02, 20),
    ae: TRAIN.ae,
    k: 5,
    k1: 1,
};
/// AutoEncoder copies per corpus round. Every other DAG compiles in about a
/// millisecond and the AutoEncoder's in hundreds: with 4 of 29 compiles in
/// the slow mode, the median lies in the fast mode and p90 in the slow one.
const AE_COPIES: usize = 4;
/// Seeded random DAGs per corpus, and operators per random DAG.
const RANDOM_DAGS: usize = 6;
const RANDOM_OPS: usize = 12;

/// Scorer geometry (the serving example): batch × features → classes.
const SCORE: (usize, usize, usize) = (256, 128, 10);
/// Pre-generated request inputs, and warm-up requests per client.
const SCORE_POOL: usize = 32;
const SCORE_WARMUP: usize = 200;
/// Windows the measured loop is cut into; `ops_per_s` is the median
/// window's rate, so a short stall of the host moves one window only.
const SCORE_WINDOWS: usize = 5;

/// Where a run may write: spans, results and any spill files.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub tracer: Tracer,
}

/// One end-to-end or per-layer figure.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles of the samples behind `value`, where it is a median.
    pub summary: Option<Summary>,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure messages, for diagnosis.
    pub errors: Vec<String>,
    /// End-to-end metrics of the benchmark contract.
    pub e2e: Vec<Metric>,
    /// Workload-specific end-to-end figures under the names of the
    /// benchmark notes (train_s, compile_ms_p90, score_ms_p99, ...).
    pub detail: Vec<Metric>,
    /// Per-layer figures (traced runs only).
    pub layers: Vec<Metric>,
}

impl Report {
    fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    fn e2e(&mut self, name: &str, unit: &'static str, value: f64, summary: Option<Summary>) {
        self.e2e.push(Metric { name: name.to_string(), unit, value, summary });
    }

    fn detail(&mut self, name: &str, unit: &'static str, value: f64, summary: Option<Summary>) {
        self.detail.push(Metric { name: name.to_string(), unit, value, summary });
    }

    /// Median of `samples` as a detail figure (skipped when empty).
    fn detail_median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        if let Some(s) = stats::summarize(samples) {
            self.detail(name, unit, s.median, Some(s));
        }
    }

    /// A tail percentile as a detail figure, only with ten samples beyond.
    fn detail_percentile(&mut self, name: &str, unit: &'static str, samples: &[f64], p: f64) {
        if let Some(v) = stats::percentile(samples, p) {
            let n = samples.len();
            self.detail(name, unit, v, Some(Summary { q1: v, median: v, q3: v, n }));
        }
    }

    /// The contract's end-to-end set, common to all workloads: set-up time
    /// and the median time of the workload's unit of work. Units per second
    /// and peak RSS (read right after the measured loop) are reported beside
    /// them.
    fn common_e2e(
        &mut self,
        setup: &[f64],
        op_ms: f64,
        op_summary: Option<Summary>,
        ops_per_s: f64,
    ) {
        let s = stats::summarize(setup);
        self.e2e("setup_s", "s", s.map_or(0.0, |s| s.median), s);
        self.e2e("op_ms_p50", "ms", op_ms, op_summary);
        self.detail("ops_per_s", "1/s", ops_per_s, None);
        self.detail("peak_rss_mb", "MB", peak_rss_mb(), None);
    }

    /// [`Report::common_e2e`] with the median of `op_ms` samples.
    fn common_e2e_samples(&mut self, setup: &[f64], op_ms: &[f64], ops_per_s: f64) {
        let o = stats::summarize(op_ms);
        self.common_e2e(setup, o.map_or(0.0, |s| s.median), o, ops_per_s);
    }
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process so far, from `getrusage`
/// (0 where that is not available).
pub fn peak_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut u = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
        // SAFETY: `u` is a live, writable buffer with the layout of Linux's
        // 64-bit `struct rusage`, and `RUSAGE_SELF` (0) is a valid `who`.
        if unsafe { getrusage(0, &mut u) } == 0 {
            return u.maxrss as f64 / 1024.0;
        }
    }
    0.0
}

/// Runs `f`, turning a panic into an error message.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Sets up `SETUP_REPS` times (dropping each result before the next) and
/// returns the last result with every set-up time in seconds.
fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), times)
}

fn engine(nproc: usize, shards: usize, cache_plans: bool) -> Engine {
    let b = EngineBuilder::new(FusionMode::Gen)
        .workers(nproc)
        .cache_plans(cache_plans)
        .spill_dir(out_dir().join("spill"));
    if shards >= 2 {
        b.shards(shards).build()
    } else {
        b.build()
    }
}

/// Reads an engine's counters into `acc` (summed over engines; the caller
/// divides by the operation count).
fn read_counters(e: &Engine, acc: &mut Acc) {
    let st = e.stats();
    let (fused, _, basic) = st.snapshot();
    let (mono, interp_ops) = st.mono_snapshot();
    let s = st.scheduler_snapshot();
    let pool = e.pool_stats();
    let opt = e.optimizer().stats.snapshot();
    let mb = |b: usize| b as f64 / 1e6;
    acc.add("runtime.exec.fused_ops", fused as f64);
    acc.add("runtime.exec.mono_ops", mono as f64);
    acc.add("runtime.exec.interp_fused_ops", interp_ops as f64);
    acc.add("runtime.exec.basic_ops", basic as f64);
    acc.add("runtime.schedule.parallel_ops", s.parallel_ops as f64);
    acc.add("runtime.schedule.freed_early_mb", mb(s.bytes_freed_early));
    let peak = acc.get("runtime.schedule.peak_mb").max(mb(s.peak_bytes));
    acc.set("runtime.schedule.peak_mb", peak);
    acc.add("linalg.pool.hits", pool.hits as f64);
    acc.add("linalg.pool.misses", pool.misses as f64);
    acc.add("runtime.shard.sharded_ops", s.sharded_ops as f64);
    acc.add("runtime.shard.broadcast_mb", mb(s.shard_broadcast_bytes));
    acc.add("runtime.shard.partial_mb", mb(s.shard_partial_bytes));
    acc.add("runtime.shard.merge_ms", s.shard_merge_us as f64 / 1e3);
    let skew = acc.get("runtime.shard.skew").max(s.shard_skew_milli as f64 / 1e3);
    acc.set("runtime.shard.skew", skew);
    acc.add("linalg.spill.spilled_mb", e.spill_stats().bytes_spilled as f64 / 1e6);
    acc.add("runtime.exec.failed_executions", st.failed_executions() as f64);
    acc.add("runtime.engine.plan_recompiles", st.plan_recompiles() as f64);
    acc.add("core.opt.optimize_ms", opt.optimize_seconds * 1e3);
    acc.add("core.codegen_total_ms", opt.codegen_seconds * 1e3);
}

/// Every per-layer metric the benchmark defines, in order, with its unit.
/// `PER_FAMILY` names are suffixed with each of [`FAMILIES`].
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.explore.ms", "ms"),
    ("core.explore.memo_entries", "count"),
    ("core.opt.select.ms", "ms"),
    ("core.opt.plans_evaluated", "count"),
    ("core.opt.partitions", "count"),
    ("core.opt.interesting_points", "count"),
    ("core.cplan.ms", "ms"),
    ("core.codegen.ms", "ms"),
    ("core.codegen.operators", "count"),
    ("core.codegen.source_bytes", "bytes"),
    ("runtime.schedule.prepare.ms", "ms"),
    ("runtime.schedule.tasks", "count"),
    ("hop.liveness.ms", "ms"),
    ("runtime.verify.ms", "ms"),
    ("runtime.spoof.cell.ms", "ms"),
    ("runtime.spoof.cell.calls", "count"),
    ("runtime.spoof.cell.gbps", "GB/s"),
    ("runtime.spoof.magg.ms", "ms"),
    ("runtime.spoof.magg.calls", "count"),
    ("runtime.spoof.magg.gbps", "GB/s"),
    ("runtime.spoof.row.ms", "ms"),
    ("runtime.spoof.row.calls", "count"),
    ("runtime.spoof.row.gbps", "GB/s"),
    ("runtime.spoof.outer.ms", "ms"),
    ("runtime.spoof.outer.calls", "count"),
    ("runtime.spoof.outer.gbps", "GB/s"),
    ("linalg.ops.ms", "ms"),
    ("runtime.schedule.self_ms", "ms"),
    ("core.opt.cost.est_ratio", "ratio"),
    ("runtime.exec.fused_ops", "count"),
    ("runtime.exec.mono_ops", "count"),
    ("runtime.exec.interp_fused_ops", "count"),
    ("runtime.exec.basic_ops", "count"),
    ("runtime.exec.mono_share", "ratio"),
    ("runtime.schedule.parallel_ops", "count"),
    ("runtime.schedule.peak_mb", "MB"),
    ("runtime.schedule.freed_early_mb", "MB"),
    ("linalg.pool.hit_rate", "ratio"),
    ("linalg.pool.misses", "count"),
    ("runtime.shard.sharded_ops", "count"),
    ("runtime.shard.broadcast_mb", "MB"),
    ("runtime.shard.partial_mb", "MB"),
    ("runtime.shard.merge_ms", "ms"),
    ("runtime.shard.skew", "ratio"),
    ("linalg.spill.spilled_mb", "MB"),
    ("runtime.exec.failed_executions", "count"),
    ("runtime.engine.plan_recompiles", "count"),
    ("algos.l2svm.s", "s"),
    ("algos.mlogreg.s", "s"),
    ("algos.glm.s", "s"),
    ("algos.kmeans.s", "s"),
    ("algos.alscg.s", "s"),
    ("algos.mlogreg_sparse.s", "s"),
    ("algos.autoencoder.s", "s"),
    ("core.opt.optimize_ms", "ms"),
    ("core.codegen_total_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Per-family compile metrics: `<name>.<family>`.
pub const PER_FAMILY: &[&str] = &["core.compile.ms", "core.opt.select.ms"];

/// DAG families the per-layer pass reports.
pub const FAMILIES: &[&str] = &[
    "l2svm",
    "mlogreg",
    "glm",
    "kmeans",
    "alscg",
    "mlogreg_sparse",
    "autoencoder",
    "fig8",
    "random",
    "scorer",
];

/// Counter names read from engines, normalized per operation.
const PER_OP_COUNTERS: &[&str] = &[
    "runtime.exec.fused_ops",
    "runtime.exec.mono_ops",
    "runtime.exec.interp_fused_ops",
    "runtime.exec.basic_ops",
    "runtime.schedule.parallel_ops",
    "runtime.schedule.freed_early_mb",
    "linalg.pool.misses",
    "runtime.shard.sharded_ops",
    "runtime.shard.broadcast_mb",
    "runtime.shard.partial_mb",
    "runtime.shard.merge_ms",
    "linalg.spill.spilled_mb",
    "runtime.exec.failed_executions",
    "runtime.engine.plan_recompiles",
    "core.opt.optimize_ms",
    "core.codegen_total_ms",
];

/// Turns the accumulated layer sums into the per-layer metric list.
fn finish_layers(report: &mut Report, mut acc: Acc, ops: f64, est: &mut [f64]) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mono = acc.get("runtime.exec.mono_ops");
    let share = ratio(mono, mono + acc.get("runtime.exec.interp_fused_ops"));
    acc.set("runtime.exec.mono_share", share);
    let hits = acc.get("linalg.pool.hits");
    let hit_rate = ratio(hits, hits + acc.get("linalg.pool.misses"));
    acc.set("linalg.pool.hit_rate", hit_rate);
    for name in PER_OP_COUNTERS {
        let v = acc.get(name) / ops.max(1.0);
        acc.set(name, v);
    }
    for t in ["cell", "magg", "row", "outer"] {
        let gbps = ratio(
            acc.get(&format!("runtime.spoof.{t}.bytes")),
            acc.get(&format!("runtime.spoof.{t}.ms")) * 1e6,
        );
        acc.set(&format!("runtime.spoof.{t}.gbps"), gbps);
    }
    est.sort_by(f64::total_cmp);
    let est_ratio = if est.is_empty() { 0.0 } else { est[est.len() / 2] };
    acc.set("core.opt.cost.est_ratio", est_ratio);
    for (name, unit) in LAYER_METRICS {
        report.layers.push(Metric {
            name: (*name).to_string(),
            unit,
            value: acc.get(name),
            summary: None,
        });
    }
    for base in PER_FAMILY {
        for fam in FAMILIES {
            let name = format!("{base}.{fam}");
            let value = acc.get(&name);
            report.layers.push(Metric { name, unit: "ms", value, summary: None });
        }
    }
}

/// The per-layer pass over `entries`: phase-by-phase compile, operator
/// replay against the interpreter, and the scheduler's own time.
fn layer_pass(
    ctx: &Ctx,
    entries: &[Entry],
    bindings: &[Bindings],
    shards: usize,
    report: &mut Report,
    acc: &mut Acc,
) -> Vec<f64> {
    let tr = &ctx.tracer;
    let eng = engine(ctx.nproc, shards, true);
    let model = eng.optimizer().model;
    let enum_cfg = eng.optimizer().enum_cfg;
    let mut est = Vec::new();
    let mut kernel_acc = Acc::default();
    for (i, (e, b)) in entries.iter().zip(bindings).enumerate() {
        let req = 1_000_000 + i as u64;
        let top = tr.open(&format!("layers.{}", e.family), None, req);
        let parent = top.id();
        let result = guarded(|| {
            let plan = layers::compile_phases(
                &e.dag, &model, enum_cfg, shards, e.family, tr, parent, req, acc,
            )
            .ok_or_else(|| format!("{}: verifier rejected the plan", e.label))?;
            let want = interp::interpret(&e.dag, b);
            let mut kernel_ms = Vec::new();
            for _ in 0..LAYER_REPS {
                let r = layers::replay(
                    &eng,
                    &e.dag,
                    &plan,
                    b,
                    &model,
                    tr,
                    parent,
                    req,
                    &mut kernel_acc,
                );
                check::compare_values(&r.roots, &want, DAG_TOL)
                    .map_err(|m| format!("{} replay: {m}", e.label))?;
                kernel_ms.push(r.kernel_ms);
                est.extend(r.est_ratios);
            }
            let script = eng.try_compile(&e.dag).map_err(|x| x.to_string())?;
            let mut exec_ms = Vec::new();
            for _ in 0..LAYER_REPS {
                let open = tr.open("runtime.schedule.try_execute", Some(parent), req);
                let out = script.try_execute(b).map_err(|x| x.to_string())?;
                exec_ms.push(tr.close(open) * 1e3);
                check::compare_values(out.values(), &want, DAG_TOL)
                    .map_err(|m| format!("{}: {m}", e.label))?;
            }
            let med = |v: &[f64]| stats::summarize(v).map_or(0.0, |s| s.median);
            acc.add("runtime.schedule.self_ms", med(&exec_ms) - med(&kernel_ms));
            Ok(())
        });
        tr.close(top);
        report.record(result);
    }
    for (k, v) in kernel_acc.0 {
        acc.add(&k, v / LAYER_REPS as f64);
    }
    est
}

// ---------------------------------------------------------------- train --

/// Training inputs made from the seed.
struct TrainData {
    x: Matrix,
    y_pm: Matrix,
    y01: Matrix,
    labels: Matrix,
    xs: Matrix,
    labels_s: Matrix,
    ratings: Matrix,
    ae: Matrix,
}

fn train_data(seed: u64) -> TrainData {
    let (n, m) = TRAIN.dense;
    let (x, y_pm) = generate::classification_data(n, m, 1.0, 0.05, mix(seed, 1));
    let y01 =
        ops::binary_scalar(&ops::binary_scalar(&y_pm, 1.0, BinaryOp::Add), 0.5, BinaryOp::Mult);
    // Two classes: +1 → class 1, −1 → class 2 (the base class).
    let labels =
        ops::binary_scalar(&ops::binary_scalar(&y_pm, -0.5, BinaryOp::Mult), 1.5, BinaryOp::Add);
    let (sn, sm, ssp) = TRAIN.sparse;
    let (xs, labels_s) = mlogreg::synthetic_data(sn, sm, TRAIN.k1 + 1, ssp, mix(seed, 2));
    let (an, am, asp, _) = TRAIN.als;
    let ratings = alscg::synthetic_data(an, am, asp, mix(seed, 3));
    let ae = autoencoder::synthetic_data(AE_ROWS, TRAIN.ae.1, mix(seed, 4));
    TrainData { x, y_pm, y01, labels, xs, labels_s, ratings, ae }
}

/// The training mix, in run order.
const ALGOS: [&str; 7] =
    ["l2svm", "mlogreg", "glm", "kmeans", "alscg", "mlogreg_sparse", "autoencoder"];

/// Runs one algorithm to its fixed iteration count.
fn run_algo(e: &Engine, algo: &str, d: &TrainData) -> AlgoResult {
    let mlr = mlogreg::MLogregConfig {
        classes: TRAIN.k1 + 1,
        max_outer: 5,
        max_inner: 5,
        ..Default::default()
    };
    match algo {
        "l2svm" => {
            let cfg = l2svm::L2svmConfig { max_iter: 20, epsilon: 0.0, ..Default::default() };
            l2svm::run(e, &d.x, &d.y_pm, &cfg)
        }
        "mlogreg" => mlogreg::run(e, &d.x, &d.labels, &mlr),
        "glm" => {
            let cfg = glm::GlmConfig { max_outer: 5, max_inner: 5, ..Default::default() };
            glm::run(e, &d.x, &d.y01, &cfg)
        }
        "kmeans" => {
            let cfg = kmeans::KMeansConfig { k: TRAIN.k, max_iter: 10, epsilon: 0.0 };
            kmeans::run(e, &d.x, &cfg)
        }
        "alscg" => {
            let cfg = alscg::AlsConfig { rank: TRAIN.als.3, max_iter: 5, ..Default::default() };
            alscg::run(e, &d.ratings, &cfg)
        }
        "mlogreg_sparse" => mlogreg::run(e, &d.xs, &d.labels_s, &mlr),
        _ => {
            let (batch, _, h1, h2) = TRAIN.ae;
            let cfg = autoencoder::AeConfig { h1, h2, batch, epochs: 1, ..Default::default() };
            autoencoder::run(e, &d.ae, &cfg)
        }
    }
}

/// `train` (shards = 1) and `train-sharded` (shards = nproc).
pub fn train(ctx: &Ctx, shards: usize) -> Report {
    let mut report = Report::default();
    let (data, setup) = timed_setup(|| train_data(ctx.seed));
    let tr = &ctx.tracer;
    let mut acc = Acc::default();
    let mut per_algo: Vec<Vec<f64>> = vec![Vec::new(); ALGOS.len()];
    let mut iterations = [0usize; ALGOS.len()];
    let mut objectives: Vec<(usize, Result<f64, String>)> = Vec::new();
    let (mut op_ms, mut pass_s, mut traced_s, mut untraced_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        // In a traced run, every other pass runs without spans so the
        // tracing overhead can be read off the two medians.
        let traced = ctx.trace && pass % 2 == 1;
        let pass_open = traced.then(|| tr.open("train.pass", None, pass));
        let mut total = 0.0;
        for (a, algo) in ALGOS.iter().enumerate() {
            let e = engine(ctx.nproc, shards, true);
            let open =
                pass_open.as_ref().map(|p| tr.open(&format!("algos.{algo}"), Some(p.id()), pass));
            let start = Instant::now();
            let obj = guarded(|| Ok(run_algo(&e, algo, &data)));
            if let Ok(r) = &obj {
                iterations[a] = r.iterations;
            }
            let obj = obj.map(|r| r.objective);
            let secs = start.elapsed().as_secs_f64();
            if let Some(o) = open {
                tr.close(o);
            }
            read_counters(&e, &mut acc);
            total += secs;
            op_ms.push(secs * 1e3);
            per_algo[a].push(secs);
            objectives.push((a, obj));
        }
        if let Some(p) = pass_open {
            tr.close(p);
        }
        pass_s.push(total);
        if traced {
            traced_s.push(total)
        } else {
            untraced_s.push(total)
        }
        pass += 1;
    }
    // The unit of work is a pass over all algorithms, timed as the sum of
    // each algorithm's median run: a stall in one run then moves only that
    // algorithm's median, and the first pass in a process (which pays
    // one-time allocator growth and page faults) counts as an outlier.
    let sum_medians = |v: &[Vec<f64>]| -> f64 {
        v.iter().map(|x| stats::summarize(x).map_or(0.0, |s| s.median)).sum()
    };
    let typical_s = sum_medians(&per_algo);
    let n_ops = op_ms.len() as f64;
    report.common_e2e(&setup, typical_s * 1e3, None, ALGOS.len() as f64 / typical_s);
    // Reference: one Base run of each algorithm on the same inputs, made
    // after the measured loop so its memory stays out of peak_rss_mb.
    // Its run times are reported beside Gen's (one sample each).
    let reference: Vec<Result<f64, String>> = ALGOS
        .iter()
        .map(|algo| {
            let base = EngineBuilder::new(FusionMode::Base).workers(ctx.nproc).build();
            let start = Instant::now();
            let r = guarded(|| Ok(run_algo(&base, algo, &data).objective));
            report.detail(&format!("base.{algo}.s"), "s", start.elapsed().as_secs_f64(), None);
            r
        })
        .collect();
    for (a, obj) in objectives {
        let r = obj.and_then(|got| match &reference[a] {
            Ok(want) => check::compare_scalar(got, *want, TRAIN_TOL),
            Err(e) => Err(format!("Base reference failed: {e}")),
        });
        report.record(r.map_err(|e| format!("{}: {e}", ALGOS[a])));
    }
    report.detail_median("train_s", "s", &pass_s);
    report.detail("passes", "count", pass_s.len() as f64, None);
    for (a, algo) in ALGOS.iter().enumerate() {
        report.detail_median(&format!("algos.{algo}.s"), "s", &per_algo[a]);
        report.detail(&format!("algos.{algo}.iterations"), "count", iterations[a] as f64, None);
    }
    if ctx.trace {
        for (a, algo) in ALGOS.iter().enumerate() {
            let med = stats::summarize(&per_algo[a]).map_or(0.0, |s| s.median);
            acc.set(&format!("algos.{algo}.s"), med);
        }
        let med = |v: &[f64]| stats::summarize(v).map_or(0.0, |s| s.median);
        acc.set("trace.overhead_ms", (med(&traced_s) - med(&untraced_s)) * 1e3);
        let entries = dags::algorithm_dags(&TRAIN);
        let refs: Vec<&HopDag> = entries.iter().map(|e| &e.dag).collect();
        let bindings = dags::bindings_for(&refs, mix(ctx.seed, 5), 0.0, 1.0);
        let mut est = layer_pass(ctx, &entries, &bindings, shards, &mut report, &mut acc);
        finish_layers(&mut report, acc, n_ops, &mut est);
    }
    report
}

// ------------------------------------------------------------ recompile --

struct Corpus {
    entries: Vec<Entry>,
    bindings: Vec<Bindings>,
    /// Interpreter outputs per entry.
    want: Vec<Vec<Value>>,
    engine: Engine,
}

fn corpus(seed: u64, nproc: usize) -> Corpus {
    let mut entries = Vec::new();
    for e in dags::algorithm_dags(&CORPUS) {
        let copies = if e.family == "autoencoder" { AE_COPIES } else { 1 };
        for c in 0..copies {
            let label = if copies > 1 { format!("{}.{c}", e.label) } else { e.label.clone() };
            entries.push(Entry { family: e.family, label, dag: e.dag.clone() });
        }
    }
    entries.extend(dags::fig8_dags(1_000, 50));
    let mut rng = Rng::new(mix(seed, 6));
    for i in 0..RANDOM_DAGS {
        entries.push(Entry {
            family: "random",
            label: format!("random#{i}"),
            dag: dags::random_dag(&mut rng, RANDOM_OPS),
        });
    }
    let refs: Vec<&HopDag> = entries.iter().map(|e| &e.dag).collect();
    // Inputs in [0, 1): every corpus expression stays finite on them.
    let bindings = dags::bindings_for(&refs, mix(seed, 7), 0.0, 1.0);
    let want = entries.iter().zip(&bindings).map(|(e, b)| interp::interpret(&e.dag, b)).collect();
    Corpus { entries, bindings, want, engine: engine(nproc, 1, false) }
}

pub fn recompile(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (c, setup) = timed_setup(|| corpus(ctx.seed, ctx.nproc));
    let tr = &ctx.tracer;
    let mut rng = Rng::new(mix(ctx.seed, 8));
    let mut order: Vec<usize> = (0..c.entries.len()).collect();
    let (mut compile_ms, mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_entry: Vec<Vec<f64>> = vec![Vec::new(); c.entries.len()];
    let t0 = Instant::now();
    let mut round = 0u64;
    while round == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        rng.shuffle(&mut order);
        let traced = ctx.trace && round % 2 == 1;
        for &i in &order {
            let e = &c.entries[i];
            let req = compile_ms.len() as u64;
            let op = traced.then(|| tr.open(&format!("recompile.{}", e.family), None, req));
            let r = guarded(|| {
                let inner =
                    op.as_ref().map(|o| tr.open("runtime.engine.try_compile", Some(o.id()), req));
                let start = Instant::now();
                let script = c.engine.try_compile(&e.dag);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if let Some(x) = inner {
                    tr.close(x);
                }
                let script = script.map_err(|x| format!("{}: {x}", e.label))?;
                let out =
                    script.try_execute(&c.bindings[i]).map_err(|x| format!("{}: {x}", e.label))?;
                check::compare_values(out.values(), &c.want[i], DAG_TOL)
                    .map_err(|m| format!("{}: {m}", e.label))?;
                Ok(ms)
            });
            if let Some(o) = op {
                tr.close(o);
            }
            match r {
                Ok(ms) => {
                    compile_ms.push(ms);
                    per_entry[i].push(ms);
                    if ctx.trace {
                        if traced {
                            traced_ms.push(ms)
                        } else {
                            untraced_ms.push(ms)
                        }
                    }
                    report.record(Ok(()));
                }
                Err(m) => report.record(Err(m)),
            }
        }
        round += 1;
    }
    // Throughput of a typical round: each corpus entry at its median
    // compile time, so one preempted compile moves only its own entry.
    let sum_medians = |v: &[Vec<f64>]| -> f64 {
        v.iter().map(|x| stats::summarize(x).map_or(0.0, |s| s.median)).sum()
    };
    let n = c.entries.len() as f64;
    let round_s = sum_medians(&per_entry) / 1e3;
    report.common_e2e_samples(&setup, &compile_ms, n / round_s.max(1e-9));
    report.detail_median("compile_ms_p50", "ms", &compile_ms);
    report.detail_percentile("compile_ms_p90", "ms", &compile_ms, 90.0);
    report.detail("compiles", "count", compile_ms.len() as f64, None);
    if ctx.trace {
        let mut acc = Acc::default();
        read_counters(&c.engine, &mut acc);
        let med = |v: &[f64]| stats::summarize(v).map_or(0.0, |s| s.median);
        acc.set("trace.overhead_ms", med(&traced_ms) - med(&untraced_ms));
        // Each corpus DAG once: the AutoEncoder copies are identical.
        let keep: Vec<usize> = (0..c.entries.len())
            .filter(|&i| c.entries[i].family != "autoencoder" || c.entries[i].label.ends_with(".0"))
            .collect();
        let entries: Vec<Entry> = keep
            .iter()
            .map(|&i| {
                let e = &c.entries[i];
                Entry { family: e.family, label: e.label.clone(), dag: e.dag.clone() }
            })
            .collect();
        let bindings: Vec<Bindings> = keep.iter().map(|&i| c.bindings[i].clone()).collect();
        let mut est = layer_pass(ctx, &entries, &bindings, 1, &mut report, &mut acc);
        finish_layers(&mut report, acc, compile_ms.len() as f64, &mut est);
    }
    report
}

// ---------------------------------------------------------------- score --

struct Scorer {
    script: fusedml_runtime::CompiledScript,
    requests: Vec<Bindings>,
    /// Interpreter outputs per request input.
    want: Vec<Vec<Value>>,
}

/// One served request: latency, completion time since the loop started,
/// whether it was traced, and its checked outcome.
struct Served {
    ms: f64,
    done_s: f64,
    traced: bool,
    result: Result<(), String>,
}

/// Serves `per_client` requests (or until `deadline`) from `nproc`
/// closed-loop clients.
fn serve(
    s: &Scorer,
    nproc: usize,
    per_client: Option<usize>,
    deadline: Option<Instant>,
    check_outputs: bool,
    tr: Option<&Tracer>,
) -> Vec<Served> {
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc)
            .map(|k| {
                scope.spawn(move || {
                    let _scope = s.script.engine().scope();
                    let mut out = Vec::new();
                    let mut j = 0usize;
                    loop {
                        if per_client.is_some_and(|n| j >= n)
                            || deadline.is_some_and(|d| Instant::now() >= d)
                        {
                            break;
                        }
                        let i = (k + j * nproc) % s.requests.len();
                        let traced = tr.is_some() && j % 2 == 1;
                        let req = ((k as u64) << 32) | j as u64;
                        let open = tr
                            .filter(|_| traced)
                            .map(|t| t.open("runtime.compiled.try_execute", None, req));
                        let start = Instant::now();
                        let res = guarded(|| {
                            s.script.try_execute(&s.requests[i]).map_err(|e| e.to_string())
                        });
                        let ms = start.elapsed().as_secs_f64() * 1e3;
                        if let (Some(t), Some(o)) = (tr, open) {
                            t.close(o);
                        }
                        let checked = res.and_then(|o| {
                            let v = o.into_values();
                            let r = if check_outputs {
                                check::compare_values(&v, &s.want[i], DAG_TOL)
                            } else {
                                Ok(())
                            };
                            v.into_iter().for_each(Value::recycle);
                            r
                        });
                        let done_s = origin.elapsed().as_secs_f64();
                        out.push(Served { ms, done_s, traced, result: checked });
                        j += 1;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client threads contain panics")).collect()
    })
}

fn scorer(seed: u64, nproc: usize) -> Scorer {
    let (batch, features, classes) = SCORE;
    let e = engine(nproc, 1, true);
    let script = e.compile(&dags::scorer(batch, features, classes));
    let w = generate::rand_dense(features, classes, -0.5, 0.5, mix(seed, 9));
    let requests: Vec<Bindings> = (0..SCORE_POOL as u64)
        .map(|i| {
            let mut b = Bindings::new();
            b.insert(
                "X".into(),
                generate::rand_dense(batch, features, -1.0, 1.0, mix(seed, 100 + i)),
            );
            b.insert("W".into(), w.clone());
            b
        })
        .collect();
    let want = requests.iter().map(|b| interp::interpret(script.dag(), b)).collect();
    let s = Scorer { script, requests, want };
    serve(&s, nproc, Some(SCORE_WARMUP), None, false, None);
    s
}

pub fn score(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (s, setup) = timed_setup(|| scorer(ctx.seed, ctx.nproc));
    let t0 = Instant::now();
    let deadline = t0 + std::time::Duration::from_secs_f64(ctx.seconds);
    let results =
        serve(&s, ctx.nproc, None, Some(deadline), true, ctx.trace.then_some(&ctx.tracer));
    let wall = t0.elapsed().as_secs_f64();
    let mut lat = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let window_s = ctx.seconds / SCORE_WINDOWS as f64;
    // Per window: completions and the first and last completion time.
    let mut per_window = [(0usize, f64::INFINITY, 0.0f64); SCORE_WINDOWS];
    for r in results {
        if r.result.is_ok() {
            lat.push(r.ms);
            if r.traced {
                traced_ms.push(r.ms)
            } else {
                untraced_ms.push(r.ms)
            }
            // Requests in flight at the deadline count in the last window.
            let w = &mut per_window[((r.done_s / window_s) as usize).min(SCORE_WINDOWS - 1)];
            *w = (w.0 + 1, w.1.min(r.done_s), w.2.max(r.done_s));
        }
        report.record(r.result);
    }
    let rates: Vec<f64> = per_window
        .iter()
        .filter(|w| w.0 >= 2 && w.2 > w.1)
        .map(|&(n, first, last)| (n - 1) as f64 / (last - first))
        .collect();
    let rate = stats::summarize(&rates).map_or(0.0, |s| s.median);
    report.common_e2e_samples(&setup, &lat, rate);
    report.detail("score_rps", "1/s", lat.len() as f64 / wall, None);
    report.detail_median("score_ms_p50", "ms", &lat);
    report.detail_percentile("score_ms_p99", "ms", &lat, 99.0);
    report.detail("requests", "count", lat.len() as f64, None);
    if ctx.trace {
        let mut acc = Acc::default();
        read_counters(s.script.engine(), &mut acc);
        let med = |v: &[f64]| stats::summarize(v).map_or(0.0, |s| s.median);
        acc.set("trace.overhead_ms", med(&traced_ms) - med(&untraced_ms));
        let entries =
            vec![Entry { family: "scorer", label: "scorer".into(), dag: s.script.dag().clone() }];
        let bindings = vec![s.requests[0].clone()];
        let mut est = layer_pass(ctx, &entries, &bindings, 1, &mut report, &mut acc);
        let ops = (lat.len() + SCORE_WARMUP * ctx.nproc) as f64;
        finish_layers(&mut report, acc, ops, &mut est);
    }
    report
}
