//! Runtime calibration of the cost model's bandwidth constants
//! (DESIGN.md substitution X5).
//!
//! The paper uses the cluster's nominal peaks (32 GB/s read, 115 GFLOP/s per
//! node) and STREAM measurements. The cost model only needs *ratios* to rank
//! plans, but calibrated constants make the local/distributed crossover
//! points meaningful on the host actually running the benchmarks.

use crate::opt::cost::CostModel;
use crate::spoof::block::{self, BlockEval, TileCtx, TileSrc};
use crate::spoof::{Instr, Program, SideAccess};
use fusedml_linalg::ops::BinaryOp;
use fusedml_linalg::primitives as prim;
use std::time::Instant;

/// Measures approximate read/write/compute bandwidths plus the block
/// backend's per-cell dispatch overhead with short micro-benchmarks and
/// returns a calibrated [`CostModel`].
///
/// * read: streaming sum over a large buffer,
/// * write: `fill` of a large buffer,
/// * compute: fused multiply-add chain on registers,
/// * dispatch: tile-evaluated `a⊙b` program vs the raw fused loop.
pub fn calibrate() -> CostModel {
    let n = 8usize << 20; // 8 Mi doubles = 64 MB
    let buf = vec![1.0f64; n];

    // Read bandwidth.
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for chunk in buf.chunks(1024) {
        acc += chunk.iter().sum::<f64>();
    }
    std::hint::black_box(acc);
    let read_bw = (n * 8) as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Write bandwidth.
    let mut out = vec![0.0f64; n];
    let t0 = Instant::now();
    out.fill(2.0);
    std::hint::black_box(&out);
    let write_bw = (n * 8) as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Compute bandwidth (FLOP/s): independent FMA chains on registers.
    let iters = 4usize << 20;
    let t0 = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1.0f64, 1.000001f64, 0.999999f64, 1.0000001f64);
    for _ in 0..iters {
        a = a * 0.9999999 + 1e-7;
        b = b * 0.9999998 + 2e-7;
        c = c * 0.9999997 + 3e-7;
        d = d * 0.9999996 + 4e-7;
    }
    std::hint::black_box((a, b, c, d));
    let compute_bw = (iters * 8) as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let compute_bw = compute_bw.clamp(1e8, 1e12);

    // Per-cell dispatch overhead of the generated-operator backend: the
    // tile-evaluated `a * b[cell]` program against the raw dot-product loop
    // over the same data, expressed in FLOP-equivalents per cell.
    let dispatch = dispatch_overhead_flops(compute_bw);

    // Per-row dispatch overhead of the Row backend.
    let row_dispatch = row_dispatch_overhead_flops(compute_bw);

    CostModel {
        read_bw: read_bw.clamp(1e9, 1e12),
        write_bw: write_bw.clamp(5e8, 1e12),
        compute_bw,
        fused_dispatch_flops: dispatch,
        row_dispatch_flops: row_dispatch,
        dist: None,
    }
}

/// Measures the Row backend's per-row overhead — the per-row scalar
/// prologue/dispatch the band-lowered kernel replays for every main-input
/// row (the vector work itself streams at full bandwidth) — and converts it
/// to FLOP-equivalents under the measured compute bandwidth.
fn row_dispatch_overhead_flops(compute_bw: f64) -> f64 {
    // A representative per-row scalar tail: side load + two scalar ops, the
    // mlogreg `w[r] * g(dot)` shape.
    let prog = Program {
        instrs: vec![
            Instr::LoadSide { out: 0, side: 0, access: SideAccess::Col },
            Instr::LoadConst { out: 1, value: 0.5 },
            Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
            Instr::Binary { out: 3, op: BinaryOp::Add, a: 2, b: 1 },
        ],
        n_regs: 4,
        vreg_lens: vec![],
    };
    let rows = 64usize << 10;
    let mut regs = vec![0.0f64; 4];
    let side = |_: usize, _: SideAccess| 1.25f64;
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..rows {
        crate::spoof::eval_scalar_program(&prog, &mut regs, 0.0, 0.0, &side, &[]);
        acc += regs[3];
    }
    std::hint::black_box(acc);
    let per_row = t0.elapsed().as_secs_f64() / rows as f64;
    (per_row * compute_bw).clamp(4.0, 512.0)
}

/// Measures the block evaluator's per-cell overhead over a raw fused loop
/// and converts it to FLOP-equivalents under the measured compute bandwidth.
fn dispatch_overhead_flops(compute_bw: f64) -> f64 {
    let n = 64usize << 10; // 64 Ki doubles — resident in L2
    let x: Vec<f64> = (0..n).map(|i| 0.5 + (i % 17) as f64 * 0.25).collect();
    let y: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.125).collect();
    let reps = 48usize;

    // f(a) = a * b0[cell], full-sum fold — the minimal Cell program.
    let prog = Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
            Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
        ],
        n_regs: 3,
        vreg_lens: vec![],
    };
    let bp = block::lower(&prog);
    let width = block::DEFAULT_TILE_WIDTH;
    let mut ev = BlockEval::new(&bp, width);
    ev.set_invariants(&bp, &|_, _| 0.0, &[]);

    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..reps {
        for (xc, yc) in x.chunks(width).zip(y.chunks(width)) {
            let g = [TileSrc::Slice(yc)];
            let ctx = TileCtx { main: TileSrc::Slice(xc), uv: TileSrc::Const(0.0), gathers: &g };
            ev.eval_body(&bp, &ctx, xc.len());
            acc = block::fold_result(
                fusedml_linalg::ops::AggOp::Sum,
                acc,
                ev.value_of(&bp, 2, &ctx, xc.len()),
                xc.len(),
            );
        }
    }
    std::hint::black_box(acc);
    let t_block = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..reps {
        acc += prim::dot_product(&x, &y, 0, 0, n);
    }
    std::hint::black_box(acc);
    let t_raw = t0.elapsed().as_secs_f64();

    let per_cell = (t_block - t_raw).max(0.0) / (n * reps) as f64;
    (per_cell * compute_bw).clamp(0.25, 24.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_constants_are_plausible() {
        let m = calibrate();
        // Any functioning machine reads ≥ 1 GB/s and computes ≥ 0.1 GFLOP/s.
        assert!(m.read_bw >= 1e9, "read {}", m.read_bw);
        assert!(m.write_bw >= 5e8, "write {}", m.write_bw);
        assert!(m.compute_bw >= 1e8, "compute {}", m.compute_bw);
    }

    #[test]
    fn calibrated_model_still_ranks_fusion_correctly() {
        use crate::explore::explore;
        use crate::opt::{cost, partitions};
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let m1 = b.mult(x, y);
        let s = b.sum(m1);
        let dag = b.build(vec![s]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let compute = cost::compute_costs(&dag);
        let model = calibrate();
        let fused =
            cost::PlanCoster::new(&dag, &memo, &parts[0], &compute, &model).cost(0, f64::INFINITY);
        let empty = crate::memo::MemoTable::new();
        let base =
            cost::PlanCoster::new(&dag, &empty, &parts[0], &compute, &model).cost(0, f64::INFINITY);
        assert!(fused < base, "fusion must stay cheaper under calibration");
    }
}
