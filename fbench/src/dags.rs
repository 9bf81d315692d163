//! The DAGs the benchmark compiles and replays, and seeded inputs for them.
//!
//! The per-iteration DAGs of the six algorithms are rebuilt here with the
//! public `DagBuilder`, shape for shape as the algorithm drivers build them,
//! so compile and kernel layers can be timed on exactly the work training
//! runs. The fig8 pattern DAGs come from the repository's experiment code.

use crate::rng::Rng;
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag, HopId, OpKind};
use fusedml_linalg::ops::{AggDir, AggOp, BinaryOp, UnaryOp};
use fusedml_linalg::{generate, Matrix};
use std::collections::HashMap;

/// One DAG with the family it is reported under.
pub struct Entry {
    pub family: &'static str,
    pub label: String,
    pub dag: HopDag,
}

impl Entry {
    fn new(family: &'static str, label: &str, dag: HopDag) -> Self {
        Entry { family, label: label.to_string(), dag }
    }
}

/// Geometry of the training inputs; the same shapes drive the per-layer
/// DAGs so compile and kernel layers see the sizes training sees.
#[derive(Clone, Copy, Debug)]
pub struct Shapes {
    /// Tall-skinny dense X: rows, cols.
    pub dense: (usize, usize),
    /// Sparse X for MLogreg: rows, cols, sparsity.
    pub sparse: (usize, usize, f64),
    /// ALS ratings: rows, cols, sparsity, rank.
    pub als: (usize, usize, f64, usize),
    /// AutoEncoder: batch, features, h1, h2.
    pub ae: (usize, usize, usize, usize),
    /// KMeans clusters.
    pub k: usize,
    /// MLogreg coefficient columns (classes - 1).
    pub k1: usize,
}

pub fn l2svm(n: usize, m: usize) -> Vec<HopDag> {
    let obj = {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let y = b.read("y", n, 1, 1.0);
        let w = b.read("w", m, 1, 1.0);
        let lam = b.read("lambda", 1, 1, 1.0);
        let xw = b.mm(x, w);
        let yxw = b.mult(y, xw);
        let one = b.lit(1.0);
        let out = b.sub(one, yxw);
        let zero = b.lit(0.0);
        let hinge = b.max(out, zero);
        let sq = b.sq(hinge);
        let s = b.sum(sq);
        let wsq = b.sq(w);
        let sw = b.sum(wsq);
        let half = b.lit(0.5);
        let t1 = b.mult(half, s);
        let reg0 = b.mult(lam, sw);
        let reg = b.mult(half, reg0);
        let o = b.add(t1, reg);
        b.build(vec![o])
    };
    let grad = {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let y = b.read("y", n, 1, 1.0);
        let w = b.read("w", m, 1, 1.0);
        let lam = b.read("lambda", 1, 1, 1.0);
        let xw = b.mm(x, w);
        let yxw = b.mult(y, xw);
        let one = b.lit(1.0);
        let out = b.sub(one, yxw);
        let zero = b.lit(0.0);
        let ind = b.gt(out, zero);
        let mask = b.mult(ind, out);
        let d = b.mult(y, mask);
        let xt = b.t(x);
        let xtd = b.mm(xt, d);
        let lw = b.mult(lam, w);
        let g = b.sub(lw, xtd);
        b.build(vec![g])
    };
    vec![obj, grad]
}

pub fn mlogreg(n: usize, m: usize, k1: usize, sp: f64) -> Vec<HopDag> {
    let prob = {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, sp);
        let beta = b.read("B", m, k1, 1.0);
        let eta = b.mm(x, beta);
        let e = b.exp(eta);
        let rs = b.row_sums(e);
        let one = b.lit(1.0);
        let denom = b.add(rs, one);
        let ones = b.read("ones", n, 1, 1.0);
        let full = b.cbind(e, ones);
        let p = b.div(full, denom);
        b.build(vec![p])
    };
    let grad = {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, sp);
        let p = b.read("P", n, k1 + 1, 1.0);
        let y = b.read("Y", n, k1, 1.0);
        let beta = b.read("B", m, k1, 1.0);
        let lam = b.read("lambda", 1, 1, 1.0);
        let pk = b.rix(p, None, Some((0, k1)));
        let diff = b.sub(pk, y);
        let xt = b.t(x);
        let g0 = b.mm(xt, diff);
        let reg = b.mult(lam, beta);
        let g = b.add(g0, reg);
        b.build(vec![g])
    };
    let hvp = {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, sp);
        let p = b.read("P", n, k1 + 1, 1.0);
        let v = b.read("v", m, k1, 1.0);
        let lam = b.read("lambda", 1, 1, 1.0);
        let xv = b.mm(x, v);
        let pk = b.rix(p, None, Some((0, k1)));
        let q = b.mult(pk, xv);
        let rs = b.row_sums(q);
        let prs = b.mult(pk, rs);
        let diff = b.sub(q, prs);
        let xt = b.t(x);
        let h0 = b.mm(xt, diff);
        let reg = b.mult(lam, v);
        let h = b.add(h0, reg);
        b.build(vec![h])
    };
    vec![prob, grad, hvp]
}

pub fn glm(n: usize, m: usize) -> Vec<HopDag> {
    let irls = {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let y = b.read("y", n, 1, 1.0);
        let beta = b.read("b", m, 1, 1.0);
        let lam = b.read("lambda", 1, 1, 1.0);
        let eta = b.mm(x, beta);
        let mu = b.sigmoid(eta);
        let w = b.unary(UnaryOp::Sprop, mu);
        let resid = b.sub(y, mu);
        let xt = b.t(x);
        let g0 = b.mm(xt, resid);
        let reg = b.mult(lam, beta);
        let g = b.sub(g0, reg);
        b.build(vec![g, w])
    };
    let hvp = {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let w = b.read("w", n, 1, 1.0);
        let v = b.read("v", m, 1, 1.0);
        let lam = b.read("lambda", 1, 1, 1.0);
        let xv = b.mm(x, v);
        let wxv = b.mult(w, xv);
        let xt = b.t(x);
        let h0 = b.mm(xt, wxv);
        let reg = b.mult(lam, v);
        let h = b.add(h0, reg);
        b.build(vec![h])
    };
    vec![irls, hvp]
}

pub fn kmeans(n: usize, m: usize, k: usize) -> Vec<HopDag> {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, 1.0);
    let c = b.read("C", k, m, 1.0);
    let ct = b.t(c);
    let xc = b.mm(x, ct);
    let neg2 = b.lit(-2.0);
    let xc2 = b.mult(xc, neg2);
    let csq = b.sq(c);
    let cn = b.agg(AggOp::Sum, AggDir::Row, csq);
    let cnt = b.t(cn);
    let d = b.add(xc2, cnt);
    let dmin = b.agg(AggOp::Min, AggDir::Row, d);
    let a = b.binary(BinaryOp::Eq, d, dmin);
    let wcss = b.sum(dmin);
    let at = b.t(a);
    let num = b.mm(at, x);
    let counts = b.col_sums(a);
    vec![b.build(vec![a, wcss, num, counts])]
}

pub fn alscg(n: usize, m: usize, sp: f64, r: usize) -> Vec<HopDag> {
    let grad = |left: bool| {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, sp);
        let u = b.read("U", n, r, 1.0);
        let v = b.read("V", m, r, 1.0);
        let lam = b.read("lambda", 1, 1, 1.0);
        let vt = b.t(v);
        let uvt = b.mm(u, vt);
        let zero = b.lit(0.0);
        let mask = b.neq(x, zero);
        let w = b.mult(mask, uvt);
        let (fused, plain, reg_of) = if left {
            let wt = b.t(w);
            let wu = b.mm(wt, u); // Outer left-mm
            let xt = b.t(x);
            (wu, b.mm(xt, u), v)
        } else {
            let wv = b.mm(w, v); // Outer right-mm
            (wv, b.mm(x, v), u)
        };
        let diff = b.sub(fused, plain);
        let reg = b.mult(lam, reg_of);
        let g = b.add(diff, reg);
        b.build(vec![g])
    };
    let loss = {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, sp);
        let u = b.read("U", n, r, 1.0);
        let v = b.read("V", m, r, 1.0);
        let vt = b.t(v);
        let uvt = b.mm(u, vt);
        let zero = b.lit(0.0);
        let mask = b.neq(x, zero);
        let plane_sq = b.sq(uvt);
        let t1m = b.mult(mask, plane_sq);
        let t1 = b.sum(t1m);
        let xp = b.mult(x, uvt);
        let t2 = b.sum(xp);
        let xsq = b.sq(x);
        let t3 = b.sum(xsq);
        let two = b.lit(2.0);
        let t22 = b.mult(two, t2);
        let part = b.sub(t1, t22);
        let loss = b.add(part, t3);
        b.build(vec![loss])
    };
    vec![grad(false), grad(true), loss]
}

/// The AutoEncoder's per-batch forward+backward DAG (outputs: loss and the
/// four weight gradients).
pub fn autoencoder(bsz: usize, m: usize, h1: usize, h2: usize) -> Vec<HopDag> {
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
    vec![b.build(vec![loss, dw1, dw2, dw3, dw4])]
}

/// The serving example's MLogreg scorer: class scores `X W` and the per-row
/// best score.
pub fn scorer(batch: usize, features: usize, classes: usize) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", batch, features, 1.0);
    let w = b.read("W", features, classes, 1.0);
    let scores = b.mm(x, w);
    let best = b.row_maxs(scores);
    b.build(vec![scores, best])
}

/// Every algorithm's per-iteration DAGs at the given geometry, by family.
pub fn algorithm_dags(s: &Shapes) -> Vec<Entry> {
    let (n, m) = s.dense;
    let (sn, sm, ssp) = s.sparse;
    let (an, am, asp, ar) = s.als;
    let (bsz, fm, h1, h2) = s.ae;
    let mut out = Vec::new();
    let mut push = |family: &'static str, dags: Vec<HopDag>| {
        for (i, d) in dags.into_iter().enumerate() {
            out.push(Entry::new(family, &format!("{family}#{i}"), d));
        }
    };
    push("l2svm", l2svm(n, m));
    push("mlogreg", mlogreg(n, m, s.k1, 1.0));
    push("glm", glm(n, m));
    push("kmeans", kmeans(n, m, s.k));
    push("alscg", alscg(an, am, asp, ar));
    push("mlogreg_sparse", mlogreg(sn, sm, s.k1, ssp));
    push("autoencoder", autoencoder(bsz, fm, h1, h2));
    out
}

/// The fig8 fusion-pattern DAGs (Cell, MultiAgg, Row, sparse Row, Outer).
pub fn fig8_dags(rows: usize, cols: usize) -> Vec<Entry> {
    use fusedml_bench::experiments::fig8;
    vec![
        Entry::new("fig8", "fig8.cell", fig8::cell_dag(rows, cols, 1.0).0),
        Entry::new("fig8", "fig8.magg", fig8::magg_dag(rows, cols, 1.0).0),
        Entry::new("fig8", "fig8.row", fig8::row_dag(rows, cols, 1, 1.0).0),
        Entry::new("fig8", "fig8.row_sparse", fig8::row_sparse_dag(rows, cols * 4, 0.02).0),
        Entry::new("fig8", "fig8.outer", fig8::outer_dag(cols * 4, cols * 4, 8, 0.05).0),
    ]
}

/// A seeded random DAG over `r × c` matrices and `c × 1` / `r × 1` vectors:
/// cell-wise chains, a matrix-vector product and its transpose product,
/// and aggregates as roots. Values stay bounded (no exp/log/division), so
/// every output is finite.
pub fn random_dag(rng: &mut Rng, ops: usize) -> HopDag {
    let r = 64 + rng.below(192) as usize;
    let c = 8 + rng.below(40) as usize;
    let mut b = DagBuilder::new();
    let mut mats: Vec<HopId> = vec![b.read("A", r, c, 1.0), b.read("B", r, c, 1.0)];
    if rng.below(2) == 0 {
        mats.push(b.read("S", r, c, 0.1));
    }
    let v = b.read("v", c, 1, 1.0);
    let mut cols: Vec<HopId> = vec![b.read("w", r, 1, 1.0)];
    let mut rows_out: Vec<HopId> = Vec::new();
    for _ in 0..ops {
        let pick = |rng: &mut Rng, xs: &[HopId]| xs[rng.below(xs.len() as u64) as usize];
        let node = match rng.below(8) {
            0..=3 => {
                let (a, bb) = (pick(rng, &mats), pick(rng, &mats));
                let op =
                    [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mult, BinaryOp::Max, BinaryOp::Min]
                        [rng.below(5) as usize];
                b.binary(op, a, bb)
            }
            4 | 5 => {
                let a = pick(rng, &mats);
                let op = [UnaryOp::Sigmoid, UnaryOp::Pow2, UnaryOp::Abs, UnaryOp::Sprop]
                    [rng.below(4) as usize];
                b.unary(op, a)
            }
            6 => {
                let a = pick(rng, &mats);
                let av = b.mm(a, v);
                let w = pick(rng, &cols);
                let col = b.mult(w, av);
                cols.push(col);
                continue;
            }
            _ => {
                let a = pick(rng, &mats);
                let w = pick(rng, &cols);
                let at = b.t(a);
                rows_out.push(b.mm(at, w));
                continue;
            }
        };
        mats.push(node);
    }
    let last = *mats.last().expect("the inputs seed the matrix list");
    let mut roots = vec![b.sum(last)];
    let rs = b.row_sums(mats[mats.len() / 2]);
    roots.push(rs);
    roots.extend(rows_out.last().copied());
    if cols.len() > 1 {
        roots.extend(cols.last().copied());
    }
    roots.dedup();
    b.build(roots)
}

/// Seeded inputs for every read of the given DAGs. Inputs with the same
/// name and geometry are shared, so DAGs of one family see one data set.
/// Values are uniform in `[lo, hi)` at each read's declared sparsity.
pub fn bindings_for(dags: &[&HopDag], seed: u64, lo: f64, hi: f64) -> Vec<Bindings> {
    let mut made: HashMap<(String, usize, usize, u64), Matrix> = HashMap::new();
    let mut salt = 0u64;
    dags.iter()
        .map(|dag| {
            let mut b = Bindings::new();
            for hop in dag.iter() {
                if let OpKind::Read { name } = &hop.kind {
                    let (rows, cols, sp) = (hop.size.rows, hop.size.cols, hop.size.sparsity);
                    let key = (name.clone(), rows, cols, sp.to_bits());
                    let m = made
                        .entry(key)
                        .or_insert_with(|| {
                            salt += 1;
                            let s = crate::rng::mix(seed, salt);
                            generate::rand_matrix(rows, cols, lo, hi, sp.clamp(0.0, 1.0), s)
                        })
                        .clone();
                    b.insert(name.clone(), m);
                }
            }
            b
        })
        .collect()
}
