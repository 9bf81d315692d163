//! Reference comparison of program outputs.

use fusedml_linalg::matrix::Value;
use fusedml_linalg::{approx_eq, Matrix};

/// Relative tolerance for one DAG execution against the reference
/// interpreter: generated kernels may reorder floating-point reductions.
pub const DAG_TOL: f64 = 1e-9;

/// Relative tolerance for a trained objective against the `Base` run: many
/// iterations compound the reordering.
pub const TRAIN_TOL: f64 = 1e-6;

/// Compares two matrices cell by cell within `tol` (absolute below 1,
/// relative above), independent of dense or sparse format.
pub fn compare_matrix(got: &Matrix, want: &Matrix, tol: f64) -> Result<(), String> {
    if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
        return Err(format!(
            "shape {}x{} != reference {}x{}",
            got.rows(),
            got.cols(),
            want.rows(),
            want.cols()
        ));
    }
    let (g, w) = (got.to_dense(), want.to_dense());
    for (i, (&a, &b)) in g.values().iter().zip(w.values()).enumerate() {
        if !approx_eq(a, b, tol) {
            let cols = got.cols().max(1);
            return Err(format!("cell ({}, {}) = {a} != reference {b}", i / cols, i % cols));
        }
    }
    Ok(())
}

/// Compares root values in order: a scalar matches a 1×1 matrix.
pub fn compare_values(got: &[Value], want: &[Value], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} outputs != reference {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        compare_matrix(&g.as_matrix(), &w.as_matrix(), tol)
            .map_err(|e| format!("output {i}: {e}"))?;
    }
    Ok(())
}

/// Compares one scalar result.
pub fn compare_scalar(got: f64, want: f64, tol: f64) -> Result<(), String> {
    if approx_eq(got, want, tol) {
        Ok(())
    } else {
        Err(format!("{got} != reference {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_linalg::{generate, DenseMatrix};

    #[test]
    fn identical_and_reordered_outputs_pass() {
        let m = generate::rand_dense(20, 7, -1.0, 1.0, 3);
        let vals = vec![Value::Matrix(m.clone()), Value::Scalar(2.5)];
        assert!(compare_values(&vals, &vals, DAG_TOL).is_ok());
        // A reduction reordered in the last bits still passes.
        let nudged = vec![Value::Matrix(m), Value::Scalar(2.5 * (1.0 + 1e-13))];
        assert!(compare_values(&nudged, &vals, DAG_TOL).is_ok());
        // A scalar matches a 1×1 matrix holding the same value.
        let one = vec![Value::Matrix(Matrix::dense(DenseMatrix::filled(1, 1, 4.0)))];
        assert!(compare_values(&one, &[Value::Scalar(4.0)], DAG_TOL).is_ok());
    }

    #[test]
    fn perturbed_output_is_rejected() {
        let m = generate::rand_dense(16, 5, 1.0, 2.0, 9);
        let mut d = m.to_dense();
        d.values_mut()[37] *= 1.0 + 1e-6;
        let err = compare_matrix(&Matrix::dense(d), &m, DAG_TOL).unwrap_err();
        assert!(err.contains("(7, 2)"), "{err}");
        assert!(compare_scalar(1.0 + 1e-5, 1.0, TRAIN_TOL).is_err());
        assert!(compare_scalar(1.0 + 1e-8, 1.0, TRAIN_TOL).is_ok());
    }

    #[test]
    fn shape_and_arity_mismatches_are_rejected() {
        let a = generate::rand_dense(4, 4, 0.0, 1.0, 1);
        let b = generate::rand_dense(4, 3, 0.0, 1.0, 1);
        assert!(compare_matrix(&a, &b, DAG_TOL).is_err());
        let one = vec![Value::Matrix(a.clone())];
        let two = vec![Value::Matrix(a.clone()), Value::Matrix(a)];
        assert!(compare_values(&one, &two, DAG_TOL).is_err());
    }

    #[test]
    fn sparse_and_dense_forms_compare_equal() {
        let s = generate::rand_matrix(30, 30, 1.0, 2.0, 0.05, 4);
        assert!(s.is_sparse());
        let d = Matrix::dense(s.to_dense());
        assert!(compare_matrix(&s, &d, DAG_TOL).is_ok());
    }
}
