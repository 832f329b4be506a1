//! Small dense-tensor helpers on top of `apa_gemm::Mat<f32>`:
//! transposition and column reductions.

use apa_gemm::{Mat, MatRef};

/// Materialized transpose — delegates to the blocked kernel in `apa-gemm`
/// (our gemm consumes row-major non-transposed operands, so the NN code
/// transposes explicitly where BLAS would use a `trans` flag).
pub fn transpose(a: MatRef<'_, f32>) -> Mat<f32> {
    apa_gemm::transpose(a)
}

/// Column sums into `out` (resized to `x.cols()`) — the bias gradient
/// `db[j] = Σ_i dZ[i][j]`.
pub fn col_sums_into(x: MatRef<'_, f32>, out: &mut Vec<f32>) {
    out.clear();
    out.resize(x.cols(), 0.0);
    for i in 0..x.rows() {
        for (o, &v) in out.iter_mut().zip(x.row(i)) {
            *o += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_roundtrip() {
        let a = Mat::from_fn(5, 7, |i, j| (i * 7 + j) as f32);
        let t = transpose(a.as_ref());
        assert_eq!((t.rows(), t.cols()), (7, 5));
        assert_eq!(t.at(3, 2), a.at(2, 3));
        let tt = transpose(t.as_ref());
        assert_eq!(tt, a);
    }

    #[test]
    fn transpose_large_blocked() {
        let a = Mat::from_fn(70, 45, |i, j| (i * 100 + j) as f32);
        let t = transpose(a.as_ref());
        for i in 0..70 {
            for j in 0..45 {
                assert_eq!(t.at(j, i), a.at(i, j));
            }
        }
    }

    #[test]
    fn column_sums() {
        let x = Mat::from_fn(4, 3, |i, _| i as f32);
        let mut out = vec![9.0; 7];
        col_sums_into(x.as_ref(), &mut out);
        assert_eq!(out, vec![6.0, 6.0, 6.0]);
    }
}
