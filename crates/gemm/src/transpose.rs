//! Transposition and the `op(A)·op(B)` GEMM front end.
//!
//! The blocked GEMM consumes row-major, non-transposed operands. BLAS-style
//! `trans` flags are provided here by materializing the transpose with a
//! cache-blocked kernel — the standard approach when the packing routines
//! are layout-specialized. NN backpropagation (`dW = Xᵀ·dZ`, `dX = dZ·Wᵀ`)
//! is the primary consumer.

use crate::matrix::{Mat, MatMut, MatRef};
use crate::parallel::gemm;
use crate::pool::Par;
use crate::scalar::Scalar;

/// Side of the tile moved by [`transpose_tile`]: 16 `f32` are one 64-byte
/// cache line, so a tile reads whole source lines and writes whole
/// destination lines. Smaller tiles write half lines, and a source or
/// destination with a power-of-two row stride maps all of a tile's rows
/// to one L1 set, which evicts a half-written line before its other half
/// arrives (an 8×8 tile measured 1.6–2× slower at 1024×1024).
const TILE: usize = 16;

/// Cache-tiled transposition: `dst = srcᵀ`. Full tiles go through a local
/// buffer (contiguous row reads, contiguous row writes); the ragged rim
/// is copied element by element.
pub fn transpose_into<T: Scalar>(src: MatRef<'_, T>, mut dst: MatMut<'_, T>) {
    let (r, c) = (src.rows(), src.cols());
    assert_eq!(dst.rows(), c, "transpose shape mismatch");
    assert_eq!(dst.cols(), r, "transpose shape mismatch");
    for i in (0..r).step_by(TILE) {
        for j in (0..c).step_by(TILE) {
            if i + TILE <= r && j + TILE <= c {
                transpose_tile(&src, &mut dst, i, j);
            } else {
                for ii in i..(i + TILE).min(r) {
                    let row = &src.row(ii)[j..(j + TILE).min(c)];
                    for (jj, &v) in (j..).zip(row) {
                        dst.row_mut(jj)[ii] = v;
                    }
                }
            }
        }
    }
}

/// `dst[j..j+TILE][i..i+TILE] = src[i..i+TILE][j..j+TILE]ᵀ`.
#[inline(always)]
fn transpose_tile<T: Scalar>(src: &MatRef<'_, T>, dst: &mut MatMut<'_, T>, i: usize, j: usize) {
    let mut tile = [[T::ZERO; TILE]; TILE];
    for (a, row) in tile.iter_mut().enumerate() {
        row.copy_from_slice(&src.row(i + a)[j..j + TILE]);
    }
    for b in 0..TILE {
        let out = &mut dst.row_mut(j + b)[i..i + TILE];
        for (o, row) in out.iter_mut().zip(&tile) {
            *o = row[b];
        }
    }
}

/// Allocate-and-return transpose.
pub fn transpose<T: Scalar>(src: MatRef<'_, T>) -> Mat<T> {
    let mut dst = Mat::zeros(src.cols(), src.rows());
    transpose_into(src, dst.as_mut());
    dst
}

/// Operand orientation for [`gemm_op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    NoTrans,
    Trans,
}

/// `C ← α·op(A)·op(B) + β·C`, BLAS-style. Transposed operands are
/// materialized once (O(n²) traffic against the O(n³) multiply).
#[allow(clippy::too_many_arguments)]
pub fn gemm_op<T: Scalar>(
    op_a: Op,
    op_b: Op,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    par: Par,
) {
    match (op_a, op_b) {
        (Op::NoTrans, Op::NoTrans) => gemm(alpha, a, b, beta, c, par),
        (Op::Trans, Op::NoTrans) => {
            let at = transpose(a);
            gemm(alpha, at.as_ref(), b, beta, c, par);
        }
        (Op::NoTrans, Op::Trans) => {
            let bt = transpose(b);
            gemm(alpha, a, bt.as_ref(), beta, c, par);
        }
        (Op::Trans, Op::Trans) => {
            let at = transpose(a);
            let bt = transpose(b);
            gemm(alpha, at.as_ref(), bt.as_ref(), beta, c, par);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::matmul_naive;

    fn numbered(rows: usize, cols: usize) -> Mat<f64> {
        Mat::from_fn(rows, cols, |i, j| (i * cols + j) as f64 + 1.0)
    }

    #[test]
    fn transpose_small_and_blocked() {
        for (r, c) in [(3, 5), (33, 40), (64, 64), (1, 7)] {
            let a = numbered(r, c);
            let t = transpose(a.as_ref());
            assert_eq!((t.rows(), t.cols()), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.at(j, i), a.at(i, j));
                }
            }
        }
    }

    #[test]
    fn transpose_of_subview() {
        let big = numbered(10, 10);
        let v = big.as_ref().subview(2, 3, 4, 5);
        let t = transpose(v);
        assert_eq!(t.at(0, 0), big.at(2, 3));
        assert_eq!(t.at(4, 3), big.at(5, 7));
    }

    #[test]
    fn gemm_op_all_orientations() {
        // Build shapes so every orientation computes a 4×6 result.
        let m = 4;
        let k = 5;
        let n = 6;
        let a = numbered(m, k);
        let b = numbered(k, n);
        let at = transpose(a.as_ref());
        let bt = transpose(b.as_ref());
        let expect = matmul_naive(a.as_ref(), b.as_ref());

        let run = |op_a, op_b, av: &Mat<f64>, bv: &Mat<f64>| {
            let mut c = Mat::<f64>::zeros(m, n);
            gemm_op(
                op_a,
                op_b,
                1.0,
                av.as_ref(),
                bv.as_ref(),
                0.0,
                c.as_mut(),
                Par::Seq,
            );
            assert!(c.rel_frobenius_error(&expect) < 1e-13, "{op_a:?},{op_b:?}");
        };
        run(Op::NoTrans, Op::NoTrans, &a, &b);
        run(Op::Trans, Op::NoTrans, &at, &b);
        run(Op::NoTrans, Op::Trans, &a, &bt);
        run(Op::Trans, Op::Trans, &at, &bt);
    }

    #[test]
    fn gemm_op_respects_alpha_beta() {
        let a = numbered(3, 3);
        let at = transpose(a.as_ref());
        let b = numbered(3, 3);
        let mut c = Mat::from_fn(3, 3, |_, _| 1.0);
        gemm_op(
            Op::Trans,
            Op::NoTrans,
            2.0,
            at.as_ref(),
            b.as_ref(),
            -1.0,
            c.as_mut(),
            Par::Seq,
        );
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.at(i, j) - (2.0 * expect.at(i, j) - 1.0)).abs() < 1e-12);
            }
        }
    }
}
