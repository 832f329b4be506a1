//! `transpose_into` against a naive element loop: bitwise equal on ragged
//! shapes (full tiles, a ragged rim, and matrices smaller than one tile)
//! and on strided subviews (`row_stride > cols`) as source and as
//! destination, for `f32` and `f64`.

use apa_gemm::{transpose_into, Mat, MatMut, MatRef, Scalar};

const SHAPES: [(usize, usize); 9] = [
    (1, 1),
    (1, 19),
    (19, 1),
    (7, 5),
    (16, 16),
    (17, 33),
    (48, 31),
    (64, 80),
    (101, 67),
];

/// Distinct, exactly representable values, including −0.0 and a NaN
/// with a payload, so a bitwise comparison sees every element.
fn value<T: Scalar>(i: usize, j: usize) -> T {
    T::from_f64(match (i * 31 + j) % 97 {
        0 => -0.0,
        1 => f64::from_bits(0x7FF8_0000_1234_0000),
        k => (i * 1000 + j) as f64 * if k % 2 == 0 { 1.0 } else { -0.5 },
    })
}

fn naive<T: Scalar>(src: MatRef<'_, T>, mut dst: MatMut<'_, T>) {
    for i in 0..src.rows() {
        for j in 0..src.cols() {
            dst.set(j, i, src.at(i, j));
        }
    }
}

/// Widening to `f64` is exact and keeps signs and NaN payloads, so equal
/// `f64` bit patterns mean equal elements bit for bit.
fn assert_bitwise<T: Scalar>(got: MatRef<'_, T>, want: MatRef<'_, T>, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
    for i in 0..got.rows() {
        let same = got
            .row(i)
            .iter()
            .zip(want.row(i))
            .all(|(a, b)| a.to_f64().to_bits() == b.to_f64().to_bits());
        assert!(same, "{what}: row {i} differs");
    }
}

fn dense_shapes<T: Scalar>() {
    for (r, c) in SHAPES {
        let a = Mat::<T>::from_fn(r, c, value);
        let mut got = Mat::<T>::zeros(c, r);
        let mut want = Mat::<T>::zeros(c, r);
        transpose_into(a.as_ref(), got.as_mut());
        naive(a.as_ref(), want.as_mut());
        assert_bitwise(got.as_ref(), want.as_ref(), &format!("{r}x{c}"));
    }
}

fn strided_views<T: Scalar>() {
    for (r, c) in SHAPES {
        // Source: an interior block of a wider, taller matrix.
        let big = Mat::<T>::from_fn(r + 5, c + 9, value);
        let src = big.as_ref().subview(2, 3, r, c);
        assert!(src.row_stride() > src.cols());
        // Destination: an interior block of a larger buffer, whose
        // surroundings must stay untouched.
        let fill = T::from_f64(7.25);
        let mut got = Mat::<T>::from_fn(c + 4, r + 6, |_, _| fill);
        let mut want = got.clone();
        transpose_into(src, got.as_mut().into_subview(1, 2, c, r));
        naive(src, want.as_mut().into_subview(1, 2, c, r));
        assert_bitwise(got.as_ref(), want.as_ref(), &format!("strided {r}x{c}"));
    }
}

#[test]
fn transpose_matches_naive_on_ragged_shapes_f32() {
    dense_shapes::<f32>();
}

#[test]
fn transpose_matches_naive_on_ragged_shapes_f64() {
    dense_shapes::<f64>();
}

#[test]
fn transpose_matches_naive_on_strided_views_f32() {
    strided_views::<f32>();
}

#[test]
fn transpose_matches_naive_on_strided_views_f64() {
    strided_views::<f64>();
}
