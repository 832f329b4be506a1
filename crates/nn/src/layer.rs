//! Dense (fully connected) layers with pluggable matmul backends.
//!
//! Forward:  `Z = X·W + b`, `A = act(Z)` with `X: batch×in`, `W: in×out`.
//! Backward: `dZ = dA ⊙ act'(Z)`, `dW = Xᵀ·dZ`, `db = Σ_rows dZ`,
//!           `dX = dZ·Wᵀ`.
//!
//! The three matmuls (`X·W`, `Xᵀ·dZ`, `dZ·Wᵀ`) all route through the
//! layer's backend — exactly the multiplications the paper replaces with
//! APA operators in both propagation directions (§4.2).
//!
//! A layer owns every buffer its training step writes: the activation
//! `A` (the next layer's input), the transposed operands `Xᵀ` and `Wᵀ`,
//! and the gradients `dW` / `db`. [`crate::net::Mlp`] drives the
//! buffer-level entry points directly, so at a fixed batch size its
//! training step allocates nothing outside the backends; the owned-`Mat`
//! [`Dense::forward`] / [`Dense::backward`] are thin adapters over the
//! same kernels that allocate only the matrices they return.

use crate::backend::Backend;
use crate::tensor::col_sums_into;
use apa_gemm::{combine_axpy, transpose_into, Mat, MatRef};

/// Activation applied after the affine map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    Relu,
    /// No activation — used for the output layer feeding softmax-CE.
    Identity,
}

/// A dense layer with the buffers of its training step.
pub struct Dense {
    /// `in × out` weights.
    pub w: Mat<f32>,
    /// `out` biases.
    pub b: Vec<f32>,
    pub activation: Activation,
    backend: Backend,
    /// `act(X·W + b)` of the last training forward pass. It is the next
    /// layer's input, and `act <= 0` is the ReLU mask of the backward pass.
    pub(crate) act: Mat<f32>,
    /// `Xᵀ` of the last training forward pass: the left operand of
    /// `dW = Xᵀ·dZ`, so the backward pass needs no reference to `X`.
    xt: Mat<f32>,
    /// `Wᵀ`, the right operand of `dX = dZ·Wᵀ`.
    wt: Mat<f32>,
    /// Gradients of the last backward pass, until an update consumes them.
    pub grad_w: Option<Mat<f32>>,
    pub grad_b: Option<Vec<f32>>,
    /// Storage of consumed gradients, refilled by the next backward pass.
    spare_w: Mat<f32>,
    spare_b: Vec<f32>,
}

/// `Z[i][j] += b[j]`, then the activation, in one pass over `Z`.
fn add_bias_and_activate(z: &mut Mat<f32>, b: &[f32], activation: Activation) {
    assert_eq!(z.cols(), b.len());
    if b.is_empty() {
        return;
    }
    let rows = z.as_mut_slice().chunks_exact_mut(b.len());
    match activation {
        Activation::Relu => {
            for row in rows {
                for (v, &bias) in row.iter_mut().zip(b) {
                    let s = *v + bias;
                    *v = if s < 0.0 { 0.0 } else { s };
                }
            }
        }
        Activation::Identity => {
            for row in rows {
                for (v, &bias) in row.iter_mut().zip(b) {
                    *v += bias;
                }
            }
        }
    }
}

impl Dense {
    /// He-style initialization scaled for ReLU stacks, deterministic in
    /// `seed` (the reproduction needs bit-identical reruns).
    pub fn new(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        backend: Backend,
        seed: u64,
    ) -> Self {
        let scale = (2.0 / inputs as f64).sqrt();
        let mut state = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0x2545F4914F6CDD1D);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0
        };
        let w = Mat::from_fn(inputs, outputs, |_, _| (next() * scale) as f32);
        Self {
            w,
            b: vec![0.0; outputs],
            activation,
            backend,
            act: Mat::zeros(0, 0),
            xt: Mat::zeros(0, 0),
            wt: Mat::zeros(0, 0),
            grad_w: None,
            grad_b: None,
            spare_w: Mat::zeros(0, 0),
            spare_b: Vec::new(),
        }
    }

    pub fn inputs(&self) -> usize {
        self.w.rows()
    }

    pub fn outputs(&self) -> usize {
        self.w.cols()
    }

    pub fn backend_name(&self) -> String {
        self.backend.name()
    }

    /// Shared handle to the layer's current backend — used by the
    /// fallback-rerun path in [`crate::net::Mlp::train_batch`] to restore
    /// the original backends after a demoted step.
    pub fn backend(&self) -> Backend {
        self.backend.clone()
    }

    /// Swap the matmul backend (e.g. classical → APA) without touching the
    /// weights — used by the experiment harnesses to compare algorithms on
    /// identical networks.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// Training forward from a borrowed input: `Xᵀ` into the layer's
    /// transpose buffer and `act(X·W + b)` into its activation buffer,
    /// both resized in place.
    pub(crate) fn forward_buffered(&mut self, x: MatRef<'_, f32>) {
        assert_eq!(x.cols(), self.inputs(), "input width mismatch");
        self.act.resize(x.rows(), self.outputs());
        self.backend
            .matmul_into(x, self.w.as_ref(), self.act.as_mut());
        add_bias_and_activate(&mut self.act, &self.b, self.activation);
        self.xt.resize(x.cols(), x.rows());
        transpose_into(x, self.xt.as_mut());
    }

    /// Backward pass from `grad = dA`, which is turned into `dZ` in place.
    /// Stores `dW = Xᵀ·dZ` and `db` in the layer's gradient buffers, then
    /// writes `dX = dZ·Wᵀ` into `dx` when one is given (the first layer of
    /// a network has no consumer for it). `dW` is issued before `dX`.
    pub(crate) fn backward_buffered(&mut self, grad: &mut Mat<f32>, dx: Option<&mut Mat<f32>>) {
        assert_eq!(
            (grad.rows(), grad.cols()),
            (self.act.rows(), self.act.cols()),
            "backward() requires a prior forward() at the same batch size"
        );
        if self.activation == Activation::Relu {
            // `act <= 0` zeroes exactly the entries `z <= 0` would: ReLU
            // maps every `z <= 0` (−0.0 included) to a value `<= 0`, keeps
            // each positive `z`, and passes NaN through, which both tests
            // keep. A select rather than a branch: it vectorizes, and a
            // branch on ReLU signs mispredicts about half the time.
            for (g, &a) in grad.as_mut_slice().iter_mut().zip(self.act.as_slice()) {
                *g = if a <= 0.0 { 0.0 } else { *g };
            }
        }
        let mut dw = self
            .grad_w
            .take()
            .unwrap_or_else(|| std::mem::replace(&mut self.spare_w, Mat::zeros(0, 0)));
        dw.resize(self.inputs(), self.outputs());
        self.backend
            .matmul_into(self.xt.as_ref(), grad.as_ref(), dw.as_mut());
        let mut db = self
            .grad_b
            .take()
            .unwrap_or_else(|| std::mem::take(&mut self.spare_b));
        col_sums_into(grad.as_ref(), &mut db);
        self.grad_w = Some(dw);
        self.grad_b = Some(db);
        if let Some(dx) = dx {
            self.wt.resize(self.outputs(), self.inputs());
            transpose_into(self.w.as_ref(), self.wt.as_mut());
            dx.resize(grad.rows(), self.inputs());
            self.backend
                .matmul_into(grad.as_ref(), self.wt.as_ref(), dx.as_mut());
        }
    }

    /// Hand consumed gradient buffers back to the layer, so the next
    /// backward pass refills them instead of allocating.
    pub(crate) fn recycle_grads(&mut self, grad_w: Mat<f32>, grad_b: Vec<f32>) {
        self.spare_w = grad_w;
        self.spare_b = grad_b;
    }

    /// Forward pass; keeps what the backward pass needs. Returns a copy of
    /// the activations.
    pub fn forward(&mut self, x: &Mat<f32>) -> Mat<f32> {
        self.forward_buffered(x.as_ref());
        self.act.clone()
    }

    /// Inference-only forward: no caching, no clone of the input.
    pub fn forward_inference(&self, x: &Mat<f32>) -> Mat<f32> {
        let mut z = Mat::zeros(x.rows(), self.outputs());
        self.forward_inference_into(x.as_ref(), &mut z);
        z
    }

    /// Inference-only forward into a caller-owned output buffer (resized
    /// to `batch × outputs` in place). At a steady batch size the buffer —
    /// like the backend's workspace cache — is reused across calls, so the
    /// serving hot path performs no per-request heap allocation. Bitwise
    /// identical to [`Self::forward_inference`].
    pub fn forward_inference_into(&self, x: MatRef<'_, f32>, out: &mut Mat<f32>) {
        assert_eq!(x.cols(), self.inputs(), "input width mismatch");
        out.resize(x.rows(), self.outputs());
        self.backend.matmul_into(x, self.w.as_ref(), out.as_mut());
        add_bias_and_activate(out, &self.b, self.activation);
    }

    /// Warm the backend for the inference shapes of the given batch sizes
    /// (`batch × in · in × out`), so the first real forward pass at any of
    /// them is allocation-free. Must run on the inference thread — the
    /// gemm pack buffers it settles are thread-local.
    pub fn warm(&self, batch_sizes: &[usize]) {
        for &b in batch_sizes {
            self.backend.warm(&[(b, self.inputs(), self.outputs())]);
        }
    }

    /// Backward pass from `dA` (gradient w.r.t. this layer's output);
    /// stores `dW`/`db` and returns `dX`.
    pub fn backward(&mut self, grad_out: &Mat<f32>) -> Mat<f32> {
        let mut dz = grad_out.clone();
        let mut dx = Mat::zeros(0, 0);
        self.backward_buffered(&mut dz, Some(&mut dx));
        dx
    }

    /// SGD step: `W ← W − lr·dW` (fused multiply-add), `b ← b − lr·db`.
    /// The consumed gradients' storage stays with the layer.
    pub fn apply_sgd(&mut self, lr: f32) {
        let (Some(dw), Some(db)) = (self.grad_w.take(), self.grad_b.take()) else {
            return;
        };
        combine_axpy(self.w.as_mut(), true, &[(-lr, dw.as_ref())]);
        for (b, &g) in self.b.iter_mut().zip(&db) {
            *b -= lr * g;
        }
        self.recycle_grads(dw, db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::classical;

    fn layer(inputs: usize, outputs: usize, act: Activation) -> Dense {
        Dense::new(inputs, outputs, act, classical(1), 42)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer(4, 3, Activation::Identity);
        l.b = vec![1.0, 2.0, 3.0];
        let x = Mat::zeros(2, 4);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (2, 3));
        // Zero inputs → output equals bias.
        assert_eq!(y.at(0, 0), 1.0);
        assert_eq!(y.at(1, 2), 3.0);
    }

    #[test]
    fn relu_clamps_negative_preactivations() {
        let mut l = layer(1, 2, Activation::Relu);
        l.w = Mat::from_vec(1, 2, vec![1.0, -1.0]);
        let x = Mat::from_vec(1, 1, vec![2.0]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dW on a tiny layer with L = Σ output.
        let mut l = layer(3, 2, Activation::Relu);
        let x = Mat::from_fn(4, 3, |i, j| ((i + j) as f32 * 0.3) - 0.4);
        let y = l.forward(&x);
        let ones = Mat::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        l.backward(&ones);
        let analytic = l.grad_w.clone().unwrap();

        let eps = 1e-3f32;
        for (wi, wj) in [(0, 0), (1, 1), (2, 0)] {
            let orig = l.w.at(wi, wj);
            l.w.set(wi, wj, orig + eps);
            let lp: f32 = l.forward_inference(&x).as_slice().iter().sum();
            l.w.set(wi, wj, orig - eps);
            let lm: f32 = l.forward_inference(&x).as_slice().iter().sum();
            l.w.set(wi, wj, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.at(wi, wj);
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dW[{wi}][{wj}]: analytic {a}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradient_check_inputs() {
        let mut l = layer(3, 2, Activation::Identity);
        let x = Mat::from_fn(2, 3, |i, j| (i as f32 - j as f32) * 0.25);
        let _ = l.forward(&x);
        let ones = Mat::from_fn(2, 2, |_, _| 1.0);
        let dx = l.backward(&ones);
        // With identity activation and all-ones upstream gradient,
        // dX[i][j] = Σ_o W[j][o].
        for i in 0..2 {
            for j in 0..3 {
                let expect: f32 = (0..2).map(|o| l.w.at(j, o)).sum();
                assert!((dx.at(i, j) - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn sgd_moves_weights_against_gradient() {
        let mut l = layer(2, 2, Activation::Identity);
        let x = Mat::from_fn(1, 2, |_, _| 1.0);
        let _ = l.forward(&x);
        let g = Mat::from_fn(1, 2, |_, _| 1.0);
        l.backward(&g);
        let before = l.w.at(0, 0);
        let dw00 = l.grad_w.as_ref().unwrap().at(0, 0);
        l.apply_sgd(0.1);
        assert!((l.w.at(0, 0) - (before - 0.1 * dw00)).abs() < 1e-6);
        assert!(l.grad_w.is_none(), "gradients consumed by the step");
    }

    #[test]
    fn relu_mask_on_activations_matches_pre_activation_test() {
        // The backward pass masks by `act <= 0`; it must zero exactly the
        // entries a `z <= 0` test on the pre-activation zeroes, −0.0 and
        // NaN included.
        let z = [-1.0, -0.0, 0.0, 1e-40, 0.5, f32::NAN, f32::NEG_INFINITY];
        let n = z.len();
        let mut l = layer(1, n, Activation::Relu);
        // Adding −0.0 leaves every value, −0.0 included, unchanged.
        let mut act = Mat::from_vec(1, n, z.to_vec());
        add_bias_and_activate(&mut act, &vec![-0.0; n], Activation::Relu);
        l.act = act;
        l.xt = Mat::from_vec(1, 1, vec![1.0]);
        let mut grad = Mat::from_fn(1, n, |_, j| j as f32 + 2.0);
        let want: Vec<u32> = z
            .iter()
            .zip(grad.as_slice())
            .map(|(&z, &g)| if z <= 0.0 { 0.0f32 } else { g }.to_bits())
            .collect();
        l.backward_buffered(&mut grad, None);
        let got: Vec<u32> = grad.as_slice().iter().map(|g| g.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn deterministic_initialization() {
        let l1 = layer(5, 5, Activation::Relu);
        let l2 = layer(5, 5, Activation::Relu);
        assert_eq!(l1.w, l2.w);
    }
}
