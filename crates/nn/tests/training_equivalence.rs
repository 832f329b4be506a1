//! Bitwise equivalence of the buffered training step with the per-layer
//! adapters.
//!
//! [`Mlp::train_batch`] runs on buffers the layers and the network own and
//! skips the first layer's input gradient. A network driven instead
//! through the owned-`Mat` [`Dense::forward`] / [`Dense::backward`] /
//! [`Dense::apply_sgd`] adapters, layer by layer and including the unused
//! first-layer `dX`, must end every step with bitwise the same loss,
//! weights and biases — on classical, APA and sentinel-guarded backends,
//! with ragged layer widths and a ragged batch.

use apa_core::catalog;
use apa_gemm::Mat;
use apa_nn::{apa, classical, guarded, softmax_cross_entropy, Backend, Mlp};

const WIDTHS: [usize; 5] = [37, 53, 29, 41, 7];
const BATCH: usize = 45;
const LR: f32 = 0.05;
const STEPS: usize = 4;

fn batch(seed: u64) -> (Mat<f32>, Vec<u8>) {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let x = Mat::from_fn(BATCH, WIDTHS[0], |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    });
    let classes = WIDTHS[WIDTHS.len() - 1];
    let labels = (0..BATCH).map(|i| ((i * 5 + 3) % classes) as u8).collect();
    (x, labels)
}

/// One step through the per-layer adapters, in `train_batch` order.
fn adapter_step(net: &mut Mlp, x: &Mat<f32>, labels: &[u8]) -> f32 {
    let mut cur = x.clone();
    for layer in &mut net.layers {
        cur = layer.forward(&cur);
    }
    let (loss, mut grad) = softmax_cross_entropy(&cur, labels);
    for layer in net.layers.iter_mut().rev() {
        grad = layer.backward(&grad);
    }
    for layer in &mut net.layers {
        layer.apply_sgd(LR);
    }
    loss
}

fn assert_same_parameters(a: &Mlp, b: &Mlp, what: &str, step: usize) {
    for (l, (la, lb)) in a.layers.iter().zip(&b.layers).enumerate() {
        let same_w =
            la.w.as_slice()
                .iter()
                .zip(lb.w.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        let same_b =
            la.b.iter()
                .zip(&lb.b)
                .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same_w, "{what}: layer {l} weights differ after step {step}");
        assert!(same_b, "{what}: layer {l} biases differ after step {step}");
    }
}

/// `make` builds one fresh backend per layer, so the two networks share
/// no backend state.
fn check(what: &str, make: impl Fn() -> Backend) {
    let backends = || (0..WIDTHS.len() - 1).map(|_| make()).collect::<Vec<_>>();
    let mut buffered = Mlp::new(&WIDTHS, backends(), 17);
    let mut layered = Mlp::new(&WIDTHS, backends(), 17);
    for step in 0..STEPS {
        let (x, labels) = batch(step as u64);
        let (loss, _) = buffered.train_batch(&x, &labels, LR);
        let expect = adapter_step(&mut layered, &x, &labels);
        assert_eq!(
            loss.to_bits(),
            expect.to_bits(),
            "{what}: loss differs at step {step} ({loss} vs {expect})"
        );
        assert_same_parameters(&buffered, &layered, what, step);
    }
}

#[test]
fn classical_train_batch_matches_per_layer_adapters() {
    check("classical", || classical(1));
}

#[test]
fn apa_train_batch_matches_per_layer_adapters() {
    check("bini322", || apa(catalog::bini322(), 1));
    check("fast444", || apa(catalog::fast444(), 1));
}

#[test]
fn guarded_train_batch_matches_per_layer_adapters() {
    check("guarded bini322", || {
        guarded(catalog::bini322(), 1) as Backend
    });
}

#[test]
fn backward_only_then_sgd_matches_train_batch() {
    // The external-optimizer entry points run the same buffered path.
    let backends = || vec![classical(1); WIDTHS.len() - 1];
    let mut stepped = Mlp::new(&WIDTHS, backends(), 23);
    let mut split = Mlp::new(&WIDTHS, backends(), 23);
    for step in 0..STEPS {
        let (x, labels) = batch(100 + step as u64);
        stepped.train_batch(&x, &labels, LR);
        let logits = split.forward(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        split.backward_and_step(&grad, LR);
        assert_same_parameters(&stepped, &split, "backward_and_step", step);
    }
}
