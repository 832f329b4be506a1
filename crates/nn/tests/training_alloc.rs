//! Zero-allocation invariant for the training step.
//!
//! Installs [`apa_gemm::CountingAlloc`] as the global allocator, runs two
//! warm-up steps (the first sizes every layer's activation, transpose and
//! gradient buffers plus the network's loss and `dX` buffers; the second
//! settles the backends' workspace caches and thread-local pack buffers),
//! then asserts that further [`Mlp::train_batch`] steps at the same batch
//! size perform **zero** heap allocations on the calling thread — with
//! plain SGD, with a fallback backend installed, and with an
//! [`Optimizer`] making the update.

use apa_gemm::{thread_allocation_counters, Mat};
use apa_nn::{classical, guarded, Backend, Mlp, Optimizer, SgdConfig};

#[global_allocator]
static ALLOC: apa_gemm::CountingAlloc = apa_gemm::CountingAlloc;

fn batch(rows: usize, cols: usize, classes: usize, seed: u64) -> (Mat<f32>, Vec<u8>) {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let x = Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0) as f32
    });
    let labels = (0..rows).map(|i| (i % classes) as u8).collect();
    (x, labels)
}

/// Two warm steps, then `rounds` counted ones; panics on any allocation.
fn assert_warm_steps_allocation_free(what: &str, mut step: impl FnMut()) {
    step();
    step();
    let before = thread_allocation_counters();
    let rounds = 4;
    for _ in 0..rounds {
        step();
    }
    let delta = thread_allocation_counters().since(before);
    assert_eq!(
        delta.calls, 0,
        "{what}: {} allocations ({} bytes) across {rounds} warm training steps",
        delta.calls, delta.bytes
    );
}

fn classical_net() -> Mlp {
    Mlp::new(&[24, 32, 32, 10], vec![classical(1); 3], 11)
}

fn guarded_net() -> Mlp {
    let hidden: Backend = guarded(apa_core::catalog::bini322(), 1);
    Mlp::new(
        &[24, 30, 30, 10],
        vec![classical(1), hidden, classical(1)],
        13,
    )
}

/// One test function, so the cases run one after another on one thread:
/// a guarded multiply installs its ABFT session process-wide while it
/// runs, and an unguarded multiply on a concurrent test thread would pick
/// it up and allocate for checks it never asked for.
#[test]
fn warm_training_steps_do_not_allocate() {
    let (x, labels) = batch(30, 24, 10, 5);
    for (what, mut net) in [
        ("classical 24-32-32-10", classical_net()),
        ("guarded-bini322 24-30-30-10", guarded_net()),
    ] {
        assert_warm_steps_allocation_free(what, || {
            net.train_batch(&x, &labels, 0.05);
        });
    }

    for (what, net) in [
        ("classical + fallback", classical_net()),
        ("guarded-bini322 + fallback", guarded_net()),
    ] {
        let mut net = net.with_fallback(classical(1));
        assert_warm_steps_allocation_free(what, || {
            net.train_batch(&x, &labels, 0.05);
        });
        assert_eq!(net.degraded_batches(), 0, "{what}: healthy steps re-ran");
    }

    for (what, mut net) in [
        ("classical + momentum", classical_net()),
        ("guarded-bini322 + momentum", guarded_net()),
    ] {
        let mut opt = Optimizer::new(
            SgdConfig {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
            },
            &net,
        );
        assert_warm_steps_allocation_free(what, || {
            net.train_batch_with(&x, &labels, &mut opt);
        });
    }
}
