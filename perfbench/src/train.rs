//! `paradnn-train`: ParaDnn MLP `[784, 1024×4, 10]` training steps at
//! batch 1024 (the paper's Fig. 6). Hidden layers run on
//! `guarded(bini322, 2)`, edge layers on classical gemm, the gemm pool
//! has two lanes; closed loop of `train_batch` on one seeded batch.

use crate::calib;
use crate::decor::{self, Role, Traced};
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace;
use apa_core::catalog;
use apa_gemm::Mat;
use apa_matmul::{HealthStats, SentinelConfig};
use apa_nn::{guarded, performance_network, softmax_cross_entropy, Backend, GuardedBackend, Mlp};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WIDTH: usize = 1024;
pub const BATCH: usize = 1024;
pub const INPUTS: usize = 784;
pub const CLASSES: usize = 10;
pub const LANES: usize = 2;
pub const LR: f32 = 0.01;
/// Weights are part of the workload; the run's seed makes the batch.
pub const MODEL_SEED: u64 = 0x09A4_AD22;
const CHECK_ROWS: usize = 64;

pub struct Train {
    pub net: Mlp,
    pub guard: Arc<GuardedBackend>,
    pub x: Mat<f32>,
    pub labels: Vec<u8>,
}

/// The seeded synthetic batch: features in `[0, 1)`, labels in `0..10`.
pub fn batch(seed: u64) -> (Mat<f32>, Vec<u8>) {
    let mut rng = Rng::new(seed ^ 0xBA7C);
    let x = Mat::from_fn(BATCH, INPUTS, |_, _| rng.unit() as f32);
    let labels = (0..BATCH)
        .map(|_| (rng.next_u64() % CLASSES as u64) as u8)
        .collect();
    (x, labels)
}

/// Layer widths `[784, 1024, 1024, 1024, 1024, 10]`.
pub fn widths() -> Vec<usize> {
    let mut w = vec![INPUTS];
    w.extend([WIDTH; 4]);
    w.push(CLASSES);
    w
}

fn is_hidden(layer: usize, layers: usize) -> bool {
    layer != 0 && layer + 1 != layers
}

/// Construction plus the first step: what a user pays once. Making the
/// seeded batch is not part of it.
pub fn setup(seed: u64) -> (Train, f64) {
    let (x, labels) = batch(seed);
    let t0 = Instant::now();
    let guard = guarded(catalog::bini322(), LANES);
    let hidden: Backend = guard.clone();
    let mut net = performance_network(WIDTH, hidden, LANES, MODEL_SEED);
    net.train_batch(&x, &labels, LR);
    let setup_s = t0.elapsed().as_secs_f64();
    (
        Train {
            net,
            guard,
            x,
            labels,
        },
        setup_s,
    )
}

/// Put a span-recording decorator around every layer's backend.
pub fn install_decorators(net: &mut Mlp) {
    let layers = net.layers.len();
    for (l, layer) in net.layers.iter_mut().enumerate() {
        let names = if is_hidden(l, layers) {
            decor::HIDDEN
        } else {
            decor::EDGE
        };
        layer.set_backend(Traced::wrap(layer.backend(), names));
    }
}

/// One step in `Mlp::train_batch` order (forward, loss, accuracy,
/// backward, SGD), calling the same public functions it calls, with a
/// span around each. No fallback is installed on this network, so
/// `train_batch` takes exactly this path.
pub fn traced_step(t: &mut Train, step: u64) -> f32 {
    trace::set_group(step);
    let layers = t.net.layers.len();
    trace::span("step", || {
        let mut cur = t.x.clone();
        decor::set_role(Role::Forward);
        for (l, layer) in t.net.layers.iter_mut().enumerate() {
            let name = if is_hidden(l, layers) {
                "Dense::forward.hidden"
            } else {
                "Dense::forward.edge"
            };
            cur = trace::span(name, || layer.forward(&cur));
        }
        decor::set_role(Role::Other);
        let (loss, grad) = trace::span("softmax_cross_entropy", || {
            softmax_cross_entropy(&cur, &t.labels)
        });
        trace::span("accuracy", || apa_nn::accuracy(&cur, &t.labels));
        let mut g = grad;
        for (l, layer) in t.net.layers.iter_mut().enumerate().rev() {
            let name = if is_hidden(l, layers) {
                "Dense::backward.hidden"
            } else {
                "Dense::backward.edge"
            };
            decor::set_role(Role::Backward(0));
            g = trace::span(name, || layer.backward(&g));
        }
        decor::set_role(Role::Other);
        for layer in t.net.layers.iter_mut() {
            trace::span("Dense::apply_sgd", || layer.apply_sgd(LR));
        }
        loss
    })
}

/// Error of `predict` on checked rows of the batch against an f64
/// forward pass with the same weights.
pub fn check_error(t: &Train, seed: u64) -> stats::RowErrors {
    let logits = t.net.predict(&t.x);
    let rows = stats::stratified_rows(BATCH, CHECK_ROWS, &mut Rng::new(seed ^ 0x0E44));
    stats::RowErrors::of(rows.iter().map(|&i| {
        (
            logits.as_ref().row(i),
            crate::serve::reference_forward(&t.net, t.x.as_ref().row(i)),
        )
    }))
}

/// Error budget of the whole forward pass: the sentinel's per-product
/// budget summed over the layers.
pub fn error_budget(t: &Train) -> f64 {
    let cfg = SentinelConfig::default();
    let base = t.guard.guard().base();
    let hidden = cfg.budget(base.sigma(), base.algorithm().phi(), base.current_steps());
    let edge = cfg.budget(None, 0, 1);
    3.0 * hidden + 2.0 * edge
}

/// Model FLOPs of one step: forward `2·B·in·out` plus backward twice that.
pub fn step_flops() -> f64 {
    let w = widths();
    6.0 * BATCH as f64 * w.windows(2).map(|p| (p[0] * p[1]) as f64).sum::<f64>()
}

pub struct Steps {
    /// Wall-clock seconds per step.
    pub secs: Vec<f64>,
    /// Reference-core seconds per step (see [`calib`]).
    pub ref_secs: Vec<f64>,
    pub losses: Vec<f32>,
}

/// Closed loop of untraced `train_batch` steps, calibrating both lanes'
/// cores between steps: for `window`, or exactly `count` steps when given.
pub fn run(t: &mut Train, window: Duration, count: Option<usize>) -> Steps {
    let mut out = Steps {
        secs: Vec::new(),
        ref_secs: Vec::new(),
        losses: Vec::new(),
    };
    let start = Instant::now();
    let mut before = calib::factor(LANES);
    loop {
        match count {
            Some(c) if out.secs.len() >= c => break,
            None if start.elapsed() >= window && out.secs.len() >= 3 => break,
            _ => {}
        }
        let t0 = Instant::now();
        let (loss, _) = t.net.train_batch(&t.x, &t.labels, LR);
        let secs = t0.elapsed().as_secs_f64();
        let after = calib::factor(LANES);
        out.secs.push(secs);
        out.ref_secs.push(secs * (before + after) / 2.0);
        out.losses.push(loss);
        before = after;
    }
    out
}

pub fn health_delta(after: &HealthStats, before: &HealthStats) -> HealthStats {
    HealthStats {
        calls: after.calls - before.calls,
        probes: after.probes - before.probes,
        demotions: after.demotions - before.demotions,
        abft_checks: after.abft_checks - before.abft_checks,
        ..HealthStats::default()
    }
}

/// The untraced end-to-end run; returns this process's set-up time in
/// reference-core seconds.
pub fn measure(seed: u64, seconds: u64, rep: &mut Report) -> f64 {
    let (mut t, setup_s) = setup(seed);
    let setup_ref = setup_s * calib::factor(LANES);
    // Checked after the set-up step, so the state checked depends on the
    // seed alone, not on how many steps fit in the window.
    let errs = check_error(&t, seed);
    let err = errs.worst_row;
    let before = t.guard.health();
    let steps = run(&mut t, Duration::from_secs(seconds), None);
    let health = health_delta(&t.guard.health(), &before);
    let budget = error_budget(&t);
    let nonfinite = steps.losses.iter().filter(|l| !l.is_finite()).count() as u64;
    let ms: Vec<f64> = steps.ref_secs.iter().map(|s| s * 1e3).collect();
    let wall_ms: Vec<f64> = steps.secs.iter().map(|s| s * 1e3).collect();
    rep.attempted = steps.secs.len() as u64;
    rep.failed = nonfinite;
    rep.note(format!(
        "paradnn-train step {} wall-clock, {} reference-core",
        stats::describe(&wall_ms, "ms"),
        stats::describe(&ms, "ms")
    ));
    rep.note(format!(
        "loss after {} steps: {:.6} (first {:.6})",
        steps.losses.len(),
        steps.losses.last().copied().unwrap_or(f32::NAN),
        steps.losses.first().copied().unwrap_or(f32::NAN)
    ));
    rep.check(
        format!("every loss finite ({nonfinite} not)"),
        nonfinite == 0,
    );
    rep.check(
        format!(
            "guard stayed on bini322: {} demotions in {} calls",
            health.demotions, health.calls
        ),
        health.demotions == 0,
    );
    rep.check(
        format!("worst checked logits row rel err {err:.3e} <= summed layer budget {budget:.3e}"),
        err <= budget,
    );
    rep.metric("latency_ms_p50", stats::median(&ms), "ms");
    rep.metric("latency_ms_p90", stats::quantile(&ms, 0.9), "ms");
    rep.metric(
        "gflops",
        step_flops() / stats::median(&steps.ref_secs) / 1e9,
        "GFLOP/s",
    );
    rep.metric("rel_err", errs.overall, "1");
    setup_ref
}
