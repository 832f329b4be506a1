//! The per-layer ladder of the traced run: the public entry points of
//! `apa-gemm`, `apa-matmul`, `apa-planner`, `apa-nn` and `apa-serve`
//! timed from outside at fixed sizes, plus traced runs of the training
//! step and of the service. Every traced run reports every metric here,
//! whatever its workload.

use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace::Span;
use crate::{calib, serve, square, trace, train};
use apa_core::{catalog, BilinearAlgorithm};
use apa_gemm::{
    allocation_counters, block_sizes, combine, gemm, gemm_st, kernel_spec, pack_a, pack_b,
    pack_b_combined, par_stats, probe_bandwidth_bytes, CacheHierarchy, Mat, Par, ParStats,
};
use apa_matmul::{ApaMatmul, Strategy};
use apa_nn::{InferenceScratch, MatmulBackend};
use apa_planner::{PlanCompiler, PlanRequest};
use std::path::Path;
use std::time::{Duration, Instant};

fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn mats(m: usize, k: usize, n: usize, rng: &mut Rng) -> (Mat<f32>, Mat<f32>, Mat<f32>) {
    (
        square::random_mat(m, k, rng),
        square::random_mat(k, n, rng),
        Mat::zeros(m, n),
    )
}

/// `gemm_st` times at one shape after one warm-up call.
fn gemm_st_secs(m: usize, k: usize, n: usize, reps: usize, rng: &mut Rng) -> Vec<f64> {
    let (a, b, mut c) = mats(m, k, n, rng);
    gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    time_reps(reps, || {
        trace::span("gemm_st", || {
            gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut())
        })
    })
}

fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    2.0 * (m * k * n) as f64 / secs / 1e9
}

/// Leaf shape of a one-step rule at `n³`.
fn leaf(alg: &BilinearAlgorithm, n: usize) -> (usize, usize, usize) {
    (n / alg.dims.m, n / alg.dims.k, n / alg.dims.n)
}

/// Bytes the combination sweeps of one step of `alg` move at `m×k×n`,
/// computed from the rule: every nonzero of U, V and W reads one block
/// and every combination writes one (r A-combinations, r B-combinations
/// and one per output block).
pub fn computed_bytes(alg: &BilinearAlgorithm, m: usize, k: usize, n: usize, elem: usize) -> f64 {
    let d = alg.dims;
    let (a_blk, b_blk, c_blk) = (
        (m / d.m) * (k / d.k),
        (k / d.k) * (n / d.n),
        (m / d.m) * (n / d.n),
    );
    let (nu, nv, nw) = alg.nnz_split();
    let r = alg.rank();
    (elem * ((nu + r) * a_blk + (nv + r) * b_blk + (nw + d.m * d.n) * c_blk)) as f64
}

/// Each Fig. 3 engine's effective GFLOP/s from the untraced calls of an
/// interleaved `square-1920` run (reference-core time).
pub fn square_layer(rep: &mut Report, timed: &square::Timed) {
    for (i, name) in square::ENGINES.iter().enumerate() {
        let secs = timed.ref_secs_where(|e, t| e == i && !t);
        rep.metric(
            &format!("square.{name}_gflops"),
            square::gflops(stats::median(&secs)),
            "GFLOP/s",
        );
    }
}

pub fn gemm_layer(rep: &mut Report, rng: &mut Rng) {
    let l2 = CacheHierarchy::detect().l2;
    let mut np = 64;
    while 3 * (np + 64) * (np + 64) * 4 <= l2 / 2 && np < 512 {
        np += 64;
    }
    let peak = gemm_st_secs(np, np, np, 60, rng);
    rep.metric(
        "gemm.peak_gflops",
        gflops(np, np, np, min_of(&peak)),
        "GFLOP/s",
    );
    rep.note(format!(
        "gemm.peak_gflops: best of 60 gemm_st at {np}³ (L2 {} KiB)",
        l2 / 1024
    ));

    let n = square::N;
    let full = gemm_st_secs(n, n, n, 5, rng);
    rep.metric(
        "gemm.leaf_gflops.full",
        gflops(n, n, n, stats::median(&full)),
        "GFLOP/s",
    );
    for (name, reps) in [("bini322", 9), ("fast444", 15)] {
        let (m, k, nn) = leaf(&catalog::by_name(name).expect("catalog rule"), n);
        let t = gemm_st_secs(m, k, nn, reps, rng);
        rep.metric(
            &format!("gemm.leaf_gflops.{name}"),
            gflops(m, k, nn, stats::median(&t)),
            "GFLOP/s",
        );
    }
    let skinny = gemm_st_secs(16, 1024, 1024, 60, rng);
    rep.metric(
        "gemm.leaf_gflops.skinny",
        gflops(16, 1024, 1024, stats::median(&skinny)),
        "GFLOP/s",
    );

    let stream = probe_bandwidth_bytes();
    rep.metric("gemm.stream_gbps", stream / 1e9, "GB/s");

    // Packing: one mc×kc panel of A and one kc×nc panel of B at the
    // blocking the kernel uses, read once and written once.
    let bs = block_sizes::<f32>();
    let spec = kernel_spec::<f32>();
    let src = square::random_mat(bs.mc.max(bs.kc), bs.nc.max(bs.kc), rng);
    let mut buf = Vec::new();
    let a_panel = src.as_ref().subview(0, 0, bs.mc, bs.kc);
    pack_a(a_panel, &mut buf, spec.mr);
    let t = time_reps(30, || {
        trace::span("pack_a", || pack_a(a_panel, &mut buf, spec.mr))
    });
    rep.metric(
        "gemm.pack_a_gbps",
        (2 * bs.mc * bs.kc * 4) as f64 / stats::median(&t) / 1e9,
        "GB/s",
    );
    let b_panel = src.as_ref().subview(0, 0, bs.kc, bs.nc);
    pack_b(b_panel, &mut buf, spec.nr);
    let t = time_reps(30, || {
        trace::span("pack_b", || pack_b(b_panel, &mut buf, spec.nr))
    });
    rep.metric(
        "gemm.pack_b_gbps",
        (2 * bs.kc * bs.nc * 4) as f64 / stats::median(&t) / 1e9,
        "GB/s",
    );
    rep.note(format!(
        "packing at mc={} kc={} nc={}, tile {}x{}",
        bs.mc, bs.kc, bs.nc, spec.mr, spec.nr
    ));

    // Combined packing at each rule's real B-side arities: one panel per
    // combination, sources drawn from distinct panels.
    for name in ["bini322", "fast444"] {
        // The plan the engine runs, at its default λ: the arities of an
        // APA rule depend on which λ-scaled terms are nonzero.
        let engine = ApaMatmul::new(catalog::by_name(name).expect("catalog rule"));
        let plan = engine.plan();
        let arities: Vec<usize> = plan.b_combos.iter().map(|c| c.arity()).collect();
        let max_arity = arities.iter().copied().max().unwrap_or(1);
        let sources: Vec<Mat<f32>> = (0..max_arity)
            .map(|_| square::random_mat(bs.kc, bs.nc, rng))
            .collect();
        let mut secs = 0.0;
        let mut bytes = 0.0;
        for _ in 0..3 {
            for &ar in &arities {
                let terms: Vec<(f32, _)> =
                    sources[..ar].iter().map(|s| (0.5f32, s.as_ref())).collect();
                let t0 = Instant::now();
                trace::span("pack_b_combined", || {
                    pack_b_combined(&terms, &mut buf, spec.nr)
                });
                secs += t0.elapsed().as_secs_f64();
                bytes += ((ar + 1) * bs.kc * bs.nc * 4) as f64;
            }
        }
        rep.metric(
            &format!("gemm.pack_b_combined_gbps.{name}"),
            bytes / secs / 1e9,
            "GB/s",
        );
    }

    // Output combination of fast444 at its n = 1920 block shape.
    {
        let alg = catalog::fast444();
        let engine = ApaMatmul::new(alg.clone());
        let plan = engine.plan();
        let (bm, bn) = (n / alg.dims.m, n / alg.dims.n);
        let products: Vec<Mat<f32>> = (0..plan.c_outputs.iter().map(Vec::len).max().unwrap_or(1))
            .map(|_| square::random_mat(bm, bn, rng))
            .collect();
        let mut dst = Mat::<f32>::zeros(bm, bn);
        let (mut secs, mut bytes) = (0.0, 0.0);
        for out in &plan.c_outputs {
            let terms: Vec<(f32, _)> = out
                .iter()
                .enumerate()
                .map(|(j, &(_, c))| (c as f32, products[j].as_ref()))
                .collect();
            let t0 = Instant::now();
            trace::span("combine", || combine(dst.as_mut(), false, &terms));
            secs += t0.elapsed().as_secs_f64();
            bytes += ((terms.len() + 1) * bm * bn * 4) as f64;
        }
        rep.metric("gemm.combine_gbps.fast444", bytes / secs / 1e9, "GB/s");
    }

    // Parallel gemm at two lanes against gemm_st, interleaved.
    let (a, b, mut c) = mats(1024, 1024, 1024, rng);
    gemm(
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        c.as_mut(),
        Par::Threads(2),
    );
    let (mut st, mut par) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        st.extend(time_reps(1, || {
            gemm_st(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut())
        }));
        par.extend(time_reps(1, || {
            gemm(
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
                Par::Threads(2),
            )
        }));
    }
    let speedup = stats::median(&st) / stats::median(&par);
    rep.metric("gemm.par_speedup", speedup, "x");
    rep.note(format!(
        "gemm.par_speedup base: gemm_st at 1024³ = {:.1} GFLOP/s; 2 lanes = {:.1} GFLOP/s",
        gflops(1024, 1024, 1024, stats::median(&st)),
        gflops(1024, 1024, 1024, stats::median(&par))
    ));
}

fn min_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn matmul_layer(rep: &mut Report, rng: &mut Rng) {
    let n = square::N;
    let (a, b, mut c) = mats(n, n, n, rng);
    let stream = probe_bandwidth_bytes();
    for name in ["bini322", "fast444"] {
        let alg = catalog::by_name(name).expect("catalog rule");
        let r = alg.rank();
        let engine = ApaMatmul::new(alg.clone())
            .steps(1)
            .strategy(Strategy::Hybrid)
            .threads(1);
        let (lm, lk, ln) = leaf(&alg, n);
        let (la, lb, mut lc) = mats(lm, lk, ln, rng);
        engine.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        let before = allocation_counters();
        engine.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        let alloc = allocation_counters().since(before);
        rep.metric(
            &format!("matmul.{name}.alloc_bytes_per_call"),
            alloc.bytes as f64,
            "B",
        );
        // Interleave whole calls with leaf products so both see the
        // same machine phase.
        let (mut call, mut leaf_t) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            call.extend(time_reps(1, || {
                trace::span("ApaMatmul::multiply_into", || {
                    engine.multiply_into(a.as_ref(), b.as_ref(), c.as_mut())
                })
            }));
            leaf_t.extend(time_reps(3, || {
                gemm_st(1.0, la.as_ref(), lb.as_ref(), 0.0, lc.as_mut())
            }));
        }
        let (call, leaf_s) = (stats::median(&call), stats::median(&leaf_t));
        let nonleaf = (call - r as f64 * leaf_s).max(1e-9);
        rep.metric(&format!("matmul.{name}.nonleaf_share"), nonleaf / call, "1");
        let bytes = computed_bytes(&alg, n, n, n, 4);
        rep.metric(
            &format!("matmul.{name}.add_gbps"),
            bytes / nonleaf / 1e9,
            "GB/s",
        );
        rep.note(format!(
            "matmul.{name}: call {:.2} ms, {r} leaves of {lm}x{lk}x{ln} at {:.2} ms; \
             {:.1} MB computed traffic; stream {:.1} GB/s",
            call * 1e3,
            leaf_s * 1e3,
            bytes / 1e6,
            stream / 1e9
        ));
    }

    // The guard's cost at the training configuration.
    let (a, b, mut c) = mats(1024, 1024, 1024, rng);
    let plain = apa_nn::apa(catalog::bini322(), train::LANES);
    let guarded = apa_nn::guarded(catalog::bini322(), train::LANES);
    plain.matmul_into(a.as_ref(), b.as_ref(), c.as_mut());
    guarded.matmul_into(a.as_ref(), b.as_ref(), c.as_mut());
    let (mut tp, mut tg) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        tp.extend(time_reps(1, || {
            plain.matmul_into(a.as_ref(), b.as_ref(), c.as_mut())
        }));
        tg.extend(time_reps(1, || {
            guarded.matmul_into(a.as_ref(), b.as_ref(), c.as_mut())
        }));
    }
    let (tp, tg) = (stats::median(&tp), stats::median(&tg));
    rep.metric("matmul.guard_overhead", tg / tp - 1.0, "1");
    rep.note(format!(
        "matmul.guard_overhead base: plain ApaMatmul(bini322) at 1024³, 2 lanes = {:.2} ms; guarded = {:.2} ms",
        tp * 1e3,
        tg * 1e3
    ));
}

pub fn planner_layer(rep: &mut Report, store: &Path, rng: &mut Rng) {
    let compiler = PlanCompiler::with_store(store);
    let shapes = [
        (square::N, square::N, square::N),
        (16, 1024, 1024),
        (256, 1024, 1024),
    ];
    let request = |&(m, k, n): &(usize, usize, usize)| {
        PlanRequest::new(m, k, n)
            .threads(1)
            .target_error(serve::PLAN_TARGET_ERROR)
    };
    let (mut cold, mut warm, mut plans) = (Vec::new(), Vec::new(), Vec::new());
    for shape in &shapes {
        let req = request(shape);
        let t0 = Instant::now();
        let plan = trace::span("PlanCompiler::compile", || compiler.compile(&req));
        cold.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        trace::span("PlanCompiler::compile", || compiler.compile(&req));
        warm.push(t0.elapsed().as_secs_f64() * 1e6);
        rep.note(format!(
            "plan for {shape:?}: {} (predicted {:.3} ms)",
            plan.rule,
            plan.predicted_seconds * 1e3
        ));
        plans.push(plan);
    }
    rep.metric("planner.compile_us_cold", stats::median(&cold), "us");
    rep.metric("planner.compile_us_warm", stats::median(&warm), "us");
    for (label, i, reps) in [("square", 0, 3), ("serve", 1, 40)] {
        let (m, k, n) = shapes[i];
        let exec = plans[i].build().expect("a compiled plan builds");
        let (a, b, mut c) = mats(m, k, n, rng);
        exec.multiply_into(a.as_ref(), b.as_ref(), c.as_mut());
        let t = time_reps(reps, || {
            exec.multiply_into(a.as_ref(), b.as_ref(), c.as_mut())
        });
        rep.metric(
            &format!("planner.pred_over_meas.{label}"),
            plans[i].predicted_seconds / stats::median(&t),
            "1",
        );
    }
}

/// Process totals of the global plan cache; call last.
pub fn planner_counts(rep: &mut Report) {
    let (hits, misses, retunes) = apa_planner::cache_counts();
    rep.note(format!(
        "plan cache over the whole run: {hits} hits, {misses} misses, {retunes} retunes"
    ));
    rep.metric("planner.cache_misses", misses as f64, "count");
    rep.metric("planner.retunes", retunes as f64, "count");
}

/// Training steps of two networks built from the same seed, alternating
/// an untraced `train_batch` step of one with a traced step of the other,
/// so both see the same machine: `steps` pairs, or pairs for `window`.
/// Returns the median untraced and traced step in reference-core seconds.
pub fn nn_layer(
    rep: &mut Report,
    seed: u64,
    steps: Option<usize>,
    window: Duration,
    all_spans: &mut Vec<Span>,
) -> (f64, f64) {
    let (mut plain, _) = train::setup(seed);
    let (mut traced, _) = train::setup(seed);
    train::install_decorators(&mut traced.net);
    let health0 = plain.guard.health();
    let (mut par, mut alloc_bytes) = (ParStats::default(), 0u64);
    let (mut plain_secs, mut plain_ref, mut plain_losses) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ref, mut losses) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut before = calib::factor(train::LANES);
    let mut step = 0u64;
    while steps.map_or(start.elapsed() < window || step < 3, |n| {
        (step as usize) < n
    }) {
        step += 1;
        let (par0, alloc0) = (par_stats(), allocation_counters());
        let t0 = Instant::now();
        let (loss, _) = plain.net.train_batch(&plain.x, &plain.labels, train::LR);
        let secs = t0.elapsed().as_secs_f64();
        let p1 = par_stats();
        alloc_bytes += allocation_counters().since(alloc0).bytes;
        par.panels_packed += p1.panels_packed - par0.panels_packed;
        par.panels_reused += p1.panels_reused - par0.panels_reused;
        par.cells_stolen += p1.cells_stolen - par0.cells_stolen;
        par.claim_ops += p1.claim_ops - par0.claim_ops;
        let mid = calib::factor(train::LANES);
        plain_secs.push(secs);
        plain_ref.push(secs * (before + mid) / 2.0);
        plain_losses.push(loss);

        trace::enable(true);
        let t0 = Instant::now();
        losses.push(train::traced_step(&mut traced, step));
        let secs = t0.elapsed().as_secs_f64();
        trace::enable(false);
        let after = calib::factor(train::LANES);
        traced_ref.push(secs * (mid + after) / 2.0);
        before = after;
    }
    let k = plain_secs.len();
    let health = train::health_delta(&plain.guard.health(), &health0);
    let spans = trace::take();
    let totals = trace::totals(&spans);
    let per_step_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / k as f64 / 1e6)
    };
    let self_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / k as f64 / 1e6)
    };
    let step_secs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "step")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();

    let (lu, lt) = (plain_losses[k - 1], losses[k - 1]);
    rep.check(
        format!("traced and untraced loss after {k} steps bitwise equal ({lu:.6} vs {lt:.6})"),
        lu.to_bits() == lt.to_bits(),
    );
    rep.check(
        format!("guard demotions in training: {}", health.demotions),
        health.demotions == 0,
    );
    let backend_ns: u64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("backend."))
        .map(|(_, t)| t.total_ns)
        .sum();
    let step_ns: u64 = totals.get("step").map_or(1, |t| t.total_ns);
    rep.metric("nn.matmul_share", backend_ns as f64 / step_ns as f64, "1");
    rep.metric("nn.fwd_ms.hidden", self_ms("Dense::forward.hidden"), "ms");
    rep.metric("nn.bwd_ms.hidden", self_ms("Dense::backward.hidden"), "ms");
    rep.metric("nn.fwd_ms.edge", self_ms("Dense::forward.edge"), "ms");
    rep.metric("nn.bwd_ms.edge", self_ms("Dense::backward.edge"), "ms");
    rep.metric("nn.loss_ms", per_step_ms("softmax_cross_entropy"), "ms");
    rep.metric("nn.sgd_ms", per_step_ms("Dense::apply_sgd"), "ms");
    rep.metric(
        "nn.alloc_bytes_per_step",
        alloc_bytes as f64 / k as f64,
        "B",
    );
    rep.metric("nn.step_s_p90", stats::quantile(&plain_ref, 0.9), "s");
    rep.metric("nn.loss_final", lu as f64, "1");
    rep.metric(
        "matmul.hidden.fwd_ms",
        per_step_ms("backend.hidden.fwd"),
        "ms",
    );
    rep.metric(
        "matmul.hidden.dw_ms",
        per_step_ms("backend.hidden.dw"),
        "ms",
    );
    rep.metric(
        "matmul.hidden.dx_ms",
        per_step_ms("backend.hidden.dx"),
        "ms",
    );
    let calls = health.calls.max(1) as f64;
    rep.metric(
        "matmul.guard.probes_per_call",
        health.probes as f64 / calls,
        "1",
    );
    rep.metric(
        "matmul.guard.abft_checks_per_call",
        health.abft_checks as f64 / calls,
        "1",
    );
    rep.metric("matmul.guard.demotions", health.demotions as f64, "count");
    rep.metric(
        "gemm.par.panels_reused_per_packed",
        par.panels_reused as f64 / par.panels_packed.max(1) as f64,
        "1",
    );
    rep.metric(
        "gemm.par.cells_stolen_per_step",
        par.cells_stolen as f64 / k as f64,
        "count",
    );
    rep.metric(
        "gemm.par.claim_ops_per_step",
        par.claim_ops as f64 / k as f64,
        "count",
    );
    rep.note(format!(
        "nn: {k} untraced steps {} wall-clock; traced {}",
        stats::describe(&plain_secs, "s"),
        stats::describe(&step_secs, "s")
    ));
    all_spans.extend(spans);
    (stats::median(&plain_ref), stats::median(&traced_ref))
}

/// `Mlp::predict_into` median seconds at each batch size, on the serve
/// model.
fn predict_secs(seed: u64, batches: &[usize], reps: usize) -> Vec<f64> {
    let mlp = serve::model();
    let mut rng = Rng::new(seed ^ 0x9E);
    let mut scratch = InferenceScratch::new();
    let mut out = Mat::zeros(0, 0);
    batches
        .iter()
        .map(|&b| {
            mlp.warm_for_batches(&[b]);
            let x = square::random_mat(b, serve::WIDTHS[0], &mut rng);
            mlp.predict_into(x.as_ref(), &mut out, &mut scratch);
            stats::median(&time_reps(reps, || {
                trace::span("Mlp::predict_into", || {
                    mlp.predict_into(x.as_ref(), &mut out, &mut scratch)
                })
            }))
        })
        .collect()
}

/// A served run alternating untraced and traced phases; returns the p50
/// reference-core latency from due time of the untraced and the traced
/// requests.
pub fn serve_layer(
    rep: &mut Report,
    seed: u64,
    window: Duration,
    all_spans: &mut Vec<Span>,
) -> (f64, f64) {
    let sizes: Vec<usize> = (0..=8).map(|p| 1usize << p).collect();
    let predict = predict_secs(seed, &sizes, 15);
    rep.metric("nn.predict_ms.b16", predict[4] * 1e3, "ms");

    let served = serve::serve(seed, window, true);
    let spans = trace::take();
    let load = &served.load;
    let stats = &served.stats;
    let wait: Vec<f64> = load
        .svc_ms
        .iter()
        .zip(&load.padded_rows)
        .map(|(&svc, &rows)| {
            let i = sizes
                .iter()
                .position(|&s| s >= rows)
                .unwrap_or(sizes.len() - 1);
            svc - predict[i] * 1e3
        })
        .collect();
    let real_rows = stats.mean_batch_rows() * stats.batches as f64;
    rep.metric(
        "serve.svc_latency_ms_p50",
        stats::median(&load.svc_ms),
        "ms",
    );
    rep.metric("serve.wait_ms_p50", stats::median(&wait), "ms");
    rep.metric("serve.batch_rows_mean", stats.mean_batch_rows(), "rows");
    rep.metric(
        "serve.useful_row_frac",
        real_rows / (real_rows + stats.padded_rows as f64),
        "1",
    );
    rep.metric(
        "serve.max_queue_depth",
        stats.max_queue_depth as f64,
        "count",
    );
    rep.metric(
        "serve.latency_ms_p99",
        stats::quantile(&load.ref_lat_ms, 0.99),
        "ms",
    );
    rep.metric(
        "loadgen.lag_ms_p99",
        stats::quantile(&load.lag_ms, 0.99),
        "ms",
    );
    rep.metric(
        "loadgen.offered_rps",
        load.offered as f64 / load.window_s,
        "1/s",
    );
    let requests = spans.iter().filter(|s| s.name == "request").count();
    rep.note(format!(
        "serve traced: {requests} request spans, latency from due {}",
        stats::describe(&load.lat_ms, "ms")
    ));
    serve::check_into(seed, load, rep);
    all_spans.extend(spans);
    let phase = |traced: bool| -> Vec<f64> {
        load.ref_lat_ms
            .iter()
            .zip(&load.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&l, _)| l)
            .collect()
    };
    (stats::median(&phase(false)), stats::median(&phase(true)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_bytes_follow_the_rule_nonzeros() {
        let alg = catalog::strassen();
        // Strassen: 12 nonzeros in each of U, V, W; rank 7; 2x2 output.
        assert_eq!(alg.nnz_split(), (12, 12, 12));
        assert_eq!(alg.rank(), 7);
        // n = 4 gives 2x2 blocks of 4 elements:
        // 4 B × 4 × ((12+7) + (12+7) + (12+4)) = 864.
        assert_eq!(computed_bytes(&alg, 4, 4, 4, 4), 864.0);
        // Doubling n quadruples every block.
        assert_eq!(computed_bytes(&alg, 8, 8, 8, 4), 4.0 * 864.0);
    }
}
