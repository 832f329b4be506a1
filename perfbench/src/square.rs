//! `square-1920`: one-thread f32 `C = A·B` at n = 1920 (the paper's
//! Fig. 3a), closed loop, calls interleaved round-robin over classical
//! gemm, bini322 and fast444 so the three engines see the same machine.

use crate::calib;
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace;
use apa_core::catalog;
use apa_gemm::{Mat, MatRef};
use apa_matmul::{ApaMatmul, ClassicalMatmul, SentinelConfig, Strategy};
use std::time::{Duration, Instant};

pub const N: usize = 1920;
/// The engines of one round, in call order.
pub const ENGINES: [&str; 3] = ["classical", "bini322", "fast444"];
/// Rows of `C` checked against the f64 reference (a multiple of every
/// rule's row split, so each block of `C` gets the same number).
const CHECK_ROWS: usize = 24;

pub enum Engine {
    Classical(ClassicalMatmul),
    Apa(Box<ApaMatmul>),
}

impl Engine {
    /// `classical`, or a catalog rule run as one step, Hybrid strategy,
    /// default fusion, one thread.
    pub fn new(name: &str) -> Engine {
        if name == "classical" {
            return Engine::Classical(ClassicalMatmul::new().threads(1));
        }
        let alg = catalog::by_name(name).unwrap_or_else(|| panic!("unknown rule {name}"));
        Engine::Apa(Box::new(
            ApaMatmul::new(alg)
                .steps(1)
                .strategy(Strategy::Hybrid)
                .threads(1),
        ))
    }

    fn span_name(&self) -> &'static str {
        match self {
            Engine::Classical(_) => "ClassicalMatmul::multiply_into",
            Engine::Apa(_) => "ApaMatmul::multiply_into",
        }
    }

    pub fn multiply(&self, a: &Mat<f32>, b: &Mat<f32>, c: &mut Mat<f32>) {
        trace::span(self.span_name(), || match self {
            Engine::Classical(m) => m.multiply_into(a.as_ref(), b.as_ref(), c.as_mut()),
            Engine::Apa(m) => m.multiply_into(a.as_ref(), b.as_ref(), c.as_mut()),
        });
    }

    /// The §2.3 error-model budget the production sentinel applies to
    /// this configuration.
    pub fn budget(&self) -> f64 {
        let cfg = SentinelConfig::default();
        match self {
            Engine::Classical(_) => cfg.budget(None, 0, 1),
            Engine::Apa(m) => cfg.budget(m.sigma(), m.algorithm().phi(), m.current_steps()),
        }
    }
}

pub fn random_mat(rows: usize, cols: usize, rng: &mut Rng) -> Mat<f32> {
    Mat::from_fn(rows, cols, |_, _| rng.signed_f32())
}

/// Rows `rows` of `A·B` in f64.
pub fn reference_rows(a: MatRef<'_, f32>, b: MatRef<'_, f32>, rows: &[usize]) -> Vec<f64> {
    let n = b.cols();
    let mut out = vec![0.0f64; rows.len() * n];
    for (r, &i) in rows.iter().enumerate() {
        let acc = &mut out[r * n..(r + 1) * n];
        for (k, &aik) in a.row(i).iter().enumerate() {
            let aik = aik as f64;
            for (o, &bkj) in acc.iter_mut().zip(b.row(k)) {
                *o += aik * bkj as f64;
            }
        }
    }
    out
}

pub struct Square {
    pub a: Mat<f32>,
    pub b: Mat<f32>,
    /// Each engine with its own output.
    pub engines: Vec<(&'static str, Engine, Mat<f32>)>,
}

/// Construction plus the first call of every engine: what a user pays
/// once. Making the seeded inputs is not part of it.
pub fn setup(seed: u64) -> (Square, f64) {
    let mut rng = Rng::new(seed);
    let a = random_mat(N, N, &mut rng);
    let b = random_mat(N, N, &mut rng);
    let t0 = Instant::now();
    let engines = ENGINES
        .iter()
        .map(|&name| {
            let engine = Engine::new(name);
            let mut c = Mat::zeros(N, N);
            engine.multiply(&a, &b, &mut c);
            (name, engine, c)
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    (Square { a, b, engines }, setup_s)
}

#[derive(Default)]
pub struct Timed {
    /// Wall-clock seconds per call.
    pub secs: Vec<f64>,
    /// Reference-core seconds per call (see [`calib`]): wall time times
    /// the mean calibration factor of the bursts before and after it.
    pub ref_secs: Vec<f64>,
    /// Index into [`ENGINES`] of each call.
    pub engine: Vec<usize>,
    /// Whether each call was traced.
    pub traced: Vec<bool>,
    /// Calls whose output differed bitwise from the engine's first.
    pub nondeterministic: Vec<u64>,
}

impl Timed {
    /// Reference-core seconds of the calls matching `keep(engine, traced)`.
    pub fn ref_secs_where(&self, keep: impl Fn(usize, bool) -> bool) -> Vec<f64> {
        (0..self.secs.len())
            .filter(|&i| keep(self.engine[i], self.traced[i]))
            .map(|i| self.ref_secs[i])
            .collect()
    }
}

/// Closed loop of rounds for `window` (at least `min_rounds`): time each
/// call, calibrate after it, and compare each output's checksum to the
/// engine's first (all outside the timed region). With `alternate`,
/// every second call is traced.
pub fn run(sq: &mut Square, window: Duration, min_rounds: usize, alternate: bool) -> Timed {
    let firsts: Vec<u64> = sq
        .engines
        .iter()
        .map(|e| stats::checksum(e.2.as_slice()))
        .collect();
    let mut out = Timed {
        nondeterministic: vec![0; ENGINES.len()],
        ..Timed::default()
    };
    let start = Instant::now();
    let mut before = calib::factor(1);
    let mut rounds = 0;
    while start.elapsed() < window || rounds < min_rounds {
        rounds += 1;
        for (i, (_, engine, c)) in sq.engines.iter_mut().enumerate() {
            let traced = alternate && out.secs.len() % 2 == 1;
            trace::enable(traced);
            let t0 = Instant::now();
            engine.multiply(&sq.a, &sq.b, c);
            let secs = t0.elapsed().as_secs_f64();
            trace::enable(false);
            let after = calib::factor(1);
            out.secs.push(secs);
            out.ref_secs.push(secs * (before + after) / 2.0);
            out.engine.push(i);
            out.traced.push(traced);
            before = after;
            if stats::checksum(c.as_slice()) != firsts[i] {
                out.nondeterministic[i] += 1;
            }
        }
    }
    out
}

/// Error of each engine's checked rows of `C` against the f64 reference.
pub fn check_errors(sq: &Square, seed: u64) -> Vec<stats::RowErrors> {
    let rows = stats::stratified_rows(N, CHECK_ROWS, &mut Rng::new(seed ^ 0xC0FF_EE00));
    let reference = reference_rows(sq.a.as_ref(), sq.b.as_ref(), &rows);
    sq.engines
        .iter()
        .map(|(_, _, c)| {
            stats::RowErrors::of(
                rows.iter()
                    .enumerate()
                    .map(|(r, &i)| (c.as_ref().row(i), reference[r * N..(r + 1) * N].to_vec())),
            )
        })
        .collect()
}

pub fn gflops(secs: f64) -> f64 {
    2.0 * (N as f64).powi(3) / secs / 1e9
}

/// The untraced end-to-end run; returns this process's set-up time in
/// reference-core seconds. Latencies and `gflops` are over the calls of
/// all three engines; each engine's own figures are in the notes.
pub fn measure(seed: u64, seconds: u64, rep: &mut Report) -> f64 {
    let (mut sq, setup_s) = setup(seed);
    let setup_ref = setup_s * calib::factor(1);
    let timed = run(&mut sq, Duration::from_secs(seconds), 5, false);
    let errs = check_errors(&sq, seed);
    rep.attempted = timed.secs.len() as u64;
    for (i, (name, engine, _)) in sq.engines.iter().enumerate() {
        let ms: Vec<f64> = timed
            .ref_secs_where(|e, _| e == i)
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let wall_ms: Vec<f64> = (0..timed.secs.len())
            .filter(|&c| timed.engine[c] == i)
            .map(|c| timed.secs[c] * 1e3)
            .collect();
        let (err, budget) = (errs[i].worst_row, engine.budget());
        rep.note(format!(
            "{name} n={N}: call {} wall-clock, {} reference-core; {:.1} GFLOP/s",
            stats::describe(&wall_ms, "ms"),
            stats::describe(&ms, "ms"),
            gflops(stats::median(&ms) / 1e3)
        ));
        rep.check(
            format!(
                "{name}: worst checked row rel err {err:.3e} <= error-model budget {budget:.3e}"
            ),
            err <= budget,
        );
        rep.check(
            format!(
                "{name}: every output bitwise equal to its first ({} differ)",
                timed.nondeterministic[i]
            ),
            timed.nondeterministic[i] == 0,
        );
        rep.failed += timed.nondeterministic[i] + if err <= budget { 0 } else { ms.len() as u64 };
    }
    let ms: Vec<f64> = timed.ref_secs.iter().map(|s| s * 1e3).collect();
    rep.metric("latency_ms_p50", stats::median(&ms), "ms");
    rep.metric("latency_ms_p90", stats::quantile(&ms, 0.9), "ms");
    rep.metric("gflops", gflops(stats::median(&timed.ref_secs)), "GFLOP/s");
    rep.metric("rel_err", stats::RowErrors::combined(&errs), "1");
    setup_ref
}
