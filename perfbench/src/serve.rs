//! `serve-open`: one `InferenceService` lane over MLP `[1024, 1024,
//! 1024, 10]` on `planned(1)`, offered open-loop Poisson arrivals at a
//! fixed rate by one generator thread.

use crate::calib;
use crate::decor::{self, Traced};
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace;
use apa_gemm::Mat;
use apa_nn::{planned, Backend, Mlp};
use apa_serve::{InferenceService, Replica, ServeConfig, ServeStats, ServiceHandle, Ticket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const WIDTHS: [usize; 4] = [1024, 1024, 1024, 10];
pub const RATE_RPS: f64 = 4000.0;
pub const TARGET_BATCH: usize = 256;
/// The latency limit: a request answered later counts as failed. It is
/// set well above what host stalls cause, so that only a service that
/// falls behind the offered rate fails: on a 2-vCPU VM with steal time
/// the whole process stalled for up to 33 ms, and the backlog then rode
/// in a 256-row batch, answered at most 64 ms after its due time. At the
/// offered rate the 1024-slot queue holds 256 ms of arrivals.
pub const LIMIT_MS: f64 = 200.0;
/// Answers later than this are counted and reported, but not failed.
pub const SLOW_MS: f64 = 50.0;
/// Distinct seeded input rows the generator cycles through.
const INPUT_POOL: usize = 256;
/// Every this many answered requests one response is kept for checking.
const SAMPLE_EVERY: u64 = 97;

/// Weights are part of the workload; the run's seed makes the traffic.
const MODEL_SEED: u64 = 0x05E4_ED0C;

/// The replica model; every call builds identical weights.
pub fn model() -> Mlp {
    let backends: Vec<Backend> = (0..WIDTHS.len() - 1).map(|_| planned(1)).collect();
    Mlp::new(&WIDTHS, backends, MODEL_SEED)
}

/// Batches warmed in powers of two up to the target, default linger.
pub fn config() -> ServeConfig {
    ServeConfig {
        target_batch: TARGET_BATCH,
        warm_batches: (0..)
            .map(|p| 1usize << p)
            .take_while(|&b| b < TARGET_BATCH)
            .collect(),
        ..ServeConfig::default()
    }
}

pub fn inputs(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed ^ 0x5E4E);
    (0..INPUT_POOL)
        .map(|_| (0..WIDTHS[0]).map(|_| rng.unit() as f32).collect())
        .collect()
}

/// Model construction, service start and the first answered request:
/// the lanes warm asynchronously after `start`, so set-up ends only when
/// the service has answered. With `traced`, every layer's backend is
/// wrapped in the span-recording decorator.
pub fn setup(first: &[f32], traced: bool) -> (InferenceService, f64) {
    let t0 = Instant::now();
    let mut mlp = model();
    if traced {
        for layer in &mut mlp.layers {
            layer.set_backend(Traced::wrap(layer.backend(), decor::SERVE));
        }
    }
    let svc = InferenceService::start(vec![Replica::new(mlp)], config());
    svc.handle()
        .infer(first.to_vec())
        .expect("the first request of an idle service is answered");
    let setup_s = t0.elapsed().as_secs_f64();
    (svc, setup_s)
}

#[derive(Default)]
pub struct Load {
    /// Due time → answer, answered requests only.
    pub lat_ms: Vec<f64>,
    /// The same in reference-core milliseconds (see [`calib`]).
    pub ref_lat_ms: Vec<f64>,
    /// The service's own submit → response latency.
    pub svc_ms: Vec<f64>,
    /// Padded batch rows each answered request rode in.
    pub padded_rows: Vec<usize>,
    /// How late the generator submitted each request.
    pub lag_ms: Vec<f64>,
    pub offered: u64,
    pub refused: u64,
    pub errors: u64,
    pub over_limit: u64,
    /// Answered later than [`SLOW_MS`] (the over-limit ones included).
    pub slow: u64,
    /// (input index, output row) of sampled responses.
    pub samples: Vec<(usize, Vec<f32>)>,
    pub window_s: f64,
    /// Whether tracing was on when each answered request was submitted.
    pub traced: Vec<bool>,
}

impl Load {
    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.over_limit
    }
}

struct Pending {
    id: u64,
    due: Instant,
    submitted: Instant,
    traced: bool,
    ticket: Ticket,
}

/// Length of the alternating untraced and traced phases of a traced run.
const TRACE_PHASE: Duration = Duration::from_millis(500);

/// Gap between calibration bursts while load is offered.
const CALIB_EVERY: Duration = Duration::from_millis(250);

/// Offer Poisson arrivals at [`RATE_RPS`] for `window`. The generator
/// thread never waits for answers; a collector (this thread) waits for
/// them in submission order, which a single lane answers in. A third
/// thread times an FMA calibration burst every [`CALIB_EVERY`]; each
/// latency is scaled by the burst nearest its answer. With `alternate`,
/// the generator turns tracing on and off every [`TRACE_PHASE`].
pub fn drive(
    handle: &ServiceHandle,
    inputs: &[Vec<f32>],
    seed: u64,
    window: Duration,
    alternate: bool,
) -> Load {
    let done = AtomicBool::new(false);
    let mut factors: Vec<(Instant, f64)> = Vec::new();
    let mut answered_at = Vec::new();
    let (tx, rx) = mpsc::channel::<Result<Pending, u64>>();
    let mut load = Load::default();
    let mut lag_ms = Vec::new();
    std::thread::scope(|s| {
        let calibrator = s.spawn(|| {
            let mut factors = Vec::new();
            while !done.load(Ordering::Relaxed) {
                factors.push((Instant::now(), calib::compute_factor()));
                std::thread::sleep(CALIB_EVERY);
            }
            factors
        });
        let generator = s.spawn(|| {
            let mut rng = Rng::new(seed ^ 0xA771);
            let start = Instant::now();
            let mut due = start;
            let mut id = 0u64;
            loop {
                due += Duration::from_secs_f64(rng.exp(1.0 / RATE_RPS));
                if due.duration_since(start) >= window {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let phase = due.duration_since(start).as_nanos() / TRACE_PHASE.as_nanos();
                let traced = alternate && phase % 2 == 1;
                if traced != trace::is_on() {
                    trace::enable(traced);
                }
                let submitted = Instant::now();
                lag_ms.push(submitted.duration_since(due).as_secs_f64() * 1e3);
                let input = inputs[id as usize % inputs.len()].clone();
                let sent = match handle.submit(input) {
                    Ok(ticket) => tx.send(Ok(Pending {
                        id,
                        due,
                        submitted,
                        traced,
                        ticket,
                    })),
                    Err(_) => tx.send(Err(id)),
                };
                sent.expect("the collector outlives the generator");
                id += 1;
            }
            trace::enable(false);
            drop(tx);
            (id, start.elapsed().as_secs_f64())
        });
        for msg in rx {
            load.offered += 1;
            let p = match msg {
                Ok(p) => p,
                Err(_) => {
                    load.refused += 1;
                    continue;
                }
            };
            match p.ticket.wait() {
                Ok(resp) => {
                    let answered = Instant::now();
                    if p.traced {
                        trace::record(
                            "request",
                            p.id,
                            trace::ns_of(p.submitted),
                            trace::ns_of(answered),
                        );
                    }
                    load.traced.push(p.traced);
                    let lat = answered.duration_since(p.due).as_secs_f64() * 1e3;
                    if lat > SLOW_MS {
                        load.slow += 1;
                    }
                    if lat > LIMIT_MS {
                        load.over_limit += 1;
                    }
                    load.lat_ms.push(lat);
                    answered_at.push(answered);
                    load.svc_ms.push(resp.latency.as_secs_f64() * 1e3);
                    load.padded_rows.push(resp.padded_rows);
                    if p.id % SAMPLE_EVERY == 0 {
                        load.samples
                            .push((p.id as usize % inputs.len(), resp.output));
                    }
                }
                Err(_) => load.errors += 1,
            }
        }
        let (offered, window_s) = generator.join().expect("generator thread panicked");
        assert_eq!(
            offered, load.offered,
            "every offered request reached the collector"
        );
        load.window_s = window_s;
        done.store(true, Ordering::Relaxed);
        factors = calibrator.join().expect("calibration thread panicked");
    });
    load.lag_ms = lag_ms;
    // Bursts are timed in order, so the nearest one is found by search.
    load.ref_lat_ms = load
        .lat_ms
        .iter()
        .zip(&answered_at)
        .map(|(&lat, &at)| {
            let i = factors.partition_point(|(t, _)| *t < at);
            let nearest = [i.checked_sub(1), Some(i)]
                .into_iter()
                .flatten()
                .filter_map(|j| factors.get(j))
                .min_by_key(|(t, _)| if *t > at { *t - at } else { at - *t })
                .map_or(1.0, |f| f.1);
            lat * nearest
        })
        .collect();
    load
}

/// f64 forward pass of one input row through `mlp`'s weights.
pub fn reference_forward(mlp: &Mlp, x: &[f32]) -> Vec<f64> {
    let layers = mlp.layers.len();
    let mut cur: Vec<f64> = x.iter().map(|&v| v as f64).collect();
    for (l, layer) in mlp.layers.iter().enumerate() {
        let mut next: Vec<f64> = layer.b.iter().map(|&b| b as f64).collect();
        for (k, &xk) in cur.iter().enumerate() {
            for (o, &w) in next.iter_mut().zip(layer.w.as_ref().row(k)) {
                *o += xk * w as f64;
            }
        }
        if l + 1 != layers {
            next.iter_mut().for_each(|v| *v = v.max(0.0));
        }
        cur = next;
    }
    cur
}

/// Error of the sampled responses against the f64 forward pass, and the
/// largest difference of one response from `Mlp::predict` of the same
/// row on an identically built replica.
fn check(inputs: &[Vec<f32>], load: &Load) -> (stats::RowErrors, f64) {
    let twin = model();
    let mut err_predict = 0.0f64;
    for (idx, out) in &load.samples {
        let x = &inputs[*idx];
        let pred = twin.predict(&Mat::from_vec(1, x.len(), x.clone()));
        let pred64: Vec<f64> = pred.as_slice().iter().map(|&v| v as f64).collect();
        err_predict = err_predict.max(stats::rel_err(out, &pred64));
    }
    let errs = stats::RowErrors::of(
        load.samples
            .iter()
            .map(|(idx, out)| (out.as_slice(), reference_forward(&twin, &inputs[*idx]))),
    );
    (errs, err_predict)
}

/// Useful FLOPs of one request (one row through every layer).
pub fn request_flops() -> f64 {
    2.0 * WIDTHS.windows(2).map(|p| (p[0] * p[1]) as f64).sum::<f64>()
}

/// The planner's error target for `planned` backends.
pub const PLAN_TARGET_ERROR: f64 = 1e-2;

pub struct Served {
    pub load: Load,
    pub stats: ServeStats,
    pub setup_s: f64,
}

/// Start a service, offer load for `window`, shut it down. With
/// `traced`, the layers' backends are decorated and tracing alternates
/// with untraced phases.
pub fn serve(seed: u64, window: Duration, traced: bool) -> Served {
    let inputs = inputs(seed);
    let (svc, setup_s) = setup(&inputs[0], traced);
    let load = drive(&svc.handle(), &inputs, seed, window, traced);
    let stats = svc.shutdown();
    Served {
        load,
        stats,
        setup_s,
    }
}

/// Add the correctness checks and failure counts of one served run;
/// returns the normwise error of the sampled responses.
pub fn check_into(seed: u64, load: &Load, rep: &mut Report) -> f64 {
    let (errs, err_predict) = check(&inputs(seed), load);
    let err_ref = errs.worst_row;
    rep.attempted = load.offered;
    rep.failed = load.failed();
    rep.check(
        format!(
            "{} refused, {} failed, {} over {LIMIT_MS} ms of {} offered",
            load.refused, load.errors, load.over_limit, load.offered
        ),
        load.offered > 0,
    );
    rep.check(
        format!(
            "{} sampled responses match Mlp::predict within {PLAN_TARGET_ERROR:e} (max {err_predict:.3e})",
            load.samples.len()
        ),
        !load.samples.is_empty() && err_predict <= PLAN_TARGET_ERROR,
    );
    rep.check(
        format!("every sampled response within {PLAN_TARGET_ERROR:e} of the f64 forward (worst {err_ref:.3e})"),
        err_ref <= PLAN_TARGET_ERROR,
    );
    errs.overall
}

/// The untraced end-to-end run; returns this process's set-up time in
/// reference-core seconds.
pub fn measure(seed: u64, seconds: u64, rep: &mut Report) -> f64 {
    let served = serve(seed, Duration::from_secs(seconds), false);
    let setup_ref = served.setup_s * calib::factor(1);
    let load = &served.load;
    let err = check_into(seed, load, rep);
    rep.note(format!(
        "serve-open latency from due time {} wall-clock, {} reference-core",
        stats::describe(&load.lat_ms, "ms"),
        stats::describe(&load.ref_lat_ms, "ms")
    ));
    rep.note(format!(
        "{} answered later than {SLOW_MS} ms after their due time",
        load.slow
    ));
    rep.note(format!(
        "offered {:.0} req/s, generator lag {}",
        load.offered as f64 / load.window_s,
        stats::describe(&load.lag_ms, "ms")
    ));
    rep.metric("latency_ms_p50", stats::median(&load.ref_lat_ms), "ms");
    rep.metric(
        "latency_ms_p90",
        stats::quantile(&load.ref_lat_ms, 0.9),
        "ms",
    );
    rep.metric(
        "gflops",
        request_flops() * load.lat_ms.len() as f64 / load.window_s / 1e9,
        "GFLOP/s",
    );
    rep.metric("rel_err", err, "1");
    setup_ref
}
