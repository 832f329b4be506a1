//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures one workload for `--seconds`, checks the
//! outputs and prints every end-to-end metric; with `--trace 1` it runs
//! the per-layer ladder and traced runs and prints every per-layer
//! metric. The last line of standard output is the JSON result. Run it
//! from the repository root (it reads the crates' sources for the
//! fingerprint and writes under `.perfbench/`):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload square-1920 --seed 1 --seconds 15 --trace 0
//! ```

mod calib;
mod decor;
mod ladder;
mod report;
mod serve;
mod square;
mod stats;
mod trace;
mod train;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Exact allocation counts for the `*alloc_bytes*` metrics.
#[global_allocator]
static ALLOC: apa_gemm::CountingAlloc = apa_gemm::CountingAlloc;

const WORKLOADS: [&str; 3] = ["square-1920", "paradnn-train", "serve-open"];

/// Set-up samples per run: this process plus fresh child processes.
const SETUP_SAMPLES: usize = 5;
/// Where runs keep their plan stores, traces and result files.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: set up once, print the time and exit.
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_child) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--setup-child" {
            setup_child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

/// Cores a workload keeps busy (for calibrating its times).
fn threads_of(workload: &str) -> usize {
    if workload == "paradnn-train" {
        train::LANES
    } else {
        1
    }
}

/// One set-up of `workload` in this process, in reference-core seconds.
fn setup_once(workload: &str, seed: u64) -> f64 {
    let wall = match workload {
        "paradnn-train" => train::setup(seed).1,
        "serve-open" => {
            let inputs = serve::inputs(seed);
            let (svc, setup_s) = serve::setup(&inputs[0], false);
            svc.shutdown();
            setup_s
        }
        _ => square::setup(seed).1,
    };
    wall * calib::factor(threads_of(workload))
}

/// Set-up times measured by fresh child processes, each with its own
/// empty plan store, so every sample pays the cold path.
fn child_setups(args: &Args, run_dir: &Path, count: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..count)
        .map(|i| {
            let out = Command::new(&exe)
                .args(["--setup-child", "--workload", &args.workload, "--seed"])
                .arg(args.seed.to_string())
                .env("APA_PLAN_DIR", run_dir.join(format!("setup-{i}")))
                .output()
                .map_err(|e| format!("setup child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse().ok())
                .filter(|_| out.status.success())
                .ok_or(format!(
                    "setup child failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ))
        })
        .collect()
}

fn measure(args: &Args, rep: &mut Report) -> f64 {
    let window = args.seconds;
    match args.workload.as_str() {
        "paradnn-train" => train::measure(args.seed, window, rep),
        "serve-open" => serve::measure(args.seed, window, rep),
        _ => square::measure(args.seed, window, rep),
    }
}

/// The traced run: the workload with traced and untraced operations
/// alternating for the window (`trace.overhead`), then the per-layer
/// ladder.
fn traced(args: &Args, run_dir: &Path, rep: &mut Report) -> Vec<trace::Span> {
    let window = Duration::from_secs(args.seconds);
    let mut spans = Vec::new();
    let mut rng = stats::Rng::new(args.seed ^ 0x1ADD);
    let short = Duration::from_secs(3);
    let (plain, traced) = match args.workload.as_str() {
        "paradnn-train" => ladder::nn_layer(rep, args.seed, None, window, &mut spans),
        "serve-open" => ladder::serve_layer(rep, args.seed, window, &mut spans),
        _ => {
            let (mut sq, _) = square::setup(args.seed);
            let timed = square::run(&mut sq, window, 4, true);
            spans.extend(trace::take());
            ladder::square_layer(rep, &timed);
            (
                stats::median(&timed.ref_secs_where(|_, t| !t)),
                stats::median(&timed.ref_secs_where(|_, t| t)),
            )
        }
    };
    rep.note(format!(
        "trace.overhead base: the untraced {} median (reference-core time), interleaved with the traced operations",
        args.workload
    ));
    rep.metric("trace.overhead", traced / plain - 1.0, "1");

    if args.workload != "square-1920" {
        let (mut sq, _) = square::setup(args.seed);
        ladder::square_layer(rep, &square::run(&mut sq, short, 4, false));
    }
    trace::enable(true);
    ladder::gemm_layer(rep, &mut rng);
    ladder::matmul_layer(rep, &mut rng);
    ladder::planner_layer(rep, &run_dir.join("planner-ladder"), &mut rng);
    trace::enable(false);
    spans.extend(trace::take());
    if args.workload != "paradnn-train" {
        ladder::nn_layer(rep, args.seed, Some(3), short, &mut spans);
    }
    if args.workload != "serve-open" {
        ladder::serve_layer(rep, args.seed, short, &mut spans);
    }
    ladder::planner_counts(rep);
    rep.attempted = 1;
    rep.failed = 0;
    spans
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.setup_child {
        println!("setup_s {}", setup_once(&args.workload, args.seed));
        return;
    }
    // The crates must be here: the benchmark measures this checkout.
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }

    // Isolate the run: a fresh plan store that no earlier run touched.
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).expect("create the run directory");
    std::env::set_var("APA_PLAN_DIR", run_dir.join("plan"));
    let fingerprint = report::fingerprint(&args.workload, args.seed, args.seconds, args.trace);
    for (k, v) in &fingerprint {
        println!("# {k}: {v}");
    }

    let mut rep = Report::default();
    if args.trace {
        let spans = traced(&args, &run_dir, &mut rep);
        let path = PathBuf::from(OUT_DIR)
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => rep.note(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => rep.check(format!("write spans to {}: {e}", path.display()), false),
        }
    } else {
        let own = measure(&args, &mut rep);
        let mut setups = vec![own];
        match child_setups(&args, &run_dir, SETUP_SAMPLES - 1) {
            Ok(s) => setups.extend(s),
            Err(e) => rep.check(e, false),
        }
        rep.note(format!("setup_s samples: {setups:?}"));
        rep.metric("setup_s", stats::median(&setups), "s");
        rep.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        let ok =
            (rep.attempted - rep.failed.min(rep.attempted)) as f64 / rep.attempted.max(1) as f64;
        rep.metric("ok_frac", ok, "1");
    }

    let _ = std::fs::remove_dir_all(&run_dir);
    let results = PathBuf::from(OUT_DIR).join("results").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if std::fs::create_dir_all(results.parent().expect("has a parent")).is_ok() {
        let _ = std::fs::write(&results, rep.full_json(&fingerprint));
    }
    println!("{}", rep.result_line());
}
