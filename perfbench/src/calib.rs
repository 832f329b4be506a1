//! The machine-speed calibration loop.
//!
//! On a shared host the speed of a core drifts. On a 2-vCPU AVX-512
//! cloud VM (2 MiB L2 per core) a one-thread 1920³ product took
//! 113–194 ms within a single 150-second run while steal time stayed at
//! zero, and no run length averaged the drift out. A fixed burst owned by
//! the benchmark and untouched by the code under test slows down with
//! the core: a register-resident FMA loop plus a streaming read of a
//! buffer larger than L2, because the products and combination sweeps
//! measured here depend on both. Timing a burst between the operations
//! of a run gives each operation's cost in reference-core time, which is
//! steadier across runs than wall-clock time: on that VM the run-to-run
//! spread of the median 1920³ product fell from 0.09–0.21 to 0.04–0.10 of
//! the median, and to 0.2 in one drifting period. The benchmark reports
//! every time scaled to a reference core that runs the FMA loop at
//! [`REF_GFLOPS`] per thread and the read at [`REF_GBPS`], and prints the
//! wall-clock values beside them.

use std::sync::OnceLock;
use std::time::Instant;

/// FMA-loop iterations of one burst (about 4 ms on a 2020s core).
const ITERS: u64 = 2_000_000;
/// f32 elements the burst reads (32 MiB, about 4 ms).
const STREAM_ELEMS: usize = 8 << 20;
/// Independent accumulator chains per iteration.
const CHAINS: usize = 10;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn burst_avx2(iters: u64, m: f32, a: f32) -> (f32, u64) {
    use std::arch::x86_64::*;
    let (vm, va) = (_mm256_set1_ps(m), _mm256_set1_ps(a));
    let mut acc = [_mm256_setzero_ps(); CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_ps(*x, vm, va);
        }
    }
    let mut lanes = [0f32; 8];
    let mut sum = _mm256_setzero_ps();
    for x in acc {
        sum = _mm256_add_ps(sum, x);
    }
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    (lanes.iter().sum(), iters * (CHAINS * 8 * 2) as u64)
}

fn burst_scalar(iters: u64, m: f32, a: f32) -> (f32, u64) {
    let mut acc = [0f32; CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(m, a);
        }
    }
    (acc.iter().sum(), iters * (CHAINS * 2) as u64)
}

fn fma_secs() -> f64 {
    let (m, a) = (
        std::hint::black_box(0.999_999f32),
        std::hint::black_box(1e-7f32),
    );
    let t0 = Instant::now();
    #[cfg(target_arch = "x86_64")]
    let (sink, flops) = if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: both target features were detected at runtime.
        unsafe { burst_avx2(ITERS, m, a) }
    } else {
        burst_scalar(ITERS / 8, m, a)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let (sink, flops) = burst_scalar(ITERS / 8, m, a);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    // Normalize a scalar fallback to the vector burst's work.
    secs * (ITERS * (CHAINS * 8 * 2) as u64) as f64 / flops as f64
}

fn stream_secs() -> f64 {
    static BUF: OnceLock<Vec<f32>> = OnceLock::new();
    let buf = BUF.get_or_init(|| (0..STREAM_ELEMS).map(|i| (i % 7) as f32).collect());
    let t0 = Instant::now();
    let mut acc = [0f32; 16];
    for chunk in buf.chunks_exact(16) {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a += x;
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Reference-core time of one burst over its measured time, on this
/// thread.
fn burst() -> f64 {
    let ref_secs = (ITERS * (CHAINS * 8 * 2) as u64) as f64 / (REF_GFLOPS * 1e9)
        + (STREAM_ELEMS * 4) as f64 / (REF_GBPS * 1e9);
    ref_secs / (fma_secs() + stream_secs())
}

/// The reference core runs the FMA loop at this many GFLOP/s per thread.
pub const REF_GFLOPS: f64 = 100.0;
/// The reference core reads the stream buffer at this many GB/s.
pub const REF_GBPS: f64 = 10.0;

/// [`factor`] for one thread from the FMA loop alone: cheap enough to
/// run beside a service lane without slowing it, which the streaming
/// read does.
pub fn compute_factor() -> f64 {
    (ITERS * (CHAINS * 8 * 2) as u64) as f64 / (REF_GFLOPS * 1e9) / fma_secs()
}

/// Scale factor from wall-clock time to reference-core time for work
/// that keeps `threads` cores busy: the mean over `threads` concurrent
/// bursts of reference time over measured time.
pub fn factor(threads: usize) -> f64 {
    if threads <= 1 {
        return burst();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(burst)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration burst panicked"))
            .sum::<f64>()
            / threads as f64
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn scalar_and_vector_bursts_count_flops() {
        let (_, flops) = super::burst_scalar(10, 1.0, 0.0);
        assert_eq!(flops, 10 * super::CHAINS as u64 * 2);
        assert!(super::factor(1) > 0.0);
        assert!(super::factor(2) > 0.0);
    }
}
