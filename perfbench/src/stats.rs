//! Small numeric helpers: a seeded generator, order statistics, the
//! tail-percentile rule, error norms and process memory.

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`, as f32.
    pub fn signed_f32(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quantile `q ∈ [0, 1]` with linear interpolation between order
/// statistics; NaN for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Percentiles the tail rule may report, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A timing's tail: the highest percentile of [`TAIL_LADDER`] with at
/// least ten samples beyond it, its value and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub count: usize,
}

/// The tail rule; `None` when fewer than ten samples lie beyond even
/// the median.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len() as f64;
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|&pct| Tail {
            pct,
            value: quantile(v, pct / 100.0),
            count: v.len(),
        })
}

/// One-line summary of a timing sample: median, the tail rule and `n`.
pub fn describe(v: &[f64], unit: &str) -> String {
    match tail(v) {
        Some(t) if t.pct > 50.0 => format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit} (n={})",
            median(v),
            t.pct,
            t.value,
            t.count
        ),
        _ => format!(
            "p50 {:.4} {unit} (n={}, too few for a tail)",
            median(v),
            v.len()
        ),
    }
}

/// `count` row indices in `0..n`, one drawn from each of `count` equal
/// strata, so every block of a blocked product is checked alike.
pub fn stratified_rows(n: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    let stride = n / count;
    (0..count)
        .map(|r| r * stride + (rng.next_u64() % stride as u64) as usize)
        .collect()
}

/// Errors of checked output rows against an f64 reference: the normwise
/// error over all of them, and the worst single row.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowErrors {
    pub overall: f64,
    pub worst_row: f64,
    /// `Σ (x − r)²` and `Σ r²` over every checked element.
    err_sq: f64,
    ref_sq: f64,
}

impl RowErrors {
    pub fn of<'a>(rows: impl IntoIterator<Item = (&'a [f32], Vec<f64>)>) -> RowErrors {
        let mut out = RowErrors::default();
        for (computed, reference) in rows {
            out.worst_row = out.worst_row.max(rel_err(computed, &reference));
            for (&x, &r) in computed.iter().zip(&reference) {
                out.err_sq += (x as f64 - r).powi(2);
                out.ref_sq += r * r;
            }
        }
        out.overall = (out.err_sq / out.ref_sq).sqrt();
        out
    }

    /// The normwise error over the rows of several checks together.
    pub fn combined(all: &[RowErrors]) -> f64 {
        let err_sq: f64 = all.iter().map(|e| e.err_sq).sum();
        let ref_sq: f64 = all.iter().map(|e| e.ref_sq).sum();
        (err_sq / ref_sq).sqrt()
    }
}

/// `‖x − r‖₂ / ‖r‖₂` with the reference in f64.
pub fn rel_err(x: &[f32], reference: &[f64]) -> f64 {
    assert_eq!(x.len(), reference.len(), "length mismatch");
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (&a, &r) in x.iter().zip(reference) {
        num += (a as f64 - r).powi(2);
        den += r * r;
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream (source fingerprint, output checksums).
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Bitwise checksum of an f32 slice.
pub fn checksum(v: &[f32]) -> u64 {
    v.iter()
        .fold(FNV_OFFSET, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        // 100 samples: p90 leaves exactly ten beyond it, p95 only five.
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.count, 100);
        assert!((t.value - quantile(&v, 0.9)).abs() < 1e-12);

        let big: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&big).unwrap().pct, 99.9);
        let mid: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&mid).unwrap().pct, 99.0);
        let small: Vec<f64> = (0..25).map(f64::from).collect();
        assert_eq!(tail(&small).unwrap().pct, 50.0);
        assert_eq!(tail(&[1.0; 19]), None);
    }

    #[test]
    fn quantile_interpolates_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn rng_is_reproducible_per_seed() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_rows_cover_every_stratum() {
        let rows = stratified_rows(1920, 24, &mut Rng::new(3));
        assert_eq!(rows.len(), 24);
        for (r, &i) in rows.iter().enumerate() {
            assert!((r * 80..(r + 1) * 80).contains(&i));
        }
    }

    #[test]
    fn row_errors_combine_normwise() {
        let a = RowErrors::of([(&[3.0f32, 4.5][..], vec![3.0, 4.0])]);
        let b = RowErrors::of([(&[1.0f32][..], vec![1.0])]);
        assert!((a.overall - 0.1).abs() < 1e-12);
        assert_eq!(a.worst_row, a.overall);
        // 0.25 / (25 + 1)
        assert!((RowErrors::combined(&[a, b]) - (0.25f64 / 26.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rel_err_is_normwise() {
        assert_eq!(rel_err(&[3.0, 4.0], &[3.0, 4.0]), 0.0);
        assert!((rel_err(&[3.0, 4.5], &[3.0, 4.0]) - 0.1).abs() < 1e-12);
    }
}
