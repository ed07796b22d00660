//! Percentiles, summaries over repeats, and the host fingerprint.

use std::fmt;

/// Why a sample could not be summarised. Returned, never panicked: an
/// empty latency sample means every operation failed, which the caller
/// reports as failures rather than as a crash or a NaN.
#[derive(Clone, Debug, PartialEq)]
pub enum StatsError {
    EmptySample,
    /// A NaN or infinite value at this index; it would make the sort
    /// order, and so the percentile, meaningless.
    NonFinite(usize),
    /// The requested percentile is outside `(0, 100]`.
    BadPercentile(f64),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "empty sample"),
            StatsError::NonFinite(i) => write!(f, "non-finite value at index {i}"),
            StatsError::BadPercentile(p) => write!(f, "percentile {p} is outside (0, 100]"),
        }
    }
}

fn sorted(samples: &[f64]) -> Result<Vec<f64>, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if let Some(i) = samples.iter().position(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite(i));
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    Ok(v)
}

/// Nearest-rank percentile: the smallest sample with at least `pct` %
/// of the sample at or below it.
pub fn percentile(samples: &[f64], pct: f64) -> Result<f64, StatsError> {
    if !(pct > 0.0 && pct <= 100.0) {
        return Err(StatsError::BadPercentile(pct));
    }
    let v = sorted(samples)?;
    let rank = (pct / 100.0 * v.len() as f64).ceil() as usize;
    Ok(v[rank.clamp(1, v.len()) - 1])
}

/// The percentiles a latency may be reported at.
pub const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest of [`TAIL_PERCENTILES`] with at least ten of `n` samples
/// beyond it; `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Median of repeats with its min–max band and its quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile, as Python's `statistics.quantiles(n=4)`
    /// gives them (the driver's spread); the min and max for fewer than
    /// four repeats, which is also what that method gives for three.
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single exact value (a count, a deterministic quality figure).
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Quartile `i` of 4 of sorted `v` (at least two values), exclusive method.
fn quartile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median (mean of the two middle values for an even count), band and
/// quartiles.
pub fn summarize(samples: &[f64]) -> Result<Summary, StatsError> {
    let v = sorted(samples)?;
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let (min, max) = (v[0], v[n - 1]);
    let (q1, q3) = if n < 4 {
        (min, max)
    } else {
        (quartile(&v, 1), quartile(&v, 3))
    };
    Ok(Summary {
        median,
        min,
        max,
        q1,
        q3,
        n,
    })
}

/// Where and how a result file was taken.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd_backend: String,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
    /// Minimum repeats of every timed section and of set-up.
    pub repeats: usize,
}

/// `run.sh` exports the two facts a running binary cannot see.
pub const RUSTC_ENV: &str = "HIGNN_BENCHMARK_RUSTC";
pub const COMMIT_ENV: &str = "HIGNN_BENCHMARK_COMMIT";

fn cpu_model_from(cpuinfo: &str) -> String {
    cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or_else(
            || "unknown".to_string(),
            |(_, model)| model.trim().to_string(),
        )
}

impl Host {
    pub fn detect(simd_backend: &str, seed: u64, repeats: usize) -> Host {
        let env = |k: &str| {
            std::env::var(k)
                .ok()
                .filter(|v| !v.is_empty())
                .unwrap_or_else(|| "unknown".into())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model_from(
                &std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default(),
            ),
            simd_backend: simd_backend.to_string(),
            rustc: env(RUSTC_ENV),
            git_commit: env(COMMIT_ENV),
            seed,
            repeats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert_eq!(percentile(&v, 100.0), Ok(100.0));
        assert_eq!(percentile(&v, 0.5), Ok(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Ok(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Ok(7.0));
    }

    #[test]
    fn percentile_refuses_bad_input_without_panicking() {
        assert_eq!(percentile(&[], 50.0), Err(StatsError::EmptySample));
        assert_eq!(
            percentile(&[1.0, f64::NAN], 50.0),
            Err(StatsError::NonFinite(1))
        );
        assert_eq!(
            percentile(&[f64::INFINITY], 50.0),
            Err(StatsError::NonFinite(0))
        );
        assert_eq!(percentile(&[1.0], 0.0), Err(StatsError::BadPercentile(0.0)));
        assert_eq!(
            percentile(&[1.0], 101.0),
            Err(StatsError::BadPercentile(101.0))
        );
        assert!(matches!(
            percentile(&[1.0], f64::NAN),
            Err(StatsError::BadPercentile(_))
        ));
        assert_eq!(summarize(&[]), Err(StatsError::EmptySample));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(125), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_is_median_with_band_and_quartiles() {
        let three = Summary {
            median: 2.0,
            min: 1.0,
            max: 3.0,
            q1: 1.0,
            q3: 3.0,
            n: 3,
        };
        assert_eq!(summarize(&[3.0, 1.0, 2.0]), Ok(three));
        let four = Summary {
            median: 2.5,
            min: 1.0,
            max: 4.0,
            q1: 1.25,
            q3: 3.75,
            n: 4,
        };
        assert_eq!(summarize(&[4.0, 1.0, 2.0, 3.0]), Ok(four));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // One outlier among many repeats moves the band, not the quartiles.
        let mut noisy = vec![10.0; 20];
        noisy.push(90.0);
        let s = summarize(&noisy).unwrap();
        assert_eq!((s.q1, s.q3, s.max), (10.0, 10.0, 90.0));
        let exact = Summary {
            median: 5.0,
            min: 5.0,
            max: 5.0,
            q1: 5.0,
            q3: 5.0,
            n: 1,
        };
        assert_eq!(Summary::exact(5.0), exact);
        assert_eq!(summarize(&[1.0, f64::NAN]), Err(StatsError::NonFinite(1)));
    }

    #[test]
    fn host_fingerprint_has_every_field() {
        assert_eq!(
            cpu_model_from("vendor_id : X\nmodel name\t: Foo CPU @ 2GHz\nmodel name\t: other\n"),
            "Foo CPU @ 2GHz"
        );
        assert_eq!(cpu_model_from(""), "unknown");
        let h = Host::detect("avx2+fma", 7, 3);
        assert!(h.nproc >= 1);
        assert!(!h.cpu_model.is_empty() && !h.rustc.is_empty() && !h.git_commit.is_empty());
        assert_eq!(
            (h.simd_backend.as_str(), h.seed, h.repeats),
            ("avx2+fma", 7, 3)
        );
    }
}
