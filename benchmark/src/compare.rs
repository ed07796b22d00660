//! `hignn-benchmark compare A.json B.json`: is B no worse than A?
//!
//! Per workload and end-to-end metric: both medians, the ratio B / A,
//! and a verdict under the bound `BENCHMARK.json` fixes for the metric
//! (`catalog::END_TO_END`; a test keeps the two equal).

use crate::catalog::{self, Better};
use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread of a side's repeats (third minus first quartile) is
    /// wider than the bound, and the min–max bands overlap: the runs
    /// cannot tell.
    Unresolved,
}

/// Median, band and quartiles of one side.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    /// Distance between the quartiles as a share of the median: the
    /// spread the driver judges steadiness by. With three repeats the
    /// quartiles are the min and the max.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Share of A's median by which B is worse (negative when better).
fn worse_by(a: &Side, b: &Side, better: Better) -> f64 {
    match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    }
}

pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let wide = a.spread().max(b.spread()) > bound;
    // Every repeat of one side reads worse than every repeat of the other.
    let all_worse = |x: &Side, y: &Side| match better {
        Better::Lower => x.min > y.max,
        Better::Higher => x.max < y.min,
    };
    if worse_by(a, b, better) > bound {
        if !wide || all_worse(b, a) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if !wide || all_worse(a, b) {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let num = |key| m.get(key).and_then(Json::as_f64);
    Some(Side {
        median: num("value")?,
        min: num("min")?,
        max: num("max")?,
        q1: num("q1")?,
        q3: num("q3")?,
    })
}

fn failed_share(workload: &Json) -> f64 {
    let num = |key| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    num("ops_failed") / num("ops_attempted").max(1.0)
}

/// Prints the table; `Ok(true)` when nothing regressed. A metric is
/// judged on the workloads the catalog gates it on and printed as
/// `reported` on the others.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read(a_path)?, read(b_path)?);
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A: no workloads")?;
    let mut clean = true;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>8}  verdict (bound)",
        "workload", "metric", "A", "B", "B/A"
    );
    for (name, wa) in workloads {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or(format!("B: no workload {name}"))?;
        for &(metric, _, better, bound, gated_on) in &catalog::END_TO_END {
            let (Some(sa), Some(sb)) = (side(wa, metric), side(wb, metric)) else {
                println!("{name:<18} {metric:<22} missing on one side: regressed");
                clean = false;
                continue;
            };
            let word = if gated_on.contains(&name.as_str()) {
                let verdict = judge(&sa, &sb, better, bound);
                clean &= verdict != Verdict::Regressed;
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            } else {
                "reported"
            };
            println!(
                "{name:<18} {metric:<22} {:>14.4} {:>14.4} {:>8.4}  {word} ({bound}, {} is better)",
                sa.median,
                sb.median,
                sb.median / sa.median,
                better.name(),
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            println!("{name:<18} ops_failed share rose from {fa} to {fb}: regressed");
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three repeats: the quartiles are the min and the max.
    fn side(median: f64, min: f64, max: f64) -> Side {
        Side {
            median,
            min,
            max,
            q1: min,
            q3: max,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_band() {
        let tight = side(100.0, 99.0, 101.0);
        // Within the bound either way.
        assert_eq!(
            judge(&tight, &side(105.0, 104.0, 106.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight, &side(95.0, 94.0, 96.0), Better::Higher, 0.10),
            Verdict::Ok
        );
        // Past the bound in the bad direction only.
        assert_eq!(
            judge(&tight, &side(115.0, 114.0, 116.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight, &side(115.0, 114.0, 116.0), Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight, &side(85.0, 84.0, 86.0), Better::Higher, 0.10),
            Verdict::Regressed
        );
        // A band wider than the bound with overlap cannot tell.
        let noisy = side(100.0, 80.0, 120.0);
        assert_eq!(
            judge(&noisy, &side(104.0, 90.0, 118.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &side(115.0, 100.0, 130.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Many repeats with one outlier: the band is wide, the spread is not.
        let outlier = Side {
            median: 100.0,
            min: 99.0,
            max: 190.0,
            q1: 99.5,
            q3: 101.0,
        };
        assert_eq!(judge(&outlier, &tight, Better::Lower, 0.10), Verdict::Ok);
        // ... unless every repeat of one side beats every repeat of the other.
        assert_eq!(
            judge(&noisy, &side(150.0, 125.0, 175.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&noisy, &side(60.0, 50.0, 70.0), Better::Lower, 0.10),
            Verdict::Ok
        );
    }
}
