//! Online A/B-testing metrics (paper Table IV).
//!
//! The paper reports four commercial metrics per arm and day:
//! *UV* (unique clicked visitors), *CNT* (transaction count),
//! *CTR* (clicks / visits), and *CVR* (transactions / clicks), plus the
//! relative improvement of the treatment arm.

use std::fmt;

/// Raw counters accumulated by one experiment arm.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ArmStats {
    /// Number of page/item visits (impressions).
    pub visits: u64,
    /// Number of clicks.
    pub clicks: u64,
    /// Number of distinct visitors who clicked at least once.
    pub unique_clicked_visitors: u64,
    /// Number of purchases (transactions).
    pub transactions: u64,
}

impl ArmStats {
    /// Click-through rate: clicks / visits.
    pub fn ctr(&self) -> f64 {
        if self.visits == 0 {
            0.0
        } else {
            self.clicks as f64 / self.visits as f64
        }
    }

    /// Conversion rate: transactions / clicks.
    pub fn cvr(&self) -> f64 {
        if self.clicks == 0 {
            0.0
        } else {
            self.transactions as f64 / self.clicks as f64
        }
    }
}

/// A control-vs-treatment comparison for one period (e.g. one day).
#[derive(Clone, Copy, Debug)]
pub struct AbComparison {
    /// The control arm's counters.
    pub control: ArmStats,
    /// The treatment arm's counters.
    pub treatment: ArmStats,
}

/// Relative improvement in percent (`(new - old) / old * 100`).
pub fn lift_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new - old) / old * 100.0
    }
}

impl AbComparison {
    /// UV lift in percent.
    pub(crate) fn uv_lift(&self) -> f64 {
        lift_pct(
            self.control.unique_clicked_visitors as f64,
            self.treatment.unique_clicked_visitors as f64,
        )
    }

    /// Transaction-count lift in percent.
    pub fn cnt_lift(&self) -> f64 {
        lift_pct(self.control.transactions as f64, self.treatment.transactions as f64)
    }

    /// CTR lift in percent.
    pub fn ctr_lift(&self) -> f64 {
        lift_pct(self.control.ctr(), self.treatment.ctr())
    }

    /// CVR lift in percent.
    pub(crate) fn cvr_lift(&self) -> f64 {
        lift_pct(self.control.cvr(), self.treatment.cvr())
    }
}

impl fmt::Display for AbComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "UV  {:>8} -> {:>8} ({:+.2}%)",
            self.control.unique_clicked_visitors,
            self.treatment.unique_clicked_visitors,
            self.uv_lift()
        )?;
        writeln!(
            f,
            "CNT {:>8} -> {:>8} ({:+.2}%)",
            self.control.transactions,
            self.treatment.transactions,
            self.cnt_lift()
        )?;
        writeln!(
            f,
            "CTR {:>8.4} -> {:>8.4} ({:+.2}%)",
            self.control.ctr(),
            self.treatment.ctr(),
            self.ctr_lift()
        )?;
        write!(
            f,
            "CVR {:>8.4} -> {:>8.4} ({:+.2}%)",
            self.control.cvr(),
            self.treatment.cvr(),
            self.cvr_lift()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let arm = ArmStats { visits: 1000, clicks: 350, unique_clicked_visitors: 300, transactions: 42 };
        assert!((arm.ctr() - 0.35).abs() < 1e-12);
        assert!((arm.cvr() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators() {
        let arm = ArmStats::default();
        assert_eq!(arm.ctr(), 0.0);
        assert_eq!(arm.cvr(), 0.0);
    }

    #[test]
    fn lifts_match_paper_style() {
        // Paper Table IV day 1: UV 43,514 -> 44,341 (+1.90%).
        let cmp = AbComparison {
            control: ArmStats {
                visits: 100_000,
                clicks: 35_690,
                unique_clicked_visitors: 43_514,
                transactions: 54_438,
            },
            treatment: ArmStats {
                visits: 100_000,
                clicks: 35_810,
                unique_clicked_visitors: 44_341,
                transactions: 55_940,
            },
        };
        assert!((cmp.uv_lift() - 1.90).abs() < 0.01);
        assert!((cmp.cnt_lift() - 2.76).abs() < 0.01);
        assert!((cmp.ctr_lift() - 0.34).abs() < 0.01);
    }

    #[test]
    fn lift_pct_zero_base() {
        assert_eq!(lift_pct(0.0, 5.0), 0.0);
        assert!((lift_pct(2.0, 3.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn display_renders_all_rows() {
        let cmp = AbComparison { control: ArmStats::default(), treatment: ArmStats::default() };
        let s = cmp.to_string();
        for key in ["UV", "CNT", "CTR", "CVR"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
