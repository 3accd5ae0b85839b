//! Order statistics and the A/B verdict rule.

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). Panics on an empty set: every
    /// metric the benchmark reports has at least one sample.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let (q1, median, q3) = quartiles(samples);
        Self {
            n: samples.len(),
            q1,
            median,
            q3,
        }
    }

    /// Distance between the quartiles as a share of the median's magnitude
    /// (0 when every sample is equal; infinite for a zero median with spread).
    pub fn relative_spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones computed from the printed runs.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let data = sorted(samples);
    let len = data.len();
    assert!(len > 0, "quartiles of an empty sample set");
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    let mid = len / 2;
    let med = if len % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    };
    (cut(1), med, cut(3))
}

/// Fewest pairs a gain may be claimed on.
pub const MIN_PAIRS_FOR_GAIN: usize = 10;

/// Outcome of comparing a change against its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Over at least [`MIN_PAIRS_FOR_GAIN`] pairs, the change wins at least
    /// 9 in 10 and its median moved by more than the parent's own quartile
    /// spread.
    Improved,
    /// Neither a claimable gain nor a regression beyond the bound.
    NoChange,
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound, so a regression of
    /// the bound's size could not be seen.
    Unresolved,
}

impl Verdict {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no change",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs won by the change (`change[i]` strictly better than `parent[i]`);
/// ties count for neither side.
pub fn wins(parent: &[f64], change: &[f64], higher_is_better: bool) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| if higher_is_better { c > p } else { c < p })
        .count()
}

/// The verdict for one metric over paired runs (`parent[i]` and `change[i]`
/// ran back to back), after the sandbox rule for performance claims:
///
/// * **improved** — over at least [`MIN_PAIRS_FOR_GAIN`] pairs, the change
///   wins at least nine tenths of them and the medians differ, in the
///   better direction, by more than the parent's quartile spread;
/// * otherwise, when the parent's relative quartile spread exceeds `bound`,
///   **unresolved** — unless every change run beats every parent run, which
///   is **no change** (certainly not a regression);
/// * **regressed** when the change's median is worse than the parent's by
///   more than `bound` (a share of the parent's median);
/// * **no change** otherwise.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let p = Summary::of(parent);
    let c = Summary::of(change);
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let won = wins(parent, change, higher_is_better);
    if pairs >= MIN_PAIRS_FOR_GAIN
        && won * 10 >= pairs * 9
        && better(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        return Verdict::Improved;
    }
    if p.relative_spread() > bound {
        let worst_change = if higher_is_better {
            change.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            change.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        };
        let best_parent = if higher_is_better {
            parent.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        } else {
            parent.iter().copied().fold(f64::INFINITY, f64::min)
        };
        return if better(worst_change, best_parent) {
            Verdict::NoChange
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if higher_is_better {
        p.median - c.median
    } else {
        c.median - p.median
    };
    if worse_by > bound * p.median.abs() {
        Verdict::Regressed
    } else {
        Verdict::NoChange
    }
}
