//! Failure-aware order statistics and goodput.
//!
//! A failed or refused operation ranks above every `ok` answer of its
//! class, so a change that turns failures into successes can only lower a
//! percentile. A failure ranks at [`FAILED_MS`] plus its own measured time:
//! one run ends within minutes, so no `ok` answer can reach 10⁹ ms
//! (11.6 days), and a percentile that lands on a failure reads above 10⁹.

/// Rank offset of a failed operation, ms.
pub const FAILED_MS: f64 = 1e9;

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall time from request to answer, ms.
    pub ms: f64,
    /// Whether the answer was correct and not an error.
    pub ok: bool,
}

impl Sample {
    /// The value this sample ranks at.
    pub fn rank_ms(self) -> f64 {
        if self.ok {
            self.ms
        } else {
            FAILED_MS + self.ms
        }
    }
}

/// Nearest-rank `q`-quantile of the samples' rank values (failures above
/// every `ok` answer); `None` for an empty set.
pub fn percentile(samples: &[Sample], q: f64) -> Option<f64> {
    let mut ranks: Vec<f64> = samples.iter().map(|s| s.rank_ms()).collect();
    if ranks.is_empty() {
        return None;
    }
    ranks.sort_by(f64::total_cmp);
    Some(sr::obs::percentile(&ranks, q))
}

/// `ok` operations answered within `limit_ms`, per second of `seconds`.
pub fn goodput(samples: &[Sample], limit_ms: f64, seconds: f64) -> f64 {
    let good = samples.iter().filter(|s| s.ok && s.ms <= limit_ms).count();
    good as f64 / seconds
}

/// Median of a non-empty set (the mean of the two middle values for an
/// even count); `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}
