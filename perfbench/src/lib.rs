//! The repository benchmark: end-to-end and per-layer metrics of the SR
//! compiler (`sr_core::compile` + `verify`) and of the `sr-serve` admission
//! path (`Daemon::handle_frame` over in-memory frames).
//!
//! Every workload builds its inputs from the `--seed` it is given, measures
//! for `--seconds`, checks every answer with an oracle of its own, and
//! reports one [`Outcome`]. `perfbench/README.md` defines each workload and
//! metric.

#![deny(unsafe_code)]

use std::collections::BTreeMap;

pub mod compile_wl;
pub mod heap;
pub mod serve_wl;
pub mod stats;
pub mod trace;

use stats::{goodput, median, percentile, Sample};
use trace::TraceAcc;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// One measured unit of a run: a compile pass over one placement, or one
/// epoch of admission churn.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Requests for inputs the client had never sent.
    pub cold: Vec<Sample>,
    /// Requests for inputs the client had sent before.
    pub warm: Vec<Sample>,
    /// Wall time of the window's requests, s (the goodput denominator).
    pub seconds: f64,
}

/// What one untraced or traced measurement of a workload observed.
///
/// The machine's speed drifts on a scale of seconds, so each end-to-end
/// timing is computed per [`Window`] and reported as the median over the
/// run's windows: a minority of slow seconds cannot move it.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Set-up times, s: one per placement (compile) or daemon epoch (serve).
    pub setup_s: Vec<f64>,
    /// The measured windows, in run order.
    pub windows: Vec<Window>,
    /// Latency limit an `ok` answer must meet to count as goodput, ms.
    pub goodput_limit_ms: f64,
    /// Operations attempted (every request, frame or oracle check).
    pub attempted: u64,
    /// Operations that failed: error answers and failed oracle checks.
    pub failed: u64,
    /// Oracle violations; any one makes the run incorrect.
    pub violations: Vec<String>,
    /// Failed answers by kind.
    pub tally: BTreeMap<String, u64>,
    /// Resident tenants at the end of the last epoch (serve only).
    pub tenants_held: f64,
}

/// Quantile of the `*_tail_ms` metrics. About ten of a `paper_sweep` pass's
/// 96 requests lie beyond it. A serve epoch has about 1,000 requests per
/// class, but p95 there spread 0.23 over ten seeds against 0.10 for p50,
/// because tails amplify the machine's speed drift.
pub const TAIL_Q: f64 = 0.9;

impl Outcome {
    /// Counts one failed operation of `kind`.
    pub fn fail(&mut self, kind: &str) {
        self.failed += 1;
        *self.tally.entry(kind.to_string()).or_default() += 1;
    }

    /// Takes over another measurement's checks (attempts, failures and
    /// violations), but not its timings.
    pub fn absorb_checks(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        for (kind, n) in other.tally {
            *self.tally.entry(kind).or_default() += n;
        }
    }

    /// Records an oracle violation (also a failed operation).
    pub fn violate(&mut self, kind: &str, detail: String) {
        self.fail(kind);
        if self.violations.len() < 20 {
            self.violations.push(detail);
        }
    }

    /// Whether every oracle check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Mean wall time of the `ok` requests, ms (the tracing-overhead base).
    pub fn mean_ok_ms(&self) -> f64 {
        let ok: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| w.cold.iter().chain(&w.warm))
            .filter(|s| s.ok)
            .map(|s| s.ms)
            .collect();
        ok.iter().sum::<f64>() / ok.len().max(1) as f64
    }

    /// Request counts of both classes over all windows.
    pub fn requests(&self) -> (usize, usize) {
        self.windows.iter().fold((0, 0), |(c, w), win| {
            (c + win.cold.len(), w + win.warm.len())
        })
    }

    /// Median over the windows of `stat`, skipping windows where it is
    /// undefined.
    fn across_windows(&self, stat: impl Fn(&Window) -> Option<f64>) -> f64 {
        let per_window: Vec<f64> = self.windows.iter().filter_map(stat).collect();
        median(&per_window).expect("every class is measured in some window")
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    ///
    /// # Panics
    ///
    /// Panics if a latency class or the set-up list is empty; every
    /// workload measures at least one request of each class.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let cold = |q: f64| self.across_windows(|w| percentile(&w.cold, q));
        let warm = |q: f64| self.across_windows(|w| percentile(&w.warm, q));
        vec![
            Metric {
                name: "setup_s",
                value: median(&self.setup_s).expect("at least one set-up"),
                unit: "s",
            },
            Metric {
                name: "ok_frac",
                value: (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64,
                unit: "fraction",
            },
            Metric {
                name: "goodput_per_s",
                value: self.across_windows(|w| {
                    let all: Vec<Sample> = w.cold.iter().chain(&w.warm).copied().collect();
                    Some(goodput(&all, self.goodput_limit_ms, w.seconds))
                }),
                unit: "1/s",
            },
            Metric {
                name: "cold_p50_ms",
                value: cold(0.50),
                unit: "ms",
            },
            Metric {
                name: "cold_tail_ms",
                value: cold(TAIL_Q),
                unit: "ms",
            },
            Metric {
                name: "warm_p50_ms",
                value: warm(0.50),
                unit: "ms",
            },
            Metric {
                name: "warm_tail_ms",
                value: warm(TAIL_Q),
                unit: "ms",
            },
        ]
    }
}

/// The traced half of a `--trace 1` run.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    /// Spans and counters of every traced window.
    pub acc: TraceAcc,
    /// Chrome-trace JSON of the first traced window.
    pub chrome_json: Option<String>,
}

impl Tracer {
    /// Folds in one traced recorder, keeping the first one's Chrome trace.
    pub fn add(&mut self, rec: &sr::obs::MetricsRecorder) {
        self.acc.add_recorder(rec);
        if self.chrome_json.is_none() {
            self.chrome_json = Some(rec.chrome_trace_json());
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric with its unit.
pub fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// A finite number as JSON (shortest round-trip digits); non-finite values,
/// which JSON cannot carry, as the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}
