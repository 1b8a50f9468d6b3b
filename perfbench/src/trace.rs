//! Traced-run analysis: per-layer self time, busy time and work counts,
//! read from the spans and counters that a [`MetricsRecorder`] collected.
//!
//! Spans come from two places: the benchmark's own spans around each call
//! into a layer (`bench.*`), and the spans and counters the program already
//! emits into the recorder it is handed (`compile`, `phase.*`, `serve.*`).

use std::collections::BTreeMap;

use sr::obs::{MetricsRecorder, SpanRecord};

/// The span that bounds one traced window; self times are taken inside it.
pub(crate) const WINDOW: &str = "bench.window";

/// Layers of the self-time table, deepest first. Every instant of a traced
/// window goes to the first layer in this list that has a span open on any
/// thread, so the rows plus the unaccounted row sum to the window's wall
/// time even when speculative seeds overlap on two cores.
const LAYERS: &[&str] = &[
    "phase.time_bounds",
    "phase.assign_paths",
    "phase.allocate_intervals",
    "phase.schedule_intervals",
    "phase.build_node_schedules",
    "candidate",
    "compile",
    "serve.compile_standalone",
    "serve.admit",
    "serve.evict",
    "bench.handle_frame",
    "bench.codec",
    "bench.frame",
    "bench.ledger",
    "bench.check_invariants",
    "bench.verify",
    "bench.request",
];

/// The daemon's latency histograms read into the per-layer metrics.
const HISTOGRAMS: &[&str] = &[
    "serve.admit_latency.replay",
    "serve.admit_latency.fast",
    "serve.admit_latency.adapted",
    "serve.admit_latency.rerouted",
    "serve.admit_latency.reject",
    "serve.evict_latency",
];

/// Spans, counters and histograms summed over every traced window of a run.
#[derive(Debug, Clone)]
pub struct TraceAcc {
    /// Wall time attributed to each of [`LAYERS`], µs.
    self_us: Vec<f64>,
    /// Summed span durations per layer, µs (overlapping spans both count).
    busy_us: Vec<f64>,
    /// Span count per layer.
    spans: Vec<u64>,
    /// Window time under no layer span, µs.
    unaccounted_us: f64,
    /// Summed window wall time, µs.
    wall_us: f64,
    /// Program spans (names outside `bench.*`) left in the recorders.
    program_spans: u64,
    /// Recorders folded in.
    recorders: u64,
    /// `bench.handle_frame` busy time and count by request op.
    handle_by_op: BTreeMap<String, (u64, f64)>,
    /// Counter totals.
    counters: BTreeMap<String, u64>,
    /// Histogram sample count and sum, by name.
    hist: BTreeMap<String, (usize, f64)>,
}

impl Default for TraceAcc {
    fn default() -> Self {
        TraceAcc {
            self_us: vec![0.0; LAYERS.len()],
            busy_us: vec![0.0; LAYERS.len()],
            spans: vec![0; LAYERS.len()],
            unaccounted_us: 0.0,
            wall_us: 0.0,
            program_spans: 0,
            recorders: 0,
            handle_by_op: BTreeMap::new(),
            counters: BTreeMap::new(),
            hist: BTreeMap::new(),
        }
    }
}

impl TraceAcc {
    /// Folds in one recorder whose traced window is its last closed
    /// [`WINDOW`] span.
    ///
    /// # Panics
    ///
    /// Panics if the recorder holds no closed window span.
    pub fn add_recorder(&mut self, rec: &MetricsRecorder) {
        let spans = rec.spans();
        let window = spans
            .iter()
            .rev()
            .find(|s| s.name == WINDOW && s.dur_us.is_some())
            .expect("traced recorder carries a closed window span");
        let (t0, t1) = (
            window.start_us,
            window.start_us + window.dur_us.unwrap_or(0.0),
        );
        self.wall_us += t1 - t0;
        self.unaccounted_us += attribute(&spans, t0, t1, &mut self.self_us);
        for s in &spans {
            if !s.name.starts_with("bench.") {
                self.program_spans += 1;
            }
            let Some(layer) = layer_of(&s.name) else {
                continue;
            };
            let dur = s.dur_us.unwrap_or(0.0);
            self.busy_us[layer] += dur;
            self.spans[layer] += 1;
            if s.name == "bench.handle_frame" {
                let e = self.handle_by_op.entry(s.detail.clone()).or_default();
                e.0 += 1;
                e.1 += dur;
            }
        }
        for (name, v) in rec.counters() {
            *self.counters.entry(name).or_default() += v;
        }
        for name in HISTOGRAMS {
            if let Some(h) = rec.histogram_summary(name) {
                let e = self.hist.entry((*name).to_string()).or_default();
                e.0 += h.count;
                e.1 += h.mean * h.count as f64;
            }
        }
        self.recorders += 1;
    }

    fn layer(&self, name: &str) -> (f64, f64, u64) {
        let i = layer_of(name).expect("known layer");
        (self.self_us[i], self.busy_us[i], self.spans[i])
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// The self-time table: one row per layer with spans, an explicit
    /// unaccounted row, and the traced wall time they sum to.
    pub fn table(&self) -> String {
        let pct = |us: f64| 100.0 * us / self.wall_us.max(f64::MIN_POSITIVE);
        let mut out = format!(
            "{:<28} {:>12} {:>7} {:>12} {:>9}\n",
            "layer", "self_ms", "self_%", "busy_ms", "spans"
        );
        for (i, name) in LAYERS.iter().enumerate() {
            if self.spans[i] > 0 {
                out.push_str(&format!(
                    "{:<28} {:>12.3} {:>7.2} {:>12.3} {:>9}\n",
                    name,
                    self.self_us[i] / 1e3,
                    pct(self.self_us[i]),
                    self.busy_us[i] / 1e3,
                    self.spans[i]
                ));
            }
        }
        let accounted: f64 = self.self_us.iter().sum();
        out.push_str(&format!(
            "{:<28} {:>12.3} {:>7.2}\n{:<28} {:>12.3} {:>7.2}   (rows sum to {:.3} ms)\n",
            "unaccounted",
            self.unaccounted_us / 1e3,
            pct(self.unaccounted_us),
            "traced wall",
            self.wall_us / 1e3,
            100.0,
            (accounted + self.unaccounted_us) / 1e3
        ));
        out
    }

    /// Every per-layer metric (see `perfbench/README.md` for definitions);
    /// a layer the workload does not load reads 0.
    pub fn per_layer(
        &self,
        overhead_frac: f64,
        tenants_held: f64,
        heap_peak_mb: f64,
    ) -> Vec<crate::Metric> {
        let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
        let (compile_self, _, compiles) = self.layer("compile");
        let compiles = compiles as f64;
        let busy_ms = |name: &str| per(self.layer(name).1 / 1e3, compiles);
        let per_compile = |name: &str| per(self.counter(name), compiles);
        let (_, ap_busy, ap_calls) = self.layer("phase.assign_paths");
        let (_, verify_busy, verifies) = self.layer("bench.verify");
        let seed_evals = self.counter("par.speculative.seed_evals");
        let pool_hits = self.counter("par.pathpool.hits");
        let pool_lookups = pool_hits + self.counter("par.pathpool.misses");

        let (handle_self, _, frames) = self.layer("bench.handle_frame");
        let frames = frames as f64;
        let (_, codec_busy, _) = self.layer("bench.codec");
        let handle_mean = |op: &str| {
            self.handle_by_op
                .get(op)
                .map_or(0.0, |&(n, us)| per(us, n as f64))
        };
        let hist_mean = |name: &str| self.hist.get(name).map_or(0.0, |&(n, s)| per(s, n as f64));
        let admits = self.layer("serve.admit").2 as f64;
        let per_admit = |name: &str| per(self.counter(name), admits);
        let (_, standalone_busy, standalone) = self.layer("serve.compile_standalone");
        let (_, ledger_busy, ledgers) = self.layer("bench.ledger");
        let (_, check_busy, checks) = self.layer("bench.check_invariants");
        let memo_hits = self.counter("serve.admit.memo_hits");
        let memo_lookups = memo_hits + self.counter("serve.admit.memo_misses");
        let serving = frames > 0.0;

        vec![
            ("assign_paths.busy_ms", per(ap_busy / 1e3, compiles), "ms"),
            (
                "assign_paths.calls",
                per(ap_calls as f64, compiles),
                "count",
            ),
            (
                "assign_paths.restarts",
                per_compile("assign_paths.restarts"),
                "count",
            ),
            ("compile.self_ms", per(compile_self / 1e3, compiles), "ms"),
            ("time_bounds.ms", busy_ms("phase.time_bounds"), "ms"),
            (
                "allocate_intervals.busy_ms",
                busy_ms("phase.allocate_intervals"),
                "ms",
            ),
            (
                "schedule_intervals.busy_ms",
                busy_ms("phase.schedule_intervals"),
                "ms",
            ),
            (
                "build_node_schedules.ms",
                busy_ms("phase.build_node_schedules"),
                "ms",
            ),
            ("alloc_lp.solves", per_compile("alloc_lp.solves"), "count"),
            (
                "lp.pivots",
                per(
                    self.counter("alloc_lp.pivots") + self.counter("sched_lp.pivots"),
                    compiles,
                ),
                "count",
            ),
            (
                "alloc_flow.augmentations",
                per_compile("alloc_flow.augmentations"),
                "count",
            ),
            (
                "alloc_flow.dijkstra_pops",
                per_compile("alloc_flow.dijkstra_pops"),
                "count",
            ),
            (
                "interval_sched.feasible_sets",
                per_compile("interval_sched.feasible_sets"),
                "count",
            ),
            ("sched_lp.solves", per_compile("sched_lp.solves"), "count"),
            ("verify.ms", per(verify_busy / 1e3, verifies as f64), "ms"),
            (
                "search.seeds_walked",
                per_compile("search.seeds_walked"),
                "count",
            ),
            (
                "search.candidates_walked",
                per_compile("search.candidates_walked"),
                "count",
            ),
            (
                "par.speculative.seed_evals",
                per(seed_evals, compiles),
                "count",
            ),
            (
                "speculative.useful_frac",
                per(self.counter("search.seeds_walked"), seed_evals),
                "fraction",
            ),
            (
                "search.outcome.scheduled",
                per_compile("search.outcome.scheduled"),
                "count",
            ),
            (
                "search.outcome.alloc_infeasible",
                per_compile("search.outcome.alloc_infeasible"),
                "count",
            ),
            (
                "search.outcome.interval_unschedulable",
                per_compile("search.outcome.interval_unschedulable"),
                "count",
            ),
            (
                "search.outcome.utilization_exceeded",
                per_compile("search.outcome.utilization_exceeded"),
                "count",
            ),
            (
                "search.outcome.hard_error",
                per_compile("search.outcome.hard_error"),
                "count",
            ),
            (
                "pathpool.hit_frac",
                per(pool_hits, pool_lookups),
                "fraction",
            ),
            ("frame.codec_us", per(codec_busy, frames), "us"),
            ("handle_frame.admit_us", handle_mean("admit"), "us"),
            ("handle_frame.evict_us", handle_mean("evict"), "us"),
            (
                "engine.admit_us.replay",
                hist_mean("serve.admit_latency.replay"),
                "us",
            ),
            (
                "engine.admit_us.fast",
                hist_mean("serve.admit_latency.fast"),
                "us",
            ),
            (
                "engine.admit_us.adapted",
                hist_mean("serve.admit_latency.adapted"),
                "us",
            ),
            (
                "engine.admit_us.rerouted",
                hist_mean("serve.admit_latency.rerouted"),
                "us",
            ),
            (
                "engine.admit_us.reject",
                hist_mean("serve.admit_latency.reject"),
                "us",
            ),
            ("engine.evict_us", hist_mean("serve.evict_latency"), "us"),
            ("daemon.self_us", per(handle_self, frames), "us"),
            (
                "standalone_compile.busy_ms",
                per(standalone_busy / 1e3, standalone as f64),
                "ms",
            ),
            (
                "serve.compile_standalone",
                per(standalone as f64, admits),
                "per_admit",
            ),
            ("ledger.us", per(ledger_busy, ledgers as f64), "us"),
            ("check_invariants.us", per(check_busy, checks as f64), "us"),
            (
                "serve.admit.replayed",
                per_admit("serve.admit.replayed"),
                "per_admit",
            ),
            (
                "serve.admit.fast",
                per_admit("serve.admit.fast"),
                "per_admit",
            ),
            (
                "serve.admit.adapted",
                per_admit("serve.admit.adapted"),
                "per_admit",
            ),
            (
                "serve.admit.rerouted",
                per_admit("serve.admit.rerouted"),
                "per_admit",
            ),
            (
                "serve.admit.rejected",
                per_admit("serve.admit.rejected"),
                "per_admit",
            ),
            ("memo.hit_frac", per(memo_hits, memo_lookups), "fraction"),
            (
                "serve.errors.internal",
                self.counter("serve.errors.internal"),
                "count",
            ),
            (
                "serve.invariant_violations",
                self.counter("serve.invariant_violations"),
                "count",
            ),
            (
                "recorder.spans_retained",
                if serving {
                    per(self.program_spans as f64, self.recorders as f64)
                } else {
                    0.0
                },
                "count",
            ),
            (
                "recorder.spans_per_frame",
                if serving {
                    per(self.program_spans as f64, frames)
                } else {
                    0.0
                },
                "count",
            ),
            ("tenants_held", tenants_held, "count"),
            ("heap.peak_mb", heap_peak_mb, "MB"),
            ("tracing.overhead_frac", overhead_frac, "fraction"),
            (
                "trace.unaccounted_frac",
                per(self.unaccounted_us, self.wall_us),
                "fraction",
            ),
        ]
        .into_iter()
        .map(|(name, value, unit)| crate::Metric { name, value, unit })
        .collect()
    }
}

fn layer_of(name: &str) -> Option<usize> {
    LAYERS.iter().position(|&l| l == name)
}

/// Attributes every instant of `[t0, t1]` to the first of [`LAYERS`] with a
/// span open at that instant, adding into `self_us`; returns the time under
/// no layer span. The attributed time plus the return value is `t1 - t0`.
fn attribute(spans: &[SpanRecord], t0: f64, t1: f64, self_us: &mut [f64]) -> f64 {
    let mut events: Vec<(f64, i32, usize)> = Vec::new();
    for s in spans {
        let Some(layer) = layer_of(&s.name) else {
            continue;
        };
        let a = s.start_us.max(t0);
        let b = (s.start_us + s.dur_us.unwrap_or(0.0)).min(t1);
        if b > a {
            events.push((a, 1, layer));
            events.push((b, -1, layer));
        }
    }
    events.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut open = vec![0i32; LAYERS.len()];
    let mut unaccounted = 0.0;
    let mut t = t0;
    for (time, delta, layer) in events {
        if time > t {
            match open.iter().position(|&n| n > 0) {
                Some(l) => self_us[l] += time - t,
                None => unaccounted += time - t,
            }
            t = time;
        }
        open[layer] += delta;
    }
    unaccounted + (t1 - t)
}
