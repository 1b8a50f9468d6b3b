//! The compiler workloads: `paper_sweep` (the paper's §6 grid) and
//! `farm64` (the 4,096-node scale point).
//!
//! A run draws placements from a fixed pool in an order shuffled by the
//! seed, and compiles each placement's requests twice in a row: the first
//! pass is cold (inputs never sent before in this process), the second warm.
//! Every request is timed from the compile call to a verified verdict.

use std::collections::HashSet;
use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use sr::core::{compile_with_recorder, verify, AllocEngine, CompileConfig, VerifyError};
use sr::mapping::{random_distinct, Allocation};
use sr::obs::{span, MetricsRecorder, Recorder, NOOP};
use sr::tfg::{dvb_uniform, TaskFlowGraph, Timing};
use sr::topology::NodeId;
use sr_bench::{scale_bands, scale_workload, sweep_periods, Platform, ALLOC_SEED, DVB_MODELS};

use crate::stats::Sample;
use crate::trace::WINDOW;
use crate::{Outcome, Tracer, Window};

/// Placement seeds of `paper_sweep`; `data/paper_sweep_verdicts.txt` holds
/// the seed commit's verdicts for each of them.
pub const SWEEP_POOL: u64 = 256;

/// Placements of `farm64`: the `figures scale` pattern translated by one of
/// 16 band-aligned row shifts × 64 column shifts.
const FARM_POOL: u64 = 16 * 64;

/// One placement's inputs: the platforms with their allocations, timings
/// and periods, and the compile configuration.
pub struct Inputs {
    tfg: TaskFlowGraph,
    platforms: Vec<Platform>,
    allocs: Vec<Allocation>,
    timings: Vec<Timing>,
    periods: Vec<Vec<f64>>,
    config: CompileConfig,
}

impl Inputs {
    /// The pass's requests, in order: (platform index, period).
    fn requests(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.periods
            .iter()
            .enumerate()
            .flat_map(|(i, periods)| periods.iter().map(move |&p| (i, p)))
    }

    /// Compiles one request and verifies the schedule; `None` when the
    /// compiler answers infeasible.
    fn compile_and_verify(
        &self,
        i: usize,
        period: f64,
        rec: &dyn Recorder,
    ) -> Option<Result<(), VerifyError>> {
        let topo = self.platforms[i].topo.as_ref();
        let compiled = compile_with_recorder(
            topo,
            &self.tfg,
            &self.allocs[i],
            &self.timings[i],
            period,
            &self.config,
            rec,
        );
        let verified = compiled.as_ref().ok().map(|s| {
            let _span = span(rec, "bench.verify");
            verify(s, topo, &self.tfg)
        });
        std::hint::black_box(&compiled);
        verified
    }
}

/// `paper_sweep` inputs: the uniform DVB workload on the eight 64-node
/// platforms (6-cube, GHC(4,4,4), 8×8 and 4×4×4 torus at B = 64 and 128),
/// each at the 12 sweep loads, placed by `random_distinct(placement)`.
pub fn sweep_inputs(placement: u64) -> Inputs {
    let tfg = dvb_uniform(DVB_MODELS);
    let platforms: Vec<Platform> = [64.0, 128.0]
        .into_iter()
        .flat_map(|b| {
            [
                Platform::cube6(b),
                Platform::ghc444(b),
                Platform::torus8x8(b),
                Platform::torus444(b),
            ]
        })
        .collect();
    let allocs = platforms
        .iter()
        .map(|p| random_distinct(&tfg, p.topo.as_ref(), placement).expect("64 nodes fit DVB"))
        .collect();
    let timings: Vec<Timing> = platforms
        .iter()
        .map(|p| Timing::calibrated_dvb(p.bandwidth))
        .collect();
    let periods = timings
        .iter()
        .map(|t| sweep_periods(t.longest_task(&tfg)))
        .collect();
    Inputs {
        tfg,
        platforms,
        allocs,
        timings,
        periods,
        config: CompileConfig::default(),
    }
}

/// `farm64` inputs: the `figures scale` point — `scale_workload(64, 256,
/// ALLOC_SEED)`, 3,072 messages on the 64×64 torus, at load 0.5 with the
/// flow engine and the `scale_bands(64)` partition — translated on the
/// torus by `placement` (4·(placement / 64) rows, placement % 64 columns).
///
/// The seed moves the farm, not its 14-cell slot pattern: the pattern alone
/// sets compile work and feasibility (see `perfbench/README.md`), so a
/// per-seed pattern would measure placement luck. Translations are torus
/// automorphisms that keep every pipeline inside one 4-row band, so each
/// one is the same instance on other node ids.
fn farm_inputs(placement: u64) -> Inputs {
    let (platform, tfg, alloc, timing) = scale_workload(64, 256.0, ALLOC_SEED);
    let n = 64;
    let (dr, dc) = (4 * (placement as usize / n), placement as usize % n);
    let moved = alloc
        .placement()
        .iter()
        .map(|v| {
            let (r, c) = (v.index() / n, v.index() % n);
            NodeId(((r + dr) % n) * n + (c + dc) % n)
        })
        .collect();
    let alloc = Allocation::new(moved, &tfg, platform.topo.as_ref())
        .expect("a translation keeps nodes in range and distinct");
    let period = timing.longest_task(&tfg) / 0.5;
    Inputs {
        tfg,
        platforms: vec![platform],
        allocs: vec![alloc],
        timings: vec![timing],
        periods: vec![vec![period]],
        config: CompileConfig {
            alloc_engine: AllocEngine::Flow,
            partition: scale_bands(n),
            ..CompileConfig::default()
        },
    }
}

/// The seed commit's `paper_sweep` verdicts, indexed by placement seed,
/// then platform-major request index (`true` = compiled and verified).
fn sweep_reference() -> Vec<Vec<bool>> {
    let mut table = vec![Vec::new(); SWEEP_POOL as usize];
    for line in include_str!("../data/paper_sweep_verdicts.txt").lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (seed, bits) = line.split_once(' ').expect("`<seed> <bits>` line");
        let seed: usize = seed.parse().expect("numeric placement seed");
        table[seed] = bits.trim().bytes().map(|b| b == b'1').collect();
    }
    table
}

/// Compiles and verifies every request of one placement and returns its
/// verdicts (the reference-table generator).
pub fn verdicts(inputs: &Inputs) -> Vec<bool> {
    inputs
        .requests()
        .map(|(i, period)| matches!(inputs.compile_and_verify(i, period, &NOOP), Some(Ok(()))))
        .collect()
}

/// Which compiler workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's 96-point evaluation grid.
    PaperSweep,
    /// The 64×64 torus farm.
    Farm64,
}

/// Runs a compiler workload for at least `seconds` (whole cold/warm
/// placement pairs), traced when `tracer` is given.
pub fn run(kind: Kind, seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
    let (pool, reference) = match kind {
        Kind::PaperSweep => (SWEEP_POOL, sweep_reference()),
        Kind::Farm64 => (FARM_POOL, Vec::new()),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<u64> = (0..pool).collect();
    for i in 0..order.len() {
        let j = rng.gen_range(i..order.len());
        order.swap(i, j);
    }

    let inputs = |placement| match kind {
        Kind::PaperSweep => sweep_inputs(placement),
        Kind::Farm64 => farm_inputs(placement),
    };
    let expected = |placement: u64, i: usize| match kind {
        Kind::PaperSweep => reference[placement as usize][i],
        Kind::Farm64 => true,
    };
    let mut out = Outcome {
        goodput_limit_ms: f64::INFINITY,
        ..Outcome::default()
    };

    // Warm-up: one checked but untimed pass over a placement the run does
    // not measure, so the process's first-request costs (heap growth, first
    // thread spawns) stay out of the cold class.
    let warm_up = order.pop().expect("non-empty pool");
    pass(
        &inputs(warm_up),
        warm_up,
        true,
        &|i| expected(warm_up, i),
        &NOOP,
        &mut out,
    );

    let mut seen = HashSet::new();
    let start = Instant::now();
    for &placement in order.iter().cycle() {
        let t = Instant::now();
        let inputs = inputs(placement);
        out.setup_s.push(t.elapsed().as_secs_f64());
        let expected = |i: usize| expected(placement, i);
        for _ in 0..2 {
            let cold = seen.insert(placement);
            let rec = tracer.as_ref().map(|_| MetricsRecorder::new());
            let rec_dyn: &dyn Recorder = rec.as_ref().map_or(&NOOP, |r| r as &dyn Recorder);
            let window = pass(&inputs, placement, cold, &expected, rec_dyn, &mut out);
            out.windows.push(window);
            if let (Some(tr), Some(rec)) = (tracer.as_deref_mut(), &rec) {
                tr.add(rec);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out
}

/// One pass over a placement's requests inside a `bench.window` span; the
/// oracle's findings go to `out`.
fn pass(
    inputs: &Inputs,
    placement: u64,
    cold: bool,
    expected: &dyn Fn(usize) -> bool,
    rec: &dyn Recorder,
    out: &mut Outcome,
) -> Window {
    let _span = span(rec, WINDOW);
    let mut window = Window::default();
    let start = Instant::now();
    for (idx, (i, period)) in inputs.requests().enumerate() {
        let t0 = Instant::now();
        let request = span(rec, "bench.request");
        let verified = inputs.compile_and_verify(i, period, rec);
        drop(request);
        let ms = t0.elapsed().as_secs_f64() * 1e3;

        out.attempted += 1;
        let at = || {
            format!(
                "placement {placement}, {}, period {period}",
                inputs.platforms[i].name
            )
        };
        let ok = match (verified, expected(idx)) {
            (Some(Ok(())), _) => true,
            (Some(Err(e)), _) => {
                out.violate("verify", format!("verify failed at {}: {e}", at()));
                false
            }
            (None, false) => true,
            (None, true) => {
                out.violate(
                    "verdict_regression",
                    format!("feasible at the seed commit, now infeasible at {}", at()),
                );
                false
            }
        };
        let sample = Sample { ms, ok };
        if cold {
            window.cold.push(sample);
        } else {
            window.warm.push(sample);
        }
    }
    window.seconds = start.elapsed().as_secs_f64();
    window
}
