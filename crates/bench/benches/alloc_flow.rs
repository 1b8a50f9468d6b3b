//! Microbenchmark of the min-cost-flow allocation kernels.
//!
//! The instance is the real allocation stage of the tiled-DVB scaling
//! workload: dimension-order paths on the N×N torus, LongestTask windows
//! at load 0.5, and the compile pipeline's own related-subset
//! decomposition. Two kernels solve the identical subset networks:
//!
//! * `alloc_flow/dijkstra/N` — the production kernel: binary-heap
//!   Dijkstra over reduced costs with node potentials, potentials
//!   updated (not recomputed) after each augmentation.
//! * `alloc_flow/bellman_ford/N` — the differential oracle kept behind
//!   `FlowKernel::BellmanFordOracle`: the pre-rewrite O(V·E)
//!   per-augmentation kernel.
//!
//! Both produce bit-identical allocations (asserted here, not just in
//! the proptest), so the ratio is pure kernel speed.
//!
//! Run with `CRITERION_JSON=BENCH_alloc_flow.json cargo bench --bench
//! alloc_flow` to capture machine-readable numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sr::core::{
    allocate_intervals, related_subsets, ActivityMatrix, AllocationStats, FlowKernel, Intervals,
    PathAssignment, SubsetSolver,
};
use sr::tfg::{assign_time_bounds, MessageId, TimeBounds, WindowPolicy};
use sr_bench::{scale_workload, ALLOC_SEED};
use std::hint::black_box;

/// Torus extents swept by the benchmark (1024, 4096, 16384 nodes).
const EXTENTS: &[usize] = &[32, 64, 128];

struct Instance {
    pa: PathAssignment,
    bounds: TimeBounds,
    intervals: Intervals,
    activity: ActivityMatrix,
    subsets: Vec<Vec<MessageId>>,
}

fn instance(n: usize) -> Instance {
    let (platform, tfg, alloc, timing) = scale_workload(n, 256.0, ALLOC_SEED);
    let topo = platform.topo.as_ref();
    let period = timing.longest_task(&tfg) / 0.5;
    let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask)
        .expect("scale windows fit");
    let intervals = Intervals::from_bounds(&bounds);
    let activity = ActivityMatrix::new(&bounds, &intervals);
    let pa = PathAssignment::lsd_to_msd(&tfg, topo, &alloc);
    let subsets = related_subsets(&pa, &activity);
    Instance {
        pa,
        bounds,
        intervals,
        activity,
        subsets,
    }
}

fn solve(inst: &Instance, kernel: FlowKernel) -> Vec<u64> {
    let mut stats = AllocationStats::default();
    let alloc = allocate_intervals(
        &inst.pa,
        &inst.bounds,
        &inst.activity,
        &inst.intervals,
        &inst.subsets,
        1.0,
        None,
        SubsetSolver::Flow(kernel),
        1,
        &mut stats,
    )
    .expect("scale allocation is feasible");
    assert_eq!(stats.flow.fallbacks, 0, "kernel bench must not hit the LP");
    // Cheap digest for the cross-kernel identity assertion.
    let mut bits = Vec::with_capacity(inst.pa.len() * inst.intervals.len());
    for m in 0..inst.pa.len() {
        for k in 0..inst.intervals.len() {
            bits.push(alloc.allocated(MessageId(m), k).to_bits());
        }
    }
    bits
}

fn bench_alloc_flow(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_flow");
    g.sample_size(10);
    for &n in EXTENTS {
        let inst = instance(n);
        // The two kernels must agree bit for bit on what they are timed on.
        assert_eq!(
            solve(&inst, FlowKernel::SspDijkstra),
            solve(&inst, FlowKernel::BellmanFordOracle),
            "kernels diverged at {n}x{n}"
        );
        g.bench_with_input(BenchmarkId::new("dijkstra", n), &n, |b, _| {
            b.iter(|| black_box(solve(&inst, FlowKernel::SspDijkstra)))
        });
        g.bench_with_input(BenchmarkId::new("bellman_ford", n), &n, |b, _| {
            b.iter(|| black_box(solve(&inst, FlowKernel::BellmanFordOracle)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_alloc_flow);
criterion_main!(benches);
