//! Flow-based backend for the message–interval allocation stage.
//!
//! The allocation LP of `allocation_lp` (paper §5.2, constraints (3),(4))
//! is structurally a packing of message time into per-(link, interval)
//! capacities. This module reformulates each maximal related subset as a
//! **time-expanded min-cost-flow network** and solves it with successive
//! shortest paths — std-only, no simplex involved — which scales to
//! instances whose LPs would carry thousands of columns:
//!
//! * a source arc per message carrying its transmission time,
//! * one *chain* of arcs per (message, active interval): the message's
//!   flow for interval `A_k` traverses a capacity arc for every link on
//!   its path, charged against `capacity_scale · |A_k|` shared with every
//!   other message on that link,
//! * entry arcs cost the interval index (earlier intervals are cheaper),
//!   every other arc costs zero, so the min-cost solution is a
//!   deterministic early-packed split.
//!
//! # Kernel
//!
//! The augmenting search is successive shortest paths with **node
//! potentials**: a binary-heap Dijkstra over Johnson-reduced costs,
//! potentials initialized to zero once per subset network (every initial
//! residual cost is a non-negative interval index, so zero potentials are
//! valid — no warm-up Bellman–Ford) and *updated* after each augmentation
//! (`π[v] += min(dist[v], dist[t])`, which keeps every residual reduced
//! cost non-negative) instead of recomputed. The heap key is
//! `(distance bits, node id)`, so tie-breaking is deterministic and the
//! work counters are bit-stable at any `--parallelism`. All arc costs are
//! small integers, so distances, potentials, and reduced costs are
//! exactly-representable f64 integers — shortest-path identities below
//! hold under *exact* float equality, with no epsilon.
//!
//! The classical kernel — one full Bellman–Ford relaxation per
//! augmentation — is kept as [`FlowKernel::BellmanFordOracle`], the
//! differential oracle (exactly like dense-vs-sparse simplex). Both
//! kernels compute exact shortest distances and then feed one shared
//! **canonical predecessor extraction**: a BFS from the source over
//! *tight* residual arcs (`dist[u] + cost == dist[v]`, exact equality),
//! first visit in adjacency order wins. Tightness in reduced costs is
//! algebraically identical to tightness in raw costs, so both kernels
//! select the same augmenting path, push the same bottleneck, and leave
//! bit-identical residual networks — the extracted allocations are
//! bit-identical, not merely equal in objective (proptested in
//! `tests/proptests.rs`).
//!
//! Scratch memory (arc pool, adjacency, distance/potential arrays, heap)
//! lives in a private per-thread workspace that every subset solve on that
//! thread reuses. It carries no semantic state between solves (potentials
//! are re-initialized per subset network), so how it is shared cannot
//! perturb a result bit.
//!
//! # Exactness contract
//!
//! Any LP-feasible allocation routes along its own chains, so the network
//! always admits a full-value flow when the LP is feasible — a max flow
//! short of total demand is therefore an **exact** infeasibility verdict.
//! The converse direction is a relaxation: at a shared capacity node,
//! flow conservation lets flow *jump* from one message's chain to
//! another's, so a full-value flow can imply an extracted split that
//! oversubscribes a link the jump bypassed. The extracted matrix is
//! therefore re-checked against constraint (4) exactly; the rare subset
//! that fails the check falls back to the simplex oracle (counted in
//! [`FlowAllocStats::fallbacks`]). Chains of length one — the dominant
//! conflict pattern — cannot jump and never fall back.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use sr_tfg::{MessageId, TimeBounds};
use sr_topology::LinkId;

use crate::allocation_lp::{solve_subset_lp, AllocationStats, SubsetRows};
use crate::{ActivityMatrix, CompileError, PathAssignment, EPS};

/// Residual-capacity tolerance for the augmenting search, far below the
/// schedule-level [`EPS`].
const FLOW_EPS: f64 = 1e-9;

/// Which augmenting-search kernel drives the min-cost-flow solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlowKernel {
    /// Dijkstra over reduced costs with carried node potentials — the
    /// production kernel.
    #[default]
    SspDijkstra,
    /// Full Bellman–Ford relaxation per augmentation — the differential
    /// oracle. Bit-identical allocations to [`FlowKernel::SspDijkstra`]
    /// (shared canonical predecessor extraction), O(V·E) per augmentation.
    BellmanFordOracle,
}

/// Work counters for one flow-allocation pass, deterministic for fixed
/// inputs (the network build order, the heap tie-break, and the canonical
/// predecessor extraction are all input-ordered).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowAllocStats {
    /// Subset networks solved.
    pub solves: u64,
    /// Network nodes built across all subsets.
    pub nodes: u64,
    /// Forward arcs built across all subsets.
    pub arcs: u64,
    /// Shortest-path augmentations performed.
    pub augmentations: u64,
    /// Binary-heap pops across all Dijkstra runs (stale lazy-deletion
    /// entries included). Zero under [`FlowKernel::BellmanFordOracle`].
    pub dijkstra_pops: u64,
    /// Dijkstra runs that reused potentials carried from a previous
    /// augmentation of the same subset network instead of recomputing
    /// them from scratch — every augmentation after a solve's first.
    /// Zero under [`FlowKernel::BellmanFordOracle`].
    pub potential_reuse_hits: u64,
    /// Subsets whose extracted split violated constraint (4) (chain
    /// jumping) and were re-solved by the simplex oracle.
    pub fallbacks: u64,
}

impl FlowAllocStats {
    /// Adds `other`'s work to this one.
    pub fn merge(&mut self, other: &FlowAllocStats) {
        self.solves += other.solves;
        self.nodes += other.nodes;
        self.arcs += other.arcs;
        self.augmentations += other.augmentations;
        self.dijkstra_pops += other.dijkstra_pops;
        self.potential_reuse_hits += other.potential_reuse_hits;
        self.fallbacks += other.fallbacks;
    }
}

/// One forward arc of the residual network; its reverse twin sits at
/// `index ^ 1`.
#[derive(Debug)]
struct Arc {
    to: usize,
    cap: f64,
    cost: f64,
}

thread_local! {
    /// This thread's kernel scratch, recycled by every subset solve it runs.
    pub(crate) static SCRATCH: RefCell<FlowWorkspace> = RefCell::default();
}

/// Scratch for the min-cost-flow kernel: the arc pool, adjacency lists,
/// distance/potential/predecessor arrays, the Dijkstra heap, and the
/// extraction queue. Buffers are recycled across subset solves; nothing
/// semantic survives a reset.
#[derive(Debug, Default)]
pub(crate) struct FlowWorkspace {
    arcs: Vec<Arc>,
    /// Adjacency lists; only the first `nodes` entries are live. Entries
    /// beyond the live prefix are empty (cleared on reset), so growing
    /// into them is safe.
    adj: Vec<Vec<usize>>,
    nodes: usize,
    dist: Vec<f64>,
    pot: Vec<f64>,
    prev: Vec<usize>,
    seen: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    queue: VecDeque<usize>,
}

impl FlowWorkspace {
    /// Clears the network back to `nodes` isolated nodes, keeping every
    /// buffer's capacity.
    fn reset_net(&mut self, nodes: usize) {
        self.arcs.clear();
        for a in &mut self.adj[..self.nodes] {
            a.clear();
        }
        if self.adj.len() < nodes {
            self.adj.resize_with(nodes, Vec::new);
        }
        self.nodes = nodes;
    }

    fn add_node(&mut self) -> usize {
        let id = self.nodes;
        if self.adj.len() == id {
            self.adj.push(Vec::new());
        }
        self.nodes = id + 1;
        id
    }

    fn add_arc(&mut self, from: usize, to: usize, cap: f64, cost: f64) -> usize {
        let i = self.arcs.len();
        self.arcs.push(Arc { to, cap, cost });
        self.arcs.push(Arc {
            to: from,
            cap: 0.0,
            cost: -cost,
        });
        self.adj[from].push(i);
        self.adj[to].push(i + 1);
        i
    }

    /// Flow carried by forward arc `ai` (its reverse twin's residual).
    fn flow(&self, ai: usize) -> f64 {
        self.arcs[ai ^ 1].cap
    }

    /// Successive-shortest-paths max flow from `s` to `t`; returns the
    /// value pushed. Both kernels compute exact distances and share the
    /// canonical predecessor extraction, so the augmentation sequence —
    /// and the final residual network — is kernel-independent.
    fn max_flow_min_cost(
        &mut self,
        s: usize,
        t: usize,
        kernel: FlowKernel,
        stats: &mut FlowAllocStats,
    ) -> f64 {
        let n = self.nodes;
        if self.dist.len() < n {
            self.dist.resize(n, 0.0);
            self.pot.resize(n, 0.0);
            self.prev.resize(n, usize::MAX);
            self.seen.resize(n, false);
        }
        // Potentials are initialized once per subset network: every
        // initial residual cost is a non-negative interval index, so zero
        // potentials are already valid (no warm-up Bellman–Ford needed).
        self.pot[..n].fill(0.0);
        let mut pushed = 0.0f64;
        let mut first = true;
        loop {
            match kernel {
                FlowKernel::SspDijkstra => {
                    if !first {
                        stats.potential_reuse_hits += 1;
                    }
                    self.dijkstra(s, stats);
                }
                FlowKernel::BellmanFordOracle => self.bellman_ford(s),
            }
            first = false;
            if self.dist[t].is_infinite() {
                return pushed;
            }
            self.extract_predecessors(s, t, kernel);

            // Bottleneck along the canonical path, then augment.
            let mut bottleneck = f64::INFINITY;
            let mut v = t;
            while v != s {
                let ai = self.prev[v];
                bottleneck = bottleneck.min(self.arcs[ai].cap);
                v = self.arcs[ai ^ 1].to;
            }
            let mut v = t;
            while v != s {
                let ai = self.prev[v];
                self.arcs[ai].cap -= bottleneck;
                self.arcs[ai ^ 1].cap += bottleneck;
                v = self.arcs[ai ^ 1].to;
            }

            if kernel == FlowKernel::SspDijkstra {
                // π[v] += min(dist[v], dist[t]) keeps every residual arc's
                // reduced cost non-negative: unreachable tails shift by
                // the full dist[t] (their residual arcs can only point at
                // nodes shifted by at most that much), and reachable
                // pairs inherit the triangle inequality. Augmenting-path
                // arcs land at reduced cost exactly zero, so their new
                // reverse twins are valid too.
                let dt = self.dist[t];
                for v in 0..n {
                    let dv = self.dist[v];
                    self.pot[v] += if dv < dt { dv } else { dt };
                }
            }
            stats.augmentations += 1;
            pushed += bottleneck;
        }
    }

    /// Binary-heap Dijkstra over reduced costs. Runs to heap exhaustion
    /// (no early exit at `t`): every reachable node's distance must be
    /// exact for the canonical tight-arc extraction to match the oracle's.
    /// The heap key is `(distance bits, node id)` — for non-negative
    /// floats the bit pattern orders like the value, and the id breaks
    /// ties deterministically.
    fn dijkstra(&mut self, s: usize, stats: &mut FlowAllocStats) {
        let FlowWorkspace {
            arcs,
            adj,
            nodes,
            dist,
            pot,
            heap,
            ..
        } = self;
        let n = *nodes;
        dist[..n].fill(f64::INFINITY);
        dist[s] = 0.0;
        heap.clear();
        heap.push(Reverse((0.0f64.to_bits(), s)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            stats.dijkstra_pops += 1;
            let d = f64::from_bits(bits);
            if d > dist[u] {
                continue; // stale lazy-deletion entry
            }
            for &ai in &adj[u] {
                let a = &arcs[ai];
                if a.cap <= FLOW_EPS {
                    continue;
                }
                let rc = a.cost + pot[u] - pot[a.to];
                debug_assert!(rc >= 0.0, "negative reduced cost {rc} on arc {ai}");
                let nd = d + rc;
                if nd < dist[a.to] {
                    dist[a.to] = nd;
                    heap.push(Reverse((nd.to_bits(), a.to)));
                }
            }
        }
    }

    /// The oracle kernel's distance pass: Bellman–Ford over raw residual
    /// costs, relaxing arcs in build order until a fixed point. Costs are
    /// exact integers, so strict improvement needs no epsilon and the
    /// fixed point is the exact distance vector.
    fn bellman_ford(&mut self, s: usize) {
        let FlowWorkspace {
            arcs,
            adj,
            nodes,
            dist,
            ..
        } = self;
        let n = *nodes;
        dist[..n].fill(f64::INFINITY);
        dist[s] = 0.0;
        for _ in 0..n {
            let mut improved = false;
            for u in 0..n {
                if dist[u].is_infinite() {
                    continue;
                }
                for &ai in &adj[u] {
                    let a = &arcs[ai];
                    if a.cap > FLOW_EPS && dist[u] + a.cost < dist[a.to] {
                        dist[a.to] = dist[u] + a.cost;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// Canonical predecessor extraction, shared by both kernels: BFS from
    /// `s` over *tight* residual arcs (`dist[u] + cost == dist[v]`, exact
    /// float equality on exactly-representable integers), first visit in
    /// adjacency order wins. Raw-cost tightness and reduced-cost
    /// tightness pick out the same arc set (the potential terms cancel
    /// along any comparison of true distances), so the BFS tree — and the
    /// augmenting path it yields — is identical under either kernel.
    fn extract_predecessors(&mut self, s: usize, t: usize, kernel: FlowKernel) {
        let FlowWorkspace {
            arcs,
            adj,
            nodes,
            dist,
            pot,
            prev,
            seen,
            queue,
            ..
        } = self;
        let n = *nodes;
        prev[..n].fill(usize::MAX);
        seen[..n].fill(false);
        queue.clear();
        seen[s] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            if u == t {
                break;
            }
            for &ai in &adj[u] {
                let a = &arcs[ai];
                if a.cap <= FLOW_EPS || seen[a.to] {
                    continue;
                }
                let c = match kernel {
                    FlowKernel::SspDijkstra => a.cost + pot[u] - pot[a.to],
                    FlowKernel::BellmanFordOracle => a.cost,
                };
                if dist[u] + c == dist[a.to] {
                    seen[a.to] = true;
                    prev[a.to] = ai;
                    queue.push_back(a.to);
                }
            }
        }
        debug_assert!(
            seen[t],
            "t has a finite distance but no tight path reached it"
        );
    }
}

/// Solves one subset as a min-cost-flow network under `capacity` (the
/// driver's residual (link, interval) budgets): the subset's nonzero
/// entries, with the same feasibility verdict and constraint guarantees as
/// [`solve_subset_lp`], falling back to it where the relaxation is loose
/// (see the module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_subset_flow<C>(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    subset: &[MessageId],
    capacity: C,
    kernel: FlowKernel,
    ws: &mut FlowWorkspace,
    stats: &mut AllocationStats,
) -> Result<SubsetRows, CompileError>
where
    C: Fn(LinkId, usize) -> f64,
{
    // A member without links cannot be expressed as a chain; related
    // subsets never contain one, but stay safe and defer to the LP.
    if subset.iter().any(|&m| assignment.links(m).is_empty()) {
        return solve_fallback(assignment, bounds, activity, subset, &capacity, stats);
    }

    let actives: Vec<Vec<usize>> = subset
        .iter()
        .map(|&m| activity.active_intervals(m))
        .collect();
    let durations: Vec<f64> = subset
        .iter()
        .map(|&m| bounds.window(m).duration())
        .collect();
    let total: f64 = durations.iter().sum();

    // Nodes: source, sink, one per member, then (link, interval) capacity
    // pairs created in ascending (link, interval) order.
    ws.reset_net(2 + subset.len());
    let (source, sink) = (0usize, 1usize);
    let member_node = |mi: usize| 2 + mi;

    let mut on_link: std::collections::BTreeMap<LinkId, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (mi, &m) in subset.iter().enumerate() {
        for &l in assignment.links(m) {
            on_link.entry(l).or_default().push(mi);
        }
    }
    // cap_arc[(link, k)] -> (in node, capacity arc index); the out node is
    // the arc's head.
    let mut cap_arc: std::collections::HashMap<(LinkId, usize), (usize, usize)> =
        std::collections::HashMap::new();
    let mut link_ks: Vec<usize> = Vec::new();
    for (&link, members) in &on_link {
        link_ks.clear();
        for &mi in members {
            link_ks.extend_from_slice(&actives[mi]);
        }
        link_ks.sort_unstable();
        link_ks.dedup();
        for &k in &link_ks {
            let input = ws.add_node();
            let output = ws.add_node();
            let ai = ws.add_arc(input, output, capacity(link, k), 0.0);
            cap_arc.insert((link, k), (input, ai));
        }
    }

    // Source and chain arcs, member-major then interval-major. Transfer
    // and exit arcs are deduplicated — messages sharing consecutive links
    // share them.
    let mut entry_arcs: Vec<Vec<usize>> = vec![Vec::new(); subset.len()];
    let mut seen_transfer: std::collections::HashSet<(usize, usize)> =
        std::collections::HashSet::new();
    for (mi, &m) in subset.iter().enumerate() {
        ws.add_arc(source, member_node(mi), durations[mi], 0.0);
        let links = assignment.links(m);
        for &k in &actives[mi] {
            let first_in = cap_arc[&(links[0], k)].0;
            entry_arcs[mi].push(ws.add_arc(member_node(mi), first_in, durations[mi], k as f64));
            for w in links.windows(2) {
                let from_out = ws.arcs[cap_arc[&(w[0], k)].1].to;
                let to_in = cap_arc[&(w[1], k)].0;
                if seen_transfer.insert((from_out, to_in)) {
                    ws.add_arc(from_out, to_in, total, 0.0);
                }
            }
            let last_out = ws.arcs[cap_arc[&(links[links.len() - 1], k)].1].to;
            if seen_transfer.insert((last_out, sink)) {
                ws.add_arc(last_out, sink, total, 0.0);
            }
        }
    }

    stats.flow.solves += 1;
    stats.flow.nodes += ws.nodes as u64;
    stats.flow.arcs += (ws.arcs.len() / 2) as u64;
    let value = ws.max_flow_min_cost(source, sink, kernel, &mut stats.flow);
    if value < total - EPS {
        // Exact verdict: an LP-feasible split always induces a full flow.
        return Err(CompileError::AllocationInfeasible {
            subset: subset.to_vec(),
        });
    }

    // Extract the split from the entry arcs; conservation at the member
    // node makes each row sum to its duration (up to augmentation
    // rounding, absorbed into the largest entry).
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(subset.len());
    for (mi, ks) in actives.iter().enumerate() {
        let mut row: Vec<f64> = ks
            .iter()
            .zip(&entry_arcs[mi])
            .map(|(_, &ai)| ws.flow(ai))
            .collect();
        let shortfall = durations[mi] - row.iter().sum::<f64>();
        if shortfall.abs() > FLOW_EPS {
            if let Some(big) = (0..row.len()).max_by(|&a, &b| row[a].total_cmp(&row[b])) {
                row[big] += shortfall;
            }
        }
        x.push(row);
    }

    // Exact constraint-(4) re-check: chain jumping can undercharge a link.
    let exact = on_link.iter().all(|(&link, members)| {
        link_ks.clear();
        for &mi in members {
            link_ks.extend_from_slice(&actives[mi]);
        }
        link_ks.sort_unstable();
        link_ks.dedup();
        link_ks.iter().all(|&k| {
            let used: f64 = members
                .iter()
                .filter_map(|&mi| {
                    actives[mi]
                        .iter()
                        .position(|&ak| ak == k)
                        .map(|pos| x[mi][pos])
                })
                .sum();
            used <= capacity(link, k) + EPS
        })
    });
    if !exact {
        return solve_fallback(assignment, bounds, activity, subset, &capacity, stats);
    }

    let mut rows = SubsetRows::new();
    for (mi, &m) in subset.iter().enumerate() {
        for (pos, &k) in actives[mi].iter().enumerate() {
            if x[mi][pos] > EPS {
                rows.push((m, k, x[mi][pos]));
            }
        }
    }
    Ok(rows)
}

fn solve_fallback<C>(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    subset: &[MessageId],
    capacity: &C,
    stats: &mut AllocationStats,
) -> Result<SubsetRows, CompileError>
where
    C: Fn(LinkId, usize) -> f64,
{
    stats.flow.fallbacks += 1;
    solve_subset_lp(assignment, bounds, activity, subset, capacity, None, stats)
        .map(|(rows, _)| rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        allocate_intervals, related_subsets, IntervalAllocation, Intervals, PinnedRows,
        SubsetSolver,
    };
    use sr_mapping::Allocation;
    use sr_tfg::{assign_time_bounds, TfgBuilder, Timing, WindowPolicy};
    use sr_topology::{GeneralizedHypercube, NodeId};

    struct Fixture {
        assignment: PathAssignment,
        bounds: TimeBounds,
        activity: ActivityMatrix,
        intervals: Intervals,
        subsets: Vec<Vec<MessageId>>,
    }

    fn shared_link(period: f64, bytes: u64) -> Fixture {
        let topo = GeneralizedHypercube::binary(1).unwrap();
        let mut b = TfgBuilder::new();
        let t0 = b.task("t0", 500);
        let t1 = b.task("t1", 500);
        let t2 = b.task("t2", 500);
        b.message("m0", t0, t1, bytes).unwrap();
        b.message("m1", t1, t2, bytes).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = Allocation::new(vec![NodeId(0), NodeId(1), NodeId(0)], &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let assignment = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let subsets = related_subsets(&assignment, &activity);
        Fixture {
            assignment,
            bounds,
            activity,
            intervals,
            subsets,
        }
    }

    fn flow_alloc(f: &Fixture, scale: f64) -> Result<IntervalAllocation, CompileError> {
        kernel_alloc(
            f,
            scale,
            FlowKernel::SspDijkstra,
            &mut AllocationStats::default(),
        )
    }

    fn kernel_alloc(
        f: &Fixture,
        scale: f64,
        kernel: FlowKernel,
        stats: &mut AllocationStats,
    ) -> Result<IntervalAllocation, CompileError> {
        allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            scale,
            None,
            SubsetSolver::Flow(kernel),
            1,
            stats,
        )
    }

    fn lp_alloc(f: &Fixture, scale: f64) -> Result<IntervalAllocation, CompileError> {
        allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            scale,
            None,
            SubsetSolver::Simplex(None),
            1,
            &mut AllocationStats::default(),
        )
    }

    fn check_constraints(f: &Fixture, alloc: &IntervalAllocation, scale: f64) {
        for m in 0..f.assignment.len() {
            let m = MessageId(m);
            if f.assignment.links(m).is_empty() {
                continue;
            }
            assert!(
                (alloc.total(m) - f.bounds.window(m).duration()).abs() < 1e-6,
                "(3) violated for {m}"
            );
            for k in 0..f.intervals.len() {
                if alloc.allocated(m, k) > EPS {
                    assert!(f.activity.is_active(m, k), "inactive allocation {m}@{k}");
                }
            }
        }
        for k in 0..f.intervals.len() {
            let sum: f64 = (0..f.assignment.len())
                .filter(|&i| !f.assignment.links(MessageId(i)).is_empty())
                .map(|i| alloc.allocated(MessageId(i), k))
                .sum();
            assert!(
                sum <= scale * f.intervals.length(k) + 1e-6,
                "(4) violated in interval {k}: {sum}"
            );
        }
    }

    #[test]
    fn flow_matches_simplex_verdict_feasible() {
        let f = shared_link(50.0, 640);
        let flow = flow_alloc(&f, 1.0).unwrap();
        check_constraints(&f, &flow, 1.0);
        // Simplex agrees on feasibility.
        assert!(lp_alloc(&f, 1.0).is_ok());
    }

    #[test]
    fn flow_matches_simplex_verdict_infeasible() {
        let f = shared_link(50.0, 1920); // 30+30 µs over a 50 µs frame
        let err = flow_alloc(&f, 1.0).unwrap_err();
        assert!(matches!(err, CompileError::AllocationInfeasible { .. }));
        assert!(lp_alloc(&f, 1.0).is_err());
    }

    #[test]
    fn flow_respects_capacity_scale() {
        let f = shared_link(50.0, 1280); // 20+20 µs: fits at 1.0, not at 0.5
        assert!(flow_alloc(&f, 1.0).is_ok());
        let err = flow_alloc(&f, 0.5).unwrap_err();
        assert!(matches!(err, CompileError::AllocationInfeasible { .. }));
    }

    #[test]
    fn multi_interval_split_is_valid() {
        let f = shared_link(120.0, 640);
        let alloc = flow_alloc(&f, 1.0).unwrap();
        check_constraints(&f, &alloc, 1.0);
    }

    #[test]
    fn stats_count_network_work() {
        let f = shared_link(50.0, 640);
        let mut all = AllocationStats::default();
        kernel_alloc(&f, 1.0, FlowKernel::SspDijkstra, &mut all).unwrap();
        let stats = all.flow;
        assert!(stats.solves >= 1);
        assert!(stats.arcs > 0);
        assert!(stats.augmentations > 0);
        assert!(stats.dijkstra_pops > 0);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn dijkstra_matches_bellman_ford_oracle_bitwise() {
        for (period, bytes) in [(50.0, 640), (120.0, 640), (50.0, 1280), (90.0, 960)] {
            let f = shared_link(period, bytes);
            let (mut dk, mut bf) = (AllocationStats::default(), AllocationStats::default());
            let a = kernel_alloc(&f, 1.0, FlowKernel::SspDijkstra, &mut dk).unwrap();
            let b = kernel_alloc(&f, 1.0, FlowKernel::BellmanFordOracle, &mut bf).unwrap();
            let (dk, bf) = (dk.flow, bf.flow);
            for m in 0..f.assignment.len() {
                for k in 0..f.intervals.len() {
                    let (x, y) = (a.allocated(MessageId(m), k), b.allocated(MessageId(m), k));
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "kernel divergence at ({m},{k}): {x} vs {y}"
                    );
                }
            }
            // Same augmentation sequence, but only Dijkstra pays the heap.
            assert_eq!(dk.augmentations, bf.augmentations);
            assert!(dk.dijkstra_pops > 0);
            assert_eq!(bf.dijkstra_pops, 0);
            assert_eq!(bf.potential_reuse_hits, 0);
        }
    }

    #[test]
    fn workspace_reuse_is_bit_stable() {
        // One workspace across repeated subset solves (the serial driver's
        // pattern) must give the same bits as a fresh workspace each time.
        let f = shared_link(120.0, 640);
        let solve_all = |ws: &mut FlowWorkspace| -> Vec<(MessageId, usize, u64)> {
            f.subsets
                .iter()
                .flat_map(|subset| {
                    solve_subset_flow(
                        &f.assignment,
                        &f.bounds,
                        &f.activity,
                        subset,
                        |_, k| f.intervals.length(k),
                        FlowKernel::SspDijkstra,
                        ws,
                        &mut AllocationStats::default(),
                    )
                    .unwrap()
                })
                .map(|(m, k, v)| (m, k, v.to_bits()))
                .collect()
        };
        let fresh = solve_all(&mut FlowWorkspace::default());
        let mut shared = FlowWorkspace::default();
        for _ in 0..3 {
            assert_eq!(solve_all(&mut shared), fresh);
        }
    }

    #[test]
    fn pinned_reserved_flow_matches_simplex_pinned() {
        let f = shared_link(120.0, 640);
        let full = flow_alloc(&f, 1.0).unwrap();
        // Re-derive only m1 with m0 pinned; both backends must agree the
        // residual problem is feasible and respect the pinned rows.
        let affected = vec![MessageId(1)];
        let reserved = std::collections::HashMap::new();
        let pinned = PinnedRows {
            affected: &affected,
            allocation: &full,
            reserved: &reserved,
        };
        let pinned_alloc = |solver: SubsetSolver<'_>| {
            allocate_intervals(
                &f.assignment,
                &f.bounds,
                &f.activity,
                &f.intervals,
                &f.subsets,
                1.0,
                Some(&pinned),
                solver,
                1,
                &mut AllocationStats::default(),
            )
            .unwrap()
        };
        let by_flow = pinned_alloc(SubsetSolver::Flow(FlowKernel::SspDijkstra));
        let by_lp = pinned_alloc(SubsetSolver::Simplex(None));
        check_constraints(&f, &by_flow, 1.0);
        // Pinned rows survive bit-identically under both backends.
        for k in 0..f.intervals.len() {
            assert_eq!(
                by_flow.allocated(MessageId(0), k).to_bits(),
                full.allocated(MessageId(0), k).to_bits()
            );
            assert_eq!(
                by_lp.allocated(MessageId(0), k).to_bits(),
                full.allocated(MessageId(0), k).to_bits()
            );
        }
    }
}
