//! Shared **pinned re-allocation + idle-time packing** ladder.
//!
//! Two callers re-derive a few messages' rows against an otherwise frozen
//! schedule: `sr-fault::repair` (links disappeared, affected messages
//! re-routed) and `sr-serve` admission (messages arrived, every admitted
//! tenant's traffic frozen). Both walk the same capacity-scale ladder —
//! one pinned call of the allocation driver ([`crate::allocate_intervals`]
//! with [`crate::PinnedRows`]) per rung, then earliest-fit packing of the
//! re-derived rows into the idle time the frozen traffic leaves — so the
//! ladder lives here, in one place, and the callers cannot drift.
//!
//! The generalization over the original repair-only code is the
//! `external_busy` parameter: per-link spans occupied by traffic that is
//! *not* part of this allocation problem at all (other tenants' schedules).
//! Repair passes an empty map and gets the PR-3 behaviour bit-identically;
//! admission passes the daemon's link ledger.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sr_obs::Recorder;
use sr_tfg::MessageId;
use sr_topology::LinkId;

use crate::{
    allocate_intervals, related_subsets, AllocBasisCache, AllocEngine, AllocationStats,
    CompileError, IntervalAllocation, IntervalSchedule, PathAssignment, PinnedRows, Schedule,
    Slice, SubsetSolver, EPS,
};

/// How one scale rung of [`reallocate_pinned`] ended.
#[derive(Debug, Clone)]
pub enum ReallocAttemptOutcome {
    /// The pinned allocation solved and the affected traffic packed.
    Succeeded,
    /// The pinned allocation LP was infeasible at this scale.
    AllocInfeasible(CompileError),
    /// Allocation succeeded but the affected traffic did not fit into the
    /// available idle time at this scale.
    PackFailed,
}

/// One consumed rung of the [`reallocate_pinned`] scale ladder.
#[derive(Debug, Clone)]
pub struct ReallocAttempt {
    /// Capacity scale of this attempt.
    pub scale: f64,
    /// How the attempt ended.
    pub outcome: ReallocAttemptOutcome,
}

/// A successful [`reallocate_pinned`] result.
#[derive(Debug, Clone)]
pub struct Repacked {
    /// The full allocation matrix: pinned rows bit-identical, affected rows
    /// re-derived.
    pub allocation: IntervalAllocation,
    /// Interval schedules with the retained slices verbatim and the
    /// affected traffic packed into idle time.
    pub interval_schedules: Vec<IntervalSchedule>,
    /// The capacity scale that succeeded.
    pub scale: f64,
}

/// Walks the capacity-scale ladder for an incremental re-allocation: at
/// each scale, re-solve the `affected` messages' rows with every other row
/// of `schedule` pinned ([`allocate_intervals`] with [`PinnedRows`]), then pack
/// the re-derived rows into the idle time left by the retained slices and
/// `external_busy` ([`pack_affected`]). The first packable scale wins.
///
/// `assignment` is the (possibly re-routed) path assignment the new rows
/// are derived for; `excluded` messages contribute neither retained slices
/// nor new traffic (dropped/demoted messages with trivial paths).
/// `external_busy` spans additionally reduce both the LP capacities (by
/// interval overlap) and the packable free time; an empty map reproduces
/// the fault-repair behaviour exactly.
///
/// Every attempt is appended to `attempts` (for diagnosis rendering), and
/// counters are emitted under `prefix`: `<prefix>.candidates` per rung,
/// `<prefix>.alloc_lp.{solves,pivots,warm_hits,warm_misses}`, and
/// `<prefix>.alloc_flow.{solves,augmentations,dijkstra_pops,`
/// `potential_reuse_hits,fallbacks}` (always emitted — zero under the
/// simplex engine — so the namespace is pinned for the metrics gates),
/// plus `<prefix>.alloc_infeasible`, `<prefix>.pack_failed`.
///
/// `engine` selects the subset solver. Under [`AllocEngine::Simplex`] the
/// subset LPs warm-start from `cache` down the ladder (structurally
/// identical LPs, shrinking capacities), and across calls when the
/// assignment and subsets are unchanged — the serve daemon's
/// repeat-admission fast path. Under [`AllocEngine::Flow`] each subset is a
/// min-cost-flow network and `cache` is unused.
///
/// Returns `None` when no scale yields a packable allocation. An empty
/// `scales` tries `1.0` alone.
#[allow(clippy::too_many_arguments)]
pub fn reallocate_pinned(
    schedule: &Schedule,
    assignment: &PathAssignment,
    affected: &[MessageId],
    excluded: &BTreeSet<MessageId>,
    external_busy: &BTreeMap<LinkId, Vec<(f64, f64)>>,
    scales: &[f64],
    engine: AllocEngine,
    cache: &mut AllocBasisCache,
    prefix: &str,
    rec: &dyn Recorder,
    attempts: &mut Vec<ReallocAttempt>,
) -> Option<Repacked> {
    let intervals = schedule.intervals();
    let subsets = related_subsets(assignment, schedule.activity());
    let scales: &[f64] = if scales.is_empty() { &[1.0] } else { scales };

    // External spans folded onto this problem's interval grid: the overlap
    // of each span with each interval is capacity the LP must not hand out.
    // No guard is added here — the LP reservation is guidance, the packing
    // stage is the authoritative (guard-aware) feasibility check, and the
    // scale ladder absorbs the difference.
    let reserved: HashMap<LinkId, Vec<f64>> = external_busy
        .iter()
        .map(|(&l, spans)| {
            let row: Vec<f64> = (0..intervals.len())
                .map(|k| {
                    let (a, b) = intervals.bounds(k);
                    spans
                        .iter()
                        .map(|&(s, e)| (e.min(b) - s.max(a)).max(0.0))
                        .sum()
                })
                .collect();
            (l, row)
        })
        .collect();

    let pinned = PinnedRows {
        affected,
        allocation: schedule.allocation(),
        reserved: &reserved,
    };
    for &scale in scales {
        rec.add(&format!("{prefix}.candidates"), 1);
        let mut alloc_stats = AllocationStats::default();
        let allocated = allocate_intervals(
            assignment,
            schedule.bounds(),
            schedule.activity(),
            intervals,
            &subsets,
            scale,
            Some(&pinned),
            SubsetSolver::for_engine(engine, Some(&mut *cache)),
            1,
            &mut alloc_stats,
        );
        rec.add(&format!("{prefix}.alloc_lp.solves"), alloc_stats.lp_solves);
        rec.add(&format!("{prefix}.alloc_lp.pivots"), alloc_stats.lp.pivots);
        rec.add(
            &format!("{prefix}.alloc_lp.warm_hits"),
            alloc_stats.lp.warm_hits,
        );
        rec.add(
            &format!("{prefix}.alloc_lp.warm_misses"),
            alloc_stats.lp.warm_misses,
        );
        // Flow-kernel work, emitted unconditionally (zeros under the
        // simplex engine) so the counter namespace is engine-independent
        // and the metrics gates pin it either way.
        let flow_stats = alloc_stats.flow;
        rec.add(&format!("{prefix}.alloc_flow.solves"), flow_stats.solves);
        rec.add(
            &format!("{prefix}.alloc_flow.augmentations"),
            flow_stats.augmentations,
        );
        rec.add(
            &format!("{prefix}.alloc_flow.dijkstra_pops"),
            flow_stats.dijkstra_pops,
        );
        rec.add(
            &format!("{prefix}.alloc_flow.potential_reuse_hits"),
            flow_stats.potential_reuse_hits,
        );
        rec.add(
            &format!("{prefix}.alloc_flow.fallbacks"),
            flow_stats.fallbacks,
        );
        let allocation = match allocated {
            Ok(a) => a,
            Err(e) => {
                rec.add(&format!("{prefix}.alloc_infeasible"), 1);
                attempts.push(ReallocAttempt {
                    scale,
                    outcome: ReallocAttemptOutcome::AllocInfeasible(e),
                });
                continue;
            }
        };
        if let Some(interval_schedules) = pack_affected(
            schedule,
            assignment,
            &allocation,
            affected,
            excluded,
            external_busy,
        ) {
            attempts.push(ReallocAttempt {
                scale,
                outcome: ReallocAttemptOutcome::Succeeded,
            });
            return Some(Repacked {
                allocation,
                interval_schedules,
                scale,
            });
        }
        rec.add(&format!("{prefix}.pack_failed"), 1);
        attempts.push(ReallocAttempt {
            scale,
            outcome: ReallocAttemptOutcome::PackFailed,
        });
    }
    None
}

/// Packs the affected messages' allocations into the idle time the
/// retained slices and `external_busy` leave on their links, earliest-fit
/// with preemption.
///
/// Every slice of the original schedule survives verbatim with the
/// affected/excluded messages filtered out of its member set (so retained
/// messages' segments are bit-identical); the affected traffic is placed
/// into per-link free spans separated from existing traffic by the
/// schedule's guard time. `None` when some message's allocation does not
/// fit — the caller then tightens the allocation scale.
pub fn pack_affected(
    schedule: &Schedule,
    assignment: &PathAssignment,
    allocation: &IntervalAllocation,
    affected: &[MessageId],
    excluded: &BTreeSet<MessageId>,
    external_busy: &BTreeMap<LinkId, Vec<(f64, f64)>>,
) -> Option<Vec<IntervalSchedule>> {
    let intervals = schedule.intervals();
    let guard = schedule.guard_time();
    let moved: BTreeSet<MessageId> = affected
        .iter()
        .copied()
        .chain(excluded.iter().copied())
        .collect();

    // Retained slices per interval, with moved messages filtered out.
    let mut per_interval: Vec<Vec<Slice>> = vec![Vec::new(); intervals.len()];
    for is in schedule.interval_schedules() {
        for slice in &is.slices {
            let members: Vec<MessageId> = slice
                .messages
                .iter()
                .copied()
                .filter(|m| !moved.contains(m))
                .collect();
            if !members.is_empty() {
                per_interval[is.interval].push(Slice {
                    messages: members,
                    start: slice.start,
                    duration: slice.duration,
                });
            }
        }
    }

    // Busy spans per link: the external ledger, plus the retained slices.
    let mut busy: HashMap<LinkId, Vec<(f64, f64)>> = external_busy
        .iter()
        .map(|(&l, spans)| (l, spans.clone()))
        .collect();
    for slices in &per_interval {
        for slice in slices {
            for &m in &slice.messages {
                for &l in assignment.links(m) {
                    busy.entry(l).or_default().push((slice.start, slice.end()));
                }
            }
        }
    }

    let mut ordered = affected.to_vec();
    ordered.sort_unstable();
    for &m in &ordered {
        let links = assignment.links(m);
        for (k, interval_slices) in per_interval.iter_mut().enumerate() {
            let mut need = allocation.allocated(m, k);
            if need <= EPS {
                continue;
            }
            let (a, b) = intervals.bounds(k);
            let mut free = vec![(a, b)];
            for &l in links {
                let spans = busy.entry(l).or_default();
                free = intersect(&free, &free_within(spans, a, b, guard));
                if free.is_empty() {
                    break;
                }
            }
            let mut placed: Vec<Slice> = Vec::new();
            for &(s, e) in &free {
                if need <= EPS {
                    break;
                }
                let chunk = (e - s).min(need);
                if chunk <= EPS {
                    continue;
                }
                placed.push(Slice {
                    messages: vec![m],
                    start: s,
                    duration: chunk,
                });
                need -= chunk;
            }
            if need > EPS {
                return None; // does not fit at this allocation scale
            }
            for slice in placed {
                for &l in links {
                    busy.entry(l).or_default().push((slice.start, slice.end()));
                }
                interval_slices.push(slice);
            }
        }
    }

    Some(
        per_interval
            .into_iter()
            .enumerate()
            .filter(|(_, slices)| !slices.is_empty())
            .map(|(interval, mut slices)| {
                slices.sort_by(|x, y| {
                    x.start
                        .total_cmp(&y.start)
                        .then_with(|| x.messages.cmp(&y.messages))
                });
                IntervalSchedule { interval, slices }
            })
            .collect(),
    )
}

/// The sub-spans of `[a, b]` at least `guard` away from every busy span.
/// Sorts `busy` in place (by start) as a side effect.
pub fn free_within(busy: &mut [(f64, f64)], a: f64, b: f64, guard: f64) -> Vec<(f64, f64)> {
    busy.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut out = Vec::new();
    let mut cursor = a;
    for &(s, e) in busy.iter() {
        let (s, e) = (s - guard, e + guard);
        if e <= cursor + EPS {
            continue;
        }
        if s >= b - EPS {
            break;
        }
        if s - cursor > EPS {
            out.push((cursor, s));
        }
        cursor = cursor.max(e);
        if cursor >= b - EPS {
            break;
        }
    }
    if b - cursor > EPS {
        out.push((cursor, b));
    }
    out
}

/// Merges overlapping or abutting spans, sorted by start, in place.
pub fn coalesce(spans: &mut Vec<(f64, f64)>) {
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
    for &(s, e) in spans.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 + EPS => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    *spans = merged;
}

/// Intersects two ascending disjoint span lists.
pub fn intersect(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e - s > EPS {
            out.push((s, e));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_within_respects_guard() {
        let mut busy = vec![(40.0, 50.0), (10.0, 20.0)];
        let free = free_within(&mut busy, 0.0, 100.0, 2.0);
        assert_eq!(free, vec![(0.0, 8.0), (22.0, 38.0), (52.0, 100.0)]);
    }

    #[test]
    fn free_within_empty_busy_is_whole_window() {
        let free = free_within(&mut [], 5.0, 30.0, 1.0);
        assert_eq!(free, vec![(5.0, 30.0)]);
    }

    #[test]
    fn intersect_two_pointer_walk() {
        let a = [(0.0, 10.0), (20.0, 30.0)];
        let b = [(5.0, 25.0)];
        assert_eq!(intersect(&a, &b), vec![(5.0, 10.0), (20.0, 25.0)]);
        assert!(intersect(&a, &[]).is_empty());
    }
}
