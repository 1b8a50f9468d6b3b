//! Idle-capacity analysis and **best-effort admission** — the paper's §7
//! asks how scheduled routing should handle traffic that is *not* known at
//! compile time. The answer implemented here: a compiled schedule `Ω`
//! leaves every link's busy intervals fully determined, so aperiodic
//! best-effort messages can be admitted online into provably idle windows
//! without perturbing a single scheduled transmission.

use sr_tfg::Timing;
use sr_topology::{LinkId, NodeId, Path, Topology};

use crate::{coalesce, intersect, Schedule, EPS};

/// A clear-path reservation granted to a best-effort message: during
/// `[start, start + duration]` every link of `path` is idle in the compiled
/// schedule (guard margins included), so the transfer cannot collide with
/// real-time traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct BestEffortGrant {
    /// The route the message should take.
    pub path: Path,
    /// Transmission start within the period frame, µs.
    pub start: f64,
    /// Transmission time, µs.
    pub duration: f64,
}

impl BestEffortGrant {
    /// End of the reservation, µs.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

impl Schedule {
    /// The busy spans of `link` within one period frame, merged and
    /// ascending: every `[start, end]` in which a scheduled message
    /// occupies the link.
    pub fn link_busy_spans(&self, link: LinkId) -> Vec<(f64, f64)> {
        let mut spans: Vec<(f64, f64)> = self
            .segments
            .iter()
            .filter(|s| self.assignment.links(s.message).contains(&link))
            .map(|s| (s.start, s.end))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        coalesce(&mut spans);
        spans
    }

    /// The idle windows of `link` within one period frame: the complement
    /// of [`Schedule::link_busy_spans`] in `[0, τ_in]`, with the schedule's
    /// guard time shaved off both ends of every window (a best-effort
    /// transfer needs the same switching margin as scheduled traffic).
    pub fn link_idle_windows(&self, link: LinkId) -> Vec<(f64, f64)> {
        let guard = self.guard_time;
        let mut windows = Vec::new();
        let mut cursor = 0.0;
        for (s, e) in self.link_busy_spans(link) {
            if s - cursor > EPS {
                windows.push((cursor, s));
            }
            cursor = cursor.max(e);
        }
        if self.period - cursor > EPS {
            windows.push((cursor, self.period));
        }
        windows
            .into_iter()
            .filter_map(|(s, e)| {
                let s = s + guard;
                let e = e - guard;
                (e - s > EPS).then_some((s, e))
            })
            .collect()
    }

    /// Fraction of the frame in which `link` is idle (1.0 for unused
    /// links).
    pub fn link_idle_fraction(&self, link: LinkId) -> f64 {
        let busy: f64 = self.link_busy_spans(link).iter().map(|(s, e)| e - s).sum();
        1.0 - busy / self.period
    }
}

/// Admits an aperiodic best-effort message of `bytes` from `src` to `dst`
/// into the idle capacity of a compiled schedule.
///
/// Considers up to `path_cap` shortest paths; for each, intersects the idle
/// windows of every hop and takes the earliest window long enough for the
/// transfer. Returns the grant with the earliest start over all candidate
/// paths, or `None` when no path has a wide-enough simultaneous idle
/// window this frame.
///
/// Co-located endpoints are granted a trivial instant reservation.
///
/// # Panics
///
/// Panics if `src` or `dst` is out of range for `topo`.
pub fn admit_best_effort(
    schedule: &Schedule,
    topo: &dyn Topology,
    timing: &Timing,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    path_cap: usize,
) -> Option<BestEffortGrant> {
    let duration = timing.tx_time_bytes(bytes);
    if src == dst {
        return Some(BestEffortGrant {
            path: Path::trivial(src),
            start: 0.0,
            duration: 0.0,
        });
    }
    let mut best: Option<BestEffortGrant> = None;
    for path in topo.shortest_paths(src, dst, path_cap.max(1)) {
        let links = path.links(topo);
        let mut free = vec![(0.0, schedule.period())];
        for l in &links {
            free = intersect(&free, &schedule.link_idle_windows(*l));
            if free.is_empty() {
                break;
            }
        }
        if let Some(&(s, _)) = free.iter().find(|&&(s, e)| e - s + EPS >= duration) {
            if best.as_ref().is_none_or(|g| s < g.start - EPS) {
                best = Some(BestEffortGrant {
                    path,
                    start: s,
                    duration,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileConfig};
    use sr_tfg::{generators, Timing};
    use sr_topology::GeneralizedHypercube;

    fn compiled() -> (
        GeneralizedHypercube,
        sr_tfg::TaskFlowGraph,
        Timing,
        Schedule,
    ) {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(3, 500, 1280); // tx 20 µs each
        let timing = Timing::new(64.0, 10.0); // exec 50
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let sched = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig::default(),
        )
        .expect("compiles");
        (topo, tfg, timing, sched)
    }

    #[test]
    fn busy_and_idle_partition_the_frame() {
        let (topo, _, _, sched) = compiled();
        for l in 0..sr_topology::Topology::num_links(&topo) {
            let link = LinkId(l);
            let busy: f64 = sched.link_busy_spans(link).iter().map(|(s, e)| e - s).sum();
            let idle: f64 = sched
                .link_idle_windows(link)
                .iter()
                .map(|(s, e)| e - s)
                .sum();
            assert!(
                (busy + idle - sched.period()).abs() < 1e-6,
                "link {link}: busy {busy} + idle {idle} != {}",
                sched.period()
            );
            assert!((sched.link_idle_fraction(link) - idle / sched.period()).abs() < 1e-9);
        }
    }

    #[test]
    fn intersect_spans() {
        // The path-wide free list `admit_best_effort` builds: every span
        // of the intersection lies inside an idle window of each hop.
        let (topo, _, _, sched) = compiled();
        let path = topo
            .shortest_paths(NodeId(0), NodeId(7), 1)
            .pop()
            .expect("0 and 7 are connected");
        let links = path.links(&topo);
        let mut free = vec![(0.0, sched.period())];
        for &l in &links {
            free = intersect(&free, &sched.link_idle_windows(l));
        }
        assert!(!free.is_empty(), "the 100 µs frame has idle time on 0 -> 7");
        for &(s, e) in &free {
            assert!(e - s > EPS);
            for &l in &links {
                let inside = sched
                    .link_idle_windows(l)
                    .iter()
                    .any(|&(a, b)| s >= a - 1e-9 && e <= b + 1e-9);
                assert!(inside, "span [{s}, {e}] leaves the idle windows of {l}");
            }
        }
        // A hop with no idle window closes the whole path.
        assert!(intersect(&free, &[]).is_empty());
    }

    #[test]
    fn unused_link_is_fully_idle() {
        let (topo, _, _, sched) = compiled();
        // Find a link carrying no scheduled message.
        let unused = (0..sr_topology::Topology::num_links(&topo))
            .map(LinkId)
            .find(|&l| sched.link_busy_spans(l).is_empty())
            .expect("3-cube has spare links for a 2-message chain");
        assert_eq!(sched.link_idle_windows(unused), vec![(0.0, 100.0)]);
        assert_eq!(sched.link_idle_fraction(unused), 1.0);
    }

    #[test]
    fn grant_avoids_scheduled_traffic() {
        let (topo, _, timing, sched) = compiled();
        let grant = admit_best_effort(
            &sched,
            &topo,
            &timing,
            NodeId(0),
            NodeId(7),
            640, // 10 µs
            16,
        )
        .expect("idle capacity exists");
        assert!(grant.path.validate(&topo));
        assert_eq!(grant.path.source(), NodeId(0));
        assert_eq!(grant.path.destination(), NodeId(7));
        assert!((grant.end() - grant.duration - grant.start).abs() < 1e-12);
        // The granted span must lie inside every hop's idle windows.
        for l in grant.path.links(&topo) {
            let ok = sched
                .link_idle_windows(l)
                .iter()
                .any(|&(s, e)| grant.start >= s - 1e-9 && grant.end() <= e + 1e-9);
            assert!(
                ok,
                "grant [{}, {}] collides on {l}",
                grant.start,
                grant.end()
            );
        }
    }

    #[test]
    fn oversized_request_is_refused() {
        let (topo, _, timing, sched) = compiled();
        // Longer than the whole frame: impossible.
        let grant = admit_best_effort(
            &sched,
            &topo,
            &timing,
            NodeId(0),
            NodeId(7),
            64 * 101, // 101 µs > 100 µs frame
            16,
        );
        assert!(grant.is_none());
    }

    #[test]
    fn colocated_request_is_trivial() {
        let (topo, _, timing, sched) = compiled();
        let grant =
            admit_best_effort(&sched, &topo, &timing, NodeId(3), NodeId(3), 9999, 4).unwrap();
        assert_eq!(grant.path.hops(), 0);
        assert_eq!(grant.duration, 0.0);
    }

    #[test]
    fn guarded_schedule_shrinks_idle_windows() {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(3, 500, 1280);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let plain = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig::default(),
        )
        .unwrap();
        let guarded = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig {
                guard_time: 3.0,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        // Pick a used link and compare idle totals.
        let used = (0..sr_topology::Topology::num_links(&topo))
            .map(LinkId)
            .find(|&l| !plain.link_busy_spans(l).is_empty())
            .unwrap();
        let idle = |s: &Schedule, l: LinkId| -> f64 {
            s.link_idle_windows(l).iter().map(|(a, b)| b - a).sum()
        };
        assert!(idle(&guarded, used) < idle(&plain, used) + 1e-9);
    }
}
