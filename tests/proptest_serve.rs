//! Property-based testing of the serve engine's multi-tenant pinning
//! contract: over random admit/evict interleavings on a 4×4 torus, every
//! admitted tenant's schedule stays bit-identical to its standalone
//! compile, eviction restores the ledger exactly, and evict-then-readmit
//! reproduces the original admission byte for byte — also with a memo
//! capacity far below the number of tenants in play.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sr::serve::{AdmitError, Engine, Placement, ServeConfig, TenantSpec};
use sr::tfg::MessageId;
use sr::topology::Torus;

const POOL: usize = 6;

/// Tenant `i` from the pool: a two-task chain pinned to its own node pair,
/// so every tenant's path links are private and admission stays on the
/// fast rung (which is what makes "rows == standalone compile" assertable
/// for *all* interleavings).
fn spec(i: usize) -> TenantSpec {
    TenantSpec {
        name: format!("t{i}"),
        tfg_text: format!(
            "task a{i} 100\ntask b{i} 120\nmsg m{i} a{i} -> b{i} {}",
            128 + 64 * i
        ),
        placement: Placement::Nodes(vec![2 * i, 2 * i + 1]),
        best_effort: false,
    }
}

fn engine() -> Engine {
    engine_with(ServeConfig::default())
}

fn engine_with(cfg: ServeConfig) -> Engine {
    let topo = Torus::new(&[4, 4]).expect("torus");
    Engine::new(Box::new(topo), cfg)
}

/// The standalone compile of tenant `i`: what a fresh engine with an empty
/// ledger admits (the fast rung clones the memoized standalone schedule
/// verbatim).
fn standalone(i: usize) -> sr::core::Schedule {
    let mut eng = engine();
    eng.admit(&spec(i), &sr::obs::NOOP)
        .expect("standalone admits");
    eng.tenant(&format!("t{i}"))
        .expect("tenant present")
        .schedule
        .clone()
        .expect("real-time schedule")
}

/// Drives one admit/evict interleaving on an engine with `cfg`, checking
/// every admitted tenant against its standalone reference after each step.
fn check_interleaving(ops: &[(usize, bool)], cfg: ServeConfig) -> Result<(), TestCaseError> {
    let references: Vec<sr::core::Schedule> = (0..POOL).map(standalone).collect();
    let mut eng = engine_with(cfg);
    let mut first_spans: BTreeMap<usize, _> = BTreeMap::new();

    for &(i, admit) in ops {
        let name = format!("t{i}");
        if admit {
            match eng.admit(&spec(i), &sr::obs::NOOP) {
                Ok(report) => {
                    prop_assert_eq!(report.rung, sr::serve::AdmitRung::Fast);
                    let t = eng.tenant(&name).expect("admitted");
                    // Evict-then-readmit reproduces the original
                    // admission exactly.
                    if let Some(prev) = first_spans.get(&i) {
                        prop_assert_eq!(prev, &t.spans);
                    } else {
                        first_spans.insert(i, t.spans.clone());
                    }
                }
                Err(AdmitError::Duplicate(_)) => {
                    prop_assert!(eng.tenant(&name).is_some());
                }
                Err(e) => prop_assert!(false, "unexpected admit error: {e:?}"),
            }
        } else {
            let was_admitted = eng.tenant(&name).is_some();
            prop_assert_eq!(eng.evict(&name, &sr::obs::NOOP).is_ok(), was_admitted);
        }
        eng.check_invariants()
            .map_err(|e| TestCaseError::fail(format!("invariants: {e}")))?;

        // Every admitted tenant stays bit-identical to standalone.
        for t in eng.tenants() {
            let idx: usize = t.name[1..].parse().expect("pool name");
            let reference = &references[idx];
            let got = t.schedule.as_ref().expect("real-time schedule");
            prop_assert_eq!(got.segments(), reference.segments());
            for m in 0..got.assignment().len() {
                let m = MessageId(m);
                prop_assert_eq!(
                    got.assignment().path(m).nodes(),
                    reference.assignment().path(m).nodes()
                );
                prop_assert_eq!(got.allocation().row(m), reference.allocation().row(m));
            }
        }
    }

    // Draining the table restores the empty ledger bit-identically.
    let names: Vec<String> = eng.tenants().map(|t| t.name.clone()).collect();
    for name in names {
        eng.evict(&name, &sr::obs::NOOP).expect("drain");
    }
    prop_assert!(eng.ledger().is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any admit/evict interleaving leaves every admitted tenant's rows,
    /// segments, and spans bit-identical to its standalone compile, and
    /// the ledger invariants hold after every step.
    #[test]
    fn interleavings_preserve_the_pinning_contract(
        ops in prop::collection::vec((0usize..POOL, any::<bool>()), 1..24),
    ) {
        check_interleaving(&ops, ServeConfig::default())?;
    }

    /// The same contract with a memo capacity of 1–3 under interleavings
    /// longer than it: memo eviction never fails an admission and never
    /// perturbs a schedule.
    #[test]
    fn small_memo_interleavings_preserve_the_pinning_contract(
        memo_capacity in 1usize..4,
        ops in prop::collection::vec((0usize..POOL, any::<bool>()), 4..24),
    ) {
        let cfg = ServeConfig { memo_capacity, ..ServeConfig::default() };
        check_interleaving(&ops, cfg)?;
    }
}
