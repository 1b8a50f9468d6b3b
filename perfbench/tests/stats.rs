//! Failure-aware percentiles and goodput on hand-built samples.

use perfbench::stats::{goodput, median, percentile, Sample, FAILED_MS};

fn ok(ms: f64) -> Sample {
    Sample { ms, ok: true }
}

fn failed(ms: f64) -> Sample {
    Sample { ms, ok: false }
}

#[test]
fn all_ok_is_the_plain_nearest_rank_percentile() {
    let s: Vec<Sample> = [5.0, 1.0, 4.0, 2.0, 3.0].into_iter().map(ok).collect();
    assert_eq!(percentile(&s, 0.5), Some(3.0));
    assert_eq!(percentile(&s, 0.95), Some(5.0));
    assert_eq!(percentile(&s, 0.0), Some(1.0));
    assert_eq!(goodput(&s, 3.0, 2.0), 1.5);
    assert_eq!(goodput(&s, f64::INFINITY, 1.0), 5.0);
}

#[test]
fn all_failed_ranks_above_any_ok_answer() {
    let s = [failed(0.1), failed(0.3), failed(0.2)];
    assert_eq!(percentile(&s, 0.5), Some(FAILED_MS + 0.2));
    assert!(percentile(&s, 0.0).is_some_and(|p| p > 180_000.0));
    assert_eq!(goodput(&s, f64::INFINITY, 1.0), 0.0);
}

#[test]
fn mixed_failures_rank_after_every_ok_answer() {
    // The failure is faster than every ok answer, yet ranks last.
    let s = [ok(10.0), failed(0.5), ok(30.0), ok(20.0)];
    assert_eq!(percentile(&s, 0.5), Some(20.0));
    assert_eq!(percentile(&s, 0.75), Some(30.0));
    assert_eq!(percentile(&s, 1.0), Some(FAILED_MS + 0.5));
    // Slow ok answers miss the goodput limit; failures never count.
    assert_eq!(goodput(&s, 25.0, 2.0), 1.0);
}

#[test]
fn percentile_landing_exactly_on_the_first_failure() {
    // Nearest rank of q = 0.5 over four samples is the 2nd: the first
    // failure, which reads above every ok answer.
    let s = [ok(1.0), failed(0.1), failed(0.2), failed(0.3)];
    assert_eq!(percentile(&s, 0.25), Some(1.0));
    assert_eq!(percentile(&s, 0.5), Some(FAILED_MS + 0.1));
    // A fix that turns that failure into a success can only lower it.
    let fixed = [ok(1.0), ok(50.0), failed(0.2), failed(0.3)];
    assert!(percentile(&fixed, 0.5) < percentile(&s, 0.5));
}

#[test]
fn empty_sets_have_no_percentile_or_median() {
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
}
