//! The `wse-verify` contract, both directions: each broken fixture in
//! [`wse_lint::fixtures`] must (1) lint dirty with the matching rule and a
//! concrete witness, and (2) *misbehave dynamically* exactly the way the
//! diagnostic predicts — deadlocked and starved programs stall out the
//! cycle watchdog, racy programs trip the runtime sanitizer.

use wse_lint::{fixtures, lint, Rule};

fn diags_of(name: &str) -> Vec<wse_lint::Diagnostic> {
    lint(&fixtures::build(name).expect("known fixture"))
}

fn assert_only(name: &str, rule: Rule) {
    let diags = diags_of(name);
    assert!(
        diags.iter().any(|d| d.rule == rule),
        "{name}: expected {rule} to fire; got: {diags:#?}"
    );
    assert!(diags.iter().all(|d| d.rule == rule), "{name}: expected only {rule}; got: {diags:#?}");
}

#[test]
fn every_fixture_name_builds() {
    for name in fixtures::ALL {
        assert!(fixtures::build(name).is_some(), "{name} must build");
    }
    assert!(fixtures::build("no-such-fixture").is_none());
}

// ---------------------------------------------------------------- deadlock

#[test]
fn request_reply_deadlock_lints_with_full_witness() {
    assert_only("deadlock-request-reply", Rule::DeadlockCycle);
    let diags = diags_of("deadlock-request-reply");
    let d = &diags[0];
    // The witness names both tiles, both colors, and walks the cycle.
    assert!(d.message.contains("(0, 0)"), "{}", d.message);
    assert!(d.message.contains("(1, 0)"), "{}", d.message);
    assert!(d.message.contains("color 1"), "{}", d.message);
    assert!(d.message.contains("color 2"), "{}", d.message);
    assert!(d.message.contains("->"), "{}", d.message);
}

#[test]
fn request_reply_deadlock_stalls_dynamically() {
    let mut f = fixtures::build("deadlock-request-reply").unwrap();
    let err = f.run_watched(10_000, 10_000).expect_err("must deadlock");
    // Both receives sit waiting forever.
    assert!(err.cycle >= 10_000);
}

#[test]
fn backpressure_deadlock_lints_with_queue_depths() {
    assert_only("deadlock-backpressure", Rule::DeadlockCycle);
    let diags = diags_of("deadlock-backpressure");
    let d = &diags[0];
    // The witness quantifies the waits: send lengths and the queue
    // capacities that bound the cycle's slack.
    assert!(d.message.contains("len 48"), "{}", d.message);
    assert!(d.message.contains("ramp-out 8"), "{}", d.message);
    assert!(d.message.contains("8 flits"), "{}", d.message);
}

#[test]
fn backpressure_deadlock_stalls_dynamically() {
    let mut f = fixtures::build("deadlock-backpressure").unwrap();
    f.run_watched(10_000, 10_000).expect_err("must wedge on backpressure");
}

// ------------------------------------------------------------------- races

#[test]
fn overlapping_writes_lint_with_byte_ranges() {
    assert_only("race-overlapping-writes", Rule::DataRace);
    let diags = diags_of("race-overlapping-writes");
    // Both launch sites race each other; the witness carries byte ranges
    // and the activation-graph justification.
    assert!(diags.iter().any(|d| d.message.contains("write")), "{diags:#?}");
    assert!(diags[0].message.contains("bytes ["), "{}", diags[0].message);
    assert!(diags[0].message.contains("activation graph"), "{}", diags[0].message);
}

#[test]
fn overlapping_writes_trip_the_sanitizer() {
    let mut f = fixtures::build("race-overlapping-writes").unwrap();
    f.arm_sanitizer();
    f.run_watched(10_000, 10_000).expect("racy but not deadlocked");
    let rep = f.take_sanitizer().unwrap();
    assert!(!rep.is_clean(), "sanitizer must trip: {rep}");
    let t = &rep.tiles[0];
    assert!(t.total_trips > 0);
    assert!(t.trips[0].ctx != t.trips[0].prior_ctx);
}

#[test]
fn write_after_read_lints_as_race() {
    assert_only("race-write-after-read", Rule::DataRace);
    let diags = diags_of("race-write-after-read");
    assert!(
        diags.iter().any(|d| d.message.contains("read") && d.message.contains("write")),
        "{diags:#?}"
    );
}

#[test]
fn write_after_read_trips_the_sanitizer() {
    let mut f = fixtures::build("race-write-after-read").unwrap();
    f.arm_sanitizer();
    f.run_watched(10_000, 10_000).expect("racy but not deadlocked");
    let rep = f.take_sanitizer().unwrap();
    assert!(!rep.is_clean(), "sanitizer must trip: {rep}");
    assert!(rep.tiles[0]
        .trips
        .iter()
        .any(|t| matches!(t.kind, wse_arch::TripKind::WriteAfterRead)));
}

// ---------------------------------------------------------------- progress

#[test]
fn unproduced_color_lints_as_starved() {
    assert_only("starved-no-producer", Rule::ColorStarved);
    let diags = diags_of("starved-no-producer");
    let d = &diags[0];
    assert_eq!(d.tile, (1, 0));
    assert!(d.message.contains("color 6"), "{}", d.message);
    assert!(d.message.contains("nothing in the ensemble produces"), "{}", d.message);
}

#[test]
fn unproduced_color_stalls_dynamically() {
    let mut f = fixtures::build("starved-no-producer").unwrap();
    f.run_watched(10_000, 10_000).expect_err("receive must wait forever");
}

#[test]
fn unreached_consumer_lints_as_starved() {
    assert_only("starved-unreached-consumer", Rule::ColorStarved);
    let diags = diags_of("starved-unreached-consumer");
    assert_eq!(diags.len(), 1, "only the unreached consumer fires: {diags:#?}");
    let d = &diags[0];
    assert_eq!(d.tile, (0, 1));
    assert!(d.message.contains("producer injection point"), "{}", d.message);
}

#[test]
fn unreached_consumer_stalls_dynamically_with_wait_signature() {
    let mut f = fixtures::build("starved-unreached-consumer").unwrap();
    f.arm_sanitizer();
    f.run_watched(10_000, 10_000).expect_err("second consumer must wait forever");
    // The shadow channel-wait shows an ever-growing streak on color 6 at
    // the starved tile — the runtime face of the static diagnostic.
    let rep = f.take_sanitizer().unwrap();
    assert!(rep.is_clean(), "starvation is not a race");
    let (x, y, color, n) = rep.longest_channel_wait().expect("waits recorded");
    assert_eq!((x, y, color), (0, 1, 6));
    assert!(n > 9_000, "starved wait should dominate the run, got {n}");
}
