//! Positive/negative fixture tests: every rule must still catch the bug
//! class it was built for (`bad` trees) and stay quiet on the idiomatic
//! form (`good` trees). Each fixture under `fixtures/<rule>/` is a
//! miniature workspace with its own `figlint.toml`.

use std::path::PathBuf;

use figlint::analyze_root;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

/// Runs figlint on a fixture and returns its rendered diagnostics.
fn lint(name: &str) -> Vec<String> {
    analyze_root(&fixture(name))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"))
        .iter()
        .map(ToString::to_string)
        .collect()
}

fn assert_clean(name: &str) {
    let diags = lint(name);
    assert!(diags.is_empty(), "fixture {name} should be clean, got:\n{}", diags.join("\n"));
}

/// Asserts the fixture produces exactly the rules in `expect` (with
/// multiplicity), in any order.
fn assert_rules(name: &str, expect: &[&str]) {
    let diags = lint(name);
    let mut got: Vec<&str> = diags
        .iter()
        .map(|d| {
            let open = d.find('[').unwrap_or_else(|| panic!("no rule tag in `{d}`"));
            &d[open + 1..open + 7]
        })
        .collect();
    let mut want = expect.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "fixture {name} diagnostics:\n{}", diags.join("\n"));
}

#[test]
fn determinism_catches_hash_iteration_and_wall_clock() {
    // Two Instant tokens on one line (`std::time::Instant` import is a
    // separate line) plus the hash-map walk.
    let diags = lint("determinism/bad");
    assert!(
        diags.iter().any(|d| d.contains("FIG001") && d.contains("`pending`")),
        "want hash-iteration finding:\n{}",
        diags.join("\n")
    );
    assert!(
        diags.iter().any(|d| d.contains("FIG001") && d.contains("wall-clock")),
        "want wall-clock finding:\n{}",
        diags.join("\n")
    );
    // The #[cfg(test)] HashSet walk must not be flagged.
    assert!(
        !diags.iter().any(|d| d.contains("seen")),
        "test-module code must be exempt:\n{}",
        diags.join("\n")
    );
}

#[test]
fn determinism_accepts_btreemap_and_point_lookups() {
    assert_clean("determinism/good");
}

#[test]
fn horizon_catches_the_pr3_sentinel_shape() {
    // `unwrap_or(Cycle::MAX)` and `map_or(Cycle::MAX, …)` inside
    // `in_order_horizon`, and `unwrap_or(Cycle::MAX)` inside a fn that
    // is *not* horizon-shaped stays legal.
    assert_rules("horizon/bad", &["FIG002", "FIG002"]);
}

#[test]
fn horizon_allowlist_and_option_return_are_clean() {
    assert_clean("horizon/good");
}

#[test]
fn floats_catch_the_pr6_lossy_format() {
    // Only the `{}` in `to_text` — the human-facing `report` is out of
    // scope by design.
    assert_rules("floats/bad", &["FIG003"]);
}

#[test]
fn floats_accept_the_bit_pattern_convention() {
    assert_clean("floats/good");
}

#[test]
fn env_registry_catches_both_directions() {
    let diags = lint("env_registry/bad");
    assert!(
        diags.iter().any(|d| d.contains("FIG005") && d.contains("FIGARO_SECRET")),
        "want undocumented-read finding:\n{}",
        diags.join("\n")
    );
    assert!(
        diags.iter().any(|d| d.contains("FIG005") && d.contains("FIGARO_GONE")),
        "want documented-but-unread finding:\n{}",
        diags.join("\n")
    );
    assert!(
        diags
            .iter()
            .any(|d| d.contains("FIG005") && d.contains("library code reads the environment")),
        "want read-outside-the-parser finding:\n{}",
        diags.join("\n")
    );
}

#[test]
fn env_registry_accepts_a_synced_registry() {
    // The parser file and harness code (a `tests/` file) both read env.
    assert_clean("env_registry/good");
}

#[test]
fn panics_enforce_the_budget_both_ways() {
    // 2 live sites vs a budget of 1 (test-module sites are free).
    let diags = lint("panics/bad");
    assert_rules("panics/bad", &["FIG006"]);
    assert!(diags[0].contains("exceed the budget of 1"), "{}", diags.join("\n"));
}

#[test]
fn panics_accept_an_exact_budget() {
    assert_clean("panics/good");
}

#[test]
fn probe_catches_a_bare_emit() {
    // One bare `.job_retire(` behind a hand-rolled `if let` — the guard
    // must be the probe! macro, not an ad-hoc Option test.
    let diags = lint("probe/bad");
    assert_rules("probe/bad", &["FIG007"]);
    assert!(diags[0].contains("job_retire"), "{}", diags.join("\n"));
}

#[test]
fn probe_accepts_guarded_and_sanctioned_emits() {
    // Single-line probe!, the rustfmt-wrapped three-line form, and a
    // justified allow for the glue module that implements the probes.
    assert_clean("probe/good");
}

#[test]
fn stale_allow_entries_fail_the_run() {
    let diags = lint("stale/bad");
    assert_rules("stale/bad", &["FIG000"]);
    assert!(diags[0].contains("old_fn"), "{}", diags.join("\n"));
}
