//! Shared helpers for the FIGARO integration-test crate.
//!
//! The suite is tiered:
//!
//! * **Fast tier (default)** — deterministic [`Scale::Tiny`] smoke runs
//!   driven through the runner's parallel batch API. Runs on every
//!   `cargo test -q` and finishes in well under a minute.
//! * **Slow tier (opt-in)** — the paper-shape assertions at
//!   [`Scale::Small`]. These need cache warmup the tiny scale cannot
//!   provide and take a couple of minutes; they are `#[ignore]`d by
//!   default. Run them with:
//!
//!   ```text
//!   FIGARO_SLOW_TESTS=1 cargo test -q -- --include-ignored
//!   ```

use figaro_sim::{EnvConfig, Scale};

/// Marker attached to every slow test's `#[ignore]` reason.
pub const SLOW_HINT: &str =
    "slow paper-shape test: run with FIGARO_SLOW_TESTS=1 cargo test -- --include-ignored";

/// Whether the operator asked for the slow tier (`FIGARO_SLOW_TESTS=1`).
#[must_use]
pub fn slow_tests_enabled() -> bool {
    std::env::var("FIGARO_SLOW_TESTS").is_ok_and(|v| v == "1")
}

/// Guard for slow test bodies: returns `false` (after printing why) when
/// the slow tier was not requested, so a bare `--include-ignored` without
/// the env var still skips the multi-minute runs.
#[must_use]
pub fn slow_guard(test: &str) -> bool {
    if slow_tests_enabled() {
        return true;
    }
    eprintln!("{test}: skipped ({SLOW_HINT})");
    false
}

/// The parsed `FIGARO_*` environment.
///
/// # Panics
///
/// Panics with the parser's message on a malformed variable.
#[must_use]
pub fn env() -> EnvConfig {
    EnvConfig::from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// The fast tier's scale: always [`Scale::Tiny`] unless the operator
/// explicitly overrides `FIGARO_SCALE` (keeping the default run
/// deterministic and CI-fast).
#[must_use]
pub fn fast_tier_scale() -> Scale {
    env().scale_or(Scale::Tiny)
}

/// The slow tier's scale: the bench default unless overridden.
#[must_use]
pub fn slow_tier_scale() -> Scale {
    env().scale_or(Scale::Small)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tier_scales_disagree_by_default() {
        if super::env().scale.is_none() {
            assert_ne!(super::fast_tier_scale(), super::slow_tier_scale());
        }
    }
}
