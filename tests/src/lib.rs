//! Cross-crate integration tests for the FIGARO workspace.
//!
//! The tests live in `tests/`; this library is empty. There is one
//! tier: `cargo test -q` runs every test, including the paper-shape
//! orderings of `end_to_end.rs` at `Scale::Small`. Each test names its
//! own scale, so no `FIGARO_*` variable reshapes a run.
