//! The live workspace must stay figlint-clean: the whole point of the
//! tool is that these invariants hold *now*, not aspirationally. This
//! is the same check CI runs via `cargo run -p figlint --release`,
//! wired into `cargo test` so a violation fails the test suite too.

use std::path::Path;

#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("figlint lives two levels below the workspace root");
    let diags = figlint::analyze_root(root).expect("figlint configuration must load");
    assert!(
        diags.is_empty(),
        "figlint violations in the live workspace:\n{}",
        diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
