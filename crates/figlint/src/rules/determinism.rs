//! FIG001 — determinism: result-affecting crates must not iterate hash
//! containers, read wall clocks, or draw unseeded randomness.
//!
//! Simulated results are pure functions of `(workload, config, seed)`;
//! anything that lets host state leak into a run breaks bit-identical
//! reproduction. Three idioms are banned in the crates listed under
//! `[determinism] crates`:
//!
//! 1. **Hash-container iteration.** `HashMap`/`HashSet` iteration order
//!    is randomized per process, so any walk over one is a determinism
//!    hazard. The scanner tracks identifiers declared with a
//!    `HashMap`/`HashSet` type (fields, params, typed lets, and
//!    `= HashMap::new()` initializers) and flags `for … in` loops and
//!    ordering-sensitive method calls (`iter`, `keys`, `values`,
//!    `drain`, `retain`, `into_iter`, `into_keys`, `into_values`) whose
//!    receiver is a tracked name. Point lookups (`get`, `insert`,
//!    `remove`, `len`, `contains_key`) stay legal — hash maps are fine
//!    as long as nothing observes their order.
//! 2. **Wall clocks.** `std::time::Instant` / `SystemTime` reads make
//!    results depend on host timing.
//! 3. **Unseeded RNG.** `thread_rng`, `from_entropy` and `rand::random`
//!    draw from OS entropy; every simulator RNG must be seeded from the
//!    run description.
//!
//! `#[cfg(test)]` modules are exempt (tests may use hash sets to check
//! set-shaped properties). Exemptions in live code need an
//! `[determinism] allow` entry with a justification.

use crate::rules::{in_crates, AllowTracker};
use crate::scan::{contains_word, ident_ending_at, SourceFile};
use crate::{Diagnostic, Workspace};

/// Ordering-sensitive methods on hash containers.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Tokens whose mere presence in live code is a violation.
const FORBIDDEN_TOKENS: &[(&str, &str)] = &[
    ("std::time::Instant", "wall-clock read"),
    ("Instant::now", "wall-clock read"),
    ("SystemTime", "wall-clock read"),
    ("thread_rng", "unseeded RNG"),
    ("from_entropy", "unseeded RNG"),
    ("rand::random", "unseeded RNG"),
];

/// Runs FIG001 over the workspace.
pub fn run(ws: &Workspace, tracker: &mut AllowTracker) -> Result<Vec<Diagnostic>, String> {
    let crates = ws.config.strings("determinism.crates");
    tracker.register("determinism", ws.config.allow("determinism")?);
    let mut diags = Vec::new();
    for file in &ws.files {
        if !in_crates(&file.rel_path, &crates) {
            continue;
        }
        let hash_names = collect_hash_names(file);
        for (i, code) in file.code_lines.iter().enumerate() {
            let line = i + 1;
            if file.is_test_line(line) {
                continue;
            }
            let fn_name = file.fn_at(line).map(|f| f.name.clone());
            let flag = |msg: String, diags: &mut Vec<Diagnostic>, tr: &mut AllowTracker| {
                if !tr.allows("determinism", &file.rel_path, code, fn_name.as_deref()) {
                    diags.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line,
                        rule: "FIG001",
                        message: msg,
                    });
                }
            };
            for (tok, what) in FORBIDDEN_TOKENS {
                if code.contains(tok) {
                    flag(
                        format!(
                            "{what}: `{tok}` in a result-affecting crate — results must be \
                             pure functions of (workload, config, seed)"
                        ),
                        &mut diags,
                        tracker,
                    );
                }
            }
            if !hash_names.is_empty() {
                for name in iteration_receivers(code) {
                    if hash_names.contains(&name) {
                        flag(
                            format!(
                                "iteration over hash container `{name}` — `HashMap`/`HashSet` \
                                 order is nondeterministic; use `BTreeMap`/`BTreeSet` or sort \
                                 before iterating"
                            ),
                            &mut diags,
                            tracker,
                        );
                    }
                }
            }
        }
    }
    Ok(diags)
}

/// Identifiers in `file` declared with a hash-container type.
fn collect_hash_names(file: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for code in &file.code_lines {
        for marker in ["HashMap", "HashSet"] {
            let mut start = 0;
            while let Some(p) = code[start..].find(marker) {
                let abs = start + p;
                // `name: HashMap<…>` / `name: std::collections::HashMap<…>`
                // (fields, params, typed lets) and `name = HashMap::new()`.
                let before = &code[..abs];
                let before = before.trim_end();
                let before = before
                    .strip_suffix("std::collections::")
                    .or_else(|| before.strip_suffix("collections::"))
                    .unwrap_or(before)
                    .trim_end();
                for sep in [':', '='] {
                    if let Some(head) = before.strip_suffix(sep) {
                        let head = head.trim_end().trim_end_matches(':');
                        if let Some(name) = ident_ending_at(head, head.len()) {
                            if name != "mut" && !names.contains(&name.to_string()) {
                                names.push(name.to_string());
                            }
                        }
                    }
                }
                start = abs + marker.len();
            }
        }
    }
    names
}

/// Receiver identifiers of iteration constructs on `code`.
fn iteration_receivers(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for m in ITER_METHODS {
        let mut start = 0;
        while let Some(p) = code[start..].find(m) {
            let abs = start + p;
            if let Some(name) = ident_ending_at(code, abs) {
                out.push(name.to_string());
            }
            start = abs + m.len();
        }
    }
    // `for x in &name {` / `for x in name {` / `for x in &mut name {`.
    if contains_word(code, "for") {
        if let Some(in_pos) = code.find(" in ") {
            let tail = &code[in_pos + 4..];
            let expr = tail.split('{').next().unwrap_or(tail).trim();
            let expr = expr.strip_prefix('&').unwrap_or(expr);
            let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
            let expr = expr.strip_prefix("self.").unwrap_or(expr);
            if !expr.is_empty() && expr.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                out.push(expr.to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_declared_hash_names() {
        let f = SourceFile::lex(
            "a.rs",
            "struct S { pending: HashMap<u32, Vec<u8>>, rows: std::collections::HashSet<u64> }\n\
             fn f() { let mut seen = HashMap::new(); }\n",
        );
        let names = collect_hash_names(&f);
        assert!(names.contains(&"pending".to_string()));
        assert!(names.contains(&"rows".to_string()));
        assert!(names.contains(&"seen".to_string()));
    }

    #[test]
    fn finds_iteration_receivers() {
        assert_eq!(iteration_receivers("for (c, b) in &pending {"), vec!["pending"]);
        assert_eq!(iteration_receivers("self.counts.values().max()"), vec!["counts"]);
        assert_eq!(iteration_receivers("x.drain(..)"), vec!["x"]);
        assert!(iteration_receivers("map.get(&k)").is_empty());
    }
}
