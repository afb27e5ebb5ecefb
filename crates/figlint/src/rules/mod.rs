//! The rule catalog. Each rule module exposes
//! `run(&Workspace, &mut AllowTracker) -> Result<Vec<Diagnostic>, String>`.

pub mod determinism;
pub mod env_registry;
pub mod floats;
pub mod horizon;
pub mod panics;
pub mod probe;

use crate::config::AllowEntry;
use crate::Diagnostic;

/// Tracks allowlist usage across rules so unused entries can be
/// reported as `FIG000` — an allowlist may only describe violations
/// that still exist.
#[derive(Debug, Default)]
pub struct AllowTracker {
    entries: Vec<(String, AllowEntry, bool)>,
}

impl AllowTracker {
    /// Registers a rule section's entries (called once per rule).
    pub fn register(&mut self, section: &str, entries: Vec<AllowEntry>) {
        for e in entries {
            self.entries.push((section.to_string(), e, false));
        }
    }

    /// Whether `section` allows a violation in `file` whose line text is
    /// `line_text` inside function `fn_name`. A matching entry is marked
    /// used. Entry semantics: the path must match the file (exact
    /// workspace-relative path), and the token — when present — must
    /// appear in the violating line or equal the enclosing function name.
    pub fn allows(
        &mut self,
        section: &str,
        file: &str,
        line_text: &str,
        fn_name: Option<&str>,
    ) -> bool {
        let mut hit = false;
        for (sec, e, used) in &mut self.entries {
            if sec != section || e.path != file {
                continue;
            }
            let token_ok = match &e.token {
                None => true,
                Some(t) => line_text.contains(t.as_str()) || fn_name == Some(t.as_str()),
            };
            if token_ok {
                *used = true;
                hit = true;
            }
        }
        hit
    }

    /// Direct lookup for rules with non-line-shaped exemptions (env
    /// vars, panic budgets). Marks the entry used.
    pub fn take(&mut self, section: &str, path: &str) -> Option<AllowEntry> {
        for (sec, e, used) in &mut self.entries {
            if sec == section && e.path == path {
                *used = true;
                return Some(e.clone());
            }
        }
        None
    }

    /// `FIG000` diagnostics for entries that matched nothing.
    #[must_use]
    pub fn stale(&self) -> Vec<Diagnostic> {
        self.entries
            .iter()
            .filter(|(_, _, used)| !used)
            .map(|(sec, e, _)| Diagnostic {
                file: "figlint.toml".into(),
                line: e.line,
                rule: "FIG000",
                message: format!(
                    "stale `[{sec}]` allow entry `{}{}` — it no longer matches any violation; \
                     delete it (justification was: {})",
                    e.path,
                    e.token.as_ref().map_or_else(String::new, |t| format!(": {t}")),
                    e.justification
                ),
            })
            .collect()
    }
}

/// Whether `rel_path` lives under one of the configured crate roots.
#[must_use]
pub fn in_crates(rel_path: &str, crates: &[String]) -> bool {
    crates.iter().any(|c| {
        let c = c.trim_end_matches('/');
        rel_path.starts_with(&format!("{c}/"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(path: &str, token: Option<&str>) -> AllowEntry {
        AllowEntry {
            path: path.into(),
            token: token.map(Into::into),
            justification: "test".into(),
            line: 1,
        }
    }

    #[test]
    fn token_matches_line_or_fn_name() {
        let mut t = AllowTracker::default();
        t.register("horizon", vec![entry("a.rs", Some("in_order_horizon"))]);
        assert!(t.allows("horizon", "a.rs", "x.unwrap_or(Cycle::MAX)", Some("in_order_horizon")));
        assert!(!t.allows("horizon", "a.rs", "x.unwrap_or(Cycle::MAX)", Some("other_fn")));
        assert!(t.stale().is_empty());
    }

    #[test]
    fn unused_entries_go_stale() {
        let mut t = AllowTracker::default();
        t.register("determinism", vec![entry("gone.rs", None)]);
        let stale = t.stale();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "FIG000");
        assert!(stale[0].message.contains("gone.rs"));
    }

    #[test]
    fn crate_scoping() {
        let crates = vec!["crates/core".to_string()];
        assert!(in_crates("crates/core/src/engine.rs", &crates));
        assert!(!in_crates("crates/corex/src/lib.rs", &crates));
        assert!(!in_crates("crates/sim/src/lib.rs", &crates));
    }
}
