//! FIG005 — env-var registry: the environment is read in one parser
//! file, every `FIGARO_*` variable read is documented, and every
//! documented one is still read.
//!
//! Environment toggles are the least discoverable configuration surface
//! the simulator has — nothing type-checks them, and one read deep in a
//! library silently reshapes every run that links it. The rule checks:
//!
//! * **where** — `env::var(` / `env::var_os(` calls may appear only in
//!   the `[env_registry] parsers` files and in harness code (paths with
//!   a `tests`, `benches` or `examples` component, `src/bin/`, and
//!   `#[cfg(test)]` modules);
//! * **reads** — every `[env_registry] prefix` string literal in a
//!   parser file, plus same-line `env::var*("PREFIX…")` reads in harness
//!   code (test code included: a test-only knob still needs docs);
//! * **docs** — `FIGARO_*` tokens appearing in the `[env_registry]
//!   docs` files (e.g. `README.md`);
//! * **usage** — tokens in string literals of the `[env_registry]
//!   usage` files (e.g. the `diag` binary's `usage()` text).
//!
//! A read missing from docs or usage is flagged at the read site; a
//! documented/usage token nothing reads is flagged where it is written
//! (a rename that forgot the docs). `[env_registry] allow` entries use
//! the variable name as the path: `"FIGARO_FOO -- why"`.

use crate::rules::AllowTracker;
use crate::{Diagnostic, Workspace};

/// Whether `rel_path` is harness code, which may read the environment.
fn is_harness(rel_path: &str) -> bool {
    rel_path.split('/').any(|c| matches!(c, "tests" | "benches" | "examples"))
        || rel_path.contains("src/bin/")
}

/// Runs FIG005 over the workspace.
pub fn run(ws: &Workspace, tracker: &mut AllowTracker) -> Result<Vec<Diagnostic>, String> {
    let prefix = ws.config.string_or("env_registry.prefix", "FIGARO_");
    let parsers = ws.config.strings("env_registry.parsers");
    tracker.register("env_registry", ws.config.allow("env_registry")?);

    let mut diags = Vec::new();
    // (var, file, line) for every parser-file literal and every
    // same-line `env::var*("PREFIX…")` harness read.
    let mut reads: Vec<(String, String, usize)> = Vec::new();
    for file in &ws.files {
        let parser = parsers.contains(&file.rel_path);
        let harness = is_harness(&file.rel_path);
        for (i, code) in file.code_lines.iter().enumerate() {
            let line = i + 1;
            let env_read = code.contains("env::var(") || code.contains("env::var_os(");
            if env_read && !parser && !harness && !file.is_test_line(line) {
                diags.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line,
                    rule: "FIG005",
                    message: "library code reads the environment; parse it in the \
                              `[env_registry] parsers` file and pass the value in"
                        .into(),
                });
            }
            if !(parser || env_read) {
                continue;
            }
            for lit in file.strings_on(line) {
                if names_var(&lit.text, &prefix) {
                    reads.push((lit.text.clone(), file.rel_path.clone(), line));
                }
            }
        }
    }

    // Tokens mentioned in docs files and usage files.
    let mut docs: Vec<(String, String, usize)> = Vec::new();
    for doc in ws.config.strings("env_registry.docs") {
        let text = ws.read_text(&doc)?;
        for (i, line) in text.lines().enumerate() {
            for tok in extract_tokens(line, &prefix) {
                docs.push((tok, doc.clone(), i + 1));
            }
        }
    }
    let mut usage: Vec<(String, String, usize)> = Vec::new();
    for path in ws.config.strings("env_registry.usage") {
        let Some(file) = ws.file(&path) else {
            return Err(format!("figlint.toml: [env_registry] usage: no such file `{path}`"));
        };
        for lit in &file.strings {
            for tok in extract_tokens(&lit.text, &prefix) {
                usage.push((tok, path.clone(), lit.line));
            }
        }
    }

    let mut flag = |var: &str, file: &str, line: usize, msg: String, tr: &mut AllowTracker| {
        if tr.take("env_registry", var).is_none() {
            diags.push(Diagnostic { file: file.into(), line, rule: "FIG005", message: msg });
        }
    };
    let read_vars: Vec<&String> = reads.iter().map(|(v, _, _)| v).collect();
    let mut seen = Vec::new();
    for (var, file, line) in &reads {
        if seen.contains(var) {
            continue;
        }
        seen.push(var.clone());
        if !docs.iter().any(|(v, _, _)| v == var) {
            flag(
                var,
                file,
                *line,
                format!("`{var}` is read here but not documented in the env-var registry"),
                tracker,
            );
        }
        if !usage.is_empty() && !usage.iter().any(|(v, _, _)| v == var) {
            flag(
                var,
                file,
                *line,
                format!("`{var}` is read here but missing from the diag usage catalog"),
                tracker,
            );
        }
    }
    for set in [&docs, &usage] {
        let mut seen = Vec::new();
        for (var, file, line) in set {
            if seen.contains(var) || read_vars.contains(&var) {
                continue;
            }
            seen.push(var.clone());
            flag(
                var,
                file,
                *line,
                format!("`{var}` is documented here but nothing in the workspace reads it"),
                tracker,
            );
        }
    }
    Ok(diags)
}

/// Whether `s` is a well-formed env-var name (`A–Z`, `0–9`, `_`).
fn is_var_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Whether the string literal `lit` names a variable under `prefix`.
/// The bare prefix (a prefix check such as `starts_with("FIGARO_")`)
/// names none, as in [`extract_tokens`].
fn names_var(lit: &str, prefix: &str) -> bool {
    lit.len() > prefix.len() && lit.starts_with(prefix) && is_var_name(lit)
}

/// Maximal `PREFIX[A-Z0-9_]*` tokens in `text`.
fn extract_tokens(text: &str, prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(p) = text[start..].find(prefix) {
        let abs = start + p;
        // Reject mid-identifier matches (`XFIGARO_Y`).
        let boundary = abs == 0
            || !text[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let rest = &text[abs..];
        let len = rest
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_'))
            .map_or(rest.len(), |(i, _)| i);
        let tok = &rest[..len];
        if boundary && tok.len() > prefix.len() && !out.contains(&tok.to_string()) {
            out.push(tok.to_string());
        }
        start = abs + prefix.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_extraction() {
        let toks = extract_tokens(
            "| `FIGARO_KERNEL` | picks kernel | also FIGARO_SCALE. XFIGARO_NOPE",
            "FIGARO_",
        );
        assert_eq!(toks, vec!["FIGARO_KERNEL", "FIGARO_SCALE"]);
    }

    #[test]
    fn var_name_shape() {
        assert!(is_var_name("FIGARO_STATS_INTERVAL"));
        assert!(!is_var_name("FIGARO_lower"));
        assert!(!is_var_name(""));
        assert!(names_var("FIGARO_SCALE", "FIGARO_"));
        assert!(!names_var("FIGARO_", "FIGARO_"), "the bare prefix names no variable");
        assert!(!names_var("RAYON_NUM_THREADS", "FIGARO_"));
    }
}
