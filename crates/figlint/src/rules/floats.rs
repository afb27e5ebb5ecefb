//! FIG003 — lossless floats: cache-key/serialization functions must not
//! format floats with `{}` / `{:?}`.
//!
//! The PR-6 bug class: `{}` (and `{:?}`) print the *shortest* decimal
//! that round-trips, so two different `f64`s can share a display string
//! under truncating format specs, and hand-rolled parsing of the
//! display form loses ULPs. Inside the result cache that turns into
//! silent cross-config collisions. The workspace convention is the
//! bit-pattern form — `b<hex>` via `f64_text` / `.to_bits()` — which is
//! exact by construction.
//!
//! The rule knows two things from `figlint.toml`:
//!
//! * `[floats] float_structs` — `"path: Struct"` entries whose `f32` /
//!   `f64` (incl. `Vec<f64>`) fields are the values at risk;
//! * `[floats] scopes` — names of serialization/key functions where the
//!   convention is mandatory (`to_text`, `from_text`, …).
//!
//! Inside a scope function, a formatting-macro line that mentions a
//! float field (as an argument or as a `{field}` inline placeholder) or
//! casts with `as f64` / `as f32` must also contain one of the
//! `[floats] sanitizers` tokens (`f64_text`, `to_bits`, …); otherwise
//! it is flagged. Everything outside the configured scopes — logs,
//! human-facing tables — may format floats freely.

use crate::rules::AllowTracker;
use crate::scan::{contains_word, SourceFile};
use crate::{Diagnostic, Workspace};

/// Formatting macros the rule inspects.
const FORMAT_MACROS: &[&str] =
    &["format!(", "write!(", "writeln!(", "print!(", "println!(", "eprint!(", "eprintln!("];

/// Runs FIG003 over the workspace.
pub fn run(ws: &Workspace, tracker: &mut AllowTracker) -> Result<Vec<Diagnostic>, String> {
    let scopes = ws.config.strings("floats.scopes");
    let sanitizers = ws.config.strings("floats.sanitizers");
    tracker.register("floats", ws.config.allow("floats")?);
    let float_fields = collect_float_fields(ws)?;
    let mut diags = Vec::new();
    for file in &ws.files {
        for (i, code) in file.code_lines.iter().enumerate() {
            let line = i + 1;
            if file.is_test_line(line) {
                continue;
            }
            let Some(f) = file.fn_at(line) else { continue };
            if !scopes.iter().any(|s| s == &f.name) {
                continue;
            }
            if !FORMAT_MACROS.iter().any(|m| code.contains(m)) {
                continue;
            }
            if sanitizers.iter().any(|s| code.contains(s.as_str())) {
                continue;
            }
            let mut mention: Option<String> = None;
            for field in &float_fields {
                if contains_word(code, field) {
                    mention = Some(format!("float field `{field}`"));
                    break;
                }
                // `{field}` / `{field:?}` inline placeholders live in the
                // (blanked) string literal, not the code line.
                for lit in file.strings_on(line) {
                    if lit.text.contains(&format!("{{{field}}}"))
                        || lit.text.contains(&format!("{{{field}:"))
                    {
                        mention = Some(format!("float field `{field}` (inline placeholder)"));
                        break;
                    }
                }
                if mention.is_some() {
                    break;
                }
            }
            if mention.is_none() && (code.contains("as f64") || code.contains("as f32")) {
                mention = Some("a float cast".to_string());
            }
            let Some(what) = mention else { continue };
            if tracker.allows("floats", &file.rel_path, code, Some(&f.name)) {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line,
                rule: "FIG003",
                message: format!(
                    "lossy float formatting of {what} in serialization/key fn `{}` — use the \
                     bit-pattern convention (`f64_text` / `.to_bits()` → `b<hex>`), not \
                     `{{}}`/`{{:?}}` (PR-6 bug class)",
                    f.name
                ),
            });
        }
    }
    Ok(diags)
}

/// Names of `f32`/`f64`-typed fields of the configured structs.
fn collect_float_fields(ws: &Workspace) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    for spec in ws.config.strings("floats.float_structs") {
        let Some((path, name)) = spec.split_once(": ") else {
            return Err(format!(
                "figlint.toml: [floats] float_structs entry `{spec}` must be `\"path: Struct\"`"
            ));
        };
        let Some(file) = ws.file(path.trim()) else {
            return Err(format!("figlint.toml: [floats] float_structs: no such file `{path}`"));
        };
        for (fname, ftype) in struct_fields(file, name.trim())? {
            if (contains_word(&ftype, "f64") || contains_word(&ftype, "f32"))
                && !fields.contains(&fname)
            {
                fields.push(fname);
            }
        }
    }
    Ok(fields)
}

/// `(name, type)` for each named field of `struct_name` in `file`.
/// Errors when the struct is not found.
fn struct_fields(file: &SourceFile, struct_name: &str) -> Result<Vec<(String, String)>, String> {
    let decl = file
        .code_lines
        .iter()
        .position(|c| {
            contains_word(c, "struct") && contains_word(c, struct_name) && !c.contains("impl")
        })
        .ok_or_else(|| format!("figlint.toml: no `struct {struct_name}` in `{}`", file.rel_path))?;
    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut opened = false;
    for code in file.code_lines.iter().skip(decl) {
        if opened && depth == 1 {
            let t = code.trim();
            let t = t.strip_prefix("pub ").unwrap_or(t);
            if let Some((name, ty)) = t.split_once(':') {
                let name = name.trim();
                if !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                {
                    fields.push((name.to_string(), ty.trim().to_string()));
                }
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if opened && depth == 0 {
            break;
        }
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_struct_fields() {
        let src = "\
/// Doc.\n\
pub struct Cfg {\n\
    /// Cores.\n\
    pub cores: usize,\n\
    pub sched: Sched, // which\n\
    limits: Vec<f64>,\n\
}\n\
pub struct Other { pub x: u8 }\n";
        let f = SourceFile::lex("a.rs", src);
        let fields = struct_fields(&f, "Cfg").unwrap();
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["cores", "sched", "limits"]);
        assert!(fields[2].1.contains("f64"));
        assert!(struct_fields(&f, "Missing").is_err());
    }
}
