//! The one reader of the run-shaping `FIGARO_*` environment variables.
//!
//! Library code never consults the environment:
//! [`crate::SystemConfig::paper`], [`Runner`] and [`System`] depend only
//! on their arguments. Binaries (`diag`, the bench harness, the
//! examples, the integration-test helpers) call [`EnvConfig::from_env`]
//! once, report its `Err` and exit, and apply the parsed overrides
//! through the ordinary builders:
//! [`EnvConfig::apply`] for runners and [`EnvConfig::instrument`] for
//! telemetry and profiling. An empty value means unset. A set
//! `FIGARO_*` variable outside [`VARIABLES`] is an error, so a typo or
//! a removed knob never runs the defaults without a word.

use figaro_memctrl::SchedPolicyKind;
use figaro_telemetry::{parse_trace_spec, TelemetryConfig};
use figaro_workloads::ArrivalKind;

use crate::config::{Kernel, KERNEL_CHOICES};
use crate::runner::{Runner, Scale};
use crate::system::System;

/// Every `FIGARO_*` variable [`EnvConfig`] reads.
pub const VARIABLES: [&str; 9] = [
    "FIGARO_SCALE",
    "FIGARO_KERNEL",
    "FIGARO_SCHED",
    "FIGARO_LOAD",
    "FIGARO_FULL_SWEEPS",
    "FIGARO_STATS_INTERVAL",
    "FIGARO_TRACE",
    "FIGARO_PROFILE",
    "FIGARO_MC_ITERS",
];

/// Every run-shaping `FIGARO_*` variable, parsed. `None` / `false`
/// means unset: the library default applies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnvConfig {
    /// `FIGARO_SCALE`: `tiny` | `small` | `full`.
    pub scale: Option<Scale>,
    /// `FIGARO_KERNEL`: see [`KERNEL_CHOICES`].
    pub kernel: Option<Kernel>,
    /// `FIGARO_SCHED`: a [`SchedPolicyKind::from_name`] label.
    pub sched: Option<SchedPolicyKind>,
    /// `FIGARO_LOAD`: an [`ArrivalKind::parse`] spec.
    pub arrival: Option<ArrivalKind>,
    /// `FIGARO_FULL_SWEEPS=1`: sweep figures over the full sets.
    pub full_sweeps: bool,
    /// `FIGARO_STATS_INTERVAL` and `FIGARO_TRACE`.
    pub telemetry: TelemetryConfig,
    /// `FIGARO_PROFILE=1`: kernel self-profiling.
    pub profile: bool,
    /// `FIGARO_MC_ITERS`: iterations of the §4.2 RELOC Monte-Carlo
    /// analysis (positive).
    pub mc_iters: Option<u32>,
}

/// A variable source: `Ok(None)` for unset.
type Lookup<'a> = dyn Fn(&str) -> Result<Option<String>, String> + 'a;

/// Reads one process-environment variable.
fn lookup(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name} is not valid UTF-8")),
    }
}

/// Parses a set, non-empty value with `parse`, whose error names the
/// variable.
fn field<T>(
    get: &Lookup<'_>,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    get(name)?.filter(|raw| !raw.is_empty()).map(|raw| parse(&raw)).transpose()
}

/// Parses a set value with `parse`; `None` is an error listing `choices`.
fn choice<T>(
    get: &Lookup<'_>,
    name: &str,
    choices: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    field(get, name, |raw| {
        parse(raw).ok_or_else(|| format!("unrecognized {name} `{raw}` (use {choices})"))
    })
}

/// A `0`/`1` switch; unset is off.
fn switch(get: &Lookup<'_>, name: &str) -> Result<bool, String> {
    Ok(choice(get, name, "0 | 1", |raw| match raw {
        "1" => Some(true),
        "0" => Some(false),
        _ => None,
    })?
    .unwrap_or(false))
}

/// An error naming the first of `set` (the names of the set, non-empty
/// variables) that carries the `FIGARO_` prefix but is not one of
/// [`VARIABLES`].
fn reject_unknown<'a>(set: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
    let mut unknown: Vec<&str> =
        set.into_iter().filter(|n| n.starts_with("FIGARO_") && !VARIABLES.contains(n)).collect();
    unknown.sort_unstable();
    match unknown.first() {
        None => Ok(()),
        Some(name) => Err(format!("unknown variable {name} (known: {})", VARIABLES.join(" "))),
    }
}

/// A CPU-cycle count.
fn cycles(get: &Lookup<'_>, name: &str) -> Result<Option<u64>, String> {
    field(get, name, |raw| {
        raw.parse().map_err(|_| format!("{name} must be a CPU-cycle count, got `{raw}`"))
    })
}

impl EnvConfig {
    /// Parses the process environment.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown `FIGARO_*` variable, else the
    /// first malformed one.
    pub fn from_env() -> Result<Self, String> {
        let set: Vec<String> = std::env::vars_os()
            .filter(|(_, value)| !value.is_empty())
            .map(|(name, _)| name.to_string_lossy().into_owned())
            .collect();
        reject_unknown(set.iter().map(String::as_str))?;
        Self::parse(&lookup)
    }

    /// Parses the variables `get` returns (`Ok(None)` for unset).
    ///
    /// # Errors
    ///
    /// A message naming the first malformed variable.
    pub fn parse(get: &Lookup<'_>) -> Result<Self, String> {
        let interval = match cycles(get, "FIGARO_STATS_INTERVAL")? {
            Some(0) => return Err("FIGARO_STATS_INTERVAL must be positive".into()),
            n => n,
        };
        let trace = field(get, "FIGARO_TRACE", |raw| {
            parse_trace_spec(raw).map_err(|e| format!("bad FIGARO_TRACE `{raw}`: {e}"))
        })?;
        Ok(Self {
            scale: choice(get, "FIGARO_SCALE", "tiny|small|full", Scale::parse)?,
            kernel: choice(get, "FIGARO_KERNEL", &format!("`{KERNEL_CHOICES}`"), Kernel::parse)?,
            sched: choice(get, "FIGARO_SCHED", "frfcfs | fcfs", SchedPolicyKind::from_name)?,
            arrival: field(get, "FIGARO_LOAD", |raw| {
                ArrivalKind::parse(raw)
                    .map_err(|e| format!("unrecognized FIGARO_LOAD `{raw}`: {e}"))
            })?,
            full_sweeps: switch(get, "FIGARO_FULL_SWEEPS")?,
            telemetry: TelemetryConfig { interval, trace },
            profile: switch(get, "FIGARO_PROFILE")?,
            mc_iters: field(get, "FIGARO_MC_ITERS", |raw| {
                raw.parse().ok().filter(|&n: &u32| n > 0).ok_or_else(|| {
                    format!("FIGARO_MC_ITERS must be a positive iteration count, got `{raw}`")
                })
            })?,
        })
    }

    /// `FIGARO_SCALE`, or `default` when unset.
    #[must_use]
    pub fn scale_or(&self, default: Scale) -> Scale {
        self.scale.unwrap_or(default)
    }

    /// `runner` with every set override applied through its builders
    /// (the system overrides through its [`Runner::with_system`]
    /// template).
    #[must_use]
    pub fn apply(&self, mut runner: Runner) -> Runner {
        runner = runner.with_system(|mut system| {
            if let Some(k) = self.kernel {
                system.kernel = k;
            }
            if let Some(s) = self.sched {
                system = system.with_sched(s);
            }
            system
        });
        if let Some(a) = self.arrival {
            runner = runner.with_arrival(a);
        }
        runner.with_full_sweeps(self.full_sweeps)
    }

    /// Installs the requested telemetry and profiling on `sys`.
    pub fn instrument(&self, sys: &mut System) {
        sys.set_telemetry(&self.telemetry);
        if self.profile {
            sys.enable_profiling();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<EnvConfig, String> {
        EnvConfig::parse(&|name| {
            Ok(vars.iter().find(|(k, _)| *k == name).map(|(_, v)| (*v).to_string()))
        })
    }

    #[test]
    fn unset_and_empty_variables_keep_the_defaults() {
        assert_eq!(parse(&[]), Ok(EnvConfig::default()));
        assert_eq!(
            parse(&[("FIGARO_SCHED", ""), ("FIGARO_PROFILE", "")]),
            Ok(EnvConfig::default())
        );
    }

    #[test]
    fn every_variable_parses_its_vocabulary() {
        let vars = [
            ("FIGARO_SCALE", "Tiny"),
            ("FIGARO_KERNEL", "reference"),
            ("FIGARO_SCHED", "fcfs"),
            ("FIGARO_LOAD", "poisson:32"),
            ("FIGARO_FULL_SWEEPS", "1"),
            ("FIGARO_STATS_INTERVAL", "500"),
            ("FIGARO_TRACE", "t.json:reloc"),
            ("FIGARO_PROFILE", "1"),
            ("FIGARO_MC_ITERS", "200"),
        ];
        let mut names: Vec<&str> = vars.iter().map(|&(name, _)| name).collect();
        let mut known = VARIABLES.to_vec();
        names.sort_unstable();
        known.sort_unstable();
        assert_eq!(names, known, "VARIABLES lists exactly what parse reads");
        let env = parse(&vars).unwrap();
        assert_eq!(env.scale, Some(Scale::Tiny));
        assert_eq!(env.kernel, Some(Kernel::Reference));
        assert_eq!(env.sched, Some(SchedPolicyKind::Fcfs));
        assert_eq!(env.arrival, Some(ArrivalKind::Poisson { mean_gap: 32 }));
        assert!(env.full_sweeps && env.profile);
        assert_eq!(env.mc_iters, Some(200));
        assert_eq!(env.telemetry.interval, Some(500));
        let trace = env.telemetry.trace.as_ref().unwrap();
        assert!(trace.filter.allows("reloc") && !trace.filter.allows("drain"));

        let runner = env.apply(Runner::new(Scale::Tiny));
        assert!(runner.full_sweeps());
        // The system overrides reach every run through the template.
        let mcf = figaro_workloads::profile_by_name("mcf").unwrap();
        let spec = runner.stream_spec(crate::ConfigKind::Base, &[mcf], None);
        assert_eq!(spec.config.kernel, Kernel::Reference);
        assert_eq!(spec.config.mc.sched, SchedPolicyKind::Fcfs);
        assert_eq!(spec.arrival, Some(ArrivalKind::Poisson { mean_gap: 32 }));

        // An iteration count is positive; anything else names the variable.
        for raw in ["0", "lots"] {
            let err = parse(&[("FIGARO_MC_ITERS", raw)]).unwrap_err();
            assert!(err.contains("FIGARO_MC_ITERS") && err.contains(raw), "{err}");
        }
    }
    #[test]
    fn unknown_prefixed_names_are_errors() {
        assert_eq!(reject_unknown(VARIABLES), Ok(()));
        assert_eq!(reject_unknown(["PATH", "RAYON_NUM_THREADS"]), Ok(()));
        let typo = VARIABLES[2].replace("SCHED", "SHCED");
        let err = reject_unknown(["PATH", typo.as_str(), VARIABLES[0]]).unwrap_err();
        assert!(err.starts_with(&format!("unknown variable {typo} ")), "{err}");
        // Removed knobs: the address-mapping and page-placement choices
        // (spelled out at run time, as the typo is: a full-name literal
        // in this file would count as a read of the variable).
        for removed in ["MAP", "PAGEMAP"].map(|v| format!("FIGARO_{v}")) {
            let err = reject_unknown([removed.as_str()]).unwrap_err();
            assert!(err.starts_with(&format!("unknown variable {removed} ")), "{err}");
        }
    }
}
