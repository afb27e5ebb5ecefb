//! The one reader of the run-shaping `FIGARO_*` environment variables.
//!
//! Library code never consults the environment:
//! [`crate::SystemConfig::paper`], [`Runner`] and [`System`] depend only
//! on their arguments. Binaries (`diag`, the bench harness, the
//! examples, the integration-test helpers) call [`EnvConfig::from_env`]
//! once, report its `Err` and exit, and apply the parsed overrides
//! through the ordinary builders:
//! [`EnvConfig::apply`] for runners and [`EnvConfig::instrument`] for
//! telemetry and profiling. An empty value means unset.

use std::path::PathBuf;

use figaro_dram::MapKind;
use figaro_memctrl::SchedPolicyKind;
use figaro_telemetry::{parse_trace_spec, TelemetryConfig};
use figaro_workloads::{ArrivalKind, PageMapKind};

use crate::config::{Kernel, KERNEL_CHOICES};
use crate::runner::{Runner, Scale};
use crate::system::System;

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
    /// `FIGARO_MAP`: a [`MapKind::from_name`] label.
    pub map: Option<MapKind>,
    /// `FIGARO_PAGEMAP`: a [`PageMapKind::from_name`] label.
    pub page_map: Option<PageMapKind>,
    /// `FIGARO_LOAD`: an [`ArrivalKind::parse`] spec.
    pub arrival: Option<ArrivalKind>,
    /// `FIGARO_WARMUP`: warm-start CPU cycles (`0` means cold).
    pub warmup: Option<u64>,
    /// `FIGARO_SNAPSHOT_DIR`: where FGSN warm-state snapshots live.
    pub snapshot_dir: Option<PathBuf>,
    /// `FIGARO_FULL_SWEEPS=1`: sweep figures over the full sets.
    pub full_sweeps: bool,
    /// `FIGARO_STATS_INTERVAL` and `FIGARO_TRACE`.
    pub telemetry: TelemetryConfig,
    /// `FIGARO_PROFILE=1`: kernel self-profiling.
    pub profile: bool,
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
    /// A message naming the first malformed variable.
    pub fn from_env() -> Result<Self, String> {
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
            sched: choice(
                get,
                "FIGARO_SCHED",
                "frfcfs | fcfs | frfcfs-cap<N> | wdrain<H>-<L>",
                SchedPolicyKind::from_name,
            )?,
            map: choice(
                get,
                "FIGARO_MAP",
                "paper | chfirst | rowint, optionally with an -xor suffix",
                MapKind::from_name,
            )?,
            page_map: choice(
                get,
                "FIGARO_PAGEMAP",
                "ident | rand<seed> | color<N>, N a power of two",
                PageMapKind::from_name,
            )?,
            arrival: field(get, "FIGARO_LOAD", |raw| {
                ArrivalKind::parse(raw)
                    .map_err(|e| format!("unrecognized FIGARO_LOAD `{raw}`: {e}"))
            })?,
            warmup: cycles(get, "FIGARO_WARMUP")?.filter(|&w| w > 0),
            snapshot_dir: field(get, "FIGARO_SNAPSHOT_DIR", |raw| Ok(PathBuf::from(raw)))?,
            full_sweeps: switch(get, "FIGARO_FULL_SWEEPS")?,
            telemetry: TelemetryConfig { interval, trace },
            profile: switch(get, "FIGARO_PROFILE")?,
        })
    }

    /// `FIGARO_SCALE`, or `default` when unset.
    #[must_use]
    pub fn scale_or(&self, default: Scale) -> Scale {
        self.scale.unwrap_or(default)
    }

    /// `runner` with every set override applied through its builders.
    #[must_use]
    pub fn apply(&self, mut runner: Runner) -> Runner {
        if let Some(k) = self.kernel {
            runner = runner.with_kernel(k);
        }
        if let Some(s) = self.sched {
            runner = runner.with_sched(s);
        }
        if let Some(m) = self.map {
            runner = runner.with_mapping(m);
        }
        if let Some(p) = self.page_map {
            runner = runner.with_page_map(p);
        }
        if let Some(a) = self.arrival {
            runner = runner.with_arrival(a);
        }
        if let Some(w) = self.warmup {
            runner = runner.with_warmup(w);
        }
        if let Some(d) = &self.snapshot_dir {
            runner = runner.with_snapshot_dir(d.clone());
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
        let env = parse(&[
            ("FIGARO_SCALE", "Tiny"),
            ("FIGARO_KERNEL", "sampled:10,20"),
            ("FIGARO_SCHED", "fcfs"),
            ("FIGARO_MAP", "chfirst"),
            ("FIGARO_PAGEMAP", "rand7"),
            ("FIGARO_LOAD", "poisson:32"),
            ("FIGARO_WARMUP", "0"),
            ("FIGARO_SNAPSHOT_DIR", "snaps"),
            ("FIGARO_FULL_SWEEPS", "1"),
            ("FIGARO_STATS_INTERVAL", "500"),
            ("FIGARO_TRACE", "t.json:reloc"),
            ("FIGARO_PROFILE", "1"),
        ])
        .unwrap();
        assert_eq!(env.scale, Some(Scale::Tiny));
        assert_eq!(env.kernel, Some(Kernel::Sampled { window: 10, skip: 20 }));
        assert_eq!(env.sched, Some(SchedPolicyKind::Fcfs));
        assert_eq!(env.map, MapKind::from_name("chfirst"));
        assert_eq!(env.page_map, Some(PageMapKind::Random { seed: 7 }));
        assert_eq!(env.arrival, Some(ArrivalKind::Poisson { mean_gap: 32 }));
        assert_eq!(env.warmup, None, "a zero warmup runs cold");
        assert_eq!(env.snapshot_dir, Some(PathBuf::from("snaps")));
        assert!(env.full_sweeps && env.profile);
        assert_eq!(env.telemetry.interval, Some(500));
        let trace = env.telemetry.trace.as_ref().unwrap();
        assert!(trace.filter.allows("reloc") && !trace.filter.allows("drain"));

        let runner = env.apply(Runner::uncached(Scale::Tiny));
        assert!(runner.full_sweeps());
    }
}
