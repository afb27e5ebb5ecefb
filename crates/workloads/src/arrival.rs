//! Open-loop arrival pacing for streamed sources.
//!
//! A [`TraceSource`]'s `nonmem` gaps encode how fast the *application*
//! issues memory operations — a closed loop, where a slow memory system
//! slows the injection rate with it. Service studies need the opposite:
//! an **open-loop** arrival process where the offered load is a free
//! axis, so saturation shows up as growing queues and tail latency
//! instead of a politely self-throttling core. [`ArrivalSchedule`] wraps
//! any source (generator, phased, replay, page-mapped) and replaces each
//! op's `nonmem` gap with a draw from a configured arrival process,
//! keeping the address/write stream untouched.
//!
//! With core width `w`, a gap of `g` non-memory instructions takes
//! ⌈`g`/`w`⌉ issue cycles, so the offered load is roughly
//! `w · 1000 / (g + 1)` memory ops per kilo-cycle of CPU time
//! (upper-bounded by MSHR back-pressure once the memory system
//! saturates — that back-pressure is exactly what the serving sweeps
//! measure).
//!
//! Pacing is a pure, seeded source transform: the same construction
//! yields the same op sequence, so event/reference kernel equivalence
//! holds for paced sources exactly as for raw ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{TraceOp, TraceSource};

/// An open-loop arrival process: how many non-memory instructions
/// separate consecutive memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Every op separated by exactly `gap` non-memory instructions.
    Fixed {
        /// Inter-arrival gap (non-memory instructions).
        gap: u32,
    },
    /// Exponential (memoryless) gaps with mean `mean_gap` — a Poisson
    /// arrival process in instruction time. Samples are clamped at
    /// 8× the mean like the generator's own exponential draws.
    Poisson {
        /// Mean inter-arrival gap (non-memory instructions), ≥ 1.
        mean_gap: u32,
    },
    /// On/off bursts: `burst_ops` back-to-back ops at `gap_on`, then one
    /// idle period of `gap_idle` before the next burst — the classic
    /// bursty open-loop shape whose time-average load understates its
    /// queueing impact.
    Bursty {
        /// Gap between ops inside a burst.
        gap_on: u32,
        /// Ops per burst, ≥ 1.
        burst_ops: u32,
        /// Gap preceding each burst (the off period).
        gap_idle: u32,
    },
}

impl ArrivalKind {
    /// Stable label for cache keys, reports and CSV columns.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ArrivalKind::Fixed { gap } => format!("fixed{gap}"),
            ArrivalKind::Poisson { mean_gap } => format!("poisson{mean_gap}"),
            ArrivalKind::Bursty { gap_on, burst_ops, gap_idle } => {
                format!("bursty{gap_on}x{burst_ops}i{gap_idle}")
            }
        }
    }

    /// Expected inter-arrival gap in non-memory instructions (the
    /// time-average of the process — offered load per core is roughly
    /// `width · 1000 / (mean_gap() + 1)` ops per kilo-cycle).
    #[must_use]
    pub fn mean_gap(&self) -> f64 {
        match self {
            ArrivalKind::Fixed { gap } => f64::from(*gap),
            ArrivalKind::Poisson { mean_gap } => f64::from(*mean_gap),
            ArrivalKind::Bursty { gap_on, burst_ops, gap_idle } => {
                (f64::from(*gap_on) * f64::from(burst_ops.saturating_sub(1)) + f64::from(*gap_idle))
                    / f64::from((*burst_ops).max(1))
            }
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ArrivalKind::Fixed { .. } => Ok(()),
            ArrivalKind::Poisson { mean_gap } => {
                if *mean_gap == 0 {
                    Err("poisson mean_gap must be >= 1".into())
                } else {
                    Ok(())
                }
            }
            ArrivalKind::Bursty { burst_ops, .. } => {
                if *burst_ops == 0 {
                    Err("bursty burst_ops must be >= 1".into())
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Parses the `FIGARO_LOAD` syntax: `fixed:GAP`, `poisson:MEAN_GAP`,
    /// or `bursty:GAP_ON,BURST_OPS,GAP_IDLE`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on any malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let usage = "use `fixed:GAP`, `poisson:MEAN_GAP`, or `bursty:GAP_ON,BURST_OPS,GAP_IDLE`";
        let (kind, args) = spec.split_once(':').ok_or_else(|| format!("missing `:` — {usage}"))?;
        let num =
            |s: &str| s.trim().parse::<u32>().map_err(|_| format!("bad number `{s}` — {usage}"));
        let parsed = match kind.trim().to_lowercase().as_str() {
            "fixed" => ArrivalKind::Fixed { gap: num(args)? },
            "poisson" => ArrivalKind::Poisson { mean_gap: num(args)? },
            "bursty" => {
                let parts: Vec<&str> = args.split(',').collect();
                if parts.len() != 3 {
                    return Err(format!("bursty needs 3 parameters — {usage}"));
                }
                ArrivalKind::Bursty {
                    gap_on: num(parts[0])?,
                    burst_ops: num(parts[1])?,
                    gap_idle: num(parts[2])?,
                }
            }
            other => return Err(format!("unrecognized arrival kind `{other}` — {usage}")),
        };
        parsed.validate()?;
        Ok(parsed)
    }
}

/// A [`TraceSource`] adapter that re-paces its inner source with an
/// open-loop [`ArrivalKind`] (see the module docs).
#[derive(Debug)]
pub struct ArrivalSchedule {
    inner: Box<dyn TraceSource>,
    kind: ArrivalKind,
    rng: StdRng,
    /// Ops left in the current burst (bursty kind only).
    burst_left: u32,
    name: String,
}

impl ArrivalSchedule {
    /// Wraps `inner`, replacing each op's `nonmem` gap with a draw from
    /// `kind` (seeded, deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `kind` fails [`ArrivalKind::validate`].
    #[must_use]
    pub fn new(inner: Box<dyn TraceSource>, kind: ArrivalKind, seed: u64) -> Self {
        kind.validate().expect("arrival kind must validate");
        let name = format!("{}+{}", inner.name(), kind.label());
        Self { inner, kind, rng: StdRng::seed_from_u64(seed), burst_left: 0, name }
    }

    /// The arrival process this schedule applies.
    #[must_use]
    pub fn kind(&self) -> ArrivalKind {
        self.kind
    }

    fn sample_gap(&mut self) -> u32 {
        match self.kind {
            ArrivalKind::Fixed { gap } => gap,
            ArrivalKind::Poisson { mean_gap } => {
                let mean = f64::from(mean_gap);
                let u: f64 = self.rng.gen_range(1e-9..1.0);
                let v = -mean * u.ln();
                v.min(mean * 8.0) as u32
            }
            ArrivalKind::Bursty { gap_on, burst_ops, gap_idle } => {
                if self.burst_left == 0 {
                    self.burst_left = burst_ops - 1;
                    gap_idle
                } else {
                    self.burst_left -= 1;
                    gap_on
                }
            }
        }
    }
}

impl TraceSource for ArrivalSchedule {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_op(&mut self) -> TraceOp {
        let op = self.inner.next_op();
        TraceOp { nonmem: self.sample_gap(), ..op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profile_by_name, TraceGenerator};

    fn paced(kind: ArrivalKind, seed: u64) -> ArrivalSchedule {
        let inner = TraceGenerator::new(&profile_by_name("mcf").unwrap(), 7);
        ArrivalSchedule::new(Box::new(inner), kind, seed)
    }

    #[test]
    fn pacing_preserves_the_address_stream() {
        let mut raw = TraceGenerator::new(&profile_by_name("mcf").unwrap(), 7);
        let mut fixed = paced(ArrivalKind::Fixed { gap: 10 }, 1);
        for _ in 0..5_000 {
            let a = raw.next().unwrap();
            let b = fixed.next_op();
            assert_eq!((a.addr, a.is_write), (b.addr, b.is_write));
            assert_eq!(b.nonmem, 10);
        }
    }

    #[test]
    fn pacing_is_deterministic_per_seed() {
        let collect = |seed| -> Vec<TraceOp> {
            let mut s = paced(ArrivalKind::Poisson { mean_gap: 16 }, seed);
            (0..2_000).map(|_| s.next_op()).collect()
        };
        assert_eq!(collect(3), collect(3));
        assert_ne!(
            collect(3).iter().map(|o| o.nonmem).collect::<Vec<_>>(),
            collect(4).iter().map(|o| o.nonmem).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn poisson_mean_tracks_the_parameter() {
        let mut s = paced(ArrivalKind::Poisson { mean_gap: 32 }, 11);
        let n = 50_000;
        let mean = (0..n).map(|_| f64::from(s.next_op().nonmem)).sum::<f64>() / f64::from(n);
        assert!((mean - 32.0).abs() / 32.0 < 0.1, "mean gap {mean} vs 32");
    }

    #[test]
    fn bursty_alternates_on_and_idle_gaps() {
        let kind = ArrivalKind::Bursty { gap_on: 0, burst_ops: 4, gap_idle: 100 };
        let mut s = paced(kind, 5);
        let gaps: Vec<u32> = (0..12).map(|_| s.next_op().nonmem).collect();
        assert_eq!(gaps, vec![100, 0, 0, 0, 100, 0, 0, 0, 100, 0, 0, 0]);
    }

    #[test]
    fn labels_and_parse_round_trip() {
        for kind in [
            ArrivalKind::Fixed { gap: 8 },
            ArrivalKind::Poisson { mean_gap: 64 },
            ArrivalKind::Bursty { gap_on: 2, burst_ops: 16, gap_idle: 4096 },
        ] {
            let spec = match kind {
                ArrivalKind::Fixed { gap } => format!("fixed:{gap}"),
                ArrivalKind::Poisson { mean_gap } => format!("poisson:{mean_gap}"),
                ArrivalKind::Bursty { gap_on, burst_ops, gap_idle } => {
                    format!("bursty:{gap_on},{burst_ops},{gap_idle}")
                }
            };
            assert_eq!(ArrivalKind::parse(&spec), Ok(kind), "{spec}");
        }
        assert!(ArrivalKind::parse("poisson:0").is_err(), "zero mean must be rejected");
        assert!(ArrivalKind::parse("bursty:1,0,1").is_err(), "empty burst must be rejected");
        assert!(ArrivalKind::parse("warp:9").is_err());
        assert!(ArrivalKind::parse("fixed").is_err());
    }

    #[test]
    fn schedule_name_composes_inner_and_kind() {
        let s = paced(ArrivalKind::Fixed { gap: 3 }, 0);
        assert_eq!(s.name(), "mcf+fixed3");
    }
}
