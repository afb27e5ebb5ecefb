//! Per-benchmark trace profiles modelling the paper's Table 2 suite.
//!
//! Parameters are chosen so each application lands in the paper's
//! intensity class (>10 or <10 LLC misses per kilo-instruction on the
//! simulated hierarchy) and exhibits the row-buffer locality the paper's
//! motivation describes (only a small part of each opened row is touched).

/// Tuning knobs of one synthetic application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Benchmark name the profile models.
    pub name: &'static str,
    /// Expected classification (paper Table 2).
    pub memory_intensive: bool,
    /// Mean non-memory instructions between memory operations.
    pub nonmem_per_mem: f64,
    /// Total bytes the trace may touch.
    pub footprint_bytes: u64,
    /// Probability an access targets the hot set (vs streaming/cold).
    pub hot_fraction: f64,
    /// Number of hot row segments (each lives in its own 8 kB page/row).
    pub hot_segments: u32,
    /// Bytes of hot data within each hot page (the "row segment" that
    /// FIGCache would want to cache; the rest of the row stays cold).
    pub hot_segment_bytes: u32,
    /// Mean consecutive blocks touched per hot-segment visit
    /// (row-buffer locality within the segment).
    pub hot_burst: f64,
    /// Mean consecutive blocks touched per streaming visit.
    pub stream_burst: f64,
    /// Fraction of memory operations that are stores.
    pub write_frac: f64,
    /// Number of hot segments active in one phase (temporal clustering;
    /// RowBenefit exploits this).
    pub phase_segments: u32,
    /// Memory operations per phase before the active set is redrawn.
    pub phase_len_ops: u32,
    /// Zipf exponent of segment popularity within a phase: at least 0
    /// (0 is uniform).
    pub zipf_exponent: f64,
    /// Mean number of segments touched per *group* visit. Hot segments
    /// form groups of eight whose pages share a DRAM bank; a group visit
    /// walks several of them back to back — the correlated accesses to
    /// small fragments of different rows that the paper's Section 5.1
    /// replacement policy is designed to co-locate.
    pub group_span: f64,
}

impl AppProfile {
    /// Sanity-checks the profile's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (field, value) in [
            ("nonmem_per_mem", self.nonmem_per_mem),
            ("hot_burst", self.hot_burst),
            ("stream_burst", self.stream_burst),
            ("zipf_exponent", self.zipf_exponent),
            ("group_span", self.group_span),
        ] {
            if !value.is_finite() {
                return Err(format!("{}: {field} is not finite", self.name));
            }
        }
        if !(0.0..=1.0).contains(&self.hot_fraction) {
            return Err(format!("{}: hot_fraction out of range", self.name));
        }
        if !(0.0..=1.0).contains(&self.write_frac) {
            return Err(format!("{}: write_frac out of range", self.name));
        }
        if self.hot_segments == 0 || self.phase_segments == 0 || self.phase_len_ops == 0 {
            return Err(format!("{}: zero-sized hot set or phase", self.name));
        }
        if self.phase_segments > self.hot_segments {
            return Err(format!("{}: phase larger than hot set", self.name));
        }
        if u64::from(self.hot_segments) * 8192 > self.footprint_bytes {
            return Err(format!("{}: hot pages exceed footprint", self.name));
        }
        if !(64..=8192).contains(&self.hot_segment_bytes) {
            return Err(format!(
                "{}: hot_segment_bytes out of range [64, 8192] (one block to one page)",
                self.name
            ));
        }
        if self.nonmem_per_mem < 0.0 {
            return Err(format!("{}: negative nonmem_per_mem", self.name));
        }
        // Below zero, `k.powf(s)` underflows for large `k`, the weights
        // turn infinite and the CDF degenerates to NaN casts (zeros).
        if self.zipf_exponent < 0.0 {
            return Err(format!("{}: negative zipf_exponent", self.name));
        }
        if !self.hot_segments.is_multiple_of(8) || !self.phase_segments.is_multiple_of(8) {
            return Err(format!(
                "{}: hot/phase segments must be multiples of the group size (8)",
                self.name
            ));
        }
        if self.group_span < 1.0 || self.group_span > 8.0 {
            return Err(format!("{}: group_span out of range [1, 8]", self.name));
        }
        let pages = self.footprint_bytes / 8192;
        let groups = u64::from(self.hot_segments / 8);
        let classes = groups.div_ceil(64).max(1);
        if pages / 64 < classes * 8 {
            return Err(format!(
                "{}: footprint too small for same-bank group placement",
                self.name
            ));
        }
        Ok(())
    }
}

const MB: u64 = 1 << 20;

/// A memory-intensive profile template; `f(...)` args override the defaults.
#[allow(clippy::too_many_arguments)]
const fn intensive(
    name: &'static str,
    nonmem: f64,
    footprint_mb: u64,
    hot_fraction: f64,
    hot_segments: u32,
    hot_segment_bytes: u32,
    hot_burst: f64,
    stream_burst: f64,
    write_frac: f64,
    phase_segments: u32,
    group_span: f64,
) -> AppProfile {
    AppProfile {
        name,
        memory_intensive: true,
        nonmem_per_mem: nonmem,
        footprint_bytes: footprint_mb * MB,
        hot_fraction,
        hot_segments,
        hot_segment_bytes,
        hot_burst,
        stream_burst,
        write_frac,
        phase_segments,
        phase_len_ops: 60_000,
        zipf_exponent: 0.8,
        group_span,
    }
}

#[allow(clippy::too_many_arguments)]
const fn light(
    name: &'static str,
    nonmem: f64,
    footprint_mb: u64,
    hot_fraction: f64,
    hot_segments: u32,
    hot_segment_bytes: u32,
    hot_burst: f64,
    stream_burst: f64,
    write_frac: f64,
    group_span: f64,
) -> AppProfile {
    AppProfile {
        name,
        memory_intensive: false,
        nonmem_per_mem: nonmem,
        footprint_bytes: footprint_mb * MB,
        hot_fraction,
        hot_segments,
        hot_segment_bytes,
        hot_burst,
        stream_burst,
        write_frac,
        phase_segments: hot_segments,
        phase_len_ops: 40_000,
        zipf_exponent: 1.1,
        group_span,
    }
}

/// The twenty single-core profiles of paper Table 2.
///
/// Memory-intensive applications have low instruction counts per access,
/// hot sets well beyond the 2 MB/core LLC, and short row bursts; the
/// non-intensive ones are largely cache-resident.
#[must_use]
pub fn app_profiles() -> Vec<AppProfile> {
    vec![
        // --- memory intensive (paper: zeusmp, leslie3d, mcf, GemsFDTD,
        //     libquantum, bwaves, lbm, com, tigr, mum) ---
        // zeusmp: CFD stencil, moderate bursts, sizable hot working set.
        intensive("zeusmp", 9.0, 512, 0.70, 7168, 1024, 3.0, 4.0, 0.30, 4608, 3.5),
        // leslie3d: stencil with slightly better spatial locality.
        intensive("leslie3d", 9.5, 384, 0.72, 6144, 1024, 3.5, 5.0, 0.28, 4096, 4.0),
        // mcf: pointer chasing, near-random single-block visits.
        intensive("mcf", 7.0, 768, 0.65, 9216, 512, 1.2, 1.5, 0.20, 6144, 3.0),
        // GemsFDTD: large grids, phase-heavy.
        intensive("GemsFDTD", 9.0, 640, 0.68, 7168, 1024, 2.8, 4.0, 0.32, 4608, 3.5),
        // libquantum: streaming over a large vector, little reuse.
        intensive("libquantum", 8.0, 256, 0.25, 4096, 2048, 4.0, 10.0, 0.25, 2048, 1.5),
        // bwaves: blocked solver.
        intensive("bwaves", 9.5, 512, 0.70, 6656, 1024, 3.0, 5.0, 0.30, 4096, 3.5),
        // lbm: lattice-Boltzmann, write-heavy streaming + hot cells.
        intensive("lbm", 8.0, 512, 0.55, 6144, 1024, 2.5, 6.0, 0.45, 4096, 3.0),
        // com (MSC commercial trace): transactional, scattered small reads.
        intensive("com", 7.5, 896, 0.66, 9216, 512, 1.5, 2.0, 0.35, 6144, 2.5),
        // tigr (BioBench): genome assembly, irregular with hot index.
        intensive("tigr", 7.5, 640, 0.68, 8192, 512, 1.4, 2.0, 0.22, 5632, 3.0),
        // mum (BioBench): suffix-tree matching, irregular.
        intensive("mum", 7.5, 640, 0.66, 8192, 512, 1.3, 2.0, 0.20, 5632, 3.0),
        // --- memory non-intensive (h264ref, bzip2, gromacs, gcc, bfssandy,
        //     grep, wc-8443, sjeng, tpcc64, tpch2) ---
        light("h264ref", 18.0, 24, 0.965, 1536, 512, 6.0, 8.0, 0.30, 2.5),
        light("bzip2", 16.0, 32, 0.960, 1536, 512, 5.0, 8.0, 0.35, 2.5),
        light("gromacs", 22.0, 16, 0.970, 1024, 512, 4.0, 6.0, 0.28, 2.0),
        light("gcc", 14.0, 48, 0.955, 2048, 512, 3.0, 4.0, 0.32, 2.5),
        light("bfssandy", 10.0, 96, 0.962, 1280, 512, 1.5, 2.0, 0.15, 2.0),
        light("grep", 15.0, 40, 0.955, 1536, 512, 6.0, 10.0, 0.10, 2.0),
        light("wc-8443", 17.0, 24, 0.960, 1536, 512, 6.0, 10.0, 0.12, 2.0),
        light("sjeng", 24.0, 12, 0.970, 1024, 512, 2.0, 3.0, 0.25, 2.0),
        light("tpcc64", 11.0, 112, 0.965, 1536, 512, 1.5, 2.0, 0.40, 2.5),
        light("tpch2", 12.0, 96, 0.968, 1536, 512, 2.5, 6.0, 0.15, 3.0),
    ]
}

/// Profiles for the paper's multithreaded workloads (canneal,
/// fluidanimate, radix); every thread of a run shares one footprint, so
/// mixes built from one of these model one parallel program.
#[must_use]
pub fn multithreaded_profiles() -> Vec<AppProfile> {
    vec![
        // canneal: random exchanges over a huge netlist.
        intensive("canneal", 8.0, 768, 0.60, 9216, 512, 1.3, 1.5, 0.30, 6144, 2.5),
        // fluidanimate: partitioned grid, decent locality.
        intensive("fluidanimate", 9.5, 384, 0.72, 6144, 1024, 3.0, 4.0, 0.35, 4096, 3.5),
        // radix: streaming counting sort with hot histogram.
        intensive("radix", 8.5, 512, 0.45, 6144, 1024, 2.0, 8.0, 0.40, 4096, 2.0),
    ]
}

/// Finds a profile by benchmark name (single-core or multithreaded).
#[must_use]
pub fn profile_by_name(name: &str) -> Option<AppProfile> {
    app_profiles().into_iter().chain(multithreaded_profiles()).find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_profiles_ten_per_class() {
        let apps = app_profiles();
        assert_eq!(apps.len(), 20);
        assert_eq!(apps.iter().filter(|a| a.memory_intensive).count(), 10);
    }

    #[test]
    fn all_profiles_validate() {
        for p in app_profiles().iter().chain(multithreaded_profiles().iter()) {
            p.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = app_profiles().iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn intensive_profiles_have_big_hot_sets() {
        for p in app_profiles() {
            let hot_bytes = u64::from(p.hot_segments) * u64::from(p.hot_segment_bytes);
            if p.memory_intensive {
                // Hot set must exceed a 2 MB single-core LLC to generate
                // DRAM-level reuse.
                assert!(hot_bytes > 2 * MB, "{} hot set too small", p.name);
            } else {
                assert!(hot_bytes <= 2 * MB, "{} hot set too large", p.name);
            }
        }
    }

    #[test]
    fn a_hot_segment_holds_at_least_one_block() {
        let gcc = profile_by_name("gcc").unwrap();
        for bytes in [0, 1, 32, 63] {
            let err = AppProfile { hot_segment_bytes: bytes, ..gcc }.validate().unwrap_err();
            assert!(err.contains("hot_segment_bytes"), "{bytes}: {err}");
        }
        // The smallest valid segment, one block, generates.
        let one_block = AppProfile { hot_segment_bytes: 64, ..gcc };
        one_block.validate().unwrap();
        let trace = crate::generate_trace(&one_block, 2_000, 1);
        assert!(trace.ops.iter().all(|op| op.addr < one_block.footprint_bytes));
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        type Field = fn(&mut AppProfile) -> &mut f64;
        let gcc = profile_by_name("gcc").unwrap();
        let fields: [(&str, Field); 5] = [
            ("nonmem_per_mem", |p| &mut p.nonmem_per_mem),
            ("hot_burst", |p| &mut p.hot_burst),
            ("stream_burst", |p| &mut p.stream_burst),
            ("zipf_exponent", |p| &mut p.zipf_exponent),
            ("group_span", |p| &mut p.group_span),
        ];
        for (field, at) in fields {
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut p = gcc;
                *at(&mut p) = value;
                let err = p.validate().unwrap_err();
                assert!(err.contains(field), "{field} = {value}: {err}");
            }
        }
    }

    #[test]
    fn a_negative_zipf_exponent_is_rejected() {
        let gcc = profile_by_name("gcc").unwrap();
        for value in [-1.0, -2000.0] {
            let err = AppProfile { zipf_exponent: value, ..gcc }.validate().unwrap_err();
            assert!(err.contains("zipf_exponent"), "{value}: {err}");
        }
        assert_eq!(AppProfile { zipf_exponent: 0.0, ..gcc }.validate(), Ok(()));
    }

    #[test]
    fn lookup_by_name_works() {
        assert!(profile_by_name("mcf").is_some());
        assert!(profile_by_name("canneal").is_some());
        assert!(profile_by_name("nonexistent").is_none());
    }
}
