//! FGSN v4 — serializable warm-state snapshots.
//!
//! A snapshot captures the *full* live state of a [`System`] between
//! `run` calls — core pipelines and trace-source positions, cache
//! hierarchy (MSHRs, tags, latency histograms), per-channel controller
//! queues, bank timing, scheduler and relocation-engine state — so a
//! warmed-up system can be written to disk once and resumed by every
//! sweep point sharing the same warmup prefix.
//!
//! ## Format
//!
//! FGSN reuses the FIGT varint machinery from `figaro_workloads`
//! ([`write_varint`] / [`read_varint`]); every integer below is a
//! LEB128-style varint unless noted:
//!
//! ```text
//! magic    b"FGSN"                       (4 raw bytes)
//! version  format version (currently 4)
//! hash     config hash of the producing SystemConfig
//! cycle    CPU cycle the snapshot was taken at
//! n_cores  then per core: ops_pulled, window_len
//! n_shards then per shard: read_queue, write_queue, backlog
//! n_words  payload length, then the payload words
//! checksum FNV-1a of every byte above     (8 raw bytes, little-endian)
//! ```
//!
//! The header is self-contained (readable without touching the payload —
//! `figaro diag snapshot` prints exactly it). The payload is the word
//! stream produced by the component crates' `save_state` convention:
//! floats cross as `to_bits`, hash maps are walked in sorted-key order,
//! so identical states produce identical bytes. A restore verifies the
//! checksum before loading any state, so a corrupt file is an error,
//! never a panic or a silently different run.
//!
//! ## Config hash
//!
//! [`config_hash`] fingerprints the producing [`SystemConfig`] so a
//! snapshot only resumes under the configuration that made it — resuming
//! under anything else would silently produce a run that matches nothing.
//! The kernel is normalized out of the hash: all exact kernels produce
//! bit-identical state, so a snapshot taken under one is valid under any
//! other (and is what lets a warm snapshot serve a whole sweep
//! regardless of the kernel each point runs).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use figaro_workloads::{read_varint, write_varint};

use crate::config::{Kernel, SystemConfig};
use crate::system::System;

/// The four magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"FGSN";

/// Current format version, bumped on any layout change.
/// History: 2 added the controller's queue-occupancy peak counters
/// (`read_q_peak`/`write_q_peak`) to the `McStats` payload; 3 appended
/// the FNV-1a checksum of the header and payload bytes; 4 gave LISA-VILLA
/// FIGCache's engine payload (it became a FIGCache preset: in-flight
/// records carry purpose and block count, miss counters are keyed by
/// segment).
pub const FORMAT_VERSION: u64 = 4;

/// Fingerprint of the configuration that may resume a snapshot.
///
/// FNV-1a over the config's `Debug` rendering, with the kernel
/// normalized out (exact kernels are bit-identical — see the
/// kernel-equivalence suite in `system.rs`) and the ignored `threads`
/// field zeroed, so hashes match those of snapshots written while it was
/// still a worker-count knob.
#[must_use]
pub fn config_hash(cfg: &SystemConfig) -> u64 {
    let mut normalized = cfg.clone();
    normalized.kernel = Kernel::Event;
    normalized.threads = 0;
    fnv1a(format!("{normalized:?}").as_bytes())
}

/// FNV-1a of an arbitrary key string — the runner names result-cache
/// and warm-snapshot files by it (see [`crate::RunSpec::key`]).
#[must_use]
pub fn key_hash(key: &str) -> u64 {
    fnv1a(key.as_bytes())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds every byte read through it into FNV-1a, so the trailing
/// checksum covers exactly the bytes the parser consumed.
struct Checksummed<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> Read for Checksummed<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash = fnv1a_extend(self.hash, &buf[..n]);
        Ok(n)
    }
}

/// Per-core occupancy summary carried in the header (diagnostics only —
/// the authoritative state lives in the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSummary {
    /// Operations pulled from the trace source so far.
    pub ops_pulled: u64,
    /// Instruction-window occupancy at save time.
    pub window_len: u64,
}

/// Per-channel occupancy summary carried in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    /// Controller read-queue occupancy.
    pub read_queue: u64,
    /// Controller write-queue occupancy.
    pub write_queue: u64,
    /// Requests parked in the shard's overflow backlog.
    pub backlog: u64,
}

/// Everything the FGSN header records; [`read_header`] parses it without
/// touching the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version (currently [`FORMAT_VERSION`]).
    pub version: u64,
    /// [`config_hash`] of the producing configuration.
    pub config_hash: u64,
    /// CPU cycle the snapshot was taken at.
    pub cpu_cycle: u64,
    /// Per-core occupancy summaries.
    pub cores: Vec<CoreSummary>,
    /// Per-channel occupancy summaries.
    pub shards: Vec<ShardSummary>,
    /// Payload length in words.
    pub payload_words: u64,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// Reads one varint, treating EOF as corruption (FGSN fields are never
/// optional).
fn need<R: Read>(r: &mut R, what: &str) -> io::Result<u64> {
    match read_varint(r)? {
        Some(v) => Ok(v),
        None => Err(bad(&format!("snapshot truncated reading {what}"))),
    }
}

/// Serializes `sys` as an FGSN snapshot.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn save_to_writer<W: Write>(sys: &System, w: &mut W) -> io::Result<()> {
    let mut b = MAGIC.to_vec();
    write_varint(&mut b, FORMAT_VERSION)?;
    write_varint(&mut b, config_hash(sys.config()))?;
    write_varint(&mut b, sys.cpu_cycle())?;
    write_varint(&mut b, sys.cores.len() as u64)?;
    for core in &sys.cores {
        write_varint(&mut b, core.ops_pulled())?;
        write_varint(&mut b, core.window_len() as u64)?;
    }
    write_varint(&mut b, sys.shards.len() as u64)?;
    for sh in &sys.shards {
        let (rq, wq, backlog) = sh.occupancy();
        write_varint(&mut b, rq)?;
        write_varint(&mut b, wq)?;
        write_varint(&mut b, backlog)?;
    }
    let mut words = Vec::new();
    sys.save_state(&mut words);
    write_varint(&mut b, words.len() as u64)?;
    for &word in &words {
        write_varint(&mut b, word)?;
    }
    w.write_all(&b)?;
    w.write_all(&fnv1a(&b).to_le_bytes())
}

/// Writes `sys` to `path` atomically (temp file + rename), so a
/// concurrent reader — another sweep process sharing the snapshot dir —
/// never observes a half-written snapshot.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(sys: &System, path: &Path) -> io::Result<()> {
    let tmp = path.with_extension("fgsn.tmp");
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        save_to_writer(sys, &mut w)?;
        w.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Parses an FGSN header, leaving `r` positioned at the first payload
/// word.
///
/// # Errors
///
/// `InvalidData` on a bad magic, unsupported version or truncation.
pub fn read_header<R: Read>(r: &mut R) -> io::Result<SnapshotHeader> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad("not an FGSN snapshot (bad magic)"));
    }
    let version = need(r, "version")?;
    if version != FORMAT_VERSION {
        return Err(bad(&format!(
            "unsupported FGSN version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let config_hash = need(r, "config hash")?;
    let cpu_cycle = need(r, "cpu cycle")?;
    // The counts are untrusted: grow the vectors as entries actually
    // parse, so a corrupt count ends in a truncation error, not a huge
    // allocation.
    let n_cores = need(r, "core count")?;
    let mut cores = Vec::new();
    for _ in 0..n_cores {
        cores.push(CoreSummary {
            ops_pulled: need(r, "core ops_pulled")?,
            window_len: need(r, "core window_len")?,
        });
    }
    let n_shards = need(r, "shard count")?;
    let mut shards = Vec::new();
    for _ in 0..n_shards {
        shards.push(ShardSummary {
            read_queue: need(r, "shard read queue")?,
            write_queue: need(r, "shard write queue")?,
            backlog: need(r, "shard backlog")?,
        });
    }
    let payload_words = need(r, "payload length")?;
    Ok(SnapshotHeader { version, config_hash, cpu_cycle, cores, shards, payload_words })
}

/// Reads only the header of the snapshot at `path` (`figaro diag
/// snapshot`).
///
/// # Errors
///
/// `InvalidData` on a malformed file; propagates filesystem errors.
pub fn read_header_from(path: &Path) -> io::Result<SnapshotHeader> {
    read_header(&mut BufReader::new(File::open(path)?))
}

/// Restores a snapshot into `sys`, which must be freshly constructed
/// from the *same run description* (configuration and trace sources) the
/// snapshot was taken under. On success the system's clock sits at the
/// snapshot cycle and `run` continues bit-identically to the
/// uninterrupted run under every exact kernel.
///
/// # Errors
///
/// An error if the snapshot is malformed, truncated or fails its
/// checksum, or was produced by a different configuration (config-hash
/// mismatch). Every check but the final trailing-words one runs before
/// any state is loaded.
pub fn restore_from_reader<R: Read>(sys: &mut System, r: &mut R) -> io::Result<SnapshotHeader> {
    let r = &mut Checksummed { inner: r, hash: FNV_OFFSET };
    let header = read_header(r)?;
    let expected = config_hash(sys.config());
    if header.config_hash != expected {
        return Err(bad(&format!(
            "snapshot config hash {:#018x} does not match this configuration ({expected:#018x})",
            header.config_hash
        )));
    }
    let mut words = Vec::new();
    for _ in 0..header.payload_words {
        words.push(need(r, "payload word")?);
    }
    let mut sum = [0u8; 8];
    r.inner.read_exact(&mut sum).map_err(|_| bad("snapshot truncated reading checksum"))?;
    if u64::from_le_bytes(sum) != r.hash {
        return Err(bad("snapshot checksum mismatch"));
    }
    let mut src = words.as_slice();
    sys.load_state(&mut src);
    if !src.is_empty() {
        return Err(bad("snapshot payload has trailing words"));
    }
    Ok(header)
}

/// Restores the snapshot at `path` into `sys` (see
/// [`restore_from_reader`]).
///
/// # Errors
///
/// As [`restore_from_reader`]; propagates filesystem errors.
pub fn restore(sys: &mut System, path: &Path) -> io::Result<SnapshotHeader> {
    restore_from_reader(sys, &mut BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigKind;
    use figaro_workloads::{generate_trace, profile_by_name};

    fn small_sys(kind: ConfigKind) -> System {
        let p = profile_by_name("mcf").expect("profile");
        let trace = generate_trace(&p, 4_000, 7);
        let mut cfg = SystemConfig::paper(1, kind);
        cfg.kernel = Kernel::Event;
        System::new(cfg, vec![trace], &[4_000])
    }

    /// A one-core Base system with kilobyte caches: its snapshot is
    /// about 2 kB, so a test can afford to corrupt every byte of it.
    fn tiny_cache_sys() -> System {
        let p = profile_by_name("mcf").expect("profile");
        let mut cfg = SystemConfig::paper(1, ConfigKind::Base);
        cfg.hierarchy.l1.size_bytes = 1 << 10;
        cfg.hierarchy.l2.size_bytes = 2 << 10;
        cfg.hierarchy.llc.size_bytes = 4 << 10;
        System::new(cfg, vec![generate_trace(&p, 4_000, 7)], &[4_000])
    }

    #[test]
    fn round_trip_resumes_bit_identically() {
        let mut warm = small_sys(ConfigKind::FigCacheFast);
        let _ = warm.run(5_000);

        let mut bytes = Vec::new();
        save_to_writer(&warm, &mut bytes).expect("save");

        let mut resumed = small_sys(ConfigKind::FigCacheFast);
        let header = restore_from_reader(&mut resumed, &mut bytes.as_slice()).expect("restore");
        assert_eq!(header.version, FORMAT_VERSION);
        assert_eq!(header.cpu_cycle, 5_000);
        assert_eq!(header.cores.len(), 1);

        // Save→restore→save is the identity on the byte stream...
        let mut bytes2 = Vec::new();
        save_to_writer(&resumed, &mut bytes2).expect("re-save");
        assert_eq!(bytes, bytes2);

        // ...and the resumed run finishes bit-identically to the
        // uninterrupted one.
        let golden = {
            let mut sys = small_sys(ConfigKind::FigCacheFast);
            sys.run(u64::MAX)
        };
        assert_eq!(warm.run(u64::MAX), golden);
        assert_eq!(resumed.run(u64::MAX), golden);
    }

    #[test]
    fn header_reads_without_payload() {
        let mut sys = small_sys(ConfigKind::Base);
        let _ = sys.run(2_000);
        let mut bytes = Vec::new();
        save_to_writer(&sys, &mut bytes).expect("save");
        let header = read_header(&mut bytes.as_slice()).expect("header");
        assert_eq!(header.cpu_cycle, 2_000);
        assert_eq!(header.config_hash, config_hash(sys.config()));
        assert!(header.payload_words > 0);
    }

    #[test]
    fn rejects_config_hash_mismatch() {
        let mut base = small_sys(ConfigKind::Base);
        let _ = base.run(2_000);
        let mut bytes = Vec::new();
        save_to_writer(&base, &mut bytes).expect("save");

        let mut other = small_sys(ConfigKind::LlDram);
        let err = restore_from_reader(&mut other, &mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("config hash"));
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut sys = tiny_cache_sys();
        let _ = sys.run(1_000);
        let mut bytes = Vec::new();
        save_to_writer(&sys, &mut bytes).expect("save");

        let mut garbled = bytes.clone();
        garbled[0] = b'X';
        assert_eq!(
            read_header(&mut garbled.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Every failure below is detected before `load_state`, so one
        // fresh system serves every input.
        let mut fresh = tiny_cache_sys();
        let truncated = &bytes[..bytes.len() / 2];
        assert_eq!(
            restore_from_reader(&mut fresh, &mut &truncated[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        for len in 0..bytes.len() {
            assert!(restore_from_reader(&mut fresh, &mut &bytes[..len]).is_err(), "length {len}");
        }
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= flip;
                assert!(
                    restore_from_reader(&mut fresh, &mut corrupt.as_slice()).is_err(),
                    "byte {i} ^ {flip:#04x}"
                );
            }
        }

        // A header claiming 2^59 cores must fail on the missing entries,
        // not try to allocate them.
        let mut huge = MAGIC.to_vec();
        for v in [FORMAT_VERSION, config_hash(fresh.config()), 0, 1 << 59] {
            write_varint(&mut huge, v).expect("varint");
        }
        assert!(read_header(&mut huge.as_slice()).is_err());
        assert!(restore_from_reader(&mut fresh, &mut huge.as_slice()).is_err());
    }

    /// Two cores running `kind` on two channels with 4-entry queues, so
    /// requests park in the per-channel backlogs.
    fn backlogged_sys(kind: ConfigKind) -> System {
        let traces = ["mcf", "lbm"]
            .iter()
            .enumerate()
            .map(|(i, n)| {
                generate_trace(&profile_by_name(n).expect("profile"), 8_000, 61 + i as u64)
            })
            .collect();
        let mut cfg = SystemConfig::paper(2, kind);
        cfg.kernel = Kernel::Event;
        cfg.channels = 2;
        cfg.mc.read_queue_cap = 4;
        cfg.mc.write_queue_cap = 4;
        cfg.mc.wq_high = 3;
        cfg.mc.wq_low = 1;
        cfg.hierarchy.mshrs_per_core = 16;
        System::new(cfg, traces, &[20_000; 2])
    }

    #[test]
    fn backlogged_snapshot_bytes_are_pinned() {
        // The FGSN byte stream of a mid-run save with parked backlog
        // requests, pinned so a refactor of the per-channel state cannot
        // silently change the format (older snapshots must still load).
        let mut warm = backlogged_sys(ConfigKind::FigCacheFast);
        let _ = warm.run(10_000);
        let mut bytes = Vec::new();
        save_to_writer(&warm, &mut bytes).expect("save");
        let header = read_header(&mut bytes.as_slice()).expect("header");
        assert!(
            header.shards.iter().map(|s| s.backlog).sum::<u64>() > 0,
            "backlog must be non-empty"
        );
        // Versions 3 and 4 left FIGCache-Fast's header and payload alone
        // (3 appended the checksum, 4 changed LISA-VILLA's payload):
        // undoing both gives back the pinned version-2 stream.
        let mut v2 = bytes[..bytes.len() - 8].to_vec();
        v2[4] = 2;
        assert_eq!(fnv1a(&v2), 0xd146_d019_73ad_962c, "FGSN header or payload changed");
        assert_eq!(fnv1a(&bytes), 0x41ca_13f8_8947_206f, "FGSN bytes changed");

        let mut resumed = backlogged_sys(ConfigKind::FigCacheFast);
        restore_from_reader(&mut resumed, &mut bytes.as_slice()).expect("restore");
        let mut bytes2 = Vec::new();
        save_to_writer(&resumed, &mut bytes2).expect("re-save");
        assert_eq!(bytes, bytes2);
        assert_eq!(resumed.run(u64::MAX), warm.run(u64::MAX));
    }

    /// FNV-1a over a system's payload words (little-endian bytes).
    fn payload_digest(sys: &System) -> u64 {
        let mut words = Vec::new();
        sys.save_state(&mut words);
        fnv1a(&words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
    }

    #[test]
    fn every_mechanism_payload_is_pinned() {
        // One pin per mechanism, so a change to any engine's saved state
        // fails here: update the pin and bump FORMAT_VERSION together.
        for (kind, pin) in [
            (ConfigKind::Base, 0xcb68_0f56_4160_1be4),
            (ConfigKind::LisaVilla, 0x5064_b35f_c5d1_f554),
            (ConfigKind::FigCacheSlow, 0x5509_e668_7219_f025),
            (ConfigKind::FigCacheFast, 0xb0c9_b789_7622_0cc1),
            (ConfigKind::FigCacheIdeal, 0xec1d_bda8_01d9_da5b),
            (ConfigKind::LlDram, 0xbd8a_edcd_d1f5_b6df),
        ] {
            let mut sys = backlogged_sys(kind.clone());
            let _ = sys.run(10_000);
            assert_eq!(payload_digest(&sys), pin, "{kind:?} FGSN payload changed");
        }
    }

    #[test]
    fn config_hash_ignores_kernel_and_threads() {
        let a = SystemConfig {
            kernel: Kernel::Reference,
            threads: 1,
            ..SystemConfig::paper(2, ConfigKind::FigCacheFast)
        };
        let b = SystemConfig { kernel: Kernel::Event, threads: 8, ..a.clone() };
        assert_eq!(config_hash(&a), config_hash(&b));

        let c = SystemConfig::paper(2, ConfigKind::Base);
        assert_ne!(config_hash(&a), config_hash(&c));
    }
}
