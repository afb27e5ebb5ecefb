//! Compact on-disk trace format with streaming record/replay.
//!
//! The format is designed for *long* traces (hundreds of millions of
//! operations): records are delta- and varint-encoded, written through a
//! plain buffered writer and read back through a plain buffered reader —
//! no mmap, no whole-file materialization — so both sides run in
//! constant memory regardless of trace length.
//!
//! ## Layout (`FIGT` version 1)
//!
//! ```text
//! magic   : 4 bytes  b"FIGT"
//! version : 1 byte   0x01
//! name    : u16 LE length + UTF-8 bytes (workload name)
//! records : until EOF, per TraceOp:
//!   varint( nonmem << 1 | is_write )
//!   varint( zigzag(addr - prev_addr) )      // prev_addr starts at 0
//! ```
//!
//! Varints are LEB128 (7 bits per byte, high bit = continuation); address
//! deltas are zigzag-mapped so the short back-and-forth strides of real
//! access streams encode in one or two bytes. A synthetic-trace record
//! averages ~4 bytes against 16 in memory.
//!
//! Three interfaces sit on top:
//!
//! * [`TraceWriter`] / [`TraceReader`] — streaming op-at-a-time I/O;
//! * [`write_trace_file`] / [`read_trace_file`] — whole-[`Trace`]
//!   convenience round trip;
//! * [`FileReplay`] (a [`TraceSource`] that loops the file) and
//!   [`RecordingSource`] (a tee that captures any live source to disk),
//!   which together give bit-exact record→replay of simulator runs.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::{Trace, TraceOp, TraceSource};

const MAGIC: [u8; 4] = *b"FIGT";
const VERSION: u8 = 1;

/// Writes one LEB128 varint.
fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads one varint; `Ok(None)` on clean EOF at the first byte. Fails on
/// I/O errors, truncation mid-varint, or u64 overflow.
fn read_varint<R: Read>(r: &mut R) -> io::Result<Option<u64>> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut buf = [0u8; 1];
    loop {
        match r.read(&mut buf)? {
            0 if shift == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "trace record truncated mid-varint",
                ))
            }
            _ => {}
        }
        if shift >= 64 || (shift == 63 && buf[0] & 0x7e != 0) {
            // The tenth byte may only carry bit 63; higher payload bits
            // would shift out silently and decode a *different* value —
            // corruption must be loud, never a changed op stream.
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint overflows u64"));
        }
        v |= u64::from(buf[0] & 0x7f) << shift;
        if buf[0] & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed value so small magnitudes varint-encode short.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Streaming writer of the `FIGT` format.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    prev_addr: u64,
    ops: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and returns a writer ready for ops.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer; rejects names
    /// longer than `u16::MAX` bytes.
    pub fn new(mut w: W, name: &str) -> io::Result<Self> {
        let name_len = u16::try_from(name.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "trace name too long"))?;
        w.write_all(&MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&name_len.to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        Ok(Self { w, prev_addr: 0, ops: 0 })
    }

    /// Appends one operation.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_op(&mut self, op: TraceOp) -> io::Result<()> {
        write_varint(&mut self.w, u64::from(op.nonmem) << 1 | u64::from(op.is_write))?;
        let delta = op.addr.wrapping_sub(self.prev_addr) as i64;
        write_varint(&mut self.w, zigzag(delta))?;
        self.prev_addr = op.addr;
        self.ops += 1;
        Ok(())
    }

    /// Operations written so far.
    #[must_use]
    pub fn ops_written(&self) -> u64 {
        self.ops
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Streaming reader of the `FIGT` format.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    r: R,
    name: String,
    prev_addr: u64,
}

impl<R: BufRead> TraceReader<R> {
    /// Parses the header and returns a reader positioned at the first op.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a malformed/mismatched header.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a FIGT trace file"));
        }
        let mut version = [0u8; 1];
        r.read_exact(&mut version)?;
        if version[0] != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported FIGT version {}", version[0]),
            ));
        }
        let mut len = [0u8; 2];
        r.read_exact(&mut len)?;
        let mut name = vec![0u8; usize::from(u16::from_le_bytes(len))];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "trace name not UTF-8"))?;
        Ok(Self { r, name, prev_addr: 0 })
    }

    /// The recorded workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reads the next operation; `Ok(None)` at end of file.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a truncated record.
    pub fn next_op(&mut self) -> io::Result<Option<TraceOp>> {
        let Some(head) = read_varint(&mut self.r)? else { return Ok(None) };
        let Some(dz) = read_varint(&mut self.r)? else {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "trace record truncated"));
        };
        let nonmem = u32::try_from(head >> 1)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "nonmem overflows u32"))?;
        let addr = self.prev_addr.wrapping_add(unzigzag(dz) as u64);
        self.prev_addr = addr;
        Ok(Some(TraceOp { nonmem, addr, is_write: head & 1 == 1 }))
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = io::Result<TraceOp>;

    fn next(&mut self) -> Option<io::Result<TraceOp>> {
        self.next_op().transpose()
    }
}

/// Writes a whole [`Trace`] to `path`.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_trace_file(path: impl AsRef<Path>, trace: &Trace) -> io::Result<()> {
    let mut w = TraceWriter::new(BufWriter::new(File::create(path)?), &trace.name)?;
    for &op in &trace.ops {
        w.write_op(op)?;
    }
    w.finish()?.flush()
}

/// Reads a whole [`Trace`] from `path` (tests and small traces; long
/// traces should stream through [`FileReplay`] instead).
///
/// # Errors
///
/// Propagates open/read errors and format violations.
pub fn read_trace_file(path: impl AsRef<Path>) -> io::Result<Trace> {
    let mut r = TraceReader::new(BufReader::new(File::open(path)?))?;
    let name = r.name().to_string();
    let mut ops = Vec::new();
    while let Some(op) = r.next_op()? {
        ops.push(op);
    }
    Ok(Trace { name, ops })
}

/// A [`TraceSource`] that streams a `FIGT` file through a buffered
/// reader, seeking back to the first record at end of file (traces wrap,
/// like every source). Constant memory regardless of file size.
#[derive(Debug)]
pub struct FileReplay {
    reader: TraceReader<BufReader<File>>,
    /// Byte offset of the first record (seek target for wrap-around).
    data_start: u64,
}

impl FileReplay {
    /// Opens `path` for streaming replay. The records are decoded once
    /// here, in constant memory, so a malformed file fails now rather
    /// than mid-simulation.
    ///
    /// # Errors
    ///
    /// Fails on open errors, a malformed header, a malformed or
    /// truncated record, or a file with no records (`InvalidData`).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut reader = TraceReader::new(BufReader::new(File::open(path)?))?;
        let data_start = reader.r.stream_position()?;
        if reader.next_op()?.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace file `{}` has no records", reader.name()),
            ));
        }
        while reader.next_op()?.is_some() {}
        let mut replay = Self { reader, data_start };
        replay.rewind()?;
        Ok(replay)
    }

    fn rewind(&mut self) -> io::Result<()> {
        self.reader.r.seek(SeekFrom::Start(self.data_start))?;
        self.reader.prev_addr = 0;
        Ok(())
    }
}

impl TraceSource for FileReplay {
    fn name(&self) -> &str {
        self.reader.name()
    }

    /// # Panics
    ///
    /// [`FileReplay::open`] has checked every record, so this panics only
    /// if the file changes or becomes unreadable after it was opened: a
    /// trace that vanishes or corrupts mid-simulation is unrecoverable,
    /// and silently substituting ops would poison the run's determinism.
    fn next_op(&mut self) -> TraceOp {
        match self.reader.next_op() {
            Ok(Some(op)) => op,
            Ok(None) => {
                self.rewind().expect("trace file must stay seekable");
                match self.reader.next_op() {
                    Ok(Some(op)) => op,
                    other => panic!("trace file lost its records on rewind: {other:?}"),
                }
            }
            Err(e) => panic!("trace file read failed mid-replay: {e}"),
        }
    }
}

/// A tee: pulls from any inner [`TraceSource`] and records every op to a
/// `FIGT` file as a side effect. Dropping the source flushes the file,
/// so a finished simulation leaves a complete recording behind for later
/// [`FileReplay`]; a flush failure on drop is reported loudly on stderr
/// (drops cannot return errors). Call [`RecordingSource::finish`] where
/// a checkable flush result matters.
#[derive(Debug)]
pub struct RecordingSource<S: TraceSource> {
    inner: S,
    /// `None` only after [`RecordingSource::finish`].
    writer: Option<TraceWriter<BufWriter<File>>>,
}

impl<S: TraceSource> RecordingSource<S> {
    /// Starts recording `inner` to `path`.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created.
    pub fn create(inner: S, path: impl AsRef<Path>) -> io::Result<Self> {
        let writer = TraceWriter::new(BufWriter::new(File::create(path)?), inner.name())?;
        Ok(Self { inner, writer: Some(writer) })
    }

    /// Stops recording and flushes, surfacing any flush error (unlike a
    /// plain drop, which can only report it on stderr).
    ///
    /// # Errors
    ///
    /// Propagates the final flush error.
    pub fn finish(mut self) -> io::Result<()> {
        match self.writer.take() {
            Some(w) => w.finish().map(|_| ()),
            None => Ok(()),
        }
    }
}

impl<S: TraceSource> Drop for RecordingSource<S> {
    fn drop(&mut self) {
        if let Some(w) = self.writer.take() {
            if let Err(e) = w.finish() {
                // A silently truncated recording would replay as a
                // *different* run; failing the flush must at least be
                // loud even though Drop cannot return the error.
                eprintln!("figaro-workloads: trace recording flush failed on drop: {e}");
            }
        }
    }
}

impl<S: TraceSource> TraceSource for RecordingSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    /// # Panics
    ///
    /// Panics if the recording file cannot be written (a partial
    /// recording that silently drops ops would replay a different run).
    fn next_op(&mut self) -> TraceOp {
        let op = self.inner.next_op();
        self.writer
            .as_mut()
            .expect("recording already finished")
            .write_op(op)
            .expect("trace recording write failed");
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_trace, profile_by_name, TraceGenerator};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("figaro-trace-io-{}-{name}", std::process::id()))
    }

    #[test]
    fn varint_round_trips_extremes() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v).unwrap();
        }
        let mut r = &buf[..];
        for &v in &values {
            assert_eq!(read_varint(&mut r).unwrap(), Some(v));
        }
        assert_eq!(read_varint(&mut r).unwrap(), None);
    }

    #[test]
    fn varint_rejects_overflow_instead_of_truncating() {
        // Ten continuation bytes: shift reaches 70.
        let mut r: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert!(read_varint(&mut r).is_err());
        // Tenth byte carrying payload above bit 63 must error, not drop bits.
        let mut r: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7e];
        assert!(read_varint(&mut r).is_err());
        // Bit 63 alone in the tenth byte is u64::MAX's legitimate encoding.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX).unwrap();
        assert_eq!(buf.len(), 10);
        let mut r = &buf[..];
        assert_eq!(read_varint(&mut r).unwrap(), Some(u64::MAX));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn trace_file_round_trips_bit_identically() {
        let p = profile_by_name("mcf").unwrap();
        let trace = generate_trace(&p, 10_000, 42);
        let path = tmp("roundtrip.figt");
        write_trace_file(&path, &trace).unwrap();
        let back = read_trace_file(&path).unwrap();
        assert_eq!(trace, back);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn format_is_compact() {
        let p = profile_by_name("zeusmp").unwrap();
        let trace = generate_trace(&p, 20_000, 7);
        let path = tmp("compact.figt");
        write_trace_file(&path, &trace).unwrap();
        let on_disk = std::fs::metadata(&path).unwrap().len();
        let in_memory = trace.ops.len() as u64 * std::mem::size_of::<TraceOp>() as u64;
        assert!(
            on_disk * 2 < in_memory,
            "on-disk {on_disk} B should be well under half the in-memory {in_memory} B"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn file_replay_streams_and_wraps() {
        let p = profile_by_name("grep").unwrap();
        let trace = generate_trace(&p, 500, 3);
        let path = tmp("replay.figt");
        write_trace_file(&path, &trace).unwrap();
        let mut src = FileReplay::open(&path).unwrap();
        assert_eq!(src.name(), "grep");
        // Two full passes: the source must wrap seamlessly.
        for lap in 0..2 {
            for (i, &op) in trace.ops.iter().enumerate() {
                assert_eq!(src.next_op(), op, "lap {lap} op {i}");
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn recording_source_tees_exactly_what_was_pulled() {
        let p = profile_by_name("lbm").unwrap();
        let path = tmp("record.figt");
        let mut rec = RecordingSource::create(TraceGenerator::new(&p, 99), &path).unwrap();
        let pulled: Vec<TraceOp> = (0..2_000).map(|_| rec.next_op()).collect();
        rec.finish().unwrap();
        let back = read_trace_file(&path).unwrap();
        assert_eq!(back.name, "lbm");
        assert_eq!(back.ops, pulled);
        // Replaying the recording yields the identical stream.
        let mut replay = FileReplay::open(&path).unwrap();
        for (i, &op) in pulled.iter().enumerate() {
            assert_eq!(replay.next_op(), op, "op {i}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_record_streams_fail_at_open_never_mid_replay() {
        let p = profile_by_name("mcf").unwrap();
        let trace = generate_trace(&p, 200, 5);
        let good = tmp("fuzz-good.figt");
        write_trace_file(&good, &trace).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        let _ = std::fs::remove_file(good);
        // Header only: no records to replay.
        let header_len = MAGIC.len() + 1 + 2 + trace.name.len();
        let path = tmp("fuzz.figt");
        std::fs::write(&path, &bytes[..header_len]).unwrap();
        let err = FileReplay::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Every truncation and a stride of single-byte flips either fails
        // to open or replays two laps of its records without panicking.
        let truncations = (0..bytes.len()).map(|len| bytes[..len].to_vec());
        let flips = (0..bytes.len()).step_by(7).flat_map(|i| {
            [0x01u8, 0x80, 0xff].map(|flip| {
                let mut b = bytes.clone();
                b[i] ^= flip;
                b
            })
        });
        for input in truncations.chain(flips) {
            std::fs::write(&path, &input).unwrap();
            let Ok(mut src) = FileReplay::open(&path) else { continue };
            let records = TraceReader::new(input.as_slice()).unwrap().count();
            for _ in 0..2 * records {
                let _ = src.next_op();
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn malformed_headers_are_rejected() {
        let path = tmp("bad.figt");
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(FileReplay::open(&path).is_err());
        std::fs::write(&path, [&MAGIC[..], &[9u8], &0u16.to_le_bytes()[..]].concat()).unwrap();
        assert!(FileReplay::open(&path).is_err(), "unknown version must be rejected");
        let _ = std::fs::remove_file(path);
    }
}
