//! Structured event tracing: per-shard buffers of sim-time-stamped
//! spans/instants, merged in channel order into Chrome trace-event
//! JSON (the `chrome://tracing` / Perfetto format).
//!
//! ## Determinism
//!
//! Events carry **simulated** timestamps only. Each controller (shard)
//! owns its own [`TraceBuffer`], filled in simulated-time order; the
//! writer merges buffers with a stable sort on `(timestamp, lane,
//! sequence)`. Because every emit site fires at a simulator *state
//! change* (which the kernel-equivalence suite proves happens at the
//! same cycle under every exact kernel), the output file is
//! **byte-identical** across the Reference and Event kernels. The
//! integration suite pins that claim.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Event categories. A closed set so the per-emit filter check is one
/// bit test and filter typos abort loudly at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    /// Relocation-job spans (FIGCache segment moves, LISA clones).
    Reloc,
    /// Write-drain hysteresis spans (high/low watermark crossings).
    Drain,
    /// Refresh command instants.
    Refresh,
    /// Sampled-kernel detailed-window boundaries and fast-forward jumps.
    Window,
    /// Warm-start resume markers.
    Warm,
}

/// All categories, in bit order.
pub const CATEGORIES: [Cat; 5] = [Cat::Reloc, Cat::Drain, Cat::Refresh, Cat::Window, Cat::Warm];

impl Cat {
    /// The category label written to the JSON `cat` field and accepted
    /// by `FIGARO_TRACE` filters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Cat::Reloc => "reloc",
            Cat::Drain => "drain",
            Cat::Refresh => "refresh",
            Cat::Window => "window",
            Cat::Warm => "warm",
        }
    }

    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

/// Which categories a trace records, decided once at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter {
    mask: u8,
}

impl Default for TraceFilter {
    /// Every category.
    fn default() -> Self {
        Self { mask: u8::MAX }
    }
}

impl TraceFilter {
    /// Parses a comma-separated category list (`"reloc,drain"`), or
    /// `"all"` for every category.
    ///
    /// # Errors
    ///
    /// Names the first unknown category.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut mask = 0u8;
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if tok == "all" {
                mask = 0xff;
                continue;
            }
            let cat = CATEGORIES.iter().find(|c| c.name() == tok).ok_or_else(|| {
                let names: Vec<&str> = CATEGORIES.iter().map(|c| c.name()).collect();
                format!("unknown trace filter category `{tok}` (use {} or all)", names.join(","))
            })?;
            mask |= cat.bit();
        }
        Ok(Self { mask })
    }

    /// Whether `spec` has the shape of a category list (lowercase words
    /// and commas) — used to split `path:filter` from a path whose last
    /// component contains `:`. A misspelled category still looks like a
    /// filter, so [`TraceFilter::parse`] reports it.
    #[must_use]
    pub fn looks_like_filter(spec: &str) -> bool {
        !spec.trim().is_empty()
            && spec.chars().all(|c| c.is_ascii_lowercase() || c == ',' || c == ' ')
    }

    /// Whether the named category is recorded (test/CLI convenience;
    /// the hot path uses the bit mask directly).
    #[must_use]
    pub fn allows(&self, name: &str) -> bool {
        CATEGORIES.iter().any(|c| c.name() == name && self.mask & c.bit() != 0)
    }
}

/// Chrome trace-event phase subset the writer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `ph:"X"` — a complete span with a duration.
    Complete,
    /// `ph:"i"` — an instant.
    Instant,
}

/// One recorded event. Names and categories are `&'static str`/enums:
/// recording never allocates beyond buffer growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp, in the emitting component's clock domain
    /// (rescaled to CPU cycles at merge time).
    pub ts: u64,
    /// Span length for [`Phase::Complete`]; `0` for instants.
    pub dur: u64,
    /// Event phase.
    pub ph: Phase,
    /// Category.
    pub cat: Cat,
    /// Event name.
    pub name: &'static str,
    /// One numeric payload (job id, queue depth, …), written as
    /// `args:{"v":…}`.
    pub arg: u64,
}

/// An append-only, filter-aware event buffer owned by one lane
/// (controller shard or the main simulation loop).
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    filter: TraceFilter,
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// An empty buffer recording the filtered categories.
    #[must_use]
    pub fn new(filter: TraceFilter) -> Self {
        Self { filter, events: Vec::new() }
    }

    /// Records an instant event (subject to the filter).
    pub fn instant(&mut self, cat: Cat, name: &'static str, ts: u64, arg: u64) {
        if self.filter.mask & cat.bit() != 0 {
            self.events.push(TraceEvent { ts, dur: 0, ph: Phase::Instant, cat, name, arg });
        }
    }

    /// Records a complete span (subject to the filter). `ts` is the
    /// span start; `dur` its length in the same clock domain.
    pub fn complete(&mut self, cat: Cat, name: &'static str, ts: u64, dur: u64, arg: u64) {
        if self.filter.mask & cat.bit() != 0 {
            self.events.push(TraceEvent { ts, dur, ph: Phase::Complete, cat, name, arg });
        }
    }

    /// Recorded events, in emit order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The buffer's filter.
    #[must_use]
    pub fn filter(&self) -> TraceFilter {
        self.filter
    }
}

/// Per-controller trace adapter: turns controller lifecycle callbacks
/// (job start/retire, queue-length changes, refresh issue) into spans
/// and instants. Lives here — not in `crates/memctrl` — so every emit
/// primitive stays out of the result-affecting crates and the figlint
/// FIG007 probe-guard rule stays simple: controllers only ever touch
/// this type through the `probe!` macro.
///
/// The write-drain span tracks the *pure* hysteresis function of the
/// queue length (≥ high → draining, ≤ low → not), re-evaluated at
/// every queue-length change. The controller's own lazy flag may
/// recompute later under the event kernels (deferral is observably
/// equivalent); tracing the pure function instead keeps the trace
/// byte-identical across kernels.
#[derive(Debug, Clone)]
pub struct ControllerTrace {
    buf: TraceBuffer,
    /// Per-bank open relocation-job span: `(start_ts, job_id)`.
    job_open: Vec<Option<(u64, u64)>>,
    drain: bool,
    drain_since: u64,
    drain_peak: u64,
}

impl ControllerTrace {
    /// A fresh adapter for a controller with `banks` banks.
    #[must_use]
    pub fn new(banks: usize, filter: TraceFilter) -> Self {
        Self {
            buf: TraceBuffer::new(filter),
            job_open: vec![None; banks],
            drain: false,
            drain_since: 0,
            drain_peak: 0,
        }
    }

    /// A relocation job was taken by `bank` at `now`.
    pub fn job_start(&mut self, bank: usize, id: u64, now: u64) {
        self.job_open[bank] = Some((now, id));
    }

    /// The job on `bank` retired at `now`: closes its span.
    pub fn job_retire(&mut self, bank: usize, now: u64) {
        if let Some((start, id)) = self.job_open[bank].take() {
            self.buf.complete(Cat::Reloc, "reloc_job", start, now - start, id);
        }
    }

    /// The write queue changed length at `now`: advance the pure
    /// drain-hysteresis function and emit a span on falling edges.
    pub fn drain_update(&mut self, now: u64, wq_len: usize, high: usize, low: usize) {
        let next = if wq_len >= high {
            true
        } else if wq_len <= low {
            false
        } else {
            self.drain
        };
        if next && !self.drain {
            self.drain_since = now;
            self.drain_peak = wq_len as u64;
        } else if next {
            self.drain_peak = self.drain_peak.max(wq_len as u64);
        } else if self.drain {
            self.buf.complete(
                Cat::Drain,
                "write_drain",
                self.drain_since,
                now - self.drain_since,
                self.drain_peak,
            );
        }
        self.drain = next;
    }

    /// A refresh command issued at `now`.
    pub fn note_refresh(&mut self, now: u64) {
        self.buf.instant(Cat::Refresh, "refresh", now, 0);
    }

    /// Closes any still-open spans at end of run (`now`) and returns
    /// the finished buffer.
    #[must_use]
    pub fn finish(mut self, now: u64) -> TraceBuffer {
        for bank in 0..self.job_open.len() {
            self.job_retire(bank, now);
        }
        if self.drain {
            self.buf.complete(
                Cat::Drain,
                "write_drain",
                self.drain_since,
                now - self.drain_since,
                self.drain_peak,
            );
        }
        self.buf
    }
}

/// One lane feeding the merged trace file.
#[derive(Debug)]
pub struct MergeSource {
    /// Chrome `tid` this lane's events render under (`0` = the main
    /// simulation loop, `1 + channel` = that channel's controller).
    pub tid: u32,
    /// Multiplier rescaling the lane's timestamps to CPU cycles
    /// (controllers stamp bus cycles; the bus runs slower).
    pub ts_scale: u64,
    /// The lane's events.
    pub buf: TraceBuffer,
}

/// Merges lanes and writes Chrome trace-event JSON atomically
/// (temp file + rename). Events are stably ordered by
/// `(scaled timestamp, tid, emit order)` — the byte-identity anchor.
///
/// Timestamps are written in CPU cycles via the `ts` field (Perfetto
/// renders them as microseconds; only relative placement matters).
///
/// # Errors
///
/// Propagates I/O errors from writing or renaming the file.
pub fn write_chrome_trace(path: &Path, sources: &[MergeSource]) -> io::Result<()> {
    let mut order: Vec<(u64, u32, usize, usize)> = Vec::new();
    for (lane, src) in sources.iter().enumerate() {
        for (seq, e) in src.buf.events().iter().enumerate() {
            order.push((e.ts * src.ts_scale, src.tid, lane, seq));
        }
    }
    order.sort_by_key(|&(ts, tid, _, seq)| (ts, tid, seq));

    let mut out = String::with_capacity(order.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, &(ts, tid, lane, seq)) in order.iter().enumerate() {
        let src = &sources[lane];
        let e = &src.buf.events()[seq];
        if i > 0 {
            out.push_str(",\n");
        }
        match e.ph {
            Phase::Complete => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"v\":{}}}}}",
                    e.name,
                    e.cat.name(),
                    ts,
                    e.dur * src.ts_scale,
                    tid,
                    e.arg
                ));
            }
            Phase::Instant => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\"pid\":0,\"tid\":{},\"args\":{{\"v\":{}}}}}",
                    e.name,
                    e.cat.name(),
                    ts,
                    tid,
                    e.arg
                ));
            }
        }
    }
    out.push_str("\n]}\n");

    let tmp = path.with_extension("json.tmp");
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let mut f = fs::File::create(&tmp)?;
    f.write_all(out.as_bytes())?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)
}

/// Summary of a parsed Chrome-trace file (`diag trace`, and the
/// well-formedness test).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFileSummary {
    /// Total events.
    pub events: usize,
    /// `(category, count)` sorted by category name.
    pub by_cat: Vec<(String, usize)>,
    /// `ph:"X"` spans.
    pub complete: usize,
    /// `ph:"i"` instants.
    pub instant: usize,
    /// `ph:"B"` span-begin events (a generic Chrome trace may use
    /// begin/end pairs; our writer emits none).
    pub begins: usize,
    /// `ph:"E"` span-end events.
    pub ends: usize,
    /// Events with any other phase.
    pub other_ph: usize,
    /// Largest `ts` (plus `dur` for spans) seen.
    pub max_ts: u64,
}

impl TraceFileSummary {
    /// Whether begin/end spans pair up (trivially true for our
    /// `X`-only writer, checked anyway for foreign files).
    #[must_use]
    pub fn balanced(&self) -> bool {
        self.begins == self.ends
    }
}

/// Parses and validates a Chrome-trace JSON file.
///
/// # Errors
///
/// Returns a description of the first problem: unreadable file,
/// malformed JSON, or a structure that is not a
/// `{"traceEvents":[…]}` object of well-formed event objects.
pub fn summarize_file(path: &Path) -> Result<TraceFileSummary, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    summarize_str(&text)
}

/// [`summarize_file`] on an in-memory document.
///
/// # Errors
///
/// Same conditions as [`summarize_file`], minus the I/O.
pub fn summarize_str(text: &str) -> Result<TraceFileSummary, String> {
    let root = json::parse(text)?;
    let json::Val::Obj(fields) = &root else {
        return Err("root is not a JSON object".into());
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing \"traceEvents\" key")?;
    let json::Val::Arr(items) = events else {
        return Err("\"traceEvents\" is not an array".into());
    };
    let mut sum = TraceFileSummary::default();
    let mut cats: Vec<(String, usize)> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let json::Val::Obj(ev) = item else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        let field = |k: &str| ev.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let str_field = |k: &str| match field(k) {
            Some(json::Val::Str(s)) => Ok(s.clone()),
            _ => Err(format!("traceEvents[{i}] missing string field {k:?}")),
        };
        let num_field = |k: &str| match field(k) {
            Some(json::Val::Num(n)) => {
                n.parse::<u64>().map_err(|_| format!("traceEvents[{i}].{k} is not a u64: {n}"))
            }
            _ => Err(format!("traceEvents[{i}] missing numeric field {k:?}")),
        };
        str_field("name")?;
        let cat = str_field("cat")?;
        let ph = str_field("ph")?;
        let ts = num_field("ts")?;
        let end = match ph.as_str() {
            "X" => {
                sum.complete += 1;
                ts + num_field("dur")?
            }
            "i" => {
                sum.instant += 1;
                ts
            }
            "B" => {
                sum.begins += 1;
                ts
            }
            "E" => {
                sum.ends += 1;
                ts
            }
            _ => {
                sum.other_ph += 1;
                ts
            }
        };
        sum.max_ts = sum.max_ts.max(end);
        sum.events += 1;
        match cats.iter_mut().find(|(c, _)| *c == cat) {
            Some((_, n)) => *n += 1,
            None => cats.push((cat, 1)),
        }
    }
    cats.sort();
    sum.by_cat = cats;
    Ok(sum)
}

/// Dependency-free minimal JSON parser — just enough to validate and
/// walk the trace files this crate writes (and reasonable foreign
/// ones). Numbers are kept as raw text: the caller decides how to
/// interpret them, and no lossy float round-trip happens here.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Val {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number, as raw text.
        Num(String),
        /// A string (escapes decoded minimally).
        Str(String),
        /// An array.
        Arr(Vec<Val>),
        /// An object, fields in document order.
        Obj(Vec<(String, Val)>),
    }

    pub fn parse(text: &str) -> Result<Val, String> {
        let b = text.as_bytes();
        let mut i = 0usize;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Val, String> {
        skip_ws(b, i);
        match b.get(*i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => Ok(Val::Str(string(b, i)?)),
            Some(b't') => lit(b, i, "true", Val::Bool(true)),
            Some(b'f') => lit(b, i, "false", Val::Bool(false)),
            Some(b'n') => lit(b, i, "null", Val::Null),
            Some(_) => number(b, i),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: Val) -> Result<Val, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {i}", i = *i))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<Val, String> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        let digits_from = *i;
        while *i < b.len()
            && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *i += 1;
        }
        if *i == digits_from {
            return Err(format!("invalid number at byte {start}"));
        }
        Ok(Val::Num(String::from_utf8_lossy(&b[start..*i]).into_owned()))
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        debug_assert_eq!(b[*i], b'"');
        *i += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*i) {
            *i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = b.get(*i) else { break };
                    *i += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => other as char,
                    });
                }
                other => out.push(other as char),
            }
        }
        Err("unterminated string".into())
    }

    fn object(b: &[u8], i: &mut usize) -> Result<Val, String> {
        *i += 1; // '{'
        let mut fields = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(Val::Obj(fields));
        }
        loop {
            skip_ws(b, i);
            if b.get(*i) != Some(&b'"') {
                return Err(format!("expected object key at byte {i}", i = *i));
            }
            let key = string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected ':' at byte {i}", i = *i));
            }
            *i += 1;
            fields.push((key, value(b, i)?));
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(Val::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {i}", i = *i)),
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> Result<Val, String> {
        *i += 1; // '['
        let mut items = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            items.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(Val::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {i}", i = *i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parse_and_default() {
        let f = TraceFilter::default();
        assert!(CATEGORIES.iter().all(|c| f.allows(c.name())));
        assert_eq!(TraceFilter::parse("all"), Ok(f));
        assert!(TraceFilter::parse("epoch").is_err(), "the epoch category is gone");
        let only = TraceFilter::parse("drain").unwrap();
        assert!(only.allows("drain") && !only.allows("reloc"));
        assert!(TraceFilter::looks_like_filter("reloc,drain"));
        assert!(!TraceFilter::looks_like_filter("out.json"));
    }

    #[test]
    fn filter_typo_is_an_error() {
        let err = TraceFilter::parse("relocs").unwrap_err();
        assert!(err.contains("`relocs`") && err.contains("reloc,drain"), "{err}");
    }

    #[test]
    fn controller_trace_spans_and_roundtrip() {
        let mut t = ControllerTrace::new(2, TraceFilter::default());
        t.job_start(0, 7, 100);
        t.drain_update(110, 24, 24, 8); // enter drain
        t.drain_update(120, 8, 24, 8); // exit drain
        t.note_refresh(130);
        t.job_retire(0, 150);
        t.job_start(1, 9, 160); // left open → closed by finish()
        let buf = t.finish(200);
        assert_eq!(buf.events().len(), 4);

        let src = MergeSource { tid: 1, ts_scale: 4, buf };
        let dir = std::env::temp_dir().join("figaro-telemetry-test");
        let path = dir.join("t1.json");
        write_chrome_trace(&path, &[src]).unwrap();
        let sum = summarize_file(&path).unwrap();
        assert_eq!(sum.events, 4);
        assert_eq!(sum.complete, 3);
        assert_eq!(sum.instant, 1);
        assert!(sum.balanced());
        assert_eq!(sum.max_ts, 200 * 4);
        assert_eq!(
            sum.by_cat,
            vec![("drain".into(), 1), ("refresh".into(), 1), ("reloc".into(), 2)]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_orders_by_time_then_lane() {
        let mut a = TraceBuffer::new(TraceFilter::default());
        a.instant(Cat::Warm, "warm_resume", 5, 0);
        let mut b = TraceBuffer::new(TraceFilter::default());
        b.instant(Cat::Refresh, "refresh", 3, 0);
        let dir = std::env::temp_dir().join("figaro-telemetry-test");
        let path = dir.join("t2.json");
        write_chrome_trace(
            &path,
            &[
                MergeSource { tid: 0, ts_scale: 1, buf: a },
                MergeSource { tid: 1, ts_scale: 1, buf: b },
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let refresh_at = text.find("refresh").unwrap();
        let warm_at = text.find("warm_resume").unwrap();
        assert!(refresh_at < warm_at, "earlier ts must be written first");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summarize_rejects_malformed() {
        assert!(summarize_str("{\"traceEvents\":}").is_err());
        assert!(summarize_str("[]").is_err());
        assert!(summarize_str("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    }
}
