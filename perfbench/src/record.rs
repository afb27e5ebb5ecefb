//! Metrics, failure accounting and the JSON the benchmark emits.
//!
//! Every number leaves the benchmark as a [`Metric`]: a checked name, a
//! unit, a better direction and the value as measured. The result line
//! and the run record are written by the small JSON writer below (no
//! serde: the workspace builds offline with the standard library only).

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, hit rates).
    Higher,
    /// Smaller values are better (latency, time, energy).
    Lower,
}

impl Better {
    /// The word used in `BENCHMARK.json` and the printed table.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Checked name (see [`valid_name`]).
    pub name: String,
    /// Checked unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The value as measured, all digits kept.
    pub value: f64,
}

impl Metric {
    /// A metric; panics on a malformed name or unit or a non-finite
    /// value, since those are bugs in the benchmark itself.
    pub fn new(name: &str, unit: &'static str, better: Better, value: f64) -> Self {
        assert!(valid_name(name), "malformed metric name `{name}`");
        assert!(valid_unit(unit), "malformed unit `{unit}` for `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        Self { name: name.to_string(), unit, better, value }
    }
}

/// The metric-name grammar: starts with a letter or digit, then at most
/// 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes.iter().all(|&b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// The unit grammar: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// Attempted and failed runs, with a reason for every failure. A run is
/// one simulation (or replay) the benchmark executed; it fails if it
/// panicked, a core stopped at the cycle cap, or an output check failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Failure reasons, one per failed run.
    pub failures: Vec<String>,
}

impl Tally {
    /// Runs `f` as one attempted run. A panic inside `f` is caught and
    /// counted; otherwise `f`'s own list of failed checks decides. The
    /// run's value comes back only when it passed every check.
    pub fn run<T>(&mut self, label: &str, f: impl FnOnce() -> (T, Vec<String>)) -> Option<T> {
        self.attempted += 1;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok((value, problems)) if problems.is_empty() => Some(value),
            Ok((_, problems)) => {
                self.failures.push(format!("{label}: {}", problems.join("; ")));
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                self.failures.push(format!("{label}: panicked: {msg}"));
                None
            }
        }
    }

    /// Runs that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// A JSON value, enough for the result line and the run record.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; integers up to 2^53 print without a fraction.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// A whole-number value.
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` on f64 prints the shortest text that parses back to
            // the same bits, so values keep all their digits.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Null | Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}`.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(tally.failed() == 0)),
        ("attempted", Json::int(tally.attempted.max(1))),
        ("failed", Json::int(tally.failed())),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let v = Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                        ]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Metrics with their better direction, for the run record.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.label())),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// Median of `xs` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// A minimal JSON reader (tests only), enough to read back what
/// [`Json::render`] writes and `BENCHMARK.json`. Panics on bad input.
#[cfg(test)]
pub fn parse(text: &str) -> Json {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input");
    v
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected `{}` at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.eat(b'{');
                let mut pairs = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(pairs);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.string() else { unreachable!() };
                    self.eat(b':');
                    pairs.push((k, self.value()));
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                    } else {
                        self.eat(b'}');
                        return Json::Obj(pairs);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    if self.s[self.i] == b',' {
                        self.i += 1;
                    } else {
                        self.eat(b']');
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => self.string(),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap())
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }

    fn string(&mut self) -> Json {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return Json::Str(out),
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                            );
                            self.i += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences whole.
                    let len = match c {
                        0xF0.. => 4,
                        0xE0.. => 3,
                        0xC0.. => 2,
                        _ => 1,
                    };
                    let start = self.i - 1;
                    out.push_str(std::str::from_utf8(&self.s[start..start + len]).unwrap());
                    self.i = start + len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_grammar() {
        for good in ["sim_ipc", "setup_s", "cpu.hierarchy.access.ns_per_call", "9lives", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "-lead", "has space", "semi;colon", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for good in ["ms", "s", "1/s", "count", "nJ/inst", "%", "bus_cycles"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "has space", "x".repeat(17).as_str(), "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "malformed metric name")]
    fn malformed_metric_name_is_refused() {
        let _ = Metric::new("bad name", "s", Better::Lower, 1.0);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_metric_is_refused() {
        let _ = Metric::new("ok", "s", Better::Lower, f64::NAN);
    }

    #[test]
    fn json_round_trips_every_value_bit_for_bit() {
        let values = [0.1 + 0.2, 1e-300, 123_456_789.123_456_78, 2.5e15, 7.0, 1.0 / 3.0];
        let metrics: Vec<Metric> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Metric::new(&format!("m{i}.x"), "ns", Better::Lower, v))
            .collect();
        let mut tally = Tally { attempted: 3, ..Tally::default() };
        tally.failures.push("a \"quoted\" \\ reason\nwith\ttabs \u{1} and ü".into());
        let line = result_line(&tally, &metrics).render();
        assert!(!line.contains('\n'), "the result must be one line");
        let Json::Obj(top) = parse(&line) else { panic!("not an object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(top[0].1, Json::Bool(false));
        assert_eq!(top[1].1, Json::Num(3.0));
        assert_eq!(top[2].1, Json::Num(1.0));
        let Json::Obj(ms) = &top[3].1 else { panic!("metrics not an object") };
        for ((name, v), m) in ms.iter().zip(&metrics) {
            assert_eq!(name, &m.name);
            let Json::Obj(fields) = v else { panic!() };
            let Json::Num(n) = fields[0].1 else { panic!() };
            assert_eq!(n.to_bits(), m.value.to_bits(), "{name} lost digits");
            assert_eq!(fields[1].1, Json::str(m.unit));
        }
        // Strings survive escaping.
        let s = Json::Arr(vec![Json::Str(tally.failures[0].clone()), Json::Null]).render();
        assert_eq!(parse(&s), Json::Arr(vec![Json::Str(tally.failures[0].clone()), Json::Null]));
    }

    #[test]
    fn failures_are_counted_never_dropped() {
        let mut t = Tally::default();
        assert_eq!(t.run("ok", || (1, vec![])), Some(1));
        assert_eq!(t.run("bad check", || (2, vec!["stats differ".into()])), None);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r: Option<u32> = t.run("boom", || panic!("cycle cap"));
        let r2: Option<u32> = t.run("boom2", || std::panic::panic_any(17u8));
        std::panic::set_hook(prev);
        assert_eq!((r, r2), (None, None));
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed(), 3);
        assert!(t.failures[0].contains("stats differ"));
        assert!(t.failures[1].contains("cycle cap"));
        assert!(t.failures[2].contains("non-string panic"));
        let line = result_line(&t, &[]).render();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 3"), "{line}");
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
