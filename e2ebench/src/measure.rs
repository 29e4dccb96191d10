//! Measurement helpers: the benchmark's own spans, percentiles with the
//! ten-samples-beyond rule, a stable digest, and peak RSS.

use ps_sim::stats::Percentiles;
use ps_trace::WallTimer;
use std::fmt::Write as _;

/// One span the benchmark recorded around a call into the program.
pub struct SpanRec {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Session (`s<n>`), connection (`c<n>`), incident or episode id.
    key: String,
}

/// An open span; close it with [`Spans::end`].
pub struct Open {
    id: u32,
    timer: WallTimer,
}

/// Wall-clock timer for the benchmark's calls into the program. It
/// always measures; it keeps the spans only when `keep` is set (the
/// traced run), so the untraced run pays no recording cost.
pub struct Spans {
    keep: bool,
    origin: WallTimer,
    next: u32,
    stack: Vec<u32>,
    list: Vec<SpanRec>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            keep: false,
            origin: WallTimer::start(),
            next: 0,
            stack: Vec::new(),
            list: Vec::new(),
        }
    }

    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }

    /// Wall nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        (self.origin.elapsed_ms() * 1e6) as u64
    }

    pub fn begin(&mut self, name: &'static str, key: impl FnOnce() -> String) -> Open {
        let id = self.next;
        self.next += 1;
        if self.keep {
            let start_ns = self.now_ns();
            self.list.push(SpanRec {
                id,
                parent: self.stack.last().copied(),
                name,
                start_ns,
                end_ns: start_ns,
                key: key(),
            });
        }
        self.stack.push(id);
        Open {
            id,
            timer: WallTimer::start(),
        }
    }

    /// Closes a span and returns its wall duration in milliseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let ms = open.timer.elapsed_ms();
        if self.stack.last() == Some(&open.id) {
            self.stack.pop();
        }
        if self.keep {
            let end_ns = self.now_ns();
            if let Some(rec) = self.list.iter_mut().rev().find(|r| r.id == open.id) {
                rec.end_ns = end_ns;
            }
        }
        ms
    }

    /// Records a span that began at `start_ns` (from [`Spans::now_ns`])
    /// and ends now, under the innermost open span (sessions and
    /// incidents overlap other spans, so they are not opened with
    /// [`Spans::begin`]).
    pub fn record(&mut self, name: &'static str, start_ns: u64, key: impl FnOnce() -> String) {
        if !self.keep {
            return;
        }
        let id = self.next;
        self.next += 1;
        let end_ns = self.now_ns();
        self.list.push(SpanRec {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns,
            key: key(),
        });
    }

    /// The kept spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.list {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"key\": \"{}\"}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.key
            );
        }
        out
    }
}

/// The `q` quantile of `values` (`ps_sim`'s interpolated exact
/// percentile); `None` when empty.
fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut p = Percentiles::new();
    values.iter().for_each(|&v| p.record(v));
    p.quantile(q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The highest percentile not above `want` that leaves at least ten
/// samples beyond it, as a fraction; `None` when `n < 20` leaves no tail
/// above the median.
pub fn tail_level(n: usize, want: f64) -> Option<f64> {
    if n as f64 * (1.0 - want) >= 10.0 {
        return Some(want);
    }
    let q = ((1.0 - 10.0 / n as f64) * 100.0).floor() / 100.0;
    (q > 0.5).then_some(q)
}

/// A percentile line: value, level and sample count, saying so when the
/// level had to be lowered.
pub struct Pct {
    pub value: f64,
    pub level: f64,
    pub n: usize,
    pub lowered_from: Option<f64>,
}

impl Pct {
    /// The `want` percentile of `values`, lowered by [`tail_level`] when
    /// the sample is too small; the median when no tail exists.
    pub fn of(values: &[f64], want: f64) -> Pct {
        let n = values.len();
        let level = if want <= 0.5 {
            want
        } else {
            tail_level(n, want).unwrap_or(0.5)
        };
        Pct {
            value: quantile(values, level).unwrap_or(0.0),
            level,
            n,
            lowered_from: (level < want).then_some(want),
        }
    }

    pub fn describe(&self) -> String {
        let mut s = format!("p{} over {} samples", fmt_level(self.level), self.n);
        if let Some(w) = self.lowered_from {
            let _ = write!(
                s,
                " (lowered from p{}: fewer than ten samples beyond it)",
                fmt_level(w)
            );
        }
        s
    }
}

fn fmt_level(q: f64) -> String {
    let p = q * 100.0;
    if (p - p.round()).abs() < 1e-9 {
        format!("{}", p.round() as u64)
    } else {
        format!("{p}")
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 64-bit FNV-1a: a stable digest of the virtual outputs.
pub fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
