//! The benchmark's own tracing: spans around the calls it makes into the
//! program, and an exact-count histogram that folds the per-step spans.
//!
//! Nothing here reaches inside the program: every span opens and closes
//! in the benchmark around a public call.

use std::time::Instant;

/// One timed interval, relative to the run's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The spans of one run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start_s: now, end_s: now, parent });
        self.spans.len() - 1
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Total seconds of every span with this name.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).fold(0.0, |a, b| a + b)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {}}}",
                    s.name,
                    s.start_s,
                    s.end_s,
                    s.parent.map_or("null".to_owned(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
    }
}

/// Sub-buckets per power of two: values are kept to 1/16 (6%) precision.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of nanosecond durations. Counts are exact;
/// quantiles resolve to the lower edge of their bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Self { buckets: vec![0; (SUB + u64::from(64 - SUB_BITS) * SUB) as usize], count: 0 }
    }

    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros(); // >= SUB_BITS
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        (SUB + u64::from(exp - SUB_BITS) * SUB + sub) as usize
    }

    fn lower_edge(bucket: usize) -> u64 {
        let b = bucket as u64;
        if b < SUB {
            return b;
        }
        let exp = (b - SUB) / SUB + u64::from(SUB_BITS);
        let sub = (b - SUB) % SUB;
        (SUB + sub) << (exp - u64::from(SUB_BITS))
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q` quantile (nearest rank), in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return Self::lower_edge(i);
            }
        }
        Self::lower_edge(self.buckets.len() - 1)
    }
}
