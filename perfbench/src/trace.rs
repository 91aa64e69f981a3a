//! In-memory spans and the summary statistics the benchmark reports.
//!
//! A span is one timed call into a layer, recorded from the benchmark's
//! own code: name, start, end, the span it ran under, the request it
//! belongs to, and how many unit operations it covered (so a batch of
//! BFS calls can be one span). Spans stay in memory and are written out
//! once, at the end of a traced run.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder; with `enabled == false` every call is a no-op.
/// Spans recorded without an explicit parent nest under the innermost
/// span opened with [`Tracer::open`].
pub struct Tracer {
    pub enabled: bool,
    base: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens an enclosing span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64) {
        let now = Instant::now();
        if let Some(i) = self.record(name, now, now, None, req, 1) {
            self.open.push(i);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.base).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
        count: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.or_else(|| self.open.last().copied()),
            req,
            count,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Times `f` as one span of `count` operations.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req, count);
        out
    }

    /// Self time of every span: its duration minus the part of it its
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Durations (ns) of every span called `name`, one per span.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Mean self time per unit operation of the spans called `name`.
    pub fn per_op_ns(&self, name: &str) -> f64 {
        let (own, count) = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .fold((0u64, 0u64), |(own, count), (s, ns)| {
                (own + ns, count + s.count)
            });
        if count == 0 {
            0.0
        } else {
            own as f64 / count as f64
        }
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"req\":{},\"count\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.count
            );
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Per-request latencies (s) with their op class, kept in storage that
/// is allocated and touched up front: the benchmark's own bookkeeping
/// then adds the same resident memory to every run, so `peak_rss_mb`
/// does not grow with the number of requests a run managed to send.
/// Quantiles sort the storage in place, again without allocating.
pub struct Samples {
    items: Vec<(f32, u8)>,
    len: usize,
    classes: Vec<&'static str>,
}

impl Samples {
    /// More than four times the samples of the busiest 30 s run
    /// measured (224 thousand, `serve_mixed`), so a faster program does
    /// not outgrow it and show a jump in `peak_rss_mb`.
    const CAPACITY: usize = 1 << 20;

    pub fn new() -> Samples {
        Samples {
            items: vec![(1.0, u8::MAX); Self::CAPACITY],
            len: 0,
            classes: Vec::new(),
        }
    }

    pub fn push(&mut self, class: &'static str, secs: f64) {
        let c = match self.classes.iter().position(|&k| k == class) {
            Some(c) => c,
            None => {
                self.classes.push(class);
                self.classes.len() - 1
            }
        };
        let item = (secs as f32, u8::try_from(c).expect("few op classes"));
        match self.items.get_mut(self.len) {
            Some(slot) => *slot = item,
            None => self.items.push(item),
        }
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Nearest-rank quantiles (s) of every class, as
    /// `(class, samples, p50, p99)`.
    pub fn by_class(&mut self) -> Vec<(&'static str, usize, f64, f64)> {
        let v = &mut self.items[..self.len];
        v.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.total_cmp(&b.0)));
        let mut out = Vec::new();
        for chunk in v.chunk_by(|a, b| a.1 == b.1) {
            let q = |p: f64| f64::from(chunk[nearest_rank(chunk.len(), p)].0);
            out.push((
                self.classes[usize::from(chunk[0].1)],
                chunk.len(),
                q(0.5),
                q(0.99),
            ));
        }
        out
    }

    /// The nearest-rank `q`-quantile (s) over all classes.
    pub fn quantile(&mut self, q: f64) -> f64 {
        let v = &mut self.items[..self.len];
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v.get(nearest_rank(v.len(), q))
            .map_or(0.0, |x| f64::from(x.0))
    }
}

/// The 0-based index of the nearest-rank `q`-quantile of `n` values.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = s.len();
    if !k.is_multiple_of(2) {
        s[k / 2]
    } else {
        (s[k / 2 - 1] + s[k / 2]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let a = t.base;
        let p = t.record("outer", a, a + Duration::from_micros(10), None, 1, 1);
        t.record(
            "inner",
            a + Duration::from_micros(2),
            a + Duration::from_micros(6),
            p,
            1,
            1,
        );
        assert_eq!(t.self_ns(), vec![6_000, 4_000]);
    }

    #[test]
    fn nearest_rank_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        let mut s = Samples::new();
        for x in 1..=100 {
            s.push(if x % 2 == 0 { "even" } else { "odd" }, f64::from(x));
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(
            s.by_class(),
            vec![("odd", 50, 49.0, 99.0), ("even", 50, 50.0, 100.0)]
        );
    }
}
