//! In-memory spans recorded from the benchmark's side of each layer
//! boundary (spans inside the program are a later change), written out
//! as JSON when the traced run ends.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One timed interval. Spans of one request share `request`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request id, for per-request spans.
    pub request: Option<u64>,
}

/// Span recorder. Disabled tracers drop every span, so the untraced
/// run pays one branch per call.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `[start, end]`; returns the span's index for use as a
    /// parent (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends, for a parent whose
    /// children are recorded while it runs.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Ends a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, span: Option<usize>) {
        let now = self.ns(Instant::now());
        if let Some(s) = span.and_then(|i| self.spans.get_mut(i)) {
            s.end_ns = now;
        }
    }

    /// Times `f` as a span and returns its result with the elapsed
    /// seconds (measured whether or not tracing is on).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, None);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// All recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, seconds, in first-seen order.
    fn self_time_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let selfs = self_times(&self.spans);
        let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(selfs) {
            match out.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(row) => {
                    row.1 += ns as f64 / 1e9;
                    row.2 += 1;
                }
                None => out.push((span.name, ns as f64 / 1e9, 1)),
            }
        }
        out
    }

    /// Prints the self time per span name and writes the trace file.
    pub fn report(&self, workload: &str) {
        println!(
            "  self time by span name (span minus children), {} spans:",
            self.spans.len()
        );
        for (name, secs, n) in self.self_time_by_name() {
            println!("    {name:<24} {secs:>12.6} s over {n} spans");
        }
        match self.write(workload) {
            Ok(path) => println!("  trace written to {}", path.display()),
            Err(e) => println!("  trace not written: {e}"),
        }
    }

    /// Writes the spans to `<build dir>/benchmark/trace-<workload>.json`
    /// (the build dir is `CARGO_TARGET_DIR`, else `target`, relative to
    /// the working directory) and returns the path.
    fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("benchmark");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"unit\":\"ns\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        // A diagnostic, rewritten by every traced run: a torn file costs
        // nothing, and a checksum footer would stop it being JSON.
        // deepod-lint: allow(no-bare-fs-write)
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and a
/// child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| spans.get(p).map(|ps| (p, ps))) {
            let (p, ps) = parent;
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = [
            span("request", 0, 100, None),
            span("send", 10, 30, Some(0)),
            // Overlaps `send` on [20, 30]: that stretch counts once.
            span("wait", 20, 60, Some(0)),
            // Sticks out past its parent: clipped to [90, 100].
            span("parse", 90, 140, Some(0)),
            span("syscall", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 14, 40, 50, 6]);
    }

    #[test]
    fn self_times_sum_to_the_root_when_children_nest() {
        let spans = [
            span("setup", 0, 1000, None),
            span("dataset", 0, 400, Some(0)),
            span("context", 400, 450, Some(0)),
            span("model", 450, 990, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10, 400, 50, 540]);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.time("x", None, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let (v, _) = t.time("x", None, || 7);
        assert_eq!((v, t.spans().len()), (7, 1));
    }
}
