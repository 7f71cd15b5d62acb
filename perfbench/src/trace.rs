//! In-memory spans around the benchmark's calls into each layer, per-layer
//! self time, and a std-only Chrome trace-event writer (the JSON format
//! Perfetto and `chrome://tracing` open).
//!
//! A span's name is `<layer>.<call>`; its layer is the part before the
//! first dot. Spans of one operation share an operation id. Spans on
//! thread 0 are the driver's; rank `r`'s spans, recorded inside the
//! benchmark's own executor closures, are on thread `r + 1`; service
//! jobs' queue and execution intervals, rebuilt from their `JobStats`,
//! are on lanes from [`SERVICE_LANES`] up.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// First trace lane of service-job intervals (lanes below it are the
/// driver and the ranks).
pub const SERVICE_LANES: u32 = 100;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
    /// 0 = driver thread, `r + 1` = rank `r`.
    pub tid: u32,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder. When off, every call is a no-op that reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span ([`Tracer::enter`] → [`Tracer::exit`]).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

impl Open {
    /// No parent: a top-level span.
    pub const ROOT: Open = Open(None);
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose timestamps count from `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off; recorded spans are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a driver-thread span, nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
            tid: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `span` (and any span left open inside it).
    pub fn exit(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
            self.spans[top].end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, op);
        let out = f();
        self.exit(s);
        out
    }

    /// Record a finished interval measured elsewhere (a rank's span
    /// returned from an executor closure, or an interval reconstructed
    /// from the program's own statistics), as a child of `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        tid: u32,
        start: Instant,
        end: Instant,
        parent: Open,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent: parent.0,
            op,
            tid,
        };
        self.spans.push(span);
    }

    /// Per-layer self time in seconds: each span's duration minus the
    /// part of it covered by its children (overlapping children — ranks
    /// running in parallel — count once).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete `"X"` events,
    /// microsecond timestamps), with thread names for the driver and
    /// each rank.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            s,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
            json_str(process)
        );
        let mut tids: Vec<u32> = self.spans.iter().map(|sp| sp.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let name = match tid {
                0 => "driver".to_string(),
                r @ 1..SERVICE_LANES => format!("rank {}", r - 1),
                l => format!("service jobs {}", l - SERVICE_LANES),
            };
            let _ = write!(
                s,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                json_str(&name)
            );
        }
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                json_str(sp.name),
                json_str(sp.layer()),
                sp.tid,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.op,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let s = t.enter("core.x", 0);
        t.exit(s);
        t.record("core.y", 0, 1, Instant::now(), Instant::now(), s);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut t = Tracer::on(epoch);
        t.spans.push(Span {
            name: "machine.submit",
            start_ns: 0,
            end_ns: 10_000_000,
            parent: None,
            op: 0,
            tid: 0,
        });
        let parent = Open(Some(0));
        // Two ranks overlapping on [2, 8) ms: 6 ms covered, 4 ms self.
        t.record("core.rank", 0, 1, at(2), at(7), parent);
        t.record("core.rank", 0, 2, at(3), at(8), parent);
        let st = t.self_times();
        assert!((st["machine"] - 0.004).abs() < 1e-9);
        assert!((st["core"] - 0.010).abs() < 1e-9);

        let json = t.chrome_json("bench \"x\"");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.contains("\"rank 1\""));
    }

    #[test]
    fn nested_enter_exit_links_parents() {
        let mut t = Tracer::on(Instant::now());
        let a = t.enter("core.op", 7);
        let b = t.enter("matrix.k", 7);
        t.exit(b);
        t.exit(a);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
