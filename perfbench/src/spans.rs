//! In-memory span recording for the traced run.
//!
//! A span is a named interval on one thread with an optional parent (the
//! span that was open when it began). Spans live in a per-thread
//! [`Recorder`] until the run ends; only then are they summarized into
//! self times (a span's duration minus the part its children cover) and
//! written out. Recording is two clock reads and a vector push — no
//! locks, no I/O — so the traced run disturbs the measured code as little
//! as a wrapper can.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store of one thread. Every thread of a run shares the same epoch
/// so spans from different threads line up on one time axis.
pub struct Recorder {
    epoch: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: &'static str) -> Self {
        Self {
            epoch,
            thread,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Per-name totals: call count, summed duration, and summed self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child);
        }
        out
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Writes every span of `recorders` as tab-separated lines
/// (`thread name id parent start_ns end_ns`), followed by one
/// `# total` line per thread and span name.
pub fn write_tsv(path: &Path, recorders: &[&Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tname\tid\tparent\tstart_ns\tend_ns")?;
    for rec in recorders {
        for (id, s) in rec.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{id}\t{parent}\t{}\t{}",
                rec.thread, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    for rec in recorders {
        for (name, t) in rec.summary() {
            writeln!(
                out,
                "# total\t{}\t{name}\tcount={}\ttotal_ns={}\tself_ns={}",
                rec.thread, t.count, t.total_ns, t.self_ns
            )?;
        }
    }
    out.flush()
}

/// Cost of recording one empty span (ns), the median of several batches.
/// Per-call figures of nanosecond-scale functions are reported net of it.
pub fn timer_overhead_ns() -> f64 {
    let mut batches = Vec::new();
    for _ in 0..7 {
        let mut rec = Recorder::new(Instant::now(), "calibrate");
        const N: usize = 20_000;
        for _ in 0..N {
            let id = rec.begin("empty");
            rec.end(id);
        }
        let mean = rec.durations("empty").iter().sum::<f64>() / N as f64;
        batches.push(mean);
    }
    crate::stats::median(&batches).expect("seven batches")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(Instant::now(), "t");
        let outer = rec.begin("outer");
        rec.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(outer);
        let sum = rec.summary();
        let (o, i) = (sum["outer"], sum["inner"]);
        assert_eq!((o.count, i.count), (1, 2));
        assert_eq!(i.self_ns, i.total_ns, "leaf spans are all self time");
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 4_000_000);
    }

    #[test]
    fn parents_link_to_the_innermost_open_span() {
        let mut rec = Recorder::new(Instant::now(), "t");
        let a = rec.begin("a");
        let b = rec.begin("b");
        rec.end(b);
        rec.end(a);
        let c = rec.begin("c");
        rec.end(c);
        let s = rec.spans();
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!(s[1].parent, a);
        assert_eq!(s[2].parent, NO_PARENT);
    }
}
