//! The benchmark's [`Transport`] wrapper: the engine's only window to the
//! outside, so everything the benchmark needs to see or steer about a
//! broker run happens here.
//!
//! * **Run length and progress.** Every [`PROGRESS_STRIDE`] broadcasts
//!   the wrapper reads the clock once and keeps `(time, broadcasts)`, the
//!   series the stride rates are computed from. A free-running engine
//!   has no wall-clock stop, so once the run's time is up the wrapper
//!   reports zero clients; with `stop_when_no_clients` the engine then
//!   ends the run exactly as it does when its audience leaves (flush,
//!   drain, close).
//! * **Tracing** (traced runs only). Every transport call becomes a span
//!   under the caller's `engine.run` span; the first `broadcast` of each
//!   tick is timed against its due time, the gap before it is counted as
//!   engine idle time, and its start instant is kept per slot so client
//!   receipts can be split into tick lateness and delivery time.

use std::cell::Cell;
use std::time::{Duration, Instant};

use bdisk_broker::{DeliveryStats, Frame, PullRequest, Transport};
use bdisk_sched::Slot;

use crate::spans::Recorder;

/// Per-connection frame capacity the broker benchmarks bind with. An
/// engine that outruns its receivers by more than this drops frames and
/// fails the lossless gate.
pub const QUEUE_CAPACITY: usize = 65_536;
/// The clock is read once per this many broadcasts.
const PROGRESS_STRIDE: u64 = 16;

/// Tick-level trace state of one engine run.
pub struct TickTrace {
    pub rec: Recorder,
    /// `(t0_ns, slot_ns)`: slot `seq` is due at `t0 + seq * slot` (paced
    /// runs only).
    schedule: Option<(u64, u64)>,
    last_seq: Option<u64>,
    /// End of the latest transport call (a `Cell` because
    /// `active_clients` only gets `&self`).
    last_call_end_ns: Cell<Option<u64>>,
    /// First-`broadcast` time minus due time, per tick (ns; paced only).
    pub tick_late_ns: Vec<f64>,
    /// Summed gaps between a tick's last transport call and the next
    /// tick's first `broadcast` (sleep plus slot selection).
    pub idle_ns: u64,
    /// Start of each slot's first `broadcast` call (ns since the epoch),
    /// indexed by seq.
    pub broadcast_at: Vec<u64>,
}

impl TickTrace {
    pub fn new(rec: Recorder, schedule: Option<(u64, u64)>) -> Self {
        Self {
            rec,
            schedule,
            last_seq: None,
            last_call_end_ns: Cell::new(None),
            tick_late_ns: Vec::new(),
            idle_ns: 0,
            broadcast_at: Vec::new(),
        }
    }

    fn on_tick_start(&mut self, seq: u64, start_ns: u64) {
        if self.last_seq == Some(seq) {
            return;
        }
        self.last_seq = Some(seq);
        if let Some(prev) = self.last_call_end_ns.get() {
            self.idle_ns += start_ns.saturating_sub(prev);
        }
        if let Some((t0, slot)) = self.schedule {
            let due = t0 + seq * slot;
            self.tick_late_ns.push(start_ns.saturating_sub(due) as f64);
        }
        if seq as usize == self.broadcast_at.len() {
            self.broadcast_at.push(start_ns);
        }
    }
}

pub struct BenchTransport<T> {
    inner: T,
    start: Instant,
    run_for: Option<Duration>,
    expired: bool,
    broadcasts: u64,
    /// `(seconds since start, broadcasts so far)`, every
    /// [`PROGRESS_STRIDE`] broadcasts.
    pub progress: Vec<(f64, u64)>,
    pub trace: Option<TickTrace>,
}

impl<T: Transport> BenchTransport<T> {
    /// Wraps `inner` for a run starting now; with `run_for`, the run ends
    /// once that much time has passed.
    pub fn new(inner: T, run_for: Option<Duration>, trace: Option<TickTrace>) -> Self {
        Self {
            inner,
            start: Instant::now(),
            run_for,
            expired: false,
            broadcasts: 0,
            progress: vec![(0.0, 0)],
            trace,
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn into_trace(self) -> Option<TickTrace> {
        self.trace
    }

    /// Runs `f` inside a span named `name` when tracing.
    fn traced<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        match self.trace.as_mut() {
            None => f(&mut self.inner),
            Some(t) => {
                let id = t.rec.begin(name);
                let out = f(&mut self.inner);
                t.rec.end(id);
                t.last_call_end_ns
                    .set(Some(t.rec.spans()[id as usize].end_ns));
                out
            }
        }
    }

    /// Opens the `engine.run` span every transport span nests under.
    pub fn begin_run(&mut self) -> Option<u32> {
        self.trace.as_mut().map(|t| t.rec.begin("engine.run"))
    }

    pub fn end_run(&mut self, id: Option<u32>) {
        if let (Some(t), Some(id)) = (self.trace.as_mut(), id) {
            t.rec.end(id);
        }
    }
}

impl<T: Transport> Transport for BenchTransport<T> {
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
        if let Some(t) = self.trace.as_mut() {
            if frame.slot != Slot::EpochFence {
                let now = t.rec.now_ns();
                t.on_tick_start(frame.seq, now);
            }
        }
        let stats = self.traced("transport.broadcast", |inner| inner.broadcast(frame));
        self.broadcasts += 1;
        if self.broadcasts.is_multiple_of(PROGRESS_STRIDE) {
            let elapsed = self.start.elapsed();
            self.progress.push((elapsed.as_secs_f64(), self.broadcasts));
            self.expired |= self.run_for.is_some_and(|d| elapsed >= d);
        }
        stats
    }

    fn active_clients(&self) -> usize {
        let n = if self.expired {
            0
        } else {
            self.inner.active_clients()
        };
        if let Some(t) = self.trace.as_ref() {
            t.last_call_end_ns.set(Some(t.rec.now_ns()));
        }
        n
    }

    fn finish(&mut self) -> DeliveryStats {
        self.traced("transport.finish", |inner| inner.finish())
    }

    fn set_hello(&mut self, hello: Option<Frame>) {
        self.inner.set_hello(hello)
    }

    fn take_requests(&mut self, out: &mut Vec<PullRequest>) {
        self.traced("transport.take_requests", |inner| inner.take_requests(out))
    }
}

/// Mean µs per broadcast over each stride of a `(seconds, count)` series.
pub fn stride_times_us(progress: &[(f64, u64)]) -> Vec<f64> {
    progress
        .windows(2)
        .filter(|w| w[1].1 > w[0].1)
        .map(|w| (w[1].0 - w[0].0) * 1e6 / (w[1].1 - w[0].1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_times_are_microseconds_per_broadcast() {
        let series = [(0.0, 0), (0.001, 16), (0.003, 32), (0.003, 32)];
        let us = stride_times_us(&series);
        assert_eq!(us.len(), 2, "a stride with no broadcasts is skipped");
        assert!((us[0] - 62.5).abs() < 1e-9 && (us[1] - 125.0).abs() < 1e-9);
    }
}
