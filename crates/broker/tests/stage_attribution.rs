//! Stage attribution counts each microsecond of a tick once: socket-drain
//! time a transport notes inside `broadcast` is reported as drain, and is
//! not also part of the enqueue stage around it.

use std::thread;
use std::time::{Duration, Instant};

use bdisk_broker::{BroadcastEngine, DeliveryStats, EngineConfig, Frame, Transport};
use bdisk_obs::trace::{self, SpanKind};
use bdisk_sched::{BroadcastProgram, DiskLayout};

/// Wall time each broadcast spends "flushing".
const DRAIN: Duration = Duration::from_millis(10);
const SLOTS: u64 = 5;

/// A transport whose every broadcast is one socket flush: it notes the
/// flush's measured wall time as drain, and keeps what it noted.
#[derive(Default)]
struct DrainingTransport {
    noted: Vec<u64>,
}

impl Transport for DrainingTransport {
    fn broadcast(&mut self, _frame: Frame) -> DeliveryStats {
        let start = Instant::now();
        thread::sleep(DRAIN);
        let us = start.elapsed().as_micros() as u64;
        trace::note_drain_micros(us);
        self.noted.push(us);
        DeliveryStats::default()
    }

    fn active_clients(&self) -> usize {
        1
    }
}

#[test]
fn drain_noted_inside_broadcast_is_not_counted_as_enqueue() {
    let layout = DiskLayout::with_delta(&[2, 4], 1).unwrap();
    let engine = BroadcastEngine::new(
        BroadcastProgram::generate(&layout).unwrap(),
        EngineConfig {
            max_slots: SLOTS,
            ..EngineConfig::default()
        },
    );
    trace::set_sample_every(1);
    let since = trace::spans().head();
    let mut transport = DrainingTransport::default();
    engine.run(&mut transport);
    trace::set_sample_every(0);

    let stages: Vec<_> = trace::spans()
        .since(since)
        .spans
        .into_iter()
        .filter(|s| s.kind == SpanKind::Stage)
        .collect();
    assert_eq!(stages.len() as u64, SLOTS);
    for (span, &noted) in stages.iter().zip(&transport.noted) {
        let [_, _, enqueue_us, drain_us] = span.phases;
        assert_eq!(drain_us, noted as f64, "slot {}", span.index);
        // All that is left of the call is the transport's own bookkeeping.
        assert!(
            enqueue_us < DRAIN.as_micros() as f64 / 2.0,
            "slot {}: enqueue {enqueue_us} µs still holds the {drain_us} µs drain",
            span.index
        );
    }
}
