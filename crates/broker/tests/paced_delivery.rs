//! Paced delivery is on time: a paced engine's frames reach their clients
//! within a fraction of a slot of the slot's due time, over the evented TCP
//! transport and over a batching in-memory bus alike. Both transports
//! batch writes on free runs; these tests pin that batching never holds a
//! paced engine's frames back.

use std::thread;
use std::time::{Duration, Instant};

use bdisk_broker::{
    Backpressure, BroadcastEngine, BusTuning, EngineConfig, EventedTcpTransport, InMemoryBus,
    TcpFrameReader, TcpTransportConfig,
};
use bdisk_sched::{BroadcastPlan, DiskLayout};

const SLOT: Duration = Duration::from_millis(20);
const SLOTS: u64 = 25;

fn paced_engine(channels: usize) -> BroadcastEngine {
    let layout = DiskLayout::with_delta(&[4, 8], 1).unwrap();
    let plan = BroadcastPlan::generate(&layout, channels).unwrap();
    BroadcastEngine::with_plan(
        plan,
        EngineConfig {
            max_slots: SLOTS,
            slot_duration: SLOT,
            stop_when_no_clients: false,
            ..EngineConfig::default()
        },
    )
}

/// Slot `seq`'s due time on a schedule read just before `engine.run` (the
/// engine's own clock starts a little later, so this is the stricter one).
fn due(t0: Instant, seq: u64) -> Instant {
    t0 + SLOT * seq as u32
}

#[test]
fn evented_tcp_delivers_every_paced_frame_within_half_a_slot() {
    for channels in [1usize, 2] {
        let mut transport = EventedTcpTransport::bind(TcpTransportConfig::default()).unwrap();
        let addr = transport.local_addr();
        let reader = thread::spawn(move || {
            let mut reader = TcpFrameReader::connect(addr).unwrap();
            let mut got = Vec::new();
            while let Some(frame) = reader.recv().unwrap() {
                got.push((frame.seq, frame.channel, Instant::now()));
            }
            got
        });
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        let t0 = Instant::now();
        let report = paced_engine(channels).run(&mut transport);
        assert_eq!(report.slots_sent, SLOTS);
        let got = reader.join().unwrap();
        assert_eq!(got.len(), SLOTS as usize * channels, "{channels} channels");
        for (seq, channel, at) in got {
            let late = at.saturating_duration_since(due(t0, seq));
            assert!(
                late < SLOT / 2,
                "{channels} channels: slot {seq} channel {channel} arrived {late:?} after its due time"
            );
        }
    }
}

#[test]
fn batched_bus_hands_each_paced_tick_over_before_the_next_is_due() {
    let tuning = BusTuning {
        batch: 32,
        ..BusTuning::throughput()
    };
    let mut bus = InMemoryBus::with_tuning(1024, Backpressure::Block, tuning);
    let mut sub = bus.subscribe();
    let reader = thread::spawn(move || {
        let mut got = Vec::new();
        while let Some(frame) = sub.recv() {
            got.push((frame.seq, frame.channel, Instant::now()));
        }
        got
    });
    let t0 = Instant::now();
    let report = paced_engine(2).run(&mut bus);
    assert_eq!(report.slots_sent, SLOTS);
    let got = reader.join().unwrap();
    assert_eq!(got.len(), SLOTS as usize * 2);
    for (seq, channel, at) in got {
        assert!(
            at < due(t0, seq + 1),
            "slot {seq} channel {channel} reached the subscriber {:?} after the next tick was due",
            at - due(t0, seq + 1)
        );
    }
}
