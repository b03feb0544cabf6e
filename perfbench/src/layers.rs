//! Null-neighbour layer rows: each layer called directly by the
//! benchmark, with nothing above or below it, at the workload's scale.
//! Every traced run reports all of them ([`probes`]), so each workload's
//! JSON line holds the same per-layer metrics.
//!
//! Cheap calls are timed in batches (a batch grows until it lasts
//! [`MIN_BATCH`], then the median of [`BATCHES`] batches is kept); the
//! arbiter, whose cost depends on the queue state each call leaves
//! behind, is timed per call with spans, net of the span cost.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bdisk_broker::transport::{body_crc_ok, LEN_PREFIX};
use bdisk_broker::{
    crc32, encode_request, BroadcastEngine, DeliveryStats, EngineConfig, Frame, PagePayloads,
    PullRequest, SlotArbiter, Transport, UpstreamParser,
};
use bdisk_sched::{BroadcastPlan, ChannelId, DiskLayout, PageId, Slot};

use crate::report::Report;
use crate::spans::{timer_overhead_ns, Recorder};
use crate::stats::{mean, median};
use crate::{d5, d5_plan, DELTA};

const MIN_BATCH: Duration = Duration::from_millis(10);
const BATCHES: usize = 5;

/// Every probe row, at the workload's page size and pull setting.
pub fn probes(page_size: usize, pull: bool, seed: u64, layers: &mut Report) {
    sched_layers(layers);
    frame_layers(page_size, layers);
    null_engine(page_size, pull, layers);
    pull_layers(layers);
    crate::sim::core_layers(seed, layers);
}

/// Median ns per call of `batch(n)`, which must make `n` calls.
pub fn per_call_ns(mut batch: impl FnMut(u64)) -> f64 {
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        batch(n);
        if t.elapsed() >= MIN_BATCH || n >= 1 << 32 {
            break;
        }
        n *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(n);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples).expect("at least one batch")
}

/// `bdisk-sched` rows: the per-tick plan hash at D5 and at the 500-page
/// layout `repro bench` runs, slot lookup, and plan generation.
pub fn sched_layers(layers: &mut Report) {
    let plan = d5_plan();
    layers.metric(
        "sched.plan_hash_us",
        per_call_ns(|n| {
            for _ in 0..n {
                black_box(black_box(&plan).plan_hash());
            }
        }) / 1e3,
        "us",
    );
    let small = BroadcastPlan::generate(
        &DiskLayout::with_delta(&[50, 200, 250], DELTA).expect("valid layout"),
        1,
    )
    .expect("valid plan");
    layers.metric(
        "sched.plan_hash_us_bench_layout",
        per_call_ns(|n| {
            for _ in 0..n {
                black_box(black_box(&small).plan_hash());
            }
        }) / 1e3,
        "us",
    );
    layers.metric(
        "sched.slot_at_ns",
        per_call_ns(|n| {
            for seq in 0..n {
                black_box(plan.slot_at(ChannelId(0), black_box(seq)));
            }
        }),
        "ns",
    );
    let layout = d5(DELTA);
    layers.metric(
        "sched.plan_generate_ms",
        per_call_ns(|n| {
            for _ in 0..n {
                black_box(BroadcastPlan::generate(black_box(&layout), 1).expect("valid plan"));
            }
        }) / 1e6,
        "ms",
    );
}

/// Frame rows at one page size: encode into the shared wire buffer,
/// decode (CRC verify included), the receiver's CRC check, and raw CRC
/// throughput over the payload.
pub fn frame_layers(page_size: usize, layers: &mut Report) {
    let payloads = PagePayloads::generate(64, page_size);
    let frame = |i: u64| payloads.frame(i, Slot::Page(PageId((i % 64) as u32)));
    layers.metric(
        "frame.encode_ns",
        per_call_ns(|n| {
            for i in 0..n {
                black_box(frame(i).encode_shared());
            }
        }),
        "ns",
    );
    let wires: Vec<_> = (0..64).map(|i| frame(i).encode()).collect();
    layers.metric(
        "frame.decode_ns",
        per_call_ns(|n| {
            for i in 0..n {
                let wire = &wires[(i % 64) as usize];
                black_box(Frame::decode(&wire[LEN_PREFIX..]).expect("intact frame"));
            }
        }),
        "ns",
    );
    layers.metric(
        "fleet.crc_check_ns",
        per_call_ns(|n| {
            for i in 0..n {
                let wire = &wires[(i % 64) as usize];
                black_box(body_crc_ok(&wire[LEN_PREFIX..]));
            }
        }),
        "ns",
    );
    let page = payloads.page(PageId(1)).clone();
    let crc_ns = per_call_ns(|n| {
        for _ in 0..n {
            black_box(crc32(black_box(&page)));
        }
    });
    // bytes per ns = GB/s; x1000 = MB/s.
    layers.metric("frame.crc_mb_s", page.len() as f64 / crc_ns * 1e3, "MB/s");
}

/// A transport that accepts every frame and goes nowhere: the engine
/// alone. Times from the first broadcast to `finish`, so per-run set-up
/// (payload generation) stays out of the rate.
struct NullTransport {
    first: Option<Instant>,
    elapsed: Duration,
}

impl Transport for NullTransport {
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
        self.first.get_or_insert_with(Instant::now);
        DeliveryStats {
            delivered: 1,
            bytes: black_box(&frame).wire_len() as u64,
            max_queue: 1,
            ..DeliveryStats::default()
        }
    }

    fn active_clients(&self) -> usize {
        1
    }

    fn finish(&mut self) -> DeliveryStats {
        if let Some(first) = self.first {
            self.elapsed = first.elapsed();
        }
        DeliveryStats::default()
    }
}

/// `engine.null_slots_per_s`: the engine at D5 over [`NullTransport`].
/// Pull arbitration is on when the workload's engine has it (with no
/// requests, it only consults the arbiter each slot).
pub fn null_engine(page_size: usize, pull: bool, layers: &mut Report) {
    let plan = d5_plan();
    let run = |slots: u64| {
        let mut engine = BroadcastEngine::with_plan(
            plan.clone(),
            EngineConfig {
                max_slots: slots,
                stop_when_no_clients: false,
                page_size,
                ..EngineConfig::default()
            },
        );
        if pull {
            engine = engine.with_pull(crate::broker::pull_config());
        }
        let mut t = NullTransport {
            first: None,
            elapsed: Duration::ZERO,
        };
        engine.run(&mut t);
        // First broadcast to finish spans slots - 1 full ticks plus the
        // last one's broadcast; close enough at these slot counts.
        t.elapsed
    };
    let mut slots = 256u64;
    while run(slots) < MIN_BATCH * 5 && slots < 1 << 26 {
        slots *= 2;
    }
    let rates: Vec<f64> = (0..BATCHES)
        .map(|_| slots as f64 / run(slots).as_secs_f64())
        .collect();
    layers.metric(
        "engine.null_slots_per_s",
        median(&rates).expect("batches"),
        "1/s",
    );
}

/// Upstream parser and slot arbiter rows at the `pull_flood` load: two
/// users each submitting one request per slot, D5 plan, adaptive mode.
pub fn pull_layers(layers: &mut Report) {
    let plan = d5_plan();
    let pages = plan.num_pages() as u32;
    let records: Vec<u8> = (0..256u32)
        .flat_map(|i| encode_request(i % 2, PageId(i * 17 % pages), i as u64))
        .collect();
    let mut parser = UpstreamParser::new();
    let mut parsed = Vec::with_capacity(256);
    let per_feed = per_call_ns(|n| {
        for _ in 0..n {
            parser.feed(black_box(&records), &mut parsed);
            black_box(&parsed);
            parsed.clear();
        }
    });
    layers.metric("upstream.parse_ns", per_feed / 256.0, "ns");

    let overhead = timer_overhead_ns();
    let mut arbiter = SlotArbiter::new(crate::broker::pull_config(), 1);
    let mut rec = Recorder::new(Instant::now(), "arbiter");
    let ch = ChannelId(0);
    for seq in 0..100_000u64 {
        for user in 0..2u32 {
            let req = PullRequest {
                user,
                page: PageId(((seq * 2 + user as u64) % pages as u64) as u32),
                min_seq: seq,
            };
            rec.time("arbiter.submit", || {
                arbiter.submit(req, &plan, 0, seq.saturating_sub(1))
            });
        }
        let push = plan.slot_at(ch, seq);
        black_box(rec.time("arbiter.arbitrate", || arbiter.arbitrate(push, ch, seq)));
    }
    for (name, span) in [
        ("arbiter.submit_ns", "arbiter.submit"),
        ("arbiter.arbitrate_ns", "arbiter.arbitrate"),
    ] {
        let m = mean(&rec.durations(span)).unwrap_or(f64::NAN);
        layers.metric(name, (m - overhead).max(0.0), "ns");
    }
}
