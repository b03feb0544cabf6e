//! The three broker workloads: the engine over the evented TCP transport
//! on loopback, at D5 Δ=3, with at most two receiving connections.
//!
//! * `push_fanout` — free-run, push-only, 64 B pages, a CRC-checking
//!   [`TunerFleet`] of two tuners on one thread: the broadcaster's
//!   capacity where per-tick and per-frame costs dominate.
//! * `pull_flood` — free-run, 4 KiB pages, two requester tuners writing
//!   one pull request per frame while [`PullMode::Adaptive`] arbitrates
//!   every slot: the upstream path plus the byte-bound path.
//! * `paced_clients` — 250 µs slots, two closed-loop [`LiveClient`]s (LIX
//!   and PIX) each reading its own connection on its own thread; every
//!   frame is timed from its due time to its receipt.

use std::io;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bdisk_broker::{
    BroadcastEngine, EngineConfig, EngineReport, EventedTcpTransport, FleetReport, LiveClient,
    LiveClientResult, PullConfig, PullMode, RequesterConfig, TcpFrameReader, TcpTransportConfig,
    TunerFleet,
};
use bdisk_sched::{BroadcastPlan, DiskLayout};
use bdisk_sim::{simulate_plan, PolicyKind, SimConfig};

use crate::report::Report;
use crate::sim::same_outcome;
use crate::spans::{self, Recorder};
use crate::stats::{mean, median, percentile, relative_spread, sorted};
use crate::timed::{stride_times_us, BenchTransport, TickTrace, QUEUE_CAPACITY};
use crate::{d5, derive, peak_rss_mb, setup_s, trace_path, Opts, DELTA};

/// Receiving connections of every broker workload.
const RECEIVERS: usize = 2;
/// Set-ups timed per invocation; `setup_s` is their median.
const SETUP_SAMPLES: usize = 31;
/// Segments a free run is cut into (see `free_run`).
const SEGMENTS: usize = 4;
/// A free run's `ops_per_s` is this percentile of its 16-slot stride
/// rates: about 14 strides of a 30 s `pull_flood` run are faster.
const CAPACITY_PERCENTILE: f64 = 99.9;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

pub struct FreeRunSpec {
    name: &'static str,
    pub page_size: usize,
    requesters: bool,
}

pub const PUSH_FANOUT: FreeRunSpec = FreeRunSpec {
    name: "push_fanout",
    page_size: 64,
    requesters: false,
};

pub const PULL_FLOOD: FreeRunSpec = FreeRunSpec {
    name: "pull_flood",
    page_size: 4096,
    requesters: true,
};

/// The transport's own defaults (flush cadence included, so a change to
/// them is what the benchmark measures), with a backlog deep enough that
/// a lossless run never fills it.
fn tcp_config() -> TcpTransportConfig {
    TcpTransportConfig {
        queue_capacity: QUEUE_CAPACITY,
        ..TcpTransportConfig::default()
    }
}

pub fn pull_config() -> PullConfig {
    PullConfig {
        mode: PullMode::Adaptive {
            max_ratio: 0.25,
            depth_target: RECEIVERS,
        },
        ..PullConfig::default()
    }
}

fn wait_for(transport: &mut EventedTcpTransport) -> io::Result<()> {
    if transport.wait_for_clients(RECEIVERS, CONNECT_TIMEOUT) {
        Ok(())
    } else {
        Err(io::Error::other("receivers failed to connect"))
    }
}

// ---------------------------------------------------------------- free run

struct FreeSetup {
    engine: BroadcastEngine,
    transport: EventedTcpTransport,
    fleet: TunerFleet,
}

/// Plan generation, bind, fleet connect, engine construction.
fn free_setup(spec: &FreeRunSpec) -> io::Result<FreeSetup> {
    let plan = BroadcastPlan::generate(&d5(DELTA), 1).map_err(io::Error::other)?;
    let mut transport = EventedTcpTransport::bind(tcp_config())?;
    let addr = transport.local_addr();
    let fleet = if spec.requesters {
        let cfg = RequesterConfig {
            every: 1,
            pages: plan.num_pages() as u32,
        };
        TunerFleet::launch_requesters(addr, RECEIVERS, cfg)?
    } else {
        TunerFleet::launch(addr, RECEIVERS)?
    };
    wait_for(&mut transport)?;
    let mut engine = BroadcastEngine::with_plan(
        plan,
        EngineConfig {
            max_slots: u64::MAX,
            slot_duration: Duration::ZERO,
            stop_when_no_clients: true,
            page_size: spec.page_size,
            ..EngineConfig::default()
        },
    );
    if spec.requesters {
        engine = engine.with_pull(pull_config());
    }
    Ok(FreeSetup {
        engine,
        transport,
        fleet,
    })
}

struct FreeRound {
    setup_s: f64,
    /// Mean airing time per slot over each progress stride (16
    /// broadcasts) of the run, drain excluded (µs).
    slot_us: Vec<f64>,
    /// Wall time from `run` to the last receiver's end of stream.
    wall_s: f64,
    report: EngineReport,
    fleet: FleetReport,
    upstream_bytes: u64,
    requests_dropped: u64,
    trace: Option<TickTrace>,
}

fn free_round(spec: &FreeRunSpec, seconds: f64, epoch: Option<Instant>) -> io::Result<FreeRound> {
    let t = Instant::now();
    let FreeSetup {
        engine,
        transport,
        fleet,
    } = free_setup(spec)?;
    let setup_s = t.elapsed().as_secs_f64();
    let trace = epoch.map(|e| TickTrace::new(Recorder::new(e, "engine"), None));
    let run_for = Duration::from_secs_f64(seconds);
    let mut transport = BenchTransport::new(transport, Some(run_for), trace);
    let run = transport.begin_run();
    let report = engine.run(&mut transport);
    transport.end_run(run);
    let upstream_bytes = transport.inner().upstream_bytes();
    let requests_dropped = transport.inner().requests_dropped();
    let start = transport.start();
    let slot_us = stride_times_us(&transport.progress);
    let trace = transport.into_trace();
    // `run` ended with `finish`, which closed every connection: the
    // fleet returns once it has read the last byte.
    let fleet = fleet.join()?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(FreeRound {
        setup_s,
        slot_us,
        wall_s,
        report,
        fleet,
        upstream_bytes,
        requests_dropped,
        trace,
    })
}

/// Losslessness of one segment against the engine's own slot count:
/// every tuner saw every slot, CRC-intact and gap-free.
fn check_free_round(spec: &FreeRunSpec, r: &FreeRound, out: &mut Report) {
    let slots = r.report.slots_sent;
    let expected = slots * RECEIVERS as u64;
    let intact: u64 = r.fleet.tuners.iter().map(|t| t.frames).sum();
    out.count(expected, expected.saturating_sub(intact));
    out.gate(
        "every tuner saw every slot",
        r.fleet.tuners.len() == RECEIVERS && r.fleet.tuners.iter().all(|t| t.frames == slots),
        format!(
            "{slots} slots, tuner frames {:?}",
            r.fleet.tuners.iter().map(|t| t.frames).collect::<Vec<_>>()
        ),
    );
    out.gate(
        "frames CRC-clean and gap-free",
        r.fleet.total_crc_errors() == 0 && r.fleet.tuners_with_gaps() == 0,
        format!(
            "{} crc errors, {} tuners with gaps",
            r.fleet.total_crc_errors(),
            r.fleet.tuners_with_gaps()
        ),
    );
    out.gate(
        "engine delivered every frame",
        r.report.frames_delivered == expected && r.report.frames_dropped == 0,
        format!(
            "delivered {} of {expected}, dropped {}",
            r.report.frames_delivered, r.report.frames_dropped
        ),
    );
    if spec.requesters {
        let pull = &r.report.pull;
        out.gate(
            "pull path carried traffic",
            r.fleet.total_requests() > 0 && pull.requests > 0 && pull.pull_slots > 0,
            format!(
                "{} sent, {} drained, {} aired",
                r.fleet.total_requests(),
                pull.requests,
                pull.pull_slots
            ),
        );
    }
}

/// Setup-only cycles: set up, tear down, keep the time.
fn free_setup_samples(spec: &FreeRunSpec, n: usize, out: &mut Report) -> Vec<f64> {
    let mut samples = Vec::new();
    for _ in 0..n {
        let t = Instant::now();
        match free_setup(spec) {
            Ok(s) => {
                samples.push(t.elapsed().as_secs_f64());
                drop(s.transport);
                let ok = s.fleet.join().is_ok();
                out.gate("setup-only fleet exits cleanly", ok, "");
            }
            Err(e) => out.gate("setup", false, e.to_string()),
        }
    }
    samples
}

pub fn free_run(opts: &Opts, spec: FreeRunSpec, layers: Option<&mut Report>) -> Report {
    let mut out = Report::default();
    let epoch = layers.is_some().then(Instant::now);
    // The run is cut into segments, with set-ups timed before each and
    // after the last, so both the stride samples and the set-up samples
    // spread over the whole run rather than one moment of host speed.
    let per_gap = SETUP_SAMPLES / (SEGMENTS + 1);
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    for _ in 0..SEGMENTS {
        setups.extend(free_setup_samples(&spec, per_gap, &mut out));
        match free_round(&spec, opts.seconds / SEGMENTS as f64, epoch) {
            Ok(r) => {
                check_free_round(&spec, &r, &mut out);
                setups.push(r.setup_s);
                rounds.push(r);
            }
            Err(e) => {
                out.gate("segment", false, e.to_string());
                out.count(1, 1);
            }
        }
    }
    setups.extend(free_setup_samples(&spec, per_gap, &mut out));
    let slot_us: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.slot_us.iter().copied())
        .collect();
    let slots: u64 = rounds.iter().map(|r| r.report.slots_sent).sum();
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    out.metric("setup_s", setup_s(setups), "s");
    // The broadcaster's capacity is the rate of its fastest strides, as
    // the simulator's is its fastest repetitions: other tenants of the
    // host slow the engine by up to 30% in stretches whose share of a run
    // drifts over minutes, and only the fastest strides hold still (see
    // README.md, "Machine and bounds"). The whole-run rate is printed.
    let stride_rates = sorted(slot_us.iter().map(|us| 1e6 / us).collect());
    out.metric(
        "ops_per_s",
        percentile(&stride_rates, CAPACITY_PERCENTILE).unwrap_or(f64::NAN),
        "1/s",
    );
    // Free-running, a slot is due as soon as the one before it is aired.
    out.metric(
        "lateness_p50_us",
        median(&slot_us).unwrap_or(f64::NAN),
        "us",
    );
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.note(format!(
        "{}: {slots} slots, whole-run {:.1} slots/s, {} strides: spread {:.4}",
        spec.name,
        slots as f64 / wall,
        slot_us.len(),
        relative_spread(&slot_us).unwrap_or(f64::NAN)
    ));
    if let Some(layers) = layers {
        free_layers(&spec, &rounds, slots as f64 / wall, layers);
    }
    out
}

fn free_layers(spec: &FreeRunSpec, rounds: &[FreeRound], whole_rate: f64, layers: &mut Report) {
    let traces: Vec<&TickTrace> = rounds.iter().filter_map(|r| r.trace.as_ref()).collect();
    let slots = rounds.iter().map(|r| r.report.slots_sent).sum();
    engine_span_layers(&traces, slots, layers);
    let recs: Vec<&Recorder> = traces.iter().map(|t| &t.rec).collect();
    write_trace(spec.name, &recs, layers);
    let sum = |f: &dyn Fn(&FreeRound) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    layers.print_only("engine.whole_run_slots_per_s", whole_rate, "1/s");
    layers.print_only("fleet.frames", sum(&|r| r.fleet.total_frames()), "count");
    layers.print_only(
        "fleet.crc_errors",
        sum(&|r| r.fleet.total_crc_errors()),
        "count",
    );
    let gaps = sum(&|r| r.fleet.tuners.iter().map(|t| t.gaps).sum());
    layers.print_only("fleet.gaps", gaps, "count");
    if spec.requesters {
        let drained = sum(&|r| r.report.pull.requests);
        let aired = sum(&|r| r.report.pull.pull_slots);
        layers.print_only(
            "evented.upstream_bytes",
            sum(&|r| r.upstream_bytes),
            "bytes",
        );
        layers.print_only(
            "evented.requests_dropped",
            sum(&|r| r.requests_dropped),
            "count",
        );
        layers.print_only("pull.requests_drained", drained, "count");
        layers.print_only("pull.slots_aired", aired, "count");
        layers.print_only("pull.rejected", sum(&|r| r.report.pull.rejected), "count");
        layers.print_only("pull.served_ratio", aired / drained.max(1.0), "ratio");
    }
}

/// Layer metrics a traced engine run yields from its transport spans.
fn engine_span_layers(traces: &[&TickTrace], slots: u64, layers: &mut Report) {
    let self_ns: u64 = traces
        .iter()
        .filter_map(|t| t.rec.summary().get("engine.run").map(|r| r.self_ns))
        .sum();
    let broadcast = sorted(
        traces
            .iter()
            .flat_map(|t| t.rec.durations("transport.broadcast"))
            .collect(),
    );
    let finish: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.rec.durations("transport.finish"))
        .collect();
    layers.print_only(
        "engine.self_us_per_slot",
        self_ns as f64 / 1e3 / slots.max(1) as f64,
        "us",
    );
    layers.print_only(
        "evented.broadcast_us_mean",
        mean(&broadcast).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    layers.print_only(
        "evented.broadcast_us_p99",
        percentile(&broadcast, 99.0).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    layers.print_only(
        "evented.finish_ms",
        mean(&finish).unwrap_or(f64::NAN) / 1e6,
        "ms",
    );
}

fn write_trace(workload: &str, recs: &[&Recorder], layers: &mut Report) {
    let path = trace_path(workload);
    match spans::write_tsv(&path, recs) {
        Ok(()) => layers.note(format!("spans written to {}", path.display())),
        Err(e) => layers.gate("trace written", false, e.to_string()),
    }
}

// ------------------------------------------------------------- paced run

/// Slot length of the paced workload: 4000 slots/s.
pub const PACED_SLOT: Duration = Duration::from_micros(250);
/// A frame received later than this after its due time counts as late.
pub const LATE_US: f64 = 1000.0;
const PACED_POLICIES: [PolicyKind; 2] = [PolicyKind::Lix, PolicyKind::Pix];

/// The paced clients' config: Figure 13's workload (Zipf θ 0.95, Noise
/// 30%, think time 2, Offset = CacheSize) with cache and request budgets
/// small enough that a client finishes within a traced half-run: each
/// request waits at most one major cycle (14028 slots), so three finish
/// within 42.1k slots, inside the 60k of a 15 s phase.
pub fn paced_config(policy: PolicyKind) -> SimConfig {
    SimConfig {
        cache_size: 2,
        offset: 2,
        noise: 0.30,
        policy,
        requests: 3,
        warmup_requests: 0,
        ..SimConfig::default()
    }
}

/// Slots of a paced run of `seconds`.
pub fn paced_slots(seconds: f64) -> u64 {
    (seconds / PACED_SLOT.as_secs_f64()).round().max(1.0) as u64
}

/// `receipt - (t0 + seq * slot)`: how late frame `seq` arrived against
/// the schedule that starts at `t0` (all in ns since one epoch).
pub fn lateness_ns(receipt_ns: u64, t0_ns: u64, seq: u64, slot_ns: u64) -> i64 {
    receipt_ns as i64 - (t0_ns + seq * slot_ns) as i64
}

/// Share of `lateness_us` samples strictly above `LATE_US`.
pub fn late_ratio(lateness_us: &[f64]) -> f64 {
    let late = lateness_us.iter().filter(|&&l| l > LATE_US).count();
    late as f64 / lateness_us.len().max(1) as f64
}

struct ClientOut {
    /// `(seq, receipt ns since epoch)` of every frame, in arrival order.
    receipts: Vec<(u64, u64)>,
    result: Option<LiveClientResult>,
    error: Option<String>,
    rec: Option<Recorder>,
}

struct ClientSpec {
    cfg: SimConfig,
    seed: u64,
}

/// One client thread: builds its `LiveClient`, connects, and reads until
/// the broker closes. A finished client keeps reading so every frame of
/// the run is timed.
fn spawn_client(
    spec: &ClientSpec,
    layout: &DiskLayout,
    plan: &BroadcastPlan,
    addr: SocketAddr,
    epoch: Instant,
    traced: bool,
) -> JoinHandle<ClientOut> {
    let (cfg, seed) = (spec.cfg.clone(), spec.seed);
    let (layout, plan) = (layout.clone(), plan.clone());
    std::thread::spawn(move || {
        let mut out = ClientOut {
            receipts: Vec::new(),
            result: None,
            error: None,
            rec: traced.then(|| Recorder::new(epoch, "client")),
        };
        let mut client = match LiveClient::with_plan(&cfg, &layout, plan, seed) {
            Ok(c) => Some(c),
            Err(e) => {
                out.error = Some(e.to_string());
                return out;
            }
        };
        let mut reader = match TcpFrameReader::connect(addr) {
            Ok(r) => r,
            Err(e) => {
                out.error = Some(e.to_string());
                return out;
            }
        };
        out.receipts.reserve(1 << 16);
        loop {
            let got = match out.rec.as_mut() {
                Some(rec) => rec.time("client.recv", || reader.recv()),
                None => reader.recv(),
            };
            let frame = match got {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    out.error = Some(e.to_string());
                    break;
                }
            };
            out.receipts
                .push((frame.seq, epoch.elapsed().as_nanos() as u64));
            if let Some(c) = client.as_mut() {
                let done = match out.rec.as_mut() {
                    Some(rec) => rec.time("client.on_frame", || c.on_frame(&frame)),
                    None => c.on_frame(&frame),
                };
                if done {
                    out.result = client.take().map(LiveClient::into_results);
                }
            }
        }
        out
    })
}

struct PacedSetup {
    engine: BroadcastEngine,
    transport: EventedTcpTransport,
    clients: Vec<JoinHandle<ClientOut>>,
    layout: DiskLayout,
    plan: BroadcastPlan,
}

fn paced_setup(
    specs: &[ClientSpec],
    slots: u64,
    epoch: Instant,
    traced: bool,
) -> io::Result<PacedSetup> {
    let layout = d5(DELTA);
    let plan = BroadcastPlan::generate(&layout, 1).map_err(io::Error::other)?;
    let mut transport = EventedTcpTransport::bind(tcp_config())?;
    let addr = transport.local_addr();
    let clients = specs
        .iter()
        .map(|s| spawn_client(s, &layout, &plan, addr, epoch, traced))
        .collect();
    // Clients connect only after building their cores, so a full house
    // means set-up is complete.
    wait_for(&mut transport)?;
    let engine = BroadcastEngine::with_plan(
        plan.clone(),
        EngineConfig {
            max_slots: slots,
            slot_duration: PACED_SLOT,
            stop_when_no_clients: true,
            page_size: 64,
            ..EngineConfig::default()
        },
    );
    Ok(PacedSetup {
        engine,
        transport,
        clients,
        layout,
        plan,
    })
}

fn client_specs(seed: u64) -> Vec<ClientSpec> {
    PACED_POLICIES
        .iter()
        .enumerate()
        .map(|(i, &policy)| ClientSpec {
            cfg: paced_config(policy),
            seed: derive(seed, 100 + i as u64),
        })
        .collect()
}

/// Setup-only cycles: set up (clients built and connected), tear down,
/// keep the time.
fn paced_setup_samples(specs: &[ClientSpec], n: usize, out: &mut Report) -> Vec<f64> {
    let mut samples = Vec::new();
    for _ in 0..n {
        let t = Instant::now();
        match paced_setup(specs, 1, Instant::now(), false) {
            Ok(s) => {
                samples.push(t.elapsed().as_secs_f64());
                drop(s.transport);
                for c in s.clients {
                    let ok = c.join().map(|o| o.error.is_none()).unwrap_or(false);
                    out.gate("setup-only client exits cleanly", ok, "");
                }
            }
            Err(e) => out.gate("setup", false, e.to_string()),
        }
    }
    samples
}

pub fn paced_clients(opts: &Opts, layers: Option<&mut Report>) -> Report {
    let mut out = Report::default();
    let traced = layers.is_some();
    let slots = paced_slots(opts.seconds);
    let specs = client_specs(opts.seed);
    let epoch = Instant::now();
    let slot_ns = PACED_SLOT.as_nanos() as u64;

    // Half the set-up samples before the run and half after (see
    // `free_run`).
    let mut setups = paced_setup_samples(&specs, SETUP_SAMPLES / 2, &mut out);
    let t = Instant::now();
    let setup = match paced_setup(&specs, slots, epoch, traced) {
        Ok(s) => s,
        Err(e) => {
            out.gate("setup", false, e.to_string());
            out.count(1, 1);
            return out;
        }
    };
    setups.push(t.elapsed().as_secs_f64());
    let PacedSetup {
        engine,
        transport,
        clients,
        layout,
        plan,
    } = setup;
    let t0_ns = epoch.elapsed().as_nanos() as u64;
    let trace =
        traced.then(|| TickTrace::new(Recorder::new(epoch, "engine"), Some((t0_ns, slot_ns))));
    let mut transport = BenchTransport::new(transport, None, trace);
    let run = transport.begin_run();
    let report = engine.run(&mut transport);
    transport.end_run(run);
    let run_s = transport.start().elapsed().as_secs_f64();
    let trace = transport.into_trace();
    let clients: Vec<ClientOut> = clients
        .into_iter()
        .map(|c| {
            c.join().unwrap_or_else(|_| ClientOut {
                receipts: Vec::new(),
                result: None,
                error: Some("client thread panicked".into()),
                rec: None,
            })
        })
        .collect();
    setups.extend(paced_setup_samples(&specs, SETUP_SAMPLES / 2, &mut out));

    out.gate(
        "engine aired the whole schedule",
        report.slots_sent == slots,
        format!("{} of {slots} slots", report.slots_sent),
    );
    let mut lateness_us = Vec::new();
    for (i, (c, spec)) in clients.iter().zip(&specs).enumerate() {
        let in_order = c
            .receipts
            .iter()
            .enumerate()
            .filter(|(k, (seq, _))| *seq == *k as u64)
            .count() as u64;
        out.count(slots, slots.saturating_sub(in_order));
        out.gate(
            format!("client {i} saw every slot in order"),
            c.error.is_none() && in_order == slots && c.receipts.len() as u64 == slots,
            format!(
                "{in_order} in order of {slots}, {} received, error {:?}",
                c.receipts.len(),
                c.error
            ),
        );
        for &(seq, ns) in &c.receipts {
            lateness_us.push(lateness_ns(ns, t0_ns, seq, slot_ns) as f64 / 1e3);
        }
        // The simulator replays the same seeded client on the same plan:
        // a finished live client must match it bit for bit.
        let twin = simulate_plan(&spec.cfg, &layout, plan.clone(), spec.seed);
        match (&c.result, twin) {
            (_, Err(e)) => out.gate(format!("client {i} twin"), false, e.to_string()),
            (Some(live), Ok(twin)) => out.gate(
                format!("client {i} bit-identical to its simulate_plan twin"),
                same_outcome(&live.outcome, &twin) && live.gaps == 0,
                format!(
                    "live mean {} hit {} end {}; sim mean {} hit {} end {}",
                    live.outcome.mean_response_time,
                    live.outcome.hit_rate,
                    live.outcome.end_time,
                    twin.mean_response_time,
                    twin.hit_rate,
                    twin.end_time
                ),
            ),
            (None, Ok(twin)) => {
                // Unfinished is only an error when the twin says the run
                // was long enough (with a period of slack).
                let due = twin.end_time as u64 + plan.max_period() as u64;
                out.gate(
                    format!("client {i} finished when its twin says it must"),
                    due >= slots,
                    format!("twin ends at {}, run has {slots} slots", twin.end_time),
                );
            }
        }
    }
    let finished = clients.iter().filter(|c| c.result.is_some()).count();
    out.note(format!(
        "paced_clients: {slots} slots, {finished} of {} clients finished",
        clients.len()
    ));
    let lateness = sorted(lateness_us);
    out.metric("setup_s", setup_s(setups), "s");
    out.metric("ops_per_s", report.slots_sent as f64 / run_s, "1/s");
    out.metric(
        "lateness_p50_us",
        percentile(&lateness, 50.0).unwrap_or(f64::NAN),
        "us",
    );
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.print_only(
        "lateness_p99_us",
        percentile(&lateness, 99.0).unwrap_or(f64::NAN),
        "us",
    );
    out.print_only("late_ratio", late_ratio(&lateness), "ratio");

    if let (Some(layers), Some(trace)) = (layers, trace) {
        paced_layers(&trace, &clients, slots, layers);
    }
    out
}

fn paced_layers(trace: &TickTrace, clients: &[ClientOut], slots: u64, layers: &mut Report) {
    engine_span_layers(&[trace], slots, layers);
    let tick_late = sorted(trace.tick_late_ns.clone());
    layers.print_only(
        "engine.tick_late_p50_us",
        percentile(&tick_late, 50.0).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    layers.print_only(
        "engine.tick_late_p99_us",
        percentile(&tick_late, 99.0).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    let run_ns = trace.rec.durations("engine.run").iter().sum::<f64>();
    layers.print_only(
        "engine.busy_share",
        1.0 - trace.idle_ns as f64 / run_ns,
        "ratio",
    );
    let mut delivery = Vec::new();
    let (mut on_frame, mut recv) = (Vec::new(), Vec::new());
    for c in clients {
        for &(seq, ns) in &c.receipts {
            if let Some(&sent) = trace.broadcast_at.get(seq as usize) {
                delivery.push(ns.saturating_sub(sent) as f64 / 1e3);
            }
        }
        if let Some(rec) = c.rec.as_ref() {
            on_frame.extend(rec.durations("client.on_frame"));
            recv.extend(rec.durations("client.recv"));
        }
    }
    let delivery = sorted(delivery);
    let on_frame = sorted(on_frame);
    layers.print_only(
        "evented.delivery_p50_us",
        percentile(&delivery, 50.0).unwrap_or(f64::NAN),
        "us",
    );
    layers.print_only(
        "evented.delivery_p99_us",
        percentile(&delivery, 99.0).unwrap_or(f64::NAN),
        "us",
    );
    layers.print_only(
        "client.on_frame_ns_mean",
        mean(&on_frame).unwrap_or(f64::NAN),
        "ns",
    );
    layers.print_only(
        "client.on_frame_ns_p99",
        percentile(&on_frame, 99.0).unwrap_or(f64::NAN),
        "ns",
    );
    layers.print_only(
        "client.recv_wait_us",
        mean(&recv).unwrap_or(f64::NAN) / 1e3,
        "us",
    );
    let hits: Vec<f64> = clients
        .iter()
        .filter_map(|c| c.result.as_ref().map(|r| r.outcome.hit_rate))
        .collect();
    if let Some(h) = mean(&hits) {
        layers.print_only("client.hit_ratio", h, "ratio");
    }
    let mut recs: Vec<&Recorder> = vec![&trace.rec];
    recs.extend(clients.iter().filter_map(|c| c.rec.as_ref()));
    write_trace("paced_clients", &recs, layers);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_is_receipt_minus_due_time() {
        // Slot 4 of a schedule starting at 1 ms with 250 µs slots is due
        // at 2 ms; received at 2.3 ms it is 300 µs late.
        assert_eq!(lateness_ns(2_300_000, 1_000_000, 4, 250_000), 300_000);
        // Early receipt (impossible on a real schedule) stays negative
        // rather than wrapping.
        assert_eq!(lateness_ns(1_000_000, 1_000_000, 1, 250_000), -250_000);
        assert_eq!(paced_slots(1.0), 4000);
        assert_eq!(paced_slots(16.0), 64_000);
    }

    #[test]
    fn late_ratio_counts_strictly_beyond_one_millisecond() {
        assert_eq!(late_ratio(&[0.0, 999.0, 1000.0, 1000.5]), 0.25);
        assert_eq!(late_ratio(&[]), 0.0);
    }

    fn smoke(workload: &str, seconds: f64) -> Report {
        let opts = Opts {
            workload: workload.into(),
            seed: 5,
            seconds,
            trace: false,
        };
        let r = match workload {
            "push_fanout" => free_run(&opts, PUSH_FANOUT, None),
            "pull_flood" => free_run(&opts, PULL_FLOOD, None),
            _ => paced_clients(&opts, None),
        };
        let failed: Vec<_> = r.gates.iter().filter(|g| !g.ok).map(|g| &g.name).collect();
        assert!(r.correct(), "{workload}: failed gates {failed:?}");
        r
    }

    #[test]
    fn smoke_push_fanout() {
        let r = smoke("push_fanout", 0.2);
        assert!(r.get("ops_per_s").unwrap() > 0.0);
        assert!(r.get("lateness_p50_us").unwrap() > 0.0);
        assert!(r.get("setup_s").unwrap() > 0.0);
    }

    #[test]
    fn smoke_pull_flood() {
        // Segments of 0.25 s: in 50 ms segments a fleet thread starved by
        // the other tests can read a whole segment and its end of stream
        // in one turn, before it ever writes a request.
        let r = smoke("pull_flood", 1.0);
        assert!(r.get("ops_per_s").unwrap() > 0.0);
    }

    #[test]
    fn smoke_paced_clients() {
        let r = smoke("paced_clients", 0.1);
        assert_eq!(r.attempted, 2 * paced_slots(0.1));
        assert!(r.get("lateness_p50_us").unwrap() > 0.0);
        assert!((3000.0..4100.0).contains(&r.get("ops_per_s").unwrap()));
    }

    /// `run_seconds` of the repository's `BENCHMARK.json`.
    fn benchmark_run_seconds() -> f64 {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let value = text
            .split("\"run_seconds\":")
            .nth(1)
            .expect("run_seconds key");
        let digits: String = value
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("run_seconds is a whole number")
    }

    #[test]
    fn paced_clients_finish_within_a_traced_half_run() {
        // `--trace 1` gives each phase half of the run: the shortest paced
        // run. A twin that finishes there leaves the live client ample
        // slots for delivery (lateness is a few dozen slots).
        let slots = paced_slots(benchmark_run_seconds() / 2.0) as f64;
        let layout = d5(DELTA);
        let plan = BroadcastPlan::generate(&layout, 1).unwrap();
        for spec in client_specs(0) {
            // Worst case: every request misses and just missed its page.
            let cfg = &spec.cfg;
            let per_request = plan.max_period() as f64 + cfg.think_time + cfg.think_jitter;
            let worst = cfg.requests as f64 * per_request;
            assert!(
                worst < slots - 1000.0,
                "worst case {worst} of {slots} slots"
            );
        }
        for seed in 0..200 {
            for spec in client_specs(seed) {
                let twin = simulate_plan(&spec.cfg, &layout, plan.clone(), spec.seed).unwrap();
                assert!(
                    twin.end_time < slots - 1000.0,
                    "seed {seed}: {}",
                    twin.end_time
                );
            }
        }
    }
}
