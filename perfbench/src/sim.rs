//! `sim_fig13`: the paper's Figure 13 sweep on the discrete-event
//! simulator — D5, CacheSize 500, Offset 500, Noise 30%, LRU/L/LIX/PIX
//! over Δ = 0..7 — repeated with fresh derived seeds until the run's time
//! is up. `bdisk-sim`, `bdisk-cache`, `bdisk-workload` and `bdesim` do
//! all the work here and almost none in the broker workloads.

use std::time::Instant;

use bdisk_sched::{BroadcastPlan, DiskLayout, PageId};
use bdisk_sim::{simulate_plan, AccessLocation, ClientCore, PolicyKind, SimConfig, SimOutcome};
use bdisk_workload::RegionZipf;

use crate::report::Report;
use crate::spans::{self, Recorder};
use crate::stats::{mean, median};
use crate::{d5, derive, peak_rss_mb, setup_s, trace_path, Opts, DELTA};

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::L,
    PolicyKind::Lix,
    PolicyKind::Pix,
];
const DELTAS: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
/// Largest relative gap between a no-cache simulator point and the
/// analytic expected delay of the same plan and access distribution.
pub const ANALYTIC_TOLERANCE: f64 = 0.05;

/// One Figure 13 point's config (the paper's Table 4 values otherwise).
pub fn fig13_config(policy: PolicyKind) -> SimConfig {
    SimConfig {
        cache_size: 500,
        offset: 500,
        noise: 0.30,
        policy,
        ..SimConfig::default()
    }
}

/// Requests a point simulated: the discarded warm-up plus the measured.
pub fn point_requests(cfg: &SimConfig, outcome: &SimOutcome) -> u64 {
    cfg.warmup_requests + outcome.measured_requests
}

/// The sweep's set-up: one plan per Δ.
fn setup() -> Vec<(DiskLayout, BroadcastPlan)> {
    DELTAS
        .iter()
        .map(|&d| {
            let layout = d5(d);
            let plan = BroadcastPlan::generate(&layout, 1).expect("D5 generates a plan");
            (layout, plan)
        })
        .collect()
}

/// Bit-for-bit equality of the outcome fields a replay must reproduce.
pub fn same_outcome(a: &SimOutcome, b: &SimOutcome) -> bool {
    a.mean_response_time.to_bits() == b.mean_response_time.to_bits()
        && a.hit_rate.to_bits() == b.hit_rate.to_bits()
        && a.p50.to_bits() == b.p50.to_bits()
        && a.p99.to_bits() == b.p99.to_bits()
        && a.max_response_time.to_bits() == b.max_response_time.to_bits()
        && a.measured_requests == b.measured_requests
        && a.access_fractions == b.access_fractions
        && a.end_time.to_bits() == b.end_time.to_bits()
}

struct Sweep {
    outcomes: Vec<Option<SimOutcome>>,
    /// Requests each point simulated (0 for a failed point).
    requests: Vec<u64>,
    /// Wall time of each point.
    point_s: Vec<f64>,
}

/// One full sweep (every policy × Δ) with seeds derived from `(seed,
/// sweep)`. Point spans go to `rec` when tracing.
fn sweep(
    plans: &[(DiskLayout, BroadcastPlan)],
    seed: u64,
    index: u64,
    mut rec: Option<&mut Recorder>,
) -> Sweep {
    let mut outcomes = Vec::new();
    let mut requests = Vec::new();
    let mut point_s = Vec::new();
    for (pi, &policy) in POLICIES.iter().enumerate() {
        let cfg = fig13_config(policy);
        for (di, (layout, plan)) in plans.iter().enumerate() {
            let point_seed = derive(seed, index * 64 + (pi * DELTAS.len() + di) as u64);
            let span = rec.as_mut().map(|r| r.begin(point_span(policy, di)));
            let t = Instant::now();
            let outcome = simulate_plan(&cfg, layout, plan.clone(), point_seed).ok();
            point_s.push(t.elapsed().as_secs_f64());
            if let (Some(r), Some(id)) = (rec.as_mut(), span) {
                r.end(id);
            }
            requests.push(outcome.as_ref().map_or(0, |o| point_requests(&cfg, o)));
            outcomes.push(outcome);
        }
    }
    Sweep {
        outcomes,
        requests,
        point_s,
    }
}

/// Span name of a point: the Δ=3 points get their own name per policy so
/// the residual can be computed against the driven runs at that Δ.
fn point_span(policy: PolicyKind, delta_index: usize) -> &'static str {
    if DELTAS[delta_index] != DELTA {
        return "sim.point";
    }
    match policy {
        PolicyKind::Lru => "sim.point.lru",
        PolicyKind::L => "sim.point.l",
        PolicyKind::Lix => "sim.point.lix",
        _ => "sim.point.pix",
    }
}

/// Each point at its fastest wall time across sweeps (seeds differ per
/// sweep, the configuration does not), with its median request count:
/// `(seconds, requests)` per point. Other tenants of the host slow single
/// points by 30–60% at random moments, and how much of a run they hit
/// drifts over minutes; the fastest of a point's repetitions (about 160
/// in 30 s) is the simulator's own cost.
fn fastest_points(sweeps: &[Sweep]) -> Vec<(f64, f64)> {
    (0..sweeps[0].point_s.len())
        .map(|j| {
            let seconds = sweeps
                .iter()
                .map(|s| s.point_s[j])
                .fold(f64::INFINITY, f64::min);
            let reqs: Vec<f64> = sweeps.iter().map(|s| s.requests[j] as f64).collect();
            (seconds, median(&reqs).unwrap_or(f64::NAN))
        })
        .collect()
}

/// Requests per second of the fastest sweep: every point at its fastest.
fn fastest_sweep_rate(points: &[(f64, f64)]) -> f64 {
    let seconds: f64 = points.iter().map(|p| p.0).sum();
    let requests: f64 = points.iter().map(|p| p.1).sum();
    requests / seconds
}

/// The median point's wall time per simulated request, in µs: in the
/// simulator's closed loop a request is due when the one before it is
/// done, so this is how late a request completes.
fn request_lateness_us(points: &[(f64, f64)]) -> f64 {
    let per_request: Vec<f64> = points.iter().map(|&(s, r)| s / r * 1e6).collect();
    median(&per_request).unwrap_or(f64::NAN)
}

/// Checks one sweep's points: each must have run and measured its full
/// request budget.
fn check_sweep(s: &Sweep, out: &mut Report) {
    let failed = s
        .outcomes
        .iter()
        .zip(POLICIES.iter().flat_map(|p| DELTAS.iter().map(move |_| *p)))
        .filter(|(o, p)| {
            !o.as_ref().is_some_and(|o| {
                o.measured_requests == fig13_config(*p).requests && o.mean_response_time.is_finite()
            })
        })
        .count() as u64;
    out.count(s.outcomes.len() as u64, failed);
}

/// The no-cache check: with a one-page cache, no Offset and no Noise, the
/// simulated mean response time must match the plan's analytic expected
/// delay for the same region-Zipf access distribution.
fn analytic_check(seed: u64, out: &mut Report) {
    let layout = d5(DELTA);
    let plan = BroadcastPlan::generate(&layout, 1).expect("D5 generates a plan");
    let cfg = SimConfig {
        cache_size: 1,
        offset: 0,
        noise: 0.0,
        ..SimConfig::default()
    };
    let zipf = RegionZipf::new(cfg.access_range, cfg.region_size, cfg.theta);
    let mut probs = zipf.probs().to_vec();
    probs.resize(layout.total_pages(), 0.0);
    let analytic = plan.expected_delay(&probs);
    out.count(1, 0);
    match simulate_plan(&cfg, &layout, plan, derive(seed, 1 << 40)) {
        Ok(o) => {
            let gap = (o.mean_response_time - analytic).abs() / analytic;
            out.gate(
                "no-cache point matches BroadcastPlan::expected_delay",
                gap < ANALYTIC_TOLERANCE,
                format!(
                    "sim {:.2} vs analytic {analytic:.2} ({:.2}% apart)",
                    o.mean_response_time,
                    gap * 100.0
                ),
            );
            if gap >= ANALYTIC_TOLERANCE {
                out.count(0, 1);
            }
        }
        Err(e) => {
            out.gate("no-cache point", false, e.to_string());
            out.count(0, 1);
        }
    }
}

pub fn fig13(opts: &Opts, layers: Option<&mut Report>) -> Report {
    let mut out = Report::default();
    let timed_setup = || {
        let t = Instant::now();
        let plans = setup();
        (plans, t.elapsed().as_secs_f64())
    };
    let (plans, first) = timed_setup();
    let mut setups = vec![first];
    let mut rec = layers
        .is_some()
        .then(|| Recorder::new(Instant::now(), "sim"));
    let start = Instant::now();
    let mut sweeps = Vec::new();
    while sweeps.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let s = sweep(&plans, opts.seed, sweeps.len() as u64, rec.as_mut());
        check_sweep(&s, &mut out);
        sweeps.push(s);
        // Set-up is timed between sweeps, so its median spans the run
        // like the sweep times do.
        setups.push(timed_setup().1);
    }
    // Same seed, same sweep: the simulator must replay it exactly.
    let again = sweep(&plans, opts.seed, 0, None);
    let identical = again.outcomes.len() == sweeps[0].outcomes.len()
        && again
            .outcomes
            .iter()
            .zip(&sweeps[0].outcomes)
            .all(|(a, b)| matches!((a, b), (Some(a), Some(b)) if same_outcome(a, b)));
    out.gate("same seed replays identically", identical, "sweep 0 re-run");
    analytic_check(opts.seed, &mut out);

    let total_requests: u64 = sweeps.iter().flat_map(|s| &s.requests).sum();
    let total_s: f64 = sweeps.iter().flat_map(|s| &s.point_s).sum();
    out.note(format!(
        "sim_fig13: {} sweeps of {} points, whole-run {:.0} requests/s",
        sweeps.len(),
        POLICIES.len() * DELTAS.len(),
        total_requests as f64 / total_s
    ));
    let points = fastest_points(&sweeps);
    out.metric("setup_s", setup_s(setups), "s");
    out.metric("ops_per_s", fastest_sweep_rate(&points), "1/s");
    out.metric("lateness_p50_us", request_lateness_us(&points), "us");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");

    if let (Some(layers), Some(rec)) = (layers, rec) {
        sim_layers(&plans, opts.seed, &rec, layers);
    }
    out
}

/// One client driven through `ClientCore` by the benchmark itself: the
/// simulator's request loop without its event executor.
struct Driven {
    requests: u64,
    hits: u64,
    wall_ns: f64,
}

fn policy_spans(policy: PolicyKind) -> (&'static str, &'static str, &'static str, &'static str) {
    match policy {
        PolicyKind::Lru => (
            "lru",
            "cache.lru.contains",
            "cache.lru.hit",
            "cache.lru.insert",
        ),
        PolicyKind::L => ("l", "cache.l.contains", "cache.l.hit", "cache.l.insert"),
        PolicyKind::Lix => (
            "lix",
            "cache.lix.contains",
            "cache.lix.hit",
            "cache.lix.insert",
        ),
        _ => (
            "pix",
            "cache.pix.contains",
            "cache.pix.hit",
            "cache.pix.insert",
        ),
    }
}

fn timed<R>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.time(name, f),
        None => f(),
    }
}

/// Runs one Figure 13 client to completion; with a recorder every call
/// into the cache, the workload and the schedule is a span.
fn drive(
    policy: PolicyKind,
    layout: &DiskLayout,
    plan: &BroadcastPlan,
    seed: u64,
    mut rec: Option<&mut Recorder>,
) -> Driven {
    let start = Instant::now();
    let cfg = fig13_config(policy);
    let (_, contains, hit, insert) = policy_spans(policy);
    let mut core = ClientCore::new_plan(&cfg, layout, plan, seed).expect("valid Figure 13 config");
    let (mut t, mut requests, mut hits) = (0.0f64, 0u64, 0u64);
    loop {
        let page: PageId = timed(&mut rec, "workload.next_request", || core.next_request());
        requests += 1;
        let (response, loc) = if timed(&mut rec, contains, || core.contains(page)) {
            hits += 1;
            timed(&mut rec, hit, || core.on_hit(page, t));
            (0.0, AccessLocation::Cache)
        } else {
            let arrival = timed(&mut rec, "sched.next_arrival", || {
                plan.next_arrival(page, t)
            });
            timed(&mut rec, insert, || core.insert(page, arrival));
            let response = arrival - t;
            t = arrival;
            (response, AccessLocation::Disk(plan.disk_of(page)))
        };
        if core.complete_request(response, loc) {
            break;
        }
        t += core.think_delay();
    }
    Driven {
        requests,
        hits,
        wall_ns: start.elapsed().as_nanos() as f64,
    }
}

/// The cache, workload and `next_arrival` probe rows: one Figure 13
/// client per policy at Δ=3, driven through `ClientCore` by the
/// benchmark with every call a span (net of the span cost).
pub fn core_layers(seed: u64, layers: &mut Report) {
    let layout = d5(DELTA);
    let plan = BroadcastPlan::generate(&layout, 1).expect("D5 generates a plan");
    let overhead = spans::timer_overhead_ns();
    let mut rec = Recorder::new(Instant::now(), "core");
    let net = |rec: &Recorder, name: &str| {
        (mean(&rec.durations(name)).unwrap_or(f64::NAN) - overhead).max(0.0)
    };
    for (pi, &policy) in POLICIES.iter().enumerate() {
        let d = drive(
            policy,
            &layout,
            &plan,
            client_seed(seed, pi),
            Some(&mut rec),
        );
        let (tag, _, hit, insert) = policy_spans(policy);
        layers.metric(format!("cache.{tag}.hit_ns"), net(&rec, hit), "ns");
        layers.metric(format!("cache.{tag}.insert_ns"), net(&rec, insert), "ns");
        layers.metric(
            format!("cache.{tag}.hit_ratio"),
            d.hits as f64 / d.requests as f64,
            "ratio",
        );
    }
    layers.metric(
        "workload.next_request_ns",
        net(&rec, "workload.next_request"),
        "ns",
    );
    layers.metric(
        "sched.next_arrival_ns",
        net(&rec, "sched.next_arrival"),
        "ns",
    );
}

fn client_seed(seed: u64, policy_index: usize) -> u64 {
    derive(seed, 1 << 41 | policy_index as u64)
}

/// The simulator's own rows (printed; no other workload has them): mean
/// point time, and the share of a Δ=3 point that the request loop driven
/// without the simulator does not explain.
fn sim_layers(
    plans: &[(DiskLayout, BroadcastPlan)],
    seed: u64,
    sim_rec: &Recorder,
    layers: &mut Report,
) {
    let point_ns: Vec<f64> = sim_rec
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("sim.point"))
        .map(|s| s.duration_ns() as f64)
        .collect();
    layers.print_only(
        "sim.point_ms",
        mean(&point_ns).unwrap_or(f64::NAN) / 1e6,
        "ms",
    );
    let di = DELTAS
        .iter()
        .position(|&d| d == DELTA)
        .expect("Δ=3 is swept");
    let (layout, plan) = &plans[di];
    let mut residuals = Vec::new();
    for (pi, &policy) in POLICIES.iter().enumerate() {
        // The loop's own wall time, untraced.
        let bare: Vec<f64> = (0..3)
            .map(|_| drive(policy, layout, plan, client_seed(seed, pi), None).wall_ns)
            .collect();
        // What a simulator point spends outside the request loop: the
        // bdesim executor and the glue around it.
        let point = mean(&sim_rec.durations(point_span(policy, di))).unwrap_or(f64::NAN);
        let bare = median(&bare).expect("three runs");
        residuals.push((point - bare) / point);
    }
    layers.print_only(
        "sim.residual_share",
        mean(&residuals).unwrap_or(f64::NAN),
        "ratio",
    );
    let path = trace_path("sim_fig13");
    match spans::write_tsv(&path, &[sim_rec]) {
        Ok(()) => layers.note(format!("spans written to {}", path.display())),
        Err(e) => layers.gate("trace written", false, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_sweep_takes_each_points_fastest_time() {
        let sweep = |point_s: Vec<f64>, requests: Vec<u64>| Sweep {
            outcomes: vec![None; point_s.len()],
            requests,
            point_s,
        };
        // Point 0 is fastest in sweep 1, point 1 in sweep 0: 1 s in all
        // for the median 300 requests.
        let sweeps = [
            sweep(vec![0.9, 0.4], vec![100, 200]),
            sweep(vec![0.6, 0.5], vec![100, 200]),
            sweep(vec![0.8, 0.7], vec![100, 200]),
        ];
        let points = fastest_points(&sweeps);
        assert_eq!(points, vec![(0.6, 100.0), (0.4, 200.0)]);
        assert!((fastest_sweep_rate(&points) - 300.0).abs() < 1e-9);
        // 6000 µs and 2000 µs per request: the median of two is their mean.
        assert!((request_lateness_us(&points) - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn point_requests_count_warmup_and_measured() {
        let layout = d5(DELTA);
        let plan = BroadcastPlan::generate(&layout, 1).unwrap();
        let cfg = SimConfig {
            requests: 200,
            warmup_requests: 50,
            ..fig13_config(PolicyKind::Lix)
        };
        let o = simulate_plan(&cfg, &layout, plan, 3).unwrap();
        assert_eq!(point_requests(&cfg, &o), 250);
    }

    #[test]
    fn smoke_sim_fig13() {
        let opts = Opts {
            workload: "sim_fig13".into(),
            seed: 11,
            seconds: 0.01,
            trace: false,
        };
        let r = fig13(&opts, None);
        assert!(
            r.correct(),
            "{:?}",
            r.gates
                .iter()
                .filter(|g| !g.ok)
                .map(|g| &g.detail)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            r.attempted, 33,
            "one sweep of 32 points plus the analytic point"
        );
        assert!(r.get("ops_per_s").unwrap() > 0.0);
        assert!(r.get("lateness_p50_us").unwrap() > 0.0);
    }
}
