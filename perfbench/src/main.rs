//! Paper-scale benchmark of the broadcast-disk system.
//!
//! ```text
//! perfbench --workload <push_fanout|paced_clients|pull_flood|sim_fig13>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the paper's D5 layout ⟨500, 2000, 2500⟩ at Δ=3
//! (the simulator workload sweeps Δ). `--trace 0` measures the
//! end-to-end metrics; `--trace 1` measures them once untraced and once
//! traced, and reports the per-layer metrics plus the tracing overhead
//! (traced minus untraced, per end-to-end metric). The last line of
//! standard output is one JSON object; the exit code is 0 only when
//! every correctness gate passed. See `README.md` for the workloads and
//! what each metric should move.

mod broker;
mod layers;
mod report;
mod sim;
mod spans;
mod stats;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;

use bdisk_sched::{BroadcastPlan, DiskLayout};

use report::Report;
use stats::{percentile, sorted};

/// The paper's D5 disk sizes.
pub const D5: [usize; 3] = [500, 2000, 2500];
/// Δ of every broker workload.
pub const DELTA: u64 = 3;

pub fn d5(delta: u64) -> DiskLayout {
    DiskLayout::with_delta(&D5, delta).expect("D5 is a valid layout")
}

pub fn d5_plan() -> BroadcastPlan {
    BroadcastPlan::generate(&d5(DELTA), 1).expect("D5 generates a plan")
}

/// Derives an independent seed for stream `stream` of a run (SplitMix64
/// finalizer over the pair), so every client and simulator seed follows
/// from the one workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `setup_s` of a run: the 10th percentile of its set-up samples. They
/// fall into two modes about 40% apart (other tenants of the host), and
/// the share in the slow mode drifts over minutes: set medians moved by
/// up to 44% between ten-seed sets an hour apart, past the metric's
/// bound, while the fast mode held.
pub fn setup_s(samples: Vec<f64>) -> f64 {
    percentile(&sorted(samples), 10.0).unwrap_or(f64::NAN)
}

/// Where traced runs write their spans.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.tsv"))
}

pub const WORKLOADS: [&str; 4] = ["push_fanout", "paced_clients", "pull_flood", "sim_fig13"];

/// `BENCHMARK.json`'s `end_to_end` metrics: the JSON line of every
/// untraced run holds exactly these, on every workload.
pub const END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "lateness_p50_us", "peak_rss_mb"];

/// `BENCHMARK.json`'s `per_layer` metrics: the JSON line of every traced
/// run holds exactly these, on every workload. They are the probe rows
/// (each layer called directly, see `layers`) and the tracing overhead;
/// rows that only one workload's spans yield are printed, not listed.
pub const PER_LAYER: [&str; 30] = [
    "trace.timer_ns",
    "overhead.setup_s",
    "overhead.ops_per_s",
    "overhead.lateness_p50_us",
    "sched.plan_hash_us",
    "sched.plan_hash_us_bench_layout",
    "sched.slot_at_ns",
    "sched.plan_generate_ms",
    "sched.next_arrival_ns",
    "frame.encode_ns",
    "frame.decode_ns",
    "frame.crc_mb_s",
    "fleet.crc_check_ns",
    "engine.null_slots_per_s",
    "upstream.parse_ns",
    "arbiter.submit_ns",
    "arbiter.arbitrate_ns",
    "cache.lru.hit_ns",
    "cache.lru.insert_ns",
    "cache.lru.hit_ratio",
    "cache.l.hit_ns",
    "cache.l.insert_ns",
    "cache.l.hit_ratio",
    "cache.lix.hit_ns",
    "cache.lix.insert_ns",
    "cache.lix.hit_ratio",
    "cache.pix.hit_ns",
    "cache.pix.insert_ns",
    "cache.pix.hit_ratio",
    "workload.next_request_ns",
];

#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}' (one of {WORKLOADS:?})"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload phase; `layers` is `Some` on the traced phase and
/// collects the per-layer metrics.
fn run_phase(opts: &Opts, layers: Option<&mut Report>) -> Report {
    match opts.workload.as_str() {
        "push_fanout" => broker::free_run(opts, broker::PUSH_FANOUT, layers),
        "pull_flood" => broker::free_run(opts, broker::PULL_FLOOD, layers),
        "paced_clients" => broker::paced_clients(opts, layers),
        "sim_fig13" => sim::fig13(opts, layers),
        other => unreachable!("workload '{other}' was validated at parse time"),
    }
}

/// Runs `opts` to completion: the end-to-end report, or with tracing the
/// per-layer report (which carries both phases' gates and counts).
pub fn run(opts: &Opts) -> Report {
    if !opts.trace {
        let mut report = run_phase(opts, None);
        report.expect_metrics(&END_TO_END);
        return report;
    }
    // Both phases share the run's time, so a traced run takes about as
    // long as an untraced one.
    let half = Opts {
        seconds: opts.seconds / 2.0,
        ..opts.clone()
    };
    let untraced = run_phase(&half, None);
    let mut layers = Report::default();
    layers.metric("trace.timer_ns", spans::timer_overhead_ns(), "ns");
    let traced = run_phase(&half, Some(&mut layers));
    // The simulator workload has no engine: its frame and engine rows
    // use the smallest page, push-only.
    let pull = opts.workload == "pull_flood";
    let page_size = if pull {
        broker::PULL_FLOOD.page_size
    } else {
        broker::PUSH_FANOUT.page_size
    };
    layers::probes(page_size, pull, opts.seed, &mut layers);
    // `peak_rss_mb` is the process's peak so far: the traced phase's
    // reading already holds the untraced phase's, so it has no overhead.
    for m in untraced.metrics.iter().filter(|m| m.name != "peak_rss_mb") {
        if let Some(t) = traced.get(&m.name) {
            layers.metric(format!("overhead.{}", m.name), t - m.value, m.unit);
        }
    }
    for phase in [untraced, traced] {
        layers.notes.extend(phase.notes);
        layers.gates.extend(phase.gates);
        layers.count(phase.attempted, phase.failed);
    }
    layers.expect_metrics(&PER_LAYER);
    layers
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&args(
            "--workload sim_fig13 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            o,
            Opts {
                workload: "sim_fig13".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload sim_fig13 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload sim_fig13 --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload sim_fig13 --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive(5, 1), derive(5, 1));
        assert_ne!(derive(5, 1), derive(5, 2));
        assert_ne!(derive(5, 1), derive(6, 1));
    }

    /// The `name`s of one metric list of the repository's `BENCHMARK.json`
    /// (its `per_layer` list follows its `end_to_end` list).
    fn manifest_names(list: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let after = text
            .split("\"end_to_end\"")
            .nth(1)
            .expect("end_to_end list");
        let (end_to_end, per_layer) = after.split_once("\"per_layer\"").expect("per_layer list");
        let section = if list == "end_to_end" {
            end_to_end
        } else {
            per_layer
        };
        section
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim_start()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        assert_eq!(manifest_names("end_to_end"), END_TO_END);
        assert_eq!(manifest_names("per_layer"), PER_LAYER);
    }

    #[test]
    fn every_workload_reports_every_manifest_metric() {
        // pull_flood gets 0.25 s segments per phase (see its smoke test).
        for (workload, seconds) in [
            ("push_fanout", 0.4),
            ("paced_clients", 0.2),
            ("pull_flood", 2.0),
            ("sim_fig13", 0.02),
        ] {
            for trace in [false, true] {
                let r = run(&Opts {
                    workload: workload.into(),
                    seed: 9,
                    seconds,
                    trace,
                });
                let failed: Vec<_> = r
                    .gates
                    .iter()
                    .filter(|g| !g.ok)
                    .map(|g| &g.detail)
                    .collect();
                assert!(r.correct(), "{workload} trace {trace}: {failed:?}");
            }
        }
    }

    #[test]
    fn setup_s_is_the_tenth_percentile_of_the_samples() {
        // Nearest rank: 2 of 20 samples lie at or below the 10th percentile.
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(setup_s(samples), 2.0);
        assert!(setup_s(Vec::new()).is_nan());
    }

    #[test]
    fn d5_is_the_papers_layout() {
        let plan = d5_plan();
        assert_eq!(plan.num_pages(), 5000);
        assert_eq!(plan.max_period(), 14028);
    }
}
