//! The InteGrade benchmark: one workload per process, run in whole rounds
//! for a fixed number of host seconds.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--untraced-run-s <s>]
//! perfbench --repro suppression-silence [--seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs report the
//! end-to-end metrics, traced runs (built with `--features profile`) the
//! per-layer ones. See `README.md` for the workloads and the metric map.

mod calib;
mod checks;
mod layers;
mod stats;
mod workloads;

use stats::{median, percentile};
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Round, RoundTrace, Workload, NAMES};

/// End-to-end metrics, with their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("turnaround_p50_sim_s", "s"),
    ("turnaround_p90_sim_s", "s"),
];

/// Per-layer metrics, with their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("grid.build_s", "s"),
    ("grid.run_hour_p50_s", "s"),
    ("grid.report_s", "s"),
    ("workload.generate_s", "s"),
    ("simnet.events", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.queue_peak_depth", "count"),
    ("simnet.net_messages", "count"),
    ("simnet.net_bytes", "bytes"),
    ("simnet.event.schedule_pop_ns", "ns"),
    ("orb.giop.decode_ns", "ns"),
    ("orb.giop.encode_ns", "ns"),
    ("orb.trading.modify_ns", "ns"),
    ("orb.requests_dispatched", "count"),
    ("orb.oneways_sent", "count"),
    ("orb.giop.ckpt_decode_ns_per_kb", "ns/KiB"),
    ("orb.trading.query_us", "us"),
    ("grm.updates_accepted", "count"),
    ("grm.trader_queries", "count"),
    ("lrm.evictions", "count"),
    ("lrm.negotiation_refusals", "count"),
    ("lrm.wasted_work_mips_s", "MIPS-s"),
    ("repo.checkpoint_stores", "count"),
    ("gupa.models", "count"),
    ("gupa.digest_us", "us"),
    ("federation.submit_us_p50", "us"),
    ("federation.wan_messages", "count"),
    ("federation.wan_bytes", "bytes"),
    ("federation.forwards", "count"),
    ("federation.spillover_queries", "count"),
    ("federation.summary_updates", "count"),
    ("profile.queue_pop_s", "s"),
    ("profile.dispatch_s", "s"),
    ("profile.giop_decode_s", "s"),
    ("profile.giop_encode_s", "s"),
    ("profile.slot_walk_s", "s"),
    ("profile.catch_up_replay_s", "s"),
    ("profile.gupa_digest_s", "s"),
    ("profile.overhead_s", "s"),
];

struct Args {
    /// A fault reproduction to run instead of a workload.
    repro: Option<String>,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    untraced_run_s: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut untraced_run_s = None;
    let mut repro = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--repro" => repro = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad.clone())? == 1,
            "--untraced-run-s" => {
                untraced_run_s = Some(value.parse::<f64>().map_err(|_| bad.clone())?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if repro.is_some() {
        return Ok(Args {
            repro,
            workload: String::new(),
            seed: seed.unwrap_or(1),
            seconds: 0.0,
            trace: false,
            untraced_run_s: None,
        });
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {NAMES:?}"));
    }
    Ok(Args {
        repro: None,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        untraced_run_s,
    })
}

/// The process's peak resident set, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1_024.0)
}

/// Median over rounds of one traced reading.
fn traced_median(rounds: &[Round], f: impl Fn(&RoundTrace) -> f64) -> f64 {
    let values: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.trace.as_ref())
        .map(f)
        .collect();
    median(&values)
}

fn per_layer(
    workload: &dyn Workload,
    rounds: &[Round],
    generate_s: f64,
    untraced_run_s: Option<f64>,
) -> BTreeMap<&'static str, f64> {
    let first = rounds[0].trace.as_ref().expect("traced round");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.extend(first.counters.iter().map(|(k, v)| (*k, *v)));
    m.insert("grid.build_s", traced_median(rounds, |t| t.build_s));
    m.insert(
        "grid.run_hour_p50_s",
        traced_median(rounds, |t| median(&t.hour_s)),
    );
    m.insert("grid.report_s", traced_median(rounds, |t| t.report_s));
    m.insert("workload.generate_s", generate_s);
    let run_s = median(&rounds.iter().map(|r| r.run_s).collect::<Vec<_>>());
    m.insert("simnet.events", first.events as f64);
    m.insert(
        "simnet.ns_per_event",
        if first.events > 0 {
            run_s * 1e9 / first.events as f64
        } else {
            0.0
        },
    );
    if !first.submit_us.is_empty() {
        let all: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.trace.as_ref())
            .flat_map(|t| t.submit_us.iter().copied())
            .collect();
        m.insert("federation.submit_us_p50", median(&all));
    }
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("profile.")) {
        if first.phases.contains_key(name) {
            m.insert(name, traced_median(rounds, |t| t.phases[name]));
        }
    }
    m.insert(
        "profile.overhead_s",
        untraced_run_s.map_or(0.0, |untraced| run_s - untraced),
    );

    let sizes = workload.probe_sizes();
    let status = first.status.clone().expect("a node status was read");
    let (encode, decode) = layers::status_frame_ns(&status);
    m.insert("orb.giop.encode_ns", encode);
    m.insert("orb.giop.decode_ns", decode);
    m.insert(
        "orb.trading.modify_ns",
        layers::trader_modify_ns(sizes.offers, &status),
    );
    m.insert(
        "orb.trading.query_us",
        layers::trader_query_us(&sizes, &status),
    );
    m.insert(
        "orb.giop.ckpt_decode_ns_per_kb",
        layers::checkpoint_decode_ns_per_kb(sizes.checkpoint_bytes),
    );
    m.insert(
        "simnet.event.schedule_pop_ns",
        layers::schedule_pop_ns(sizes.queue_occupancy),
    );
    m.insert("gupa.digest_us", layers::gupa_digest_us(&sizes.trace));
    m
}

fn json_metrics(values: &BTreeMap<&str, f64>, names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match args.repro.as_deref() {
        None => {}
        Some("suppression-silence") => {
            for line in workloads::suppression_silence(args.seed) {
                println!("{line}");
            }
            return;
        }
        Some(other) => {
            eprintln!(
                "perfbench: unknown reproduction {other:?}; one of [\"suppression-silence\"]"
            );
            std::process::exit(2);
        }
    }
    let generate = Instant::now();
    let workload = workloads::generate(&args.workload, args.seed).expect("name checked");
    let generate_s = generate.elapsed().as_secs_f64();

    let calibration = calib::Calibration::new();
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut kernel_s = Vec::new();
    loop {
        let before = calibration.measure();
        let mut round = workload.round(args.trace);
        let after = calibration.measure();
        let scale = calib::NOMINAL_S * 2.0 / (before + after);
        round.setup_s *= scale;
        round.run_s *= scale;
        kernel_s.push((before + after) / 2.0);
        rounds.push(round);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let digest = rounds[0].digest;
    let mut correct = true;
    for (i, r) in rounds.iter().enumerate() {
        for p in &r.problems {
            println!("check failed (round {i}): {p}");
            correct = false;
        }
        if r.digest != digest {
            println!(
                "check failed (round {i}): outcome digest {:016x} differs from round 0's {digest:016x}",
                r.digest
            );
            correct = false;
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let samples = &rounds[0].turnaround_s;
    println!(
        "perfbench workload={} seed={} rounds={} outcome_digest={digest:016x} \
         jobs_per_round={} failed_per_round={} turnaround_samples={} \
         calibration_s={} {}",
        args.workload,
        args.seed,
        rounds.len(),
        rounds[0].attempted,
        rounds[0].failed,
        samples.len(),
        median(&kernel_s),
        rounds[0].notes.join(" "),
    );

    let metrics = if args.trace {
        json_metrics(
            &per_layer(workload.as_ref(), &rounds, generate_s, args.untraced_run_s),
            &PER_LAYER,
        )
    } else {
        let mut m = BTreeMap::new();
        m.insert(
            "setup_s",
            median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        );
        m.insert(
            "run_s",
            median(&rounds.iter().map(|r| r.run_s).collect::<Vec<_>>()),
        );
        m.insert("peak_rss_mb", peak_rss_mb());
        m.insert(
            "turnaround_p50_sim_s",
            percentile(samples, 0.5).unwrap_or(0.0),
        );
        m.insert(
            "turnaround_p90_sim_s",
            percentile(samples, 0.9).unwrap_or(0.0),
        );
        json_metrics(&m, &END_TO_END)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` values of one metric list in `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = text[start..].find(']').expect("list closes") + start;
        text[start..end]
            .split("\"name\"")
            .skip(1)
            .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| (*n).to_owned()).collect()
        };
        assert_eq!(listed("end_to_end"), names(&END_TO_END));
        assert_eq!(listed("per_layer"), names(&PER_LAYER));
        assert_eq!(listed("workloads"), NAMES.map(str::to_owned).to_vec());
    }

    #[test]
    fn json_line_carries_every_metric() {
        let line = json_metrics(&BTreeMap::from([("run_s", 1.5)]), &END_TO_END);
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("\"run_s\": {\"value\": 1.5, "));
    }
}
