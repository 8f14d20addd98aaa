//! The repository's benchmark: four workloads over the Khameleon crates,
//! each checked for correct output, reporting end-to-end metrics on untraced
//! runs and per-layer metrics on traced runs.
//!
//! ```text
//! khameleon-perfbench --workload <trace_replay|predict_churn|fleet_steady|socket_stream>
//!                     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it give
//! the run's provenance and the sample count behind each percentile.  The
//! process exits non-zero when any output check failed.  `perfbench/run.py`
//! builds and runs this binary; `perfbench/README.md` defines every metric.

mod churn;
mod common;
mod fleet;
mod stream;
mod trace_replay;

use common::{peak_rss_mb, Args, Metric, Report};

const WORKLOADS: [&str; 4] = [
    "trace_replay",
    "predict_churn",
    "fleet_steady",
    "socket_stream",
];

/// End-to-end metrics, reported by every workload on untraced runs.
const END_TO_END: [(&str, &str); 8] = [
    ("latency_p50_ms", "ms"),
    ("blocks_per_s", "1/s"),
    ("preempted_rate", "ratio"),
    ("utility_mean", "ratio"),
    ("cache_hit_rate", "ratio"),
    ("overpush_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload on traced runs; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("tail.latency_p90_ms", "ms"),
    ("session.next_event_us_p50", "us"),
    ("session.next_event_us_p99", "us"),
    ("session.on_message_us_p50", "us"),
    ("scheduler.diff_hit_rate", "ratio"),
    ("session.live_models", "count"),
    ("session.sampler_entries", "count"),
    ("churn.update_rtt_us_p50", "us"),
    ("churn.update_rtt_us_p99", "us"),
    ("transport.client.send_prediction_us_p50", "us"),
    ("transport.uplink_bytes_per_update", "B"),
    ("transport.delta_share", "ratio"),
    ("transport.overhead_us_p50", "us"),
    ("transport.client.recv_event_us_p50", "us"),
    ("transport.client.recv_event_us_p99", "us"),
    ("client.on_block_us_p50", "us"),
    ("client.register_us_p50", "us"),
    ("predictor.poll_us_p50", "us"),
    ("gen.lag_p99_ms", "ms"),
    ("server.cpu_s", "s"),
    ("loadgen.cpu_s", "s"),
    ("server.blocks_sent", "count"),
    ("server.frames_in", "count"),
    ("server.frames_out", "count"),
    ("server.resyncs", "count"),
    ("server.decode_errors", "count"),
    ("server.backpressure_skips", "count"),
    ("server.peak_queue_frames", "count"),
    ("sim.latency_p50_ms", "ms"),
    ("sim.latency_p95_ms", "ms"),
    ("sim.preempted_rate", "ratio"),
    ("sim.utility_mean", "ratio"),
    ("sim.cache_hit_rate", "ratio"),
    ("sim.overpush_rate", "ratio"),
    ("fleet.sessions", "count"),
    ("fleet.pulls", "count"),
    ("stream.blocks_received", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.loadgen_cpu_us_per_op", "us"),
    ("trace.untraced_loadgen_cpu_us_per_op", "us"),
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Orders `measured` by the declared list, filling layers the workload does
/// not exercise with 0.  Panics on a name or unit outside the list: the
/// declared list and the workloads must not drift apart.
fn declared(measured: &[Metric], list: &[(&'static str, &'static str)], fill: bool) -> Vec<Metric> {
    for m in measured {
        assert!(
            list.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} [{}] is not declared",
            m.name,
            m.unit
        );
    }
    list.iter()
        .map(
            |&(name, unit)| match measured.iter().rev().find(|m| m.name == name) {
                Some(m) => m.clone(),
                None if fill => Metric {
                    name,
                    value: 0.0,
                    unit,
                },
                None => panic!("workload did not measure {name}"),
            },
        )
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let nproc = online_cpus();
    let mut report = Report::default();
    match args.workload.as_str() {
        "trace_replay" => trace_replay::run(&args, &mut report),
        "predict_churn" => churn::run(&args, &mut report),
        "fleet_steady" => fleet::run(&args, &mut report),
        "socket_stream" => stream::run(&args, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    if !args.trace {
        report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let metrics = if args.trace {
        declared(&report.per_layer, &PER_LAYER, true)
    } else {
        declared(&report.end_to_end, &END_TO_END, false)
    };

    // Provenance and sample counts, one JSON object per line, then the result.
    let rev = std::env::var("PERFBENCH_SOURCE_REV").unwrap_or_else(|_| "unknown".into());
    let mut prov = vec![
        ("workload", json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", json_number(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("tiny", args.tiny.to_string()),
        ("nproc", nproc.to_string()),
        ("cpus_allowed", json_string(&cpus_allowed())),
        ("source_rev", json_string(&rev)),
    ];
    for (k, v) in &report.notes {
        prov.push((k, json_string(v)));
    }
    let body: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", body.join(", "));
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", json_string(k)))
        .collect();
    println!("{{\"samples\": {{{}}}}}", samples.join(", "));
    for (name, ok) in &report.checks {
        println!("{{\"check\": {}, \"ok\": {ok}}}", json_string(name));
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// CPUs online on the host, from `/sys/devices/system/cpu/online` (a list
/// of ranges such as `0-1`): a pinned run may use fewer than there are.
fn online_cpus() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let Ok(list) = std::fs::read_to_string("/sys/devices/system/cpu/online") else {
        return fallback();
    };
    let mut count = 0;
    for range in list.trim().split(',') {
        let mut ends = range.split('-').map(|n| n.parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(_)), None) => count += 1,
            (Some(Ok(a)), Some(Ok(b))) if b >= a => count += b - a + 1,
            _ => return fallback(),
        }
    }
    count
}

/// The CPUs this process may run on, as the kernel lists them
/// (`Cpus_allowed_list` in `/proc/self/status`).
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// A seed kept out of tuning: claims of a gain must also hold on it.
const HELD_OUT_SEED: u64 = 904_117;
