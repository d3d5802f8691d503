//! The repository's benchmark: one command, four workloads, named
//! end-to-end metrics and a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-stream --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) report the per-layer metrics and the tracing overhead.
//! Every run checks its outputs; a failed check is named on standard
//! error and sets `"correct": false`. The last line of standard output is
//! the JSON result; everything above it is the human-readable artifact,
//! host context included. GLOSSARY.md defines every workload and metric.

mod delegation;
mod host;
mod live;
mod probe;
mod replay;
mod report;
mod sim;

use report::Report;

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 4] = ["sim-stream", "sim-repair", "sim-sharded", "live-tcp"];

/// Workloads that reproduce a known defect of the program (GLOSSARY.md);
/// they run like the others but are not part of BENCHMARK.json.
const DEFECT_WORKLOADS: [&str; 1] = ["sim-churn"];

/// End-to-end metrics, printed by untraced runs.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "deliveries_per_s",
    "delivery_rate",
    "upload_bytes_per_delivery",
    "bytes_per_node",
    "peak_rss_mb",
    "latency_p50_ms",
];

/// Per-layer metrics, printed by traced runs.
const PER_LAYER: [&str; 46] = [
    "workloads.engine.build_s",
    "workloads.engine.bootstrap_s",
    "workloads.engine.stream_s",
    "workloads.engine.collect_s",
    "simnet.events",
    "simnet.driver.self_s",
    "simnet.driver.ns_per_event",
    "simnet.sched.ops",
    "simnet.sched.wheel_ns_per_op",
    "simnet.sched.heap_ns_per_op",
    "simnet.shard.cpu_s",
    "simnet.shard.busy_frac",
    "brisa.data.calls",
    "brisa.data.ns_per_call",
    "brisa.retransmit.calls",
    "brisa.retransmit.ns_per_call",
    "brisa.control.calls",
    "brisa.control.ns_per_call",
    "brisa.repair_timer.calls",
    "brisa.repair_timer.ns_per_call",
    "brisa.duplicates_per_delivery",
    "membership.join.calls",
    "membership.join.ns_per_call",
    "membership.keepalive.calls",
    "membership.keepalive.ns_per_call",
    "membership.shuffle.calls",
    "membership.shuffle.ns_per_call",
    "membership.neighbor_per_node",
    "runtime.reactor.cpu_s",
    "runtime.reactor.busy_frac",
    "runtime.reactor.proto_frac",
    "runtime.reactor.poll_iter_us_p50",
    "runtime.reactor.poll_iter_us_p99",
    "runtime.reactor.inbox_batch_p50",
    "runtime.reactor.backpressure_stalls",
    "runtime.wire.encode_ns",
    "runtime.wire.decode_ns",
    "runtime.wire.bytes_per_frame",
    "runtime.cluster.frames_per_delivery",
    "runtime.generator.lag_p99_ms",
    "runtime.max_rate",
    "latency.p90_ms",
    "latency.p99_ms",
    "latency.p999_ms",
    "latency.samples",
    "trace.overhead_frac",
];

/// Command-line arguments.
pub struct Args {
    /// Workload name, one of [`WORKLOADS`] or [`DEFECT_WORKLOADS`].
    pub workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) && !DEFECT_WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or {DEFECT_WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    delegation::check(&mut report);
    if args.workload == "live-tcp" {
        live::run(&args, &mut report);
    } else {
        sim::run(&args, &mut report);
    }
    let keep: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names = report.names();
    let missing: Vec<&str> = keep
        .iter()
        .copied()
        .filter(|k| !names.contains(k))
        .collect();
    report.check("every_metric_reported", missing.is_empty(), || {
        format!("missing {missing:?}")
    });
    println!("loadavg_end: {:.2}", host::loadavg());
    report.print_table();
    // A failed check marks the result incorrect; the exit code stays 0,
    // since the benchmark itself ran to completion.
    if !report.correct() {
        eprintln!("perfbench: failed checks: {:?}", report.failures());
    }
    println!("{}", report.result_json(keep));
}
