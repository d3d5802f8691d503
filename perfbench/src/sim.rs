//! The simulator workloads: `sim-stream`, `sim-repair` and `sim-sharded`,
//! plus the `sim-churn` defect reproduction, driven through
//! `workloads::Runner`.
//!
//! One run repeats the workload's scenario at the run's seed until the
//! measuring time is used up and reports medians over the repetitions.
//! Untraced repetitions use [`Layered<()>`], which only stamps phase
//! boundaries; traced ones use [`Layered<Timed>`]. Both must produce the
//! same engine fingerprint.

use crate::probe::{self, Layered, Meter, Timed, LAYER_NAMES};
use crate::replay;
use crate::report::{latency_tail, median, quantile_sorted, ratio, Report};
use crate::{host, Args};
use brisa::{BrisaNode, DeliveryTracking};
use brisa_simnet::SimDuration;
use brisa_workloads::{
    BrisaScenario, BrisaStackConfig, ChurnSpec, EngineResult, FaultSpec, IntoRunSpec,
    PartitionPhase, ResultMode, RunSpec, Runner, StreamSpec,
};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

/// A simulator workload's scenario and driver settings.
pub struct SimSetup {
    scenario: BrisaScenario,
    cfg: BrisaStackConfig,
    shards: usize,
}

/// Builds the scenario of `workload` at `seed`.
pub fn setup(workload: &str, seed: u64) -> SimSetup {
    // Shared shape: a 1 KiB stream at 100 msg/s over a 1k-node HyParView
    // overlay with view 4, collected through the streaming result path.
    // A short drain keeps the stream, not idle maintenance, dominant.
    let mut scenario = BrisaScenario {
        nodes: 1000,
        view_size: 4,
        seed,
        stream: StreamSpec {
            messages: 500,
            rate_per_sec: 100.0,
            payload_bytes: 1024,
        },
        bootstrap: SimDuration::from_secs(30),
        drain: SimDuration::from_secs(2),
        results: ResultMode::Streaming,
        ..Default::default()
    };
    let mut shards = 1;
    match workload {
        "sim-stream" => {}
        "sim-sharded" => shards = host::nproc().max(2),
        "sim-repair" | "sim-churn" => {
            // A 30 s stream at 20 msg/s under 1 % per-link loss.
            scenario.stream.rate_per_sec = 20.0;
            scenario.stream.messages = 600;
            scenario.drain = SimDuration::from_secs(20);
            scenario.faults = FaultSpec::loss(0.01);
            if workload == "sim-repair" {
                // A fifth of the nodes is cut off for 5 s (100 messages)
                // and must close that gap from upstream buffers after the
                // heal.
                scenario.faults.partition = Some(PartitionPhase::drop(
                    0.2,
                    SimDuration::from_secs(5),
                    SimDuration::from_secs(5),
                ));
            } else {
                // The scale_churn shape (0.5 % replaced per 15 s). Not a
                // benchmark workload: it reproduces the churn wedge that
                // GLOSSARY.md describes.
                scenario.churn = Some(ChurnSpec {
                    rate_percent: 0.5,
                    interval: SimDuration::from_secs(15),
                    duration: SimDuration::from_secs(30),
                });
            }
        }
        other => unreachable!("not a simulator workload: {other}"),
    }
    let mut cfg = BrisaStackConfig {
        hpv: scenario.hyparview_config(),
        brisa: scenario.brisa_config(),
    };
    // Full tracking keeps exact per-message delivery times, from which the
    // probe derives exact latency quantiles at collect time.
    cfg.brisa.tracking = DeliveryTracking::Full;
    if workload != "sim-stream" && workload != "sim-sharded" {
        // 100 % delivery under loss needs a retransmission buffer that
        // reaches back across the whole stream.
        cfg.brisa.buffer_size = cfg.brisa.buffer_size.max(scenario.stream.messages as usize);
    }
    SimSetup {
        scenario,
        cfg,
        shards,
    }
}

/// The measurements of one repetition.
struct Rep {
    /// Which of the run's seeds it ran.
    seed_index: usize,
    fingerprint: u64,
    setup_s: f64,
    build_s: f64,
    bootstrap_s: f64,
    stream_s: f64,
    collect_s: f64,
    got: u64,
    expected: u64,
    delivered_total: u64,
    duplicates_total: u64,
    uploaded: u64,
    bytes_per_node: f64,
    events: u64,
    latency_us: Vec<f64>,
    /// CPU seconds of the process from the run's start to the first
    /// collect call.
    sim_cpu_s: f64,
    /// CPU seconds over the stream of every thread but the driving one.
    shard_cpu_s: f64,
    /// CPU seconds of the process over the stream.
    stream_cpu_s: f64,
    totals: probe::Totals,
}

/// The engine fingerprint, hashed: runs are compared within one process,
/// where `DefaultHasher::new` always starts from the same keys.
fn fingerprint_hash(r: &EngineResult) -> u64 {
    let mut h = DefaultHasher::new();
    r.fingerprint().hash(&mut h);
    h.finish()
}

fn run_once<M: Meter>(s: &SimSetup, shards: usize, seed_index: usize) -> Rep {
    let spec: RunSpec = s.scenario.run_spec();
    probe::take_phases();
    probe::take_latencies_us();
    probe::take_totals();
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let result = Runner::<Layered<M>>::new(&s.cfg, &spec)
        .shards(shards)
        .run();
    let t_end = Instant::now();
    let phases = probe::take_phases();
    let first_publish = phases.first_publish.expect("the stream published");
    let first_collect = phases.first_collect.expect("the run collected");
    let last_build = phases.last_build.unwrap_or(t0);
    let summary = result.streaming.as_ref().expect("streaming results");
    let mut latency_us: Vec<f64> = probe::take_latencies_us()
        .into_iter()
        .map(|v| v as f64)
        .collect();
    latency_us.sort_by(f64::total_cmp);
    let sim_cpu_s = phases.collect_cpu.0 - cpu0;
    let shard_cpu_s = (phases.collect_cpu.0 - phases.publish_cpu.0)
        - (phases.collect_cpu.1 - phases.publish_cpu.1);
    Rep {
        seed_index,
        fingerprint: fingerprint_hash(&result),
        setup_s: (first_publish - t0).as_secs_f64(),
        build_s: (last_build - t0).as_secs_f64(),
        bootstrap_s: (first_publish - last_build).as_secs_f64(),
        stream_s: (first_collect - first_publish).as_secs_f64(),
        collect_s: (t_end - first_collect).as_secs_f64(),
        got: summary.got,
        expected: summary.expected,
        delivered_total: summary.delivered_total,
        duplicates_total: summary.duplicates_total,
        uploaded: summary.uploaded_bytes,
        bytes_per_node: summary.footprint.bytes_per_node(),
        events: result.sim_events(),
        latency_us,
        sim_cpu_s,
        shard_cpu_s,
        stream_cpu_s: phases.collect_cpu.0 - phases.publish_cpu.0,
        totals: probe::take_totals(),
    }
}

/// Input seeds per run. A run cycles its repetitions through the run's
/// seed and seeds derived from it: repair work varies from seed to seed,
/// and a median over several overlays keeps one unlucky overlay from
/// setting a run's figures.
const SEEDS: usize = 3;

/// Runs a simulator workload for `args.seconds` and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let setups: Vec<SimSetup> = (0..SEEDS)
        .map(|i| match i {
            0 => args.seed,
            i => brisa_simnet::seed::split_mix64(args.seed, i as u64),
        })
        .map(|seed| setup(&args.workload, seed))
        .collect();
    let s = &setups[0];
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    println!(
        "context: {}",
        host::context_json(
            &args.workload,
            args.seed,
            args.trace,
            &[
                ("seeds", SEEDS as f64),
                ("shards", s.shards as f64),
                // The live runtime's knobs; 0: this workload has no reactor.
                ("reactor_workers", 0.0),
                ("join_stagger_ms", 0.0),
                ("nodes", s.scenario.nodes as f64),
                ("messages", s.scenario.stream.messages as f64),
                ("rate_per_sec", s.scenario.stream.rate_per_sec),
                ("buffer_size", s.cfg.brisa.buffer_size as f64),
            ],
        )
    );

    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    // The footprint of one repetition: later ones run on a heap the
    // earlier ones fragmented, so the process peak keeps creeping up.
    let mut peak_rss_mb = 0.0;
    loop {
        let k = plain.len() % SEEDS;
        plain.push(run_once::<()>(&setups[k], s.shards, k));
        if plain.len() == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
        if args.trace {
            traced.push(run_once::<Timed>(&setups[k], s.shards, k));
        }
        if plain.len() >= SEEDS && start.elapsed() >= budget {
            break;
        }
    }
    // The first repetition of each seed: the reference for its others, and
    // the source of the figures that do not depend on timing.
    let firsts: Vec<&Rep> = plain.iter().take(SEEDS).collect();

    for (i, r) in plain.iter().chain(&traced).enumerate() {
        report.attempted += r.expected;
        report.failed += r.expected - r.got.min(r.expected);
        report.check("delivers_100_percent", r.got == r.expected, || {
            format!(
                "repetition {i} (seed {}) delivered {} of {} pairs",
                setups[r.seed_index].scenario.seed, r.got, r.expected
            )
        });
    }
    for (i, r) in plain.iter().enumerate() {
        report.check(
            "repetitions_deterministic",
            r.fingerprint == firsts[r.seed_index].fingerprint,
            || format!("repetition {i} differs from the first one of its seed"),
        );
    }
    for (i, r) in traced.iter().enumerate() {
        report.check(
            "traced_equals_untraced",
            r.fingerprint == firsts[r.seed_index].fingerprint,
            || format!("traced repetition {i} differs from the untraced run of its seed"),
        );
    }
    if s.shards > 1 {
        // The sharded driver must reproduce the sequential run bit for bit;
        // the sequential run is exactly sim-stream at the run's seed.
        let seq = run_once::<()>(s, 1, 0);
        report.check(
            "sharded_equals_sequential",
            seq.fingerprint == firsts[0].fingerprint,
            || "sharded fingerprint differs from the sequential sim-stream run".into(),
        );
    }

    let med = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let first_med =
        |f: &dyn Fn(&Rep) -> f64| median(&firsts.iter().map(|r| f(r)).collect::<Vec<_>>());
    println!(
        "repetitions: {} untraced, {} traced, {:.1} s",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    for (label, reps) in [("untraced", &plain), ("traced", &traced)] {
        for r in reps.iter() {
            println!(
                "  {label} repetition (seed {}): setup {:.4} s, stream {:.4} s ({:.2} CPU s), \
                 collect {:.4} s, {} events",
                setups[r.seed_index].scenario.seed,
                r.setup_s,
                r.stream_s,
                r.stream_cpu_s,
                r.collect_s,
                r.events
            );
        }
    }
    for r in &firsts {
        let lat = &r.latency_us;
        println!(
            "simulated latency (seed {}): p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, \
             p99.9 {:.3} ms over {} samples",
            setups[r.seed_index].scenario.seed,
            quantile_sorted(lat, 0.5) / 1000.0,
            quantile_sorted(lat, 0.9) / 1000.0,
            quantile_sorted(lat, 0.99) / 1000.0,
            quantile_sorted(lat, 0.999) / 1000.0,
            lat.len()
        );
    }

    // End-to-end metrics (untraced repetitions).
    report.metric("setup_s", med(&|r| r.setup_s), "s");
    report.metric(
        "deliveries_per_s",
        med(&|r| r.got as f64 / (r.stream_s + r.collect_s)),
        "1/s",
    );
    report.metric(
        "delivery_rate",
        ratio(
            plain.iter().map(|r| r.got as f64).sum(),
            plain.iter().map(|r| r.expected as f64).sum(),
        ),
        "ratio",
    );
    report.metric(
        "upload_bytes_per_delivery",
        first_med(&|r| ratio(r.uploaded as f64, r.delivered_total as f64)),
        "B",
    );
    report.metric("bytes_per_node", first_med(&|r| r.bytes_per_node), "B");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric(
        "latency_p50_ms",
        first_med(&|r| quantile_sorted(&r.latency_us, 0.5) / 1000.0),
        "ms",
    );

    if args.trace {
        per_layer(s, &plain, &traced, report);
    }
}

fn per_layer(s: &SimSetup, plain: &[Rep], traced: &[Rep], report: &mut Report) {
    let tmed = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let pmed = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    report.metric("workloads.engine.build_s", pmed(&|r| r.build_s), "s");
    report.metric(
        "workloads.engine.bootstrap_s",
        pmed(&|r| r.bootstrap_s),
        "s",
    );
    report.metric("workloads.engine.stream_s", pmed(&|r| r.stream_s), "s");
    report.metric("workloads.engine.collect_s", pmed(&|r| r.collect_s), "s");

    let events = plain[0].events as f64;
    report.metric("simnet.events", events, "count");
    // Building nodes is single-threaded and makes no callbacks, so its
    // wall time stands in for its CPU time.
    let self_s = tmed(&|r| (r.sim_cpu_s - r.build_s - r.totals.total_ns() as f64 / 1e9).max(0.0));
    report.metric("simnet.driver.self_s", self_s, "s");
    report.metric(
        "simnet.driver.ns_per_event",
        ratio(self_s * 1e9, events),
        "ns",
    );

    if s.shards == 1 {
        let mut spec = s.scenario.run_spec();
        spec.trace_events = true;
        let bare = Runner::<BrisaNode>::new(&s.cfg, &spec).run();
        report.check(
            "wrapper_equals_bare",
            fingerprint_hash(&bare) == plain[0].fingerprint,
            || "the bare-node run differs from the wrapped untraced run".into(),
        );
        let trace = bare.event_trace;
        let record = brisa_simnet::event_record_size::<BrisaNode>();
        let (wheel, heap) = replay::schedulers(&trace, record);
        report.metric("simnet.sched.ops", trace.len() as f64, "count");
        report.metric("simnet.sched.wheel_ns_per_op", wheel, "ns");
        report.metric("simnet.sched.heap_ns_per_op", heap, "ns");
    } else {
        // The sharded driver runs one scheduler per shard and refuses the
        // trace; the sequential workloads own these metrics.
        report.metric("simnet.sched.ops", 0.0, "count");
        report.metric("simnet.sched.wheel_ns_per_op", 0.0, "ns");
        report.metric("simnet.sched.heap_ns_per_op", 0.0, "ns");
    }
    let (shard_cpu, busy) = if s.shards > 1 {
        let cpu = pmed(&|r| r.shard_cpu_s);
        (cpu, ratio(cpu, pmed(&|r| r.stream_s) * s.shards as f64))
    } else {
        (0.0, 0.0)
    };
    report.metric("simnet.shard.cpu_s", shard_cpu, "s");
    report.metric("simnet.shard.busy_frac", busy, "ratio");

    for (i, name) in LAYER_NAMES.iter().enumerate() {
        report.metric(
            &format!("{name}.calls"),
            traced[0].totals.calls[i] as f64,
            "count",
        );
        report.metric(
            &format!("{name}.ns_per_call"),
            tmed(&|r| ratio(r.totals.ns[i] as f64, r.totals.calls[i] as f64)),
            "ns",
        );
    }
    let p = &plain[0];
    let lat_ms: Vec<f64> = p.latency_us.iter().map(|us| us / 1000.0).collect();
    latency_tail(report, &lat_ms);
    report.metric(
        "brisa.duplicates_per_delivery",
        ratio(p.duplicates_total as f64, p.delivered_total as f64),
        "ratio",
    );
    report.metric(
        "membership.neighbor_per_node",
        traced[0].totals.neighbor as f64 / s.scenario.nodes as f64,
        "count",
    );
    crate::live::absent_runtime_metrics(report);
    report.metric(
        "trace.overhead_frac",
        ratio(tmed(&|r| r.stream_s), pmed(&|r| r.stream_s)) - 1.0,
        "ratio",
    );
}
