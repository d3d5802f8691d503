//! The live workload `live-tcp`: a 64-node `runtime::Cluster` on the TCP
//! mesh over the loopback interface, driven by one open-loop publisher.
//!
//! The publisher sends on a schedule whatever the cluster does, so a stall
//! delays every later message. Latency is measured from each message's
//! *due* time, timing starts at the first publish (never at launch), and
//! the publisher's own lag is recorded: a run whose generator fell behind
//! its schedule is invalid.

use crate::probe::{self, Layered, Meter, Timed, CAPTURE_FRAMES, LAYER_NAMES};
use crate::replay;
use crate::report::{latency_tail, median, quantile, quantile_sorted, ratio, Report};
use crate::{host, Args};
use brisa::BrisaConfig;
use brisa_membership::HyParViewConfig;
use brisa_runtime::{Cluster, ClusterConfig, LiveResult, RuntimeConfig, TransportKind};
use brisa_simnet::{NodeId, SimDuration, SimTime};
use brisa_telemetry::Telemetry;
use brisa_workloads::{BrisaStackConfig, NodeReport};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const NODES: u32 = 64;
const PAYLOAD: usize = 1024;
/// The fixed offered rate latency is reported at (msg/s).
const FIXED_RATE: f64 = 400.0;
/// The latency limit `runtime.max_rate` must meet, on the 90th percentile.
const P90_LIMIT_MS: f64 = 50.0;
/// Rate ladder for `runtime.max_rate`: 8 % steps, which resolve the rate to
/// within a tenth.
const LADDER_STEP: f64 = 1.08;
const MAX_RUNGS: usize = 32;
/// The publisher's median lag beyond which it fell behind its schedule.
const GENERATOR_LAG_LIMIT_MS: f64 = 1.0;
/// How close to a due time the publisher stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(500);
/// Publishing time of one ladder rung.
const RUNG: Duration = Duration::from_millis(600);
/// Every message of a rung must be delivered this long after the rung's
/// last due time, or the rung built a backlog.
const BACKLOG_WINDOW: Duration = Duration::from_millis(300);
/// Overlay formation before any publish, then an unmeasured warm-up
/// stream that builds the dissemination tree.
const SETTLE: Duration = Duration::from_millis(500);
const WARMUP: Duration = Duration::from_millis(500);
/// Fewest clusters per untraced run; more are launched while the measuring
/// time lasts. `setup_s` is the median of their launches.
const MIN_CLUSTERS: usize = 3;

fn workers() -> usize {
    host::nproc().saturating_sub(1).max(1)
}

fn cluster_config(seed: u64, telemetry: Telemetry) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        transport: TransportKind::Tcp,
        seed,
        runtime: RuntimeConfig {
            // The single publisher thread keeps a core of its own.
            workers: workers(),
            ..RuntimeConfig::default()
        },
        telemetry,
        ..ClusterConfig::default()
    }
}

fn stack_config() -> BrisaStackConfig {
    BrisaStackConfig {
        hpv: HyParViewConfig::with_active_size(4),
        brisa: BrisaConfig::default(),
    }
}

/// One open-loop publishing phase.
struct Phase {
    first_seq: u64,
    /// Due time of each message of the phase, on the cluster clock.
    due: Vec<SimTime>,
    /// How late each publish call was against its due time (ms).
    lag_ms: Vec<f64>,
}

impl Phase {
    fn end_seq(&self) -> u64 {
        self.first_seq + self.due.len() as u64
    }

    fn lag_p99_ms(&self) -> f64 {
        quantile(&self.lag_ms, 0.99)
    }

    /// The generator fell behind its schedule: it published most messages
    /// late. A late wake-up now and then is part of the measured latency
    /// (which runs from due time) and does not invalidate the phase.
    fn generator_behind(&self) -> bool {
        quantile(&self.lag_ms, 0.5) > GENERATOR_LAG_LIMIT_MS
    }

    /// Due-time latencies (ms) in `reports` of this phase's messages from
    /// the `skip`-th on, sorted.
    fn latencies(&self, source: NodeId, reports: &[(NodeId, NodeReport)], skip: usize) -> Vec<f64> {
        let from = self.first_seq + skip as u64;
        let mut out = Vec::new();
        for (id, r) in reports {
            if *id == source {
                continue;
            }
            for &(seq, at) in &r.first_delivery {
                if seq >= from && seq < self.end_seq() {
                    let due = self.due[(seq - self.first_seq) as usize];
                    out.push(at.saturating_since(due).as_micros() as f64 / 1000.0);
                }
            }
        }
        out.sort_by(f64::total_cmp);
        out
    }
}

/// Publishes `count` messages at `rate`, each at its due time.
fn drive<M: Meter>(cluster: &mut Cluster<Layered<M>>, rate: f64, count: u64) -> Phase {
    let first_seq = cluster.published();
    let interval_us = 1e6 / rate;
    let t0 = cluster.now() + SimDuration::from_millis(1);
    let mut due = Vec::with_capacity(count as usize);
    let mut lag_ms = Vec::with_capacity(count as usize);
    for i in 0..count {
        let at = SimTime::from_micros(t0.as_micros() + (i as f64 * interval_us) as u64);
        let deadline = cluster.clock().instant_at(at);
        // Sleep while the due time is far, then yield-spin: a sleeping
        // publisher wakes late by the host's timer slack, which would show
        // up as generator lag in every latency sample.
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if deadline - now > SPIN {
                std::thread::sleep(deadline - now - SPIN);
            } else {
                std::thread::yield_now();
            }
        }
        let actual = cluster.now();
        cluster.publish(PAYLOAD);
        due.push(at);
        lag_ms.push(actual.saturating_since(at).as_micros() as f64 / 1000.0);
    }
    Phase {
        first_seq,
        due,
        lag_ms,
    }
}

/// Snapshots the cluster once every non-source node has delivered `upto`
/// messages, polling until `limit`; `None` if they never do.
fn await_delivery<M: Meter>(
    cluster: &Cluster<Layered<M>>,
    upto: u64,
    first_wait: Duration,
    limit: Duration,
) -> Option<Vec<(NodeId, NodeReport)>> {
    let end = Instant::now() + limit;
    let mut pause = first_wait;
    loop {
        std::thread::sleep(pause);
        let reports = cluster.snapshot_reports();
        let done = reports.len() == cluster.alive()
            && reports
                .iter()
                .all(|(id, r)| *id == cluster.source() || r.delivered >= upto);
        if done {
            return Some(reports);
        }
        if Instant::now() >= end {
            return None;
        }
        pause = Duration::from_millis(200);
    }
}

/// Launches a cluster (timed: the run's set-up), lets it settle and warms
/// the tree up at the fixed rate.
fn warm<M: Meter>(seed: u64, telemetry: Telemetry) -> (Cluster<Layered<M>>, f64) {
    let start = Instant::now();
    let mut cluster =
        Cluster::<Layered<M>>::launch(&cluster_config(seed, telemetry), &stack_config())
            .expect("launch the TCP cluster");
    let setup_s = start.elapsed().as_secs_f64();
    cluster.run_for(SETTLE);
    drive(
        &mut cluster,
        FIXED_RATE,
        (FIXED_RATE * WARMUP.as_secs_f64()) as u64,
    );
    (cluster, setup_s)
}

/// Latency, lag and backlog verdict of one fixed-rate phase.
struct Measured {
    phase: Phase,
    latency_ms: Vec<f64>,
    /// Wall seconds from the first due time to the last delivery.
    span_s: f64,
    within_limit: bool,
}

/// Runs one fixed-rate phase and waits for it to drain.
fn measure<M: Meter>(
    cluster: &mut Cluster<Layered<M>>,
    rate: f64,
    d: Duration,
) -> Option<Measured> {
    let phase = drive(
        cluster,
        rate,
        (rate * d.as_secs_f64()).round().max(1.0) as u64,
    );
    let drained = await_delivery(cluster, phase.end_seq(), BACKLOG_WINDOW, Duration::ZERO);
    let within_window = drained.is_some();
    let reports = match drained {
        Some(r) => r,
        // A backlog: wait for it to drain before anything else runs.
        None => await_delivery(
            cluster,
            phase.end_seq(),
            Duration::ZERO,
            Duration::from_secs(20),
        )?,
    };
    let latency_ms = phase.latencies(cluster.source(), &reports, 0);
    // No backlog: the last quarter of the phase meets the limit too.
    let tail_ms = phase.latencies(cluster.source(), &reports, phase.due.len() * 3 / 4);
    let last = reports
        .iter()
        .filter(|(id, _)| *id != cluster.source())
        .flat_map(|(_, r)| r.first_delivery.iter())
        .filter(|(seq, _)| *seq >= phase.first_seq && *seq < phase.end_seq())
        .map(|(_, at)| *at)
        .max()
        .unwrap_or(phase.due[0]);
    let span_s = last.saturating_since(phase.due[0]).as_secs_f64();
    let within_limit = within_window
        && !phase.generator_behind()
        && quantile_sorted(&latency_ms, 0.9) <= P90_LIMIT_MS
        && quantile_sorted(&tail_ms, 0.9) <= P90_LIMIT_MS;
    Some(Measured {
        phase,
        latency_ms,
        span_s,
        within_limit,
    })
}

/// Whether `rate` meets the limit. A failed rung is tried once more, so
/// one moment of host contention does not end the climb.
fn rung_passes<M: Meter>(cluster: &mut Cluster<Layered<M>>, rate: f64) -> Option<bool> {
    for attempt in 0..2 {
        let m = measure(cluster, rate, RUNG)?;
        println!(
            "  rung {rate:>7.1} msg/s (attempt {attempt}): p90 {:>8.3} ms, lag p99 {:.3} ms -> {}",
            quantile_sorted(&m.latency_ms, 0.9),
            m.phase.lag_p99_ms(),
            if m.within_limit { "pass" } else { "fail" }
        );
        if m.within_limit {
            return Some(true);
        }
    }
    Some(false)
}

/// Climbs the rate ladder from 2.5 times the fixed rate, one step at a
/// time, until a rung fails. A cluster pushed well past its knee stays
/// slower for many seconds afterwards, so the ladder never offers more
/// than one step beyond a passing rate and never comes back down.
fn max_rate<M: Meter>(cluster: &mut Cluster<Layered<M>>) -> Option<f64> {
    let mut pass = FIXED_RATE;
    let mut rate = 2.5 * FIXED_RATE;
    for _ in 0..MAX_RUNGS {
        if !rung_passes(cluster, rate)? {
            break;
        }
        pass = rate;
        rate *= LADDER_STEP;
    }
    Some(pass)
}

/// Reactor-thread CPU seconds right now.
fn reactor_cpu_s() -> f64 {
    host::threads_cpu_s("brisa-shard")
}

/// What one cluster's fixed-rate phase produced.
struct ClusterRun {
    result: LiveResult,
    measured: Measured,
    /// Reactor CPU seconds and wall seconds of the fixed phase.
    reactor_cpu_s: f64,
    phase_wall_s: f64,
    /// Reactor CPU seconds from launch to stop.
    lifetime_cpu_s: f64,
    /// Protocol state per node and the process's peak resident set, both
    /// taken right after the fixed phase (the ladder's overload rungs
    /// queue frames that say nothing about the steady workload).
    state_bytes_per_node: f64,
    peak_rss_mb: f64,
    max_rate: Option<f64>,
}

fn fixed_run<M: Meter>(
    seed: u64,
    telemetry: Telemetry,
    fixed: Duration,
    ladder: bool,
    setups: &mut Vec<f64>,
) -> Option<ClusterRun> {
    let cpu_launch = reactor_cpu_s();
    let (mut cluster, setup_s) = warm::<M>(seed, telemetry);
    setups.push(setup_s);
    let cpu0 = reactor_cpu_s();
    let t0 = Instant::now();
    let measured = measure(&mut cluster, FIXED_RATE, fixed);
    let phase_wall_s = t0.elapsed().as_secs_f64();
    let reactor = reactor_cpu_s() - cpu0;
    let peak_rss_mb = host::peak_rss_mb();
    probe::take_state_bytes();
    cluster.snapshot_reports();
    let (bytes, nodes) = probe::take_state_bytes();
    let max_rate = match (&measured, ladder) {
        (Some(m), true) if m.within_limit => max_rate(&mut cluster),
        _ => None,
    };
    let lifetime_cpu_s = reactor_cpu_s() - cpu_launch;
    let result = cluster.stop_and_collect();
    Some(ClusterRun {
        result,
        measured: measured?,
        reactor_cpu_s: reactor,
        phase_wall_s,
        lifetime_cpu_s,
        state_bytes_per_node: ratio(bytes as f64, nodes as f64),
        peak_rss_mb,
        max_rate,
    })
}

/// Delivery checks shared by every cluster of a run.
fn check_cluster(report: &mut Report, label: &str, run: &Option<ClusterRun>) {
    let Some(run) = run else {
        report.check("delivers_100_percent", false, || {
            format!("{label}: the fixed-rate phase never drained")
        });
        return;
    };
    let r = &run.result;
    let eligible = r.nodes.iter().filter(|n| n.id != r.source).count() as u64;
    let expected = eligible * r.messages_published;
    let got: u64 = r
        .nodes
        .iter()
        .filter(|n| n.id != r.source)
        .map(|n| n.report.delivered.min(r.messages_published))
        .sum();
    report.attempted += expected;
    report.failed += expected - got;
    report.check(
        "delivers_100_percent",
        got == expected && r.delivery_rate() == 1.0,
        || format!("{label}: delivered {got} of {expected} pairs"),
    );
    report.check("every_node_reported", eligible + 1 == NODES as u64, || {
        format!("{label}: {} of {NODES} nodes reported", eligible + 1)
    });
    report.check(
        "delivery_invariants",
        r.check_delivery_invariants().is_ok(),
        || format!("{label}: {:?}", r.check_delivery_invariants()),
    );
    report.check(
        "generator_kept_up",
        !run.measured.phase.generator_behind(),
        || {
            format!(
                "{label}: publisher median lag {:.3} ms at {FIXED_RATE} msg/s",
                quantile(&run.measured.phase.lag_ms, 0.5)
            )
        },
    );
}

fn deliveries(r: &LiveResult) -> u64 {
    r.nodes
        .iter()
        .filter(|n| n.id != r.source)
        .map(|n| n.report.delivered)
        .sum()
}

fn print_latency(label: &str, lat: &[f64]) {
    println!(
        "{label}: latency from due time p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms \
         over {} samples",
        quantile_sorted(lat, 0.5),
        quantile_sorted(lat, 0.9),
        quantile_sorted(lat, 0.99),
        quantile_sorted(lat, 0.999),
        lat.len()
    );
}

/// Runs `live-tcp` for about `args.seconds` and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    println!(
        "context: {}",
        host::context_json(
            &args.workload,
            args.seed,
            args.trace,
            &[
                ("nodes", NODES as f64),
                // The simulator's knob; 0: this workload has no shards.
                ("shards", 0.0),
                ("reactor_workers", workers() as f64),
                (
                    "join_stagger_ms",
                    cluster_config(0, Telemetry::disabled())
                        .join_stagger
                        .as_secs_f64()
                        * 1e3
                ),
                ("fixed_rate", FIXED_RATE),
                ("payload_bytes", PAYLOAD as f64),
            ],
        )
    );
    absent_sim_metrics(report, args.trace);
    if args.trace {
        run_traced(args, report);
    } else {
        run_untraced(args, report);
    }
}

fn run_untraced(args: &Args, report: &mut Report) {
    // Each cluster grows its own dissemination tree, and tree shape moves
    // latency, so the fixed rate runs on as many clusters (seeds derived
    // from the run's seed) as the measuring time holds.
    let fixed = Duration::from_secs_f64((args.seconds * 0.075).clamp(1.0, 8.0));
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    for i in 0.. {
        if i >= MIN_CLUSTERS && start.elapsed() >= budget {
            break;
        }
        let seed = brisa_simnet::seed::split_mix64(args.seed, i as u64);
        let run = fixed_run::<()>(seed, Telemetry::disabled(), fixed, false, &mut setups);
        check_cluster(report, &format!("cluster {i}"), &run);
        let Some(run) = run else { return };
        report.check("fixed_rate_meets_limit", run.measured.within_limit, || {
            format!(
                "cluster {i}: p90 {:.3} ms at {FIXED_RATE} msg/s exceeds {P90_LIMIT_MS} ms \
                 or backlogged",
                quantile_sorted(&run.measured.latency_ms, 0.9)
            )
        });
        print_latency(&format!("cluster {i} fixed rate"), &run.measured.latency_ms);
        runs.push(run);
    }
    let mut lat: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.measured.latency_ms.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    print_latency("fixed rate", &lat);
    let sum = |f: &dyn Fn(&ClusterRun) -> f64| runs.iter().map(f).sum::<f64>();
    report.metric("setup_s", median(&setups), "s");
    report.metric(
        "deliveries_per_s",
        ratio(lat.len() as f64, sum(&|r| r.measured.span_s)),
        "1/s",
    );
    report.metric(
        "delivery_rate",
        ratio(sum(&|r| r.result.delivery_rate()), runs.len() as f64),
        "ratio",
    );
    report.metric(
        "upload_bytes_per_delivery",
        ratio(
            sum(&|r| r.result.frames_and_bytes_out().1 as f64),
            sum(&|r| deliveries(&r.result) as f64),
        ),
        "B",
    );
    report.metric(
        "bytes_per_node",
        median(
            &runs
                .iter()
                .map(|r| r.state_bytes_per_node)
                .collect::<Vec<_>>(),
        ),
        "B",
    );
    // The footprint of one cluster: later launches run on a heap the
    // earlier ones fragmented, and how many there are depends on the host.
    report.metric("peak_rss_mb", runs[0].peak_rss_mb, "MB");
    // A host stall can hit one cluster's whole phase; the median over the
    // clusters ignores it.
    let per_cluster = |q: f64| {
        median(
            &runs
                .iter()
                .map(|r| quantile_sorted(&r.measured.latency_ms, q))
                .collect::<Vec<_>>(),
        )
    };
    report.metric("latency_p50_ms", per_cluster(0.5), "ms");
}

fn run_traced(args: &Args, report: &mut Report) {
    let fixed = Duration::from_secs_f64((args.seconds * 0.3).clamp(1.0, 8.0));
    let mut setups = Vec::new();
    let plain = fixed_run::<()>(args.seed, Telemetry::disabled(), fixed, false, &mut setups);
    check_cluster(report, "untraced", &plain);
    probe::take_totals();
    CAPTURE_FRAMES.store(true, Ordering::Relaxed);
    let telemetry = Telemetry::enabled();
    let traced = fixed_run::<Timed>(args.seed, telemetry.clone(), fixed, false, &mut setups);
    CAPTURE_FRAMES.store(false, Ordering::Relaxed);
    let totals = probe::take_totals();
    check_cluster(report, "traced", &traced);
    // A third, untraced cluster climbs the rate ladder after a short
    // fixed phase.
    let ladder_fixed = Duration::from_secs_f64((args.seconds * 0.075).clamp(1.0, 8.0));
    let seed = brisa_simnet::seed::split_mix64(args.seed, 1);
    let ladder = fixed_run::<()>(seed, Telemetry::disabled(), ladder_fixed, true, &mut setups);
    check_cluster(report, "ladder", &ladder);
    let (Some(plain), Some(traced), Some(ladder)) = (plain, traced, ladder) else {
        return;
    };
    report.check(
        "traced_equals_untraced",
        plain.result.delivered_sets() == traced.result.delivered_sets(),
        || "traced delivered sets differ from the untraced ones".into(),
    );

    let r = &traced.result;
    print_latency("untraced fixed rate", &plain.measured.latency_ms);
    print_latency("traced fixed rate", &traced.measured.latency_ms);
    for (i, name) in LAYER_NAMES.iter().enumerate() {
        report.metric(&format!("{name}.calls"), totals.calls[i] as f64, "count");
        report.metric(
            &format!("{name}.ns_per_call"),
            ratio(totals.ns[i] as f64, totals.calls[i] as f64),
            "ns",
        );
    }
    let delivered = deliveries(r);
    let dups: f64 = r
        .nodes
        .iter()
        .filter(|n| n.id != r.source)
        .map(|n| n.report.duplicates_per_message * n.report.delivered as f64)
        .sum();
    report.metric(
        "brisa.duplicates_per_delivery",
        ratio(dups, delivered as f64),
        "ratio",
    );
    report.metric(
        "membership.neighbor_per_node",
        totals.neighbor as f64 / NODES as f64,
        "count",
    );

    let w = workers() as f64;
    report.metric("runtime.reactor.cpu_s", traced.reactor_cpu_s, "s");
    report.metric(
        "runtime.reactor.busy_frac",
        ratio(traced.reactor_cpu_s, traced.phase_wall_s * w),
        "ratio",
    );
    report.metric(
        "runtime.reactor.proto_frac",
        ratio(totals.total_ns() as f64 / 1e9, traced.lifetime_cpu_s),
        "ratio",
    );
    let snap = telemetry.snapshot_jsonl(0);
    let poll = histo_buckets(&snap, "reactor.poll_iter_us");
    let inbox = histo_buckets(&snap, "reactor.inbox_batch");
    report.metric(
        "runtime.reactor.poll_iter_us_p50",
        bucket_quantile(&poll, 0.5),
        "us",
    );
    report.metric(
        "runtime.reactor.poll_iter_us_p99",
        bucket_quantile(&poll, 0.99),
        "us",
    );
    report.metric(
        "runtime.reactor.inbox_batch_p50",
        bucket_quantile(&inbox, 0.5),
        "count",
    );
    report.metric(
        "runtime.reactor.backpressure_stalls",
        telemetry.counter("reactor.backpressure_stalls").get() as f64,
        "count",
    );

    let wire = replay::wire(&totals.frames);
    report.check(
        "wire_roundtrip",
        wire.mismatches == 0 && !totals.frames.is_empty(),
        || {
            format!(
                "{} of {} captured frames failed to round-trip",
                wire.mismatches,
                totals.frames.len()
            )
        },
    );
    report.metric("runtime.wire.encode_ns", wire.encode_ns, "ns");
    report.metric("runtime.wire.decode_ns", wire.decode_ns, "ns");
    report.metric("runtime.wire.bytes_per_frame", wire.bytes_per_frame, "B");
    let (frames_out, _) = r.frames_and_bytes_out();
    report.metric(
        "runtime.cluster.frames_per_delivery",
        ratio(frames_out as f64, delivered as f64),
        "count",
    );
    let lat = &plain.measured.latency_ms;
    report.metric(
        "runtime.generator.lag_p99_ms",
        plain.measured.phase.lag_p99_ms(),
        "ms",
    );
    latency_tail(report, lat);
    report.check("fixed_rate_meets_limit", ladder.max_rate.is_some(), || {
        "ladder cluster: the fixed phase before the ladder missed the limit".into()
    });
    report.metric("runtime.max_rate", ladder.max_rate.unwrap_or(0.0), "msg/s");
    // Reactor CPU per delivery, traced against untraced.
    report.metric(
        "trace.overhead_frac",
        ratio(
            traced.reactor_cpu_s / traced.measured.latency_ms.len().max(1) as f64,
            plain.reactor_cpu_s / plain.measured.latency_ms.len().max(1) as f64,
        ) - 1.0,
        "ratio",
    );
}

/// The `[bucket, count]` pairs of histogram `name` in a registry
/// snapshot line.
fn histo_buckets(snapshot: &str, name: &str) -> BTreeMap<u32, u64> {
    let mut out = BTreeMap::new();
    let key = format!("\"{name}\":{{");
    let Some(at) = snapshot.find(&key) else {
        return out;
    };
    let rest = &snapshot[at..];
    let Some(b) = rest.find("\"buckets\":[") else {
        return out;
    };
    let rest = &rest[b + "\"buckets\":[".len()..];
    let end = rest.find("]]").map_or(0, |e| e + 1);
    for pair in rest[..end].split("],") {
        let pair = pair.trim_matches(['[', ']']);
        let mut it = pair.split(',').filter_map(|v| v.trim().parse::<u64>().ok());
        if let (Some(i), Some(c)) = (it.next(), it.next()) {
            out.insert(i as u32, c);
        }
    }
    out
}

/// Quantile of a log2 histogram: the upper edge of the bucket holding the
/// `q`-th observation (bucket `i > 0` covers `[2^(i-1), 2^i)`).
fn bucket_quantile(buckets: &BTreeMap<u32, u64>, q: f64) -> f64 {
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (&i, &c) in buckets {
        seen += c;
        if seen >= rank {
            return if i == 0 {
                0.0
            } else {
                (1u64 << i.min(63)) as f64
            };
        }
    }
    0.0
}

/// Records the runtime metrics a simulator workload does not exercise.
pub fn absent_runtime_metrics(report: &mut Report) {
    for (name, unit) in [
        ("runtime.reactor.cpu_s", "s"),
        ("runtime.reactor.busy_frac", "ratio"),
        ("runtime.reactor.proto_frac", "ratio"),
        ("runtime.reactor.poll_iter_us_p50", "us"),
        ("runtime.reactor.poll_iter_us_p99", "us"),
        ("runtime.reactor.inbox_batch_p50", "count"),
        ("runtime.reactor.backpressure_stalls", "count"),
        ("runtime.wire.encode_ns", "ns"),
        ("runtime.wire.decode_ns", "ns"),
        ("runtime.wire.bytes_per_frame", "B"),
        ("runtime.cluster.frames_per_delivery", "count"),
        ("runtime.generator.lag_p99_ms", "ms"),
        ("runtime.max_rate", "msg/s"),
    ] {
        report.metric(name, 0.0, unit);
    }
}

/// Records the simulator metrics the live workload does not exercise.
fn absent_sim_metrics(report: &mut Report, trace: bool) {
    if !trace {
        return;
    }
    for (name, unit) in [
        ("workloads.engine.build_s", "s"),
        ("workloads.engine.bootstrap_s", "s"),
        ("workloads.engine.stream_s", "s"),
        ("workloads.engine.collect_s", "s"),
        ("simnet.events", "count"),
        ("simnet.driver.self_s", "s"),
        ("simnet.driver.ns_per_event", "ns"),
        ("simnet.sched.ops", "count"),
        ("simnet.sched.wheel_ns_per_op", "ns"),
        ("simnet.sched.heap_ns_per_op", "ns"),
        ("simnet.shard.cpu_s", "s"),
        ("simnet.shard.busy_frac", "ratio"),
    ] {
        report.metric(name, 0.0, unit);
    }
}
