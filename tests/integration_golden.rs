//! Golden determinism pin for the simulator core.
//!
//! Four small seeded scenarios — no faults; 1 % link loss plus a drop
//! partition; churn; loss and a partition against an 8-deep retransmission
//! buffer that evicts while it serves gaps — run at 1 and 3 shards on both
//! schedulers, and every run must reproduce the exact `NetStats` counters
//! and delivered totals recorded below. The equivalence tests (sharded ≡
//! sequential, wheel ≡ heap) compare the core with itself; this table is the
//! check that the core still behaves as it did when the values were
//! recorded.
//!
//! The values are regenerated only under DESIGN.md's trajectory policy:
//! when a change intentionally moves protocol-visible simulator behaviour,
//! re-record them in the same change and say why in its description. Any
//! other diff is a bug.

use brisa::BrisaNode;
use brisa_simnet::{SchedulerKind, SimDuration};
use brisa_workloads::{
    BrisaScenario, BrisaStackConfig, ChurnSpec, FaultSpec, IntoRunSpec, PartitionPhase, Runner,
    StreamSpec,
};

/// The observables pinned per run: the simulator's own counters plus the
/// stream deliveries summed over every live node.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events: u64,
    sent: u64,
    delivered: u64,
    dropped: u64,
    lost: u64,
    cut: u64,
    stream_delivered: u64,
}

fn no_faults() -> BrisaScenario {
    BrisaScenario {
        seed: 11,
        stream: StreamSpec::short(20, 256),
        ..BrisaScenario::small_test(120)
    }
}

fn loss_and_partition() -> BrisaScenario {
    BrisaScenario {
        seed: 23,
        stream: StreamSpec::short(20, 256),
        faults: FaultSpec {
            loss_rate: 0.01,
            partition: Some(PartitionPhase::drop(
                0.2,
                SimDuration::from_secs(1),
                SimDuration::from_secs(2),
            )),
            ..FaultSpec::default()
        },
        ..BrisaScenario::small_test(150)
    }
}

fn churn() -> BrisaScenario {
    BrisaScenario {
        seed: 37,
        stream: StreamSpec::short(20, 256),
        churn: Some(ChurnSpec {
            rate_percent: 5.0,
            interval: SimDuration::from_secs(4),
            duration: SimDuration::from_secs(12),
        }),
        ..BrisaScenario::small_test(100)
    }
}

/// A partition that outlasts the retransmission window: 20 messages go
/// missing behind the cut while every buffer holds only 8, so the upstream
/// buffers keep evicting while they serve the healed side's gap requests
/// and store the retransmitted copies out of order. Pins what a full buffer
/// still holds — its depth and its first-in first-out eviction (evicting
/// the lowest sequence number instead moves these counters) — which the
/// 64-deep default never exercises on 20-message streams.
fn evicting_buffer() -> (BrisaScenario, BrisaStackConfig) {
    let sc = BrisaScenario {
        seed: 41,
        stream: StreamSpec::short(40, 256),
        faults: FaultSpec {
            loss_rate: 0.01,
            partition: Some(PartitionPhase::drop(
                0.2,
                SimDuration::from_secs(1),
                SimDuration::from_secs(4),
            )),
            ..FaultSpec::default()
        },
        ..BrisaScenario::small_test(150)
    };
    let mut cfg = stack(&sc);
    cfg.brisa.buffer_size = 8;
    (sc, cfg)
}

fn stack(sc: &BrisaScenario) -> BrisaStackConfig {
    BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    }
}

fn run(
    sc: &BrisaScenario,
    cfg: &BrisaStackConfig,
    shards: usize,
    scheduler: SchedulerKind,
) -> Golden {
    let mut spec = sc.run_spec();
    spec.scheduler = scheduler;
    let result = Runner::<BrisaNode>::new(cfg, &spec).shards(shards).run();
    let s = &result.net_stats;
    Golden {
        events: s.events_processed,
        sent: s.messages_sent,
        delivered: s.messages_delivered,
        dropped: s.messages_dropped,
        lost: s.messages_lost_to_faults,
        cut: s.messages_cut_by_partition,
        stream_delivered: result.nodes.iter().map(|n| n.report.delivered).sum(),
    }
}

fn check(name: &str, sc: BrisaScenario, expected: Golden) {
    let cfg = stack(&sc);
    check_with(name, &sc, &cfg, expected);
}

fn check_with(name: &str, sc: &BrisaScenario, cfg: &BrisaStackConfig, expected: Golden) {
    for scheduler in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
        for shards in [1, 3] {
            let got = run(sc, cfg, shards, scheduler);
            assert_eq!(
                got, expected,
                "{name}: {shards} shard(s) under {scheduler:?} left the recorded trajectory"
            );
        }
    }
}

#[test]
fn golden_no_faults() {
    check(
        "no faults",
        no_faults(),
        Golden {
            events: 49947,
            sent: 40860,
            delivered: 40860,
            dropped: 0,
            lost: 0,
            cut: 0,
            stream_delivered: 2400,
        },
    );
}

#[test]
fn golden_loss_and_partition() {
    check(
        "1% loss + drop partition",
        loss_and_partition(),
        Golden {
            events: 60986,
            sent: 50524,
            delivered: 49619,
            dropped: 0,
            lost: 244,
            cut: 658,
            stream_delivered: 3000,
        },
    );
}

#[test]
fn golden_churn() {
    check(
        "churn",
        churn(),
        Golden {
            events: 55865,
            sent: 46068,
            delivered: 46007,
            dropped: 33,
            lost: 0,
            cut: 0,
            stream_delivered: 5984,
        },
    );
}

#[test]
fn golden_evicting_buffer() {
    let (sc, cfg) = evicting_buffer();
    check_with(
        "8-deep buffer evicting under loss + partition",
        &sc,
        &cfg,
        Golden {
            events: 69201,
            sent: 57930,
            delivered: 56276,
            dropped: 0,
            lost: 319,
            cut: 1320,
            stream_delivered: 5315,
        },
    );
}
