//! Checks that the layer probe is a faithful pass-through: a wrapped node
//! must behave exactly like a bare [`BrisaNode`] through every trait
//! method, with either meter.

use crate::probe::{self, Layered, Timed};
use crate::report::Report;
use brisa::{BrisaNode, StackMsg, TIMER_KEEPALIVE, TIMER_REPAIR, TIMER_SHUFFLE};
use brisa_simnet::{Command, Context, NodeId, Protocol, SimDuration, SimTime, TimerTag};
use brisa_workloads::{
    BrisaScenario, BrisaStackConfig, BuildCtx, ChurnSpec, DisseminationProtocol, IntoRunSpec,
    ResultMode, Runner,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// A three-node in-process driver that records everything a protocol
/// emits, so two implementations can be compared call for call.
struct Script<P: Protocol<Message = StackMsg>> {
    nodes: Vec<P>,
    rngs: Vec<SmallRng>,
    queue: VecDeque<(usize, NodeId, StackMsg)>,
    now: SimTime,
    publish_times: Vec<SimTime>,
    transcript: String,
}

impl<P> Script<P>
where
    P: DisseminationProtocol<Message = StackMsg, Config = BrisaStackConfig>,
{
    fn new(cfg: &BrisaStackConfig) -> Self {
        let nodes = (0..3u32)
            .map(|i| {
                let bctx = BuildCtx {
                    index: i,
                    population: 3,
                    contact: (i > 0).then_some(NodeId(0)),
                    prev: i.checked_sub(1).map(NodeId),
                    is_source: i == 0,
                };
                P::build(cfg, NodeId(i), &bctx)
            })
            .collect();
        Script {
            nodes,
            rngs: (0..3).map(SmallRng::seed_from_u64).collect(),
            queue: VecDeque::new(),
            now: SimTime::ZERO,
            publish_times: Vec::new(),
            transcript: format!("{}|", P::protocol_name()),
        }
    }

    fn call(&mut self, i: usize, f: impl FnOnce(&mut P, &mut Context<'_, StackMsg>)) {
        self.now += SimDuration::from_millis(1);
        let mut commands = Vec::new();
        let mut ctx =
            Context::external(self.now, NodeId(i as u32), &mut self.rngs[i], &mut commands);
        f(&mut self.nodes[i], &mut ctx);
        for c in commands {
            write!(self.transcript, "{i}:{c:?};").expect("write to a String");
            if let Command::Send { to, msg } = c {
                if to.index() < self.nodes.len() {
                    self.queue.push_back((to.index(), NodeId(i as u32), msg));
                }
            }
        }
    }

    fn deliver_all(&mut self) {
        let mut budget = 500;
        while let Some((to, from, msg)) = self.queue.pop_front() {
            self.call(to, |p, ctx| p.on_message(ctx, from, msg));
            budget -= 1;
            if budget == 0 {
                break;
            }
        }
    }

    fn publish(&mut self) {
        self.publish_times
            .push(self.now + SimDuration::from_millis(1));
        self.call(0, |p, ctx| p.publish_message(ctx, 1024));
        self.deliver_all();
    }

    fn run(mut self) -> String {
        for i in 0..3 {
            self.call(i, |p, ctx| p.on_start(ctx));
        }
        self.deliver_all();
        for _ in 0..5 {
            self.publish();
        }
        for i in 0..3 {
            for kind in [TIMER_SHUFFLE, TIMER_KEEPALIVE, TIMER_REPAIR] {
                self.call(i, |p, ctx| p.on_timer(ctx, TimerTag::of_kind(kind)));
                self.deliver_all();
            }
        }
        self.call(1, |p, ctx| p.on_link_down(ctx, NodeId(2)));
        self.deliver_all();
        for _ in 0..3 {
            self.publish();
        }
        for (i, p) in self.nodes.iter().enumerate() {
            write!(
                self.transcript,
                "|{i}:bytes={}:report={:?}:scale={:?}",
                p.approx_state_bytes(),
                p.report(),
                p.scale_report(&self.publish_times)
            )
            .expect("write to a String");
        }
        self.transcript
    }
}

/// An engine run small enough to take milliseconds: churn makes nodes
/// crash, so link-down callbacks fire too.
fn engine_fingerprint<P>(sc: &BrisaScenario, cfg: &BrisaStackConfig) -> String
where
    P: DisseminationProtocol<Message = StackMsg, Config = BrisaStackConfig> + Send,
{
    Runner::<P>::new(cfg, &sc.run_spec()).run().fingerprint()
}

/// Records the delegation checks in `report`.
pub fn check(report: &mut Report) {
    let mut sc = BrisaScenario::small_test(24);
    sc.results = ResultMode::Streaming;
    sc.churn = Some(ChurnSpec {
        rate_percent: 10.0,
        interval: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(3),
    });
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: brisa::BrisaConfig {
            tracking: brisa::DeliveryTracking::Full,
            ..sc.brisa_config()
        },
    };

    let bare = Script::<BrisaNode>::new(&cfg).run();
    let plain = Script::<Layered<()>>::new(&cfg).run();
    let timed = Script::<Layered<Timed>>::new(&cfg).run();
    // The script must carry stream data to the non-source nodes, or the
    // comparison says nothing about the data path.
    let exercised = bare.contains("Brisa(Data(") && !bare.contains("{ delivered: 0,");
    report.check(
        "wrapper_delegates_every_method",
        exercised && bare == plain && bare == timed,
        || "a wrapped node's calls, reports or sizes differ from a bare node's".into(),
    );

    let bare = engine_fingerprint::<BrisaNode>(&sc, &cfg);
    let plain = engine_fingerprint::<Layered<()>>(&sc, &cfg);
    let timed = engine_fingerprint::<Layered<Timed>>(&sc, &cfg);
    report.check(
        "wrapper_engine_fingerprint",
        bare == plain && bare == timed,
        || "an engine run of wrapped nodes differs from one of bare nodes".into(),
    );

    // Leave no trace of the check in the measured runs' tallies.
    probe::take_totals();
    probe::take_phases();
    probe::take_latencies_us();
    probe::take_state_bytes();
}
