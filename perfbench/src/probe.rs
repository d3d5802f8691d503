//! The out-of-band layer probe: a pass-through wrapper around
//! [`BrisaNode`] that implements [`Protocol`] and
//! [`DisseminationProtocol`] by delegating every method, so the simulator
//! and the live runtime drive it exactly as they drive a bare node.
//!
//! The wrapper is generic over a [`Meter`]. With `()` it only stamps the
//! run's phase boundaries (first publish, first collect call), which the
//! untraced end-to-end runs need; with [`Timed`] it also times every
//! protocol callback by layer, counts HyParView `Neighbor` requests and
//! samples received frames for the wire-codec replay. Per-node tallies are
//! flushed into process-wide totals when the node is dropped, so crashed
//! and stopped nodes are counted too.

use crate::host;
use brisa::{BrisaMsg, BrisaNode, StackMsg, TIMER_KEEPALIVE, TIMER_REPAIR, TIMER_SHUFFLE};
use brisa_membership::HpvMsg;
use brisa_simnet::{Context, NodeId, Protocol, SimTime, TimerTag};
use brisa_workloads::{BuildCtx, DisseminationProtocol, NodeReport, ScaleNodeReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The protocol layers a callback is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// BRISA `Data` handling and publishing.
    Data = 0,
    /// BRISA gap-recovery `Retransmit` requests.
    Retransmit = 1,
    /// Every other BRISA message (activation, deactivation, depth, edge).
    Control = 2,
    /// BRISA's periodic repair-supervision timer.
    RepairTimer = 3,
    /// HyParView join and view management (start, Join, ForwardJoin,
    /// Neighbor, NeighborReply, Disconnect, link-down).
    Join = 4,
    /// HyParView keep-alive probes, acks and their timer.
    Keepalive = 5,
    /// HyParView passive-view shuffles and their timer.
    Shuffle = 6,
}

/// Metric-name prefix of each [`Layer`], indexed by discriminant.
pub const LAYER_NAMES: [&str; 7] = [
    "brisa.data",
    "brisa.retransmit",
    "brisa.control",
    "brisa.repair_timer",
    "membership.join",
    "membership.keepalive",
    "membership.shuffle",
];

fn message_layer(msg: &StackMsg) -> Layer {
    match msg {
        StackMsg::Brisa(BrisaMsg::Data(_)) => Layer::Data,
        StackMsg::Brisa(BrisaMsg::Retransmit { .. }) => Layer::Retransmit,
        StackMsg::Brisa(_) => Layer::Control,
        StackMsg::Hpv(HpvMsg::KeepAlive { .. } | HpvMsg::KeepAliveAck { .. }) => Layer::Keepalive,
        StackMsg::Hpv(HpvMsg::Shuffle { .. } | HpvMsg::ShuffleReply { .. }) => Layer::Shuffle,
        StackMsg::Hpv(_) => Layer::Join,
    }
}

fn timer_layer(tag: TimerTag) -> Layer {
    match tag.kind {
        TIMER_SHUFFLE => Layer::Shuffle,
        TIMER_KEEPALIVE => Layer::Keepalive,
        TIMER_REPAIR => Layer::RepairTimer,
        _ => Layer::Control,
    }
}

/// What a wrapped node records about its callbacks.
pub trait Meter: Default + Send + 'static {
    /// Runs one protocol callback attributed to `layer`.
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
    /// Observes a received message before it is handled.
    fn observe(&mut self, _msg: &StackMsg) {}
    /// Adds this node's tallies to the process-wide [`Totals`].
    fn flush(&mut self) {}
}

/// The untraced meter: records nothing.
impl Meter for () {
    #[inline(always)]
    fn call<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Frames kept per node for the wire-codec replay.
const FRAME_SAMPLE: usize = 64;

/// Whether [`Timed`] meters created from now on sample received frames.
pub static CAPTURE_FRAMES: AtomicBool = AtomicBool::new(false);

/// The traced meter: per-layer call counts and callback nanoseconds.
pub struct Timed {
    calls: [u64; 7],
    ns: [u64; 7],
    neighbor: u64,
    capture: bool,
    seen: u64,
    rng: u64,
    frames: Vec<StackMsg>,
}

impl Default for Timed {
    fn default() -> Self {
        Timed {
            calls: [0; 7],
            ns: [0; 7],
            neighbor: 0,
            capture: CAPTURE_FRAMES.load(Ordering::Relaxed),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            frames: Vec::new(),
        }
    }
}

impl Meter for Timed {
    #[inline]
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns[layer as usize] += start.elapsed().as_nanos() as u64;
        self.calls[layer as usize] += 1;
        out
    }

    fn observe(&mut self, msg: &StackMsg) {
        if matches!(msg, StackMsg::Hpv(HpvMsg::Neighbor { .. })) {
            self.neighbor += 1;
        }
        if !self.capture {
            return;
        }
        // Reservoir sampling keeps a uniform sample of everything this node
        // received, so the replayed mix matches the run's frame mix.
        self.seen += 1;
        if self.frames.len() < FRAME_SAMPLE {
            self.frames.push(msg.clone());
            return;
        }
        self.rng = brisa_simnet::seed::mix64(self.rng);
        let slot = self.rng % self.seen;
        if (slot as usize) < FRAME_SAMPLE {
            self.frames[slot as usize] = msg.clone();
        }
    }

    fn flush(&mut self) {
        // Called from `Drop`, which must not panic: a poisoned lock (some
        // other thread panicked mid-update) just loses this node's tallies.
        let Ok(mut t) = TOTALS.lock() else { return };
        for i in 0..7 {
            t.calls[i] += self.calls[i];
            t.ns[i] += self.ns[i];
        }
        t.neighbor += self.neighbor;
        t.frames.append(&mut self.frames);
        *self = Timed::default();
    }
}

/// Process-wide tallies of every dropped [`Timed`] node.
#[derive(Default)]
pub struct Totals {
    /// Callbacks per [`Layer`].
    pub calls: [u64; 7],
    /// Callback nanoseconds per [`Layer`].
    pub ns: [u64; 7],
    /// HyParView `Neighbor` requests received.
    pub neighbor: u64,
    /// Sampled received frames (live runs only).
    pub frames: Vec<StackMsg>,
}

impl Totals {
    /// Callback nanoseconds over every layer.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

static TOTALS: Mutex<Totals> = Mutex::new(Totals {
    calls: [0; 7],
    ns: [0; 7],
    neighbor: 0,
    frames: Vec::new(),
});

/// Takes the accumulated totals, leaving zeroes behind.
pub fn take_totals() -> Totals {
    std::mem::take(&mut *TOTALS.lock().expect("totals lock poisoned"))
}

/// Wall-clock instants of a run's phase boundaries, stamped by the
/// wrapped nodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// Return of the last node build before the first publish.
    pub last_build: Option<Instant>,
    /// The first `publish_message` call.
    pub first_publish: Option<Instant>,
    /// The first `report`/`scale_report` call after the first publish.
    pub first_collect: Option<Instant>,
    /// `(process, calling thread)` CPU seconds at the first publish.
    pub publish_cpu: (f64, f64),
    /// `(process, calling thread)` CPU seconds at the first collect call.
    pub collect_cpu: (f64, f64),
}

static PHASES: Mutex<Phases> = Mutex::new(Phases {
    last_build: None,
    first_publish: None,
    first_collect: None,
    publish_cpu: (0.0, 0.0),
    collect_cpu: (0.0, 0.0),
});

/// Takes the stamped phase boundaries, leaving an empty record behind.
pub fn take_phases() -> Phases {
    std::mem::take(&mut *PHASES.lock().expect("phases lock poisoned"))
}

/// Exact injection-to-first-delivery latencies (µs) gathered at collect
/// time by [`Layered::scale_report`] under full delivery tracking.
static LATENCIES_US: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Takes the gathered latency samples.
pub fn take_latencies_us() -> Vec<u64> {
    std::mem::take(&mut *LATENCIES_US.lock().expect("latency lock poisoned"))
}

/// Summed `approx_state_bytes` and node count of every `report` call since
/// the last [`take_state_bytes`].
static STATE_BYTES: Mutex<(u64, u64)> = Mutex::new((0, 0));

/// Takes the summed protocol-state bytes and the number of nodes summed.
pub fn take_state_bytes() -> (u64, u64) {
    std::mem::take(&mut *STATE_BYTES.lock().expect("state lock poisoned"))
}

/// A [`BrisaNode`] behind a [`Meter`].
pub struct Layered<M: Meter> {
    inner: BrisaNode,
    meter: M,
}

impl<M: Meter> Layered<M> {
    fn stamp_collect(&self) {
        let mut p = PHASES.lock().expect("phases lock poisoned");
        if p.first_publish.is_some() && p.first_collect.is_none() {
            p.first_collect = Some(Instant::now());
            p.collect_cpu = (host::process_cpu_s(), host::thread_cpu_s());
        }
    }
}

impl<M: Meter> Drop for Layered<M> {
    fn drop(&mut self) {
        self.meter.flush();
    }
}

impl<M: Meter> Protocol for Layered<M> {
    type Message = StackMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, StackMsg>) {
        let inner = &mut self.inner;
        self.meter.call(Layer::Join, || inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, StackMsg>, from: NodeId, msg: StackMsg) {
        let layer = message_layer(&msg);
        self.meter.observe(&msg);
        let inner = &mut self.inner;
        self.meter.call(layer, || inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, StackMsg>, tag: TimerTag) {
        let inner = &mut self.inner;
        self.meter
            .call(timer_layer(tag), || inner.on_timer(ctx, tag));
    }

    fn on_link_down(&mut self, ctx: &mut Context<'_, StackMsg>, peer: NodeId) {
        let inner = &mut self.inner;
        self.meter
            .call(Layer::Join, || inner.on_link_down(ctx, peer));
    }

    fn approx_state_bytes(&self) -> usize {
        self.inner.approx_state_bytes()
    }
}

impl<M: Meter> DisseminationProtocol for Layered<M> {
    type Config = <BrisaNode as DisseminationProtocol>::Config;

    fn protocol_name() -> &'static str {
        BrisaNode::protocol_name()
    }

    fn build(cfg: &Self::Config, id: NodeId, bctx: &BuildCtx) -> Self {
        let node = Layered {
            inner: BrisaNode::build(cfg, id, bctx),
            meter: M::default(),
        };
        let mut p = PHASES.lock().expect("phases lock poisoned");
        if p.first_publish.is_none() {
            p.last_build = Some(Instant::now());
        }
        node
    }

    fn publish_message(&mut self, ctx: &mut Context<'_, StackMsg>, payload_bytes: usize) {
        {
            let mut p = PHASES.lock().expect("phases lock poisoned");
            if p.first_publish.is_none() {
                p.publish_cpu = (host::process_cpu_s(), host::thread_cpu_s());
                p.first_publish = Some(Instant::now());
            }
        }
        let inner = &mut self.inner;
        self.meter
            .call(Layer::Data, || inner.publish_message(ctx, payload_bytes));
    }

    fn report(&self) -> NodeReport {
        self.stamp_collect();
        let mut s = STATE_BYTES.lock().expect("state lock poisoned");
        s.0 += self.inner.approx_state_bytes() as u64;
        s.1 += 1;
        drop(s);
        self.inner.report()
    }

    fn scale_report(&self, publish_times: &[SimTime]) -> ScaleNodeReport {
        self.stamp_collect();
        let core = self.inner.brisa();
        // The source "delivers" its own messages at publish time.
        if !core.is_source() {
            let samples = core.stats().delivery.iter_times().filter_map(|(seq, at)| {
                let published = publish_times.get(seq as usize)?;
                Some(at.saturating_since(*published).as_micros())
            });
            LATENCIES_US
                .lock()
                .expect("latency lock poisoned")
                .extend(samples);
        }
        self.inner.scale_report(publish_times)
    }
}
