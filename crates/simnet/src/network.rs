//! The simulation driver.
//!
//! A [`Network`] owns every node (an instance of a type implementing
//! [`Protocol`]), split across one or more shards (`crate::shard`) that
//! hold the event queues, plus the latency model and the master RNG, and
//! advances simulated time by processing events in order.
//!
//! Runs are fully deterministic: the same seed, latency model and sequence
//! of `add_node` / `crash` / `invoke` calls produce bit-identical
//! executions, at every shard count.
//!
//! The hot path is built on dense, index-addressed state (see
//! [`crate::sched`] for the timing-wheel event queue and [`crate::links`]
//! for the adjacency/link-clock vectors); the steady-state event loop does
//! not allocate per event.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Barrier, Mutex};

use crate::bandwidth::{BandwidthMeter, MeterMode};
use crate::event::EventKind;
use crate::faults::{FaultConfig, LinkFaults, PartitionSpec};
use crate::latency::LatencyModel;
use crate::node::NodeId;
use crate::protocol::{Context, Protocol};
use crate::sched::{SchedulerKind, TraceOp};
use crate::seed::split_mix64;
use crate::shard::{self, Relay, Shard};
use crate::time::{SimDuration, SimTime};
use brisa_telemetry::{EventKind as TelEventKind, Telemetry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Static configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Master seed; every per-node RNG is derived from it.
    pub seed: u64,
    /// Delay between a peer crashing and connected nodes receiving the
    /// corresponding `on_link_down` callback. Models the keep-alive /
    /// TCP-level failure detection period of the prototype.
    pub failure_detection_delay: SimDuration,
    /// Enforce FIFO ordering on each directed link (messages between the
    /// same pair never overtake each other), as TCP connections do.
    pub fifo_links: bool,
    /// Which event-queue implementation to use. The timing wheel is the
    /// default; the binary heap is kept as the reference baseline for
    /// benches and equivalence tests. Both produce bit-identical runs.
    pub scheduler: SchedulerKind,
    /// Record every scheduler push/pop so benches can replay the exact
    /// operation sequence through a queue in isolation (see
    /// [`Network::take_event_trace`]). Off by default; costs one branch per
    /// operation when off.
    pub trace_events: bool,
    /// Deterministic fault injection (per-link loss, latency degradation,
    /// timed partitions). Inert by default, in which case the fault layer
    /// costs a single branch per message and the run is bit-identical to
    /// one without the layer. See [`crate::faults`].
    pub faults: FaultConfig,
    /// Bandwidth retention: per-second buckets (default) or totals only
    /// (scale mode — per-second history would cost `16 bytes × simulated
    /// seconds` per node and nothing in the streaming result path reads
    /// it). Totals are identical in both modes.
    pub meter: MeterMode,
    /// Observability handle exposed to protocol callbacks and fed with
    /// simulator-level health (scheduler occupancy, events processed,
    /// partition windows). Disabled by default; strictly out-of-band — a
    /// run with any telemetry setting is bit-identical to a run with none
    /// (enforced by the fingerprint tests).
    pub telemetry: Telemetry,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            seed: 0xB215A,
            failure_detection_delay: SimDuration::from_millis(200),
            fifo_links: true,
            scheduler: SchedulerKind::default(),
            trace_events: false,
            faults: FaultConfig::default(),
            meter: MeterMode::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Counters describing what the simulator itself observed.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Messages handed to the network layer.
    pub messages_sent: u64,
    /// Messages delivered to a live destination.
    pub messages_delivered: u64,
    /// Messages dropped because the destination was dead at delivery time.
    pub messages_dropped: u64,
    /// Messages lost to the fault layer's per-link Bernoulli loss. Disjoint
    /// from [`NetStats::messages_dropped`]: a faulted message never reaches
    /// delivery, a dropped one reached a dead destination.
    pub messages_lost_to_faults: u64,
    /// Messages discarded because an active partition cut sender from
    /// receiver ([`crate::faults::PartitionMode::Drop`]).
    pub messages_cut_by_partition: u64,
    /// Events processed so far.
    pub events_processed: u64,
}

/// The discrete-event network simulator.
///
/// A `Network` owns `k` shards — the nodes, split by `id % k`, with their
/// event queues — plus the latency model and the master RNG, and advances
/// simulated time by processing events in order.
/// [`Network::new`] builds one shard, whose queue `run_until` pops inline;
/// [`Network::with_shards`] builds `k`, which run on worker threads in
/// lock-step epochs. Every observable — stats, per-node state, FIFO
/// clocks, bandwidth — is bit-identical at every `k` for the same
/// configuration and seed.
///
/// Above one shard:
///
/// * the latency model must promise a positive
///   [`LatencyModel::min_latency`]; `run_until` panics otherwise;
/// * scheduler operation traces ([`NetworkConfig::trace_events`]) are not
///   supported (each shard has its own queue, so a single interleaved
///   trace does not exist); construction panics if one is requested.
pub struct Network<P: Protocol> {
    config: NetworkConfig,
    shards: Vec<Shard<P>>,
    latency: Arc<dyn LatencyModel>,
    now: SimTime,
    master_rng: SmallRng,
    /// Dedicated RNG for reference-latency queries ([`Self::typical_latency`]).
    /// Derived once from the master seed, *not* from `master_rng`: drawing
    /// reference latencies must never reorder the seeds of nodes added
    /// afterwards.
    reference_rng: SmallRng,
    /// Crashes requested since the last boundary: `(lane prio, victim)`.
    /// The prio is drawn at `crash()` call time, from the victim's lane.
    pending_crashes: Vec<(u64, NodeId)>,
    /// Live `latency_factor`, tracked so the epoch lookahead can shrink
    /// with it (a factor below 1 compresses every sampled latency).
    link_factor: f64,
    /// Crash applications, counted as processed events.
    crash_events: u64,
}

impl<P: Protocol> Network<P> {
    /// Creates a single-shard network with the given configuration and
    /// latency model.
    pub fn new(config: NetworkConfig, latency: Box<dyn LatencyModel>) -> Self {
        Self::with_shards(config, latency, 1)
    }

    /// Creates a network whose nodes are partitioned across `shards`
    /// worker shards (at least 1). The latency model is shared by all
    /// shards (it is sampled under each shard's own node RNGs).
    ///
    /// # Panics
    ///
    /// If `shards` is 0, or above 1 with `config.trace_events` set.
    pub fn with_shards(
        config: NetworkConfig,
        latency: Box<dyn LatencyModel>,
        shards: usize,
    ) -> Self {
        assert!(shards >= 1, "at least one shard");
        assert!(
            shards == 1 || !config.trace_events,
            "scheduler traces are not supported above one shard"
        );
        let latency: Arc<dyn LatencyModel> = Arc::from(latency);
        let master_rng = SmallRng::seed_from_u64(config.seed);
        let reference_rng = SmallRng::seed_from_u64(split_mix64(config.seed, 0x0DD5_EED5));
        let link_factor = config.faults.link.latency_factor;
        Network {
            shards: (0..shards)
                .map(|s| Shard::new(s, shards, &config, Arc::clone(&latency)))
                .collect(),
            config,
            latency,
            now: SimTime::ZERO,
            master_rng,
            reference_rng,
            pending_crashes: Vec::new(),
            link_factor,
            crash_events: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `id`.
    fn owner(&self, id: NodeId) -> usize {
        shard::owner(id, self.shards.len())
    }

    /// Replaces the live per-link fault profile (loss rate, jitter, latency
    /// degradation), effective for every message sent from now on.
    /// Experiment harnesses use this to switch faults on at a scheduled
    /// point of the run (e.g. stream start).
    pub fn set_link_faults(&mut self, link: LinkFaults) {
        self.link_factor = link.latency_factor;
        for shard in &mut self.shards {
            shard.faults.set_link_faults(link.clone());
        }
    }

    /// Installs a timed partition at runtime, in addition to any configured
    /// through [`NetworkConfig::faults`]. The window may start immediately;
    /// it must not lie entirely in the past.
    pub fn add_partition(&mut self, spec: PartitionSpec) {
        assert!(spec.end > self.now, "partition healed in the past");
        self.config.telemetry.event(
            self.now.as_micros(),
            u32::MAX,
            TelEventKind::PartitionApply,
            spec.start.as_micros(),
            spec.end.as_micros(),
        );
        for shard in &mut self.shards {
            shard.faults.add_partition(spec.clone());
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Simulator-level statistics, summed across shards (crash
    /// applications count as processed events).
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats {
            events_processed: self.crash_events,
            ..NetStats::default()
        };
        for shard in &self.shards {
            let s = &shard.stats;
            total.messages_sent += s.messages_sent;
            total.messages_delivered += s.messages_delivered;
            total.messages_dropped += s.messages_dropped;
            total.messages_lost_to_faults += s.messages_lost_to_faults;
            total.messages_cut_by_partition += s.messages_cut_by_partition;
            total.events_processed += s.events_processed;
        }
        total
    }

    /// The bandwidth meter, merged across shards. Each node's counters live
    /// entirely on its owner shard (uploads are recorded sender-side,
    /// downloads destination-side), so the merge is a disjoint union.
    pub fn bandwidth(&self) -> BandwidthMeter {
        let mut merged = BandwidthMeter::with_mode(self.config.meter);
        for shard in &self.shards {
            merged.absorb(&shard.bandwidth);
        }
        merged
    }

    /// Number of nodes ever added (dead or alive).
    pub fn node_count(&self) -> usize {
        self.shards[0].node_count()
    }

    /// True if `id` exists and has not crashed.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.shards[0].is_alive(id)
    }

    /// Iterator over the identifiers of all live nodes, in ascending order.
    /// Allocation-free; prefer this over [`Self::alive_ids`] in hot loops.
    pub fn alive_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.shards[0].alive_iter()
    }

    /// Identifiers of all live nodes, collected into a fresh vector.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.alive_iter().collect()
    }

    /// Immutable access to the protocol state of `id`.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.shards[self.owner(id)].node(id)
    }

    /// Adds a node immediately. The builder receives the identifier the node
    /// will use; the node's `on_start` runs at the current simulation time.
    pub fn add_node(&mut self, build: impl FnOnce(NodeId) -> P) -> NodeId {
        self.add_node_at(self.now, build)
    }

    /// Adds a node whose `on_start` runs at `start` (which must not be in
    /// the past). Seeds are drawn from the master RNG in global add order,
    /// so per-node streams do not depend on the shard count.
    pub fn add_node_at(&mut self, start: SimTime, build: impl FnOnce(NodeId) -> P) -> NodeId {
        assert!(start >= self.now, "cannot start a node in the past");
        let id = NodeId(self.node_count() as u32);
        let seed: u64 = self.master_rng.gen();
        let owner = self.owner(id);
        for (s, shard) in self.shards.iter_mut().enumerate() {
            if s != owner {
                shard.set_alive(id, true);
            }
        }
        self.shards[owner].add_owned(id, start, seed, build);
        id
    }

    /// Crashes `id` at the current instant (fail-stop), applied at the
    /// start of the next `run_until`. The node stays alive (and invokable)
    /// until then; connected peers learn about the crash after the
    /// configured failure-detection delay.
    pub fn crash(&mut self, id: NodeId) {
        let owner = self.owner(id);
        let prio = self.shards[owner].lane_key(id);
        self.pending_crashes.push((prio, id));
    }

    /// Runs an application-level closure against a node *through the
    /// simulator*, so that any commands it issues (sends, timers) are
    /// processed normally. This is how experiment harnesses inject stream
    /// messages at the source node. Ignored for nodes that are dead or whose
    /// `on_start` has not yet run (a node that has not joined cannot
    /// originate traffic, exactly like `Deliver` refuses them input).
    pub fn invoke(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        let owner = self.owner(id);
        let shard = &mut self.shards[owner];
        if !shard.is_alive(id) || !shard.started(id) {
            return;
        }
        shard.now = self.now;
        shard.dispatch(id, f);
        self.route_outboxes();
    }

    /// Number of pending events across all shard queues.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Number of directed FIFO link clocks currently tracked. Exposed so
    /// tests can assert that crash pruning keeps the table bounded.
    pub fn tracked_link_clocks(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.link_clock.tracked_links())
            .sum()
    }

    /// Capacity of `sender`'s link-clock storage. Test hook: asserts that
    /// crash pruning clears in place instead of reallocating.
    pub fn link_clock_capacity(&self, sender: NodeId) -> usize {
        self.shards[self.owner(sender)]
            .link_clock
            .slot_capacity(sender)
    }

    /// Snapshot of every tracked FIFO link clock as `(sender, dest, last
    /// scheduled arrival)`, in `(sender, dest)` order. Diagnostic hook for
    /// the online invariant checkers (per-link clocks must be monotone over
    /// a run). A sender's clocks live only on its owner shard, so the merge
    /// is a sort of disjoint per-shard snapshots.
    pub fn link_clock_entries(&self) -> Vec<(NodeId, NodeId, SimTime)> {
        let mut all: Vec<(NodeId, NodeId, SimTime)> = self
            .shards
            .iter()
            .flat_map(|s| s.link_clock.entries().map(|(s, d, t)| (s, d, *t)))
            .collect();
        all.sort_unstable_by_key(|&(s, d, _)| (s, d));
        all
    }

    /// Takes the recorded scheduler operation trace. Empty unless
    /// [`NetworkConfig::trace_events`] was set; intended for benches that
    /// replay real workloads through a scheduler in isolation.
    pub fn take_event_trace(&mut self) -> Vec<TraceOp> {
        self.shards[0].queue.take_trace()
    }

    /// The accounting-based memory footprint of the simulation right now
    /// (see [`Footprint`]), summed across shards. O(nodes); intended for
    /// end-of-run sampling by the scale benches, not for the event loop.
    pub fn footprint(&self) -> Footprint {
        let mut total = Footprint::default();
        for shard in &self.shards {
            let f = shard.footprint();
            total.node_state_bytes += f.node_state_bytes;
            total.queue_bytes += f.queue_bytes;
            total.adjacency_bytes += f.adjacency_bytes;
            total.link_clock_bytes += f.link_clock_bytes;
            total.bandwidth_bytes += f.bandwidth_bytes;
        }
        total.nodes = self.node_count();
        total
    }

    /// One-way "typical" latency between a pair according to the latency
    /// model, used as the point-to-point reference series in Figure 9.
    ///
    /// Draws from a dedicated reference RNG (derived once from the master
    /// seed), never from the master RNG: calling this must not reorder the
    /// seeds of nodes added afterwards.
    pub fn typical_latency(&mut self, src: NodeId, dst: NodeId) -> SimDuration {
        let rng = &mut self.reference_rng;
        self.latency.typical(src, dst, rng)
    }

    /// Processes events until `deadline`, then sets the clock to it.
    /// Returns the new current time.
    ///
    /// # Panics
    ///
    /// Above one shard, if the effective lookahead is below 1 µs — a
    /// latency model without a positive `min_latency` (or a
    /// `latency_factor` that erases it) admits zero-delay cross-shard
    /// causality, which only a single shard can honour.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime
    where
        P: Send,
        P::Message: Send,
    {
        assert!(deadline >= self.now, "deadline is in the past");
        self.drain_boundary();
        if let [shard] = self.shards.as_mut_slice() {
            shard.run_window(deadline);
        } else {
            self.run_epochs(deadline);
        }
        self.now = deadline;
        for shard in &mut self.shards {
            shard.now = deadline;
        }
        self.publish_telemetry();
        self.now
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) -> SimTime
    where
        P: Send,
        P::Message: Send,
    {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// The epoch lookahead: the latency model's hard lower bound, shrunk
    /// by the live `latency_factor` when it compresses latencies (the
    /// fault layer rounds exactly like this, and rounding is monotone, so
    /// the result remains a true lower bound on every delivery delay).
    fn lookahead(&self) -> SimDuration {
        let base = self.latency.min_latency();
        if self.link_factor < 1.0 {
            let scaled = (base.as_micros() as f64 * self.link_factor.max(0.0)).round() as u64;
            SimDuration::from_micros(scaled)
        } else {
            base
        }
    }

    /// Runs every shard on its own worker thread, in causally closed
    /// epochs, up to `deadline`.
    fn run_epochs(&mut self, deadline: SimTime)
    where
        P: Send,
        P::Message: Send,
    {
        let lookahead = self.lookahead();
        assert!(
            lookahead >= SimDuration::from_micros(1),
            "sharded runs need a positive minimum latency \
             (LatencyModel::min_latency × latency_factor ≥ 1µs); \
             use a single shard for this model"
        );
        let deadline_us = deadline.as_micros();
        let lookahead_us = lookahead.as_micros();
        let shards = self.shards.len();
        let mins: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let inboxes: Vec<Mutex<Vec<Relay<P::Message>>>> =
            (0..shards).map(|_| Mutex::new(Vec::new())).collect();
        let barrier = Barrier::new(shards);
        std::thread::scope(|scope| {
            for shard in self.shards.iter_mut() {
                let mins = &mins;
                let inboxes = &inboxes;
                let barrier = &barrier;
                scope.spawn(move || {
                    shard.run_epochs(deadline_us, lookahead_us, mins, inboxes, barrier)
                });
            }
        });
    }

    /// Sequentially drains every event at exactly the current instant —
    /// pending crashes, starts of nodes added "now", zero-delay timers —
    /// merging the per-shard queue heads with the pending crash list in
    /// global priority order. Loops until the instant is dry (processing
    /// can mint more same-instant events). A single shard without pending
    /// crashes skips it: its inline loop pops the same events in the same
    /// order.
    fn drain_boundary(&mut self) {
        if self.shards.len() == 1 && self.pending_crashes.is_empty() {
            return;
        }
        let boundary = self.now;
        self.pending_crashes.sort_by_key(|&(prio, _)| prio);
        let crashes = std::mem::take(&mut self.pending_crashes);
        let mut crash_idx = 0;
        loop {
            // Pop each shard's head if it sits at the boundary instant.
            let mut held = Vec::with_capacity(self.shards.len());
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if shard.queue.peek_time() == Some(boundary) {
                    held.push((s, shard.queue.pop().expect("peeked event must exist")));
                }
            }
            let event_best = held
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, ev))| ev.prio)
                .map(|(i, (_, ev))| (i, ev.prio));
            let crash_best = crashes.get(crash_idx).map(|&(prio, _)| prio);
            let winner = match (event_best, crash_best) {
                (None, None) => break,
                (Some((i, ep)), Some(cp)) if ep <= cp => Some(i),
                (Some((i, _)), None) => Some(i),
                (_, Some(_)) => None,
            };
            // Push every other held head back (priorities are preserved,
            // and they alone determine order), then run the winner.
            let mut run = None;
            for (i, (s, ev)) in held.into_iter().enumerate() {
                if Some(i) == winner {
                    run = Some((s, ev));
                } else {
                    self.shards[s].queue.push(ev.time, ev.prio, ev.item);
                }
            }
            match run {
                Some((s, ev)) => {
                    let shard = &mut self.shards[s];
                    shard.now = boundary;
                    shard.stats.events_processed += 1;
                    shard.process(ev.item);
                    self.route_outboxes();
                }
                None => {
                    let (_, victim) = crashes[crash_idx];
                    crash_idx += 1;
                    self.apply_crash(victim);
                }
            }
        }
    }

    /// Applies one crash (fail-stop). Peers with an open connection to the
    /// victim detect the failure after the detection delay; the lane draws
    /// happen on the victim's owner shard, whose reverse adjacency index is
    /// authoritative (every remote edge towards the victim was mirrored
    /// there). The liveness flip and the prunes are replicated everywhere,
    /// so long churn runs do not accumulate state for dead nodes.
    fn apply_crash(&mut self, victim: NodeId) {
        self.crash_events += 1;
        if !self.is_alive(victim) {
            return;
        }
        let owner = self.owner(victim);
        let detect_at = self.now + self.config.failure_detection_delay;
        let notified: Vec<NodeId> = self.shards[owner].connections.incoming_of(victim).to_vec();
        for peer in notified {
            let prio = self.shards[owner].lane_key(victim);
            let dest = self.owner(peer);
            self.shards[dest].queue.push(
                detect_at,
                prio,
                EventKind::LinkDown {
                    node: peer,
                    peer: victim,
                },
            );
        }
        for shard in &mut self.shards {
            shard.set_alive(victim, false);
            shard.connections.clear_outgoing(victim);
            shard.link_clock.prune(victim);
            shard.faults.prune(victim);
        }
    }

    /// Routes every pending outbox relay directly (single-threaded; used
    /// by the boundary drain and `invoke`, where the driver holds all
    /// shards).
    fn route_outboxes(&mut self) {
        let shards = self.shards.len();
        for s in 0..shards {
            for d in 0..shards {
                if d == s {
                    continue;
                }
                let relays = std::mem::take(&mut self.shards[s].outbox[d]);
                for relay in relays {
                    self.shards[d].apply_relay(relay);
                }
            }
        }
    }

    /// Publishes simulator health to an attached telemetry registry, once
    /// per `run_until` call, plus one occupancy census record per shard
    /// above one shard. Out-of-band by construction: it only *reads*
    /// simulator state, so enabled and disabled runs stay bit-identical.
    fn publish_telemetry(&self) {
        let tel = &self.config.telemetry;
        if !tel.is_enabled() {
            return;
        }
        let stats = self.stats();
        tel.gauge("sim.sched_occupancy")
            .set(self.pending_events() as u64);
        tel.gauge("sim.events_processed")
            .set(stats.events_processed);
        tel.gauge("sim.messages_delivered")
            .set(stats.messages_delivered);
        tel.gauge("sim.now_us").set(self.now.as_micros());
        if self.shards.len() == 1 {
            return;
        }
        tel.gauge("sim.shards").set(self.shards.len() as u64);
        for (s, shard) in self.shards.iter().enumerate() {
            // Reuses the reactor's queue-census taxonomy: `node` is the
            // shard index, `a` its queue occupancy, `b` events processed.
            tel.event_on_shard(
                s,
                self.now.as_micros(),
                s as u32,
                TelEventKind::WriteQueueDepth,
                shard.queue.len() as u64,
                shard.stats.events_processed,
            );
        }
    }
}

/// Size in bytes of one in-queue event record for protocol `P` (the
/// payload the schedulers actually move). Exposed for benches that replay
/// scheduler traces with realistically sized entries.
pub fn event_record_size<P: Protocol>() -> usize {
    std::mem::size_of::<EventKind<P::Message>>()
}

/// Accounting-based memory footprint of a simulation, split by component.
///
/// This is the "peak RSS proxy" of the scale benches: instead of asking the
/// OS (noisy, allocator-dependent), every dense structure reports the bytes
/// its capacities occupy and every protocol stack estimates its own state
/// through [`Protocol::approx_state_bytes`]. Sampled at collect time, when
/// the per-node ledgers and link tables are at their largest.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Nodes ever added (dead slots included — their storage remains).
    pub nodes: usize,
    /// Sum of the per-node protocol-state estimates plus the slot overhead
    /// (RNG, flags) and the per-shard liveness replicas.
    pub node_state_bytes: usize,
    /// Pending event records in the scheduler.
    pub queue_bytes: usize,
    /// Connection table (adjacency vectors + reverse index).
    pub adjacency_bytes: usize,
    /// FIFO link clocks.
    pub link_clock_bytes: usize,
    /// Bandwidth meter (totals, and per-second buckets if retained).
    pub bandwidth_bytes: usize,
}

impl Footprint {
    /// Total accounted bytes.
    pub fn total_bytes(&self) -> usize {
        self.node_state_bytes
            + self.queue_bytes
            + self.adjacency_bytes
            + self.link_clock_bytes
            + self.bandwidth_bytes
    }

    /// Accounted bytes per node ever added.
    pub fn bytes_per_node(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerTag;
    use crate::latency::FixedLatency;
    use crate::protocol::WireSize;

    /// A tiny ping protocol used to exercise the simulator.
    #[derive(Debug)]
    struct Pinger {
        peer: Option<NodeId>,
        received: Vec<(NodeId, u8, SimTime)>,
        timer_fired: u32,
        link_down: Vec<NodeId>,
    }

    #[derive(Debug, Clone)]
    struct Ping(u8);
    impl WireSize for Ping {
        fn wire_size(&self) -> usize {
            100
        }
    }

    impl Pinger {
        fn new(peer: Option<NodeId>) -> Self {
            Pinger {
                peer,
                received: Vec::new(),
                timer_fired: 0,
                link_down: Vec::new(),
            }
        }
    }

    impl Protocol for Pinger {
        type Message = Ping;

        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if let Some(peer) = self.peer {
                ctx.open_connection(peer);
                ctx.send(peer, Ping(1));
                ctx.set_timer(SimDuration::from_millis(50), TimerTag::of_kind(1));
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
            self.received.push((from, msg.0, ctx.now()));
            if msg.0 == 1 {
                ctx.send(from, Ping(2));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, Ping>, _tag: TimerTag) {
            self.timer_fired += 1;
        }

        fn on_link_down(&mut self, _ctx: &mut Context<'_, Ping>, peer: NodeId) {
            self.link_down.push(peer);
        }
    }

    fn fixed_net(ms: u64) -> Network<Pinger> {
        Network::new(
            NetworkConfig::default(),
            Box::new(FixedLatency::new(SimDuration::from_millis(ms))),
        )
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut net = fixed_net(10);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(1));
        // a received the ping at t=10ms, b received the pong at t=20ms.
        let a_state = net.node(a).unwrap();
        let b_state = net.node(b).unwrap();
        assert_eq!(a_state.received.len(), 1);
        assert_eq!(a_state.received[0].1, 1);
        assert_eq!(a_state.received[0].2, SimTime::from_millis(10));
        assert_eq!(b_state.received.len(), 1);
        assert_eq!(b_state.received[0].1, 2);
        assert_eq!(b_state.received[0].2, SimTime::from_millis(20));
        assert_eq!(b_state.timer_fired, 1);
        assert_eq!(net.stats().messages_sent, 2);
        assert_eq!(net.stats().messages_delivered, 2);
    }

    #[test]
    fn bandwidth_is_accounted_both_ways() {
        let mut net = fixed_net(5);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(1));
        let bw = net.bandwidth();
        assert_eq!(bw.node(b).unwrap().upload_total, 100);
        assert_eq!(bw.node(b).unwrap().download_total, 100);
        assert_eq!(bw.node(a).unwrap().upload_total, 100);
        assert_eq!(bw.node(a).unwrap().download_total, 100);
    }

    #[test]
    fn crash_drops_messages_and_notifies_connected_peer() {
        let mut net = fixed_net(10);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        // Crash `a` immediately: b's ping (in flight) is dropped and b is
        // notified of the broken link after the detection delay.
        net.crash(a);
        net.run_until(SimTime::from_secs(2));
        assert!(!net.is_alive(a));
        assert!(net.is_alive(b));
        assert_eq!(net.node(a).unwrap().received.len(), 0);
        assert_eq!(net.node(b).unwrap().link_down, vec![a]);
        assert_eq!(net.stats().messages_dropped, 1);
        // A dead-destination drop is not a fault-layer loss: the counters
        // are disjoint.
        assert_eq!(net.stats().messages_lost_to_faults, 0);
        assert_eq!(net.stats().messages_cut_by_partition, 0);
        assert_eq!(net.alive_ids(), vec![b]);
        assert_eq!(net.alive_iter().collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = || {
            let mut net = fixed_net(3);
            let a = net.add_node(|_| Pinger::new(None));
            let _b = net.add_node(move |_| Pinger::new(Some(a)));
            net.run_until(SimTime::from_secs(1));
            net.stats()
        };
        let s1 = run();
        let s2 = run();
        assert_eq!(s1.messages_sent, s2.messages_sent);
        assert_eq!(s1.events_processed, s2.events_processed);
    }

    #[test]
    fn invoke_routes_commands_through_simulator() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(|_| Pinger::new(None));
        net.run_until(SimTime::from_millis(1));
        net.invoke(b, |_proto, ctx| {
            ctx.send(a, Ping(7));
        });
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.node(a).unwrap().received.len(), 1);
        assert_eq!(net.node(a).unwrap().received[0].1, 7);
    }

    #[test]
    fn invoke_before_start_is_ignored() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node_at(SimTime::from_secs(5), |_| Pinger::new(None));
        net.run_until(SimTime::from_millis(1));
        // b exists and is alive, but its on_start has not run yet: a harness
        // must not be able to inject traffic through it.
        assert!(net.is_alive(b));
        net.invoke(b, |_proto, ctx| {
            ctx.send(a, Ping(9));
        });
        net.run_until(SimTime::from_secs(10));
        assert_eq!(
            net.node(a).unwrap().received.len(),
            0,
            "publish into an unstarted node must be dropped"
        );
        // After on_start has run, the same invoke goes through.
        net.invoke(b, |_proto, ctx| {
            ctx.send(a, Ping(9));
        });
        net.run_until(SimTime::from_secs(11));
        assert_eq!(net.node(a).unwrap().received.len(), 1);
    }

    #[test]
    fn fifo_ordering_is_preserved_per_link() {
        // With FIFO links, a burst of messages sent back-to-back arrives in
        // order even though individual latency samples could reorder them.
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig::default(),
            Box::new(crate::latency::ClusterLatency::default()),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(|_| Pinger::new(None));
        net.run_until(SimTime::from_millis(1));
        net.invoke(b, |_p, ctx| {
            for i in 0..20u8 {
                ctx.send(a, Ping(i));
            }
        });
        net.run_until(SimTime::from_secs(1));
        let seq: Vec<u8> = net.node(a).unwrap().received.iter().map(|r| r.1).collect();
        assert_eq!(seq, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn delayed_start_defers_on_start() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        let _b = net.add_node_at(SimTime::from_secs(5), move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(4));
        assert_eq!(net.node(a).unwrap().received.len(), 0);
        net.run_until(SimTime::from_secs(6));
        assert_eq!(net.node(a).unwrap().received.len(), 1);
    }

    #[test]
    fn crash_prunes_link_clocks() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        let c = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(1));
        // a<->b and a<->c exchanged messages: 4 directed clocks tracked.
        assert_eq!(net.tracked_link_clocks(), 4);
        let a_capacity = net.link_clock_capacity(a);
        let b_capacity = net.link_clock_capacity(b);
        assert!(a_capacity >= 2 && b_capacity >= 1);
        net.crash(b);
        net.run_until(SimTime::from_secs(2));
        // Everything involving b is gone; a<->c remains.
        assert_eq!(net.tracked_link_clocks(), 2);
        // Pruning clears in place: neither the crashed sender's slot nor the
        // slots it was removed from were reallocated.
        assert_eq!(
            net.link_clock_capacity(b),
            b_capacity,
            "the crashed sender's clock vector is cleared, not replaced"
        );
        assert_eq!(net.link_clock_capacity(a), a_capacity);
        // Senders that have not yet detected the failure keep relaying to
        // the dead peer; those sends must not resurrect the pruned clocks.
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(9)));
        net.run_until(SimTime::from_secs(3));
        assert_eq!(
            net.tracked_link_clocks(),
            2,
            "sends to a dead peer leave no clock behind"
        );
        net.crash(a);
        net.crash(c);
        net.run_until(SimTime::from_secs(4));
        assert_eq!(net.tracked_link_clocks(), 0);
    }

    #[test]
    fn connecting_to_dead_peer_reports_link_down() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        net.run_until(SimTime::from_millis(1));
        net.crash(a);
        net.run_until(SimTime::from_millis(2));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.node(b).unwrap().link_down, vec![a]);
    }

    /// A latency model whose `typical` falls back to the default (sampling)
    /// implementation — the case where drawing reference latencies from the
    /// master RNG would perturb the seeds of nodes added afterwards.
    struct JitterLatency;
    impl LatencyModel for JitterLatency {
        fn sample(&self, _src: NodeId, _dst: NodeId, rng: &mut SmallRng) -> SimDuration {
            SimDuration::from_micros(rng.gen_range(100..=10_000))
        }
    }

    #[test]
    fn typical_latency_does_not_perturb_node_seeds() {
        let run = |probe_reference_latency: bool| {
            let mut net: Network<Pinger> =
                Network::new(NetworkConfig::default(), Box::new(JitterLatency));
            let a = net.add_node(|_| Pinger::new(None));
            if probe_reference_latency {
                // Draw a pile of reference latencies between adding nodes.
                for _ in 0..17 {
                    net.typical_latency(a, NodeId(99));
                }
            }
            let _b = net.add_node(move |_| Pinger::new(Some(a)));
            net.run_until(SimTime::from_secs(1));
            net.node(a).unwrap().received[0].2
        };
        assert_eq!(
            run(false),
            run(true),
            "reference-latency queries must not reorder node seeds"
        );
    }

    #[test]
    fn schedulers_run_identically() {
        let run = |scheduler: SchedulerKind| {
            let mut net: Network<Pinger> = Network::new(
                NetworkConfig {
                    scheduler,
                    ..Default::default()
                },
                Box::new(crate::latency::ClusterLatency::default()),
            );
            let a = net.add_node(|_| Pinger::new(None));
            let b = net.add_node(move |_| Pinger::new(Some(a)));
            let c = net.add_node(move |_| Pinger::new(Some(a)));
            net.run_until(SimTime::from_millis(500));
            net.crash(b);
            net.run_until(SimTime::from_secs(2));
            (
                net.stats(),
                net.node(a).unwrap().received.clone(),
                net.node(c).unwrap().received.clone(),
            )
        };
        let (wheel_stats, wheel_a, wheel_c) = run(SchedulerKind::TimingWheel);
        let (heap_stats, heap_a, heap_c) = run(SchedulerKind::BinaryHeap);
        assert_eq!(wheel_stats.events_processed, heap_stats.events_processed);
        assert_eq!(
            wheel_stats.messages_delivered,
            heap_stats.messages_delivered
        );
        assert_eq!(
            format!("{wheel_a:?}{wheel_c:?}"),
            format!("{heap_a:?}{heap_c:?}")
        );
    }

    #[test]
    fn bernoulli_loss_is_counted_separately_from_drops() {
        use crate::faults::{FaultConfig, LinkFaults};
        let run = |loss_rate: f64| {
            let mut net: Network<Pinger> = Network::new(
                NetworkConfig {
                    faults: FaultConfig {
                        link: LinkFaults {
                            loss_rate,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                    ..Default::default()
                },
                Box::new(FixedLatency::new(SimDuration::from_millis(1))),
            );
            let a = net.add_node(|_| Pinger::new(None));
            let b = net.add_node(|_| Pinger::new(None));
            net.run_until(SimTime::from_millis(1));
            net.invoke(b, |_p, ctx| {
                for _ in 0..200u8 {
                    // Ping(0) draws no reply from the receiver, so exactly
                    // 200 messages cross the wire.
                    ctx.send(a, Ping(0));
                }
            });
            net.run_until(SimTime::from_secs(1));
            (net.stats(), net.node(a).unwrap().received.len())
        };
        let (stats, received) = run(0.2);
        assert!(
            stats.messages_lost_to_faults > 0,
            "20% loss over 200 sends must lose something"
        );
        assert_eq!(
            stats.messages_dropped, 0,
            "fault losses are not dead-destination drops"
        );
        assert_eq!(stats.messages_cut_by_partition, 0);
        assert_eq!(
            stats.messages_delivered + stats.messages_lost_to_faults,
            stats.messages_sent,
            "every sent message is either delivered or lost"
        );
        assert_eq!(received as u64, stats.messages_delivered);
        // Deterministic: the same seed reproduces the exact loss pattern.
        let (again, _) = run(0.2);
        assert_eq!(stats.messages_lost_to_faults, again.messages_lost_to_faults);
        assert_eq!(stats.events_processed, again.events_processed);
    }

    /// An *active but harmless* fault layer (zero loss, empty-island
    /// partition) must be bit-identical to no fault layer at all: the layer
    /// takes no draws and shifts no timestamps.
    #[test]
    fn harmless_fault_layer_is_bit_identical_to_none() {
        use crate::faults::{FaultConfig, PartitionMode, PartitionSpec};
        let run = |faults: FaultConfig| {
            let mut net: Network<Pinger> = Network::new(
                NetworkConfig {
                    faults,
                    ..Default::default()
                },
                Box::new(crate::latency::ClusterLatency::default()),
            );
            let a = net.add_node(|_| Pinger::new(None));
            let _b = net.add_node(move |_| Pinger::new(Some(a)));
            let _c = net.add_node(move |_| Pinger::new(Some(a)));
            net.run_until(SimTime::from_secs(1));
            format!(
                "{:?}{:?}",
                net.node(a).unwrap().received,
                net.stats().events_processed
            )
        };
        let empty_island = FaultConfig {
            partitions: vec![PartitionSpec::new(
                Vec::new(),
                SimTime::ZERO,
                SimTime::from_secs(10),
                PartitionMode::Drop,
            )],
            ..Default::default()
        };
        assert_eq!(run(FaultConfig::default()), run(empty_island));
    }

    #[test]
    fn partition_blackholes_and_heals() {
        use crate::faults::{FaultConfig, PartitionMode, PartitionSpec};
        let island_node = NodeId(1);
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig {
                faults: FaultConfig {
                    partitions: vec![PartitionSpec::new(
                        vec![island_node],
                        SimTime::from_secs(2),
                        SimTime::from_secs(4),
                        PartitionMode::Drop,
                    )],
                    ..Default::default()
                },
                ..Default::default()
            },
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(|_| Pinger::new(None));
        assert_eq!(b, island_node);
        net.run_until(SimTime::from_secs(1));
        // Before the window: delivered. (Ping values != 1 draw no reply.)
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(0)));
        net.run_until(SimTime::from_secs(3));
        assert_eq!(net.node(b).unwrap().received.len(), 1);
        // Inside the window: cross-cut traffic is cut, both directions.
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(2)));
        net.invoke(b, |_p, ctx| ctx.send(a, Ping(3)));
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.node(b).unwrap().received.len(), 1);
        assert_eq!(net.node(a).unwrap().received.len(), 0);
        assert_eq!(net.stats().messages_cut_by_partition, 2);
        assert_eq!(net.stats().messages_lost_to_faults, 0);
        // After heal: traffic flows again.
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(4)));
        net.run_until(SimTime::from_secs(6));
        assert_eq!(net.node(b).unwrap().received.len(), 2);
        // No connections were torn down by the partition: the model is an
        // outage shorter than the transport time-out.
        assert!(net.node(a).unwrap().link_down.is_empty());
        assert!(net.node(b).unwrap().link_down.is_empty());
    }

    #[test]
    fn delaying_partition_holds_traffic_until_heal() {
        use crate::faults::{FaultConfig, PartitionMode, PartitionSpec};
        let heal = SimTime::from_secs(4);
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig {
                faults: FaultConfig {
                    partitions: vec![PartitionSpec::new(
                        vec![NodeId(1)],
                        SimTime::from_secs(2),
                        heal,
                        PartitionMode::Delay,
                    )],
                    ..Default::default()
                },
                ..Default::default()
            },
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(|_| Pinger::new(None));
        net.run_until(SimTime::from_secs(3));
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(9)));
        net.run_until(SimTime::from_secs(10));
        let received = &net.node(b).unwrap().received;
        assert_eq!(received.len(), 1);
        assert_eq!(
            received[0].2, heal,
            "held back until the heal instant (latency charged from the send)"
        );
        assert_eq!(net.stats().messages_cut_by_partition, 0);
    }

    #[test]
    fn connecting_across_an_active_cut_reports_link_down() {
        use crate::faults::{FaultConfig, PartitionMode, PartitionSpec};
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig {
                faults: FaultConfig {
                    partitions: vec![PartitionSpec::new(
                        vec![NodeId(1)],
                        SimTime::ZERO,
                        SimTime::from_secs(60),
                        PartitionMode::Drop,
                    )],
                    ..Default::default()
                },
                ..Default::default()
            },
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(2));
        assert_eq!(
            net.node(b).unwrap().link_down,
            vec![a],
            "the blackholed handshake times out like a dead-peer connect"
        );
    }

    #[test]
    fn event_trace_capture() {
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig {
                trace_events: true,
                ..Default::default()
            },
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let _b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(1));
        let trace = net.take_event_trace();
        let pushes = trace
            .iter()
            .filter(|op| matches!(op, TraceOp::Push(_)))
            .count();
        let pops = trace.iter().filter(|op| matches!(op, TraceOp::Pop)).count();
        assert_eq!(pops as u64, net.stats().events_processed);
        assert!(pushes >= pops);
    }
}
