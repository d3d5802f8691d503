//! The event core: one shard of a simulation.
//!
//! A [`crate::Network`] partitions its nodes across `k` shards by id
//! (`owner(id) = id % k`). A [`Shard`] owns its slice of the nodes plus
//! replicas of the shared state its events read, and it is the only place
//! simulator events are processed. At `k = 1` the one shard owns every node
//! and the driver pops its queue inline; at `k > 1` every shard runs its
//! queue on a worker thread in lock-step epochs. Either way the run is
//! **bit-identical** for a given seed: every protocol callback sees the
//! same RNG stream, the same message order and the same timestamps.
//!
//! # Why determinism holds
//!
//! Three mechanisms combine:
//!
//! 1. **Lane-key event priorities** (see [`crate::sched`]). Every event's
//!    priority is `(causing_node << 32) | cause_counter`, drawn from the
//!    causing node's own counter. Priorities are globally unique, so
//!    `(time, prio)` is already a total order over all events of a run —
//!    the order cross-shard deliveries are appended to a mailbox is
//!    irrelevant, because the destination queue re-establishes the exact
//!    order from the key alone.
//!
//! 2. **Conservative lookahead windows** (`k > 1` only). Cross-shard
//!    influence travels only through messages, and every message takes at
//!    least [`crate::latency::LatencyModel::min_latency`] (scaled down by
//!    the live `latency_factor` when it shrinks latencies). Each epoch, all
//!    shards agree on the global minimum pending timestamp `m` and process
//!    only events with `t ≤ m + L − 1µs`; any event a remote shard could
//!    still produce lands at `≥ m + L`, strictly beyond the window. The
//!    windows are therefore causally closed, and mailbox exchange happens
//!    at a barrier between windows. Models that cannot promise a positive
//!    bound (`min_latency() == 0`) are refused above one shard.
//!
//! 3. **A sequential boundary drain.** Driver operations (`invoke`,
//!    `crash`, `add_node`) happen between `run_until` calls, at the
//!    current instant. Events at exactly that instant — starts, zero-delay
//!    timers, pending crashes — can interleave with each other in prio
//!    order *and mutate shared state* (a crash flips liveness on all
//!    shards), so the driver drains that single instant sequentially,
//!    merging the per-shard queue heads and the pending crash list by
//!    priority, before the shards run on.
//!
//! Per-shard state is either *owned* (protocol state, RNG, FIFO clocks and
//! fault counters of a node's outgoing links live only on its owner shard)
//! or *replicated with deterministic updates* (liveness flips only in the
//! boundary drain; adjacency mutations are mirrored to the other endpoint's
//! shard at the epoch barrier, where they are reads-free until the next
//! boundary).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::bandwidth::{BandwidthMeter, Direction};
use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultLayer, Routed};
use crate::latency::LatencyModel;
use crate::links::{Adjacency, LinkClocks};
use crate::network::{event_record_size, Footprint, NetStats, NetworkConfig};
use crate::node::NodeId;
use crate::protocol::{Command, Context, Protocol, WireSize};
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The shard owning `id` among `k`. The division is skipped at `k = 1`,
/// which keeps it off the single-shard hot path.
pub(crate) fn owner(id: NodeId, k: usize) -> usize {
    if k == 1 {
        0
    } else {
        id.index() % k
    }
}

/// Index of `id` in its owner shard's dense slot vector.
fn local(id: NodeId, k: usize) -> usize {
    if k == 1 {
        id.index()
    } else {
        id.index() / k
    }
}

/// Cross-shard mailbox item: either an event for the destination shard's
/// queue or an adjacency mirror notification (every mutation of an edge
/// whose endpoints live on different shards is replayed on the other
/// endpoint's shard, so `incoming_of` and `clear_outgoing` stay exact).
pub(crate) enum Relay<M> {
    Event {
        time: SimTime,
        prio: u64,
        kind: EventKind<M>,
    },
    Open {
        owner: NodeId,
        peer: NodeId,
    },
    Close {
        owner: NodeId,
        peer: NodeId,
    },
}

/// Protocol state of one owned node (dense, at `id / k`).
struct Slot<P> {
    proto: P,
    rng: SmallRng,
    started: bool,
    /// Per-node cause counter for lane-key priorities: the n-th event
    /// *caused* by this node gets priority `(id << 32) | n`. Every draw for
    /// this lane happens on this shard, in causal order, so the counter —
    /// and with it the event order — does not depend on the shard count.
    lane_seq: u32,
}

/// One shard: the slice of nodes it owns plus replicas of the shared
/// state its events read.
pub(crate) struct Shard<P: Protocol> {
    index: usize,
    count: usize,
    config: NetworkConfig,
    latency: Arc<dyn LatencyModel>,
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<P::Message>,
    /// Owned nodes, dense at `id / k`.
    slots: Vec<Slot<P>>,
    /// Replicated liveness for *all* nodes; flips only in the boundary
    /// drain, so mid-epoch reads are stable and identical on every shard.
    alive: Vec<bool>,
    /// Global-id-space adjacency. Out-lists of owned nodes are
    /// authoritative; edges with a remote endpoint are mirrored onto that
    /// endpoint's shard so its reverse index stays exact.
    pub(crate) connections: Adjacency,
    /// FIFO clocks of owned senders (a sender's clocks live only here).
    pub(crate) link_clock: LinkClocks,
    /// Fault-layer replica. Draw counters are per directed link and only
    /// bumped on the sender's shard, so replicas never disagree on a draw.
    pub(crate) faults: FaultLayer,
    pub(crate) bandwidth: BandwidthMeter,
    pub(crate) stats: NetStats,
    command_buf: Vec<Command<P::Message>>,
    /// Per-destination-shard outbound relays, exchanged at the epoch
    /// barrier (routed immediately by the driver between epochs).
    pub(crate) outbox: Vec<Vec<Relay<P::Message>>>,
}

impl<P: Protocol> Shard<P> {
    pub(crate) fn new(
        index: usize,
        count: usize,
        config: &NetworkConfig,
        latency: Arc<dyn LatencyModel>,
    ) -> Self {
        Shard {
            index,
            count,
            config: config.clone(),
            latency,
            now: SimTime::ZERO,
            queue: EventQueue::new(config.scheduler, config.trace_events),
            slots: Vec::new(),
            alive: Vec::new(),
            connections: Adjacency::default(),
            link_clock: LinkClocks::default(),
            faults: FaultLayer::new(config.seed, config.faults.clone()),
            bandwidth: BandwidthMeter::with_mode(config.meter),
            stats: NetStats::default(),
            command_buf: Vec::new(),
            outbox: (0..count).map(|_| Vec::new()).collect(),
        }
    }

    fn owns(&self, id: NodeId) -> bool {
        owner(id, self.count) == self.index
    }

    /// Nodes ever added, on any shard (the liveness replica is global).
    pub(crate) fn node_count(&self) -> usize {
        self.alive.len()
    }

    pub(crate) fn is_alive(&self, id: NodeId) -> bool {
        self.alive.get(id.index()).copied().unwrap_or(false)
    }

    pub(crate) fn set_alive(&mut self, id: NodeId, val: bool) {
        if self.alive.len() <= id.index() {
            self.alive.resize(id.index() + 1, false);
        }
        self.alive[id.index()] = val;
    }

    /// Identifiers of all live nodes, ascending.
    pub(crate) fn alive_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, alive)| **alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    pub(crate) fn started(&self, id: NodeId) -> bool {
        self.slots
            .get(local(id, self.count))
            .is_some_and(|s| s.started)
    }

    /// Protocol state of an owned node.
    pub(crate) fn node(&self, id: NodeId) -> Option<&P> {
        self.slots.get(local(id, self.count)).map(|s| &s.proto)
    }

    /// Adds a node this shard owns: seeds its RNG and queues its start.
    pub(crate) fn add_owned(
        &mut self,
        id: NodeId,
        start: SimTime,
        seed: u64,
        build: impl FnOnce(NodeId) -> P,
    ) {
        assert_eq!(
            local(id, self.count),
            self.slots.len(),
            "node ids must be added densely"
        );
        self.slots.push(Slot {
            proto: build(id),
            rng: SmallRng::seed_from_u64(seed),
            started: false,
            lane_seq: 0,
        });
        self.set_alive(id, true);
        self.bandwidth.ensure(id);
        let prio = self.lane_key(id);
        self.queue.push(start, prio, EventKind::Start { node: id });
    }

    /// Draws the next lane-key priority for an event caused by `lane`: the
    /// causing node's id in the high 32 bits, its cause counter in the low
    /// 32. Only ever called for lanes this shard owns (every event's cause
    /// is processed on its owner); unknown lanes (e.g. a crash requested
    /// for a node never added) get counter 0 — such events are ignored at
    /// processing time anyway.
    pub(crate) fn lane_key(&mut self, lane: NodeId) -> u64 {
        let hi = (lane.0 as u64) << 32;
        if self.owns(lane) {
            if let Some(slot) = self.slots.get_mut(local(lane, self.count)) {
                let key = hi | slot.lane_seq as u64;
                slot.lane_seq = slot.lane_seq.wrapping_add(1);
                return key;
            }
        }
        hi
    }

    /// Applies one mailbox item delivered at an epoch barrier (or routed
    /// directly by the driver between epochs).
    pub(crate) fn apply_relay(&mut self, relay: Relay<P::Message>) {
        match relay {
            Relay::Event { time, prio, kind } => self.queue.push(time, prio, kind),
            Relay::Open { owner, peer } => self.connections.insert(owner, peer),
            Relay::Close { owner, peer } => self.connections.remove(owner, peer),
        }
    }

    /// Queues an adjacency mirror for `peer`'s shard if it is not this one.
    fn mirror(&mut self, peer: NodeId, relay: impl FnOnce() -> Relay<P::Message>) {
        if !self.owns(peer) {
            let dest = owner(peer, self.count);
            self.outbox[dest].push(relay());
        }
    }

    /// Processes every queued event up to and including `bound`.
    pub(crate) fn run_window(&mut self, bound: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > bound {
                break;
            }
            let ev = self.queue.pop().expect("peeked event must exist");
            self.now = ev.time;
            self.stats.events_processed += 1;
            self.process(ev.item);
        }
    }

    /// Processes one event.
    pub(crate) fn process(&mut self, kind: EventKind<P::Message>) {
        match kind {
            EventKind::Start { node } => {
                if !self.is_alive(node) {
                    return;
                }
                self.slots[local(node, self.count)].started = true;
                self.dispatch(node, |proto, ctx| proto.on_start(ctx));
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            } => {
                if !self.is_alive(to) || !self.started(to) {
                    self.stats.messages_dropped += 1;
                    return;
                }
                self.bandwidth
                    .record(to, Direction::Download, size, self.now);
                self.stats.messages_delivered += 1;
                self.dispatch(to, |proto, ctx| proto.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, tag } => {
                if !self.is_alive(node) {
                    return;
                }
                self.dispatch(node, |proto, ctx| proto.on_timer(ctx, tag));
            }
            EventKind::LinkDown { node, peer } => {
                // Only notify if the connection is still considered open.
                if !self.is_alive(node) || !self.connections.contains(node, peer) {
                    return;
                }
                self.connections.remove(node, peer);
                self.mirror(peer, || Relay::Close { owner: node, peer });
                self.dispatch(node, |proto, ctx| proto.on_link_down(ctx, peer));
            }
        }
    }

    /// Runs one protocol callback of owned node `id` and applies the
    /// commands it issued.
    pub(crate) fn dispatch(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>),
    ) {
        let slot = &mut self.slots[local(id, self.count)];
        let mut commands = std::mem::take(&mut self.command_buf);
        commands.clear();
        {
            let mut ctx = Context {
                now: self.now,
                id,
                rng: &mut slot.rng,
                commands: &mut commands,
                telemetry: &self.config.telemetry,
            };
            f(&mut slot.proto, &mut ctx);
        }
        let drained = self.apply_commands(id, commands);
        self.command_buf = drained;
    }

    /// Applies the commands a callback issued. Commands are consumed by
    /// value: a `Send` moves its message straight into the event queue (or
    /// the destination shard's outbox), so fanning a payload out to many
    /// peers costs whatever the protocol paid to build each message (an
    /// `Arc` clone for BRISA data) and nothing more. Returns the emptied
    /// vector for reuse.
    fn apply_commands(
        &mut self,
        origin: NodeId,
        mut commands: Vec<Command<P::Message>>,
    ) -> Vec<Command<P::Message>> {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send { to, msg } => {
                    let size = msg.wire_size();
                    self.stats.messages_sent += 1;
                    self.bandwidth
                        .record(origin, Direction::Upload, size, self.now);
                    let latency = {
                        let rng = &mut self.slots[local(origin, self.count)].rng;
                        self.latency.sample(origin, to, rng)
                    };
                    // The fault layer sits between command drain and
                    // delivery scheduling. The sender has already paid the
                    // upload bandwidth: a lost message went onto the wire,
                    // it just never arrives. Loss/jitter draws come from the
                    // layer's own per-link split-seed PRF, so the node RNG
                    // stream above is identical with or without faults.
                    let mut deliver_at = self.now + latency;
                    if !self.faults.is_inert() {
                        match self.faults.route(origin, to, self.now, latency) {
                            Routed::Deliver(at) => deliver_at = at,
                            Routed::LostToFaults => {
                                self.stats.messages_lost_to_faults += 1;
                                continue;
                            }
                            Routed::CutByPartition => {
                                self.stats.messages_cut_by_partition += 1;
                                continue;
                            }
                        }
                    }
                    // FIFO clocks are only tracked towards live destinations:
                    // a delivery to a dead node is dropped on arrival, so its
                    // ordering is irrelevant — and re-inserting a clock that
                    // the crash just pruned would leak one entry per
                    // (sender, dead peer) pair for the rest of the run. The
                    // failure-detection window, where senders still relay to
                    // a crashed peer, hits exactly this path.
                    if self.config.fifo_links && self.is_alive(to) {
                        let clock = self.link_clock.entry(origin, to);
                        if deliver_at < *clock {
                            deliver_at = *clock + SimDuration::from_micros(1);
                        }
                        *clock = deliver_at;
                    }
                    let prio = self.lane_key(origin);
                    let kind = EventKind::Deliver {
                        from: origin,
                        to,
                        msg,
                        size,
                    };
                    if self.owns(to) {
                        self.queue.push(deliver_at, prio, kind);
                    } else {
                        let dest = owner(to, self.count);
                        self.outbox[dest].push(Relay::Event {
                            time: deliver_at,
                            prio,
                            kind,
                        });
                    }
                }
                Command::SetTimer { delay, tag } => {
                    let prio = self.lane_key(origin);
                    self.queue.push(
                        self.now + delay,
                        prio,
                        EventKind::Timer { node: origin, tag },
                    );
                }
                Command::OpenConnection { peer } => {
                    self.connections.insert(origin, peer);
                    self.mirror(peer, || Relay::Open {
                        owner: origin,
                        peer,
                    });
                    // Connecting to a node that is already dead — or across
                    // an active partition cut, whose handshake traffic is
                    // blackholed — fails after the detection delay, like a
                    // TCP connect timeout.
                    if !self.is_alive(peer)
                        || (!self.faults.is_inert() && self.faults.is_cut(self.now, origin, peer))
                    {
                        let prio = self.lane_key(origin);
                        self.queue.push(
                            self.now + self.config.failure_detection_delay,
                            prio,
                            EventKind::LinkDown { node: origin, peer },
                        );
                    }
                }
                Command::CloseConnection { peer } => {
                    self.connections.remove(origin, peer);
                    self.mirror(peer, || Relay::Close {
                        owner: origin,
                        peer,
                    });
                }
            }
        }
        commands
    }

    /// The threaded epoch loop of one shard (`k > 1`). All shards execute
    /// identical control flow: publish local minimum, agree on the global
    /// minimum at a barrier, process the causally closed window, exchange
    /// mailboxes at a second barrier, drain the own inbox, repeat.
    pub(crate) fn run_epochs(
        &mut self,
        deadline_us: u64,
        lookahead_us: u64,
        mins: &[AtomicU64],
        inboxes: &[Mutex<Vec<Relay<P::Message>>>],
        barrier: &Barrier,
    ) {
        loop {
            let local_min = self
                .queue
                .peek_time()
                .map(|t| t.as_micros())
                .unwrap_or(u64::MAX);
            mins[self.index].store(local_min, Ordering::SeqCst);
            barrier.wait();
            let global_min = mins
                .iter()
                .map(|m| m.load(Ordering::SeqCst))
                .min()
                .expect("at least one shard");
            if global_min > deadline_us {
                // Every shard computes the same global minimum, so every
                // shard exits here in the same round: no barrier skew.
                break;
            }
            self.run_window(SimTime::from_micros(
                deadline_us.min(global_min.saturating_add(lookahead_us).saturating_sub(1)),
            ));
            for (dest, inbox) in inboxes.iter().enumerate() {
                if dest == self.index || self.outbox[dest].is_empty() {
                    continue;
                }
                inbox
                    .lock()
                    .expect("inbox lock")
                    .append(&mut self.outbox[dest]);
            }
            barrier.wait();
            let inbox = std::mem::take(&mut *inboxes[self.index].lock().expect("inbox lock"));
            for relay in inbox {
                self.apply_relay(relay);
            }
        }
    }

    /// This shard's share of the accounting-based footprint (`nodes`
    /// counts the owned slots).
    pub(crate) fn footprint(&self) -> Footprint {
        let slot_overhead = std::mem::size_of::<Slot<P>>() - std::mem::size_of::<P>();
        Footprint {
            nodes: self.slots.len(),
            node_state_bytes: self
                .slots
                .iter()
                .map(|n| n.proto.approx_state_bytes() + slot_overhead)
                .sum::<usize>()
                + self.alive.capacity(),
            // Each pending entry carries the event record plus its
            // `(time, prio, sequence)` sort key.
            queue_bytes: self.queue.len() * (event_record_size::<P>() + 24),
            adjacency_bytes: self.connections.approx_bytes(),
            link_clock_bytes: self.link_clock.approx_bytes(),
            bandwidth_bytes: self.bandwidth.approx_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerTag;
    use crate::faults::{FaultConfig, LinkFaults, PartitionMode, PartitionSpec};
    use crate::latency::{ClusterLatency, FixedLatency};
    use crate::network::Network;
    use crate::sched::SchedulerKind;
    use rand::Rng;

    /// A chatty protocol that exercises every divergence-prone path: RNG
    /// draws in callbacks, fan-out sends, timers, connection churn.
    #[derive(Debug)]
    struct Chat {
        peers: Vec<NodeId>,
        log: Vec<(NodeId, u8, SimTime)>,
        downs: Vec<(NodeId, SimTime)>,
        timers: u32,
    }

    #[derive(Debug, Clone)]
    struct Msg(u8);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            64
        }
    }

    impl Chat {
        fn new(peers: Vec<NodeId>) -> Self {
            Chat {
                peers,
                log: Vec::new(),
                downs: Vec::new(),
                timers: 0,
            }
        }
    }

    impl Protocol for Chat {
        type Message = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for &p in &self.peers {
                ctx.open_connection(p);
            }
            if let Some(&first) = self.peers.first() {
                ctx.send(first, Msg(3));
            }
            ctx.set_timer(SimDuration::from_millis(40), TimerTag::of_kind(1));
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            self.log.push((from, msg.0, ctx.now()));
            if msg.0 > 0 && !self.peers.is_empty() {
                let idx = ctx.rng().gen_range(0..self.peers.len());
                let target = self.peers[idx];
                ctx.send(target, Msg(msg.0 - 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _tag: TimerTag) {
            self.timers += 1;
            if self.timers <= 3 && !self.peers.is_empty() {
                let idx = ctx.rng().gen_range(0..self.peers.len());
                let target = self.peers[idx];
                ctx.send(target, Msg(2));
                ctx.set_timer(SimDuration::from_millis(40), TimerTag::of_kind(1));
            }
        }

        fn on_link_down(&mut self, ctx: &mut Context<'_, Msg>, peer: NodeId) {
            self.downs.push((peer, ctx.now()));
        }
    }

    fn ring_peers(i: u32, n: u32) -> Vec<NodeId> {
        vec![
            NodeId((i + 1) % n),
            NodeId((i + 2) % n),
            NodeId((i + n - 1) % n),
        ]
    }

    fn add(net: &mut Network<Chat>, at: Option<SimTime>, peers: Vec<NodeId>) -> NodeId {
        match at {
            Some(t) => net.add_node_at(t, move |_| Chat::new(peers)),
            None => net.add_node(move |_| Chat::new(peers)),
        }
    }

    fn invoke_send(net: &mut Network<Chat>, id: NodeId, to: NodeId, v: u8) {
        net.invoke(id, |_p, ctx| ctx.send(to, Msg(v)));
    }

    /// Every observable of a run: stats, liveness, per-node logs,
    /// bandwidth and FIFO clocks.
    fn fingerprint(net: &Network<Chat>, n: u32) -> String {
        let mut out = String::new();
        let stats = net.stats();
        out.push_str(&format!("{stats:?}\n"));
        let bandwidth = net.bandwidth();
        for i in 0..n {
            let id = NodeId(i);
            out.push_str(&format!("{} alive={}", i, net.is_alive(id)));
            if let Some(p) = net.node(id) {
                out.push_str(&format!(
                    " log={:?} downs={:?} timers={}",
                    p.log, p.downs, p.timers
                ));
            }
            if let Some(bw) = bandwidth.node(id) {
                out.push_str(&format!(" bw={:?}", bw));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:?}", net.link_clock_entries()));
        out
    }

    /// The scripted scenario: staggered joins, ring gossip with RNG-picked
    /// forwards, invoked bursts, mid-run fault profile swap, a partition
    /// window, same-boundary crashes, connects to dead peers.
    fn drive(net: &mut Network<Chat>, n: u32) -> String {
        for i in 0..n {
            let at = (i % 3 == 2).then(|| SimTime::from_millis(5 * i as u64));
            add(net, at, ring_peers(i, n));
        }
        net.run_until(SimTime::from_millis(100));
        invoke_send(net, NodeId(0), NodeId(n / 2), 4);
        invoke_send(net, NodeId(1), NodeId(n - 1), 5);
        net.run_until(SimTime::from_millis(200));
        net.set_link_faults(LinkFaults {
            loss_rate: 0.1,
            jitter: SimDuration::from_micros(300),
            latency_factor: 0.5,
        });
        invoke_send(net, NodeId(2), NodeId(0), 6);
        net.run_until(SimTime::from_millis(300));
        net.add_partition(PartitionSpec::new(
            vec![NodeId(1), NodeId(4)],
            SimTime::from_millis(300),
            SimTime::from_millis(450),
            PartitionMode::Drop,
        ));
        net.run_until(SimTime::from_millis(400));
        // Two same-boundary crashes, one of which the other's incoming
        // lists reference — application order must follow lane priority.
        net.crash(NodeId(3));
        net.crash(NodeId(n - 2));
        invoke_send(net, NodeId(0), NodeId(3), 2); // still alive until the boundary
        net.run_until(SimTime::from_millis(600));
        // A node that connects to the dead peers after the fact.
        add(net, None, vec![NodeId(3), NodeId(0)]);
        net.run_until(SimTime::from_millis(900));
        net.crash(NodeId(0));
        net.run_until(SimTime::from_millis(1200));
        fingerprint(net, n + 1)
    }

    fn config(scheduler: SchedulerKind) -> NetworkConfig {
        NetworkConfig {
            scheduler,
            ..NetworkConfig::default()
        }
    }

    fn sharded(cfg: NetworkConfig, shards: usize) -> Network<Chat> {
        Network::with_shards(cfg, Box::new(ClusterLatency::default()), shards)
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        for scheduler in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
            let n = 11;
            let mut seq: Network<Chat> =
                Network::new(config(scheduler), Box::new(ClusterLatency::default()));
            let expected = drive(&mut seq, n);
            for shards in [1, 2, 3, 4, 7] {
                let got = drive(&mut sharded(config(scheduler), shards), n);
                assert_eq!(
                    expected, got,
                    "sharded({shards}) diverged from sequential under {scheduler:?}"
                );
            }
        }
    }

    #[test]
    fn sharded_with_configured_faults_matches_sequential() {
        // Faults active from construction (loss + delay partition),
        // exercising the per-shard fault replicas from the first event.
        let faults = FaultConfig {
            link: LinkFaults {
                loss_rate: 0.15,
                latency_factor: 1.5,
                ..Default::default()
            },
            partitions: vec![PartitionSpec::new(
                vec![NodeId(2)],
                SimTime::from_millis(50),
                SimTime::from_millis(150),
                PartitionMode::Delay,
            )],
        };
        let cfg = NetworkConfig {
            faults,
            ..NetworkConfig::default()
        };
        let n = 9;
        let mut seq: Network<Chat> = Network::new(cfg.clone(), Box::new(ClusterLatency::default()));
        let expected = drive(&mut seq, n);
        for shards in [2, 5] {
            let got = drive(&mut sharded(cfg.clone(), shards), n);
            assert_eq!(expected, got, "shards={shards}");
        }
    }

    #[test]
    fn more_shards_than_nodes_is_fine() {
        let n = 3;
        let mut seq: Network<Chat> = Network::new(
            NetworkConfig::default(),
            Box::new(ClusterLatency::default()),
        );
        let expected = drive(&mut seq, n);
        assert_eq!(
            expected,
            drive(&mut sharded(NetworkConfig::default(), 16), n)
        );
    }

    #[test]
    #[should_panic(expected = "positive minimum latency")]
    fn zero_lookahead_model_is_refused() {
        // FixedLatency(0) has min_latency 0: only a single shard can
        // honour zero-delay cross-shard sends.
        let mut net: Network<Chat> = Network::with_shards(
            NetworkConfig::default(),
            Box::new(FixedLatency::new(SimDuration::ZERO)),
            2,
        );
        net.add_node(|_| Chat::new(vec![]));
        net.run_until(SimTime::from_secs(1));
    }

    #[test]
    fn zero_latency_runs_on_one_shard() {
        let mut net: Network<Chat> = Network::new(
            NetworkConfig::default(),
            Box::new(FixedLatency::new(SimDuration::ZERO)),
        );
        let a = net.add_node(|_| Chat::new(vec![]));
        let b = net.add_node(move |_| Chat::new(vec![a]));
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.node(a).unwrap().log[0], (b, 3, SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "scheduler traces")]
    fn event_traces_are_refused() {
        let cfg = NetworkConfig {
            trace_events: true,
            ..NetworkConfig::default()
        };
        let _net = sharded(cfg, 2);
    }

    #[test]
    fn merged_accessors_cover_all_nodes() {
        let mut net = sharded(NetworkConfig::default(), 3);
        for i in 0..7u32 {
            add(&mut net, None, ring_peers(i, 7));
        }
        net.run_until(SimTime::from_millis(500));
        assert_eq!(net.node_count(), 7);
        assert_eq!(net.alive_ids().len(), 7);
        let bw = net.bandwidth();
        assert_eq!(bw.iter().count(), 7);
        assert!(bw.total_uploaded() > 0);
        // No faults configured: every sent byte is either delivered or
        // dropped on a dead/unstarted destination (all messages 64 bytes).
        assert_eq!(
            bw.total_uploaded(),
            bw.total_downloaded() + net.stats().messages_dropped * 64
        );
        let fp = net.footprint();
        assert_eq!(fp.nodes, 7);
        assert!(fp.total_bytes() > 0);
        assert!(net.typical_latency(NodeId(0), NodeId(1)) > SimDuration::ZERO);
    }
}
