//! Live execution of a sans-IO [`Protocol`] in wall-clock time.
//!
//! This module keeps the pieces every live component shares — the
//! cluster-wide [`WallClock`], the per-node [`RuntimeStats`] counters and
//! the [`InvokeFn`] callback type. Nodes run on a
//! [`ReactorPool`](crate::ReactorPool); clusters share one pool across all
//! their nodes (see [`Cluster`](crate::Cluster)), and a test or small tool
//! that wants nodes without a cluster starts them on a one-worker pool.
//!
//! The execution model itself (callback dispatch, the merged timer heap,
//! command translation to the [`Transport`](crate::Transport)) lives in
//! [`reactor`](crate::reactor); the semantics match the simulator's:
//! `SetTimer` deadlines fire in `(deadline, insertion-seq)` order, RNGs
//! derive from `split_mix64(seed, node)`, and [`Context::now`] reports
//! microseconds of wall clock since the shared epoch so `SimTime`-stamped
//! telemetry is directly comparable between a simulated run and a live
//! one.

use brisa_simnet::{Context, Protocol, SimTime};
use std::time::{Duration, Instant};

/// A monotonic wall clock shared by every node of a cluster; `now()` is the
/// live counterpart of the simulator's global clock.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Microseconds of wall time since the epoch, as the simulator's time
    /// type.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// The wall-clock [`Instant`] corresponding to cluster time `t` — the
    /// inverse of [`WallClock::now`]. Lets schedules expressed in the
    /// simulator's time type (partition heal instants, chaos events) be
    /// replayed against real deadlines.
    pub fn instant_at(&self, t: SimTime) -> Instant {
        self.epoch + Duration::from_micros(t.as_micros())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Byte/frame counters one node accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeStats {
    /// Frames decoded and dispatched to `on_message`.
    pub frames_in: u64,
    /// Bytes of those frames (length prefix included).
    pub bytes_in: u64,
    /// Frames encoded and handed to the transport.
    pub frames_out: u64,
    /// Bytes of those frames.
    pub bytes_out: u64,
    /// Frames that failed to decode (dropped; a live system would count
    /// and alert on these).
    pub decode_errors: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Idle unmonitored outbound links closed by the reap sweep.
    pub links_reaped: u64,
    /// Scheduled backoff re-dials that actually fired for this node's
    /// outbound links.
    pub redials: u64,
}

/// A boxed protocol callback queued through
/// [`ReactorPool::invoke`](crate::reactor::ReactorPool::invoke).
pub type InvokeFn<P> = Box<dyn FnOnce(&mut P, &mut Context<'_, <P as Protocol>::Message>) + Send>;
