//! Per-node bandwidth accounting.
//!
//! Every message handed to the simulator carries a wire size; the meter
//! attributes those bytes to the sender's upload and (at delivery time) the
//! receiver's download. Bytes are also bucketed per simulated second so
//! experiments can compute KB/s distributions over a measurement window, as
//! in Figures 10–12 of the paper.

use crate::node::NodeId;
use crate::time::SimTime;

/// Direction of a transfer, from the point of view of the accounted node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bytes sent by the node.
    Upload,
    /// Bytes received by the node.
    Download,
}

/// How much bandwidth history the meter retains per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeterMode {
    /// Totals plus one bucket per simulated second and direction — the data
    /// behind the per-phase KB/s figures (Figures 10–12). Costs
    /// `16 bytes × simulated seconds` per node.
    #[default]
    PerSecond,
    /// Totals only. Scale-mode runs select this: at 100 000 nodes the
    /// per-second buckets would dominate the simulation's memory while the
    /// streaming result path never reads them.
    TotalsOnly,
}

/// Byte counters for a single node.
#[derive(Debug, Clone, Default)]
pub struct NodeBandwidth {
    /// Total bytes uploaded since the node was created.
    pub upload_total: u64,
    /// Total bytes downloaded since the node was created.
    pub download_total: u64,
    /// Bytes uploaded per one-second bucket.
    pub upload_per_sec: Vec<u64>,
    /// Bytes downloaded per one-second bucket.
    pub download_per_sec: Vec<u64>,
}

impl NodeBandwidth {
    fn record(&mut self, dir: Direction, bytes: usize, at: SimTime, mode: MeterMode) {
        let (total, per_sec) = match dir {
            Direction::Upload => (&mut self.upload_total, &mut self.upload_per_sec),
            Direction::Download => (&mut self.download_total, &mut self.download_per_sec),
        };
        *total += bytes as u64;
        if mode == MeterMode::PerSecond {
            let bucket = at.second_bucket();
            if per_sec.len() <= bucket {
                per_sec.resize(bucket + 1, 0);
            }
            per_sec[bucket] += bytes as u64;
        }
    }

    /// Average upload rate in KB/s over the window `[from, to)` (seconds).
    pub fn upload_kbps(&self, from_sec: usize, to_sec: usize) -> f64 {
        rate_kbps(&self.upload_per_sec, from_sec, to_sec)
    }

    /// Average download rate in KB/s over the window `[from, to)` (seconds).
    pub fn download_kbps(&self, from_sec: usize, to_sec: usize) -> f64 {
        rate_kbps(&self.download_per_sec, from_sec, to_sec)
    }

    /// Total bytes (up + down).
    pub fn total(&self) -> u64 {
        self.upload_total + self.download_total
    }
}

fn rate_kbps(buckets: &[u64], from_sec: usize, to_sec: usize) -> f64 {
    if to_sec <= from_sec {
        return 0.0;
    }
    let to = to_sec.min(buckets.len());
    let sum: u64 = if from_sec < to {
        buckets[from_sec..to].iter().sum()
    } else {
        0
    };
    sum as f64 / 1024.0 / (to_sec - from_sec) as f64
}

/// Bandwidth meter covering all nodes of a simulation.
#[derive(Debug, Default, Clone)]
pub struct BandwidthMeter {
    nodes: Vec<NodeBandwidth>,
    mode: MeterMode,
}

impl BandwidthMeter {
    /// Creates an empty meter with per-second bucketing.
    pub fn new() -> Self {
        Self::with_mode(MeterMode::PerSecond)
    }

    /// Creates an empty meter with the given retention mode.
    pub fn with_mode(mode: MeterMode) -> Self {
        BandwidthMeter {
            nodes: Vec::new(),
            mode,
        }
    }

    /// The retention mode in force.
    pub fn mode(&self) -> MeterMode {
        self.mode
    }

    /// Ensures the meter covers `id`.
    pub(crate) fn ensure(&mut self, id: NodeId) {
        if self.nodes.len() <= id.index() {
            self.nodes
                .resize_with(id.index() + 1, NodeBandwidth::default);
        }
    }

    /// Records a transfer for `id`.
    pub(crate) fn record(&mut self, id: NodeId, dir: Direction, bytes: usize, at: SimTime) {
        self.ensure(id);
        let mode = self.mode;
        self.nodes[id.index()].record(dir, bytes, at, mode);
    }

    /// Bytes of memory the meter occupies (capacities, not lengths).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.nodes.capacity() * std::mem::size_of::<NodeBandwidth>()
            + self
                .nodes
                .iter()
                .map(|n| {
                    (n.upload_per_sec.capacity() + n.download_per_sec.capacity())
                        * std::mem::size_of::<u64>()
                })
                .sum::<usize>()
    }

    /// Folds `other` into `self`, summing per-node counters element-wise.
    /// Used by the network to merge per-shard meters at collect
    /// time; each node is recorded on exactly one shard (uploads on the
    /// sender's, downloads on the destination's — both its owner), so the
    /// merge is a disjoint union in practice.
    pub(crate) fn absorb(&mut self, other: &BandwidthMeter) {
        if self.nodes.len() < other.nodes.len() {
            self.nodes
                .resize_with(other.nodes.len(), NodeBandwidth::default);
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(other.nodes.iter()) {
            mine.upload_total += theirs.upload_total;
            mine.download_total += theirs.download_total;
            for (per_sec, other_sec) in [
                (&mut mine.upload_per_sec, &theirs.upload_per_sec),
                (&mut mine.download_per_sec, &theirs.download_per_sec),
            ] {
                if per_sec.len() < other_sec.len() {
                    per_sec.resize(other_sec.len(), 0);
                }
                for (bucket, add) in per_sec.iter_mut().zip(other_sec.iter()) {
                    *bucket += add;
                }
            }
        }
    }

    /// Counters for a node, if it has ever been registered.
    pub fn node(&self, id: NodeId) -> Option<&NodeBandwidth> {
        self.nodes.get(id.index())
    }

    /// Iterates over `(NodeId, counters)` for all registered nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeBandwidth)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, b)| (NodeId(i as u32), b))
    }

    /// Sum of bytes transferred (counting each message once, on the upload
    /// side) across all nodes.
    pub fn total_uploaded(&self) -> u64 {
        self.nodes.iter().map(|n| n.upload_total).sum()
    }

    /// Sum of bytes received across all nodes.
    pub fn total_downloaded(&self) -> u64 {
        self.nodes.iter().map(|n| n.download_total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_totals_and_buckets() {
        let mut m = BandwidthMeter::new();
        m.record(
            NodeId(2),
            Direction::Upload,
            1000,
            SimTime::from_millis(500),
        );
        m.record(
            NodeId(2),
            Direction::Upload,
            500,
            SimTime::from_millis(1500),
        );
        m.record(
            NodeId(2),
            Direction::Download,
            200,
            SimTime::from_millis(2500),
        );
        let n = m.node(NodeId(2)).unwrap();
        assert_eq!(n.upload_total, 1500);
        assert_eq!(n.download_total, 200);
        assert_eq!(n.upload_per_sec, vec![1000, 500]);
        assert_eq!(n.download_per_sec, vec![0, 0, 200]);
        assert_eq!(m.total_uploaded(), 1500);
        assert_eq!(m.total_downloaded(), 200);
    }

    #[test]
    fn totals_only_skips_buckets() {
        let mut m = BandwidthMeter::with_mode(MeterMode::TotalsOnly);
        assert_eq!(m.mode(), MeterMode::TotalsOnly);
        m.record(NodeId(0), Direction::Upload, 100, SimTime::from_secs(5));
        m.record(NodeId(0), Direction::Download, 70, SimTime::from_secs(9));
        let n = m.node(NodeId(0)).unwrap();
        assert_eq!(n.upload_total, 100);
        assert_eq!(n.download_total, 70);
        assert!(n.upload_per_sec.is_empty());
        assert!(n.download_per_sec.is_empty());
        // The footprint estimate covers the node slots but no buckets.
        assert!(m.approx_bytes() >= std::mem::size_of::<NodeBandwidth>());
    }

    #[test]
    fn unknown_node_has_no_counters() {
        let m = BandwidthMeter::new();
        assert!(m.node(NodeId(3)).is_none());
    }

    #[test]
    fn rate_over_window() {
        let mut m = BandwidthMeter::new();
        // 2048 bytes per second for 4 seconds.
        for s in 0..4u64 {
            m.record(
                NodeId(0),
                Direction::Upload,
                2048,
                SimTime::from_secs(s) + crate::time::SimDuration::from_millis(10),
            );
        }
        let n = m.node(NodeId(0)).unwrap();
        assert!((n.upload_kbps(0, 4) - 2.0).abs() < 1e-9);
        // Window extending past recorded data averages over the full window.
        assert!((n.upload_kbps(0, 8) - 1.0).abs() < 1e-9);
        // Empty / inverted windows.
        assert_eq!(n.upload_kbps(4, 4), 0.0);
        assert_eq!(n.upload_kbps(5, 4), 0.0);
        assert_eq!(n.download_kbps(0, 4), 0.0);
    }

    #[test]
    fn iter_covers_all_registered() {
        let mut m = BandwidthMeter::new();
        m.record(NodeId(0), Direction::Upload, 1, SimTime::ZERO);
        m.record(NodeId(3), Direction::Download, 2, SimTime::ZERO);
        let ids: Vec<u32> = m.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(m.node(NodeId(1)).unwrap().total(), 0);
    }
}
