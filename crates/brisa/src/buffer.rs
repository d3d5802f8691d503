//! Bounded buffer of recent stream messages.
//!
//! Parents keep a small window of recently relayed messages so that a child
//! that just recovered from a parent failure can ask for the ones it missed
//! (Section II-F: "nodes can compensate message loss during the parent
//! recovery process by directly asking its new found parent to send the
//! missing ones"). Recovery is fast, so the window stays small.
//!
//! A retransmission re-stamps the message with the *serving* node's position
//! metadata, so the only things worth keeping per message are its sequence
//! number and payload size. Entries are stored inline as `(seq,
//! payload_bytes)` pairs — 16 bytes each, no per-entry allocation — and
//! looked up by a contiguous scan. There is deliberately no second index: a
//! map would cost memory per entry on every node, and a ring keyed by
//! `seq % capacity` is not exact once inserts arrive out of order.

use std::collections::VecDeque;

/// A bounded FIFO of `(seq, payload_bytes)` entries in insertion order.
///
/// Eviction is by insertion order, not by sequence number: a full buffer
/// drops the entry inserted first, even if a later insert carried a lower
/// sequence number (an out-of-order delivery, e.g. a retransmitted gap).
#[derive(Debug, Clone)]
pub struct MessageBuffer {
    capacity: usize,
    entries: VecDeque<(u64, usize)>,
}

impl MessageBuffer {
    /// Creates a buffer holding at most `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        MessageBuffer {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
        }
    }

    /// Maximum number of messages retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the buffer holds no messages.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records message `seq` of `payload_bytes`, evicting the oldest entry
    /// if the buffer is full. A sequence number already present is ignored.
    pub fn insert(&mut self, seq: u64, payload_bytes: usize) {
        if self.get(seq).is_some() {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((seq, payload_bytes));
    }

    /// Payload size of buffered message `seq`, if still retained.
    pub fn get(&self, seq: u64) -> Option<usize> {
        self.entries
            .iter()
            .find(|&&(s, _)| s == seq)
            .map(|&(_, bytes)| bytes)
    }

    /// All buffered `(seq, payload_bytes)` entries with sequence numbers in
    /// `[from, to]` (inclusive), in ascending sequence order.
    pub fn range(&self, from: u64, to: u64) -> Vec<(u64, usize)> {
        let mut found: Vec<(u64, usize)> = self
            .entries
            .iter()
            .copied()
            .filter(|&(s, _)| s >= from && s <= to)
            .collect();
        found.sort_unstable_by_key(|&(s, _)| s);
        found
    }

    /// The buffered entry with the highest sequence number, if any.
    pub fn latest(&self) -> Option<(u64, usize)> {
        self.entries.iter().copied().max_by_key(|&(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn insert_get_and_capacity_eviction() {
        let mut b = MessageBuffer::new(3);
        assert!(b.is_empty());
        for s in 0..5 {
            b.insert(s, 100);
        }
        assert_eq!(b.len(), 3);
        assert!(b.get(0).is_none(), "oldest evicted");
        assert!(b.get(1).is_none());
        assert!(b.get(2).is_some());
        assert_eq!(b.latest().map(|(s, _)| s), Some(4));
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn duplicate_sequence_numbers_are_ignored() {
        let mut b = MessageBuffer::new(4);
        b.insert(1, 100);
        b.insert(1, 100);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn range_returns_sorted_window() {
        let mut b = MessageBuffer::new(10);
        for s in [5u64, 3, 9, 7, 4] {
            b.insert(s, 100);
        }
        let r = b.range(4, 7);
        let seqs: Vec<u64> = r.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![4, 5, 7]);
        assert!(b.range(100, 200).is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut b = MessageBuffer::new(0);
        b.insert(0, 100);
        assert_eq!(b.len(), 1);
        b.insert(1, 100);
        assert_eq!(b.len(), 1);
        assert_eq!(b.latest().map(|(s, _)| s), Some(1));
    }

    #[test]
    fn eviction_follows_insertion_order_not_sequence_order() {
        let mut b = MessageBuffer::new(3);
        for s in [10, 11, 2, 12] {
            b.insert(s, s as usize);
        }
        let kept: Vec<u64> = b.range(0, u64::MAX).iter().map(|&(s, _)| s).collect();
        assert_eq!(kept, vec![2, 11, 12], "10 was inserted first, so it goes");
        assert_eq!(b.get(2), Some(2));
        assert_eq!(b.latest(), Some((12, 12)));
    }

    /// The semantics the buffer had when it held whole messages: a `Vec`
    /// FIFO that scans for a duplicate on insert and drops its front when
    /// full.
    struct Reference {
        capacity: usize,
        entries: Vec<(u64, usize)>,
    }

    impl Reference {
        fn insert(&mut self, seq: u64, bytes: usize) {
            if self.entries.iter().any(|&(s, _)| s == seq) {
                return;
            }
            if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((seq, bytes));
        }

        fn get(&self, seq: u64) -> Option<usize> {
            self.entries.iter().find(|e| e.0 == seq).map(|e| e.1)
        }

        fn range(&self, from: u64, to: u64) -> Vec<(u64, usize)> {
            let mut found: Vec<(u64, usize)> = self
                .entries
                .iter()
                .copied()
                .filter(|e| e.0 >= from && e.0 <= to)
                .collect();
            found.sort_by_key(|e| e.0);
            found
        }

        fn latest(&self) -> Option<(u64, usize)> {
            let high = self.entries.iter().map(|e| e.0).max()?;
            self.get(high).map(|bytes| (high, bytes))
        }
    }

    #[test]
    fn matches_reference_model_on_random_operation_sequences() {
        for capacity in 1..=8 {
            for seed in 0..25u64 {
                let mut rng = SmallRng::seed_from_u64(seed * 31 + capacity as u64);
                let mut b = MessageBuffer::new(capacity);
                let mut r = Reference {
                    capacity,
                    entries: Vec::new(),
                };
                // A mostly increasing stream with out-of-order and repeated
                // sequence numbers mixed in.
                let mut next = 0u64;
                for step in 0..200 {
                    let seq = match rng.gen_range(0..4u32) {
                        0 => next.saturating_sub(rng.gen_range(0..12u64)),
                        1 => rng.gen_range(0..next + 1),
                        _ => {
                            next += 1;
                            next
                        }
                    };
                    let ctx = format!("capacity {capacity}, seed {seed}, step {step}");
                    match rng.gen_range(0..5u32) {
                        0 | 1 => {
                            let bytes = rng.gen_range(1..2000usize);
                            b.insert(seq, bytes);
                            r.insert(seq, bytes);
                        }
                        2 => assert_eq!(b.get(seq), r.get(seq), "get: {ctx}"),
                        3 => {
                            let to = seq + rng.gen_range(0..10u64);
                            assert_eq!(b.range(seq, to), r.range(seq, to), "range: {ctx}");
                        }
                        _ => assert_eq!(b.latest(), r.latest(), "latest: {ctx}"),
                    }
                    assert_eq!(b.len(), r.entries.len(), "len: {ctx}");
                }
            }
        }
    }
}
