//! Replay harnesses for the two layers with a clean public seam: the
//! simulator's scheduler (a recorded push/pop trace through both queue
//! implementations) and the wire codec (a captured frame mix through
//! `WireCodec` encode and decode).

use crate::report::median;
use brisa::StackMsg;
use brisa_runtime::WireCodec;
use brisa_simnet::sched::{HeapScheduler, TimingWheel};
use brisa_simnet::{SimTime, TraceOp};
use std::hint::black_box;
use std::time::Instant;

/// Replay passes per measurement; the median pass is reported.
const PASSES: usize = 5;
/// Sweeps over the captured frames per wire-codec pass: a few thousand
/// frames take well under a millisecond.
const WIRE_SWEEPS: usize = 20;

fn replay_pass<Q>(
    trace: &[TraceOp],
    mut q: Q,
    push: impl Fn(&mut Q, SimTime),
    pop: impl Fn(&mut Q) -> bool,
) -> f64 {
    let start = Instant::now();
    for op in trace {
        match *op {
            TraceOp::Push(t) => push(&mut q, t),
            TraceOp::Pop => {
                black_box(pop(&mut q));
            }
        }
    }
    start.elapsed().as_nanos() as f64
}

fn schedulers_with<const W: usize>(trace: &[TraceOp]) -> (f64, f64) {
    let payload = [7u64; W];
    let ops = trace.len().max(1) as f64;
    let mut wheel = Vec::new();
    let mut heap = Vec::new();
    // Alternate the two queues so drift in host load hits both alike.
    for _ in 0..PASSES {
        wheel.push(
            replay_pass(
                trace,
                TimingWheel::<[u64; W]>::new(),
                |q, t| q.push(t, payload),
                |q| black_box(q.pop()).is_some(),
            ) / ops,
        );
        heap.push(
            replay_pass(
                trace,
                HeapScheduler::<[u64; W]>::new(),
                |q, t| q.push(t, payload),
                |q| black_box(q.pop()).is_some(),
            ) / ops,
        );
    }
    (median(&wheel), median(&heap))
}

/// Median nanoseconds per operation of the trace replayed through the
/// timing wheel and through the binary heap, `(wheel, heap)`. Entries carry
/// a payload of `record_bytes` (rounded up to whole words), the size of the
/// simulator's real in-queue event record.
pub fn schedulers(trace: &[TraceOp], record_bytes: usize) -> (f64, f64) {
    match record_bytes.div_ceil(8) {
        0..=4 => schedulers_with::<4>(trace),
        5 => schedulers_with::<5>(trace),
        6 => schedulers_with::<6>(trace),
        7 => schedulers_with::<7>(trace),
        8 => schedulers_with::<8>(trace),
        9..=10 => schedulers_with::<10>(trace),
        11..=12 => schedulers_with::<12>(trace),
        _ => schedulers_with::<16>(trace),
    }
}

/// Codec cost of a frame mix.
pub struct WireCost {
    /// Median nanoseconds to encode one frame.
    pub encode_ns: f64,
    /// Median nanoseconds to decode one frame.
    pub decode_ns: f64,
    /// Mean encoded frame size, length prefix included.
    pub bytes_per_frame: f64,
    /// Frames that failed to decode or decoded to a different message.
    pub mismatches: usize,
}

/// Replays `frames` through `WireCodec`: encode all, decode all, checking
/// that every frame round-trips.
pub fn wire(frames: &[StackMsg]) -> WireCost {
    let n = frames.len().max(1) as f64;
    let encoded: Vec<Vec<u8>> = frames.iter().map(|m| m.encode()).collect();
    let mismatches = frames
        .iter()
        .zip(&encoded)
        .filter(|(m, e)| StackMsg::decode(e).ok().as_ref() != Some(*m))
        .count();
    let bytes_per_frame = encoded.iter().map(Vec::len).sum::<usize>() as f64 / n;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut buf = Vec::with_capacity(64 * 1024);
    for _ in 0..PASSES {
        let start = Instant::now();
        for _ in 0..WIRE_SWEEPS {
            for m in frames {
                buf.clear();
                m.encode_into(&mut buf);
                black_box(&buf);
            }
        }
        enc.push(start.elapsed().as_nanos() as f64 / (n * WIRE_SWEEPS as f64));
        let start = Instant::now();
        for _ in 0..WIRE_SWEEPS {
            for e in &encoded {
                black_box(StackMsg::decode(black_box(e)).ok());
            }
        }
        dec.push(start.elapsed().as_nanos() as f64 / (n * WIRE_SWEEPS as f64));
    }
    WireCost {
        encode_ns: median(&enc),
        decode_ns: median(&dec),
        bytes_per_frame,
        mismatches,
    }
}
