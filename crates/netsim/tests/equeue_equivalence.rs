//! Pins the calendar-queue event engine against the ordering of the
//! `BinaryHeap<Reverse<(at, seq)>>` it replaced: on a randomized schedule
//! of interleaved inserts and pops, both structures must yield the exact
//! same (time, seq, payload) sequence. This is the contract that makes the
//! engine swap invisible to seeded runs.

use dcp_netsim::EventQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The exact shape the simulator used before the calendar queue.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug, Clone, Copy)]
struct Scheduled {
    at: u64,
    seq: u64,
    item: u32,
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The queue under test and the model, driven in lock-step: every insert
/// goes to both, every pop must come out of both identically.
struct Lockstep {
    model: BinaryHeap<Reverse<Scheduled>>,
    queue: EventQueue<u32>,
    /// Time of the last pop; inserts never precede it (as in the simulator).
    now: u64,
    seq: u64,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep { model: BinaryHeap::new(), queue: EventQueue::new(), now: 0, seq: 0 }
    }

    fn insert(&mut self, delta: u64, item: u32) {
        self.seq += 1;
        let s = Scheduled { at: self.now + delta, seq: self.seq, item };
        self.model.push(Reverse(s));
        self.queue.insert(s.at, s.seq, s.item);
        assert_eq!(self.model.len(), self.queue.len());
    }

    /// Pops both and returns the popped entry's payload; `None` once the
    /// model is empty.
    fn pop(&mut self, op: usize) -> Option<u32> {
        let Some(Reverse(want)) = self.model.pop() else {
            assert!(self.queue.pop().is_none(), "queue outlived the model");
            return None;
        };
        let got = self.queue.pop().expect("queue drained before the model");
        assert_eq!((want.at, want.seq, want.item), got, "divergence at op {op}");
        assert!(want.at >= self.now, "model produced an event in the past");
        self.now = want.at;
        assert_eq!(self.model.len(), self.queue.len());
        Some(want.item)
    }

    /// Peeks both: `next_at` may rotate the queue's wheel up to the next
    /// entry, far past the last pop.
    fn peek(&mut self) {
        assert_eq!(self.model.peek().map(|Reverse(s)| s.at), self.queue.next_at());
    }

    fn drain(&mut self) {
        while self.pop(usize::MAX).is_some() {}
    }

    /// The queue's current bucket width in ns.
    fn width(&self) -> u64 {
        1 << self.queue.width_log2()
    }
}

#[test]
fn matches_old_heap_on_randomized_schedule() {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut ls = Lockstep::new();
    for op in 0..20_000 {
        // Bias toward inserts early, pops late, with occasional bursts.
        let roll = rng.next() % 100;
        let inserting = if op < 12_000 { roll < 65 } else { roll < 35 };
        if inserting || ls.model.is_empty() {
            // Mix near-future (wheel), same-instant (ties resolved by seq)
            // and far-future (overflow heap) times.
            let delta = match rng.next() % 10 {
                0 => 0,
                1..=6 => rng.next() % 1_000_000,
                7 | 8 => rng.next() % 50_000_000,
                _ => 200_000_000 + rng.next() % 1_000_000_000,
            };
            ls.insert(delta, (rng.next() & 0xffff_ffff) as u32);
        } else {
            ls.pop(op);
        }
    }
    ls.drain();
}

/// Packet-hop traffic: between pops, bursts of inserts land at
/// `now + [0, width)` — inside the current bucket or the next one — so most
/// inserts take the current bucket's sorted-insert path, at every position
/// (same instant as the last pop, mid-window, window end).
#[test]
fn matches_old_heap_on_dense_current_window_schedule() {
    let mut rng = XorShift(0x243f_6a88_85a3_08d3);
    let mut ls = Lockstep::new();
    for op in 0..30_000 {
        for _ in 0..rng.next() % 7 {
            let delta = match rng.next() % 8 {
                0 => 0,
                1 => ls.width() - 1,
                _ => rng.next() % ls.width(),
            };
            ls.insert(delta, op as u32);
        }
        // A thin tail of far timers keeps the wheel and overflow populated.
        if rng.next().is_multiple_of(50) {
            ls.insert(1_000_000 + rng.next() % 10_000_000, op as u32);
        }
        for _ in 0..rng.next() % 6 {
            ls.pop(op);
        }
    }
    ls.drain();
}

/// Inserts that follow a peek: with nothing left near the clock, `next_at`
/// moves the wheel to the next entry — within the horizon, or past it via
/// overflow — and the caller then schedules from its own clock, before the
/// window the peek moved to. The queue must take the wheel back without
/// reordering anything.
#[test]
fn matches_old_heap_when_inserts_follow_a_far_peek() {
    let mut rng = XorShift(0xa409_3822_299f_31d0);
    let mut ls = Lockstep::new();
    for round in 0..2_000u32 {
        let far = if rng.next().is_multiple_of(2) {
            20_000 + rng.next() % 500_000
        } else {
            2_000_000 + rng.next() % 20_000_000
        };
        ls.insert(far, round);
        while ls.model.peek().is_some_and(|Reverse(s)| s.at < ls.now + 10_000) {
            ls.pop(round as usize);
        }
        ls.peek();
        for _ in 0..1 + rng.next() % 40 {
            ls.insert(rng.next() % 8_000, round);
        }
        for _ in 0..rng.next() % 20 {
            ls.pop(round as usize);
        }
    }
    ls.drain();
}

/// Width adaptation with a populated current bucket: a dense phase (~100
/// entries per µs, plus current-window inserts between pops) halves the
/// width while the rotated bucket holds far more entries than the new
/// window covers, then a sparse phase (about one entry per 1.5 bucket
/// widths, with current-window inserts still interleaved) doubles it back.
/// Each change re-buckets the current bucket's entries mid-run.
#[test]
fn matches_old_heap_across_width_shrink_and_grow() {
    let mut rng = XorShift(0x1319_8a2e_0370_7344);
    let mut ls = Lockstep::new();
    let start = ls.queue.width_log2();
    for i in 0..30_000u64 {
        ls.insert(i * 10 + rng.next() % 10, i as u32);
    }
    let mut op = 0;
    while ls.queue.len() > 2_000 {
        ls.pop(op);
        if rng.next().is_multiple_of(4) {
            ls.insert(rng.next() % ls.width(), op as u32);
        }
        op += 1;
    }
    let shrunk = ls.queue.width_log2();
    assert!(shrunk < start, "dense phase must shrink the width (still {shrunk})");
    ls.drain();
    // Sparse phase: a standing population spaced ~1.5 widths apart, each
    // member rescheduling itself one population-span ahead when popped.
    // Current-window extras (payload `EXTRA`) are not rescheduled.
    const EXTRA: u32 = u32::MAX;
    let span = 64 * 3 * ls.width() / 2;
    for k in 0..64 {
        ls.insert(k * span / 64, k as u32);
    }
    for _ in 0..60_000 {
        if ls.pop(op) != Some(EXTRA) {
            ls.insert(span + rng.next() % 16, op as u32);
        }
        if rng.next().is_multiple_of(8) {
            ls.insert(rng.next() % ls.width(), EXTRA);
        }
        op += 1;
    }
    assert!(
        ls.queue.width_log2() > shrunk,
        "sparse phase must grow the width back (still {})",
        ls.queue.width_log2()
    );
    ls.drain();
}

/// Not a correctness test: times both structures on an identical,
/// simulator-like schedule (link-delay events ~1 µs out, a tail of
/// RTO-class timers far out, working set ~1–2 k). Run manually with
/// `cargo test -p dcp-netsim --test equeue_equivalence -- --ignored --nocapture`.
#[test]
#[ignore]
fn timing_vs_old_heap() {
    const OPS: usize = 4_000_000;
    fn drive<Q>(
        mut insert: impl FnMut(&mut Q, u64, u64),
        mut pop: impl FnMut(&mut Q) -> Option<u64>,
        q: &mut Q,
    ) -> u64 {
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut acc = 0u64;
        // Seed a standing population.
        for _ in 0..1_500 {
            seq += 1;
            insert(q, now + rng.next() % 2_000_000, seq);
        }
        for _ in 0..OPS {
            let at = q_pop(&mut pop, q, &mut acc, &mut now);
            // Each popped event schedules 1 follow-up (steady state), mostly
            // a ~1 µs link hop, sometimes a far-future timer.
            let delta = if rng.next() % 100 < 95 {
                500 + rng.next() % 2_000
            } else {
                100_000_000 + rng.next() % 100_000_000
            };
            seq += 1;
            insert(q, at + delta, seq);
        }
        acc ^ now
    }
    fn q_pop<Q>(
        pop: &mut impl FnMut(&mut Q) -> Option<u64>,
        q: &mut Q,
        acc: &mut u64,
        now: &mut u64,
    ) -> u64 {
        let at = pop(q).unwrap();
        *acc = acc.wrapping_add(at);
        *now = at;
        at
    }

    use std::time::Instant;
    for round in 0..3 {
        let t0 = Instant::now();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let h_acc = drive(
            |q, at, seq| q.push(Reverse((at, seq))),
            |q| q.pop().map(|Reverse((at, _))| at),
            &mut heap,
        );
        let t_heap = t0.elapsed();
        let t1 = Instant::now();
        let mut eq: EventQueue<()> = EventQueue::new();
        let e_acc =
            drive(|q, at, seq| q.insert(at, seq, ()), |q| q.pop().map(|(at, _, _)| at), &mut eq);
        let t_eq = t1.elapsed();
        assert_eq!(h_acc, e_acc, "both structures must visit the same schedule");
        println!(
            "round {round}: old heap {:>7.1} ns/op, calendar {:>7.1} ns/op ({:+.1}%)",
            t_heap.as_nanos() as f64 / OPS as f64,
            t_eq.as_nanos() as f64 / OPS as f64,
            (t_eq.as_secs_f64() / t_heap.as_secs_f64() - 1.0) * 100.0
        );
    }
}
