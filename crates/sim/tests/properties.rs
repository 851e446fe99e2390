//! Property-based tests of the simulation kernel.

use gr_sim::{Scheduler, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of one [`EventQueue`] insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EventId(u64);

/// The pre-timing-wheel event queue: a binary min-heap keyed by
/// `(time, insertion sequence)`, so equal timestamps pop in insertion
/// order. The sequence is unique, so the payload never takes part in the
/// ordering.
struct EventQueue<E: Ord> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    next_seq: u64,
}

impl<E: Ord> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq, event)));
        EventId(seq)
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.heap
            .pop()
            .map(|Reverse((time, seq, event))| (time, EventId(seq), event))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Maps raw fuzz input onto delay magnitudes that exercise every wheel
/// path: sub-tick ties, level-0 buckets, upper levels, and (≈1 in 8)
/// delays past the wheel horizon that must detour through the overflow
/// heap.
fn shaped_nanos(raw: u64, shape: u8) -> u64 {
    match shape % 8 {
        0 | 1 => raw % 2_048,                             // within 1-2 ticks
        2 | 3 => raw % 5_000_000,                         // a few ms: levels 0-1
        4 | 5 => raw % 500_000_000,                       // sub-second: mid levels
        6 => raw % 60_000_000_000,                        // a minute: top level
        _ => 1_200_000_000_000 + raw % 1_200_000_000_000, // past wheel span
    }
}

/// The pre-timing-wheel scheduler semantics, verbatim: a stable binary
/// heap plus a lazy cancelled-id set. Property tests replay every
/// operation against this reference model.
struct HeapReference {
    queue: EventQueue<usize>,
    cancelled: std::collections::HashSet<EventId>,
}

impl HeapReference {
    fn new() -> Self {
        HeapReference {
            queue: EventQueue::new(),
            cancelled: std::collections::HashSet::new(),
        }
    }

    fn push(&mut self, at: SimTime, payload: usize) -> EventId {
        self.queue.push(at, payload)
    }

    fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id);
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        while let Some((t, id, e)) = self.queue.pop() {
            if self.cancelled.remove(&id) {
                continue;
            }
            return Some((t, e));
        }
        None
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, and equal
    /// timestamps pop in insertion order (stability).
    #[test]
    fn queue_pops_sorted_and_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, _, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(idx > lidx, "stability violated");
                }
            }
            last = Some((t, idx));
        }
    }

    /// The queue returns exactly the elements inserted.
    #[test]
    fn queue_conserves_events(times in proptest::collection::vec(0u64..1_000, 0..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(SimTime::from_micros(t), t);
        }
        prop_assert_eq!(q.len(), times.len());
        let mut popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        popped.sort_unstable();
        let mut expected = times.clone();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// Cancelled events never fire; everything else does.
    #[test]
    fn scheduler_cancellation(
        times in proptest::collection::vec(1u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut s: Scheduler<usize> = Scheduler::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| s.arm_at(SimTime::from_micros(t), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(h.cancel(&mut s), "pending event must cancel");
            } else {
                expected.push(i);
            }
        }
        prop_assert_eq!(s.pending(), expected.len());
        let mut fired: Vec<usize> = std::iter::from_fn(|| s.next().map(|(_, e)| e)).collect();
        fired.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(fired, expected);
    }

    /// The clock never runs backwards.
    #[test]
    fn scheduler_clock_monotone(times in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut s: Scheduler<()> = Scheduler::new();
        for &t in &times {
            s.arm_at(SimTime::from_micros(t), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, ())) = s.next() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// The timing-wheel scheduler dispatches random schedules — spanning
    /// level-0 ticks, upper wheel levels, and the overflow horizon — in
    /// exactly the order of the old stable binary-heap [`EventQueue`],
    /// including insertion-order ties at equal timestamps.
    #[test]
    fn wheel_matches_heap_on_random_schedules(
        raw in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..200),
    ) {
        let mut s: Scheduler<usize> = Scheduler::new();
        let mut q = EventQueue::new();
        for (i, &(r, shape)) in raw.iter().enumerate() {
            let at = SimTime::from_nanos(shaped_nanos(r, shape));
            s.arm_at(at, i);
            q.push(at, i);
        }
        let fired: Vec<_> = std::iter::from_fn(|| s.next()).collect();
        let expected: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, _, e)| (t, e))).collect();
        prop_assert_eq!(fired, expected);
    }

    /// Same equivalence under interleaved arm / cancel / rearm / dispatch:
    /// the wheel agrees with the heap-plus-lazy-cancellation reference at
    /// every intermediate pop, not just on the final drain.
    #[test]
    fn wheel_matches_heap_under_cancel_rearm_interleaving(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 1..300),
    ) {
        let mut s: Scheduler<usize> = Scheduler::new();
        let mut reference = HeapReference::new();
        // Live (wheel handle, reference id) pairs, index-aligned.
        let mut live: Vec<(gr_sim::TimerHandle, EventId)> = Vec::new();
        let mut next_payload = 0usize;
        for &(op, r, shape) in &ops {
            match op % 4 {
                // Arm a fresh event (relative to the shared clock).
                0 | 1 => {
                    let d = SimDuration::from_nanos(shaped_nanos(r, shape));
                    let at = s.now() + d;
                    let h = s.arm(d, next_payload);
                    let id = reference.push(at, next_payload);
                    live.push((h, id));
                    next_payload += 1;
                }
                // Cancel or rearm a random live event.
                2 => {
                    if live.is_empty() {
                        continue;
                    }
                    let (h, id) = live.swap_remove(r as usize % live.len());
                    if shape % 2 == 0 {
                        h.cancel(&mut s);
                        reference.cancel(id);
                    } else {
                        let d = SimDuration::from_nanos(shaped_nanos(r, shape) / 2);
                        let at = s.now() + d;
                        let h2 = h.rearm(&mut s, d, next_payload);
                        reference.cancel(id);
                        let id2 = reference.push(at, next_payload);
                        live.push((h2, id2));
                        next_payload += 1;
                    }
                }
                // Dispatch one event from both and compare.
                _ => {
                    prop_assert_eq!(s.next(), reference.pop());
                }
            }
        }
        // Drain whatever is left; the tails must match exactly too.
        loop {
            let got = s.next();
            prop_assert_eq!(got, reference.pop());
            if got.is_none() {
                break;
            }
        }
    }

    /// Heavy timestamp collisions: events armed at only a handful of
    /// distinct times must still fire grouped by time in arm order.
    #[test]
    fn wheel_preserves_fifo_under_heavy_ties(
        picks in proptest::collection::vec(any::<u8>(), 1..200),
        base in 0u64..1_000_000,
    ) {
        let times = [base, base + 1, base + 512, base + 100_000];
        let mut s: Scheduler<usize> = Scheduler::new();
        let mut q = EventQueue::new();
        for (i, &p) in picks.iter().enumerate() {
            let at = SimTime::from_nanos(times[p as usize % times.len()]);
            s.arm_at(at, i);
            q.push(at, i);
        }
        let fired: Vec<_> = std::iter::from_fn(|| s.next()).collect();
        let expected: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, _, e)| (t, e))).collect();
        prop_assert_eq!(fired, expected);
    }

    /// Cursor-jump-on-idle across an overflow migration boundary: when
    /// the wheel drains while far-future events wait in the overflow
    /// heap, the cursor must jump straight to them — and when the jump
    /// target's 64^5-tick block excludes part of the cluster, the
    /// excluded events must keep waiting in the heap (not bounce between
    /// heap and wheel) and still fire in exact heap order. The far
    /// cluster straddles a block boundary several wheel spans past the
    /// near events to force both sides of the XOR placement test after
    /// the jump.
    #[test]
    fn wheel_cursor_jump_on_idle_across_overflow_boundary(
        near in proptest::collection::vec(0u64..1_000_000, 0..20),
        offsets in proptest::collection::vec(0u64..4_000_000_000, 1..40),
        peek in any::<bool>(),
    ) {
        // One wheel block: 64^5 ticks of 2^10 ns = 2^40 ns (~18 min).
        const BLOCK_NS: u64 = 1u64 << 40;
        let mut s: Scheduler<usize> = Scheduler::new();
        let mut q = EventQueue::new();
        let mut payload = 0usize;
        for &t in &near {
            let at = SimTime::from_nanos(t);
            s.arm_at(at, payload);
            q.push(at, payload);
            payload += 1;
        }
        for &off in &offsets {
            let at = SimTime::from_nanos(3 * BLOCK_NS - 2_000_000_000 + off);
            s.arm_at(at, payload);
            q.push(at, payload);
            payload += 1;
        }
        if peek {
            // Peeking while the wheel is otherwise idle performs the
            // cursor jump without dispatching anything.
            prop_assert!(s.peek_time().is_some());
        }
        let fired: Vec<_> = std::iter::from_fn(|| s.next()).collect();
        let expected: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, _, e)| (t, e))).collect();
        prop_assert_eq!(fired, expected);
    }

    /// Backoff-style draws stay within their inclusive bound.
    #[test]
    fn rng_uniform_inclusive_in_bounds(seed in any::<u64>(), bound in 0u32..100_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.uniform_u32_inclusive(bound) <= bound);
        }
    }

    /// Identical seeds give identical streams; forks labelled differently
    /// diverge.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut fa = a.fork(1);
        let mut fb = b.fork(2);
        // (a and b were in the same state, so differing labels must
        // produce differing streams with overwhelming probability.)
        let same = (0..32).all(|_| fa.next_u64() == fb.next_u64());
        prop_assert!(!same);
    }

    /// Time arithmetic: (t + d) - t == d for in-range values.
    #[test]
    fn time_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let base = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((base + dur) - base, dur);
    }

    /// [`gr_sim::Arena`] against a `HashMap` reference model under random
    /// insert/remove/lookup interleavings: live handles always resolve to
    /// their value, removed handles stay stale forever — even after their
    /// slot is reused by a later insert — and the live count matches.
    #[test]
    fn arena_matches_map_under_slot_reuse(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..300),
    ) {
        let mut arena: gr_sim::Arena<u64> = gr_sim::Arena::new();
        let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut live: Vec<(gr_sim::ArenaHandle, u64)> = Vec::new();
        let mut dead: Vec<(gr_sim::ArenaHandle, u64)> = Vec::new();
        let mut next_key = 0u64;
        for &(op, r) in &ops {
            match op % 4 {
                // Insert — biased 2:1 over removal so slots churn.
                0 | 1 => {
                    let h = arena.insert(next_key);
                    model.insert(next_key, next_key);
                    live.push((h, next_key));
                    next_key += 1;
                }
                // Remove a random live entry; its handle joins the dead set.
                2 => {
                    if live.is_empty() {
                        continue;
                    }
                    let (h, k) = live.swap_remove(r as usize % live.len());
                    prop_assert_eq!(arena.remove(h), model.remove(&k));
                    dead.push((h, k));
                }
                // Audit: every live handle resolves, every dead one is
                // stale (regardless of how often its slot was reused),
                // and double-removes change nothing.
                _ => {
                    for &(h, k) in &live {
                        prop_assert_eq!(arena.get(h), model.get(&k));
                    }
                    if !dead.is_empty() {
                        let (h, _) = dead[r as usize % dead.len()];
                        prop_assert_eq!(arena.get(h), None);
                        let before = arena.len();
                        prop_assert_eq!(arena.remove(h), None);
                        prop_assert_eq!(arena.len(), before);
                    }
                }
            }
        }
        prop_assert_eq!(arena.len(), model.len());
        let mut got: Vec<u64> = arena.iter().copied().collect();
        got.sort_unstable();
        let mut expected: Vec<u64> = model.into_values().collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
        for (h, _) in dead {
            prop_assert_eq!(arena.get(h), None);
        }
    }

    /// Median is order-insensitive and lies within [min, max].
    #[test]
    fn median_properties(mut values in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let m1 = gr_sim::stats::median(&values).unwrap();
        values.reverse();
        let m2 = gr_sim::stats::median(&values).unwrap();
        prop_assert!((m1 - m2).abs() < 1e-9);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m1 >= min && m1 <= max);
    }
}
