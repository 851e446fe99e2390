//! Property-based tests of the simulation kernel.

use gr_sim::{Scheduler, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of one [`EventQueue`] insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EventId(u64);

/// A reference event queue: a binary min-heap keyed by
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

/// Maps raw fuzz input onto delay magnitudes from near-ties (within about
/// a microsecond) through milliseconds and seconds to a minute, plus
/// (≈1 in 8) far-future delays of 20–40 virtual minutes.
fn shaped_nanos(raw: u64, shape: u8) -> u64 {
    match shape % 8 {
        0 | 1 => raw % 2_048,                             // near-ties
        2 | 3 => raw % 5_000_000,                         // a few ms
        4 | 5 => raw % 500_000_000,                       // sub-second
        6 => raw % 60_000_000_000,                        // a minute
        _ => 1_200_000_000_000 + raw % 1_200_000_000_000, // far future
    }
}

/// The oracle for scheduler semantics: a stable binary heap plus a lazy
/// cancelled-id set. Property tests replay every operation against this
/// reference model.
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

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, seq, _))) = self.queue.heap.peek() {
            if !self.cancelled.remove(&EventId(seq)) {
                return Some(t);
            }
            self.queue.heap.pop();
        }
        None
    }
}

/// The scheduler and the reference driven in lockstep.
struct Lockstep {
    s: Scheduler<usize>,
    reference: HeapReference,
    /// Pending events: (scheduler handle, reference id, payload); a tick
    /// has no handle.
    live: Vec<(Option<gr_sim::TimerHandle>, EventId, usize)>,
    next_payload: usize,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            s: Scheduler::new(),
            reference: HeapReference::new(),
            live: Vec::new(),
            next_payload: 0,
        }
    }

    fn arm(&mut self, d: SimDuration) {
        let at = self.s.now() + d;
        let payload = self.next_payload;
        let h = self.s.arm(d, payload);
        let id = self.reference.push(at, payload);
        self.live.push((Some(h), id, payload));
        self.next_payload += 1;
    }

    /// Arms a tick, which waits in the scheduler's lane.
    fn tick(&mut self, d: SimDuration) {
        let at = self.s.now() + d;
        let payload = self.next_payload;
        self.s.arm_tick(d, payload);
        let id = self.reference.push(at, payload);
        self.live.push((None, id, payload));
        self.next_payload += 1;
    }

    /// Cancels a pending non-tick event picked by `r`, if there is one;
    /// with `rearm`, arms a replacement after `d`.
    fn cancel(&mut self, r: u64, rearm: Option<SimDuration>) {
        let cancellable: Vec<usize> = (0..self.live.len())
            .filter(|&i| self.live[i].0.is_some())
            .collect();
        if cancellable.is_empty() {
            return;
        }
        let (h, id, _) = self
            .live
            .swap_remove(cancellable[r as usize % cancellable.len()]);
        assert!(
            self.s.cancel(h.expect("a cancellable event")),
            "a pending event cancels"
        );
        self.reference.cancel(id);
        if let Some(d) = rearm {
            self.arm(d);
        }
    }

    /// Round-trips the scheduler through its snapshot, checking the
    /// restored copy re-encodes to the same bytes.
    fn snapshot_round_trip(&mut self) {
        use snap::SnapState as _;
        let mut w = snap::Enc::new();
        self.s.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored: Scheduler<usize> = Scheduler::new();
        restored.snap_restore(&mut snap::Dec::new(&bytes)).unwrap();
        assert_eq!(restored.pending(), self.live.len());
        assert_eq!(restored.peek_time(), self.s.peek_time());
        let mut again = snap::Enc::new();
        restored.snap_save(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        self.s = restored;
    }

    /// Pops one event from both sides; they must agree.
    fn pop(&mut self) {
        let popped = self.s.next();
        assert_eq!(popped, self.reference.pop());
        if let Some((_, payload)) = popped {
            self.live.retain(|l| l.2 != payload);
        }
    }
}

/// Box–Muller exactly as `SimRng::normal` wrote it before its uniforms
/// and its transform were split apart.
fn normal_reference(rng: &mut SimRng, sigma: f64) -> f64 {
    let u1 = loop {
        let u = rng.uniform_f64();
        if u > 0.0 {
            break u;
        }
    };
    let u2 = rng.uniform_f64();
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
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

    /// The scheduler dispatches random schedules — from near-ties to
    /// far-future events — in exactly the order of the stable reference
    /// [`EventQueue`], including insertion-order ties at equal timestamps.
    #[test]
    fn scheduler_matches_reference_on_random_schedules(
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
    /// the scheduler agrees with the heap-plus-lazy-cancellation reference
    /// at every intermediate pop, not just on the final drain.
    #[test]
    fn scheduler_matches_reference_under_cancel_rearm_interleaving(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 1..300),
    ) {
        let mut s: Scheduler<usize> = Scheduler::new();
        let mut reference = HeapReference::new();
        // Live (scheduler handle, reference id) pairs, index-aligned.
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
    fn scheduler_preserves_fifo_under_heavy_ties(
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

    /// A far cluster straddling a 2^40 ns boundary, several such spans
    /// past a few near events, pops in exact reference order, whether or
    /// not the queue is peeked first.
    #[test]
    fn scheduler_orders_a_far_cluster_across_a_block_boundary(
        near in proptest::collection::vec(0u64..1_000_000, 0..20),
        offsets in proptest::collection::vec(0u64..4_000_000_000, 1..40),
        peek in any::<bool>(),
    ) {
        // 2^40 ns (~18 min): 64^5 ticks of 1024 ns.
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
        let expected: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, _, e)| (t, e))).collect();
        if peek {
            // Peeking names the first event and dispatches nothing.
            prop_assert_eq!(s.peek_time(), expected.first().map(|&(t, _)| t));
            prop_assert_eq!(s.pending(), expected.len());
        }
        let fired: Vec<_> = std::iter::from_fn(|| s.next()).collect();
        prop_assert_eq!(fired, expected);
    }

    /// Every operation that can follow a pop — cancel, peek, pending,
    /// `advance_clock`, a snapshot round trip, another pop or an arm —
    /// agrees with the reference while the popped root is still vacant.
    #[test]
    fn scheduler_matches_reference_right_after_a_pop(
        initial in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..60),
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 1..200),
    ) {
        let mut l = Lockstep::new();
        for &(r, shape) in &initial {
            l.arm(SimDuration::from_nanos(shaped_nanos(r, shape)));
        }
        for &(op, r, shape) in &ops {
            let d = SimDuration::from_nanos(shaped_nanos(r, shape));
            if op & 0x80 != 0 {
                l.arm(d);
            }
            l.pop();
            // The root is vacant now.
            match op % 7 {
                0 if !l.live.is_empty() => l.cancel(r, None),
                1 => prop_assert_eq!(l.s.peek_time(), l.reference.peek_time()),
                2 => prop_assert_eq!(l.s.pending(), l.live.len()),
                3 => {
                    let now = l.s.now();
                    let target = l.reference.peek_time().map_or(now + d, |t| t.min(now + d));
                    l.s.advance_clock(target);
                    prop_assert_eq!(l.s.now(), now.max(target));
                }
                4 => l.snapshot_round_trip(),
                5 => l.pop(),
                _ => l.arm(d),
            }
        }
        while !l.live.is_empty() {
            l.pop();
        }
        prop_assert_eq!(l.s.next(), None);
        prop_assert_eq!(l.reference.pop(), None);
    }

    /// Ticks armed through `arm_tick`, at arbitrary and non-monotone
    /// delays from near-ties to far-future ones, interleaved with arms,
    /// cancels, re-arms, pops, peeks, `advance_clock` and snapshot round
    /// trips: every step agrees with the reference, including ties
    /// between lane and heap events at one instant.
    #[test]
    fn scheduler_with_ticks_matches_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 1..300),
    ) {
        let mut l = Lockstep::new();
        for &(op, r, shape) in &ops {
            // Shapes 0 and 1 are near-ties; a few delays repeat exactly.
            let d = SimDuration::from_nanos(match op & 0x80 {
                0 => shaped_nanos(r, shape),
                _ => r % 4 * 1_000,
            });
            match op % 8 {
                0 => l.arm(d),
                1 | 2 => l.tick(d),
                3 => l.cancel(r, None),
                4 => l.cancel(r, Some(d)),
                5 => l.pop(),
                6 => match shape % 3 {
                    0 => prop_assert_eq!(l.s.peek_time(), l.reference.peek_time()),
                    1 => {
                        let now = l.s.now();
                        let target = l.reference.peek_time().map_or(now + d, |t| t.min(now + d));
                        l.s.advance_clock(target);
                        prop_assert_eq!(l.s.now(), now.max(target));
                    }
                    _ => l.snapshot_round_trip(),
                },
                _ => {
                    l.pop();
                    l.pop();
                }
            }
            prop_assert_eq!(l.s.pending(), l.live.len());
        }
        while !l.live.is_empty() {
            l.pop();
        }
        prop_assert_eq!(l.s.next(), None);
        prop_assert_eq!(l.reference.pop(), None);
    }

    /// Which queue an event waits in leaves no trace: the same operation
    /// sequence with its ticks armed through `arm_tick` or through `arm`
    /// encodes to the same snapshot bytes after every step, and both
    /// restored copies drain exactly as the originals do.
    #[test]
    fn ticks_snapshot_as_arms_do(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 1..200),
    ) {
        use snap::SnapState as _;
        let encode = |s: &Scheduler<usize>| {
            let mut w = snap::Enc::new();
            s.snap_save(&mut w);
            w.into_bytes()
        };
        let mut ticked: Scheduler<usize> = Scheduler::new();
        let mut armed: Scheduler<usize> = Scheduler::new();
        let mut handles = Vec::new();
        for (i, &(op, r, shape)) in ops.iter().enumerate() {
            let d = SimDuration::from_nanos(shaped_nanos(r, shape));
            match op % 5 {
                0 => {
                    let h = ticked.arm(d, i);
                    prop_assert_eq!(armed.arm(d, i), h);
                    handles.push(h);
                }
                1 | 2 => {
                    ticked.arm_tick(d, i);
                    armed.arm(d, i);
                }
                3 if !handles.is_empty() => {
                    let h = handles.swap_remove(r as usize % handles.len());
                    prop_assert_eq!(ticked.cancel(h), armed.cancel(h));
                }
                _ => prop_assert_eq!(ticked.next(), armed.next()),
            }
            prop_assert_eq!(encode(&ticked), encode(&armed));
        }
        let bytes = encode(&ticked);
        let restore = || {
            let mut s: Scheduler<usize> = Scheduler::new();
            s.snap_restore(&mut snap::Dec::new(&bytes)).unwrap();
            s
        };
        let mut queues = [ticked, armed, restore(), restore()];
        loop {
            let [a, b, c, d] = queues.each_mut().map(|s| s.next());
            prop_assert_eq!(a, b);
            prop_assert_eq!(a, c);
            prop_assert_eq!(a, d);
            if a.is_none() {
                break;
            }
        }
    }

    /// `normal_draw` takes exactly the uniforms `normal` took, and its
    /// `scaled` value is the old Box–Muller sample bit for bit.
    #[test]
    fn normal_draw_defers_the_old_sample(seed in any::<u64>(), sigma in 0.0f64..10.0, n in 1usize..20) {
        let mut lazy = SimRng::new(seed);
        let mut eager = SimRng::new(seed);
        for _ in 0..n {
            let draw = lazy.normal_draw();
            prop_assert_eq!(draw.scaled(sigma).to_bits(), normal_reference(&mut eager, sigma).to_bits());
            prop_assert_eq!(&lazy, &eager);
        }
        prop_assert_eq!(lazy.normal(sigma).to_bits(), normal_reference(&mut eager, sigma).to_bits());
        prop_assert_eq!(lazy.next_u64(), eager.next_u64());
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
