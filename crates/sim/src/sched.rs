//! Cancellable scheduler: an indexed binary min-heap, a lane for
//! periodic source ticks and a simulation clock.
//!
//! Events live in a generation-stamped slab; the heap holds one node per
//! live event, keyed by `(time, seq)`, and every slab slot records its
//! node's heap position. Arming and cancelling are O(log n) in the number
//! of pending events: a cancel sifts the node out at once, so nothing
//! stale stays behind, and cancelling an event that already fired is a
//! detected no-op through the slot's generation. Dispatch order is the
//! stable `(time, seq)` order: same-timestamp events pop in arm order.
//!
//! A pop leaves the root *vacant* instead of refilling it. A handler
//! almost always arms its successor next, and that arm fills the vacant
//! root with one sift-down, where refilling at the pop and then pushing
//! would cost a sift-down plus a sift-up. The vacant root keeps the key
//! of the node just popped, which precedes every pending key, so sifts
//! below it never climb into it.
//!
//! Events armed through [`Scheduler::arm_tick`] skip the heap. Source
//! ticks are never cancelled and re-arm about one period ahead, so a
//! saturated hotspot's heap used to be mostly ticks that every other
//! node sifted past. They wait instead in a *tick lane*, a deque kept in
//! `(time, seq)` order by inserting from the back, where a re-armed tick
//! usually belongs. A pop takes whichever comes first, the lane's front
//! or the heap's next node; with an empty lane it costs one branch more
//! than a heap pop. [`Scheduler::peek`] compares the two once and names
//! the winner's queue in a [`Due`], which [`Scheduler::pop`] takes
//! without comparing again. A tick takes its seq, slab slot and generation
//! exactly as [`Scheduler::arm`] would, so the dispatch order, the slab
//! and the snapshot bytes do not depend on which queue an event waited
//! in.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// Generation-stamped reference to a scheduled event's slab slot.
///
/// Obtained from [`Scheduler::arm`]; used to cancel or re-arm the event.
/// A handle whose event already fired (or was cancelled) is *stale*: the
/// slot's generation has moved on, so every operation through the handle
/// is a detectable no-op — nothing is leaked and no unrelated event can
/// be hit, even after the slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    idx: u32,
    gen: u32,
}

impl snap::SnapValue for TimerHandle {
    fn save(&self, w: &mut snap::Enc) {
        w.u32(self.idx);
        w.u32(self.gen);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(TimerHandle {
            idx: r.u32()?,
            gen: r.u32()?,
        })
    }
}

#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    /// Heap position of this slot's node while `event` is live, or
    /// [`IN_LANE`].
    pos: u32,
    event: Option<E>,
}

/// [`Slot::pos`] of a live event waiting in the tick lane.
const IN_LANE: u32 = u32::MAX;

/// The next pending event, as [`Scheduler::peek`] found it: its instant
/// and the queue it waits in, so [`Scheduler::pop`] takes it without
/// comparing the queues again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    time: SimTime,
    in_lane: bool,
}

impl Due {
    /// When the event fires.
    pub fn time(self) -> SimTime {
        self.time
    }
}

/// A heap node: the dispatch key inline, so sifting never leaves the heap.
#[derive(Debug, Clone, Copy)]
struct Node {
    time: SimTime,
    seq: u64,
    idx: u32,
}

impl Node {
    /// `(time, seq)` packed into one integer of the same total order.
    fn key(&self) -> u128 {
        (self.time.as_nanos() as u128) << 64 | self.seq as u128
    }

    fn before(&self, other: &Node) -> bool {
        self.key() < other.key()
    }
}

/// The simulation clock plus pending events of type `E`.
///
/// # Examples
///
/// ```
/// use gr_sim::{Scheduler, SimDuration};
///
/// let mut s: Scheduler<u32> = Scheduler::new();
/// let h = s.arm(SimDuration::from_micros(10), 1);
/// s.arm(SimDuration::from_micros(20), 2);
/// h.cancel(&mut s);
/// assert_eq!(s.next(), Some((gr_sim::SimTime::from_micros(20), 2)));
/// assert_eq!(s.next(), None);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    next_seq: u64,
    slab: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Min-heap of live events by `(time, seq)`; `heap[0]` is next
    /// unless `vacant`.
    heap: Vec<Node>,
    /// `heap[0]` is the hole a pop left, awaiting the next arm.
    vacant: bool,
    /// Events armed by [`Scheduler::arm_tick`], ascending by
    /// `(time, seq)`.
    lane: VecDeque<Node>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            next_seq: 0,
            slab: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            vacant: false,
            lane: VecDeque::new(),
        }
    }

    /// Current simulation time (the timestamp of the last event returned by
    /// [`next`](Self::next), or zero before any event ran).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live pending events (cancelled events leave no residue).
    pub fn pending(&self) -> usize {
        self.heap.len() - usize::from(self.vacant) + self.lane.len()
    }

    /// Arms `event` to fire after delay `d` from now.
    pub fn arm(&mut self, d: SimDuration, event: E) -> TimerHandle {
        let at = self.now + d;
        self.insert(at, event)
    }

    /// Arms `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is before the current time — events
    /// may not be scheduled in the past.
    pub fn arm_at(&mut self, at: SimTime, event: E) -> TimerHandle {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.insert(at.max(self.now), event)
    }

    /// Arms `event` to fire after delay `d` from now, for an event that is
    /// never cancelled: no handle is returned. Meant for periodic sources
    /// that re-arm about one period ahead; see the module docs.
    ///
    /// Ticks wait in a lane searched from its back, so an arm costs one
    /// step per pending tick due later. Arming many more ticks than
    /// sources, or far out of time order, makes that search long.
    pub fn arm_tick(&mut self, d: SimDuration, event: E) {
        let node = self.claim(self.now + d, event);
        self.slab[node.idx as usize].pos = IN_LANE;
        // The new seq is the largest, so a tick at the same instant as a
        // lane node goes behind it.
        let mut at = self.lane.len();
        while at > 0 && node.time < self.lane[at - 1].time {
            at -= 1;
        }
        self.lane.insert(at, node);
    }

    /// Takes the next seq and a slab slot (the free list's last, else a
    /// new one) for `event` at `time`.
    fn claim(&mut self, time: SimTime, event: E) -> Node {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize].event = Some(event);
                i
            }
            None => {
                self.slab.push(Slot {
                    gen: 0,
                    pos: 0,
                    event: Some(event),
                });
                (self.slab.len() - 1) as u32
            }
        };
        Node { time, seq, idx }
    }

    fn insert(&mut self, time: SimTime, event: E) -> TimerHandle {
        let node = self.claim(time, event);
        let idx = node.idx;
        if self.vacant {
            self.vacant = false;
            self.sift_down(0, node);
        } else {
            self.push_node(node);
        }
        TimerHandle {
            idx,
            gen: self.slab[idx as usize].gen,
        }
    }

    /// Cancels a previously armed event, returning `true` if it was still
    /// pending. Cancelling an event that already fired (or a handle that
    /// was already cancelled or re-armed) is a no-op returning `false`.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(slot) = self.slab.get_mut(handle.idx as usize) else {
            return false;
        };
        if slot.gen != handle.gen || slot.event.is_none() {
            return false;
        }
        // A tick's slot was claimed after every earlier holder's event
        // was released, which moved the generation past their handles.
        debug_assert_ne!(slot.pos, IN_LANE, "a handle reached a tick");
        let pos = slot.pos as usize;
        self.release(handle.idx);
        self.remove_at(pos);
        true
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted.
    #[allow(clippy::should_implement_trait)] // not an Iterator: &mut self with internal clock
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let due = self.peek()?;
        Some(self.pop(due))
    }

    /// The next live event's instant and queue, without dispatching it,
    /// or `None` when the queue is exhausted.
    pub fn peek(&self) -> Option<Due> {
        let heap = if self.vacant {
            // The next heap node is the earlier of the hole's children.
            self.heap.iter().skip(1).take(2).min_by_key(|n| n.key())
        } else {
            self.heap.first()
        };
        match (self.lane.front(), heap) {
            (Some(tick), h) if h.is_none_or(|h| tick.before(h)) => Some(Due {
                time: tick.time,
                in_lane: true,
            }),
            (_, h) => h.map(|h| Due {
                time: h.time,
                in_lane: false,
            }),
        }
    }

    /// Pops the event `due` names, advancing the clock to its timestamp.
    /// `due` must come from a [`peek`](Self::peek) with no arm or cancel
    /// since.
    pub fn pop(&mut self, due: Due) -> (SimTime, E) {
        debug_assert_eq!(self.peek(), Some(due), "popping a stale peek");
        let Node { time, idx, .. } = if due.in_lane {
            // The heap is untouched; a vacant root stays vacant, its key
            // still before every pending heap key.
            self.lane.pop_front().expect("peeked tick")
        } else {
            if self.vacant {
                self.remove_at(0);
            }
            self.vacant = true;
            self.heap[0]
        };
        debug_assert!(time >= self.now, "event queue time went backwards");
        let ev = self.release(idx);
        self.now = time;
        (time, ev)
    }

    /// Moves the clock forward to `at` without dispatching anything, as
    /// if an event at `at` had just run; a clock already past `at` stays.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a pending event is due before `at`.
    pub fn advance_clock(&mut self, at: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= at),
            "clock moved past a pending event"
        );
        self.now = self.now.max(at);
    }

    /// Timestamp of the next live event without dispatching it, or `None`
    /// when the queue is exhausted.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(Due::time)
    }

    /// Takes a live slot's event and frees the slot, invalidating every
    /// outstanding handle to it. Its heap node is the caller's to remove.
    fn release(&mut self, idx: u32) -> E {
        let slot = &mut self.slab[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        slot.event.take().expect("released slot holds an event")
    }

    fn push_node(&mut self, node: Node) {
        let pos = self.heap.len();
        self.heap.push(node);
        self.sift_up(pos, node);
    }

    /// Removes the heap node at `pos` (or the vacant root), refilling the
    /// hole with the last node.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.pop().expect("removing from an empty heap");
        if pos == self.heap.len() {
            return;
        }
        if pos > 0 && last.before(&self.heap[(pos - 1) / 2]) {
            self.sift_up(pos, last);
        } else {
            self.sift_down(pos, last);
        }
    }

    /// Moves `node` from the hole at `pos` towards the root until its
    /// parent precedes it, then writes it there.
    fn sift_up(&mut self, mut pos: usize, node: Node) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if !node.before(&p) {
                break;
            }
            self.place(pos, p);
            pos = parent;
        }
        self.place(pos, node);
    }

    /// Moves `node` from the hole at `pos` towards the leaves until both
    /// children follow it, then writes it there.
    fn sift_down(&mut self, mut pos: usize, node: Node) {
        let n = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1].before(&self.heap[child]) {
                child += 1;
            }
            let c = self.heap[child];
            if !c.before(&node) {
                break;
            }
            self.place(pos, c);
            pos = child;
        }
        self.place(pos, node);
    }

    fn place(&mut self, pos: usize, node: Node) {
        self.heap[pos] = node;
        self.slab[node.idx as usize].pos = pos as u32;
    }
}

/// Snapshot = clock, sequence counter, the slab verbatim in index order
/// (generation, plus time, sequence and payload of a live slot), the free
/// list verbatim and the live count. Outstanding [`TimerHandle`]s stay
/// valid across a restore, and post-restore arms assign the same handles
/// the uninterrupted run would have. Heap placement is derived state: the
/// `(time, seq)` keys are unique, so any valid heap over the same nodes
/// dispatches identically, and restore rebuilds one. Which queue a node
/// waits in is derived state too: a tick's slot is written from its lane
/// node like any other, and restore puts every node in the heap.
impl<E: snap::SnapValue> snap::SnapState for Scheduler<E> {
    fn snap_save(&self, w: &mut snap::Enc) {
        w.u64(self.now.as_nanos());
        w.u64(self.next_seq);
        w.usize(self.slab.len());
        for (idx, slot) in self.slab.iter().enumerate() {
            w.u32(slot.gen);
            match &slot.event {
                Some(ev) => {
                    let node = match slot.pos {
                        // The lane is at most a few dozen ticks long.
                        IN_LANE => *(self.lane.iter())
                            .find(|n| n.idx as usize == idx)
                            .expect("a tick's slot has a lane node"),
                        pos => self.heap[pos as usize],
                    };
                    w.bool(true);
                    w.u64(node.time.as_nanos());
                    w.u64(node.seq);
                    ev.save(w);
                }
                None => w.bool(false),
            }
        }
        snap::SnapValue::save(&self.free, w);
        w.usize(self.pending());
    }

    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        let now = SimTime::from_nanos(r.u64()?);
        let next_seq = r.u64()?;
        let n = r.count("scheduler slab count")?;
        let mut s = Scheduler::new();
        s.now = now;
        s.next_seq = next_seq;
        for idx in 0..n as u32 {
            let gen = r.u32()?;
            let live = r.bool()?;
            s.slab.push(Slot {
                gen,
                pos: 0,
                event: None,
            });
            if live {
                let time = SimTime::from_nanos(r.u64()?);
                let seq = r.u64()?;
                s.slab[idx as usize].event = Some(E::load(r)?);
                s.push_node(Node { time, seq, idx });
            }
        }
        s.free = <Vec<u32> as snap::SnapValue>::load(r)?;
        let live = r.usize()?;
        if live != s.heap.len() {
            return Err(snap::SnapError::Corrupt(format!(
                "scheduler live count {live} != occupied slots {}",
                s.heap.len()
            )));
        }
        *self = s;
        Ok(())
    }
}

impl TimerHandle {
    /// Cancels this handle's event; see [`Scheduler::cancel`].
    pub fn cancel<E>(self, sched: &mut Scheduler<E>) -> bool {
        sched.cancel(self)
    }

    /// Cancels this handle's event (if still pending) and arms `event`
    /// after delay `d`, returning the new handle.
    pub fn rearm<E>(self, sched: &mut Scheduler<E>, d: SimDuration, event: E) -> TimerHandle {
        sched.cancel(self);
        sched.arm(d, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain(s: &mut Scheduler<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| s.next().map(|(t, e)| (t.as_nanos(), e))).collect()
    }

    /// The heap and the tick lane hold exactly the live slots plus at
    /// most one vacant root, every live heap node's slot points back at
    /// it, every node follows its parent (a vacant root included, which
    /// so precedes every pending heap node), the lane is in `(time, seq)`
    /// order with its slots marked, and a vacant root precedes the lane.
    fn assert_heap_invariant<E>(s: &Scheduler<E>) {
        let live = s.slab.iter().filter(|slot| slot.event.is_some()).count();
        let hole = usize::from(s.vacant);
        assert_eq!(s.heap.len() + s.lane.len(), live + hole);
        assert_eq!(s.heap.len() + s.lane.len(), s.pending() + hole);
        assert_eq!(s.slab.len(), live + s.free.len());
        for (pos, node) in s.heap.iter().enumerate() {
            if pos < hole {
                continue;
            }
            assert_eq!(s.slab[node.idx as usize].pos as usize, pos);
            if pos > 0 {
                assert!(s.heap[(pos - 1) / 2].before(node), "heap order broken");
            }
        }
        for (a, b) in s.lane.iter().zip(s.lane.iter().skip(1)) {
            assert!(a.before(b), "lane order broken");
        }
        for node in &s.lane {
            let slot = &s.slab[node.idx as usize];
            assert_eq!(slot.pos, IN_LANE, "lane slot unmarked");
            assert!(slot.event.is_some(), "lane node without an event");
        }
        if let (true, Some(tick)) = (s.vacant, s.lane.front()) {
            assert!(s.heap[0].before(tick), "hole after a pending tick");
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut s = Scheduler::new();
        s.arm_at(SimTime::from_nanos(5_000), 1);
        s.arm_at(SimTime::from_nanos(100), 2);
        s.arm_at(SimTime::from_nanos(5_000), 3);
        s.arm_at(SimTime::from_nanos(70_000_000), 4);
        assert_eq!(
            drain(&mut s),
            vec![(100, 2), (5_000, 1), (5_000, 3), (70_000_000, 4)]
        );
    }

    #[test]
    fn far_future_events_pop_in_order() {
        let mut s = Scheduler::new();
        // ~20 virtual hours, far past the ~18 minutes a timing wheel of
        // 64^5 ticks of 1024 ns would cover.
        let far = SimTime::from_nanos(72_000_000_000_000);
        s.arm_at(far, 9);
        s.arm_at(SimTime::from_nanos(10), 1);
        s.arm_at(far, 10);
        assert_eq!(
            drain(&mut s),
            vec![(10, 1), (72_000_000_000_000, 9), (72_000_000_000_000, 10)]
        );
    }

    #[test]
    fn events_straddling_a_2_pow_30_tick_boundary_pop_in_order() {
        // Two events just either side of 2 x 2^30 ticks of 1024 ns: close
        // together, but in different 2^40 ns blocks.
        let block_ns = 1u64 << 40;
        let a = block_ns * 2 - 1_000;
        let b = block_ns * 2 + 1_000;
        let mut s = Scheduler::new();
        s.arm_at(SimTime::from_nanos(b), 2);
        s.arm_at(SimTime::from_nanos(a), 1);
        s.arm_at(SimTime::from_nanos(50), 3);
        assert_eq!(drain(&mut s), vec![(50, 3), (a, 1), (b, 2)]);
    }

    #[test]
    fn cancel_is_exact_and_reclaims_slots() {
        let mut s = Scheduler::new();
        let a = s.arm_at(SimTime::from_nanos(1_000), 1);
        s.arm_at(SimTime::from_nanos(2_000), 2);
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double cancel is a no-op");
        assert_eq!(s.pending(), 1);
        // The freed slot is reused; the old handle stays dead.
        let c = s.arm_at(SimTime::from_nanos(3_000), 3);
        assert_eq!(c.idx, a.idx);
        assert_ne!(c.gen, a.gen);
        assert!(!s.cancel(a));
        assert_eq!(drain(&mut s), vec![(2_000, 2), (3_000, 3)]);
        assert_eq!(s.slab.len(), 2);
    }

    #[test]
    fn arms_at_the_current_instant_stay_ordered() {
        let mut s = Scheduler::new();
        s.arm_at(SimTime::from_nanos(50_000), 1);
        assert_eq!(s.next().map(|(_, e)| e), Some(1));
        s.arm_at(SimTime::from_nanos(50_100), 2);
        s.arm_at(SimTime::from_nanos(50_050), 3);
        s.arm(SimDuration::ZERO, 4);
        assert_eq!(drain(&mut s), vec![(50_000, 4), (50_050, 3), (50_100, 2)]);
    }

    #[test]
    fn arm_cancel_cycles_leave_one_slab_slot() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..100_000u32 {
            let h = s.arm(SimDuration::from_nanos(u64::from(i % 977)), i);
            assert!(h.cancel(&mut s));
        }
        assert_eq!(s.slab.len(), 1);
        assert_eq!(s.heap.len(), 0);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.next(), None);
    }

    proptest! {
        /// Eager cancellation: after every step of a random arm / tick /
        /// cancel / rearm / pop sequence the heap and the lane hold
        /// `pending()` nodes plus at most one vacant root, and the slab
        /// never grows past the peak number of live events.
        #[test]
        fn heap_holds_exactly_the_pending_events(
            ops in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..300),
        ) {
            let mut s: Scheduler<usize> = Scheduler::new();
            let mut handles = Vec::new();
            let mut peak = 0;
            for (i, &(op, r)) in ops.iter().enumerate() {
                let d = SimDuration::from_nanos(u64::from(r % 50_000));
                match op % 4 {
                    0 => handles.push(s.arm(d, i)),
                    1 if op & 8 != 0 => s.arm_tick(d, i),
                    1 => handles.push(s.arm(d, i)),
                    2 if !handles.is_empty() => {
                        let h = handles.swap_remove(r as usize % handles.len());
                        if op & 4 == 0 {
                            h.cancel(&mut s);
                        } else {
                            handles.push(h.rearm(&mut s, d, i));
                        }
                    }
                    _ => {
                        s.next();
                    }
                }
                peak = peak.max(s.pending());
                assert_heap_invariant(&s);
                prop_assert!(s.slab.len() <= peak);
            }
        }
    }

    #[test]
    fn clock_advances_with_events() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.arm_at(SimTime::from_micros(4), ());
        s.arm_at(SimTime::from_micros(9), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.next();
        assert_eq!(s.now(), SimTime::from_micros(4));
        s.next();
        assert_eq!(s.now(), SimTime::from_micros(9));
    }

    #[test]
    fn cancelled_events_are_skipped() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let a = s.arm_at(SimTime::from_micros(1), 1);
        s.arm_at(SimTime::from_micros(2), 2);
        let c = s.arm_at(SimTime::from_micros(3), 3);
        assert!(a.cancel(&mut s));
        assert!(c.cancel(&mut s));
        assert_eq!(s.next(), Some((SimTime::from_micros(2), 2)));
        assert_eq!(s.next(), None);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn cancel_after_fire_is_noop_and_leaves_no_residue() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let a = s.arm_at(SimTime::from_micros(1), 1);
        assert!(s.next().is_some());
        // Regression: the old HashSet-based scheduler kept `a` in its
        // cancelled set forever when cancel arrived after the fire. Now
        // the cancel reports a miss and pending() stays exact.
        assert!(!a.cancel(&mut s));
        let b = s.arm_at(SimTime::from_micros(2), 2);
        assert!(!a.cancel(&mut s), "stale handle must not hit reused slot");
        assert_eq!(s.pending(), 1);
        assert_eq!(s.next(), Some((SimTime::from_micros(2), 2)));
        let _ = b;
    }

    #[test]
    fn peek_leaves_the_clock_and_the_event() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.arm_at(SimTime::from_micros(5), 1);
        s.arm_at(SimTime::from_micros(15), 2);
        assert_eq!(s.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.pending(), 2);
        assert_eq!(s.next(), Some((SimTime::from_micros(5), 1)));
        assert_eq!(s.peek_time(), Some(SimTime::from_micros(15)));
        assert_eq!(s.now(), SimTime::from_micros(5));
    }

    #[test]
    fn advance_clock_moves_forward_only() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.arm_at(SimTime::from_micros(10), 1);
        s.advance_clock(SimTime::from_micros(7));
        assert_eq!(s.now(), SimTime::from_micros(7));
        s.advance_clock(SimTime::from_micros(3));
        assert_eq!(s.now(), SimTime::from_micros(7), "never backwards");
        s.arm(SimDuration::from_micros(1), 2);
        assert_eq!(s.next(), Some((SimTime::from_micros(8), 2)));
        assert_eq!(s.next(), Some((SimTime::from_micros(10), 1)));
    }

    #[test]
    fn arm_is_relative_to_now() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.arm_at(SimTime::from_micros(10), 0);
        s.next();
        s.arm(SimDuration::from_micros(5), 1);
        assert_eq!(s.next(), Some((SimTime::from_micros(15), 1)));
    }

    #[test]
    fn rearm_replaces_the_pending_event() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let h = s.arm(SimDuration::from_micros(10), 1);
        let h = h.rearm(&mut s, SimDuration::from_micros(3), 2);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.next(), Some((SimTime::from_micros(3), 2)));
        // Re-arming after the fire arms fresh without touching anything.
        let h = h.rearm(&mut s, SimDuration::from_micros(4), 3);
        assert_eq!(s.next(), Some((SimTime::from_micros(7), 3)));
        assert!(!h.cancel(&mut s));
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        use snap::{Dec, Enc, SnapState};
        let mut a: Scheduler<u8> = Scheduler::new();
        for v in 0..20u8 {
            a.arm(SimDuration::from_micros(v as u64 * 130 + 1), v);
        }
        let far = a.arm(SimDuration::from_secs(5_000), 99);
        for _ in 0..7 {
            a.next();
        }
        a.cancel(far);
        let mut w = Enc::new();
        a.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut b: Scheduler<u8> = Scheduler::new();
        b.snap_restore(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(a.now(), b.now());
        assert_eq!(a.pending(), b.pending());
        assert_eq!(a.snap_digest(), b.snap_digest());
        // Future arms assign identical (slot, generation) handles, so
        // handles taken before the snapshot stay interchangeable.
        let ha = a.arm(SimDuration::from_micros(400), 77);
        let hb = b.arm(SimDuration::from_micros(400), 77);
        assert_eq!(ha, hb);
        // Both drain to exhaustion in the same order.
        loop {
            let (x, y) = (a.next(), b.next());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn ticks_and_heap_events_pop_in_time_then_seq_order() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.arm_tick(SimDuration::from_micros(5), 1);
        s.arm_at(SimTime::from_micros(5), 2);
        s.arm_tick(SimDuration::from_micros(5), 3);
        // Inserted into the middle of the lane, and before the heap.
        s.arm_tick(SimDuration::from_micros(2), 4);
        s.arm_at(SimTime::from_micros(9), 5);
        s.arm_tick(SimDuration::from_micros(7), 6);
        assert_heap_invariant(&s);
        assert_eq!(s.pending(), 6);
        let order: Vec<u8> = std::iter::from_fn(|| s.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![4, 1, 2, 3, 6, 5]);
    }

    #[test]
    fn a_tick_pop_leaves_the_vacant_root_for_the_next_arm() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.arm_at(SimTime::from_micros(1), 1);
        s.arm_at(SimTime::from_micros(8), 2);
        s.arm_tick(SimDuration::from_micros(3), 3);
        assert_eq!(s.next(), Some((SimTime::from_micros(1), 1)));
        assert!(s.vacant);
        assert_eq!(s.next(), Some((SimTime::from_micros(3), 3)));
        assert!(s.vacant, "a lane pop leaves the heap alone");
        assert_heap_invariant(&s);
        let h = s.arm(SimDuration::from_micros(1), 4);
        assert!(!s.vacant, "the arm filled the hole");
        assert_heap_invariant(&s);
        assert_eq!(h.idx, 2, "the tick's slot, freed last, is reused first");
        assert_eq!(drain(&mut s), vec![(4_000, 4), (8_000, 2)]);
    }

    #[test]
    fn ticks_take_the_slots_and_bytes_an_arm_would() {
        use snap::SnapState;
        let mut ticked: Scheduler<u32> = Scheduler::new();
        let mut armed: Scheduler<u32> = Scheduler::new();
        for s in [&mut ticked, &mut armed] {
            s.arm(SimDuration::from_micros(4), 0);
            s.next();
        }
        ticked.arm_tick(SimDuration::from_micros(6), 1);
        armed.arm(SimDuration::from_micros(6), 1);
        ticked.arm_tick(SimDuration::from_micros(2), 2);
        armed.arm(SimDuration::from_micros(2), 2);
        assert_eq!(ticked.snap_digest(), armed.snap_digest());
        let (a, b) = (
            ticked.arm(SimDuration::ZERO, 3),
            armed.arm(SimDuration::ZERO, 3),
        );
        assert_eq!(a, b);
        assert_eq!(drain(&mut ticked), drain(&mut armed));
    }

    #[test]
    fn same_time_events_fire_in_arm_order() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let t = SimTime::from_micros(7);
        for v in 0..10 {
            s.arm_at(t, v);
        }
        for v in 0..10 {
            assert_eq!(s.next(), Some((t, v)));
        }
    }
}
