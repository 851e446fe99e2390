//! Cancellable scheduler: a hierarchical timing wheel plus a simulation
//! clock.
//!
//! Events are stored in the timing wheel (`wheel.rs`) — O(1) to arm and
//! O(1) to cancel through generation-stamped [`TimerHandle`]s, with dispatch
//! order identical to a stable `(time, insertion)` priority queue. Unlike
//! the old lazy-`HashSet` cancellation scheme, a cancel reclaims the
//! event's slot immediately: cancelling an event that already fired is a
//! detected no-op and nothing accumulates.

use crate::time::{SimDuration, SimTime};
use crate::wheel::Wheel;

pub use crate::wheel::TimerHandle;

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
    wheel: Wheel<E>,
    next_seq: u64,
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
            wheel: Wheel::new(),
            next_seq: 0,
        }
    }

    /// Current simulation time (the timestamp of the last event returned by
    /// [`next`](Self::next), or zero before any event ran).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live pending events (cancelled events leave no residue).
    pub fn pending(&self) -> usize {
        self.wheel.len()
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

    fn insert(&mut self, at: SimTime, event: E) -> TimerHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.insert(at, seq, event)
    }

    /// Cancels a previously armed event, returning `true` if it was still
    /// pending. Cancelling an event that already fired (or a handle that
    /// was already cancelled or re-armed) is a no-op returning `false`.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        self.wheel.cancel(handle).is_some()
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted.
    #[allow(clippy::should_implement_trait)] // not an Iterator: &mut self with internal clock
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.wheel.pop()?;
        debug_assert!(t >= self.now, "event queue time went backwards");
        self.now = t;
        Some((t, ev))
    }

    /// Moves the clock forward to `at` without dispatching anything, as
    /// if an event at `at` had just run; a clock already past `at` stays.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a pending event is due before `at`.
    pub fn advance_clock(&mut self, at: SimTime) {
        debug_assert!(
            self.wheel.peek_time().is_none_or(|t| t >= at),
            "clock moved past a pending event"
        );
        self.now = self.now.max(at);
    }

    /// Timestamp of the next live event without dispatching it, or `None`
    /// when the queue is exhausted. Takes `&mut self` because peeking may
    /// drain wheel buckets into the staging buffer (the clock and the
    /// dispatch sequence are unaffected).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time()
    }
}

/// Snapshot = clock + sequence counter + the wheel's canonical state.
/// Outstanding [`TimerHandle`]s stay valid across a restore because the
/// wheel serializes its slab and free list verbatim.
impl<E: snap::SnapValue> snap::SnapState for Scheduler<E> {
    fn snap_save(&self, w: &mut snap::Enc) {
        w.u64(self.now.as_nanos());
        w.u64(self.next_seq);
        self.wheel.snap_save(w);
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        self.now = SimTime::from_nanos(r.u64()?);
        self.next_seq = r.u64()?;
        self.wheel = Wheel::from_snapshot(r)?;
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
        let far = a.arm(SimDuration::from_secs(5_000), 99); // overflow heap
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
