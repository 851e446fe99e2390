//! Generational arena for in-flight frames.
//!
//! The network layer keeps every active transmission in a [`FrameArena`]
//! and threads [`FrameId`] handles — not owned [`Frame`]
//! clones — through its event queue and down into the PHY rx path. In
//! steady state a frame is written into its slot once, at
//! transmission-start, and every later touch (busy tracking, reception,
//! NAV accounting, tx-end bookkeeping) is a generation-checked lookup,
//! so no frames are allocated or cloned per event.
//!
//! The arena is a thin typed wrapper over [`sim::Arena`], inheriting its
//! slot-reuse and snapshot semantics: slots and the free list serialize
//! verbatim, so outstanding [`FrameId`]s in a checkpointed event queue
//! stay valid across a restore, and post-restore inserts reuse slots in
//! exactly the pre-snapshot order (see DESIGN.md §16).

use crate::frame::{Frame, Msdu};
use sim::{Arena, ArenaHandle, SimTime};

/// Generation-stamped handle to an in-flight frame.
///
/// Minted by [`FrameArena::insert`]; stays valid until the record is
/// removed (or retained away), after which it is *stale* and every
/// lookup returns `None` — even once the slot is reused for a later
/// frame, because reuse bumps the slot's generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameId(ArenaHandle);

impl FrameId {
    /// Slot index — only for diagnostics; lookups go through the arena.
    pub fn idx(&self) -> u32 {
        self.0.idx()
    }

    /// Generation stamp of this handle.
    pub fn gen(&self) -> u32 {
        self.0.gen()
    }
}

impl snap::SnapValue for FrameId {
    fn save(&self, w: &mut snap::Enc) {
        self.0.save(w);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(FrameId(ArenaHandle::load(r)?))
    }
}

/// One in-flight transmission: the frame on the air plus its occupancy
/// interval on the medium.
#[derive(Debug, Clone)]
pub struct TxRecord<M: Msdu> {
    /// The frame being transmitted.
    pub frame: Frame<M>,
    /// Airtime start.
    pub start: SimTime,
    /// Airtime end (start + tx duration).
    pub end: SimTime,
}

impl<M: Msdu> snap::SnapValue for TxRecord<M> {
    fn save(&self, w: &mut snap::Enc) {
        self.frame.save(w);
        self.start.save(w);
        self.end.save(w);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(TxRecord {
            frame: Frame::load(r)?,
            start: SimTime::load(r)?,
            end: SimTime::load(r)?,
        })
    }
}

/// Slab of in-flight [`TxRecord`]s with generation-checked [`FrameId`]
/// handles: O(1) insert/lookup/remove, slots reused, stale handles
/// always detected.
#[derive(Debug, Default)]
pub struct FrameArena<M: Msdu> {
    records: Arena<TxRecord<M>>,
}

impl<M: Msdu> FrameArena<M> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        FrameArena {
            records: Arena::new(),
        }
    }

    /// Number of in-flight frames.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing is on the air.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Interns a frame for the interval `[start, end)`, returning its
    /// handle. The arena takes ownership; the frame is not cloned again
    /// for the rest of its life on the medium.
    pub fn insert(&mut self, frame: Frame<M>, start: SimTime, end: SimTime) -> FrameId {
        FrameId(self.records.insert(TxRecord { frame, start, end }))
    }

    /// Looks up a handle; `None` if it is stale.
    pub fn get(&self, id: FrameId) -> Option<&TxRecord<M>> {
        self.records.get(id.0)
    }

    /// Mutable lookup; `None` if the handle is stale.
    pub fn get_mut(&mut self, id: FrameId) -> Option<&mut TxRecord<M>> {
        self.records.get_mut(id.0)
    }

    /// Removes and returns the record, freeing its slot. Stale handles
    /// return `None` and change nothing.
    pub fn remove(&mut self, id: FrameId) -> Option<TxRecord<M>> {
        self.records.remove(id.0)
    }

    /// Keeps only the records for which `keep` returns `true`.
    pub fn retain(&mut self, keep: impl FnMut(&TxRecord<M>) -> bool) {
        self.records.retain(keep);
    }

    /// Iterates over live records in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &TxRecord<M>> {
        self.records.iter()
    }

    /// Iterates over live `(handle, record)` pairs in unspecified order.
    /// The PHY rx path's interferer fold is a pure `max`, so its result
    /// does not depend on the order.
    pub fn entries(&self) -> impl Iterator<Item = (FrameId, &TxRecord<M>)> {
        self.records.entries().map(|(h, r)| (FrameId(h), r))
    }
}

/// Delegates to [`sim::Arena`]'s verbatim slot encoding so handles held
/// in a snapshotted event queue survive restore.
impl<M: Msdu> snap::SnapValue for FrameArena<M> {
    fn save(&self, w: &mut snap::Enc) {
        self.records.save(w);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(FrameArena {
            records: Arena::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NodeId;
    use sim::SimDuration;
    use snap::SnapValue;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn stale_handles_survive_slot_reuse() {
        let mut a: FrameArena<usize> = FrameArena::new();
        let f = Frame::ack(NodeId(0), NodeId(1), 0);
        let h1 = a.insert(f.clone(), t(0), t(304));
        assert!(a.get(h1).is_some());
        assert!(a.remove(h1).is_some());
        assert!(a.get(h1).is_none());
        assert!(a.remove(h1).is_none());
        // Slot reuse must not resurrect the stale handle.
        let h2 = a.insert(f, t(400), t(704));
        assert_eq!(h1.idx(), h2.idx(), "slot is reused");
        assert!(a.get(h1).is_none(), "old generation stays dead");
        assert_eq!(a.get(h2).unwrap().start, t(400));
    }

    #[test]
    fn snapshot_round_trip_preserves_handles_and_reuse_order() {
        let mut a: FrameArena<usize> = FrameArena::new();
        let f = Frame::ack(NodeId(0), NodeId(1), 0);
        let h0 = a.insert(f.clone(), t(0), t(10));
        let h1 = a.insert(f.clone(), t(5), t(15));
        let h2 = a.insert(f.clone(), t(8), t(20));
        a.remove(h1);

        let mut w = snap::Enc::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = snap::Dec::new(&bytes);
        let mut b: FrameArena<usize> = FrameArena::load(&mut r).unwrap();

        assert_eq!(b.len(), 2);
        assert!(b.get(h0).is_some());
        assert!(b.get(h1).is_none(), "stale handle stays stale");
        assert_eq!(b.get(h2).unwrap().end, t(20));
        // The freed slot is reused first, exactly as it would have been
        // in the original arena.
        let h3 = b.insert(f.clone(), t(30), t(40));
        let mut c = a;
        let h3_orig = c.insert(f, t(30), t(40));
        assert_eq!(h3.idx(), h3_orig.idx());
        assert_eq!(h3.gen(), h3_orig.gen());
    }
}
