//! Allocation-free hot-path storage: a generation-checked [`Arena`] for
//! records referenced from in-flight events.
//!
//! It exists for the same reason the scheduler keeps its events in a
//! generation-stamped slab: the simulator dispatches millions of events
//! per run, and a heap allocation (or `HashMap` probe) per event
//! dominates the profile. The arena replaces `HashMap<u64, T>` keyed by
//! monotonically growing ids.

/// Generation-stamped key into an [`Arena`].
///
/// A handle taken from [`Arena::insert`] stays valid until that entry is
/// [`Arena::remove`]d; afterwards it is *stale* and every lookup through
/// it returns `None`, even if the slot has been reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaHandle {
    idx: u32,
    gen: u32,
}

impl ArenaHandle {
    /// Slot index of this handle.
    pub fn idx(&self) -> u32 {
        self.idx
    }

    /// Generation stamp of this handle.
    pub fn gen(&self) -> u32 {
        self.gen
    }
}

#[derive(Debug)]
struct ArenaSlot<T> {
    gen: u32,
    value: Option<T>,
}

/// Slab with a free-list: O(1) insert/lookup/remove, indices reused,
/// stale handles detected by generation mismatch.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<ArenaSlot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Stores `value`, returning its handle.
    pub fn insert(&mut self, value: T) -> ArenaHandle {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(ArenaSlot {
                    gen: 0,
                    value: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.value.is_none());
        slot.value = Some(value);
        self.live += 1;
        ArenaHandle { idx, gen: slot.gen }
    }

    /// Looks up a handle; `None` if it is stale.
    pub fn get(&self, h: ArenaHandle) -> Option<&T> {
        let slot = self.slots.get(h.idx as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable lookup; `None` if the handle is stale.
    pub fn get_mut(&mut self, h: ArenaHandle) -> Option<&mut T> {
        let slot = self.slots.get_mut(h.idx as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        slot.value.as_mut()
    }

    /// Removes and returns the entry, freeing its slot. Stale handles
    /// return `None` and change nothing.
    pub fn remove(&mut self, h: ArenaHandle) -> Option<T> {
        let slot = self.slots.get_mut(h.idx as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        let value = slot.value.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.idx);
        self.live -= 1;
        Some(value)
    }

    /// Iterates over live entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.value.as_ref())
    }

    /// Iterates over live `(handle, entry)` pairs in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (ArenaHandle, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| {
                (
                    ArenaHandle {
                        idx: i as u32,
                        gen: s.gen,
                    },
                    v,
                )
            })
        })
    }

    /// Keeps only the entries for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot.value.as_ref() {
                if !keep(v) {
                    slot.value = None;
                    slot.gen = slot.gen.wrapping_add(1);
                    self.free.push(i as u32);
                    self.live -= 1;
                }
            }
        }
    }
}

impl snap::SnapValue for ArenaHandle {
    fn save(&self, w: &mut snap::Enc) {
        w.u32(self.idx);
        w.u32(self.gen);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(ArenaHandle {
            idx: r.u32()?,
            gen: r.u32()?,
        })
    }
}

/// Slots and free list are serialized verbatim (in index order) so that
/// outstanding [`ArenaHandle`]s stay valid across a restore and future
/// inserts reuse slots in exactly the pre-snapshot order.
impl<T: snap::SnapValue> snap::SnapValue for Arena<T> {
    fn save(&self, w: &mut snap::Enc) {
        w.usize(self.slots.len());
        for s in &self.slots {
            w.u32(s.gen);
            s.value.save(w);
        }
        self.free.save(w);
        w.usize(self.live);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        let n = r.count("arena slot count")?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let gen = r.u32()?;
            let value = Option::<T>::load(r)?;
            slots.push(ArenaSlot { gen, value });
        }
        let free = Vec::<u32>::load(r)?;
        let live = r.usize()?;
        let occupied = slots.iter().filter(|s| s.value.is_some()).count();
        if occupied != live {
            return Err(snap::SnapError::Corrupt(format!(
                "arena live count {live} != occupied slots {occupied}"
            )));
        }
        Ok(Arena { slots, free, live })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_round_trip_and_stale_handles() {
        let mut a = Arena::new();
        let h1 = a.insert("one");
        let h2 = a.insert("two");
        assert_eq!(a.get(h1), Some(&"one"));
        assert_eq!(a.remove(h1), Some("one"));
        assert_eq!(a.remove(h1), None);
        assert_eq!(a.get(h1), None);
        // Slot reuse must not resurrect the stale handle.
        let h3 = a.insert("three");
        assert_eq!(a.get(h1), None);
        assert_eq!(a.get(h3), Some(&"three"));
        assert_eq!(a.len(), 2);
        let _ = h2;
    }

    #[test]
    fn arena_retain_frees_slots() {
        let mut a = Arena::new();
        for i in 0..10 {
            a.insert(i);
        }
        a.retain(|&v| v % 2 == 0);
        assert_eq!(a.len(), 5);
        assert_eq!(a.iter().filter(|&&v| v % 2 != 0).count(), 0);
        // Freed slots get reused before the slab grows.
        for i in 10..15 {
            a.insert(i);
        }
        assert_eq!(a.slots.len(), 10);
    }
}
