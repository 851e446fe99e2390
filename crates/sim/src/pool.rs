//! Allocation-free hot-path storage: a generation-checked [`Arena`] for
//! records referenced from in-flight events, and a recycling [`Pool`] of
//! reusable buffers handed out as RAII [`PooledBox`]es.
//!
//! Both exist for the same reason the scheduler keeps its events in a
//! generation-stamped slab: the simulator dispatches millions of events
//! per run, and a heap allocation (or `HashMap` probe) per event
//! dominates the profile. The
//! arena replaces `HashMap<u64, T>` keyed by monotonically growing ids;
//! the pool replaces `Vec::new()` per MAC handler invocation.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

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
    /// Reassembles a handle from its raw parts, for typed wrappers (the
    /// MAC frame arena) that mint their own handle type over an `Arena`.
    /// A fabricated handle is safe: lookups through a wrong generation
    /// just return `None`.
    pub fn from_raw(idx: u32, gen: u32) -> Self {
        ArenaHandle { idx, gen }
    }

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
        let n = r.usize()?;
        if n > r.remaining() {
            return Err(snap::SnapError::Corrupt(format!(
                "arena slot count {n} exceeds input"
            )));
        }
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

/// Reset-on-recycle behaviour for [`Pool`] values.
///
/// Called when a [`PooledBox`] drops, before the value returns to the
/// pool; it must erase per-checkout state while keeping backing capacity.
pub trait Recycle {
    /// Clears the value for reuse.
    fn recycle(&mut self);
}

impl<T> Recycle for Vec<T> {
    fn recycle(&mut self) {
        self.clear();
    }
}

/// A free-list of reusable `T`s. Cloning shares the same free-list.
///
/// [`Pool::take`] pops a recycled value (or makes a fresh default one);
/// the returned [`PooledBox`] puts it back on drop. Multiple boxes can be
/// outstanding at once, so re-entrant checkouts are fine.
#[derive(Debug)]
pub struct Pool<T: Recycle + Default> {
    free: Rc<RefCell<Vec<T>>>,
}

impl<T: Recycle + Default> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Pool {
            free: Rc::clone(&self.free),
        }
    }
}

impl<T: Recycle + Default> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Recycle + Default> Pool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool {
            free: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Checks a value out of the pool (recycled if available, otherwise
    /// freshly defaulted).
    pub fn take(&self) -> PooledBox<T> {
        let value = self.free.borrow_mut().pop().unwrap_or_default();
        PooledBox {
            value: Some(value),
            home: Rc::clone(&self.free),
        }
    }

    /// Number of values currently resting in the pool.
    pub fn idle(&self) -> usize {
        self.free.borrow().len()
    }
}

/// Owning smart pointer over a pooled value; recycles it on drop.
#[derive(Debug)]
pub struct PooledBox<T: Recycle + Default> {
    value: Option<T>,
    home: Rc<RefCell<Vec<T>>>,
}

impl<T: Recycle + Default> Deref for PooledBox<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value.as_ref().expect("value present until drop")
    }
}

impl<T: Recycle + Default> DerefMut for PooledBox<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("value present until drop")
    }
}

impl<T: Recycle + Default> Drop for PooledBox<T> {
    fn drop(&mut self) {
        if let Some(mut v) = self.value.take() {
            v.recycle();
            self.home.borrow_mut().push(v);
        }
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

    #[test]
    fn pool_recycles_capacity() {
        let pool: Pool<Vec<u32>> = Pool::new();
        let cap = {
            let mut b = pool.take();
            b.extend([1, 2, 3]);
            b.capacity()
        };
        assert_eq!(pool.idle(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(b.capacity(), cap, "recycled buffer keeps its capacity");
    }

    #[test]
    fn pool_supports_nested_checkouts() {
        let pool: Pool<Vec<u8>> = Pool::new();
        let a = pool.take();
        let b = pool.take();
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn pool_recycles_under_nesting() {
        // A re-entrant MAC handler checks a second buffer out while the
        // first is still live. Recycling mid-nesting must hand the inner
        // drop's buffer back out cleared, with capacity intact, without
        // disturbing the still-outstanding outer checkout.
        let pool: Pool<Vec<u32>> = Pool::new();
        let mut outer = pool.take();
        outer.extend([10, 20, 30]);
        let cap = {
            let mut inner = pool.take();
            inner.extend(0..64);
            let cap = inner.capacity();
            drop(inner);
            cap
        };
        assert_eq!(pool.idle(), 1, "only the inner buffer returned");
        let reused = pool.take();
        assert!(reused.is_empty(), "nested recycle must clear the buffer");
        assert_eq!(reused.capacity(), cap, "nested recycle keeps capacity");
        assert_eq!(
            &*outer,
            &[10, 20, 30],
            "outer checkout unaffected by inner recycle"
        );
        drop(reused);
        drop(outer);
        assert_eq!(pool.idle(), 2);
        // Clones share one free-list: a buffer recycled through a clone
        // is visible to (and reusable from) the original.
        let alias = pool.clone();
        let c = alias.take();
        assert_eq!(pool.idle(), 1);
        drop(c);
        assert_eq!(pool.idle(), 2);
    }
}
