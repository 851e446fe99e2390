//! Shared mutable handles to per-run state.
//!
//! An `Rc<RefCell<T>>`, with two users: every layer of one run holds a
//! clone of the same [`crate::RecorderHandle`], and an armed conformance
//! checker is read through the same cell type after the recorder's tap
//! has fed it. Detectors keep their evidence as plain run state instead
//! (the GRC guards' reports live in the guards, DOMINO reads the
//! network's transmission log). Runs never share a cell and each run is
//! single-threaded — the campaign runner builds and executes a run inside
//! one worker closure — so interior mutability without atomics is exactly
//! right; the borrow sits on the per-event hot path. What crosses threads
//! is plain data. Campaign aggregation state that genuinely crosses
//! worker threads (e.g. the bench sink) uses an explicit `Arc<Mutex<…>>`
//! at that one site instead.

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

/// A cheaply clonable shared cell (`Rc<RefCell<T>>`, single-threaded).
pub struct Shared<T>(Rc<RefCell<T>>);

impl<T> Shared<T> {
    /// Wraps `value` in a new shared cell.
    pub fn new(value: T) -> Self {
        Shared(Rc::new(RefCell::new(value)))
    }

    /// Borrows the cell for reading.
    ///
    /// # Panics
    ///
    /// Panics if the cell is currently mutably borrowed.
    pub fn borrow(&self) -> Ref<'_, T> {
        self.0.borrow()
    }

    /// Borrows the cell for writing.
    ///
    /// # Panics
    ///
    /// Panics if the cell is currently borrowed.
    pub fn borrow_mut(&self) -> RefMut<'_, T> {
        self.0.borrow_mut()
    }

    /// Whether `self` and `other` point at the same cell.
    pub fn same_cell(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Rc::clone(&self.0))
    }
}

// Deliberately does not require `T: Debug`: handles are embedded in
// `Debug`-deriving hosts (MAC, TCP sender) that must not grow bounds.
impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Shared").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Shared::new(1u32);
        let b = a.clone();
        *b.borrow_mut() += 41;
        assert_eq!(*a.borrow(), 42);
        assert!(a.same_cell(&b));
        assert!(!a.same_cell(&Shared::new(1)));
    }
}
