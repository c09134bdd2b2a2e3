//! Offline stand-in for the `parking_lot` crate.
//!
//! Nothing in the workspace depends on `parking_lot` any more. This file
//! stays because `crates/perf/build-offline.sh` — frozen with the rest of
//! `crates/perf`, and the build the benchmark falls back to when the
//! registry is unreachable — compiles it by path and passes the result to
//! every crate as an (unused) `--extern`. Delete it together with that
//! line of the script when ROADMAP item 1 unfreezes the harness;
//! `tools/offline/guard.sh` fails if it goes missing before then.
//!
//! Wraps `std::sync::Mutex` behind parking_lot's poison-free API surface.

use std::fmt;

pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.0.try_lock().ok()
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}
