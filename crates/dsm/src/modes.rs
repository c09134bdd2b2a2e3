//! The coherence disciplines the paper compares: a barrier, or a
//! `Global_Read` age bound (unbounded for the asynchronous baseline).

use std::fmt;

/// How a parallel program reads shared locations (§5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coherence {
    /// BSP-style: an explicit message barrier every iteration plus reads
    /// that require the peer value from the *current* iteration.
    Synchronous,
    /// The paper's contribution: block only until the cached value is at
    /// most `age` iterations older than the reader's current iteration
    /// (`Global_Read`). `age = 0` removes barrier overhead but exploits no
    /// asynchrony; larger ages trade staleness for progress; an age no
    /// run can reach is the uncontrolled asynchronous implementation
    /// ([`Coherence::ASYNC`]).
    PartialAsync {
        /// Maximum acceptable staleness in iterations.
        age: u64,
    },
}

impl Coherence {
    /// Never block: read whatever the local cache holds, however stale
    /// (slow-memory style; the uncontrolled asynchronous implementation).
    /// It is `Global_Read` at age ∞ — total asynchrony, the unbounded end
    /// of partial asynchrony.
    pub const ASYNC: Coherence = Coherence::PartialAsync { age: u64::MAX };

    /// Whether this mode runs a per-iteration barrier.
    pub fn uses_barrier(self) -> bool {
        matches!(self, Coherence::Synchronous)
    }

    /// The `Global_Read` age bound of this mode: 0 under a barrier,
    /// `u64::MAX` for [`Coherence::ASYNC`].
    pub fn age(self) -> u64 {
        match self {
            Coherence::Synchronous => 0,
            Coherence::PartialAsync { age } => age,
        }
    }

    /// Short label used in experiment tables (`sync`, `async`, `age=N`).
    pub fn label(self) -> String {
        match self {
            Coherence::Synchronous => "sync".into(),
            Coherence::ASYNC => "async".into(),
            Coherence::PartialAsync { age } => format!("age={age}"),
        }
    }

    /// Parse a [`Coherence::label`] string back into a mode (`sync`,
    /// `async`, `age=N`), e.g. for the `NSCC_MODES` environment variable.
    pub fn parse(label: &str) -> Option<Coherence> {
        match label.trim() {
            "sync" => Some(Coherence::Synchronous),
            "async" => Some(Coherence::ASYNC),
            s => s
                .strip_prefix("age=")
                .and_then(|n| n.parse().ok())
                .map(|age| Coherence::PartialAsync { age }),
        }
    }
}

impl fmt::Display for Coherence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Coherence::Synchronous.label(), "sync");
        assert_eq!(Coherence::ASYNC.label(), "async");
        assert_eq!(Coherence::PartialAsync { age: 5 }.label(), "age=5");
    }

    #[test]
    fn parse_round_trips_labels() {
        for mode in [
            Coherence::Synchronous,
            Coherence::ASYNC,
            Coherence::PartialAsync { age: 0 },
            Coherence::PartialAsync { age: 30 },
        ] {
            assert_eq!(Coherence::parse(&mode.label()), Some(mode));
        }
        assert_eq!(
            Coherence::parse(" age=5 "),
            Some(Coherence::PartialAsync { age: 5 })
        );
        // Age ∞ is the asynchronous mode, and it prints as `async`.
        let unbounded = Coherence::parse("age=18446744073709551615");
        assert_eq!(unbounded, Some(Coherence::ASYNC));
        assert_eq!(unbounded.map(Coherence::label).as_deref(), Some("async"));
        assert_eq!(Coherence::parse("age="), None);
        assert_eq!(Coherence::parse("age=x"), None);
        assert_eq!(Coherence::parse("serial"), None);
    }

    #[test]
    fn only_sync_uses_barrier() {
        assert!(Coherence::Synchronous.uses_barrier());
        assert!(!Coherence::ASYNC.uses_barrier());
        assert!(!Coherence::PartialAsync { age: 0 }.uses_barrier());
    }
}
