//! Offline stand-in for the `crossbeam` crate.
//!
//! Nothing in the workspace depends on `crossbeam` any more. This file
//! stays because `crates/perf/build-offline.sh` — frozen with the rest of
//! `crates/perf`, and the build the benchmark falls back to when the
//! registry is unreachable — compiles it by path and passes the result to
//! `nscc-sim` as an (unused) `--extern`. Delete it together with that line
//! of the script when ROADMAP item 1 unfreezes the harness;
//! `tools/offline/guard.sh` fails if it goes missing before then.
//!
//! `crossbeam::channel::{unbounded, Sender, Receiver}` over `std::sync::mpsc`.

pub mod channel {
    use std::fmt;
    use std::sync::mpsc;

    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    pub struct Receiver<T>(mpsc::Receiver<T>);

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg).map_err(|mpsc::SendError(m)| SendError(m))
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }
    }
}
