//! `crossbeam::channel` as re-exports of `std::sync::mpsc`.
//!
//! No crate of the workspace depends on this: the engine uses
//! `std::sync::mpsc` and `std::thread::scope` directly. It is kept only
//! because the standalone `benchmark/` package still names
//! `crossbeam::channel`, which then measures the very channel the engine
//! uses. A `benchmark`-archetype PR that switches `benchmark/` to
//! `std::sync::mpsc` deletes this crate.

pub mod channel {
    //! The std channel under crossbeam's names.

    pub use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};

    /// An unbounded channel: `std::sync::mpsc::channel`.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
