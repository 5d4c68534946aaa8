//! # latr-sim — discrete-event simulation engine
//!
//! This crate provides the foundation every other crate in the Latr
//! reproduction builds on: simulated time, a deterministic event queue,
//! a seedable random-number generator, log-scale histograms with their
//! summaries, and a lightweight trace ring for debugging. The metric
//! registry that names the machine's counters and histograms lives in
//! `latr-kernel`, its only user.
//!
//! The engine is deliberately generic: it knows nothing about cores, TLBs or
//! page tables. The kernel crate defines the event payload type and drives
//! the loop.
//!
//! ## Example
//!
//! ```
//! use latr_sim::{EventQueue, Time, Nanos};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Time::from_ns(10), "b");
//! q.schedule(Time::from_ns(5), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t.as_ns(), e), (5, "a"));
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t.as_ns(), e), (10, "b"));
//! ```

mod event;
mod rng;
mod stats;
mod time;
mod trace;

pub use event::{EventId, EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use stats::{Histogram, Summary};
pub use time::{Nanos, Time, MICROSECOND, MILLISECOND, SECOND};
pub use trace::{TraceEntry, TraceRing};
