//! # latr-sim — discrete-event simulation engine
//!
//! This crate provides the foundation every other crate in the Latr
//! reproduction builds on: simulated time, a deterministic event queue,
//! a seedable random-number generator, and log-scale histograms with
//! their summaries. The metric registry that names the machine's counters
//! and histograms, and the typed trace ring its events are recorded in,
//! live in `latr-kernel`, their only user.
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

pub use event::{EventId, EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use stats::{Histogram, Summary};
pub use time::{Nanos, Time, MICROSECOND, MILLISECOND, SECOND};
