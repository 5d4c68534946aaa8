//! `latr-verify` — translation-coherence oracle for the Latr simulator.
//!
//! This crate is the *correctness layer* of the workspace: a shadow state
//! machine ([`CoherenceOracle`]) that the kernel crate threads through its
//! event loop whenever `MachineConfig::oracle` is set (the default).
//! It mirrors TLB contents per core, tracks published Latr states and
//! synchronous-shootdown transactions, and maintains vector clocks
//! ([`VClock`]) along the happens-before edges the protocol actually
//! creates. From that it checks, online, the invariants the paper states:
//!
//! * **Reclamation invariant (§3)** — no frame may be freed or reused
//!   while any TLB still caches a translation to it, and no access may be
//!   served through such a stale translation
//!   ([`ViolationKind::FreedWhileCached`],
//!   [`ViolationKind::ReusedWhileCached`],
//!   [`ViolationKind::AccessThroughFreedFrame`],
//!   [`ViolationKind::FillOfFreedFrame`]).
//! * **Migration barrier (§4.4)** — a NUMA hint fault may proceed only
//!   after every core named in the migration state's bitmask has swept
//!   ([`ViolationKind::MigrationBeforeSweepComplete`]).
//!
//! The first failed check freezes the oracle into a [`Violation`] carrying
//! a TSan-style trace: the offending event, the recent history touching
//! the same frame/page, and a verdict on whether any happens-before edge
//! ordered the racing pair. Later checks only bump a suppressed counter,
//! so the report always names the *root* race rather than its fallout.

pub mod clock;
pub mod event;
pub mod oracle;
mod pipe;

pub use clock::VClock;
pub use event::{Ctx, EventRecord, Note};
pub use oracle::{CoherenceOracle, Violation, ViolationKind};
