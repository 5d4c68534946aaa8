//! # latr-mem — memory-management substrate
//!
//! The virtual-memory machinery the simulated kernel (and the Latr policy)
//! operates on:
//!
//! * [`addr`] — page-granular address newtypes ([`Vpn`], [`Pfn`],
//!   [`VaRange`]);
//! * [`frame`] — a per-NUMA-node physical frame allocator with reference
//!   counts ([`FrameAllocator`]);
//! * [`page_table`] — the 512-entry leaf tables of an address space, kept
//!   sorted by index, with accessed/dirty bits and NUMA-hint PTEs
//!   ([`PageTable`]); the upper walk levels are priced, not built;
//! * [`vma`] — virtual memory areas and the per-address-space VMA tree
//!   ([`Vma`], [`VmaTree`]);
//! * [`mm`] — the address space (`mm_struct` analogue) tying the above
//!   together, including the *lazy-reclaim block list* Latr uses to keep
//!   virtual addresses out of circulation (§4.2);
//! * [`page_cache`] — file-backed shared pages (what Apache serves).
//!
//! Everything is deterministic, allocation-only simulation state — no
//! unsafe, no real memory mapping.

pub mod addr;
pub mod frame;
pub mod mm;
pub mod page_cache;
pub mod page_table;
pub mod vma;

pub use addr::{Pfn, VaRange, Vpn, PAGE_SHIFT, PAGE_SIZE};
pub use frame::{AllocError, FrameAllocator, FreeError, Pressure};
pub use mm::{MmId, MmStruct};
pub use page_cache::{FileId, PageCache};
pub use page_table::{PageTable, Pte, PteFlags};
pub use vma::{MapKind, Prot, Vma, VmaTree};
