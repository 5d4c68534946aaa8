//! Physical frame allocator.
//!
//! A per-NUMA-node allocator with per-frame reference counts that pays
//! only for the frames a run touches (see [`FrameAllocator`]).
//! Reference counting is what enforces the paper's key invariant for free
//! operations: "since the physical page reference count is non-zero, Latr
//! ensures that the physical pages are not reused" (§4.2). A frame returns
//! to the free list only when its last reference is dropped.
//!
//! Frames are numbered node-major: node `n` owns
//! `[n * frames_per_node, (n+1) * frames_per_node)`, so a frame's home node
//! is recoverable from its number — which the AutoNUMA model relies on.
//!
//! # Memory pressure
//!
//! Lazy reclamation parks freed frames for up to an epoch before they
//! return to the free lists, so under allocation storms the pool can drain
//! while perfectly-freed memory sits gated in reclamation queues. The
//! allocator therefore tracks, per node:
//!
//! - **watermarks** (`low` / `min`, à la Linux's zone watermarks): free-count
//!   thresholds the kernel polices to trigger expedited reclamation and, at
//!   the floor, synchronous fallback;
//! - **reclamation debt**: frames that have been fully freed by the VM but
//!   are still parked in a lazy-reclamation queue (refcount still held), so
//!   `free + allocated == total` and `debt <= allocated` hold at all times.
//!
//! Misuse is a typed, recoverable error — [`AllocError`] for exhaustion and
//! [`FreeError`] for refcount underflow / references on free frames —
//! rather than a silent `None` or a panic deep in a sim run.

use crate::addr::Pfn;
use latr_arch::NodeId;
use std::fmt;

/// Why a frame allocation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// Every node's free list is empty (the `alloc` fallback path ran the
    /// whole machine dry). `node` is the node originally requested.
    OutOfMemory {
        /// The node the caller asked for.
        node: NodeId,
    },
    /// The requested node is exhausted and the caller demanded exactness
    /// (`alloc_exact`, the migration path).
    NodeExhausted {
        /// The exhausted node.
        node: NodeId,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { node } => {
                write!(
                    f,
                    "out of memory: no free frames on any node (requested {node:?})"
                )
            }
            AllocError::NodeExhausted { node } => {
                write!(f, "node {node:?} exhausted (exact allocation, no fallback)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// A refcount operation on a frame that is not allocated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FreeError {
    /// `dec_ref` on a frame whose refcount is already zero — a double free.
    DoubleFree {
        /// The frame freed twice.
        pfn: Pfn,
    },
    /// `inc_ref` on a free frame — taking a reference on memory nobody
    /// owns is always a bug.
    RefOnFree {
        /// The free frame.
        pfn: Pfn,
    },
}

impl fmt::Display for FreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeError::DoubleFree { pfn } => write!(f, "double free of frame {pfn:?}"),
            FreeError::RefOnFree { pfn } => write!(f, "inc_ref on free frame {pfn:?}"),
        }
    }
}

impl std::error::Error for FreeError {}

/// How far below its watermarks a node's free pool has sunk.
///
/// Ordered: `Normal < Low < Min`, so `max()` across nodes gives the
/// machine's worst pressure.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Pressure {
    /// Free frames above the low watermark; no action needed.
    Normal,
    /// Below the low watermark: expedite reclamation before the pool
    /// drains.
    Low,
    /// Below the min watermark: the reserve is being eaten; forward
    /// progress must not depend on lazy timing any more.
    Min,
}

/// The per-node, refcounting physical frame allocator.
///
/// Frames cost nothing until a run touches them. Each node hands out
/// frames from two places: a LIFO stack of freed frames, and a
/// fresh-frame frontier that walks up from the node's base PFN. An
/// allocation pops the stack first and otherwise takes the frontier, so
/// the lowest never-used PFN comes out first and freed frames are reused
/// last-in-first-out. Each touched frame has one `u32` slot in a dense
/// vector over the prefix `[base, base + frontier)`, holding its refcount
/// and its reclamation-debt parked bit, so the allocator's memory scales
/// with the frames a run uses, not with `frames_per_node`.
///
/// ```
/// use latr_mem::FrameAllocator;
/// use latr_arch::NodeId;
/// let mut fa = FrameAllocator::new(2, 1024);
/// let f = fa.alloc(NodeId(1)).unwrap();
/// assert_eq!(fa.node_of(f), NodeId(1));
/// assert_eq!(fa.refcount(f), 1);
/// fa.inc_ref(f).unwrap();
/// assert_eq!(fa.dec_ref(f).unwrap(), 1); // still referenced
/// assert_eq!(fa.dec_ref(f).unwrap(), 0); // now free again
/// assert!(!fa.is_allocated(f));
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    frames_per_node: u64,
    nodes: Vec<NodeFrames>,
    low_watermark: u64,
    min_watermark: u64,
    allocations: u64,
}

/// A frame slot's parked bit: the frame's final reference sits in a lazy
/// reclamation queue and is counted in its node's debt. The bit survives
/// the frame's free and reuse until [`FrameAllocator::unpark_debt`]
/// clears it.
const PARKED: u32 = 1 << 31;
/// A frame slot's refcount bits.
const REFS: u32 = PARKED - 1;

/// One node's frames: `slots.len()` is the frontier.
#[derive(Debug, Clone)]
struct NodeFrames {
    /// PFN of the node's first frame.
    base: u64,
    /// Refcount and parked bit of each touched frame, indexed by
    /// `pfn - base`.
    slots: Vec<u32>,
    /// Freed frames below the frontier, reused last-in-first-out.
    freed: Vec<Pfn>,
    /// Frames currently allocated (`free + allocated == total`).
    allocated: u64,
    /// Freed-but-parked frames: the VM dropped its last mapping but a
    /// lazy-reclamation queue still holds the final reference.
    debt: u64,
    /// Low-water mark of the free count over the allocator's life.
    min_free: u64,
}

impl FrameAllocator {
    /// Creates an allocator with `nodes` NUMA nodes of `frames_per_node`
    /// frames each. Watermarks default to zero (pressure never reported);
    /// see [`FrameAllocator::set_watermarks`]. Construction allocates
    /// nothing per frame.
    ///
    /// # Panics
    ///
    /// Panics if there are no nodes or no frames.
    pub fn new(nodes: usize, frames_per_node: u64) -> Self {
        assert!(
            nodes > 0 && frames_per_node > 0,
            "allocator must own memory"
        );
        FrameAllocator {
            frames_per_node,
            nodes: (0..nodes as u64)
                .map(|n| NodeFrames {
                    base: n * frames_per_node,
                    slots: Vec::new(),
                    freed: Vec::new(),
                    allocated: 0,
                    debt: 0,
                    min_free: frames_per_node,
                })
                .collect(),
            low_watermark: 0,
            min_watermark: 0,
            allocations: 0,
        }
    }

    /// Number of NUMA nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Frames each node owns.
    pub fn frames_per_node(&self) -> u64 {
        self.frames_per_node
    }

    /// Sets the per-node low/min free-frame watermarks.
    ///
    /// # Panics
    ///
    /// Panics if `low < min` — the low watermark is the early-warning line
    /// and must sit at or above the floor.
    pub fn set_watermarks(&mut self, low: u64, min: u64) {
        assert!(low >= min, "low watermark {low} below min watermark {min}");
        self.low_watermark = low;
        self.min_watermark = min;
    }

    /// The low (early-warning) watermark.
    pub fn low_watermark(&self) -> u64 {
        self.low_watermark
    }

    /// The min (reserve floor) watermark.
    pub fn min_watermark(&self) -> u64 {
        self.min_watermark
    }

    /// Pressure on `node` with the watermarks raised by `boost` frames
    /// (fault injection flaps watermarks this way; pass 0 normally).
    pub fn pressure_boosted(&self, node: NodeId, boost: u64) -> Pressure {
        let free = self.free_on_node(node) as u64;
        if free < self.min_watermark.saturating_add(boost) {
            Pressure::Min
        } else if free < self.low_watermark.saturating_add(boost) {
            Pressure::Low
        } else {
            Pressure::Normal
        }
    }

    /// Pressure on `node` against the configured watermarks.
    pub fn pressure(&self, node: NodeId) -> Pressure {
        self.pressure_boosted(node, 0)
    }

    /// The home node of a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is outside the machine.
    pub fn node_of(&self, pfn: Pfn) -> NodeId {
        let node = pfn.0 / self.frames_per_node;
        assert!(
            (node as usize) < self.nodes.len(),
            "frame {pfn:?} outside machine"
        );
        NodeId(node as u8)
    }

    /// Allocates a frame on `node` with reference count 1, falling back to
    /// the other nodes in order if it is exhausted. Fails with
    /// [`AllocError::OutOfMemory`] when the whole machine is out of frames.
    pub fn alloc(&mut self, node: NodeId) -> Result<Pfn, AllocError> {
        let n = node.0 as usize;
        assert!(n < self.nodes.len(), "no such node {node:?}");
        let order = std::iter::once(n).chain((0..self.nodes.len()).filter(|&i| i != n));
        for candidate in order {
            if let Some(pfn) = self.take(candidate) {
                return Ok(pfn);
            }
        }
        Err(AllocError::OutOfMemory { node })
    }

    /// Allocates a frame strictly on `node`; [`AllocError::NodeExhausted`]
    /// if that node is out (used by the migration path, which aborts rather
    /// than migrating to a different node).
    pub fn alloc_exact(&mut self, node: NodeId) -> Result<Pfn, AllocError> {
        let n = node.0 as usize;
        assert!(n < self.nodes.len(), "no such node {node:?}");
        self.take(n).ok_or(AllocError::NodeExhausted { node })
    }

    /// Takes a frame from node `n` with refcount 1: the most recently
    /// freed one, else the frontier's. `None` when the node is out.
    fn take(&mut self, n: usize) -> Option<Pfn> {
        let fpn = self.frames_per_node;
        let node = &mut self.nodes[n];
        let pfn = match node.freed.pop() {
            Some(pfn) => {
                let slot = &mut node.slots[(pfn.0 - node.base) as usize];
                *slot = (*slot & PARKED) | 1;
                pfn
            }
            None if (node.slots.len() as u64) < fpn => {
                let pfn = Pfn(node.base + node.slots.len() as u64);
                node.slots.push(1);
                pfn
            }
            None => return None,
        };
        node.allocated += 1;
        node.min_free = node.min_free.min(fpn - node.allocated);
        self.allocations += 1;
        Some(pfn)
    }

    /// Mutable slot of a touched frame.
    fn slot_mut(&mut self, pfn: Pfn) -> Option<&mut u32> {
        let node = self
            .nodes
            .get_mut((pfn.0 / self.frames_per_node) as usize)?;
        node.slots.get_mut((pfn.0 - node.base) as usize)
    }

    /// Mutable slot of an allocated frame (refcount above zero).
    fn live_slot(&mut self, pfn: Pfn) -> Option<&mut u32> {
        self.slot_mut(pfn).filter(|slot| **slot & REFS > 0)
    }

    /// Current reference count of a frame (0 when free, which includes
    /// every frame beyond its node's frontier).
    pub fn refcount(&self, pfn: Pfn) -> u32 {
        let Some(node) = self.nodes.get((pfn.0 / self.frames_per_node) as usize) else {
            return 0;
        };
        node.slots
            .get((pfn.0 - node.base) as usize)
            .map_or(0, |slot| slot & REFS)
    }

    /// Whether a frame is currently allocated.
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        self.refcount(pfn) > 0
    }

    /// Adds a reference (page shared by another mapping). Referencing a
    /// free frame is a hard [`FreeError::RefOnFree`]. Returns the new count.
    pub fn inc_ref(&mut self, pfn: Pfn) -> Result<u32, FreeError> {
        let slot = self.live_slot(pfn).ok_or(FreeError::RefOnFree { pfn })?;
        *slot += 1;
        Ok(*slot & REFS)
    }

    /// Drops a reference; when the count reaches zero the frame returns to
    /// its home node's free stack. Returns the new count. Dropping a
    /// reference on a free frame is a hard [`FreeError::DoubleFree`].
    pub fn dec_ref(&mut self, pfn: Pfn) -> Result<u32, FreeError> {
        let slot = self.live_slot(pfn).ok_or(FreeError::DoubleFree { pfn })?;
        *slot -= 1;
        let rc = *slot & REFS;
        if rc == 0 {
            let node = &mut self.nodes[(pfn.0 / self.frames_per_node) as usize];
            node.freed.push(pfn);
            node.allocated -= 1;
        }
        Ok(rc)
    }

    /// Records `frames` frames on `node` entering lazy reclamation: freed
    /// by the VM, final reference parked in a deferred queue.
    ///
    /// # Panics
    ///
    /// Panics if debt would exceed the node's allocated frames — debt is a
    /// subset of allocations by construction.
    fn note_debt(&mut self, node: NodeId, frames: u64) {
        let n = &mut self.nodes[node.0 as usize];
        n.debt += frames;
        assert!(
            n.debt <= n.allocated,
            "reclamation debt {} exceeds allocated {} on {node:?}",
            n.debt,
            n.allocated,
        );
    }

    /// Records `frames` frames on `node` leaving lazy reclamation (the
    /// parked reference was dropped or re-owned).
    ///
    /// # Panics
    ///
    /// Panics on underflow — settling debt that was never noted.
    fn settle_debt(&mut self, node: NodeId, frames: u64) {
        let n = &mut self.nodes[node.0 as usize];
        assert!(
            n.debt >= frames,
            "settling {frames} frames of debt on {node:?} but only {} noted",
            n.debt,
        );
        n.debt -= frames;
    }

    /// Parks `pfn` in the reclamation-debt ledger when its caller holds the
    /// final reference (refcount 1) and it is not parked already, noting
    /// one frame of debt on its home node. Returns whether it was parked
    /// now.
    pub fn park_debt(&mut self, pfn: Pfn) -> bool {
        match self.slot_mut(pfn) {
            Some(slot) if *slot == 1 => *slot |= PARKED,
            _ => return false,
        }
        self.note_debt(self.node_of(pfn), 1);
        true
    }

    /// Takes `pfn` out of the reclamation-debt ledger, settling one frame
    /// of debt on its home node. Returns whether it was parked.
    pub fn unpark_debt(&mut self, pfn: Pfn) -> bool {
        match self.slot_mut(pfn) {
            Some(slot) if *slot & PARKED != 0 => *slot &= !PARKED,
            _ => return false,
        }
        self.settle_debt(self.node_of(pfn), 1);
        true
    }

    /// Frames on `node` currently parked in lazy reclamation.
    pub fn reclaim_debt(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].debt
    }

    /// Machine-wide reclamation debt.
    pub fn reclaim_debt_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.debt).sum()
    }

    /// Frames currently free on `node`: the freed stack plus everything
    /// beyond the frontier.
    pub fn free_on_node(&self, node: NodeId) -> usize {
        let n = &self.nodes[node.0 as usize];
        n.freed.len() + (self.frames_per_node - n.slots.len() as u64) as usize
    }

    /// Frames currently allocated on `node` (including reclamation debt).
    pub fn allocated_on_node(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].allocated
    }

    /// The fewest free frames `node` has ever had.
    pub fn min_free_on_node(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].min_free
    }

    /// The fewest free frames any node has ever had.
    pub fn min_free(&self) -> u64 {
        self.nodes.iter().map(|n| n.min_free).min().unwrap_or(0)
    }

    /// Checks per-node conservation: every touched frame is either
    /// allocated or on the freed stack (so `free + allocated == total`),
    /// and `debt <= allocated`. O(touched frames); the proptest suite
    /// leans on this.
    pub fn conservation_holds(&self) -> bool {
        self.nodes.iter().all(|n| {
            let live = n.slots.iter().filter(|&&slot| slot & REFS > 0).count();
            live as u64 == n.allocated
                && n.freed.len() + live == n.slots.len()
                && n.debt <= n.allocated
        })
    }

    /// Total allocations performed.
    pub fn total_allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of currently allocated frames.
    pub fn allocated_count(&self) -> usize {
        self.nodes.iter().map(|n| n.allocated as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_prefers_requested_node() {
        let mut fa = FrameAllocator::new(2, 8);
        let f = fa.alloc(NodeId(1)).unwrap();
        assert_eq!(fa.node_of(f), NodeId(1));
        assert_eq!(fa.free_on_node(NodeId(1)), 7);
        assert_eq!(fa.free_on_node(NodeId(0)), 8);
    }

    #[test]
    fn alloc_falls_back_when_node_full() {
        let mut fa = FrameAllocator::new(2, 2);
        let _a = fa.alloc(NodeId(0)).unwrap();
        let _b = fa.alloc(NodeId(0)).unwrap();
        let c = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.node_of(c), NodeId(1));
    }

    #[test]
    fn alloc_exact_refuses_fallback() {
        let mut fa = FrameAllocator::new(2, 1);
        let _a = fa.alloc_exact(NodeId(0)).unwrap();
        assert_eq!(
            fa.alloc_exact(NodeId(0)),
            Err(AllocError::NodeExhausted { node: NodeId(0) })
        );
        assert!(fa.alloc_exact(NodeId(1)).is_ok());
    }

    #[test]
    fn machine_exhaustion_is_typed() {
        let mut fa = FrameAllocator::new(2, 1);
        assert!(fa.alloc(NodeId(0)).is_ok());
        assert!(fa.alloc(NodeId(0)).is_ok());
        assert_eq!(
            fa.alloc(NodeId(0)),
            Err(AllocError::OutOfMemory { node: NodeId(0) })
        );
    }

    #[test]
    fn refcount_lifecycle() {
        let mut fa = FrameAllocator::new(1, 4);
        let f = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.refcount(f), 1);
        assert_eq!(fa.inc_ref(f).unwrap(), 2);
        assert_eq!(fa.inc_ref(f).unwrap(), 3);
        assert_eq!(fa.refcount(f), 3);
        assert_eq!(fa.dec_ref(f).unwrap(), 2);
        assert_eq!(fa.dec_ref(f).unwrap(), 1);
        assert!(fa.is_allocated(f));
        assert_eq!(fa.dec_ref(f).unwrap(), 0);
        assert!(!fa.is_allocated(f));
        assert_eq!(fa.free_on_node(NodeId(0)), 4);
    }

    #[test]
    fn freed_frame_is_reusable() {
        let mut fa = FrameAllocator::new(1, 1);
        let f = fa.alloc(NodeId(0)).unwrap();
        fa.dec_ref(f).unwrap();
        let g = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(f, g);
        assert_eq!(fa.total_allocations(), 2);
    }

    #[test]
    fn double_free_is_a_typed_error() {
        let mut fa = FrameAllocator::new(1, 1);
        let f = fa.alloc(NodeId(0)).unwrap();
        fa.dec_ref(f).unwrap();
        assert_eq!(fa.dec_ref(f), Err(FreeError::DoubleFree { pfn: f }));
        // The failed free must not have corrupted the free list.
        assert_eq!(fa.free_on_node(NodeId(0)), 1);
        assert!(fa.conservation_holds());
    }

    #[test]
    fn inc_ref_on_free_is_a_typed_error() {
        let mut fa = FrameAllocator::new(1, 1);
        assert_eq!(
            fa.inc_ref(Pfn(0)),
            Err(FreeError::RefOnFree { pfn: Pfn(0) })
        );
    }

    #[test]
    fn node_of_is_node_major() {
        let fa = FrameAllocator::new(4, 100);
        assert_eq!(fa.node_of(Pfn(0)), NodeId(0));
        assert_eq!(fa.node_of(Pfn(99)), NodeId(0));
        assert_eq!(fa.node_of(Pfn(100)), NodeId(1));
        assert_eq!(fa.node_of(Pfn(399)), NodeId(3));
    }

    #[test]
    fn allocated_count_tracks_live_frames() {
        let mut fa = FrameAllocator::new(1, 8);
        let a = fa.alloc(NodeId(0)).unwrap();
        let _b = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.allocated_count(), 2);
        fa.dec_ref(a).unwrap();
        assert_eq!(fa.allocated_count(), 1);
    }

    #[test]
    fn watermarks_classify_pressure() {
        let mut fa = FrameAllocator::new(1, 10);
        fa.set_watermarks(4, 2);
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Normal);
        for _ in 0..6 {
            fa.alloc(NodeId(0)).unwrap();
        }
        // 4 free == low watermark: not yet below it.
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Normal);
        fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Low);
        fa.alloc(NodeId(0)).unwrap();
        fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Min);
        // A boost (watermark flap) raises the bar.
        assert_eq!(fa.pressure_boosted(NodeId(0), 0), Pressure::Min);
        fa.set_watermarks(0, 0);
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Normal);
        assert_eq!(fa.pressure_boosted(NodeId(0), 5), Pressure::Min);
    }

    #[test]
    #[should_panic(expected = "low watermark")]
    fn inverted_watermarks_rejected() {
        let mut fa = FrameAllocator::new(1, 10);
        fa.set_watermarks(1, 2);
    }

    #[test]
    fn debt_and_conservation() {
        let mut fa = FrameAllocator::new(2, 4);
        let a = fa.alloc(NodeId(0)).unwrap();
        let b = fa.alloc(NodeId(0)).unwrap();
        assert!(fa.conservation_holds());
        // Both frames freed by the VM but parked in lazy reclamation: the
        // queue holds the final reference, the allocator holds the debt.
        fa.note_debt(NodeId(0), 2);
        assert_eq!(fa.reclaim_debt(NodeId(0)), 2);
        assert_eq!(fa.reclaim_debt(NodeId(1)), 0);
        assert_eq!(fa.reclaim_debt_total(), 2);
        assert!(fa.conservation_holds());
        // Reclamation releases them: debt settles, refs drop, frames free.
        fa.settle_debt(NodeId(0), 2);
        fa.dec_ref(a).unwrap();
        fa.dec_ref(b).unwrap();
        assert_eq!(fa.reclaim_debt_total(), 0);
        assert_eq!(fa.free_on_node(NodeId(0)), 4);
        assert!(fa.conservation_holds());
    }

    #[test]
    fn parked_bit_keeps_the_debt_ledger() {
        let mut fa = FrameAllocator::new(2, 4);
        let a = fa.alloc(NodeId(1)).unwrap();
        let shared = fa.alloc(NodeId(1)).unwrap();
        fa.inc_ref(shared).unwrap();
        // Only a final reference parks, and only once.
        assert!(fa.park_debt(a));
        assert!(!fa.park_debt(a));
        assert!(!fa.park_debt(shared));
        assert!(!fa.park_debt(Pfn(3)), "an untouched frame parks nothing");
        assert_eq!(fa.reclaim_debt(NodeId(1)), 1);
        // The bit is not part of the refcount.
        assert_eq!(fa.refcount(a), 1);
        assert_eq!(fa.inc_ref(a).unwrap(), 2);
        assert_eq!(fa.dec_ref(a).unwrap(), 1);
        assert!(fa.conservation_holds());
        // It survives the frame's free and reuse until unparked.
        assert_eq!(fa.dec_ref(a).unwrap(), 0);
        assert_eq!(fa.alloc(NodeId(1)).unwrap(), a);
        assert!(!fa.park_debt(a));
        assert!(fa.unpark_debt(a));
        assert!(!fa.unpark_debt(a));
        assert!(!fa.unpark_debt(shared));
        assert_eq!(fa.reclaim_debt_total(), 0);
        assert_eq!(fa.refcount(a), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds allocated")]
    fn debt_cannot_exceed_allocations() {
        let mut fa = FrameAllocator::new(1, 4);
        let _a = fa.alloc(NodeId(0)).unwrap();
        fa.note_debt(NodeId(0), 2);
    }

    #[test]
    #[should_panic(expected = "settling")]
    fn settling_unnoted_debt_panics() {
        let mut fa = FrameAllocator::new(1, 4);
        fa.settle_debt(NodeId(0), 1);
    }

    #[test]
    fn min_free_tracks_low_water() {
        let mut fa = FrameAllocator::new(1, 4);
        assert_eq!(fa.min_free(), 4);
        let a = fa.alloc(NodeId(0)).unwrap();
        let b = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.min_free_on_node(NodeId(0)), 2);
        fa.dec_ref(a).unwrap();
        fa.dec_ref(b).unwrap();
        // Frees do not erase the low-water mark.
        assert_eq!(fa.min_free(), 2);
    }
}
