//! The oracle-mirrored TLB and frame wrappers, and the TLB invalidation
//! helpers the policies call.
//!
//! Every TLB and frame-lifetime mutation goes through a thin wrapper
//! here that mirrors the action into the shadow oracle (`latr-verify`)
//! when it is enabled. Policies call the `oracle_note_*` methods
//! unconditionally; they do nothing while the oracle is off.

use super::Machine;
use latr_arch::{CpuId, CpuMask, TlbEntry};
use latr_mem::{AllocError, FileId, MmId, Pfn, VaRange, Vpn};

impl Machine {
    /// The oracle's verdict: the first coherence violation detected, if
    /// any. `None` when the run is clean (or the oracle is disabled).
    pub fn oracle_violation(&self) -> Option<&latr_verify::Violation> {
        self.oracle.as_ref().and_then(|o| o.violation())
    }

    /// How many events the oracle observed (0 when disabled); lets tests
    /// assert the oracle actually shadowed the run.
    pub fn oracle_events_observed(&self) -> u64 {
        self.oracle.as_ref().map_or(0, |o| o.events_observed())
    }

    /// Called by the policy when it publishes a Latr state, so the oracle
    /// tracks the pending bitmask and the publish→sweep ordering edge.
    pub fn oracle_note_publish(
        &mut self,
        initiator: CpuId,
        mm: MmId,
        range: VaRange,
        targets: CpuMask,
        migration: bool,
    ) {
        if let Some(o) = self.oracle.as_mut() {
            o.note_publish(initiator, mm, range, targets, migration, self.queue.now());
        }
    }

    /// Called by the policy when `cpu` sweeps the states covering
    /// `(mm, range)`: its local invalidations are done and its bits clear.
    pub fn oracle_note_sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange) {
        if let Some(o) = self.oracle.as_mut() {
            o.note_sweep(cpu, mm, range, self.queue.now());
        }
    }

    /// Installs a translation into `cpu`'s TLB, mirroring the fill — and
    /// any capacity evictions it displaced — into the oracle.
    pub(super) fn tlb_insert(&mut self, cpu: CpuId, entry: TlbEntry) {
        self.cores[cpu.index()].tlb.insert(entry);
        if self.oracle.is_some() {
            let now = self.now();
            let allocated = self.frames.is_allocated(Pfn(entry.pfn));
            let evicted = self.cores[cpu.index()].tlb.drain_evicted();
            if let Some(o) = self.oracle.as_mut() {
                o.note_evictions(cpu, evicted.as_slice(), now);
                o.note_fill(
                    cpu,
                    entry.pcid,
                    Vpn(entry.vpn),
                    Pfn(entry.pfn),
                    allocated,
                    now,
                );
            }
        }
    }

    /// TLB lookup on `cpu`; a hit is mirrored as an access through the
    /// cached translation (the oracle checks the frame is still live).
    pub(super) fn tlb_lookup(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn) -> Option<TlbEntry> {
        let hit = self.cores[cpu.index()].tlb.lookup(pcid, vpn.0);
        if self.oracle.is_some() {
            let now = self.now();
            let allocated = hit.map(|e| self.frames.is_allocated(Pfn(e.pfn)));
            // An L2→L1 promotion can itself displace an L1 slot.
            let evicted = self.cores[cpu.index()].tlb.drain_evicted();
            if let Some(o) = self.oracle.as_mut() {
                o.note_evictions(cpu, evicted.as_slice(), now);
                if let (Some(e), Some(allocated)) = (hit, allocated) {
                    o.note_hit(cpu, pcid, vpn, Pfn(e.pfn), allocated, now);
                }
            }
        }
        hit
    }

    /// Invalidates one page of `cpu`'s TLB (`INVLPG`).
    pub(super) fn tlb_invalidate(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn) -> bool {
        let any = self.cores[cpu.index()].tlb.invalidate_page(pcid, vpn.0);
        if let Some(o) = self.oracle.as_mut() {
            o.note_invalidate(cpu, pcid, vpn, self.queue.now());
        }
        any
    }

    /// Flushes `cpu`'s whole TLB.
    pub(super) fn tlb_flush_all(&mut self, cpu: CpuId) {
        self.cores[cpu.index()].tlb.flush_all();
        if let Some(o) = self.oracle.as_mut() {
            o.note_flush_all(cpu, self.queue.now());
        }
    }

    /// Allocates a frame on `node` — or, unless `exact`, on any other
    /// node once `node` is dry — on behalf of `ctx`, checking reuse
    /// against the oracle's shadow TLBs. Kernel-thread allocations are the
    /// injected allocation-burst sites, which model an external consumer
    /// draining the node (another subsystem's storm).
    pub(super) fn frame_alloc(
        &mut self,
        ctx: latr_verify::Ctx,
        node: latr_arch::NodeId,
        exact: bool,
    ) -> Result<Pfn, AllocError> {
        let pfn = if exact {
            self.frames.alloc_exact(node)
        } else {
            self.frames.alloc(node)
        };
        if let (Ok(p), Some(o)) = (pfn, self.oracle.as_mut()) {
            o.note_alloc(ctx, p, self.queue.now());
        }
        pfn
    }

    /// Drops one reference to `pfn`, attributed to `cpu` (or to the
    /// reclamation kthread when `None`). A drop to refcount zero makes the
    /// frame reusable — the moment the oracle checks nothing still caches
    /// a translation to it.
    ///
    /// # Panics
    ///
    /// Panics on a typed [`latr_mem::FreeError`]: the kernel's own frame
    /// bookkeeping dropping a reference it does not hold is unrecoverable.
    pub(super) fn frame_dec_ref(&mut self, cpu: Option<CpuId>, pfn: Pfn) -> u32 {
        let rc = self
            .frames
            .dec_ref(pfn)
            .unwrap_or_else(|e| panic!("kernel frame bookkeeping broken: {e}"));
        if let (0, Some(o)) = (rc, self.oracle.as_mut()) {
            let ctx = cpu.map_or(latr_verify::Ctx::Kthread, latr_verify::Ctx::Cpu);
            o.note_free(ctx, pfn, self.queue.now());
        }
        rc
    }

    /// [`latr_mem::PageCache::frame_for`] with alloc mirroring: a first-touch fill
    /// allocates the backing frame inside the cache, detected via the
    /// allocator's total-allocation counter.
    pub(super) fn page_cache_frame_for(
        &mut self,
        cpu: CpuId,
        file: FileId,
        page: u64,
        node: latr_arch::NodeId,
    ) -> Result<Pfn, AllocError> {
        let before = self.frames.total_allocations();
        let pfn = self
            .page_cache
            .frame_for(file, page, node, &mut self.frames);
        if let (Ok(p), Some(o)) = (pfn, self.oracle.as_mut()) {
            if self.frames.total_allocations() > before {
                o.note_alloc(latr_verify::Ctx::Cpu(cpu), p, self.queue.now());
            }
        }
        pfn
    }

    /// Invalidates `count` pages of the address space tagged `pcid` in
    /// `cpu`'s TLB with Linux's full-flush heuristic: above
    /// `full_flush_threshold` pages one full flush replaces the per-page
    /// `INVLPG`s. Every page-list invalidation — the initiator's local
    /// one, the IPI handler's and the Latr sweep's — goes through here.
    /// Returns how many entries were present (all `count` under a full
    /// flush).
    pub(super) fn invalidate_pages(
        &mut self,
        cpu: CpuId,
        pcid: u16,
        count: usize,
        pages: impl IntoIterator<Item = Vpn>,
    ) -> usize {
        if count as u32 > self.costs.full_flush_threshold {
            self.tlb_flush_all(cpu);
            count
        } else {
            pages
                .into_iter()
                .filter(|&vpn| self.tlb_invalidate(cpu, pcid, vpn))
                .count()
        }
    }

    /// Invalidates `pages` of `mm` in `cpu`'s TLB, applying the full-flush
    /// threshold. Returns how many entries were actually present. Used by
    /// Latr's state sweep.
    pub fn invalidate_tlb_pages(&mut self, cpu: CpuId, mm: MmId, pages: &[Vpn]) -> usize {
        let pcid = self.pcid_of(mm);
        self.invalidate_pages(cpu, pcid, pages.len(), pages.iter().copied())
    }

    /// The PCID a sweep burst invalidates under — resolved once per
    /// `(mm, tick)` group by the policy's batch-apply path and fed to
    /// [`invalidate_tlb_range_pcid`](Self::invalidate_tlb_range_pcid)
    /// for every state in the group.
    pub fn sweep_pcid(&self, mm: MmId) -> u16 {
        self.pcid_of(mm)
    }

    /// [`invalidate_tlb_pages`](Self::invalidate_tlb_pages) for one
    /// contiguous state range with the PCID already resolved. The
    /// full-flush threshold still applies per range, and the oracle sees
    /// the same per-page stream, so a grouped sweep is bit-identical to
    /// the one-call-per-state form — it just skips the per-state
    /// `mm → pcid` lookup and the scratch page vector.
    pub fn invalidate_tlb_range_pcid(&mut self, cpu: CpuId, pcid: u16, range: VaRange) -> usize {
        self.invalidate_pages(cpu, pcid, range.pages as usize, range.iter())
    }
}
