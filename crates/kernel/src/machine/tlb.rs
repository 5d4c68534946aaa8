//! The oracle-mirrored TLB and frame wrappers, and the TLB invalidation
//! helpers the policies call.
//!
//! Every TLB and frame-lifetime mutation goes through a thin wrapper
//! here that hands the shadow oracle (`latr-verify`) one [`Note`] per
//! action when it is enabled, through [`Machine::oracle_note`]. The
//! policies call that method too, for their publishes and sweeps; it
//! does nothing while the oracle is off. The oracle keeps the same note
//! in its history, and a violation report prints it.

use super::Machine;
use latr_arch::{CpuId, CpuMask, TlbEntry};
use latr_mem::{AllocError, FileId, MmId, Pfn, VaRange, Vpn};
use latr_verify::{Ctx, Note};

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

    /// Hands the oracle `note` at the current instant; `targets` are the
    /// target cores of a publish or an IPI send, and `None` for every
    /// other kind. Does nothing while the oracle is off.
    #[inline]
    pub fn oracle_note(&mut self, note: Note, targets: Option<CpuMask>) {
        if let Some(o) = self.oracle.as_mut() {
            o.note(self.queue.now(), note, targets);
        }
    }

    /// Installs a translation into `cpu`'s TLB, mirroring the fill — and
    /// any capacity evictions it displaced — into the oracle.
    pub(super) fn tlb_insert(&mut self, cpu: CpuId, entry: TlbEntry) {
        self.cores[cpu.index()].tlb.insert(entry);
        if let Some(o) = self.oracle.as_mut() {
            let now = self.queue.now();
            for e in self.cores[cpu.index()].tlb.drain_evicted() {
                o.note(now, evict(cpu, e), None);
            }
            let fill = Note::Fill {
                cpu,
                pcid: entry.pcid,
                vpn: Vpn(entry.vpn),
                pfn: Pfn(entry.pfn),
                allocated: self.frames.is_allocated(Pfn(entry.pfn)),
            };
            o.note(now, fill, None);
        }
    }

    /// TLB lookup on `cpu`; a hit is mirrored as an access through the
    /// cached translation (the oracle checks the frame is still live).
    pub(super) fn tlb_lookup(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn) -> Option<TlbEntry> {
        let hit = self.cores[cpu.index()].tlb.lookup(pcid, vpn.0);
        if let Some(o) = self.oracle.as_mut() {
            let now = self.queue.now();
            // An L2→L1 promotion can itself displace an L1 slot.
            for e in self.cores[cpu.index()].tlb.drain_evicted() {
                o.note(now, evict(cpu, e), None);
            }
            if let Some(e) = hit {
                let hit = Note::Hit {
                    cpu,
                    pcid,
                    vpn,
                    pfn: Pfn(e.pfn),
                    allocated: self.frames.is_allocated(Pfn(e.pfn)),
                };
                o.note(now, hit, None);
            }
        }
        hit
    }

    /// Invalidates one page of `cpu`'s TLB (`INVLPG`) with no full-flush
    /// threshold: the single-page sites (a write fault's stale entry, a
    /// NUMA hint, and the per-page loops of mprotect, dedup and fork).
    pub(super) fn tlb_invalidate(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn) -> bool {
        let any = self.cores[cpu.index()].tlb.invalidate_page(pcid, vpn.0);
        self.oracle_note(Note::Invalidate { cpu, pcid, vpn }, None);
        any
    }

    /// Flushes `cpu`'s whole TLB.
    pub(super) fn tlb_flush_all(&mut self, cpu: CpuId) {
        self.cores[cpu.index()].tlb.flush_all();
        self.oracle_note(Note::FlushAll { cpu }, None);
    }

    /// Allocates a frame on `node` — or, unless `exact`, on any other
    /// node once `node` is dry — on behalf of `ctx`, checking reuse
    /// against the oracle's shadow TLBs. Kernel-thread allocations are the
    /// injected allocation-burst sites, which model an external consumer
    /// draining the node (another subsystem's storm).
    pub(super) fn frame_alloc(
        &mut self,
        ctx: Ctx,
        node: latr_arch::NodeId,
        exact: bool,
    ) -> Result<Pfn, AllocError> {
        let pfn = if exact {
            self.frames.alloc_exact(node)
        } else {
            self.frames.alloc(node)
        };
        if let Ok(pfn) = pfn {
            self.oracle_note(Note::Alloc { ctx, pfn }, None);
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
        if rc == 0 {
            let ctx = cpu.map_or(Ctx::Kthread, Ctx::Cpu);
            self.oracle_note(Note::Free { ctx, pfn }, None);
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
        if let (Ok(pfn), Some(o)) = (pfn, self.oracle.as_mut()) {
            if self.frames.total_allocations() > before {
                o.note(
                    self.queue.now(),
                    Note::Alloc {
                        ctx: Ctx::Cpu(cpu),
                        pfn,
                    },
                    None,
                );
            }
        }
        pfn
    }

    /// Invalidates `count` pages of the address space tagged `pcid` in
    /// `cpu`'s TLB with Linux's full-flush heuristic: above
    /// `full_flush_threshold` pages one full flush replaces the per-page
    /// `INVLPG`s. Every page-list invalidation — the initiator's local
    /// one, the IPI handler's and the Latr sweep's — goes through here,
    /// as one [`Tlb::invalidate_pages`](latr_arch::Tlb::invalidate_pages)
    /// call; the oracle then gets one invalidation note per page, in list
    /// order (it never reads the TLB model, so noting them after the
    /// whole list is noting them page by page). Returns how many entries
    /// were present (all `count` under a full flush).
    pub(super) fn invalidate_pages<I>(
        &mut self,
        cpu: CpuId,
        pcid: u16,
        count: usize,
        pages: I,
    ) -> usize
    where
        I: IntoIterator<Item = Vpn> + Clone,
    {
        if count as u32 > self.costs.full_flush_threshold {
            self.tlb_flush_all(cpu);
            return count;
        }
        let present = self.cores[cpu.index()].tlb.invalidate_pages(
            pcid,
            count,
            pages.clone().into_iter().map(|vpn| vpn.0),
        );
        if let Some(o) = self.oracle.as_mut() {
            let now = self.queue.now();
            for vpn in pages {
                o.note(now, Note::Invalidate { cpu, pcid, vpn }, None);
            }
        }
        present
    }

    /// Invalidates `pages` of `mm` in `cpu`'s TLB, applying the full-flush
    /// threshold. Returns how many entries were actually present. Used by
    /// Latr's state sweep.
    pub fn invalidate_tlb_pages(&mut self, cpu: CpuId, mm: MmId, pages: &[Vpn]) -> usize {
        let pcid = self.pcid_of(mm);
        self.invalidate_pages(cpu, pcid, pages.len(), pages.iter().copied())
    }

    /// The PCID a sweep burst invalidates under — resolved once per run
    /// of consecutive same-mm hits by the policy's sweep and fed to
    /// [`invalidate_tlb_range_pcid`](Self::invalidate_tlb_range_pcid)
    /// for every state in the run.
    #[inline]
    pub fn sweep_pcid(&self, mm: MmId) -> u16 {
        self.pcid_of(mm)
    }

    /// [`invalidate_tlb_pages`](Self::invalidate_tlb_pages) for one
    /// contiguous state range with the PCID already resolved. The
    /// full-flush threshold still applies per range, and the oracle sees
    /// the same per-page stream, so a grouped sweep is bit-identical to
    /// the one-call-per-state form — it just skips the per-state
    /// `mm → pcid` lookup and the scratch page vector.
    #[inline]
    pub fn invalidate_tlb_range_pcid(&mut self, cpu: CpuId, pcid: u16, range: VaRange) -> usize {
        self.invalidate_pages(cpu, pcid, range.pages as usize, range.iter())
    }
}

/// The oracle's note for an entry `cpu`'s TLB evicted.
fn evict(cpu: CpuId, e: TlbEntry) -> Note {
    Note::Evict {
        cpu,
        pcid: e.pcid,
        vpn: Vpn(e.vpn),
        pfn: Pfn(e.pfn),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use latr_arch::{MachinePreset, Topology};

    /// A page list of exactly `full_flush_threshold` pages is invalidated
    /// page by page, and one page more flushes the whole TLB (Linux's
    /// `tlb_single_page_flush_ceiling`): an entry outside the list
    /// survives the first and not the second.
    #[test]
    fn full_flush_starts_one_page_past_the_threshold() {
        let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
        config.oracle = false;
        let mut m = Machine::new(config);
        let (cpu, pcid) = (CpuId(0), 0);
        let threshold = m.costs.full_flush_threshold as usize;
        let bystander = TlbEntry {
            pcid,
            vpn: 1 << 20,
            pfn: 7,
            writable: false,
        };
        for (count, survives) in [(threshold, true), (threshold + 1, false)] {
            m.cores[cpu.index()].tlb.insert(bystander);
            m.invalidate_pages(cpu, pcid, count, (0..count as u64).map(Vpn));
            let cached = m.cores[cpu.index()].tlb.peek(pcid, bystander.vpn);
            assert_eq!(cached.is_some(), survives, "a {count}-page invalidation");
        }
    }

    /// A translation invalidated through the single-page wrapper is gone
    /// from the oracle's shadow when its frame is freed; one left cached
    /// is reported. Both frames come from a fresh allocator on node 0.
    #[test]
    fn a_single_page_invalidation_reaches_the_oracle() {
        let config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
        let mut m = Machine::new(config);
        let cpu = CpuId(1);
        let cached_then_freed = |m: &mut Machine, vpn: u64, invalidate: bool| {
            let pfn = m
                .frame_alloc(Ctx::Kthread, latr_arch::NodeId(0), false)
                .expect("a free frame");
            let entry = TlbEntry {
                pcid: 0,
                vpn,
                pfn: pfn.0,
                writable: false,
            };
            m.tlb_insert(cpu, entry);
            if invalidate {
                m.tlb_invalidate(cpu, 0, Vpn(vpn));
            }
            m.frame_dec_ref(None, pfn);
        };
        cached_then_freed(&mut m, 0x10, true);
        assert!(m.oracle_violation().is_none(), "{:?}", m.oracle_violation());
        cached_then_freed(&mut m, 0x11, false);
        let v = m.oracle_violation().expect("a frame freed while cached");
        assert_eq!(v.kind, latr_verify::ViolationKind::FreedWhileCached);
    }
}
