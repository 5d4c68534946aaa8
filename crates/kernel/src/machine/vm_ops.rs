//! The Table 1 operations: munmap/madvise, mprotect, mremap, swap-out,
//! dedup, compaction and fork, plus address-space teardown.
//!
//! Every op that invalidates PTEs clears them, invalidates the
//! initiator's own TLB, and ends in [`Machine::remote_flush`]: the one
//! place the policy is asked how remote TLBs are flushed.

use super::{Machine, ReclaimPackage};
use crate::ops::Op;
use crate::shootdown::{FlushKind, FlushOutcome};
use crate::task::{TaskId, TaskState};
use latr_arch::CpuId;
use latr_mem::{MmId, Pfn, Prot, VaRange, Vpn};
use latr_sim::Nanos;

/// Table 1's classification of a PTE-invalidating op, as the policy
/// sees it.
fn flush_kind(op: Op) -> FlushKind {
    match op {
        Op::Munmap { .. } => FlushKind::Unmap,
        Op::MadviseFree { .. } | Op::Dedup { .. } => FlushKind::MadviseFree,
        Op::SwapOut { .. } => FlushKind::Swap,
        Op::Mprotect { .. } | Op::Mremap { .. } | Op::Fork => FlushKind::Synchronous,
        _ => unreachable!("{op:?} invalidates no PTEs"),
    }
}

impl Machine {
    /// The flush tail of every PTE-invalidating op, run once the initiator
    /// has cleared the PTEs and its own TLB: stages `pkg` (the frames and
    /// VA whose reuse must wait for the remote flush), asks the policy to
    /// flush the remote TLBs — the machine's only `flush_others` call —
    /// and applies its decision to the in-flight op.
    fn remote_flush(
        &mut self,
        task_id: TaskId,
        op: Op,
        range: VaRange,
        pages: &[(Vpn, Pfn)],
        local: Nanos,
        pkg: ReclaimPackage,
    ) {
        let cpu = self.tasks[task_id.index()].core;
        let mm = pkg.mm;
        let kind = flush_kind(op);
        self.pending_reclaim = Some(pkg);
        let outcome = self.with_policy(|p, m| {
            p.flush_others(m, cpu, Some(task_id), mm, range, pages, kind, local)
        });
        match outcome {
            FlushOutcome::Sync {
                txn,
                local_ns: extra,
            } => {
                // Reclaim package must have been attached to the txn.
                assert!(
                    self.pending_reclaim.is_none(),
                    "sync outcome must route reclaim through the txn"
                );
                self.tasks[task_id.index()].state = TaskState::BlockedOnShootdown;
                let wait_start = self.now() + local + extra;
                let t = self
                    .txns
                    .get_mut(&txn.0)
                    .expect("sync outcome with unknown txn");
                t.blocked_task = Some(task_id);
                t.wait_started = wait_start;
                // Completion comes from the last ACK.
                self.start_op(cpu, task_id, op);
            }
            FlushOutcome::Deferred {
                local_ns: extra,
                defer_reclaim,
            } => {
                if defer_reclaim {
                    assert!(
                        self.pending_reclaim.is_none(),
                        "deferring policy must take the reclaim package"
                    );
                } else if let Some(pkg) = self.pending_reclaim.take() {
                    self.release_reclaim(pkg);
                }
                self.begin_op(cpu, task_id, op, (local + extra).max(1));
            }
        }
    }

    /// `munmap()` or `madvise()`: PTEs cleared, frames released after the
    /// (lazy-able) remote flush; munmap also removes the VMAs and blocks
    /// the VA range until then.
    pub(super) fn do_unmap(&mut self, task_id: TaskId, op: Op, range: VaRange) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let munmap = matches!(op, Op::Munmap { .. });

        // The unmap hot path runs on scratch vectors (capacity retained
        // across calls) and a recycled frames vector: in steady state it
        // performs no heap allocation, which `tests/zero_alloc.rs` gates.
        // VMA bookkeeping (munmap removes VMAs; madvise keeps them).
        if munmap {
            let mut vmas = std::mem::take(&mut self.scratch_vmas);
            vmas.clear();
            self.mms[mm_id.0 as usize].munmap_vmas_into(&range, &mut vmas);
            self.scratch_vmas = vmas;
        }
        let mut removed = std::mem::take(&mut self.scratch_removed);
        removed.clear();
        self.mms[mm_id.0 as usize]
            .page_table
            .unmap_range_into(&range, &mut removed);
        let mut pages = std::mem::take(&mut self.scratch_pages);
        pages.clear();
        pages.extend(removed.iter().map(|&(v, pte)| (v, pte.pfn)));
        // Unmapping cancels any swap/compaction bookkeeping for the range.
        for vpn in range.iter() {
            self.swapped.remove(&(mm_id.0, vpn.0));
            self.compact_pending.remove(&(mm_id.0, vpn.0));
        }

        // Initiator-side cost: syscall, VMA surgery, PTE clears, per-sharer
        // bookkeeping, local TLB invalidation.
        let mut local = self.costs.syscall_overhead + self.costs.vma_op;
        local += self.costs.pte_op * removed.len() as u64;
        let sharer_mask = self.mms[mm_id.0 as usize].cpumask;
        for sharer in sharer_mask.iter() {
            if sharer != cpu {
                local += self
                    .costs
                    .unmap_per_sharer(self.topology.cpu_hops(cpu, sharer));
            }
        }
        local += self.costs.local_invalidation(removed.len() as u32);
        let pcid = self.pcid_of(mm_id);
        self.invalidate_pages(cpu, pcid, pages.len(), pages.iter().map(|&(v, _)| v));

        // Block the VA and stage the frames; who releases them depends on
        // the policy's outcome.
        let blocked_va = if munmap && !range.is_empty() {
            self.mms[mm_id.0 as usize].block_va(range);
            Some(range)
        } else {
            None
        };
        let mut frames = self.frame_vec_pool.pop().unwrap_or_default();
        frames.extend(pages.iter().map(|&(_, p)| p));
        let pkg = ReclaimPackage {
            mm: mm_id,
            frames,
            va: blocked_va,
        };
        self.remote_flush(task_id, op, range, &pages, local, pkg);
        self.scratch_removed = removed;
        self.scratch_pages = pages;
    }

    /// `mprotect()`: permission changes must reach the whole system
    /// synchronously (Table 1); frames are untouched.
    pub(super) fn do_mprotect(&mut self, task_id: TaskId, op: Op, range: VaRange, prot: Prot) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;

        self.mms[mm_id.0 as usize].vmas.protect_range(&range, prot);
        let mut pages = Vec::new();
        for vpn in range.iter() {
            if let Some(pte) = self.mms[mm_id.0 as usize].page_table.update(vpn, |p| {
                p.flags.writable = prot.write;
            }) {
                pages.push((vpn, pte.pfn));
            }
        }
        let count = pages.len() as u32;
        let mut local = self.costs.syscall_overhead + self.costs.vma_op;
        local += self.costs.pte_op * count as u64;
        local += self.costs.local_invalidation(count);
        let pcid = self.pcid_of(mm_id);
        for &(vpn, _) in &pages {
            self.tlb_invalidate(cpu, pcid, vpn);
        }
        let pkg = ReclaimPackage {
            mm: mm_id,
            frames: Vec::new(),
            va: None,
        };
        self.remote_flush(task_id, op, range, &pages, local, pkg);
    }

    /// `mremap()` to a fresh range: the mapping moves, so the old
    /// translations must be invalidated synchronously under every policy
    /// (Table 1's "Remap" row).
    pub(super) fn do_mremap(&mut self, task_id: TaskId, op: Op, range: VaRange) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let pcid = self.pcid_of(mm_id);

        let pieces = self.mms[mm_id.0 as usize].munmap_vmas(&range);
        let moved = self.mms[mm_id.0 as usize].page_table.unmap_range(&range);
        let new_range = self.mms[mm_id.0 as usize].find_free_va(range.pages.max(1));
        // Re-create the VMA pieces at the new base.
        for piece in pieces {
            let offset = piece.range.start.0 - range.start.0;
            self.mms[mm_id.0 as usize].vmas.insert(latr_mem::Vma {
                range: VaRange::new(new_range.start.offset(offset), piece.range.pages),
                kind: piece.kind,
                prot: piece.prot,
            });
        }
        // Move the PTEs: same frames, new virtual pages.
        for &(vpn, pte) in &moved {
            let offset = vpn.0 - range.start.0;
            self.mms[mm_id.0 as usize].page_table.map(
                new_range.start.offset(offset),
                pte.pfn,
                pte.flags,
            );
        }
        self.tasks[task_id.index()].last_mmap = Some(new_range);
        self.stats.inc(crate::metrics::id::MREMAPS);

        let mut local = self.costs.syscall_overhead + 2 * self.costs.vma_op;
        local += 2 * self.costs.pte_op * moved.len() as u64;
        local += self.costs.local_invalidation(moved.len() as u32);
        let pages: Vec<(Vpn, Pfn)> = moved.iter().map(|&(v, p)| (v, p.pfn)).collect();
        self.invalidate_pages(cpu, pcid, pages.len(), pages.iter().map(|&(v, _)| v));
        self.mms[mm_id.0 as usize].block_va(range);
        let pkg = ReclaimPackage {
            mm: mm_id,
            frames: Vec::new(),
            va: Some(range),
        };
        self.remote_flush(task_id, op, range, &pages, local, pkg);
    }

    /// Swaps a range out: PTEs cleared, frames released after the (lazy-
    /// able) shootdown, pages marked so the next touch pays a swap-in.
    pub(super) fn do_swap_out(&mut self, task_id: TaskId, op: Op, range: VaRange) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let pcid = self.pcid_of(mm_id);

        let removed = self.mms[mm_id.0 as usize].page_table.unmap_range(&range);
        for &(vpn, _) in &removed {
            self.swapped.insert((mm_id.0, vpn.0));
        }
        self.stats
            .add(crate::metrics::id::SWAP_OUTS, removed.len() as u64);

        let mut local = self.costs.syscall_overhead;
        local += (self.costs.pte_op + self.costs.swap_out) * removed.len() as u64;
        local += self.costs.local_invalidation(removed.len() as u32);
        let pages: Vec<(Vpn, Pfn)> = removed.iter().map(|&(v, p)| (v, p.pfn)).collect();
        self.invalidate_pages(cpu, pcid, pages.len(), pages.iter().map(|&(v, _)| v));
        let pkg = ReclaimPackage {
            mm: mm_id,
            frames: pages.iter().map(|&(_, p)| p).collect(),
            va: None,
        };
        self.remote_flush(task_id, op, range, &pages, local, pkg);
    }

    /// KSM-style deduplication: write-protect page pairs (a synchronous
    /// ownership change, charged analytically and identical under every
    /// policy), merge odd pages onto their even neighbours, then free the
    /// duplicate frames through the policy's (lazy-able) flush — stale
    /// read-only translations keep reading identical bytes until swept.
    pub(super) fn do_dedup(&mut self, task_id: TaskId, op: Op, range: VaRange) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let pcid = self.pcid_of(mm_id);

        let mut local = self.costs.syscall_overhead;
        let mut lazy_pages: Vec<(Vpn, Pfn)> = Vec::new();
        let mut dup_frames: Vec<Pfn> = Vec::new();
        let mut protected = 0u32;
        let mut k = 0;
        while k + 1 < range.pages {
            let a = range.start.offset(k);
            let b = range.start.offset(k + 1);
            k += 2;
            let (Some(pa), Some(pb)) = (
                self.mms[mm_id.0 as usize].page_table.lookup(a),
                self.mms[mm_id.0 as usize].page_table.lookup(b),
            ) else {
                continue;
            };
            if pa.flags.numa_hint || pb.flags.numa_hint || pa.pfn == pb.pfn {
                continue;
            }
            local += self.costs.page_compare;
            // Write-protect both sides (sync part).
            for vpn in [a, b] {
                self.mms[mm_id.0 as usize]
                    .page_table
                    .update(vpn, |p| p.flags.writable = false)
                    .expect("present above");
                protected += 1;
                self.tlb_invalidate(cpu, pcid, vpn);
            }
            // Merge b onto a's frame; the duplicate frame frees lazily.
            self.frames
                .inc_ref(pa.pfn)
                .expect("dedup source frame is mapped, hence live");
            self.mms[mm_id.0 as usize]
                .page_table
                .update(b, |p| p.pfn = pa.pfn);
            dup_frames.push(pb.pfn);
            lazy_pages.push((b, pb.pfn));
            local += 3 * self.costs.pte_op;
            self.stats.inc(crate::metrics::id::DEDUP_MERGES);
        }
        local += self.costs.local_invalidation(protected);
        // The protection change must be system-wide before merging is
        // safe (Table 1's ownership row).
        if protected > 0 {
            let vpns: Vec<Vpn> = lazy_pages
                .iter()
                .flat_map(|&(b, _)| [Vpn(b.0 - 1), b])
                .collect();
            local += self.ownership_round(cpu, mm_id, &vpns);
        }
        let pkg = ReclaimPackage {
            mm: mm_id,
            frames: dup_frames,
            va: None,
        };
        self.remote_flush(task_id, op, range, &lazy_pages, local, pkg);
    }

    /// Physical-memory compaction: lazily unmap the range exactly like
    /// AutoNUMA hint-unmaps; the next touch migrates each page to a fresh
    /// frame (§7 notes compaction "performs similar mechanism as
    /// AutoNUMA's page migration").
    pub(super) fn do_compact(&mut self, task_id: TaskId, op: Op, range: VaRange) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let mut local = self.costs.syscall_overhead;
        let candidates: Vec<Vpn> = self.mms[mm_id.0 as usize]
            .page_table
            .mapped_in(&range)
            .into_iter()
            .filter(|(_, pte)| !pte.flags.numa_hint)
            .map(|(v, _)| v)
            .collect();
        for vpn in candidates {
            self.compact_pending.insert((mm_id.0, vpn.0));
            self.stats.inc(crate::metrics::id::COMPACT_PAGES);
            local += self.costs.pte_op / 2; // scan + isolate bookkeeping
            self.hint_unmap(cpu, mm_id, vpn);
        }
        self.begin_op(cpu, task_id, op, local.max(1));
    }

    /// `fork()`: clone the address space with copy-on-write semantics.
    /// Every writable parent page becomes read-only in both address
    /// spaces — an ownership change that must reach all cores
    /// synchronously (Table 1).
    pub(super) fn do_fork(&mut self, task_id: TaskId, op: Op) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let parent = task.mm;
        let pcid = self.pcid_of(parent);
        let child = self.create_process();
        self.stats.inc(crate::metrics::id::FORKS);

        let vmas: Vec<latr_mem::Vma> = self.mms[parent.0 as usize].vmas.iter().copied().collect();
        let mut downgraded: Vec<(Vpn, Pfn)> = Vec::new();
        let mut local = self.costs.syscall_overhead + self.costs.vma_op * vmas.len() as u64;
        for vma in vmas {
            self.mms[child.0 as usize].vmas.insert(vma);
            let present = self.mms[parent.0 as usize].page_table.mapped_in(&vma.range);
            for (vpn, pte) in present {
                if pte.flags.numa_hint {
                    continue;
                }
                // Share the frame read-only on both sides.
                self.frames
                    .inc_ref(pte.pfn)
                    .expect("forked frame is mapped, hence live");
                let mut flags = pte.flags;
                let was_writable = flags.writable;
                flags.writable = false;
                self.mms[child.0 as usize]
                    .page_table
                    .map(vpn, pte.pfn, flags);
                local += 2 * self.costs.pte_op;
                if was_writable {
                    self.mms[parent.0 as usize]
                        .page_table
                        .update(vpn, |p| p.flags.writable = false);
                    self.tlb_invalidate(cpu, pcid, vpn);
                    downgraded.push((vpn, pte.pfn));
                }
            }
        }
        local += self.costs.local_invalidation(downgraded.len() as u32);
        self.tasks[task_id.index()].last_fork = Some(child);

        let (Some(&(first, _)), Some(&(last, _))) = (downgraded.first(), downgraded.last()) else {
            self.begin_op(cpu, task_id, op, local.max(1));
            return;
        };
        let range = VaRange::new(first, last.0 - first.0 + 1);
        let pkg = ReclaimPackage {
            mm: parent,
            frames: Vec::new(),
            va: None,
        };
        self.remote_flush(task_id, op, range, &downgraded, local, pkg);
    }

    /// Tears down an address space whose last task exited: unmaps every
    /// VMA and drops the mapping references on their frames.
    pub(super) fn exit_mmap(&mut self, mm_id: MmId, on: Option<CpuId>) {
        let ranges: Vec<VaRange> = self.mms[mm_id.0 as usize]
            .vmas
            .iter()
            .map(|v| v.range)
            .collect();
        for range in ranges {
            self.mms[mm_id.0 as usize].munmap_vmas(&range);
            let removed = self.mms[mm_id.0 as usize].page_table.unmap_range(&range);
            for (_, pte) in removed {
                self.frame_dec_ref(on, pte.pfn);
            }
            for vpn in range.iter() {
                self.swapped.remove(&(mm_id.0, vpn.0));
                self.compact_pending.remove(&(mm_id.0, vpn.0));
            }
        }
    }
}
