//! Memory accesses and the faults they take: demand paging, copy-on-write,
//! swap-in and NUMA-hint faults, plus the AutoNUMA scanner.

use super::Machine;
use crate::event::Event;
use crate::task::TaskId;
use latr_arch::{CpuId, TlbEntry};
use latr_mem::{MapKind, MmId, PteFlags, Vpn};
use latr_sim::Nanos;
use latr_verify::Note;

impl Machine {
    pub(super) fn access_page(&mut self, task_id: TaskId, vpn: Vpn, write: bool) -> AccessOutcome {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let pcid = self.pcid_of(mm_id);
        self.llc.charge_app_accesses(1);

        if let Some(entry) = self.tlb_lookup(cpu, pcid, vpn) {
            if !write || entry.writable {
                return AccessOutcome::Done(2); // TLB hit: ~free
            }
            // Write through a read-only entry: fall through to the fault
            // path after invalidating the stale entry.
            self.tlb_invalidate(cpu, pcid, vpn);
        }

        let mut cost = self.costs.tlb_miss_walk;
        let pte = self.mms[mm_id.0 as usize].page_table.lookup(vpn);
        match pte {
            Some(pte) if pte.flags.numa_hint => {
                // NUMA hint fault (§4.3).
                self.stats.inc(crate::metrics::id::HINT_FAULTS);
                let proceed = self.with_policy(|p, m| p.numa_fault_may_proceed(m, mm_id, vpn));
                if !proceed {
                    return AccessOutcome::BlockedOnNuma;
                }
                cost += self.numa_hint_fault(task_id, vpn, write);
                AccessOutcome::Done(cost)
            }
            Some(pte) => {
                let mut pte = pte;
                let mut writable = pte.flags.writable;
                if write && !writable {
                    let vma_allows_write = self.mms[mm_id.0 as usize]
                        .vmas
                        .find(vpn)
                        .map(|v| v.prot.write)
                        .unwrap_or(false);
                    if vma_allows_write {
                        // Copy-on-write break: a new private frame, and an
                        // ownership change that must reach every core
                        // synchronously (Table 1's CoW row — identical
                        // under every policy, charged analytically).
                        cost += self.cow_break(task_id, vpn, &mut pte);
                        writable = true;
                    } else {
                        // True protection fault.
                        cost += self.costs.page_fault;
                        self.stats.inc(crate::metrics::id::PROTECTION_FAULTS);
                    }
                }
                self.mms[mm_id.0 as usize].page_table.update(vpn, |p| {
                    p.flags.accessed = true;
                    if write && writable {
                        p.flags.dirty = true;
                    }
                });
                self.tlb_insert(
                    cpu,
                    TlbEntry {
                        pcid,
                        vpn: vpn.0,
                        pfn: pte.pfn.0,
                        writable,
                    },
                );
                AccessOutcome::Done(cost)
            }
            None => {
                // Demand-paging fault.
                cost += self.demand_fault(task_id, vpn, write);
                AccessOutcome::Done(cost)
            }
        }
    }

    /// Breaks copy-on-write sharing of `vpn`: allocates a private frame,
    /// copies, re-points the PTE writable, and charges the synchronous
    /// ownership-change shootdown. Updates `pte` to the new entry and
    /// returns the CPU cost.
    fn cow_break(&mut self, task_id: TaskId, vpn: Vpn, pte: &mut latr_mem::Pte) -> Nanos {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let node = self.topology.node_of(cpu);
        let mut cost = self.costs.page_fault;
        self.stats.inc(crate::metrics::id::COW_BREAKS);
        let old = pte.pfn;
        if self.frames.refcount(old) > 1 {
            let (alloc, stall) = self.frame_alloc_stalling(cpu, node);
            cost += stall;
            let Ok(new) = alloc else {
                return cost;
            };
            cost += self.costs.page_copy + self.costs.frame_op;
            self.frame_dec_ref(Some(cpu), old);
            pte.pfn = new;
        }
        pte.flags.writable = true;
        let new_pfn = pte.pfn;
        self.mms[mm_id.0 as usize].page_table.update(vpn, |p| {
            p.pfn = new_pfn;
            p.flags.writable = true;
        });
        cost += self.costs.pte_op;
        let pcid = self.pcid_of(mm_id);
        self.tlb_invalidate(cpu, pcid, vpn);
        // Remote read-only translations of the old frame must go before
        // the writer proceeds.
        cost + self.ownership_round(cpu, mm_id, &[vpn])
    }

    /// The synchronous round of an ownership change (CoW break, dedup
    /// write-protect), charged analytically and identical under every
    /// policy: every other core in `mm_id`'s cpumask drops `vpns` now.
    /// Returns the initiator's Linux shootdown estimate (0 when no other
    /// core shares the mm).
    pub(super) fn ownership_round(&mut self, cpu: CpuId, mm_id: MmId, vpns: &[Vpn]) -> Nanos {
        // `CpuMask` is `Copy`; iterating a snapshot avoids collecting the
        // sharers into a heap vector.
        let sharers = self.mms[mm_id.0 as usize].cpumask;
        let remote = sharers.count().saturating_sub(1);
        if remote == 0 {
            return 0;
        }
        for sharer in sharers.iter() {
            if sharer != cpu {
                self.invalidate_tlb_pages(sharer, mm_id, vpns);
            }
        }
        self.costs.estimate_linux_shootdown(&self.topology, remote)
    }

    fn demand_fault(&mut self, task_id: TaskId, vpn: Vpn, write: bool) -> Nanos {
        self.stats.inc(crate::metrics::id::PAGE_FAULTS);
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let node = self.topology.node_of(cpu);
        let mut cost = self.costs.page_fault;

        let vma = match self.mms[mm_id.0 as usize].vmas.find(vpn) {
            Some(v) => *v,
            None => {
                // Access to unmapped VA: a segfault. The paper's §4.4 notes
                // Latr turns use-after-unmap into a (delayed) fault; we
                // count it and treat the op as a no-op.
                self.stats.inc(crate::metrics::id::SEGFAULTS);
                return cost;
            }
        };
        if !self.swapped.is_empty() && self.swapped.remove(&(mm_id.0, vpn.0)) {
            // Swap-in: the page's previous contents come back from the
            // backing store.
            cost += self.costs.swap_in;
            self.stats.inc(crate::metrics::id::SWAP_INS);
        }
        let pfn = match vma.kind {
            MapKind::Anon => {
                let (alloc, stall) = self.frame_alloc_stalling(cpu, node);
                cost += stall;
                match alloc {
                    Ok(p) => p,
                    Err(_) => return cost,
                }
            }
            MapKind::File { .. } => {
                let (file, page) = vma.file_page_of(vpn).expect("file vma");
                let first = self.page_cache_frame_for(cpu, file, page, node);
                let read_in = match first {
                    Ok(p) => Ok(p),
                    Err(_) => {
                        // Same stall-then-retry dance as the anon path; a
                        // page-cache read-in is an allocation like any other.
                        cost += self.alloc_stall(cpu, node);
                        let retry = self.page_cache_frame_for(cpu, file, page, node);
                        if retry.is_err() {
                            self.stats.inc(crate::metrics::id::OOM_EVENTS);
                        }
                        self.poll_pressure();
                        retry
                    }
                };
                match read_in {
                    Ok(p) => {
                        // The mapping holds its own reference.
                        self.frames
                            .inc_ref(p)
                            .expect("page cache holds a live reference");
                        p
                    }
                    Err(_) => return cost,
                }
            }
        };
        cost += self.costs.frame_op + self.costs.pte_op;
        let writable = vma.prot.write;
        let mm = &mut self.mms[mm_id.0 as usize];
        mm.page_table.map(
            vpn,
            pfn,
            PteFlags {
                writable,
                accessed: true,
                dirty: write && writable,
                numa_hint: false,
            },
        );
        let pcid = mm.pcid;
        self.tlb_insert(
            cpu,
            TlbEntry {
                pcid,
                vpn: vpn.0,
                pfn: pfn.0,
                writable,
            },
        );
        cost
    }

    // ---- AutoNUMA ------------------------------------------------------------------

    pub(super) fn numa_scan(&mut self, mm_id: MmId) {
        let batch = self
            .numa
            .next_scan_batch(mm_id, &self.mms[mm_id.0 as usize]);
        if !batch.is_empty() {
            // task_numa_work runs in the context of one of the process'
            // tasks; charge the first CPU in the cpumask.
            let cpu = self.mms[mm_id.0 as usize]
                .cpumask
                .first()
                .unwrap_or(CpuId(0));
            for vpn in batch {
                self.hint_unmap(cpu, mm_id, vpn);
            }
        }
        let period = self.numa.config().scan_period;
        self.queue.schedule_after(period, Event::NumaScan(mm_id));
    }

    /// Hint-unmaps `vpn` for the AutoNUMA scanner or compaction: lazily
    /// when the policy takes it, else the Linux path — set the hint
    /// protection and synchronously shoot the page down everywhere
    /// (Fig. 3a).
    pub(super) fn hint_unmap(&mut self, cpu: CpuId, mm_id: MmId, vpn: Vpn) {
        if self.with_policy(|p, m| p.numa_hint_unmap(m, cpu, mm_id, vpn)) {
            return;
        }
        self.apply_numa_hint(cpu, mm_id, vpn);
        let mut targets = self.mms[mm_id.0 as usize].cpumask;
        targets.clear(cpu);
        if targets.is_empty() {
            return;
        }
        // A package staged here would ride on this round and be released
        // by someone else's ACKs.
        assert!(
            self.pending_reclaim.is_none(),
            "a NUMA hint-unmap round carries no reclaim package"
        );
        self.begin_sync_shootdown(cpu, mm_id, [vpn], targets, 0);
        // The scanner runs in task context: the initiating CPU eats the
        // synchronous wait as debt.
        let est = self
            .costs
            .estimate_linux_shootdown(&self.topology, targets.count());
        self.charge_debt(cpu, est);
    }

    /// Sets the NUMA-hint protection on a PTE and invalidates the calling
    /// CPU's own TLB entry. Shared by the sync path and Latr's first
    /// sweeper (§4.3: "the first core performs the page table unmap").
    pub fn apply_numa_hint(&mut self, cpu: CpuId, mm_id: MmId, vpn: Vpn) {
        let pcid = self.pcid_of(mm_id);
        self.mms[mm_id.0 as usize]
            .page_table
            .update(vpn, |p| p.flags.numa_hint = true);
        self.tlb_invalidate(cpu, pcid, vpn);
    }

    pub(super) fn numa_fault_retry(&mut self, task_id: TaskId, vpn: Vpn) {
        if !self.tasks[task_id.index()].is_live() {
            return;
        }
        let Some((blocked_vpn, write)) = self.slots[task_id.index()].blocked_fault else {
            return;
        };
        debug_assert_eq!(blocked_vpn, vpn);
        let mm_id = self.tasks[task_id.index()].mm;
        let proceed = self.with_policy(|p, m| p.numa_fault_may_proceed(m, mm_id, vpn));
        if !proceed {
            let retry = self.numa.config().fault_retry;
            self.queue.schedule_after(
                retry,
                Event::NumaFaultRetry {
                    task: task_id,
                    vpn: vpn.0,
                },
            );
            return;
        }
        self.slots[task_id.index()].blocked_fault = None;
        let cost = self.numa_hint_fault(task_id, vpn, write);
        let cpu = self.tasks[task_id.index()].core;
        self.complete_after(cpu, task_id, cost.max(1));
    }

    /// Handles a NUMA hint fault that may proceed: clears the hint and
    /// possibly migrates the page toward the faulting node. Returns the
    /// fault's CPU cost.
    fn numa_hint_fault(&mut self, task_id: TaskId, vpn: Vpn, write: bool) -> Nanos {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let node = self.topology.node_of(cpu);
        let mut cost = self.costs.page_fault;
        // The policy has just allowed this hint fault to proceed; the
        // oracle checks every bit of any covering migration state cleared
        // first (§4.4).
        let proceed = Note::MigrationProceed {
            cpu,
            mm: mm_id,
            vpn,
        };
        self.oracle_note(proceed, None);

        let Some(pte) = self.mms[mm_id.0 as usize].page_table.lookup(vpn) else {
            return cost;
        };
        let home = self.frames.node_of(pte.pfn);
        let force_compact =
            !self.compact_pending.is_empty() && self.compact_pending.remove(&(mm_id.0, vpn.0));
        // Compaction migrates within the home node (defragmentation);
        // NUMA balancing migrates toward the accessing node.
        let target = if force_compact { home } else { node };
        let migrate = force_compact || self.numa.should_migrate(mm_id, vpn, node, home);
        if migrate {
            if let Ok(new_pfn) = self.frame_alloc(latr_verify::Ctx::Cpu(cpu), target, true) {
                // Copy, remap, release the old frame. The migration itself
                // performs a synchronous unmap+flush in both Linux and Latr
                // (§4.3 leaves the migration path unmodified); charge its
                // analytic cost.
                cost += self.costs.page_copy + self.costs.pte_op + self.costs.frame_op;
                let remote = self.mms[mm_id.0 as usize].cpumask.count().saturating_sub(1);
                if remote > 0 {
                    cost += self.costs.estimate_linux_shootdown(&self.topology, remote);
                }
                let old = pte.pfn;
                self.mms[mm_id.0 as usize].page_table.update(vpn, |p| {
                    p.pfn = new_pfn;
                    p.flags.numa_hint = false;
                    p.flags.accessed = true;
                });
                self.frame_dec_ref(Some(cpu), old);
                self.stats.inc(crate::metrics::id::MIGRATIONS);
            } else {
                // Target node full: abort the migration, keep the page.
                self.mms[mm_id.0 as usize]
                    .page_table
                    .update(vpn, |p| p.flags.numa_hint = false);
            }
        } else {
            self.mms[mm_id.0 as usize]
                .page_table
                .update(vpn, |p| p.flags.numa_hint = false);
        }
        let pte = self.mms[mm_id.0 as usize].page_table.lookup(vpn).unwrap();
        let pcid = self.pcid_of(mm_id);
        self.tlb_insert(
            cpu,
            TlbEntry {
                pcid,
                vpn: vpn.0,
                pfn: pte.pfn.0,
                writable: pte.flags.writable,
            },
        );
        if write {
            self.mms[mm_id.0 as usize]
                .page_table
                .update(vpn, |p| p.flags.dirty = true);
        }
        cost
    }
}

pub(super) enum AccessOutcome {
    Done(Nanos),
    BlockedOnNuma,
}
