//! The per-mm `mmap_sem`: acquisition, parking and grants.

use super::Machine;
use crate::event::Event;
use crate::mmlock::LockMode;
use crate::ops::Op;
use crate::task::TaskId;

impl Machine {
    /// Acquires `task`'s mm lock, or parks the task until it is granted.
    /// Returns whether the lock is held after the call. Idempotent for a
    /// task that already holds the requested mode (re-execution after a
    /// grant).
    pub(super) fn acquire_mm_lock(&mut self, task: TaskId, mode: LockMode) -> bool {
        if self.lock_held.get(&task.0).copied() == Some(mode) {
            return true;
        }
        let mm = self.tasks[task.index()].mm;
        if self.locks[mm.0 as usize].acquire(task, mode) {
            self.lock_held.insert(task.0, mode);
            true
        } else {
            self.stats.inc(crate::metrics::id::MMAP_SEM_WAITS);
            false
        }
    }

    pub(super) fn release_mm_lock(&mut self, task: TaskId) {
        if self.lock_held.remove(&task.0).is_some() {
            self.pass_mm_lock(task);
        }
    }

    /// Releases `task`'s hold (or queue slot) on its mm lock and wakes
    /// whoever that grants it to.
    fn pass_mm_lock(&mut self, task: TaskId) {
        let mm = self.tasks[task.index()].mm;
        let mut granted = std::mem::take(&mut self.scratch_granted);
        granted.clear();
        self.locks[mm.0 as usize].release_into(task, &mut granted);
        for &g in &granted {
            self.queue.schedule_after(0, Event::LockGranted(g));
        }
        self.scratch_granted = granted;
    }

    pub(super) fn lock_granted(&mut self, task: TaskId) {
        if !self.tasks[task.index()].is_live() {
            // The grantee exited while queued; pass the lock on.
            self.pass_mm_lock(task);
            return;
        }
        let mode = if self.locks[self.tasks[task.index()].mm.0 as usize].writer() == Some(task) {
            LockMode::Write
        } else {
            LockMode::Read
        };
        self.lock_held.insert(task.0, mode);
        let op = self
            .parked
            .remove(&task.0)
            .expect("granted task has a parked op");
        self.execute_op(task, op);
    }

    /// Whether executing `op` requires the mm lock, and in which mode.
    pub(super) fn lock_mode_for(&self, task: TaskId, op: &Op) -> Option<LockMode> {
        match *op {
            Op::MmapAnon { .. }
            | Op::MmapFile { .. }
            | Op::Munmap { .. }
            | Op::MadviseFree { .. }
            | Op::Mprotect { .. }
            | Op::Mremap { .. }
            | Op::SwapOut { .. }
            | Op::Dedup { .. }
            | Op::Compact { .. }
            | Op::Fork => Some(LockMode::Write),
            Op::Access { vpn, write } => {
                // Only a fault takes mmap_sem (for reading); a plain TLB
                // refill walks the page table locklessly.
                let t = &self.tasks[task.index()];
                let mm = &self.mms[t.mm.0 as usize];
                if let Some(entry) = self.cores[t.core.index()].tlb.peek(mm.pcid, vpn.0) {
                    if !write || entry.writable {
                        return None;
                    }
                }
                match mm.page_table.lookup(vpn) {
                    Some(pte) if !pte.flags.numa_hint && (!write || pte.flags.writable) => None,
                    _ => Some(LockMode::Read),
                }
            }
            _ => None,
        }
    }
}
