//! The per-address-space `mmap_sem` reader/writer semaphore.
//!
//! Linux serializes address-space mutation on `mm->mmap_sem`: `mmap`,
//! `munmap` and `mprotect` take it for writing — and in Linux 4.10 the
//! write side is held *through the TLB shootdown's ACK wait* — while page
//! faults take it for reading. This lock is the amplification mechanism
//! behind Fig. 9: with one munmap per request, every microsecond of
//! shootdown wait is a microsecond during which no other thread of the
//! process can fault or map, capping Apache's throughput regardless of
//! core count.
//!
//! The model is writer-preferring (as the kernel's rwsem is, to avoid
//! writer starvation): once a writer queues, new readers queue behind it.

use crate::task::TaskId;
use std::collections::VecDeque;

/// Acquisition mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared (page faults).
    Read,
    /// Exclusive (mmap / munmap / mprotect).
    Write,
}

/// One address space's `mmap_sem`.
#[derive(Debug, Default)]
pub struct MmLock {
    writer: Option<TaskId>,
    readers: Vec<TaskId>,
    queue: VecDeque<(TaskId, LockMode)>,
}

impl MmLock {
    /// Creates an uncontended lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current writer, if any.
    pub fn writer(&self) -> Option<TaskId> {
        self.writer
    }

    /// Attempts to acquire; on failure the task is queued and will be
    /// returned by a future [`release`](Self::release). Re-entrant
    /// acquisition is a bug and panics.
    ///
    /// # Panics
    ///
    /// Panics if `task` already holds or is already queued.
    pub fn acquire(&mut self, task: TaskId, mode: LockMode) -> bool {
        assert_ne!(self.writer, Some(task), "re-entrant mmap_sem write");
        assert!(
            !self.readers.contains(&task),
            "re-entrant mmap_sem read by {task:?}"
        );
        assert!(
            !self.queue.iter().any(|&(t, _)| t == task),
            "{task:?} queued twice"
        );
        let can = match mode {
            // Writer-preference: a queued writer blocks new readers.
            LockMode::Read => {
                self.writer.is_none() && !self.queue.iter().any(|&(_, m)| m == LockMode::Write)
            }
            LockMode::Write => self.writer.is_none() && self.readers.is_empty(),
        };
        if can {
            match mode {
                LockMode::Read => self.readers.push(task),
                LockMode::Write => self.writer = Some(task),
            }
            true
        } else {
            self.queue.push_back((task, mode));
            false
        }
    }

    /// Releases `task`'s hold and grants the lock onward. Returns the
    /// tasks that acquired as a result (one writer, or a batch of
    /// consecutive readers).
    ///
    /// # Panics
    ///
    /// Panics if `task` holds nothing.
    pub fn release(&mut self, task: TaskId) -> Vec<TaskId> {
        let mut granted = Vec::new();
        self.release_into(task, &mut granted);
        granted
    }

    /// [`release`](Self::release) appending the woken tasks to `out`
    /// instead of allocating — the op-completion hot path passes a scratch
    /// vector whose capacity survives across calls.
    pub fn release_into(&mut self, task: TaskId, out: &mut Vec<TaskId>) {
        if self.writer == Some(task) {
            self.writer = None;
        } else if let Some(pos) = self.readers.iter().position(|&t| t == task) {
            self.readers.swap_remove(pos);
        } else {
            panic!("{task:?} released mmap_sem it does not hold");
        }
        self.grant_into(out);
    }

    /// Wakes whatever the queue's head admits, appending grants to `out`.
    fn grant_into(&mut self, out: &mut Vec<TaskId>) {
        if self.writer.is_some() {
            return;
        }
        match self.queue.front() {
            Some(&(_, LockMode::Write)) if self.readers.is_empty() => {
                let (t, _) = self.queue.pop_front().expect("front exists");
                self.writer = Some(t);
                out.push(t);
            }
            Some(&(_, LockMode::Write)) => {}
            Some(&(_, LockMode::Read)) => {
                while let Some(&(t, LockMode::Read)) = self.queue.front() {
                    self.queue.pop_front();
                    self.readers.push(t);
                    out.push(t);
                }
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn uncontended_acquires_succeed() {
        let mut l = MmLock::new();
        assert!(l.acquire(t(1), LockMode::Read));
        assert!(l.acquire(t(2), LockMode::Read));
        assert_eq!(l.release(t(1)), vec![]);
        assert_eq!(l.release(t(2)), vec![]);
        assert!(l.acquire(t(3), LockMode::Write));
        assert_eq!(l.writer(), Some(t(3)));
    }

    #[test]
    fn writer_excludes_everyone() {
        let mut l = MmLock::new();
        assert!(l.acquire(t(1), LockMode::Write));
        assert!(!l.acquire(t(2), LockMode::Read));
        assert!(!l.acquire(t(3), LockMode::Write));
        // Release grants the first waiter (a reader batch of one).
        assert_eq!(l.release(t(1)), vec![t(2)]);
        assert_eq!(l.release(t(2)), vec![t(3)]);
    }

    #[test]
    fn queued_writer_blocks_new_readers() {
        let mut l = MmLock::new();
        assert!(l.acquire(t(1), LockMode::Read));
        assert!(!l.acquire(t(2), LockMode::Write));
        // Writer-preference: t3 must queue behind the writer.
        assert!(!l.acquire(t(3), LockMode::Read));
        assert_eq!(l.release(t(1)), vec![t(2)]);
        assert_eq!(l.writer(), Some(t(2)));
        assert_eq!(l.release(t(2)), vec![t(3)]);
    }

    #[test]
    fn consecutive_readers_granted_as_batch() {
        let mut l = MmLock::new();
        assert!(l.acquire(t(1), LockMode::Write));
        assert!(!l.acquire(t(2), LockMode::Read));
        assert!(!l.acquire(t(3), LockMode::Read));
        assert!(!l.acquire(t(4), LockMode::Write));
        let granted = l.release(t(1));
        assert_eq!(granted, vec![t(2), t(3)]);
        // The writer waits for both readers.
        assert_eq!(l.release(t(2)), vec![]);
        assert_eq!(l.release(t(3)), vec![t(4)]);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn releasing_unheld_panics() {
        let mut l = MmLock::new();
        l.release(t(1));
    }

    #[test]
    #[should_panic(expected = "re-entrant")]
    fn reentrant_write_panics() {
        let mut l = MmLock::new();
        l.acquire(t(1), LockMode::Write);
        l.acquire(t(1), LockMode::Write);
    }

    #[test]
    #[should_panic(expected = "queued twice")]
    fn double_queue_panics() {
        let mut l = MmLock::new();
        l.acquire(t(1), LockMode::Write);
        l.acquire(t(2), LockMode::Read);
        l.acquire(t(2), LockMode::Read);
    }
}
