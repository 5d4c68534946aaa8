//! Tasks (threads) and their scheduling state.

use latr_arch::CpuId;
use latr_mem::{MmId, VaRange};

/// Identifier of a task (thread), dense from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Lifecycle state of a task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// Executing ops.
    Running,
    /// Blocked on a synchronous shootdown's ACKs.
    BlockedOnShootdown,
    /// Finished ([`crate::Op::Exit`]).
    Done,
}

/// One thread of a simulated process, pinned to a core (the paper's
/// benchmarks pin workers and disable hyperthreading).
#[derive(Clone, Debug)]
pub struct Task {
    /// This task's id.
    pub id: TaskId,
    /// The address space the task runs in. Threads of one process share an
    /// `MmId`.
    pub mm: MmId,
    /// The core the task is pinned to.
    pub core: CpuId,
    /// Lifecycle state.
    pub state: TaskState,
    /// Result of the task's most recent `MmapAnon`/`MmapFile`/`Mremap` op,
    /// for the workload to pick up.
    pub last_mmap: Option<VaRange>,
    /// Result of the task's most recent `Fork` op.
    pub last_fork: Option<MmId>,
    /// Monotonic count of ops completed, for debugging and workload pacing.
    pub ops_completed: u64,
}

impl Task {
    /// Creates a runnable task pinned to `core` in address space `mm`.
    pub fn new(id: TaskId, mm: MmId, core: CpuId) -> Self {
        Task {
            id,
            mm,
            core,
            state: TaskState::Running,
            last_mmap: None,
            last_fork: None,
            ops_completed: 0,
        }
    }

    /// Whether the task still has work to do.
    pub fn is_live(&self) -> bool {
        self.state != TaskState::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_task_is_running() {
        let t = Task::new(TaskId(3), MmId(1), CpuId(2));
        assert_eq!(t.state, TaskState::Running);
        assert!(t.is_live());
        assert_eq!(t.id.index(), 3);
        assert!(t.last_mmap.is_none());
    }

    #[test]
    fn done_task_is_not_live() {
        let mut t = Task::new(TaskId(0), MmId(0), CpuId(0));
        t.state = TaskState::Done;
        assert!(!t.is_live());
    }
}
