//! The oracle's worker thread and the batched pipe that feeds it.
//!
//! The oracle never feeds anything back into the machine, so while
//! `Machine::run` runs its shadow state can live on a thread of its own.
//! Each [`Note`] the kernel hands the oracle is then appended, with its
//! time, to the batch being filled; `close()` appends `None`. The two
//! kinds that name target cores (publish and IPI send) keep their
//! [`CpuMask`] out of line: the batch's mask list holds them in note
//! order, and the worker takes the next one for each such note.
//!
//! [`BATCHES`] batches exist, each allocated once. A full one travels to
//! the worker over one `sync_channel`, and the worker applies its notes
//! in order and sends it back emptied over another, so the simulation
//! fills one batch while the worker applies a second and a third waits.
//! Both channels hold every batch, so no send ever blocks.
//!
//! The worker is spawned before the shadow state moves: it takes the
//! shadow from a channel of its own once the spawn has succeeded, so a
//! host that cannot start the thread leaves the shadow where it was and
//! the oracle checks in place.
//!
//! A side with nothing to do yields its core for up to [`SPIN`], then
//! parks; it never blocks in `recv`. A thread's first blocking `recv`
//! allocates (its wait context and a waker entry in the channel), and
//! whether a run ever blocks depends on the host's scheduling; yielding
//! and parking allocate nothing, so the allocations of an oracle-on run
//! stay a function of its notes alone. The simulation thread unparks the
//! worker after every batch it sends and after it hangs up; the worker
//! unparks the simulation thread after every batch it returns and when
//! it exits, by return or by panic.

use crate::event::Note;
use crate::oracle::Shadow;
use latr_arch::CpuMask;
use latr_sim::Time;
use std::mem;
use std::panic;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Notes per batch: 64 KiB. Smaller batches spend their time in the
/// hand-offs: with 256, `serving-latr-oracle` ran 25 % slower (6 pairs
/// on a shared 2-vCPU x86-64 host).
const BATCH: usize = 2048;

/// Batches in existence: one filling, one being applied, one queued.
const BATCHES: usize = 3;

/// How long a side with nothing to do yields before it parks: longer
/// than the simulation takes to fill a batch (~0.4 ms on
/// `serving-latr-oracle`), so a worker that keeps up is never woken. A
/// parked worker is woken by the simulation, and a host's scheduler may
/// then run it on the simulation's core, the two taking turns while the
/// other core idles. With parking alone, on a shared 2-vCPU x86-64 host
/// in such a period, each of a run's ~129 batches cost an involuntary
/// context switch, and `serving-latr-oracle` `wall_s` read 12.5 % below
/// the in-place oracle's, against 34 % with the yields. The yields keep
/// the worker on its own core, at the price of that core's time while a
/// run lasts.
const SPIN: Duration = Duration::from_millis(1);

// A batch entry: a note, or `None` for `close()`.
const _: () = assert!(mem::size_of::<(Time, Option<Note>)>() <= 32);

/// Notes in order, and the masks of the masked ones in the same order.
#[derive(Debug, Default)]
struct Batch {
    notes: Vec<(Time, Option<Note>)>,
    masks: Vec<CpuMask>,
}

impl Batch {
    fn new() -> Self {
        Batch {
            notes: Vec::with_capacity(BATCH),
            // Every note could be masked, so neither list ever grows.
            masks: Vec::with_capacity(BATCH),
        }
    }
}

/// The simulation's end of the pipe, holding the batch being filled.
#[derive(Debug)]
pub(crate) struct Pipe {
    batch: Batch,
    /// `None` once hung up.
    full: Option<SyncSender<Batch>>,
    empty: Receiver<Batch>,
    /// `None` once joined.
    worker: Option<JoinHandle<Shadow>>,
}

impl Pipe {
    /// Starts a worker thread and moves `shadow` onto it, leaving an
    /// empty one behind. `None`, with `shadow` untouched, if the host
    /// cannot start the thread.
    pub(crate) fn start(shadow: &mut Shadow) -> Option<Pipe> {
        let (hand, handed) = sync_channel(1);
        let (full, full_rx) = sync_channel(BATCHES);
        let (empty_tx, empty) = sync_channel(BATCHES);
        for _ in 1..BATCHES {
            empty_tx.send(Batch::new()).expect("the receiver is here");
        }
        let sim = thread::current();
        let worker = thread::Builder::new()
            .name("latr-oracle".into())
            .spawn(move || {
                // Dropped after `work` has dropped its ends of the pipe,
                // so the simulation wakes to see them gone.
                let sim = UnparkOnDrop(sim);
                let shadow = wait(&handed).expect("the shadow follows the spawn");
                work(shadow, full_rx, empty_tx, &sim.0)
            })
            .ok()?;
        hand.send(mem::take(shadow))
            .expect("the worker takes the shadow");
        worker.thread().unpark();
        Some(Pipe {
            batch: Batch::new(),
            full: Some(full),
            empty,
            worker: Some(worker),
        })
    }

    /// Appends a note (`None` closes the shadow), and the targets `mask`
    /// of a publish or an IPI send; sends the batch once it is full.
    #[inline]
    pub(crate) fn push(&mut self, at: Time, note: Option<Note>, mask: Option<CpuMask>) {
        self.batch.masks.extend(mask);
        self.batch.notes.push((at, note));
        if self.batch.notes.len() == BATCH {
            self.send();
        }
    }

    /// Sends the batch being filled and takes an emptied one in its
    /// place, waiting until the worker returns one.
    #[cold]
    fn send(&mut self) {
        self.hand_over();
        self.batch = match wait(&self.empty) {
            Some(batch) => batch,
            None => self.reraise(),
        };
    }

    /// Sends the batch being filled, leaving an unallocated one.
    fn hand_over(&mut self) {
        let batch = mem::take(&mut self.batch);
        let full = self.full.as_ref().expect("the pipe is open");
        if full.send(batch).is_err() {
            self.reraise();
        }
        let worker = self.worker.as_ref().expect("the worker runs");
        worker.thread().unpark();
    }

    /// Sends the notes still in the batch, waits for the worker to apply
    /// everything sent, and returns the shadow state. Re-raises a panic
    /// of the worker.
    pub(crate) fn join(&mut self) -> Shadow {
        if !self.batch.notes.is_empty() {
            self.hand_over();
        }
        self.hang_up()
            .unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Closes the pipe and joins the worker, which leaves once it has
    /// applied what it holds.
    fn hang_up(&mut self) -> thread::Result<Shadow> {
        self.full = None;
        let worker = self.worker.take().expect("joined once");
        worker.thread().unpark();
        worker.join()
    }

    /// The worker has gone, which only a panic does while the pipe is
    /// open: raise it here.
    fn reraise(&mut self) -> ! {
        match self.hang_up() {
            Err(payload) => panic::resume_unwind(payload),
            Ok(_) => unreachable!("the oracle worker left an open pipe"),
        }
    }
}

impl Drop for Pipe {
    /// A pipe dropped unjoined (the simulation panicked mid-run) still
    /// joins its worker, but does not re-raise a panic of the worker: a
    /// panic while one unwinds would abort.
    fn drop(&mut self) {
        if self.worker.is_some() {
            let _ = self.hang_up();
        }
    }
}

/// Yields, then parks, until `rx` yields a value; `None` once its
/// sender has gone and nothing is left.
fn wait<T>(rx: &Receiver<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Empty) if start.elapsed() < SPIN => thread::yield_now(),
            Err(TryRecvError::Empty) => thread::park(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
}

/// Unparks a thread when dropped.
struct UnparkOnDrop(Thread);

impl Drop for UnparkOnDrop {
    fn drop(&mut self) {
        self.0.unpark();
    }
}

/// The worker: applies each batch's notes in order and returns the batch
/// emptied, until the simulation hangs up.
fn work(
    mut shadow: Shadow,
    full: Receiver<Batch>,
    empty: SyncSender<Batch>,
    sim: &Thread,
) -> Shadow {
    while let Some(mut batch) = wait(&full) {
        let mut masks = batch.masks.iter();
        for &(at, note) in &batch.notes {
            shadow.apply(at, note, &mut masks);
        }
        batch.notes.clear();
        batch.masks.clear();
        // Fails only once the simulation's end is dropped, when no batch
        // is wanted.
        let _ = empty.send(batch);
        sim.unpark();
    }
    shadow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoherenceOracle, Ctx};
    use latr_arch::CpuId;
    use latr_mem::{MmId, Pfn, VaRange, Vpn};

    const T: Time = Time::ZERO;

    /// Several batches of every masked and unmasked note kind, then frees
    /// of frames still cached: the worker reports what in place reports.
    #[test]
    fn the_worker_applies_what_in_place_applies() {
        let run = |worker: bool| {
            let mut o = CoherenceOracle::new(4);
            if worker {
                o.start_worker();
            }
            for i in 0..3 * BATCH as u64 + 17 {
                let cpu = CpuId((i % 4) as u16);
                let other = CpuMask::from_cpus([CpuId(((i + 1) % 4) as u16)]);
                let (mm, range) = (MmId(0), VaRange::new(Vpn(i % 8), 1));
                let (note, mask) = match i % 5 {
                    0 => {
                        let migration = false;
                        let initiator = cpu;
                        (
                            Note::Publish {
                                initiator,
                                mm,
                                range,
                                migration,
                            },
                            Some(other),
                        )
                    }
                    1 => (Note::Sweep { cpu, mm, range }, None),
                    2 => (
                        Note::IpiSend {
                            initiator: cpu,
                            txn: i,
                        },
                        Some(other),
                    ),
                    3 => {
                        let (pcid, vpn, pfn) = (0, Vpn(i % 8), Pfn(i % 8));
                        let allocated = true;
                        (
                            Note::Fill {
                                cpu,
                                pcid,
                                vpn,
                                pfn,
                                allocated,
                            },
                            None,
                        )
                    }
                    _ => (
                        Note::Invalidate {
                            cpu,
                            pcid: 0,
                            vpn: Vpn(i % 7),
                        },
                        None,
                    ),
                };
                o.note(T, note, mask);
            }
            for pfn in 0..8 {
                o.note(
                    T,
                    Note::Free {
                        ctx: Ctx::Kthread,
                        pfn: Pfn(pfn),
                    },
                    None,
                );
            }
            o.join_worker();
            let report = o.violation().map(|v| v.to_string());
            (report, o.events_observed(), o.suppressed_count())
        };
        let in_place = run(false);
        assert!(in_place.0.is_some(), "the stream must end in a report");
        assert!(in_place.2 > 0, "and in suppressed checks");
        assert_eq!(run(true), in_place);
    }

    #[test]
    #[should_panic(expected = "the oracle is read before join_worker")]
    fn the_verdict_is_not_read_while_the_worker_runs() {
        let mut o = CoherenceOracle::new(2);
        o.start_worker();
        let _ = o.events_observed();
    }

    /// A publish without its mask panics the worker.
    fn poison(pipe: &mut Pipe) {
        let note = Note::Publish {
            initiator: CpuId(0),
            mm: MmId(0),
            range: VaRange::new(Vpn(0), 1),
            migration: false,
        };
        pipe.push(T, Some(note), None);
    }

    #[test]
    #[should_panic(expected = "a publish has its mask")]
    fn a_worker_panic_is_raised_at_the_join() {
        let mut pipe = Pipe::start(&mut Shadow::new(2)).expect("a worker");
        poison(&mut pipe);
        pipe.join();
    }

    #[test]
    fn a_worker_panic_is_raised_by_a_later_batch() {
        let mut pipe = Pipe::start(&mut Shadow::new(2)).expect("a worker");
        poison(&mut pipe);
        let pushed = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            for vpn in 0..10 * BATCH as u64 {
                let note = Note::Invalidate {
                    cpu: CpuId(1),
                    pcid: 0,
                    vpn: Vpn(vpn),
                };
                pipe.push(T, Some(note), None);
            }
        }));
        let payload = pushed.expect_err("the worker's panic reaches the simulation");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("a publish has its mask"), "{message:?}");
    }
}
