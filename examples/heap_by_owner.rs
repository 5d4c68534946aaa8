//! Heap by owner: which structures hold the heap at a benchmark
//! workload's heap peak, and what the allocator holds beside them.
//!
//! ```sh
//! cargo run --example heap_by_owner                  # all four workloads
//! cargo run --example heap_by_owner -- serving-latr  # one
//! ```
//!
//! Each workload runs as one `benchmark` repetition runs it: the same
//! inputs (this file compiles in `benchmark/src/workloads.rs`), the
//! default seed, five set-ups of which the last one runs, then the
//! fingerprint. With no argument every workload runs in a child process
//! of its own, so none inherits another's heap.
//!
//! A global allocator takes each allocation's owner from its call stack
//! (the first frame that one of [`RULES`] names, innermost first) and
//! keeps every owner's live bytes. Whenever the live total reaches a new
//! peak it copies the owners' bytes and reads glibc's `mallinfo2()`, the
//! residency of the main arena's top chunk (`mincore`) and `VmRSS`. At
//! the end it prints the copy taken at the last peak: the heap by owner,
//! and the allocator's slack at that instant, split into chunk headers
//! and rounding (bytes malloc counts in use beyond those requested), free
//! chunks below the top chunk (each was handed out once, so its pages
//! were written), and the top chunk's resident pages. The probe's own
//! bookkeeping — backtraces, symbol tables, the pointer map — lives in a
//! private `mmap` pool, outside malloc's arenas; its resident bytes are
//! reported and left out of the slack.
//!
//! The dev profile keeps debug info, so inlined frames keep their names;
//! its allocations are the release build's (no simulator code allocates
//! under `debug_assertions` only). Every allocation's stack is
//! symbolised; the runs make few allocations once warm, so all four
//! take a few seconds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::ffi::c_void;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::sync::{Mutex, MutexGuard};

#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod workloads;

/// The benchmark's default seed (`benchmark/src/main.rs`).
const SEED: u64 = 0xC0FF;
/// Set-ups a benchmark repetition builds, keeping the last
/// (`benchmark/src/rep.rs`).
const SETUP_SAMPLES: usize = 5;

/// Owners, by a substring of a stack frame's function name. A stack is
/// read innermost first, and its first frame that a rule names decides;
/// within a frame the first matching rule wins. A stack no rule names is
/// charged to its innermost `latr_` frame, reported as "other: …".
const RULES: &[(&str, &str)] = &[
    ("latr_arch::tlb", "TLB arrays"),
    ("latr_core::state::StateQueue", "state-queue slots"),
    (
        "LatrPolicy::ensure_queues",
        "state-queue headers, pending-sweep rows",
    ),
    (
        "latr_core::sweep_index",
        "state-queue headers, pending-sweep rows",
    ),
    ("latr_core::reclaim", "reclaim records (LazyReclaimQueue)"),
    ("ReclaimFrames", "staged frames (reclaim FIFO)"),
    ("latr_core::policy", "policy box"),
    ("latr_mem::page_table", "page-table leaves"),
    ("latr_sim::event", "calendar ring and event arena"),
    ("latr_sim::stats", "histograms"),
    (
        "latr_verify::pipe",
        "oracle: pipe batches, channels, worker",
    ),
    ("Shadow::record", "oracle: history ring"),
    ("latr_verify::clock", "oracle: clock arena"),
    ("StateTable", "oracle: state table"),
    ("Shadow::publish", "oracle: state table"),
    ("Shadow::sweep", "oracle: state table"),
    ("Cachers", "oracle: cacher counts"),
    ("Shadow::fill", "oracle: shadow TLB maps"),
    ("Shadow::hit", "oracle: shadow TLB maps"),
    ("Shadow::new", "oracle: Shadow::new's vectors"),
    ("latr_verify", "oracle: other"),
    ("latr_mem::frame", "frame slots and node headers"),
    ("latr_mem::page_cache", "page cache"),
    (
        "latr_mem::mm",
        "tasks, mms, PCID index, VMAs, blocked-VA lists",
    ),
    (
        "latr_mem::vma",
        "tasks, mms, PCID index, VMAs, blocked-VA lists",
    ),
    (
        "latr_kernel::task",
        "tasks, mms, PCID index, VMAs, blocked-VA lists",
    ),
    (
        "Machine::spawn_task",
        "tasks, mms, PCID index, VMAs, blocked-VA lists",
    ),
    (
        "Machine::create_process",
        "tasks, mms, PCID index, VMAs, blocked-VA lists",
    ),
    ("::fingerprint", "fingerprint string"),
    ("Machine::new", "Machine::new's vectors"),
    ("latr_workloads", "workload"),
    ("heap_by_owner::workloads", "workload"),
];

/// Owner slots: the rules' labels first, then "other: …" frames as they
/// turn up, and one catch-all once those run out.
const OWNERS: usize = 96;

// ---- the probe's private pool ---------------------------------------------

/// A global allocator must not unwind, so nothing the probe does while
/// holding one of its locks panics, and a lock is never poisoned.
trait LockUnpoisoned<T> {
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T>;
}

impl<T> LockUnpoisoned<T> for Mutex<T> {
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Ends the process: the allocator cannot unwind.
fn fail(why: &str) -> ! {
    eprintln!("heap_by_owner: {why}");
    std::process::abort()
}

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> i32;
    fn sbrk(increment: isize) -> *mut c_void;
    fn mallinfo2() -> MallInfo2;
}

const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANON_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;
const PAGE: usize = 4096;
/// Address space the pool reserves; only the pages it writes are resident.
const POOL_BYTES: usize = 64 << 30;

/// glibc's `struct mallinfo2`.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

/// A size-class allocator over one reserved region: blocks are powers of
/// two from 16 B, aligned to their size, and a freed block goes on its
/// class's free list.
struct Pool {
    base: usize,
    bump: usize,
    free: [usize; 48],
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    base: 0,
    bump: 0,
    free: [0; 48],
});

fn class_of(layout: Layout) -> usize {
    layout
        .size()
        .max(layout.align())
        .max(16)
        .next_power_of_two()
        .trailing_zeros() as usize
}

impl Pool {
    fn alloc(&mut self, layout: Layout) -> *mut u8 {
        if self.base == 0 {
            // SAFETY: an anonymous private mapping at an address of the
            // kernel's choosing; no existing memory is touched.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    POOL_BYTES,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANON_NORESERVE,
                    -1,
                    0,
                )
            };
            if p as isize == -1 {
                fail("the probe's pool could not be mapped");
            }
            self.base = p as usize;
            self.bump = self.base;
        }
        let class = class_of(layout);
        let head = self.free[class];
        if head != 0 {
            // SAFETY: a free block's first word holds the next free block.
            self.free[class] = unsafe { *(head as *const usize) };
            return head as *mut u8;
        }
        let size = 1usize << class;
        let at = self.bump.next_multiple_of(size);
        if at + size > self.base + POOL_BYTES {
            fail("the probe's pool is full");
        }
        self.bump = at + size;
        at as *mut u8
    }

    fn dealloc(&mut self, ptr: *mut u8, layout: Layout) {
        let class = class_of(layout);
        // SAFETY: the block is at least 16 B and now unused.
        unsafe { *(ptr as *mut usize) = self.free[class] };
        self.free[class] = ptr as usize;
    }

    fn owns(&self, ptr: *mut u8) -> bool {
        let p = ptr as usize;
        self.base != 0 && p >= self.base && p < self.base + POOL_BYTES
    }
}

fn pool_owns(ptr: *mut u8) -> bool {
    POOL.lock_unpoisoned().owns(ptr)
}

// ---- the ledger ------------------------------------------------------------

/// What the allocator saw at one instant.
#[derive(Clone, Copy)]
struct Snapshot {
    live: [i64; OWNERS],
    total: i64,
    info: MallInfo2,
    /// Resident bytes of the main arena's top chunk.
    top_resident: usize,
    /// `RssAnon` (anonymous resident pages: heap, stacks, the pool), KiB.
    anon_kib: u64,
    /// Resident bytes of the probe's pool.
    pool_resident: usize,
}

struct Ledger {
    names: Vec<String>,
    /// Each tracked allocation's owner and size, by address.
    owners: HashMap<usize, (u8, usize)>,
    now: Snapshot,
    peak: Snapshot,
    /// Each owner's most live bytes at any instant.
    own_peak: [i64; OWNERS],
}

static LEDGER: Mutex<Option<Ledger>> = Mutex::new(None);

thread_local! {
    /// Set while the probe itself runs on this thread: its allocations go
    /// to the pool and are not counted.
    static IN_PROBE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's allocations routed to the pool.
fn in_probe<T>(f: impl FnOnce() -> T) -> T {
    IN_PROBE.with(|p| p.set(true));
    let out = f();
    IN_PROBE.with(|p| p.set(false));
    out
}

/// Whether this thread's allocations go to the pool (the probe runs, or
/// the thread is being torn down).
fn probing() -> bool {
    IN_PROBE.try_with(Cell::get).unwrap_or(true)
}

/// The owner of an allocation made from the current stack.
fn owner_of_stack(ledger_names: &mut Vec<String>) -> u8 {
    let trace = format!("{:?}", Backtrace::force_capture());
    let frames = trace
        .split("fn: \"")
        .skip(1)
        .map(|f| f.split('"').next().unwrap_or(""));
    let mut innermost_latr = None;
    for frame in frames {
        if let Some(&(_, label)) = RULES.iter().find(|(pattern, _)| frame.contains(pattern)) {
            return intern(ledger_names, label);
        }
        if innermost_latr.is_none() && frame.contains("latr_") {
            innermost_latr = Some(format!("other: {frame}"));
        }
    }
    intern(
        ledger_names,
        innermost_latr.as_deref().unwrap_or("other: no latr frame"),
    )
}

/// The index of owner `label`, added if new; once the table is full, a
/// new label gets one catch-all owner.
fn intern(names: &mut Vec<String>, label: &str) -> u8 {
    const FULL: &str = "other: frames past the owner table";
    let known = names.iter().any(|n| n == label);
    let label = if known || names.len() + 1 < OWNERS {
        label
    } else {
        FULL
    };
    let at = names.iter().position(|n| n == label).unwrap_or_else(|| {
        names.push(label.to_owned());
        names.len() - 1
    });
    at as u8
}

/// Resident bytes of the whole pages in `[start, end)`, which must lie
/// inside mappings of this process.
fn resident(start: usize, end: usize) -> usize {
    let mut vec = [0u8; 4096];
    let mut at = start.next_multiple_of(PAGE);
    let mut bytes = 0;
    while at + PAGE <= end {
        let pages = ((end - at) / PAGE).min(vec.len());
        // SAFETY: the range is mapped (the caller's contract), and `vec`
        // has a byte for each of its pages.
        let ok = unsafe { mincore(at as *mut c_void, pages * PAGE, vec.as_mut_ptr()) };
        if ok != 0 {
            return bytes;
        }
        bytes += vec[..pages].iter().filter(|&&b| b & 1 != 0).count() * PAGE;
        at += pages * PAGE;
    }
    bytes
}

/// Resident bytes of the main arena's top chunk, the `keepcost` bytes
/// below the break.
fn top_resident(keepcost: usize) -> usize {
    // SAFETY: `sbrk(0)` reads the break without moving it.
    let brk = unsafe { sbrk(0) } as usize;
    if keepcost == 0 || brk == usize::MAX || keepcost > brk {
        return 0;
    }
    resident(brk - keepcost, brk)
}

/// Resident bytes of the probe's pool.
fn pool_resident() -> usize {
    let (base, bump) = {
        let pool = POOL.lock_unpoisoned();
        (pool.base, pool.bump)
    };
    resident(base, bump.next_multiple_of(PAGE))
}

fn status_kib(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Adds `delta` bytes to `owner` and takes a snapshot at a new peak.
fn account(ledger: &mut Ledger, owner: u8, delta: i64) {
    let live = &mut ledger.now.live[usize::from(owner)];
    *live += delta;
    let own_peak = &mut ledger.own_peak[usize::from(owner)];
    *own_peak = (*own_peak).max(*live);
    ledger.now.total += delta;
    if ledger.now.total > ledger.peak.total {
        // SAFETY: `mallinfo2` only reads malloc's statistics.
        let info = unsafe { mallinfo2() };
        ledger.peak = Snapshot {
            info,
            top_resident: top_resident(info.keepcost),
            anon_kib: status_kib("RssAnon:"),
            pool_resident: pool_resident(),
            ..ledger.now
        };
    }
}

struct Probe;

// SAFETY: every block comes from `System` or from the pool and goes back
// to the one it came from (the pool owns one address range); the
// bookkeeping allocates only from the pool, through `in_probe`.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if probing() {
            return POOL.lock_unpoisoned().alloc(layout);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            in_probe(|| track(ptr, layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if pool_owns(ptr) {
            POOL.lock_unpoisoned().dealloc(ptr, layout);
            return;
        }
        // SAFETY: `ptr` came from `System` with `layout`: the pool owns
        // every other block.
        unsafe { System.dealloc(ptr, layout) };
        if !probing() {
            in_probe(|| untrack(ptr));
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if pool_owns(ptr) {
            // SAFETY: `GlobalAlloc::realloc`'s caller guarantees that
            // `new_size`, rounded up to `layout.align()`, fits an `isize`.
            let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
            let mut pool = POOL.lock_unpoisoned();
            if class_of(new_layout) == class_of(layout) {
                return ptr;
            }
            let new = pool.alloc(new_layout);
            // SAFETY: both blocks are live pool blocks of different size
            // classes, so they do not overlap, and each holds at least
            // the bytes copied.
            unsafe { std::ptr::copy_nonoverlapping(ptr, new, layout.size().min(new_size)) };
            pool.dealloc(ptr, layout);
            return new;
        }
        // SAFETY: `ptr` came from `System` (the pool owns every other
        // block), with `layout`; the caller upholds the rest.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() && !probing() {
            in_probe(|| {
                let mut guard = LEDGER.lock_unpoisoned();
                let Some(ledger) = guard.as_mut() else { return };
                if let Some((owner, size)) = ledger.owners.remove(&(ptr as usize)) {
                    ledger.owners.insert(new as usize, (owner, new_size));
                    account(ledger, owner, new_size as i64 - size as i64);
                }
            });
        }
        new
    }
}

/// Charges a fresh allocation to the owner its stack names.
fn track(ptr: *mut u8, size: usize) {
    let mut guard = LEDGER.lock_unpoisoned();
    let Some(ledger) = guard.as_mut() else { return };
    let owner = owner_of_stack(&mut ledger.names);
    ledger.owners.insert(ptr as usize, (owner, size));
    account(ledger, owner, size as i64);
}

fn untrack(ptr: *mut u8) {
    let mut guard = LEDGER.lock_unpoisoned();
    let Some(ledger) = guard.as_mut() else { return };
    if let Some((owner, size)) = ledger.owners.remove(&(ptr as usize)) {
        account(ledger, owner, -(size as i64));
    }
}

#[global_allocator]
static GLOBAL: Probe = Probe;

// ---- the run ---------------------------------------------------------------

fn kib(bytes: impl Into<f64>) -> f64 {
    bytes.into() / 1024.0
}

/// Runs `name` as a benchmark repetition does and prints its ledger.
fn probe(name: &str) -> Result<(), String> {
    let (baseline_kib, file_kib) = in_probe(|| (status_kib("RssAnon:"), status_kib("RssFile:")));
    in_probe(|| {
        let empty = Snapshot {
            live: [0; OWNERS],
            total: 0,
            info: MallInfo2::default(),
            top_resident: 0,
            anon_kib: 0,
            pool_resident: 0,
        };
        // The rules' owners first, in their order.
        let mut names = Vec::new();
        for (_, label) in RULES {
            intern(&mut names, label);
        }
        *LEDGER.lock_unpoisoned() = Some(Ledger {
            names,
            owners: HashMap::new(),
            now: empty,
            peak: empty,
            own_peak: [0; OWNERS],
        });
    });
    let mut built = None;
    for _ in 0..SETUP_SAMPLES {
        drop(built.take());
        let inputs = workloads::inputs(name, SEED).ok_or_else(|| {
            format!(
                "unknown workload {name}; one of {}",
                workloads::NAMES.join(", ")
            )
        })?;
        let machine = latr_kernel::Machine::new(inputs.config);
        let policy = inputs.policy.build();
        built = Some((machine, policy, inputs.workload));
    }
    let (mut machine, policy, workload) = built.expect("set up");
    machine.run(workload, policy, workloads::HORIZON);
    // A benchmark repetition renders the fingerprint after the run.
    drop(machine.fingerprint());
    let hwm_kib = in_probe(|| status_kib("VmHWM:"));
    drop(machine);

    let (names, peak, own_peak) = in_probe(|| {
        let guard = LEDGER.lock_unpoisoned();
        let ledger = guard.as_ref().expect("the ledger was set up");
        (ledger.names.clone(), ledger.peak, ledger.own_peak)
    });
    let report = in_probe(|| {
        let mut out = String::new();
        let _ = writeln!(out, "== {name} (seed {SEED:#x})");
        let _ = writeln!(
            out,
            "{:<52} {:>10} {:>10}",
            "owner", "KiB at the heap peak", "own peak"
        );
        for (i, label) in names.iter().enumerate() {
            if own_peak[i] != 0 {
                let (at_peak, own) = (kib(peak.live[i] as f64), kib(own_peak[i] as f64));
                let _ = writeln!(out, "{label:<52} {at_peak:>20.1} {own:>10.1}");
            }
        }
        let info = peak.info;
        let in_use = info.uordblks + info.hblkhd;
        let headers = in_use as i64 - peak.total;
        let free_below_top = info.fordblks.saturating_sub(info.keepcost);
        let program_anon = peak.anon_kib as f64 - kib(peak.pool_resident as f64);
        let slack =
            kib(headers as f64) + kib(free_below_top as f64) + kib(peak.top_resident as f64);
        let rows = [
            ("heap peak (live bytes requested)", kib(peak.total as f64)),
            ("malloc in use (uordblks + hblkhd)", kib(in_use as f64)),
            ("  chunk headers and rounding", kib(headers as f64)),
            (
                "free chunks below the top (fordblks - keepcost)",
                kib(free_below_top as f64),
            ),
            ("top chunk (keepcost)", kib(info.keepcost as f64)),
            (
                "  of which resident (mincore)",
                kib(peak.top_resident as f64),
            ),
            ("measured slack: headers + free + resident top", slack),
            (
                "RssFile before the run (binary, libraries)",
                file_kib as f64,
            ),
            ("RssAnon before the run", baseline_kib as f64),
            ("RssAnon at the heap peak", peak.anon_kib as f64),
            (
                "  of which the probe's pool (left out below)",
                kib(peak.pool_resident as f64),
            ),
            (
                "unexplained: RssAnon less pool, before-run, heap, slack",
                program_anon - baseline_kib as f64 - kib(peak.total as f64) - slack,
            ),
            (
                "VmHWM at the end (pool and symbols included)",
                hwm_kib as f64,
            ),
        ];
        for (label, value) in rows {
            let _ = writeln!(out, "{label:<52} {value:>10.1}");
        }
        out
    });
    print!("{report}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |name: &str| match probe(name) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    };
    match args.as_slice() {
        [name] => run(name),
        [] => {
            let exe = std::env::current_exe().expect("own path");
            for name in workloads::NAMES {
                let ok = Command::new(&exe)
                    .arg(name)
                    .status()
                    .is_ok_and(|s| s.success());
                if !ok {
                    eprintln!("the {name} probe failed");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: heap_by_owner [WORKLOAD]");
            ExitCode::FAILURE
        }
    }
}
