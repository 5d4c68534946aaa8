//! Golden violation reports: seeded random note streams, driven through
//! the oracle's public API, whose rendered verdicts are pinned byte for
//! byte against `tests/golden/violations.txt`.
//!
//! Each seed feeds every `note_*` kind for 6k–18k steps. Frame
//! allocations, frees, migration faults and fills or hits of unallocated
//! frames come only in the last ~300 steps, so the first report fires
//! after the 4,096-record history ring has wrapped, and its trace shows
//! records that were overwritten in place — with their full vector
//! clocks. Hits always name the frame the oracle's shadow already holds
//! for that page, as the simulated TLB guarantees. The file is the
//! byte-identity gate for the oracle's internal layout: any change to its
//! bookkeeping must reproduce it exactly.
//!
//! To re-bless after an *intentional* change to the reports:
//!
//! ```sh
//! LATR_BLESS=1 cargo test -p latr-verify --test violation_golden
//! git diff crates/verify/tests/golden/   # review every hunk
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use latr_arch::{CpuId, CpuMask, TlbEntry};
use latr_mem::{MmId, Pfn, VaRange, Vpn};
use latr_sim::{SimRng, Time};
use latr_verify::{CoherenceOracle, Ctx, ViolationKind};

const SEEDS: u64 = 40;
/// Steps at the end of a stream in which frame-lifetime notes may fire.
const TAIL: u64 = 300;
const PAGES: u64 = 48;
const FRAMES: u64 = 40;
const PCIDS: u64 = 2;

/// Published ranges: overlapping, so a migration check can see several.
fn range(i: u64) -> VaRange {
    VaRange::new(Vpn(i * 4), 6)
}

/// What the test knows the oracle's shadow TLBs hold.
struct Model {
    ncpus: u16,
    /// Per core: (pcid, vpn) → pfn.
    cached: Vec<BTreeMap<(u16, u64), u64>>,
    /// In-flight shootdowns: txn → targets that have not ACKed yet.
    txns: BTreeMap<u64, Vec<CpuId>>,
    next_txn: u64,
}

impl Model {
    fn cpu(&self, rng: &mut SimRng) -> CpuId {
        CpuId(rng.below(self.ncpus.into()) as u16)
    }

    fn ctx(&self, rng: &mut SimRng) -> Ctx {
        if rng.below(4) == 0 {
            Ctx::Kthread
        } else {
            Ctx::Cpu(self.cpu(rng))
        }
    }

    fn mask(&self, rng: &mut SimRng) -> CpuMask {
        CpuMask::from_cpus((0..self.ncpus).filter(|_| rng.below(3) == 0).map(CpuId))
    }

    /// A cached entry of `cpu`, if it has any.
    fn pick(&self, cpu: CpuId, rng: &mut SimRng) -> Option<((u16, u64), u64)> {
        let map = &self.cached[cpu.index()];
        let n = map.len() as u64;
        (n > 0).then(|| {
            let (&k, &p) = map.iter().nth(rng.below(n) as usize).expect("in range");
            (k, p)
        })
    }
}

/// Runs one seeded stream and renders what the oracle reports.
fn run(seed: u64) -> (String, Option<ViolationKind>) {
    let mut rng = SimRng::new(seed);
    let ncpus = [2u16, 3, 4, 6, 8, 12, 16][rng.below(7) as usize];
    let steps = 6_000 + rng.below(12_001);
    let tail_start = steps - TAIL;
    let mut o = CoherenceOracle::new(ncpus.into());
    let mut m = Model {
        ncpus,
        cached: vec![BTreeMap::new(); ncpus.into()],
        txns: BTreeMap::new(),
        next_txn: 1,
    };
    for step in 0..steps {
        let at = Time::from_ns(step * 100);
        let tail = step >= tail_start;
        let cpu = m.cpu(&mut rng);
        match rng.below(if tail { 16 } else { 12 }) {
            0 | 1 => {
                let pcid = rng.below(PCIDS) as u16;
                let vpn = rng.below(PAGES);
                let pfn = rng.below(FRAMES);
                let allocated = !tail || rng.below(8) != 0;
                o.note_fill(cpu, pcid, Vpn(vpn), Pfn(pfn), allocated, at);
                m.cached[cpu.index()].insert((pcid, vpn), pfn);
            }
            2 => {
                // A hit through the cached entry, or one that self-heals
                // a page the shadow does not hold.
                let allocated = !tail || rng.below(8) != 0;
                if let Some(((pcid, vpn), pfn)) = m.pick(cpu, &mut rng) {
                    o.note_hit(cpu, pcid, Vpn(vpn), Pfn(pfn), allocated, at);
                } else {
                    let (pcid, vpn, pfn) = (0, rng.below(PAGES), rng.below(FRAMES));
                    o.note_hit(cpu, pcid, Vpn(vpn), Pfn(pfn), allocated, at);
                    m.cached[cpu.index()].insert((pcid, vpn), pfn);
                }
            }
            3 => {
                let (pcid, vpn) = match m.pick(cpu, &mut rng) {
                    Some((key, _)) if rng.below(4) != 0 => key,
                    _ => (rng.below(PCIDS) as u16, rng.below(PAGES)),
                };
                o.note_invalidate(cpu, pcid, Vpn(vpn), at);
                m.cached[cpu.index()].remove(&(pcid, vpn));
            }
            4 => {
                if rng.below(6) == 0 {
                    o.note_flush_all(cpu, at);
                    m.cached[cpu.index()].clear();
                } else {
                    let mut evicted = Vec::new();
                    for _ in 0..rng.below(4) {
                        if let Some(((pcid, vpn), pfn)) = m.pick(cpu, &mut rng) {
                            m.cached[cpu.index()].remove(&(pcid, vpn));
                            evicted.push(TlbEntry {
                                pcid,
                                vpn,
                                pfn,
                                writable: false,
                            });
                        }
                    }
                    o.note_evictions(cpu, &evicted, at);
                }
            }
            5 | 6 => {
                let targets = m.mask(&mut rng);
                let migration = rng.below(3) == 0;
                let (mm, r) = (MmId(rng.below(2) as u32), range(rng.below(6)));
                o.note_publish(cpu, mm, r, targets, migration, at);
            }
            7 | 8 => {
                let (mm, r) = (MmId(rng.below(2) as u32), range(rng.below(7)));
                o.note_sweep(cpu, mm, r, at);
            }
            9 => {
                let txn = m.next_txn;
                m.next_txn += 1;
                let targets = m.mask(&mut rng);
                o.note_ipi_send(cpu, txn, targets, at);
                let list: Vec<CpuId> = targets.iter().collect();
                if !list.is_empty() {
                    m.txns.insert(txn, list);
                }
            }
            10 => {
                // Deliver to one pending target, or to a stray txn.
                let live = m.txns.len() as u64;
                if live > 0 && rng.below(8) != 0 {
                    let (&txn, targets) = m.txns.iter().nth(rng.below(live) as usize).unwrap();
                    let target = targets[rng.below(targets.len() as u64) as usize];
                    o.note_ipi_deliver(target, txn, at);
                } else {
                    o.note_ipi_deliver(cpu, m.next_txn + 7, at);
                }
            }
            11 => {
                let live = m.txns.len() as u64;
                if live > 0 {
                    let txn = *m.txns.keys().nth(rng.below(live) as usize).unwrap();
                    let targets = m.txns.get_mut(&txn).unwrap();
                    let from = targets.swap_remove(rng.below(targets.len() as u64) as usize);
                    let done = targets.is_empty();
                    if done {
                        m.txns.remove(&txn);
                    }
                    o.note_ack(cpu, from, txn, done, at);
                }
            }
            12 => o.note_alloc(m.ctx(&mut rng), Pfn(rng.below(FRAMES)), at),
            13 => o.note_free(m.ctx(&mut rng), Pfn(rng.below(FRAMES)), at),
            _ => {
                let (mm, vpn) = (MmId(rng.below(2) as u32), Vpn(rng.below(PAGES)));
                o.note_migration_proceed(cpu, mm, vpn, at);
            }
        }
    }
    let mut out = String::new();
    writeln!(out, "=== seed {seed}: {ncpus} cpus, {steps} steps ===").unwrap();
    match o.violation() {
        Some(v) => writeln!(out, "{v}").unwrap(),
        None => writeln!(out, "clean").unwrap(),
    }
    writeln!(
        out,
        "observed {} events, {} suppressed",
        o.events_observed(),
        o.suppressed_count()
    )
    .unwrap();
    (out, o.violation().map(|v| v.kind))
}

#[test]
fn violation_reports_match_the_golden_file() {
    let mut got = String::new();
    let mut kinds = Vec::new();
    for seed in 0..SEEDS {
        let (text, kind) = run(seed);
        got.push_str(&text);
        kinds.extend(kind);
    }
    for want in [
        ViolationKind::FreedWhileCached,
        ViolationKind::ReusedWhileCached,
        ViolationKind::MigrationBeforeSweepComplete,
    ] {
        assert!(
            kinds.contains(&want),
            "no seed reported {want}: the golden must cover it"
        );
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/violations.txt");
    if std::env::var_os("LATR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\ngenerate it with \
             `LATR_BLESS=1 cargo test -p latr-verify --test violation_golden`",
            path.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "violation reports drifted from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
