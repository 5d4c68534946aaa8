//! One repetition of one workload, run inside its own child process: set
//! up, run, check, and report one line of `key=value` fields on stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use latr_kernel::{metrics, Machine, TlbPolicy, Workload};

use crate::timed::{Hook, Recorder, TimedPolicy, TimedWorkload};
use crate::workloads::{self, HORIZON};

/// What a child runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// The measured run: no wrappers.
    Plain,
    /// The same run with every hook timed.
    Traced,
    /// The plain run with the oracle switched off, to price the oracle.
    Twin,
}

impl Pass {
    pub fn name(self) -> &'static str {
        match self {
            Pass::Plain => "plain",
            Pass::Traced => "traced",
            Pass::Twin => "twin",
        }
    }

    pub fn parse(s: &str) -> Option<Pass> {
        [Pass::Plain, Pass::Traced, Pass::Twin]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

/// Machine set-ups timed per child; the child reports their median.
const SETUP_SAMPLES: usize = 5;

/// Prefix of the line a child prints, so stray output cannot be mistaken
/// for it.
const LINE_TAG: &str = "REP";

/// The parsed report of one child.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub values: BTreeMap<String, f64>,
    pub fingerprint: String,
    /// Why the run is wrong; empty when every check passed.
    pub failures: Vec<String>,
}

impl Rep {
    /// A value the child reported; 0 when it reported none.
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_string(), value);
    }

    /// The line the child prints.
    pub fn to_line(&self) -> String {
        let mut out = format!("{LINE_TAG} fingerprint={}", self.fingerprint);
        for (k, v) in &self.values {
            let _ = write!(out, " {k}={v}");
        }
        for f in &self.failures {
            let _ = write!(out, " failure={}", f.replace(char::is_whitespace, "_"));
        }
        out
    }

    /// Parses a child's line; `None` if it is not one.
    pub fn parse(line: &str) -> Option<Rep> {
        let mut fields = line.split_whitespace();
        if fields.next() != Some(LINE_TAG) {
            return None;
        }
        let mut rep = Rep::default();
        for field in fields {
            let (k, v) = field.split_once('=')?;
            match k {
                "fingerprint" => rep.fingerprint = v.to_string(),
                "failure" => rep.failures.push(v.to_string()),
                _ => {
                    rep.values.insert(k.to_string(), v.parse().ok()?);
                }
            }
        }
        Some(rep)
    }
}

/// FNV-1a, folding the rendered fingerprint to 64 bits.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs one pass of `workload` and reports it. Panics only on an unknown
/// workload name, which the parent has already rejected.
pub fn run(workload: &str, seed: u64, pass: Pass) -> Rep {
    let mut rep = Rep::default();
    // Set-up is everything before `Machine::run`: building the inputs, the
    // machine (frame lists, TLBs, oracle) and the policy. Time several and
    // keep the last.
    let mut setup_ns = Vec::with_capacity(SETUP_SAMPLES);
    let mut built = None;
    for _ in 0..SETUP_SAMPLES {
        drop(built.take());
        let start = Instant::now();
        let mut inputs = workloads::inputs(workload, seed).expect("known workload");
        if pass == Pass::Twin {
            inputs.config.oracle = false;
        }
        let oracle = inputs.config.oracle;
        let machine = Machine::new(inputs.config);
        let policy = inputs.policy.build();
        setup_ns.push(start.elapsed().as_nanos() as f64);
        built = Some((machine, policy, inputs.workload, inputs.admitted, oracle));
    }
    let (mut machine, policy, workload_box, admitted, oracle) = built.expect("set up");
    rep.set("setup_ns", crate::median(&mut setup_ns));

    let recorder = (pass == Pass::Traced).then(Recorder::new);
    let (workload_box, policy): (Box<dyn Workload>, Box<dyn TlbPolicy>) = match &recorder {
        Some(rec) => (
            Box::new(TimedWorkload::new(workload_box, rec.clone())),
            Box::new(TimedPolicy::new(policy, rec.clone())),
        ),
        None => (workload_box, policy),
    };
    let start = Instant::now();
    machine.run(workload_box, policy, HORIZON);
    rep.set("wall_ns", start.elapsed().as_nanos() as f64);

    rep.fingerprint = format!("{:016x}", fnv1a(&machine.fingerprint()));
    rep.set("events", machine.events_delivered() as f64);
    sim_values(&machine, &mut rep);
    check(&machine, admitted, oracle, &mut rep);
    if let Some(rec) = recorder {
        layer_values(&rec.borrow(), &mut rep);
        write_trace(workload, &rec.borrow());
    }
    rep.set("peak_rss_kib", peak_rss_kib().unwrap_or(0.0));
    rep
}

/// Simulated results and counters: deterministic for a seed.
fn sim_values(machine: &Machine, rep: &mut Rep) {
    for (key, hist) in [
        ("request", metrics::SERVING_REQUEST_NS),
        ("munmap", metrics::MUNMAP_NS),
        ("shootdown", metrics::SHOOTDOWN_NS),
        ("reclaim_lag", metrics::LATR_RECLAIM_LATENCY_NS),
    ] {
        if let Some(s) = machine.stats.histogram(hist).map(|h| h.summary()) {
            rep.set(&format!("{key}.count"), s.count as f64);
            rep.set(&format!("{key}.p50_ns"), s.p50 as f64);
            rep.set(&format!("{key}.p999_ns"), s.p999 as f64);
        }
    }
    for (key, counter) in [
        ("work_units", metrics::WORK_UNITS),
        ("oom_events", metrics::OOM_EVENTS),
        ("states_saved", metrics::LATR_STATES_SAVED),
        ("sweep_hits", metrics::LATR_SWEEP_HITS),
        ("fallback_ipis", metrics::LATR_FALLBACK_IPIS),
        ("released_frames", metrics::LATR_RECLAIM_RELEASED_FRAMES),
        ("page_faults", metrics::PAGE_FAULTS),
        ("ipis_sent", metrics::IPIS_SENT),
        ("shootdowns", metrics::SHOOTDOWNS),
        ("sched_ticks", metrics::SCHED_TICKS),
        ("mmap_sem_waits", "mmap_sem_waits"),
    ] {
        rep.set(key, machine.stats.counter(counter) as f64);
    }
    let (mut lookups, mut misses, mut invalidations, mut full_flushes) = (0, 0, 0, 0);
    for core in &machine.cores {
        let s = core.tlb.stats();
        lookups += s.lookups();
        misses += s.misses;
        invalidations += s.invalidations;
        full_flushes += s.full_flushes;
    }
    rep.set("tlb_lookups", lookups as f64);
    rep.set("tlb_misses", misses as f64);
    rep.set("tlb_invalidations", invalidations as f64);
    rep.set("tlb_full_flushes", full_flushes as f64);
}

/// The correctness gate: invariants, leaks, the oracle's verdict, and
/// every admitted operation completed.
fn check(machine: &Machine, admitted: u64, oracle: bool, rep: &mut Rep) {
    if let Some(v) = machine.check_reclamation_invariant() {
        rep.failures.push(format!("reclamation invariant: {v}"));
    }
    if let Some(v) = machine.check_mapping_coherence() {
        rep.failures.push(format!("mapping coherence: {v}"));
    }
    // Page-cache frames stay resident by design; anything else is a leak.
    let leaked =
        machine.frames.allocated_count() as i64 - machine.page_cache.resident_pages() as i64;
    if leaked != 0 {
        rep.failures.push(format!("{leaked} frames leaked"));
    }
    if oracle {
        if let Some(v) = machine.oracle_violation() {
            rep.failures.push(format!("oracle: {v}"));
        }
        let observed = machine.oracle_events_observed();
        if observed == 0 {
            rep.failures.push("oracle observed nothing".to_string());
        }
        rep.set("oracle_events", observed as f64);
    }
    let completed = machine.stats.counter(metrics::WORK_UNITS);
    let failed = admitted.saturating_sub(completed) + machine.stats.counter(metrics::OOM_EVENTS);
    rep.set("ops", admitted as f64);
    rep.set("ops_failed", failed as f64);
    if failed > 0 {
        rep.failures
            .push(format!("{failed} of {admitted} ops failed"));
    }
}

/// The traced pass's per-hook and sampled-gauge values.
fn layer_values(rec: &Recorder, rep: &mut Rep) {
    for hook in Hook::ALL {
        let h = rec.hook(hook);
        let name = hook.name();
        rep.set(&format!("{name}.calls"), h.calls as f64);
        rep.set(&format!("{name}.self_ns"), h.total_ns as f64);
        rep.set(&format!("{name}.p50_ns"), h.hist.percentile(0.50) as f64);
        rep.set(&format!("{name}.p99_ns"), h.hist.percentile(0.99) as f64);
    }
    rep.set("hooks_ns", rec.hooks_ns() as f64);
    rep.set("replay.samples", rec.replay.calls as f64);
    rep.set("replay.total_ns", rec.replay.total_ns as f64);
    rep.set("replay.p50_ns", rec.replay.hist.percentile(0.50) as f64);
    rep.set("replay.p99_ns", rec.replay.hist.percentile(0.99) as f64);
    let mean = rec.blocked_va_sum as f64 / rec.blocked_va_samples.max(1) as f64;
    rep.set("blocked_va.mean", mean);
    rep.set("blocked_va.max", rec.blocked_va_max as f64);
    rep.set("reclaim_debt_max", rec.reclaim_debt_max as f64);
    rep.set("frames_allocated_max", rec.frames_allocated_max as f64);
}

/// Writes the sampled spans to `target/benchmark/trace-<workload>.json`.
fn write_trace(workload: &str, rec: &Recorder) {
    let dir = std::path::Path::new("target").join("benchmark");
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.chrome_trace(workload)));
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
