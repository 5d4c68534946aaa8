//! The four benchmark workloads and the inputs each one derives from the
//! seed. The simulator sees only what is built here: a machine
//! configuration, a policy and a workload generator.

use latr_arch::{MachinePreset, Topology};
use latr_kernel::{MachineConfig, Workload};
use latr_sim::{Nanos, MICROSECOND, MILLISECOND, SECOND};
use latr_workloads::{ArrivalProcess, PolicyKind, ServingWorkload, SweepStorm};

/// Every workload, in the order a full run measures them.
pub const NAMES: [&str; 4] = [
    "serving-latr",
    "serving-linux",
    "sweep-storm",
    "serving-latr-oracle",
];

/// The paper's 8-socket, 120-core evaluation machine.
const CORES: usize = 120;
/// 24 address spaces of 5 worker threads each, as in `BENCH_serving.json`.
const PROCS: usize = 24;
/// 120 workers x 500 = 60,000 requests per serving run. The blocked-VA
/// list reaches its steady depth within a few reclaim ticks, so a longer
/// stream only repeats the same per-request work. A run about a second
/// long leaves room for many repetitions, whose median damps host timing
/// noise.
const REQUESTS_PER_WORKER: u64 = 500;
/// The oracle shadows every TLB fill and frame free and roughly doubles
/// host time per event, so the checked run is a quarter of the size.
const ORACLE_REQUESTS_PER_WORKER: u64 = 125;
/// Few publishers and many sweepers: most per-tick queue visits find
/// nothing, the shape where tick and sweep cost dominate.
const STORM_PUBLISHERS: usize = 4;
const STORM_ROUNDS: u32 = 20_000;
/// Simulated-time limit; every workload finishes well inside it.
pub const HORIZON: Nanos = 60 * SECOND;

/// Everything one run of a workload needs.
pub struct Inputs {
    /// Machine configuration (topology, seed, oracle switch).
    pub config: MachineConfig,
    /// The TLB-coherence policy.
    pub policy: PolicyKind,
    /// The op generator.
    pub workload: Box<dyn Workload>,
    /// Operations the workload admits: requests for the serving workloads,
    /// map/unmap rounds for the storm. Each completes as one work unit.
    pub admitted: u64,
}

/// Builds the inputs of workload `name` for `seed`, or `None` for an
/// unknown name.
pub fn inputs(name: &str, seed: u64) -> Option<Inputs> {
    let mut config = MachineConfig::new(Topology::preset(MachinePreset::LargeNuma8S120C));
    config.seed = derive(seed, 0);
    config.trace_capacity = 0;
    config.oracle = false;
    let serving = |requests_per_worker: u64| {
        ServingWorkload::new(CORES, PROCS, requests_per_worker)
            .with_arrivals(ArrivalProcess::Bursty {
                period: 4 * MILLISECOND,
                on_pct: 25,
                factor: 2.0,
            })
            .with_seed(derive(seed, 1))
    };
    let (policy, workload, admitted): (PolicyKind, Box<dyn Workload>, u64) = match name {
        "serving-latr" | "serving-linux" => {
            let policy = if name == "serving-linux" {
                PolicyKind::Linux
            } else {
                PolicyKind::latr_default()
            };
            let w = serving(REQUESTS_PER_WORKER);
            let admitted = w.total_requests();
            (policy, Box::new(w), admitted)
        }
        "serving-latr-oracle" => {
            config.oracle = true;
            let w = serving(ORACLE_REQUESTS_PER_WORKER);
            let admitted = w.total_requests();
            (PolicyKind::latr_default(), Box::new(w), admitted)
        }
        "sweep-storm" => {
            // The storm itself draws no random numbers; the seed sets the
            // inter-round sleep (1.00 to 1.01 ms), which moves each
            // publish against the staggered scheduler ticks while keeping
            // the run's length within 1%.
            let sleep = MILLISECOND + derive(seed, 2) % (10 * MICROSECOND);
            let w = SweepStorm::new(CORES, STORM_ROUNDS)
                .with_publishers(STORM_PUBLISHERS)
                .with_sleep(sleep);
            let admitted = STORM_PUBLISHERS as u64 * u64::from(STORM_ROUNDS);
            (PolicyKind::latr_default(), Box::new(w), admitted)
        }
        _ => return None,
    };
    Some(Inputs {
        config,
        policy,
        workload,
        admitted,
    })
}

/// splitmix64 of `seed` on its own `stream`: independent, reproducible
/// sub-seeds.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
