//! # latr-workloads — workload generators for the Latr evaluation
//!
//! Deterministic [`latr_kernel::Workload`] implementations reproducing the
//! paper's §6 experiment drivers:
//!
//! * [`MunmapMicrobench`] — the Fig. 6/7/8 microbenchmark: a set of pages
//!   shared by N cores, then `munmap()`ed by one of them;
//! * [`ApacheWorkload`] — the Fig. 1/9 web-server model: per request,
//!   `mmap()` a page-cache file, touch it, `munmap()` it;
//! * [`ParsecWorkload`] + [`ParsecProfile`] — the Fig. 10/12 and Table 4
//!   PARSEC suite as calibrated synthetic profiles;
//! * [`MigrationWorkload`] + [`MigrationProfile`] — the Fig. 11 AutoNUMA
//!   applications (graph500, pbzip2, metis, fluidanimate, ocean_cp);
//! * [`SweepStorm`] — the sweep-heavy workload the hot-path benchmarks
//!   and the sweep differential suite run on;
//! * [`ServingWorkload`] — the open-loop tail-latency workload behind
//!   `BENCH_serving.json`: Poisson/bursty arrivals across many mms, one
//!   mmap/touch/munmap cycle per request;
//! * [`ChaosShare`] — the cross-core sharing workload the chaos and
//!   differential suites drive under injected fault plans;
//! * [`AllocStorm`] — the allocation-storm workload the memory-pressure
//!   suite and the `pressure` bench drive through the watermarks;
//! * [`harness`] — one-call experiment runner shared by the bench
//!   binaries, the examples and the integration tests.

pub mod apache;
pub mod chaos_share;
pub mod harness;
pub mod microbench;
pub mod migration;
pub mod parsec;
pub mod serving;
pub mod storm;
pub mod sweep_storm;

pub use apache::ApacheWorkload;
pub use chaos_share::ChaosShare;
pub use harness::{run_experiment, ExperimentResult, PolicyKind};
pub use microbench::MunmapMicrobench;
pub use migration::{MigrationProfile, MigrationWorkload};
pub use parsec::{ParsecProfile, ParsecWorkload};
pub use serving::{ArrivalProcess, ServingWorkload};
pub use storm::AllocStorm;
pub use sweep_storm::SweepStorm;
