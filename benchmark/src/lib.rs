//! # moc-benchmark
//!
//! The repository's one yardstick: six live-cluster traffic mixes and two
//! verification workloads, measured end to end and layer by layer from
//! outside, by timing calls into the crates' public functions. See
//! `README.md` for every metric's definition and `../BENCHMARK.json` for
//! the contract the driver checks.

pub mod clock;
pub mod compare;
pub mod generator;
pub mod live;
pub mod micro;
pub mod procstat;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod verify;
