//! End-to-end and per-layer benchmark of the EDBP simulator and its
//! experiment harness. See `README.md` for the workloads, the metrics and
//! how to run the traced and A/B modes; `BENCHMARK.json` at the repository
//! root declares every metric with its unit, direction and bound.

pub mod ab;
pub mod declared;
pub mod host;
pub mod json;
pub mod probes;
pub mod report;
pub mod sim;
pub mod speed;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod worker;
