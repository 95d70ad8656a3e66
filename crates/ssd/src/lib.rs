//! `ull-ssd` — the SSD device simulator of the ull-ssd-study workspace.
//!
//! Builds complete device models of the paper's two subjects — the 800 GB
//! Z-SSD prototype ("ULL SSD") and the Intel 750 ("NVMe SSD") — from the
//! flash media in `ull-flash`:
//!
//! * [`Topology`] — channel/way grid, super-channel pairing (§II-A2).
//! * [`RemapChecker`] — the split-DMA engine's bad-block remapping.
//! * [`WriteBuffer`] / [`ReadCache`] — the internal DRAM (write-back ack,
//!   readahead hits, backpressure).
//! * [`Ftl`] — page-mapped translation with greedy incremental GC.
//! * [`EnergyLedger`] — per-operation energy → power reporting.
//! * [`Ssd`] — the command-level device: `read`/`write`/`flush` with exact
//!   queueing via resource timelines.
//!
//! # Examples
//!
//! ```
//! use ull_simkit::SimTime;
//! use ull_ssd::{presets, Ssd};
//!
//! let mut ull = Ssd::new(presets::ull_800g())?;
//! let mut nvme = Ssd::new(presets::nvme750())?;
//!
//! // Random 4 KB reads: the ULL device is several times faster.
//! let u = ull.read(SimTime::ZERO, 123 * 4096, 4096);
//! let n = nvme.read(SimTime::ZERO, 123 * 4096, 4096);
//! assert!(n.done.as_nanos() > 3 * u.done.as_nanos());
//! # Ok::<(), ull_ssd::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod device;
mod ftl;
mod metrics;
mod power;
pub mod presets;
mod remap;
mod topology;

pub use cache::{ReadCache, ReadClass, WriteBuffer};
pub use config::{
    ConfigError, GcPolicy, PowerParams, ReadCachePolicy, SsdConfig, SsdConfigBuilder, TailEvent,
    MAP_UNIT_BYTES,
};
pub use device::{DeviceCompletion, Ssd};
pub use ftl::{Ftl, GcWork, Placement, Ppa, ProgramFailRecovery, WearConfig};
pub use metrics::SsdMetrics;
pub use power::{nj_over, EnergyLedger};
pub use remap::{OutOfSpares, RemapChecker};
pub use topology::{DieId, LaneId, Topology};
