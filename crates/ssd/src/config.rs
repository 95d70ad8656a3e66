//! Device configuration.
//!
//! Every architectural lever the paper discusses is an explicit field here —
//! super-channels, split-DMA, suspend/resume, DRAM buffering, GC policy,
//! over-provisioning — so ablation benchmarks can flip one mechanism at a
//! time. Presets for the two devices under test live in
//! [`crate::presets`].

use ull_flash::FlashSpec;
use ull_simkit::SimDuration;

use crate::ftl::WearConfig;

/// Host-visible mapping granularity: both devices map at 4 KB internally
/// (the Intel 750's indirection unit, and one split-DMA pair of 2 KB Z-NAND
/// pages).
pub const MAP_UNIT_BYTES: u32 = 4096;

/// Longest latency one configuration field may set. Simulated instants
/// are `u64` nanoseconds and the energy ledger keeps one bucket per 10 ms
/// of simulated time, so unbounded latencies would overflow the one and
/// exhaust memory in the other.
const MAX_LATENCY: SimDuration = SimDuration::from_secs(1);

/// Largest flash page. Real NAND pages are 2–16 KB; the FTL allocates
/// whole blocks of pages up front, so larger pages would only inflate it.
const MAX_PAGE_BYTES: u32 = 1 << 20;

/// A rare long-latency internal event (read retry, ECC recovery, mapping
/// checkpoint, wear-levelling move). These produce the "five-nines" tails of
/// fig. 4b / fig. 11 that average latency hides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailEvent {
    /// Per-operation probability of the event.
    pub probability: f64,
    /// Extra delay charged when the event fires.
    pub delay: SimDuration,
}

impl TailEvent {
    /// An event that never fires.
    pub const NONE: TailEvent = TailEvent {
        probability: 0.0,
        delay: SimDuration::ZERO,
    };
}

/// Read-cache behaviour of the device's internal DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadCachePolicy {
    /// Probability that a *sequential* read hits the readahead buffer.
    pub seq_hit_prob: f64,
    /// Probability that a *random* read hits cached data.
    pub rnd_hit_prob: f64,
    /// DRAM service time on a hit (before PCIe transfer).
    pub hit_latency: SimDuration,
}

/// Power-model constants. Flash array energy comes from
/// [`ull_flash::FlashSpec`]; these cover everything around the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Idle platform power (controller quiescent + DRAM refresh), watts.
    pub idle_w: f64,
    /// Controller + DRAM + PCIe PHY energy per host read command, nanojoules.
    pub host_read_nj: f64,
    /// Controller + DRAM + PCIe PHY energy per host write command,
    /// nanojoules. Writes move data through DRAM twice (in + flush).
    pub host_write_nj: f64,
    /// Controller energy per GC migration unit, nanojoules.
    pub gc_unit_nj: f64,
}

/// Garbage-collection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcPolicy {
    /// Start background migration when a lane's free-block count drops to
    /// this watermark.
    pub low_watermark: u32,
    /// Migration units moved per host write while under the watermark
    /// (incremental GC credit).
    pub units_per_host_write: u32,
    /// Whether GC migration can overlap host service across the lane's dies
    /// (the ULL device's parallel, suspend/resume-covered GC). When false,
    /// migration serializes with host work on the lane (conventional
    /// foreground-ish GC).
    pub parallel: bool,
}

/// Full description of one simulated SSD.
///
/// Construct via [`SsdConfig::builder`] or a preset, then pass to
/// [`crate::Ssd::new`].
///
/// # Examples
///
/// ```
/// use ull_ssd::presets;
///
/// let ull = presets::ull_800g();
/// assert!(ull.super_channel);
/// let nvme = presets::nvme750();
/// assert!(!nvme.super_channel);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Marketing name used in reports.
    pub name: &'static str,
    /// Flash technology populated in this device.
    pub flash: FlashSpec,
    /// Number of physical channels.
    pub channels: u32,
    /// Dies per channel.
    pub ways: u32,
    /// Pair adjacent channels into super-channels (§II-A2). Requires an even
    /// channel count.
    pub super_channel: bool,
    /// Split each 4 KB host unit across the pair with the split-DMA engine.
    /// Only meaningful with `super_channel`; separate so the ablation bench
    /// can isolate it.
    pub split_dma: bool,
    /// Allow reads to suspend in-flight programs (§II-A3); requires flash
    /// with `program_suspend`.
    pub suspend_resume: bool,
    /// Planes per die that one program engages (multi-plane one-shot
    /// programming): multiplies the data written per `tPROG`.
    pub planes: u32,
    /// Per-channel bus bandwidth, MB/s.
    pub channel_mbps: u32,
    /// Fixed per-transfer channel setup cost.
    pub channel_setup: SimDuration,
    /// PCIe link bandwidth, MB/s (x4 Gen3 ≈ 3200).
    pub pcie_mbps: u32,
    /// Firmware path length for a read command.
    pub controller_read: SimDuration,
    /// Firmware path length for a write command.
    pub controller_write: SimDuration,
    /// Controller command-processing occupancy per host command (caps IOPS).
    pub controller_per_op: SimDuration,
    /// Simulated logical capacity in bytes. Scaled down from the physical
    /// device (DESIGN.md §1) so mapping tables stay in memory; geometry
    /// ratios are preserved.
    pub capacity_bytes: u64,
    /// Scaled pages-per-block used together with the scaled capacity, so
    /// each lane still owns enough blocks (~100+) for GC victim aging — the
    /// property WA depends on. `None` uses the flash technology's real
    /// block size (appropriate only at full capacity).
    pub pages_per_block_override: Option<u32>,
    /// Physical over-provisioning fraction (extra blocks beyond capacity).
    pub overprovision: f64,
    /// DRAM write-back buffer size, in 4 KB units.
    pub write_buffer_units: u32,
    /// How long a partially filled program row may wait for co-packed units
    /// before it is flushed padded.
    pub row_flush_timeout: SimDuration,
    /// Read-cache policy.
    pub read_cache: ReadCachePolicy,
    /// GC policy.
    pub gc: GcPolicy,
    /// Flash wear-out and bad-block remapping policy.
    pub wear: WearConfig,
    /// Rare long-latency events on reads.
    pub read_tail: TailEvent,
    /// Rare long-latency events on writes.
    pub write_tail: TailEvent,
    /// Power-model constants.
    pub power: PowerParams,
    /// RNG seed for this device's stochastic draws.
    pub seed: u64,
}

impl SsdConfig {
    /// Starts a builder pre-filled from this configuration.
    pub fn builder(self) -> SsdConfigBuilder {
        SsdConfigBuilder { cfg: self }
    }

    /// Total dies in the device.
    pub fn dies(&self) -> u32 {
        self.channels * self.ways
    }

    /// Logical 4 KB units addressable by the host.
    pub fn logical_units(&self) -> u64 {
        self.capacity_bytes / MAP_UNIT_BYTES as u64
    }

    /// Whether host units are split across a channel pair.
    pub fn splits_across_pair(&self) -> bool {
        self.super_channel && self.split_dma
    }

    /// Pages per erase block after any scaled-geometry override.
    pub fn effective_pages_per_block(&self) -> u32 {
        self.pages_per_block_override
            .unwrap_or(self.flash.pages_per_block)
    }

    /// 4 KB units per flash program row: one split pair of 2 KB pages for
    /// the ULL device, `page_size / 4K` co-packed units otherwise.
    pub fn units_per_row(&self) -> u32 {
        if self.splits_across_pair() {
            (2 * self.flash.page_size / MAP_UNIT_BYTES).max(1)
        } else {
            (self.flash.page_size / MAP_UNIT_BYTES).max(1)
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency
    /// found (odd channel count with super-channels, suspend/resume on flash
    /// that cannot suspend, zero capacity, a die count or program row that
    /// overflows `u32`, a latency over 1 s, a probability outside [0, 1],
    /// ...).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.channels == 0 || self.ways == 0 {
            return Err(ConfigError::new("channels and ways must be non-zero"));
        }
        if self.channels.checked_mul(self.ways).is_none() {
            return Err(ConfigError::new("channels x ways must fit in u32"));
        }
        if self.planes == 0 {
            return Err(ConfigError::new("planes must be non-zero"));
        }
        // Bounding the page first keeps `units_per_row` from overflowing.
        if self.flash.page_size > MAX_PAGE_BYTES {
            return Err(ConfigError::new("flash page size must be at most 1 MiB"));
        }
        if self.units_per_row().checked_mul(self.planes).is_none() {
            return Err(ConfigError::new(
                "units per program row (page units x planes) must fit in u32",
            ));
        }
        let latencies = [
            self.channel_setup,
            self.controller_read,
            self.controller_write,
            self.controller_per_op,
            self.row_flush_timeout,
            self.read_cache.hit_latency,
            self.read_tail.delay,
            self.write_tail.delay,
            self.flash.t_read,
            self.flash.t_prog,
            self.flash.t_erase,
            self.flash.suspend_latency,
            self.flash.resume_latency,
        ];
        if latencies.iter().any(|&d| d > MAX_LATENCY) {
            return Err(ConfigError::new("every latency must be at most 1 s"));
        }
        let probabilities = [
            self.read_cache.seq_hit_prob,
            self.read_cache.rnd_hit_prob,
            self.read_tail.probability,
            self.write_tail.probability,
            self.wear.per_erase_prob,
        ];
        if !probabilities.iter().all(|p| (0.0..=1.0).contains(p)) {
            return Err(ConfigError::new("probabilities must be in [0, 1]"));
        }
        let p = &self.power;
        let energies = [p.idle_w, p.host_read_nj, p.host_write_nj, p.gc_unit_nj];
        if !energies.iter().all(|e| e.is_finite() && *e >= 0.0) {
            return Err(ConfigError::new(
                "power constants must be finite and non-negative",
            ));
        }
        if self.super_channel && !self.channels.is_multiple_of(2) {
            return Err(ConfigError::new(
                "super-channels require an even channel count",
            ));
        }
        if self.split_dma && !self.super_channel {
            return Err(ConfigError::new("split-DMA requires super-channels"));
        }
        if self.suspend_resume && !self.flash.program_suspend {
            return Err(ConfigError::new(
                "suspend/resume requires flash with program suspend",
            ));
        }
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(MAP_UNIT_BYTES as u64) {
            return Err(ConfigError::new(
                "capacity must be a non-zero multiple of 4KB",
            ));
        }
        if !(0.0..=1.0).contains(&self.overprovision) {
            return Err(ConfigError::new("overprovision must be in [0, 1]"));
        }
        if self.channel_mbps == 0 || self.pcie_mbps == 0 {
            return Err(ConfigError::new("bus bandwidths must be non-zero"));
        }
        if self.write_buffer_units == 0 {
            return Err(ConfigError::new("write buffer must hold at least one unit"));
        }
        Ok(())
    }
}

/// Error returned by [`SsdConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    pub(crate) fn new(message: &'static str) -> Self {
        ConfigError { message }
    }
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid ssd configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Fluent modifier for [`SsdConfig`]; used heavily by the ablation benches.
///
/// # Examples
///
/// ```
/// use ull_ssd::presets;
///
/// let no_suspend = presets::ull_800g()
///     .builder()
///     .suspend_resume(false)
///     .build()
///     .expect("still valid");
/// assert!(!no_suspend.suspend_resume);
/// ```
#[derive(Debug, Clone)]
pub struct SsdConfigBuilder {
    cfg: SsdConfig,
}

impl SsdConfigBuilder {
    /// Toggles super-channel pairing (and disables split-DMA when off).
    pub fn super_channel(mut self, on: bool) -> Self {
        self.cfg.super_channel = on;
        if !on {
            self.cfg.split_dma = false;
        }
        self
    }

    /// Toggles the split-DMA engine.
    pub fn split_dma(mut self, on: bool) -> Self {
        self.cfg.split_dma = on;
        self
    }

    /// Toggles read-over-program suspend/resume.
    pub fn suspend_resume(mut self, on: bool) -> Self {
        self.cfg.suspend_resume = on;
        self
    }

    /// Sets the simulated logical capacity.
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.cfg.capacity_bytes = bytes;
        self
    }

    /// Sets the DRAM write-buffer size in 4 KB units.
    pub fn write_buffer_units(mut self, units: u32) -> Self {
        self.cfg.write_buffer_units = units;
        self
    }

    /// Sets the over-provisioning fraction.
    pub fn overprovision(mut self, op: f64) -> Self {
        self.cfg.overprovision = op;
        self
    }

    /// Replaces the GC policy.
    pub fn gc(mut self, gc: GcPolicy) -> Self {
        self.cfg.gc = gc;
        self
    }

    /// Replaces the wear-out policy.
    pub fn wear(mut self, wear: WearConfig) -> Self {
        self.cfg.wear = wear;
        self
    }

    /// Replaces the read-cache policy.
    pub fn read_cache(mut self, rc: ReadCachePolicy) -> Self {
        self.cfg.read_cache = rc;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SsdConfig::validate`] failures.
    pub fn build(self) -> Result<SsdConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn presets_validate() {
        presets::ull_800g().validate().unwrap();
        presets::nvme750().validate().unwrap();
    }

    #[test]
    fn units_per_row_matches_geometry() {
        // ULL: one 4KB unit per split pair of 2KB pages.
        assert_eq!(presets::ull_800g().units_per_row(), 1);
        // NVMe-class: four 4KB units per 16KB page.
        assert_eq!(presets::nvme750().units_per_row(), 4);
    }

    #[test]
    fn rejects_odd_super_channels() {
        let bad = {
            let mut c = presets::ull_800g();
            c.channels = 15;
            c
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rejects_split_dma_without_super_channel() {
        let r = presets::ull_800g()
            .builder()
            .super_channel(false)
            .split_dma(true)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_suspend_on_non_suspendable_flash() {
        let mut c = presets::nvme750();
        c.suspend_resume = true;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_round_trip() {
        let c = presets::ull_800g()
            .builder()
            .capacity_bytes(1 << 30)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(c.capacity_bytes, 1 << 30);
        assert_eq!(c.seed, 99);
        assert_eq!(c.logical_units(), (1 << 30) / 4096);
    }
}
