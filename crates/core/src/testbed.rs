//! The evaluation testbed (§III of the paper): device presets, host
//! construction, and experiment scaling.

use ull_nvme::NvmeController;
use ull_ssd::{presets, Ssd, SsdConfig};
use ull_stack::{Host, IoPath, SoftwareCosts};

/// The two devices under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// The 800 GB Z-SSD prototype.
    Ull,
    /// The Intel 750 NVMe SSD.
    Nvme750,
}

impl Device {
    /// Both devices, in the paper's presentation order.
    pub const ALL: [Device; 2] = [Device::Ull, Device::Nvme750];

    /// The device's configuration preset.
    pub fn config(&self) -> SsdConfig {
        match self {
            Device::Ull => presets::ull_800g(),
            Device::Nvme750 => presets::nvme750(),
        }
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Device::Ull => "ULL SSD",
            Device::Nvme750 => "NVMe SSD",
        }
    }
}

/// How much work each experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced I/O counts: seconds per experiment; used by tests,
    /// `reproduce` without `--full` and `perfbench`.
    Quick,
    /// Paper-scale I/O counts (five-nines-capable).
    Full,
}

impl Scale {
    /// Picks an I/O count by scale.
    pub fn ios(&self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Builds a fresh single-core host over a device, with the given path and
/// queue size 1024 (deep enough for the paper's largest sweep).
pub fn host(device: Device, path: IoPath) -> Host {
    host_with(device.config(), path)
}

/// Builds a fresh host over an explicit device configuration.
pub fn host_with(cfg: SsdConfig, path: IoPath) -> Host {
    let ssd = Ssd::new(cfg).expect("preset configurations are valid");
    let ctrl = NvmeController::new(ssd, 1, 1024);
    Host::new(ctrl, SoftwareCosts::linux_4_14(), path)
}

/// Percentage change `(base - new) / base * 100` (positive = improvement).
pub fn reduction_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    (base - new) / base * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_have_distinct_presets() {
        assert_ne!(Device::Ull.config().name, Device::Nvme750.config().name);
        assert_eq!(Device::ALL.len(), 2);
    }

    #[test]
    fn scale_selects_counts() {
        assert_eq!(Scale::Quick.ios(10, 100), 10);
        assert_eq!(Scale::Full.ios(10, 100), 100);
    }

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(10.0, 7.5) - 25.0).abs() < 1e-12);
        assert!(reduction_pct(0.0, 5.0).abs() < 1e-12);
    }

    #[test]
    fn hosts_are_fresh() {
        let h = host(Device::Ull, IoPath::KernelPolled);
        assert!(h.cpu().busy_total().is_zero());
    }
}
