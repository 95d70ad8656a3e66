//! Host-speed calibration.
//!
//! On a shared host the same unit of simulator work takes anywhere from
//! 1x to 1.7x as long, depending on what the neighbours do, in swings
//! lasting from a second to minutes. A fixed kernel owned by the
//! benchmark, timed right before and after every unit, sees most of the
//! same swings: the unit's time divided by the kernel's, times the
//! kernel's reference time, reads in *reference seconds*, what the unit
//! would take on a host where the kernel takes [`REF_S`]. Of the kernels
//! tried (a serial ALU chain, random writes over 64 MiB, a heap-driven
//! event loop, ordered-map churn), the map churn tracked the simulator's
//! swings best. The kernel is part of the benchmark, so no change to the
//! simulator can move it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::sys::cpu_seconds;

/// The kernel's wall and CPU time on the reference host, in seconds.
const REF_S: f64 = 0.012;

/// Inserts into this many keys; one in three steps also removes one.
const CHURN_STEPS: u64 = 60_000;

/// One run of the kernel: its wall and process-CPU seconds.
fn kernel() -> (f64, f64) {
    let c0 = cpu_seconds();
    let t = Instant::now();
    let mut m = BTreeMap::new();
    let mut x = 7u64;
    for i in 0..CHURN_STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        m.insert(x >> 44, i);
        if i % 3 == 0 {
            m.remove(&((x >> 40) & 0xF_FFFF));
        }
    }
    std::hint::black_box(m.len());
    (t.elapsed().as_secs_f64(), cpu_seconds() - c0)
}

/// Converts host seconds to reference seconds, calibrating between
/// consecutive measurements.
#[derive(Debug)]
pub struct Calibrator {
    last: (f64, f64),
}

impl Calibrator {
    /// Warms the kernel up and takes the first calibration.
    pub fn new() -> Calibrator {
        kernel();
        Calibrator { last: kernel() }
    }

    /// Call right after a measurement: runs the kernel again and returns
    /// the factors from host to reference seconds for the measurement
    /// just taken, from the mean of the kernel runs either side of it:
    /// `(wall factor, CPU factor)`. CPU time is scaled by the kernel's
    /// CPU time, so time the host steals from this VM counts on neither
    /// side.
    pub fn factor(&mut self) -> (f64, f64) {
        let now = kernel();
        let k = (
            REF_S / ((self.last.0 + now.0) / 2.0),
            REF_S / ((self.last.1 + now.1) / 2.0),
        );
        self.last = now;
        k
    }
}
