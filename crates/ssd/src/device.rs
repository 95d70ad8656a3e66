//! The SSD device model: ties flash dies, channels, the DRAM caches, the
//! FTL and the power ledger into a command-level interface.
//!
//! [`Ssd::read`] and [`Ssd::write`] take a submission instant and return a
//! [`DeviceCompletion`] carrying the instant the device would post the
//! completion. All queueing (die conflicts, channel conflicts, buffer
//! backpressure, GC interference) is embedded in that instant via the
//! resource timelines — see DESIGN.md §3.

use std::sync::Arc;

use ull_faults::{FaultPlan, FlashFaults, SsdRecovery, SALT_FLASH_READ, SALT_PROGRAM};
use ull_flash::{FlashDie, FlashSpec};
use ull_probe::DeviceSpan;
use ull_simkit::{SimDuration, SimTime, SplitMix64, Timeline};

use crate::cache::{ReadCache, WriteBuffer};
use crate::config::{SsdConfig, MAP_UNIT_BYTES};
use crate::ftl::Ftl;
use crate::metrics::SsdMetrics;
use crate::power::EnergyLedger;
use crate::topology::{LaneId, Topology};

/// Outcome of one device command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCompletion {
    /// Instant the device posts the completion.
    pub done: SimTime,
    /// Read served entirely from device DRAM.
    pub dram_hit: bool,
    /// At least one flash read suspended an in-flight program.
    pub suspended: bool,
    /// The command was delayed by foreground garbage collection.
    pub gc_stalled: bool,
}

/// One unit pending in a lane's open program row.
#[derive(Debug, Clone, Copy)]
struct PendingUnit {
    lpn: u64,
    ready: SimTime,
}

/// Timing of one flash-unit read: the unit's finish instant plus the
/// critical die's wait/sense/transfer decomposition (consecutive segments
/// tiling `t0..end`).
#[derive(Debug, Clone, Copy)]
struct FlashUnitRead {
    end: SimTime,
    suspended: bool,
    die_wait: SimDuration,
    cell: SimDuration,
    channel: SimDuration,
}

/// Installed fault-injection state: the per-class lottery streams (forked
/// from the plan, so the nominal-path RNGs never see an extra draw) plus
/// the recovery accounting. Absent (`None`) unless a plan with a non-zero
/// flash fault probability is installed — the zero-cost-when-disabled
/// contract.
#[derive(Debug)]
struct SsdFaultState {
    read_rng: SplitMix64,
    program_rng: SplitMix64,
    read_marginal_prob: f64,
    read_max_steps: u32,
    program_fail_prob: f64,
    flash: FlashFaults,
    recovery: SsdRecovery,
}

/// A simulated SSD.
///
/// # Examples
///
/// ```
/// use ull_simkit::SimTime;
/// use ull_ssd::{presets, Ssd};
///
/// let mut ssd = Ssd::new(presets::ull_800g()).expect("valid preset");
/// let c = ssd.read(SimTime::ZERO, 0, 4096);
/// // A ULL read completes in ~10us of device time.
/// assert!(c.done.as_micros_f64() < 20.0);
/// ```
#[derive(Debug)]
pub struct Ssd {
    cfg: SsdConfig,
    spec: Arc<FlashSpec>,
    topo: Topology,
    dies: Vec<FlashDie>,
    channels: Vec<Timeline>,
    pcie: Timeline,
    controller: Timeline,
    ftl: Ftl,
    wbuf: WriteBuffer,
    rcache: ReadCache,
    energy: EnergyLedger,
    metrics: SsdMetrics,
    rng: SplitMix64,
    /// Each lane's open program row; drained in place, so the buffers
    /// keep their capacity across rows.
    rows: Vec<Vec<PendingUnit>>,
    row_units: u32,
    last_activity: SimTime,
    faults: Option<SsdFaultState>,
    /// Critical-path decomposition of the most recent command (pure
    /// arithmetic on instants the model already computed; read by the
    /// probe layer via [`Ssd::last_span`]).
    last_span: DeviceSpan,
}

impl Ssd {
    /// Builds a device from a configuration.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`crate::ConfigError`] when the configuration
    /// is inconsistent, or when its flash geometry does not fit the FTL's
    /// packed 32-bit mapping entries (see [`Ftl::fits`]).
    pub fn new(cfg: SsdConfig) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        let spec: Arc<FlashSpec> = Arc::new(cfg.flash.clone());
        // Lanes pair up only when the split-DMA engine actually stripes
        // units across the pair; super-channels without split-DMA degrade
        // to independent per-die lanes (the ablation case).
        let topo = Topology::new(cfg.channels, cfg.ways, cfg.splits_across_pair());
        let lanes = topo.lanes();
        let ftl = Ftl::for_device(&cfg, lanes)?;
        let rng = SplitMix64::new(cfg.seed);
        let rcache = ReadCache::new(cfg.read_cache, cfg.seed ^ 0xCACE);
        let row_units = cfg.units_per_row() * cfg.planes;
        Ok(Ssd {
            dies: (0..topo.dies())
                .map(|_| FlashDie::new(Arc::clone(&spec)))
                .collect(),
            channels: (0..cfg.channels).map(|_| Timeline::new()).collect(),
            pcie: Timeline::new(),
            controller: Timeline::new(),
            wbuf: WriteBuffer::new(cfg.write_buffer_units),
            rcache,
            energy: EnergyLedger::new(SimDuration::from_millis(10), cfg.power.idle_w),
            metrics: SsdMetrics::default(),
            rows: (0..lanes).map(|_| Vec::new()).collect(),
            row_units,
            last_activity: SimTime::ZERO,
            faults: None,
            last_span: DeviceSpan::empty(SimTime::ZERO),
            rng,
            ftl,
            topo,
            spec,
            cfg,
        })
    }

    /// The device's configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Logical capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    /// Cumulative counters.
    pub fn metrics(&self) -> SsdMetrics {
        let mut m = self.metrics;
        m.gc_migrated_units = self.ftl.migrated_units();
        m.forced_gc_events = self.ftl.forced_gc_events();
        m.flash_erases = self.ftl.erased_blocks();
        m.remapped_blocks = self.ftl.remapped_blocks();
        m.physical_blocks_lost = self.ftl.physical_blocks_lost();
        m
    }

    /// The energy ledger (power reporting).
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// Installs a fault plan. Only the flash-class probabilities matter
    /// here (`flash_read_marginal_prob`, `program_fail_prob`); if both
    /// are zero the device keeps no fault state at all and behaves
    /// bit-for-bit like a device with no plan installed.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.flash_read_marginal_prob > 0.0 || plan.program_fail_prob > 0.0 {
            self.faults = Some(SsdFaultState {
                read_rng: plan.stream(SALT_FLASH_READ),
                program_rng: plan.stream(SALT_PROGRAM),
                read_marginal_prob: plan.flash_read_marginal_prob,
                read_max_steps: plan.flash_read_max_steps.max(1),
                program_fail_prob: plan.program_fail_prob,
                flash: FlashFaults::default(),
                recovery: SsdRecovery::default(),
            });
        } else {
            self.faults = None;
        }
    }

    /// Flash fault and FTL recovery accounting (all zero when no plan
    /// is installed).
    pub fn fault_counters(&self) -> (FlashFaults, SsdRecovery) {
        self.faults
            .as_ref()
            .map_or_else(Default::default, |f| (f.flash, f.recovery))
    }

    /// Instant of the last command completion seen by the device.
    pub fn last_activity(&self) -> SimTime {
        self.last_activity
    }

    /// Critical-path latency decomposition of the most recent
    /// [`Ssd::read`]/[`Ssd::write`]: which device resource each
    /// nanosecond of `done - arrive` was spent on. The segments tile the
    /// interval exactly (`span.is_exact()`), which the probe layer's
    /// `sum(stages) == end_to_end` invariant builds on.
    pub fn last_span(&self) -> DeviceSpan {
        self.last_span
    }

    /// Populates the whole logical space as if sequentially written, without
    /// charging any time — used to precondition GC experiments exactly like
    /// the paper ("writing the entire address range" before measuring).
    pub fn precondition_full(&mut self) {
        for lpn in 0..self.cfg.logical_units() {
            let _ = self.ftl.append(lpn);
        }
        self.metrics = SsdMetrics::default();
    }

    fn channel_time(&self, bytes: u32) -> SimDuration {
        self.cfg.channel_setup
            + SimDuration::from_nanos(bytes as u64 * 1000 / self.cfg.channel_mbps as u64)
    }

    fn pcie_time(&self, bytes: u32) -> SimDuration {
        SimDuration::from_nanos(bytes as u64 * 1000 / self.cfg.pcie_mbps as u64)
    }

    fn unit_range(&self, offset: u64, len: u32) -> (u64, u64) {
        assert!(len > 0, "zero-length I/O");
        let end = offset.checked_add(u64::from(len));
        assert!(
            end.is_some_and(|end| end <= self.cfg.capacity_bytes),
            "I/O beyond device capacity: offset={offset} len={len}"
        );
        let first = offset / MAP_UNIT_BYTES as u64;
        let last = (offset + len as u64 - 1) / MAP_UNIT_BYTES as u64;
        (first, last - first + 1)
    }

    /// Serves a host read of `len` bytes at byte `offset`, submitted at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity or `len` is zero.
    pub fn read(&mut self, at: SimTime, offset: u64, len: u32) -> DeviceCompletion {
        let (first, nunits) = self.unit_range(offset, len);
        self.energy.add(at, self.cfg.power.host_read_nj);

        let ctrl = self.controller.reserve(at, self.cfg.controller_per_op);
        // DRAM hits skip the firmware flash path (`controller_read`): the
        // mapping is cached and no flash command is built.
        let t_cmd = ctrl.end;
        let t_flash = t_cmd + self.cfg.controller_read;
        let class = self.rcache.classify(first, nunits);

        let mut ready = t_cmd;
        let mut any_flash = false;
        let mut suspended = false;
        // Timing of the critical (last-finishing) flash unit, for the
        // latency-breakdown span. `None` while the critical unit is a
        // DRAM/buffer hit.
        let mut crit: Option<FlashUnitRead> = None;
        for u in first..first + nunits {
            let unit_ready = if self.wbuf.holds(u, t_cmd) {
                self.metrics.buffer_hits += 1;
                t_cmd + self.rcache.hit_latency()
            } else if class.hit {
                self.metrics.cache_hits += 1;
                t_cmd + self.rcache.hit_latency()
            } else {
                any_flash = true;
                let unit = self.flash_read_unit(t_flash, u);
                suspended |= unit.suspended;
                let end = unit.end;
                if crit.as_ref().is_none_or(|c| end > c.end) {
                    crit = Some(unit);
                }
                end
            };
            ready = ready.max(unit_ready);
        }
        // A hit finishing after every flash unit makes the hit critical.
        if let Some(c) = &crit {
            if ready > c.end {
                crit = None;
            }
        }

        let mut gc_stalled = false;
        if self.rng.chance(self.cfg.read_tail.probability) {
            self.metrics.read_tail_events += 1;
            ready += self.cfg.read_tail.delay;
            gc_stalled = true; // long internal event; reported as a stall
        }

        let done = self.pcie.reserve(ready, self.pcie_time(len)).end;
        self.last_activity = self.last_activity.max(done);
        // Tile arrive..done into consecutive critical-path segments.
        let (firmware, die_wait, cell, channel, crit_end) = match &crit {
            Some(c) => (
                self.cfg.controller_read,
                c.die_wait,
                c.cell,
                c.channel,
                c.end,
            ),
            None => (
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
                t_cmd,
            ),
        };
        self.last_span = DeviceSpan {
            arrive: at,
            done,
            ctrl_wait: ctrl.start.saturating_since(at),
            ctrl_fetch: ctrl.end.saturating_since(ctrl.start),
            firmware,
            die_wait,
            cell,
            channel,
            // Hit service, slack behind the critical unit and read-tail
            // delay — everything between the critical segment's end and
            // DMA start.
            media_misc: ready.saturating_since(crit_end),
            dma: done.saturating_since(ready),
            write_drain: SimDuration::ZERO,
        };
        self.metrics.host_reads += 1;
        self.metrics.read_units += nunits;
        DeviceCompletion {
            done,
            dram_hit: !any_flash,
            suspended,
            gc_stalled,
        }
    }

    /// Draws the ECC-marginal lottery for one flash read: `0` on the
    /// nominal path, otherwise the number of read-retry steps the dies
    /// must execute. No draw happens when no plan is installed.
    fn draw_read_retry_steps(&mut self) -> u32 {
        let Some(f) = &mut self.faults else { return 0 };
        if f.read_marginal_prob <= 0.0 || !f.read_rng.chance(f.read_marginal_prob) {
            return 0;
        }
        let steps = 1 + f.read_rng.below(u64::from(f.read_max_steps)) as u32;
        f.flash.read_marginal_events += 1;
        f.flash.read_retry_steps += u64::from(steps);
        steps
    }

    /// Reads one 4 KB unit from flash; returns the unit's end instant
    /// plus the critical die's wait/cell/channel decomposition.
    fn flash_read_unit(&mut self, t0: SimTime, lpn: u64) -> FlashUnitRead {
        let lane = match self.ftl.lookup(lpn) {
            Some(ppa) => ppa.lane,
            None => self.topo.stripe_lane(lpn),
        };
        // ECC-marginal injection: a marginal unit re-senses on every die
        // holding a stripe of it, so each die is busy `steps * tR` longer.
        let retry_steps = self.draw_read_retry_steps();
        let (a, b) = self.topo.lane_dies(lane);
        let read_energy = self.spec.read_energy_nj();
        let mut out = FlashUnitRead {
            end: SimTime::ZERO,
            suspended: false,
            die_wait: SimDuration::ZERO,
            cell: SimDuration::ZERO,
            channel: SimDuration::ZERO,
        };
        let dies: [Option<_>; 2] = [Some(a), b];
        let per_die_bytes = if b.is_some() {
            // Split-DMA: each die supplies half the unit (2 KB pages).
            MAP_UNIT_BYTES / 2
        } else {
            // A 16 KB page is sensed but only the requested 4 KB crosses
            // the channel.
            MAP_UNIT_BYTES
        };
        for die_id in dies.into_iter().flatten() {
            let slot = if self.cfg.suspend_resume {
                self.dies[die_id.0 as usize].read_with_priority(t0)
            } else {
                self.dies[die_id.0 as usize].read(t0)
            };
            out.suspended |= slot.suspended_other;
            if slot.suspended_other {
                self.metrics.program_suspensions += 1;
            }
            self.metrics.flash_reads += 1;
            self.energy.add(slot.start, read_energy);
            let mut sensed = slot.end;
            if retry_steps > 0 {
                let retry = self.dies[die_id.0 as usize].read_retry(slot.end, retry_steps);
                self.energy
                    .add(retry.start, read_energy * f64::from(retry_steps));
                self.metrics.flash_reads += u64::from(retry_steps);
                sensed = retry.end;
            }
            let ch = self.topo.channel_of(die_id) as usize;
            let xfer_time = self.channel_time(per_die_bytes);
            let xfer = self.channels[ch].reserve(sensed, xfer_time);
            if xfer.end > out.end {
                // This die's path is (so far) the unit's critical path:
                // t0 -> die free -> sensed -> on channel, consecutive
                // segments that tile t0..xfer.end exactly.
                out.end = xfer.end;
                out.die_wait = slot.start.saturating_since(t0);
                out.cell = sensed.saturating_since(slot.start);
                out.channel = xfer.end.saturating_since(sensed);
            }
        }
        out
    }

    /// Serves a host write of `len` bytes at byte `offset`, submitted at `at`.
    ///
    /// Completion is posted when all data has been accepted into the DRAM
    /// write buffer (write-back); flash programs drain behind the ack unless
    /// foreground GC forces a stall.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity or `len` is zero.
    pub fn write(&mut self, at: SimTime, offset: u64, len: u32) -> DeviceCompletion {
        let (first, nunits) = self.unit_range(offset, len);
        self.energy.add(at, self.cfg.power.host_write_nj);

        let ctrl = self.controller.reserve(at, self.cfg.controller_per_op);
        let t0 = ctrl.end + self.cfg.controller_write;
        // The controller DMA-fetches the payload once the command is parsed.
        let data_in = self.pcie.reserve(t0, self.pcie_time(len)).end;

        let mut done = data_in;
        let mut gc_stalled = false;
        for u in first..first + nunits {
            // Single-unit rows are programmed and retired within this
            // iteration, before any read can query the buffer, so the
            // provisional resident entry would only be overwritten.
            let admit = if self.row_units == 1 {
                self.wbuf.admit_slot(data_in)
            } else {
                self.wbuf.admit(data_in, u)
            };
            done = done.max(admit);
            let (placement, gc_work) = self.ftl.append(u);
            let lane = placement.ppa.lane;
            // Charge GC flash work (incremental and forced alike).
            if gc_work.migrated_units > 0 || gc_work.erased_blocks > 0 {
                let gc_end =
                    self.charge_gc(admit, lane, gc_work.migrated_units, gc_work.erased_blocks);
                if placement.forced_migrations > 0 || placement.forced_erase {
                    // Foreground GC: the host write waits for the reclaim.
                    gc_stalled = true;
                    done = done.max(gc_end);
                }
            }
            // Program-fail injection: the unit's program fails at its
            // placement, forcing relocation + retirement (remap-or-mark-bad)
            // and a retry append. Recovery flash work is foreground — the
            // host write observes it, like a forced-GC stall.
            let inject_pf = match &mut self.faults {
                Some(f) if f.program_fail_prob > 0.0 => f.program_rng.chance(f.program_fail_prob),
                _ => false,
            };
            if inject_pf {
                let rec = self.ftl.recover_program_fail(placement.ppa, u);
                if rec.relocated_units > 0 || rec.erased_blocks > 0 {
                    let gc_end =
                        self.charge_gc(admit, lane, rec.relocated_units, rec.erased_blocks);
                    gc_stalled = true;
                    done = done.max(gc_end);
                }
                if let Some(f) = &mut self.faults {
                    f.flash.program_failures += 1;
                    f.recovery.relocated_units += u64::from(rec.relocated_units);
                    if rec.remapped || rec.marked_bad {
                        f.recovery.retired_blocks += 1;
                    }
                    f.recovery.remapped += u64::from(rec.remapped);
                    f.recovery.marked_bad += u64::from(rec.marked_bad);
                    f.recovery.deferred_retirements += u64::from(rec.deferred);
                }
            }
            self.enqueue_drain(
                lane,
                PendingUnit {
                    lpn: u,
                    ready: admit,
                },
            );
        }

        if self.rng.chance(self.cfg.write_tail.probability) {
            self.metrics.write_tail_events += 1;
            done += self.cfg.write_tail.delay;
        }

        self.last_activity = self.last_activity.max(done);
        // Tile arrive..done: fetch, firmware, host->device DMA, then the
        // drain (buffer admission, foreground GC, fail recovery, tail).
        self.last_span = DeviceSpan {
            arrive: at,
            done,
            ctrl_wait: ctrl.start.saturating_since(at),
            ctrl_fetch: ctrl.end.saturating_since(ctrl.start),
            firmware: t0.saturating_since(ctrl.end),
            die_wait: SimDuration::ZERO,
            cell: SimDuration::ZERO,
            channel: SimDuration::ZERO,
            media_misc: SimDuration::ZERO,
            dma: data_in.saturating_since(t0),
            write_drain: done.saturating_since(data_in),
        };
        self.metrics.host_writes += 1;
        self.metrics.write_units += nunits;
        DeviceCompletion {
            done,
            dram_hit: true,
            suspended: false,
            gc_stalled,
        }
    }

    /// Adds a unit to its lane's open program row, flushing full or stale
    /// rows to flash.
    fn enqueue_drain(&mut self, lane: LaneId, unit: PendingUnit) {
        let timeout = self.cfg.row_flush_timeout;
        // A stale partial row is flushed padded before the new unit joins.
        if let Some(first) = self.rows[lane.0 as usize].first() {
            if unit.ready.saturating_since(first.ready) > timeout {
                self.flush_row(lane);
            }
        }
        let row = &mut self.rows[lane.0 as usize];
        row.push(unit);
        if row.len() as u32 >= self.row_units {
            self.flush_row(lane);
        }
    }

    /// Programs the lane's open row (possibly padded) on its die(s) and
    /// empties it, keeping the row's buffer for the next one.
    fn flush_row(&mut self, lane: LaneId) {
        let units = &self.rows[lane.0 as usize];
        if units.is_empty() {
            return;
        }
        let ready = units
            .iter()
            .map(|u| u.ready)
            .fold(SimTime::ZERO, SimTime::max);
        let (a, b) = self.topo.lane_dies(lane);
        let per_die_bytes = self.spec.page_size * self.cfg.planes;
        let program_energy = self.spec.program_energy_nj() * self.cfg.planes as f64;
        let mut program_end = SimTime::ZERO;
        let xfer_time = self.channel_time(per_die_bytes);
        for die_id in [Some(a), b].into_iter().flatten() {
            let ch = self.topo.channel_of(die_id) as usize;
            let xfer = self.channels[ch].reserve(ready, xfer_time);
            let prog = self.dies[die_id.0 as usize].program(xfer.end);
            self.metrics.flash_programs += 1;
            self.energy.add(prog.start, program_energy);
            program_end = program_end.max(prog.end);
        }
        let units = &mut self.rows[lane.0 as usize];
        for u in units.iter() {
            self.wbuf.retire(u.lpn, program_end);
        }
        units.clear();
    }

    /// Charges GC flash work on a lane and returns when it finishes.
    fn charge_gc(&mut self, at: SimTime, lane: LaneId, migrated: u32, erased: u32) -> SimTime {
        let (a, b) = self.topo.lane_dies(lane);
        let rows = migrated.div_ceil(self.cfg.units_per_row());
        // Copyback row: read then program. Parallel (ULL-style) GC pipelines
        // the next read under the current program.
        let row_time = if self.cfg.gc.parallel {
            self.spec.t_prog.max(self.spec.t_read)
        } else {
            self.spec.t_read + self.spec.t_prog
        };
        let unit_energy =
            self.spec.read_energy_nj() + self.spec.program_energy_nj() + self.cfg.power.gc_unit_nj;
        let mut end = at;
        for die_id in [Some(a), b].into_iter().flatten() {
            let die = &mut self.dies[die_id.0 as usize];
            for _ in 0..rows {
                let slot = die.occupy(at, row_time);
                end = end.max(slot.end);
            }
            for _ in 0..erased {
                let slot = die.erase(at);
                end = end.max(slot.end);
                self.energy.add(slot.start, self.spec.erase_energy_nj());
            }
        }
        self.metrics.flash_reads += migrated as u64;
        self.metrics.flash_programs += rows as u64;
        self.energy.add(at, unit_energy * migrated as f64);
        end
    }

    /// Flushes all partially filled program rows (e.g. at the end of a
    /// preconditioning pass), returning when the last program lands.
    pub fn flush(&mut self, at: SimTime) -> SimTime {
        let mut end = at;
        for l in 0..self.rows.len() as u32 {
            self.flush_row(LaneId(l));
            let (a, b) = self.topo.lane_dies(LaneId(l));
            for die_id in [Some(a), b].into_iter().flatten() {
                end = end.max(self.dies[die_id.0 as usize].busy_until());
            }
        }
        end
    }

    /// Observed DRAM hit rate of the read path.
    pub fn read_hit_rate(&self) -> f64 {
        self.rcache.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn oversized_geometry_is_a_config_error() {
        // At 16 TiB the logical unit count alone reaches 2^32, past the
        // FTL's packed u32 entries: an error, not a panic or a wrapped
        // table size.
        for cfg in [presets::ull_800g(), presets::nvme750()] {
            let mut huge = cfg.clone();
            huge.capacity_bytes = 16 << 40;
            let err = Ssd::new(huge).expect_err(cfg.name);
            assert!(err.to_string().contains("32-bit"), "{err}");
            let mut no_pages = cfg.clone();
            no_pages.pages_per_block_override = Some(0);
            assert!(Ssd::new(no_pages).is_err(), "{}", cfg.name);
            let mut deep_watermark = cfg.clone();
            deep_watermark.gc.low_watermark = u32::MAX;
            assert!(Ssd::new(deep_watermark).is_err(), "{}", cfg.name);
        }
    }

    #[test]
    fn overflowing_geometry_products_are_config_errors() {
        let mut wide = presets::nvme750();
        wide.ways = 1 << 30; // channels x ways overflows u32
        assert!(Ssd::new(wide).is_err());
        let mut huge_pages = presets::ull_800g();
        huge_pages.flash.page_size = u32::MAX; // 2 x page_size overflows u32
        assert!(Ssd::new(huge_pages).is_err());
        let mut deep_rows = presets::nvme750();
        deep_rows.planes = u32::MAX; // units_per_row x planes overflows u32
        assert!(Ssd::new(deep_rows).is_err());
    }

    #[test]
    #[should_panic(expected = "I/O beyond device capacity")]
    fn io_range_overflowing_u64_panics() {
        let mut ssd = Ssd::new(presets::ull_800g()).expect("preset");
        ssd.read(SimTime::ZERO, u64::MAX - 100, 4096);
    }

    #[test]
    fn zero_rate_plan_is_bitwise_nominal() {
        let run = |plan: Option<FaultPlan>| -> Vec<SimTime> {
            let mut ssd = Ssd::new(presets::ull_800g()).expect("preset");
            if let Some(p) = plan {
                ssd.set_fault_plan(&p);
            }
            let mut out = Vec::new();
            let mut t = SimTime::ZERO;
            for i in 0..200u64 {
                let off = (i % 64) * 4096;
                let c = if i % 3 == 0 {
                    ssd.write(t, off, 4096)
                } else {
                    ssd.read(t, off, 4096)
                };
                out.push(c.done);
                t = c.done;
            }
            out
        };
        assert_eq!(run(None), run(Some(FaultPlan::none())));
        assert_eq!(run(None), run(Some(FaultPlan::uniform(9, 0.0))));
    }

    #[test]
    fn injected_faults_are_counted_and_slow_the_device() {
        let mut nominal = Ssd::new(presets::ull_800g()).expect("preset");
        let mut faulty = Ssd::new(presets::ull_800g()).expect("preset");
        faulty.set_fault_plan(&FaultPlan::uniform(7, 0.2));
        let mut t_n = SimTime::ZERO;
        let mut t_f = SimTime::ZERO;
        for i in 0..400u64 {
            let off = (i % 64) * 4096;
            if i % 2 == 0 {
                t_n = nominal.write(t_n, off, 4096).done;
                t_f = faulty.write(t_f, off, 4096).done;
            } else {
                t_n = nominal.read(t_n, off, 4096).done;
                t_f = faulty.read(t_f, off, 4096).done;
            }
        }
        let (flash, rec) = faulty.fault_counters();
        assert!(flash.read_marginal_events > 0, "no marginal reads injected");
        assert!(flash.read_retry_steps >= flash.read_marginal_events);
        assert!(flash.program_failures > 0, "no program failures injected");
        // Exactly one outcome per program failure.
        assert_eq!(
            rec.retired_blocks + rec.deferred_retirements,
            flash.program_failures
        );
        assert_eq!(rec.remapped + rec.marked_bad, rec.retired_blocks);
        assert_eq!(nominal.fault_counters(), Default::default());
        assert!(
            t_f > t_n,
            "fault recovery must cost simulated time ({t_f:?} vs {t_n:?})"
        );
    }

    #[test]
    fn device_spans_tile_every_command_exactly() {
        // The per-command DeviceSpan must tile arrive..done with no gap or
        // overlap, for both presets, under queueing, GC pressure, and fault
        // recovery alike — ull-probe's end-to-end accounting builds on this.
        for plan in [None, Some(FaultPlan::uniform(7, 0.15))] {
            for cfg in [presets::ull_800g(), presets::nvme750()] {
                let mut ssd = Ssd::new(cfg).expect("preset");
                if let Some(p) = &plan {
                    ssd.set_fault_plan(p);
                }
                let mut t = SimTime::ZERO;
                for i in 0..600u64 {
                    let off = ((i * 37) % 512) * 4096;
                    let c = if i % 3 == 0 {
                        ssd.write(t, off, 4096)
                    } else {
                        ssd.read(t, off, 16 * 4096)
                    };
                    let span = ssd.last_span();
                    assert_eq!(span.arrive, t, "span must start at submission");
                    assert_eq!(span.done, c.done, "span must end at completion");
                    assert!(
                        span.is_exact(),
                        "req {i}: stages sum {:?} != e2e {:?}",
                        span.accounted(),
                        c.done.saturating_since(t)
                    );
                    // Tight closed loop to force queueing.
                    t = t + (c.done.saturating_since(t)) / 4;
                }
            }
        }
    }

    #[test]
    fn fault_runs_are_reproducible() {
        let run = || {
            let mut ssd = Ssd::new(presets::ull_800g()).expect("preset");
            ssd.set_fault_plan(&FaultPlan::uniform(11, 0.1));
            let mut t = SimTime::ZERO;
            for i in 0..300u64 {
                let off = (i % 32) * 4096;
                t = if i % 2 == 0 {
                    ssd.write(t, off, 4096).done
                } else {
                    ssd.read(t, off, 4096).done
                };
            }
            (t, ssd.fault_counters())
        };
        assert_eq!(run(), run());
    }
}
