//! Page-mapped flash translation layer with greedy, incremental garbage
//! collection.
//!
//! The FTL maps 4 KB logical units onto `(lane, block, slot)` physical
//! addresses. Each lane (die, or super-channel die pair) owns its blocks,
//! an append-point ("open block") and a free list. Overwrites invalidate
//! the old slot; when a lane's free list reaches the low watermark, GC
//! starts migrating the victim with the most invalid slots. Migration is
//! *incremental* — a few units per host write — which is how real firmware
//! amortizes reclamation; the remainder is forced synchronously only when a
//! lane is about to run out of space (the fig. 7b latency spikes).

use ull_flash::BlockState;
use ull_simkit::SplitMix64;

use crate::config::{ConfigError, GcPolicy, SsdConfig};
use crate::remap::RemapChecker;
use crate::topology::LaneId;

/// Flash wear-out policy: how often erases kill blocks, and whether the
/// split-DMA remap checker (§II-A2) substitutes spares for them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearConfig {
    /// Probability that a block wears out on any given erase.
    pub per_erase_prob: f64,
    /// Whether the remap checker substitutes a same-channel spare,
    /// preserving the semi-virtual block space (and, for super-channel
    /// pairs, the healthy partner block).
    pub remap_enabled: bool,
    /// Spare blocks per lane available for remapping.
    pub spares_per_lane: u32,
    /// RNG seed for wear draws.
    pub seed: u64,
}

impl WearConfig {
    /// No wear-out (the default for short experiments).
    pub const NONE: WearConfig = WearConfig {
        per_erase_prob: 0.0,
        remap_enabled: false,
        spares_per_lane: 0,
        seed: 0,
    };
}

/// A physical address: lane, block within lane, 4 KB slot within block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ppa {
    /// Allocation lane.
    pub lane: LaneId,
    /// Block index within the lane.
    pub block: u32,
    /// 4 KB slot index within the block.
    pub slot: u32,
}

/// The `l2p` entry of an unmapped logical unit, and the `p2l` entry of a
/// slot that holds no live unit.
const UNMAPPED: u32 = u32::MAX;

/// Bits needed to number `n` items (`0` for a single item).
fn index_bits(n: u32) -> u32 {
    u32::BITS - n.saturating_sub(1).leading_zeros()
}

/// Bit layout of a packed `l2p` entry: `lane | block | slot` from the high
/// bits down, each field just wide enough for the geometry. Shifts run in
/// `u64` so a field that fills all 32 bits never shifts by the full width.
#[derive(Debug, Clone, Copy)]
struct PpaPacking {
    slot_bits: u32,
    lane_shift: u32,
    block_mask: u64,
    slot_mask: u64,
}

impl PpaPacking {
    fn new(blocks_per_lane: u32, units_per_block: u32) -> Self {
        let slot_bits = index_bits(units_per_block);
        let block_bits = index_bits(blocks_per_lane);
        PpaPacking {
            slot_bits,
            lane_shift: slot_bits + block_bits,
            block_mask: (1 << block_bits) - 1,
            slot_mask: (1 << slot_bits) - 1,
        }
    }

    /// Whether every address of the geometry packs below [`UNMAPPED`].
    /// Then there are at most `u32::MAX` physical units, so every lpn the
    /// FTL can map also fits a `u32` `p2l` entry below the sentinel.
    fn fits(self, lanes: u32, blocks_per_lane: u32, units_per_block: u32) -> bool {
        self.lane_shift + index_bits(lanes) <= u32::BITS
            && self.pack_wide(lanes - 1, blocks_per_lane - 1, units_per_block - 1)
                < u64::from(UNMAPPED)
    }

    fn pack_wide(self, lane: u32, block: u32, slot: u32) -> u64 {
        u64::from(lane) << self.lane_shift | u64::from(block) << self.slot_bits | u64::from(slot)
    }

    #[inline]
    fn pack(self, ppa: Ppa) -> u32 {
        self.pack_wide(ppa.lane.0, ppa.block, ppa.slot) as u32
    }

    #[inline]
    fn unpack(self, entry: u32) -> Ppa {
        let e = u64::from(entry);
        Ppa {
            lane: LaneId((e >> self.lane_shift) as u32),
            block: ((e >> self.slot_bits) & self.block_mask) as u32,
            slot: (e & self.slot_mask) as u32,
        }
    }
}

/// What [`Ftl::append`] had to do to place a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Where the unit landed.
    pub ppa: Ppa,
    /// Units that must be migrated *right now* (forced foreground GC)
    /// before this append could proceed. Zero in steady state.
    pub forced_migrations: u32,
    /// Whether a block erase was consumed by forced GC.
    pub forced_erase: bool,
}

/// GC work the device should charge to flash timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcWork {
    /// Valid units copied (each is a flash read + its share of a program).
    pub migrated_units: u32,
    /// Blocks erased.
    pub erased_blocks: u32,
}

/// Outcome of [`Ftl::recover_program_fail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramFailRecovery {
    /// Where the unit landed after the retry program.
    pub new_ppa: Ppa,
    /// Valid units relocated during recovery (survivors moved off the
    /// failing block, plus any GC migration the retry append forced).
    pub relocated_units: u32,
    /// Blocks erased during recovery (the retirement erase plus any
    /// forced-GC erase from the retry append).
    pub erased_blocks: u32,
    /// The failing block was retired into an overprovisioned spare.
    pub remapped: bool,
    /// The failing block was retired without a spare (capacity lost).
    pub marked_bad: bool,
    /// Retirement was deferred: the block was busy (mid-drain GC
    /// victim, GC destination, or un-rotatable append point) or no
    /// safe destination existed for its survivors. The damage stays
    /// recorded on the block; only the retry append happened.
    pub deferred: bool,
}

#[derive(Debug)]
struct Lane {
    blocks: Vec<BlockState>,
    /// Reverse map: the lpn stored in each slot, block-major
    /// (`block * units_per_block + slot`), [`UNMAPPED`] when empty.
    p2l: Vec<u32>,
    units_per_block: u32,
    free: Vec<u32>,
    /// Append point for host writes.
    open: u32,
    /// Append point for GC relocations (kept separate so a mid-drain victim
    /// never competes with host data for its destination).
    gc_open: u32,
    victim: Option<Victim>,
}

#[derive(Debug)]
struct Victim {
    block: u32,
    /// Slots not yet examined for migration.
    cursor: u32,
}

impl Lane {
    fn new(blocks: u32, units_per_block: u32) -> Self {
        assert!(
            blocks >= 4,
            "a lane needs >= 4 blocks (open + gc-open + free + victim)"
        );
        // Block 0 is the host open block, block 1 the GC destination block,
        // the rest start free.
        let free: Vec<u32> = (2..blocks).rev().collect();
        Lane {
            blocks: (0..blocks)
                .map(|_| BlockState::new(units_per_block))
                .collect(),
            p2l: vec![UNMAPPED; blocks as usize * units_per_block as usize],
            units_per_block,
            free,
            open: 0,
            gc_open: 1,
            victim: None,
        }
    }

    fn free_blocks(&self) -> u32 {
        self.free.len() as u32
    }

    fn p2l_index(&self, block: u32, slot: u32) -> usize {
        block as usize * self.units_per_block as usize + slot as usize
    }

    /// The lpn stored at `(block, slot)`.
    fn reverse(&self, block: u32, slot: u32) -> u64 {
        u64::from(self.p2l[self.p2l_index(block, slot)])
    }

    /// Records `lpn` at `(block, slot)`. The caller's lpn is below the
    /// FTL's physical unit count, which [`PpaPacking::fits`] bounds by
    /// `u32::MAX`, so the narrowing is lossless.
    fn set_reverse(&mut self, block: u32, slot: u32, lpn: u64) {
        let i = self.p2l_index(block, slot);
        self.p2l[i] = lpn as u32;
    }

    fn clear_reverse(&mut self, block: u32, slot: u32) {
        let i = self.p2l_index(block, slot);
        self.p2l[i] = UNMAPPED;
    }

    /// Forgets every lpn of an erased block.
    fn clear_block(&mut self, block: u32) {
        let start = self.p2l_index(block, 0);
        self.p2l[start..start + self.units_per_block as usize].fill(UNMAPPED);
    }

    /// Picks the fullest-of-invalid victim among closed blocks — but only
    /// when the guaranteed GC destination space (remaining slots in the GC
    /// open block, plus one whole free block if any) can absorb every valid
    /// unit of the victim. This capacity guard is what makes incremental
    /// migration deadlock-free: once a drain starts, it always completes
    /// without needing blocks that might not exist.
    fn pick_victim(&mut self, units_per_block: u32) -> Option<u32> {
        if let Some(v) = &self.victim {
            return Some(v.block);
        }
        let mut best: Option<(u32, u32)> = None; // (block, invalid)
        for (i, b) in self.blocks.iter().enumerate() {
            let i = i as u32;
            // The append points are protected while they still accept data;
            // once full they are ordinary victims (hot data concentrates
            // invalidations in the host open block, so excluding it forever
            // would strand reclaimable space).
            let active_append_point = (i == self.open || i == self.gc_open) && b.free_pages() > 0;
            if active_append_point || self.free.contains(&i) || b.is_bad() {
                continue;
            }
            let inv = b.invalid_count();
            if inv == 0 {
                continue;
            }
            if best.is_none_or(|(_, bi)| inv > bi) {
                best = Some((i, inv));
            }
        }
        let (block, _) = best?;
        let destination_capacity = self.blocks[self.gc_open as usize].free_pages()
            + if self.free.is_empty() {
                0
            } else {
                units_per_block
            };
        if self.blocks[block as usize].valid_count() > destination_capacity {
            return None;
        }
        self.victim = Some(Victim { block, cursor: 0 });
        Some(block)
    }
}

/// The translation layer.
///
/// # Examples
///
/// ```
/// use ull_ssd::{Ftl, GcPolicy};
///
/// let gc = GcPolicy { low_watermark: 3, units_per_host_write: 4, parallel: false };
/// // 2 lanes x 8 blocks x 16 units, no spare blocks beyond geometry.
/// let mut ftl = Ftl::new(2, 8, 16, gc);
/// let (placement, _gc) = ftl.append(0);
/// assert_eq!(ftl.lookup(0), Some(placement.ppa));
/// ```
#[derive(Debug)]
pub struct Ftl {
    /// Forward map: the packed address of each lpn, [`UNMAPPED`] if none.
    l2p: Vec<u32>,
    packing: PpaPacking,
    lanes: Vec<Lane>,
    units_per_block: u32,
    next_lane: u32,
    gc: GcPolicy,
    total_migrated: u64,
    total_erased: u64,
    forced_gc_events: u64,
    wear: WearConfig,
    wear_rng: SplitMix64,
    remap: Vec<RemapChecker>,
    /// Physical blocks each semi-virtual block spans (2 for split pairs).
    blocks_per_virtual: u32,
    remapped_blocks: u64,
    physical_blocks_lost: u64,
}

impl Ftl {
    /// Creates an FTL with `lanes` lanes of `blocks_per_lane` blocks, each
    /// holding `units_per_block` 4 KB units. The logical space callers may
    /// address must be smaller than the physical space by the
    /// over-provisioning margin; [`crate::Ssd::new`] guarantees this.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `blocks_per_lane < 4`, or the
    /// geometry does not [`fit`](Self::fits) the packed table entries.
    pub fn new(lanes: u32, blocks_per_lane: u32, units_per_block: u32, gc: GcPolicy) -> Self {
        assert!(
            lanes > 0 && blocks_per_lane > 0 && units_per_block > 0,
            "FTL dimensions must be non-zero"
        );
        assert!(
            Self::fits(lanes, blocks_per_lane, units_per_block),
            "FTL geometry exceeds the packed 32-bit mapping entries"
        );
        let physical_units = lanes as u64 * blocks_per_lane as u64 * units_per_block as u64;
        Ftl {
            l2p: vec![UNMAPPED; physical_units as usize], // sized generously; device narrows use
            packing: PpaPacking::new(blocks_per_lane, units_per_block),
            lanes: (0..lanes)
                .map(|_| Lane::new(blocks_per_lane, units_per_block))
                .collect(),
            units_per_block,
            next_lane: 0,
            gc,
            total_migrated: 0,
            total_erased: 0,
            forced_gc_events: 0,
            wear: WearConfig::NONE,
            wear_rng: SplitMix64::new(0),
            remap: (0..lanes)
                .map(|_| RemapChecker::new(blocks_per_lane, 0))
                .collect(),
            blocks_per_virtual: 1,
            remapped_blocks: 0,
            physical_blocks_lost: 0,
        }
    }

    /// Sizes the FTL of a device with `lanes` allocation lanes: physical
    /// space is the logical space plus the over-provisioning margin, in
    /// whole blocks per lane.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a block holds no units or the
    /// geometry does not [`fit`](Self::fits) the packed table entries —
    /// for the presets, a capacity of 16 TiB or more.
    pub(crate) fn for_device(cfg: &SsdConfig, lanes: u32) -> Result<Ftl, ConfigError> {
        let logical = cfg.logical_units();
        // Physical space = logical * (1 + OP). The GC watermark lives inside
        // the OP margin (as on real devices); a floor keeps degenerate tiny
        // configurations functional.
        let needed = (logical as f64 * (1.0 + cfg.overprovision)).ceil() as u64;
        let geometry = cfg
            .effective_pages_per_block()
            .checked_mul(cfg.units_per_row())
            .filter(|&units| units > 0 && lanes > 0)
            .and_then(|units_per_block| {
                let blocks = needed
                    .div_ceil(u64::from(lanes) * u64::from(units_per_block))
                    .max(u64::from(cfg.gc.low_watermark) + 4);
                Some((u32::try_from(blocks).ok()?, units_per_block))
            })
            // Physical space covers the logical space, so a fitting
            // geometry also keeps every lpn below the sentinel.
            .filter(|&(blocks_per_lane, units_per_block)| {
                Self::fits(lanes, blocks_per_lane, units_per_block)
            });
        let Some((blocks_per_lane, units_per_block)) = geometry else {
            return Err(ConfigError::new(
                "flash geometry does not fit the FTL's 32-bit mapping entries",
            ));
        };
        let blocks_per_virtual = if cfg.splits_across_pair() { 2 } else { 1 };
        Ok(Ftl::new(lanes, blocks_per_lane, units_per_block, cfg.gc)
            .with_wear(cfg.wear, blocks_per_virtual))
    }

    /// Whether a geometry fits the FTL's packed `u32` table entries: every
    /// `(lane, block, slot)` bit-packs below the unmapped sentinel, which
    /// also bounds the physical (hence logical) unit count by `u32::MAX`.
    /// Zero dimensions do not fit.
    pub fn fits(lanes: u32, blocks_per_lane: u32, units_per_block: u32) -> bool {
        lanes > 0
            && blocks_per_lane > 0
            && units_per_block > 0
            && PpaPacking::new(blocks_per_lane, units_per_block).fits(
                lanes,
                blocks_per_lane,
                units_per_block,
            )
    }

    /// Enables wear-out with the given policy; `blocks_per_virtual` is the
    /// number of physical blocks one FTL block spans (2 for super-channel
    /// pairs — the capacity a bad block strands when remapping is off).
    pub fn with_wear(mut self, wear: WearConfig, blocks_per_virtual: u32) -> Self {
        let blocks = self.lanes[0].blocks.len() as u32;
        self.remap = (0..self.lanes.len())
            .map(|_| RemapChecker::new(blocks, wear.spares_per_lane))
            .collect();
        self.wear_rng = SplitMix64::new(wear.seed ^ 0xBAD_B10C);
        self.wear = wear;
        self.blocks_per_virtual = blocks_per_virtual.max(1);
        self
    }

    /// Blocks whose failures the remap checker absorbed.
    pub fn remapped_blocks(&self) -> u64 {
        self.remapped_blocks
    }

    /// Physical blocks stranded by unremapped failures.
    pub fn physical_blocks_lost(&self) -> u64 {
        self.physical_blocks_lost
    }

    /// Physical capacity in 4 KB units.
    pub fn physical_units(&self) -> u64 {
        self.lanes.len() as u64 * self.lanes[0].blocks.len() as u64 * self.units_per_block as u64
    }

    /// Looks up the physical address of a logical unit.
    pub fn lookup(&self, lpn: u64) -> Option<Ppa> {
        match self.l2p.get(lpn as usize) {
            Some(&entry) if entry != UNMAPPED => Some(self.packing.unpack(entry)),
            _ => None,
        }
    }

    /// Total units migrated by GC so far.
    pub fn migrated_units(&self) -> u64 {
        self.total_migrated
    }

    /// Total blocks erased by GC so far.
    pub fn erased_blocks(&self) -> u64 {
        self.total_erased
    }

    /// Times an append had to run foreground GC.
    pub fn forced_gc_events(&self) -> u64 {
        self.forced_gc_events
    }

    /// Whether a lane is under GC pressure.
    pub fn lane_needs_gc(&self, lane: LaneId) -> bool {
        self.lanes[lane.0 as usize].free_blocks() <= self.gc.low_watermark
    }

    /// Free blocks on a lane (observability/tests).
    pub fn lane_free_blocks(&self, lane: LaneId) -> u32 {
        self.lanes[lane.0 as usize].free_blocks()
    }

    /// The round-robin lane the next host write will target.
    pub fn next_write_lane(&self) -> LaneId {
        LaneId(self.next_lane)
    }

    /// Writes (or overwrites) `lpn`, returning the placement plus any GC
    /// work performed alongside it (incremental background migration and/or
    /// forced foreground migration).
    ///
    /// Lanes are filled round-robin (channel striping); a lane that is
    /// momentarily wedged — no space and nothing reclaimable right now — is
    /// skipped, as firmware allocators do.
    pub fn append(&mut self, lpn: u64) -> (Placement, GcWork) {
        let n = self.lanes.len() as u32;
        let start = self.next_lane;
        self.next_lane = (self.next_lane + 1) % n;
        for k in 0..n {
            let lane = LaneId((start + k) % n);
            if self.lane_can_accept(lane) {
                return self.append_on(lane, lpn);
            }
        }
        // Nothing obviously reclaimable anywhere: fall through so append_on
        // raises the GC-deadlock diagnostic.
        self.append_on(LaneId(start), lpn)
    }

    /// Whether a lane can take one more unit without wedging: it has open
    /// space, spare free blocks, or a victim reclaimable under the GC
    /// capacity guard.
    fn lane_can_accept(&self, lane: LaneId) -> bool {
        let l = &self.lanes[lane.0 as usize];
        if l.blocks[l.open as usize].free_pages() > 0 || l.free.len() >= 2 {
            return true;
        }
        if l.victim.is_some() {
            return true;
        }
        let dest = l.blocks[l.gc_open as usize].free_pages()
            + if l.free.is_empty() {
                0
            } else {
                self.units_per_block
            };
        l.blocks.iter().enumerate().any(|(i, b)| {
            let i = i as u32;
            let active = (i == l.open || i == l.gc_open) && b.free_pages() > 0;
            !active
                && !l.free.contains(&i)
                && !b.is_bad()
                && b.invalid_count() > 0
                && b.valid_count() <= dest
        })
    }

    /// Like [`Ftl::append`] but on a caller-chosen lane.
    pub fn append_on(&mut self, lane: LaneId, lpn: u64) -> (Placement, GcWork) {
        let mut gc_work = GcWork::default();
        // Incremental background migration while under pressure.
        if self.lane_needs_gc(lane) {
            let moved = self.migrate_units(lane, self.gc.units_per_host_write, &mut gc_work);
            let _ = moved;
        }
        // Invalidate the old copy on overwrite.
        if let Some(old) = self.lookup(lpn) {
            self.invalidate(old);
        }
        let mut forced_migrations = 0;
        let mut forced_erase = false;
        let ppa = loop {
            // Host appends keep one free block in reserve so GC relocation
            // always has somewhere to land (classic GC-reserve invariant).
            match self.try_place_with_reserve(lane, lpn, 1) {
                Some(ppa) => break ppa,
                None => {
                    // Open block full and no free block: force the victim out.
                    self.forced_gc_events += 1;
                    let mut w = GcWork::default();
                    let moved = self.migrate_units(lane, self.units_per_block, &mut w);
                    assert!(
                        moved > 0 || w.erased_blocks > 0,
                        "GC deadlock on lane {lane:?}: no reclaimable space; \
                         increase over-provisioning"
                    );
                    forced_migrations += w.migrated_units;
                    forced_erase |= w.erased_blocks > 0;
                    gc_work.migrated_units += w.migrated_units;
                    gc_work.erased_blocks += w.erased_blocks;
                }
            }
        };
        self.l2p[lpn as usize] = self.packing.pack(ppa);
        (
            Placement {
                ppa,
                forced_migrations,
                forced_erase,
            },
            gc_work,
        )
    }

    fn try_place_with_reserve(&mut self, lane_id: LaneId, lpn: u64, reserve: usize) -> Option<Ppa> {
        let lane = &mut self.lanes[lane_id.0 as usize];
        if let Some(slot) = lane.blocks[lane.open as usize].append() {
            lane.set_reverse(lane.open, slot, lpn);
            return Some(Ppa {
                lane: lane_id,
                block: lane.open,
                slot,
            });
        }
        // Open block is full: rotate to a free block, honouring the reserve.
        if lane.free.len() <= reserve {
            return None;
        }
        let next = lane.free.pop()?;
        lane.open = next;
        // A block from the free list is erased, so append cannot fail; `?`
        // keeps the path panic-free regardless.
        let slot = lane.blocks[next as usize].append()?;
        lane.set_reverse(next, slot, lpn);
        Some(Ppa {
            lane: lane_id,
            block: next,
            slot,
        })
    }

    /// Places a GC relocation into the lane's dedicated GC destination
    /// block. The victim capacity guard in `pick_victim` guarantees this
    /// never fails for a victim whose drain has started.
    fn place_gc(&mut self, lane_id: LaneId, lpn: u64) -> Ppa {
        let lane = &mut self.lanes[lane_id.0 as usize];
        if let Some(slot) = lane.blocks[lane.gc_open as usize].append() {
            lane.set_reverse(lane.gc_open, slot, lpn);
            return Ppa {
                lane: lane_id,
                block: lane.gc_open,
                slot,
            };
        }
        let next = lane
            .free
            .pop()
            // simlint: allow(S006): pick_victim's capacity guard (free.len() > 0 before a drain starts) is this fn's documented precondition
            .expect("capacity guard guarantees a free GC destination block");
        lane.gc_open = next;
        let slot = lane.blocks[next as usize]
            .append()
            // simlint: allow(S006): `next` was just popped from the free list, i.e. erased, and an erased block always accepts an append
            .expect("free block accepts appends");
        lane.set_reverse(next, slot, lpn);
        Ppa {
            lane: lane_id,
            block: next,
            slot,
        }
    }

    /// Recovers from a program failure at `ppa` while writing `lpn`:
    /// records the damage, retires the failing block when that is safe
    /// (relocating its surviving units and substituting a spare via the
    /// remap checker, or marking it bad once spares run out), and
    /// re-appends `lpn` so read-after-write always resolves.
    ///
    /// Retirement is *deferred* — not skipped silently; it is counted in
    /// the result — whenever touching the block now would violate the
    /// GC invariants: the lane has a mid-drain victim (whose capacity
    /// guard reserved the GC destination), the block is the GC
    /// destination itself, the append point cannot rotate without
    /// eating the GC free-block reserve, or the survivors would not fit
    /// the guaranteed destination space.
    pub fn recover_program_fail(&mut self, ppa: Ppa, lpn: u64) -> ProgramFailRecovery {
        let lane_id = ppa.lane;
        let block = ppa.block;
        let mut out = ProgramFailRecovery {
            new_ppa: ppa,
            relocated_units: 0,
            erased_blocks: 0,
            remapped: false,
            marked_bad: false,
            deferred: false,
        };
        // The failed program physically damaged the block; the data
        // never landed, so drop the failed copy before retrying.
        self.lanes[lane_id.0 as usize].blocks[block as usize].note_program_fail();
        self.invalidate(ppa);
        self.l2p[lpn as usize] = UNMAPPED;

        let can_touch = {
            let lane = &self.lanes[lane_id.0 as usize];
            let rotation_ok = block != lane.open || lane.free.len() >= 2;
            lane.victim.is_none() && block != lane.gc_open && rotation_ok
        };
        let mut retire = false;
        if can_touch {
            // Rotate the host append point off the failing block first
            // (the free list held >= 2, so one stays in GC reserve).
            {
                let lane = &mut self.lanes[lane_id.0 as usize];
                if block == lane.open {
                    if let Some(next) = lane.free.pop() {
                        lane.open = next;
                    }
                }
            }
            // Survivors must fit the guaranteed GC destination space —
            // the same capacity guard pick_victim applies.
            let lane = &self.lanes[lane_id.0 as usize];
            let dest = lane.blocks[lane.gc_open as usize].free_pages()
                + if lane.free.is_empty() {
                    0
                } else {
                    self.units_per_block
                };
            retire = lane.blocks[block as usize].valid_count() <= dest;
        }
        if retire {
            // Relocate every surviving unit, then erase and retire.
            loop {
                let found = {
                    let lane = &self.lanes[lane_id.0 as usize];
                    let b = &lane.blocks[block as usize];
                    (0..self.units_per_block)
                        .find(|&s| b.is_valid(s))
                        .map(|s| (s, lane.reverse(block, s)))
                };
                let Some((slot, moved_lpn)) = found else {
                    break;
                };
                debug_assert_ne!(moved_lpn, u64::from(UNMAPPED), "valid slot must map back");
                {
                    let lane = &mut self.lanes[lane_id.0 as usize];
                    lane.blocks[block as usize].invalidate(slot);
                    lane.clear_reverse(block, slot);
                }
                let new = self.place_gc(lane_id, moved_lpn);
                self.l2p[moved_lpn as usize] = self.packing.pack(new);
                out.relocated_units += 1;
                self.total_migrated += 1;
            }
            {
                let lane = &mut self.lanes[lane_id.0 as usize];
                lane.blocks[block as usize].erase();
                lane.clear_block(block);
            }
            out.erased_blocks += 1;
            self.total_erased += 1;
            let checker = &mut self.remap[lane_id.0 as usize];
            if checker.spares_left() > 0 && checker.retire(block).is_ok() {
                // A spare physically substitutes for the damaged block;
                // the (semi-virtual) block stays in service.
                self.remapped_blocks += 1;
                out.remapped = true;
                self.lanes[lane_id.0 as usize].free.insert(0, block);
            } else {
                self.lanes[lane_id.0 as usize].blocks[block as usize].mark_bad();
                self.physical_blocks_lost += self.blocks_per_virtual as u64;
                out.marked_bad = true;
            }
        } else {
            out.deferred = true;
        }

        // Retry the program elsewhere on the lane (forced GC included).
        let (placement, gc_work) = self.append_on(lane_id, lpn);
        out.new_ppa = placement.ppa;
        out.relocated_units += gc_work.migrated_units;
        out.erased_blocks += gc_work.erased_blocks;
        out
    }

    fn invalidate(&mut self, ppa: Ppa) {
        let lane = &mut self.lanes[ppa.lane.0 as usize];
        lane.blocks[ppa.block as usize].invalidate(ppa.slot);
        lane.clear_reverse(ppa.block, ppa.slot);
    }

    /// Migrates up to `budget` valid units out of the lane's victim,
    /// erasing it when fully drained. Returns units actually moved.
    fn migrate_units(&mut self, lane_id: LaneId, budget: u32, work: &mut GcWork) -> u32 {
        let mut moved = 0;
        let units_per_block = self.units_per_block;
        while moved < budget {
            let Some(victim_block) = self.lanes[lane_id.0 as usize].pick_victim(units_per_block)
            else {
                break;
            };
            // Scan from the victim cursor for the next valid slot.
            let (next_valid, exhausted) = {
                let lane = &self.lanes[lane_id.0 as usize];
                let block = &lane.blocks[victim_block as usize];
                // simlint: allow(S006): pick_victim returned Some above, which always installs `lane.victim`
                let cursor = lane.victim.as_ref().expect("victim set").cursor;
                let mut found = None;
                let mut c = cursor;
                while c < self.units_per_block {
                    if block.is_valid(c) {
                        found = Some(c);
                        break;
                    }
                    c += 1;
                }
                (
                    found.map(|s| (s, lane.reverse(victim_block, s))),
                    found.is_none(),
                )
            };
            if exhausted {
                // Victim fully drained: erase it. If the victim *is* an
                // append point (it was full when picked), it stays the
                // append point — now empty — instead of entering the free
                // list, so the pointer is never left dangling at a freed
                // block.
                let worn = self.wear.per_erase_prob > 0.0
                    && self.wear_rng.chance(self.wear.per_erase_prob);
                let lane = &mut self.lanes[lane_id.0 as usize];
                lane.blocks[victim_block as usize].erase();
                lane.clear_block(victim_block);
                let is_append_point = victim_block == lane.open || victim_block == lane.gc_open;
                let mut usable = true;
                if worn {
                    let checker = &mut self.remap[lane_id.0 as usize];
                    if self.wear.remap_enabled && checker.spares_left() > 0 {
                        // The remap checker substitutes a same-channel
                        // spare; the semi-virtual block stays usable and,
                        // for pairs, the partner block is not stranded.
                        // spares_left() > 0 was checked above; treat a
                        // (theoretically impossible) failure as no-remap.
                        if checker.retire(victim_block).is_ok() {
                            self.remapped_blocks += 1;
                        }
                    } else if !is_append_point {
                        lane.blocks[victim_block as usize].mark_bad();
                        self.physical_blocks_lost += self.blocks_per_virtual as u64;
                        usable = false;
                    }
                }
                if usable && !is_append_point {
                    lane.free.insert(0, victim_block);
                }
                lane.victim = None;
                work.erased_blocks += 1;
                self.total_erased += 1;
                // Stop if pressure is relieved.
                if !self.lane_needs_gc(lane_id) {
                    break;
                }
                continue;
            }
            // `exhausted` was handled above, so next_valid is Some; break
            // is the safe (unreachable) fallback rather than a panic.
            let Some((slot, lpn)) = next_valid else { break };
            debug_assert_ne!(
                lpn,
                u64::from(UNMAPPED),
                "valid slot must have a reverse mapping"
            );
            // Invalidate the old copy and advance the cursor...
            {
                let lane = &mut self.lanes[lane_id.0 as usize];
                lane.blocks[victim_block as usize].invalidate(slot);
                lane.clear_reverse(victim_block, slot);
                if let Some(v) = lane.victim.as_mut() {
                    v.cursor = slot + 1;
                }
            }
            // ...then re-place the unit into the GC destination block.
            let ppa = self.place_gc(lane_id, lpn);
            self.l2p[lpn as usize] = self.packing.pack(ppa);
            moved += 1;
            work.migrated_units += 1;
            self.total_migrated += 1;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gc() -> GcPolicy {
        GcPolicy {
            low_watermark: 3,
            units_per_host_write: 4,
            parallel: false,
        }
    }

    fn small_ftl() -> Ftl {
        // 1 lane, 8 blocks of 4 units = 32 physical units.
        Ftl::new(1, 8, 4, gc())
    }

    #[test]
    fn lookup_follows_appends() {
        let mut f = small_ftl();
        let (p0, _) = f.append(10);
        let (p1, _) = f.append(11);
        assert_eq!(f.lookup(10), Some(p0.ppa));
        assert_eq!(f.lookup(11), Some(p1.ppa));
        assert_eq!(f.lookup(12), None);
        assert_ne!(p0.ppa, p1.ppa);
    }

    #[test]
    fn overwrite_moves_mapping_and_invalidates() {
        let mut f = small_ftl();
        let (first, _) = f.append(5);
        let (second, _) = f.append(5);
        assert_ne!(first.ppa, second.ppa);
        assert_eq!(f.lookup(5), Some(second.ppa));
    }

    #[test]
    fn round_robin_spreads_lanes() {
        let gcp = gc();
        let mut f = Ftl::new(4, 8, 4, gcp);
        let lanes: Vec<u32> = (0..8).map(|lpn| f.append(lpn).0.ppa.lane.0).collect();
        assert_eq!(lanes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_never_deadlock() {
        let mut f = small_ftl();
        // Logical space: 16 units against 32 physical => 50% OP.
        for round in 0..50u64 {
            for lpn in 0..16u64 {
                let (placement, _w) = f.append((lpn * 7 + round) % 16);
                assert!(placement.ppa.slot < 4);
            }
        }
        assert!(f.migrated_units() > 0, "GC must have migrated data");
        assert!(f.erased_blocks() > 0, "GC must have erased blocks");
        // All 16 logical units still resolve and point at valid slots.
        for lpn in 0..16u64 {
            let ppa = f.lookup(lpn).expect("mapped");
            assert!(ppa.block < 8 && ppa.slot < 4);
        }
    }

    /// Every mapped lpn resolves to a valid slot whose reverse entry names
    /// it, and every valid slot's reverse entry resolves back to the slot:
    /// `l2p` and `p2l` are inverse bijections over the `mapped` lpns.
    fn assert_inverse(f: &Ftl, mapped: u64) {
        for lpn in 0..mapped {
            let ppa = f.lookup(lpn).expect("written lpn stays mapped");
            let lane = &f.lanes[ppa.lane.0 as usize];
            assert_eq!(lane.reverse(ppa.block, ppa.slot), lpn);
            assert!(lane.blocks[ppa.block as usize].is_valid(ppa.slot));
        }
        let mut valid = 0u64;
        for (l, lane) in f.lanes.iter().enumerate() {
            for (b, block) in lane.blocks.iter().enumerate() {
                for slot in block.valid_pages() {
                    let ppa = Ppa {
                        lane: LaneId(l as u32),
                        block: b as u32,
                        slot,
                    };
                    assert_eq!(f.lookup(lane.reverse(ppa.block, slot)), Some(ppa));
                    valid += 1;
                }
            }
        }
        assert_eq!(valid, mapped);
    }

    #[test]
    fn l2p_and_p2l_stay_inverse() {
        let mut f = Ftl::new(2, 6, 4, gc());
        for i in 0..200u64 {
            f.append(i % 20);
        }
        assert_inverse(&f, 20);
    }

    #[test]
    fn l2p_and_p2l_stay_inverse_at_preset_geometries() {
        // The packed entries of the real device geometries, through a full
        // precondition, GC-inducing random overwrites and program-fail
        // recovery.
        for cfg in [crate::presets::ull_800g(), crate::presets::nvme750()] {
            let lanes =
                crate::Topology::new(cfg.channels, cfg.ways, cfg.splits_across_pair()).lanes();
            let mut f = Ftl::for_device(&cfg, lanes).expect("preset geometry fits");
            let logical = cfg.logical_units();
            for lpn in 0..logical {
                f.append(lpn);
            }
            let mut rng = SplitMix64::new(0x1217);
            let mut recoveries = 0;
            for i in 0..logical / 2 {
                let lpn = rng.below(logical);
                let (p, _) = f.append(lpn);
                if i % 4_999 == 0 {
                    let rec = f.recover_program_fail(p.ppa, lpn);
                    assert_eq!(f.lookup(lpn), Some(rec.new_ppa));
                    recoveries += 1;
                }
            }
            assert!(
                f.migrated_units() > 0 && f.erased_blocks() > 0,
                "{}",
                cfg.name
            );
            assert!(recoveries > 0);
            assert_inverse(&f, logical);
        }
    }

    #[test]
    fn packing_round_trips_at_the_edges() {
        // 3 lanes x 5 blocks x 7 slots needs 2 + 3 + 3 bits.
        let p = PpaPacking::new(5, 7);
        assert!(p.fits(3, 5, 7));
        for (lane, block, slot) in [(0, 0, 0), (2, 4, 6), (1, 3, 0), (0, 4, 6)] {
            let ppa = Ppa {
                lane: LaneId(lane),
                block,
                slot,
            };
            assert_eq!(p.unpack(p.pack(ppa)), ppa);
        }
        // 32 bits exactly: fits only while the largest address stays
        // below the unmapped sentinel.
        assert!(Ftl::fits(1 << 10, 1 << 11, (1 << 11) - 1));
        assert!(!Ftl::fits(1 << 10, 1 << 11, 1 << 11));
        assert!(!Ftl::fits(1 << 11, 1 << 11, 1 << 11));
        let wide = PpaPacking::new(1, u32::MAX);
        let top = Ppa {
            lane: LaneId(0),
            block: 0,
            slot: u32::MAX - 1,
        };
        assert!(wide.fits(1, 1, u32::MAX));
        assert_eq!(wide.unpack(wide.pack(top)), top);
        assert!(!Ftl::fits(0, 4, 4) && !Ftl::fits(4, 0, 4) && !Ftl::fits(4, 4, 0));
    }

    #[test]
    fn valid_unit_count_is_conserved() {
        let mut f = Ftl::new(2, 6, 4, gc());
        let logical = 16u64;
        for i in 0..500u64 {
            f.append(i % logical);
        }
        let valid_total: u32 = f
            .lanes
            .iter()
            .flat_map(|l| l.blocks.iter())
            .map(|b| b.valid_count())
            .sum();
        assert_eq!(valid_total as u64, logical);
    }

    #[test]
    fn remap_checker_absorbs_wear() {
        // Every erase wears its block out, but a deep spare pool lets the
        // remap checker absorb all of it: no capacity is ever stranded and
        // the lane keeps cycling.
        let wear = WearConfig {
            per_erase_prob: 1.0,
            remap_enabled: true,
            spares_per_lane: 512,
            seed: 1,
        };
        let mut f = Ftl::new(1, 8, 4, gc()).with_wear(wear, 2);
        for round in 0..20u64 {
            for lpn in 0..16u64 {
                f.append((lpn + round) % 16);
            }
        }
        assert!(f.erased_blocks() > 0);
        assert!(f.remapped_blocks() > 0, "remap never engaged");
        assert_eq!(f.physical_blocks_lost(), 0, "remap must prevent stranding");
        for lpn in 0..16u64 {
            assert!(f.lookup(lpn).is_some());
        }
    }

    #[test]
    fn unremapped_wear_strands_pair_capacity_until_wedged() {
        // Without the remap checker every worn block strands its pair
        // partner too; the lane loses capacity and eventually wedges.
        let wear = WearConfig {
            per_erase_prob: 1.0,
            remap_enabled: false,
            spares_per_lane: 0,
            seed: 1,
        };
        let mut f = Ftl::new(1, 24, 4, gc()).with_wear(wear, 2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..100_000u64 {
                f.append(i % 16);
            }
        }));
        assert!(
            outcome.is_err(),
            "total wear without remap must wedge the lane"
        );
        assert!(f.physical_blocks_lost() > 0, "no capacity stranded");
        // Pair-lane accounting: each lost virtual block strands 2 physical.
        assert_eq!(f.physical_blocks_lost() % 2, 0);
        assert_eq!(f.remapped_blocks(), 0);
    }

    #[test]
    fn program_fail_recovery_preserves_mappings() {
        // Plenty of spares: every recovery should remap, never mark bad.
        let wear = WearConfig {
            per_erase_prob: 0.0,
            remap_enabled: true,
            spares_per_lane: 64,
            seed: 1,
        };
        let mut f = Ftl::new(1, 8, 4, gc()).with_wear(wear, 1);
        // Lay down some data so the failing block has survivors.
        for lpn in 0..6u64 {
            f.append(lpn);
        }
        let (p, _) = f.append(6);
        let rec = f.recover_program_fail(p.ppa, 6);
        assert_ne!(rec.new_ppa, p.ppa, "retry must land elsewhere");
        assert_eq!(f.lookup(6), Some(rec.new_ppa), "read-after-write");
        assert!(rec.remapped || rec.deferred, "{rec:?}");
        assert!(!rec.marked_bad);
        // Every earlier write still resolves, each to a distinct ppa.
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..7u64 {
            let ppa = f.lookup(lpn).expect("mapped after recovery");
            assert!(seen.insert(ppa), "duplicate mapping at {lpn}");
            let lane = &f.lanes[ppa.lane.0 as usize];
            assert!(lane.blocks[ppa.block as usize].is_valid(ppa.slot));
            assert_eq!(lane.reverse(ppa.block, ppa.slot), lpn);
        }
    }

    #[test]
    fn program_fail_without_spares_marks_bad_or_defers() {
        let mut f = Ftl::new(1, 8, 4, gc());
        for lpn in 0..6u64 {
            f.append(lpn);
        }
        let (p, _) = f.append(6);
        let rec = f.recover_program_fail(p.ppa, 6);
        assert_eq!(f.lookup(6), Some(rec.new_ppa));
        // Exactly one outcome per failure.
        let outcomes =
            u32::from(rec.remapped) + u32::from(rec.marked_bad) + u32::from(rec.deferred);
        assert_eq!(outcomes, 1, "{rec:?}");
        if rec.marked_bad {
            assert_eq!(f.physical_blocks_lost(), 1);
        }
    }

    #[test]
    fn repeated_program_fails_never_corrupt_state() {
        let wear = WearConfig {
            per_erase_prob: 0.0,
            remap_enabled: true,
            spares_per_lane: 256,
            seed: 3,
        };
        let mut f = Ftl::new(2, 8, 4, gc()).with_wear(wear, 1);
        let logical = 16u64;
        for i in 0..400u64 {
            let lpn = (i * 11 + 3) % logical;
            let (p, _) = f.append(lpn);
            if i % 5 == 0 {
                let rec = f.recover_program_fail(p.ppa, lpn);
                assert_eq!(f.lookup(lpn), Some(rec.new_ppa));
            }
        }
        // Valid units conserved: one live copy per logical unit written.
        let valid_total: u32 = f
            .lanes
            .iter()
            .flat_map(|l| l.blocks.iter())
            .map(|b| b.valid_count())
            .sum();
        assert_eq!(valid_total as u64, logical);
    }

    #[test]
    #[should_panic(expected = "GC deadlock")]
    fn overfull_logical_space_is_detected() {
        // Logical space == physical space: GC has nothing to reclaim.
        let mut f = Ftl::new(
            1,
            4,
            2,
            GcPolicy {
                low_watermark: 0,
                units_per_host_write: 0,
                parallel: false,
            },
        );
        for lpn in 0..8u64 {
            f.append(lpn);
        }
    }
}
