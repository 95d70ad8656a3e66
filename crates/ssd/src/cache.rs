//! The device's internal DRAM: write-back buffer and read cache.
//!
//! The write buffer is what lets both devices acknowledge 4 KB writes in
//! ~10 µs even though a flash program takes 100 µs (Z-NAND) or 1.3 ms
//! (MLC): data is acked when it lands in DRAM and drains to flash behind
//! the ack. Its *finite size* is equally important — once the drain rate is
//! the bottleneck, admission blocks and the host observes flash/GC speed,
//! which is exactly the fig. 5 write-bandwidth ceiling and the fig. 7b GC
//! latency cliff.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ull_simkit::{SimDuration, SimTime, SplitMix64};

use crate::config::ReadCachePolicy;

/// Bounded write-back buffer: a unit occupies one slot from admission until
/// its flash program retires.
///
/// Two structures back it: a min-heap of pending slot releases, and a flat
/// open-addressed table from lpn to the instant its buffered copy stops
/// being readable. Once every 4,096 admits a sweep drops the table's
/// ended entries, rebuilding it in place.
///
/// # Examples
///
/// ```
/// use ull_simkit::SimTime;
/// use ull_ssd::WriteBuffer;
///
/// let mut buf = WriteBuffer::new(1);
/// let t0 = buf.admit(SimTime::ZERO, 0);
/// assert_eq!(t0, SimTime::ZERO);
/// buf.retire(0, SimTime::from_micros(100)); // slot busy until the program ends
/// // Second unit must wait for the slot.
/// assert_eq!(buf.admit(SimTime::ZERO, 1), SimTime::from_micros(100));
/// ```
#[derive(Debug)]
pub struct WriteBuffer {
    capacity: usize,
    /// Pending slot releases (program-end instants in ns), earliest on
    /// top. A plain min-heap rather than the timing wheel: a full buffer
    /// holds milliseconds of program backlog, past the wheel's near
    /// horizon, so releases would churn through its far heap anyway. The
    /// payload *is* the instant, so equal entries are interchangeable and
    /// no tie-break is needed.
    releases: BinaryHeap<Reverse<u64>>,
    /// lpn -> time at which the buffered copy stops being addressable
    /// (program end); reads before that are DRAM hits. Written once per
    /// admitted unit and read once per read unit, so it is a flat hash
    /// table rather than a `BTreeMap`.
    resident: ResidentTable,
    admitted: u64,
}

impl WriteBuffer {
    /// Creates a buffer of `capacity` 4 KB slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "write buffer needs at least one slot");
        WriteBuffer {
            capacity: capacity as usize,
            releases: BinaryHeap::new(),
            resident: ResidentTable::new(),
            admitted: 0,
        }
    }

    /// Admits one unit arriving at `at`, returning the instant it actually
    /// enters DRAM (possibly delayed by a full buffer). Until
    /// [`retire`](Self::retire) the buffered copy of `lpn` is resident
    /// with no end, so [`holds`](Self::holds) answers true.
    pub fn admit(&mut self, at: SimTime, lpn: u64) -> SimTime {
        self.resident.insert(lpn, u64::MAX); // provisional until retire()
        self.admit_slot(at)
    }

    /// [`admit`](Self::admit) without the provisional resident entry: the
    /// slot is claimed and the copy becomes addressable only at
    /// [`retire`](Self::retire). Exact whenever the caller retires the
    /// unit before any [`holds`](Self::holds) query — the periodic sweep
    /// keeps provisional entries, and `retire` overwrites them, so the
    /// resident map ends up the same.
    pub fn admit_slot(&mut self, at: SimTime) -> SimTime {
        self.admitted += 1;
        // A full buffer (`len >= capacity >= 1`) always has a pending
        // release, so the else-branch of the inner `if let` is unreachable;
        // admitting immediately there is a safe, panic-free fallback.
        let admitted_at = if self.releases.len() < self.capacity {
            at
        } else if let Some(Reverse(earliest)) = self.releases.pop() {
            at.max(SimTime::from_nanos(earliest))
        } else {
            at
        };
        if self.admitted.is_multiple_of(4096) {
            self.sweep(admitted_at);
        }
        admitted_at
    }

    /// Records that the unit's flash program completes at `program_end`,
    /// freeing the slot then.
    pub fn retire(&mut self, lpn: u64, program_end: SimTime) {
        let until = program_end.as_nanos();
        self.releases.push(Reverse(until));
        self.resident.insert(lpn, until);
    }

    /// Whether a read of `lpn` issued at `at` can be served from the
    /// buffered copy.
    pub fn holds(&self, lpn: u64, at: SimTime) -> bool {
        self.resident
            .get(lpn)
            .is_some_and(|until| at.as_nanos() < until)
    }

    /// Total units ever admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Slots currently accounted busy (upper bound; lazily trimmed).
    pub fn in_flight(&self) -> usize {
        self.releases.len()
    }

    fn sweep(&mut self, now: SimTime) {
        let now = now.as_nanos();
        self.resident
            .retain(|until| until == u64::MAX || until > now);
    }
}

/// Key marking a vacant slot of [`ResidentTable`].
const VACANT: u64 = u64::MAX;

/// Open-addressed map from lpn to release instant: a power-of-two array of
/// `(lpn, until)` slots, linear probing from a fixed multiplicative hash,
/// at most half full. No per-entry allocation and no `RandomState`, so
/// its contents, and every answer it gives, depend only on the inserts.
#[derive(Debug)]
struct ResidentTable {
    /// `(lpn, until)` pairs; a `VACANT` key marks an empty slot.
    slots: Vec<(u64, u64)>,
    /// Occupied slots.
    len: usize,
    /// The entry for lpn `u64::MAX`, whose key is the vacancy marker.
    last: Option<u64>,
    /// Survivors of a `retain`, kept to reuse the allocation.
    scratch: Vec<(u64, u64)>,
}

impl ResidentTable {
    const MIN_SLOTS: usize = 16;

    fn new() -> Self {
        ResidentTable {
            slots: vec![(VACANT, 0); Self::MIN_SLOTS],
            len: 0,
            last: None,
            scratch: Vec::new(),
        }
    }

    /// Home slot of `lpn`: the top bits of `lpn` times 2^64 / φ
    /// (Fibonacci hashing), so sequential lpns spread across the table.
    #[inline]
    fn home(&self, lpn: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Inserts or overwrites the entry for `lpn`.
    #[inline]
    fn insert(&mut self, lpn: u64, until: u64) {
        if lpn == VACANT {
            self.last = Some(until);
            return;
        }
        if self.place(lpn, until) {
            self.len += 1;
            if 2 * self.len > self.slots.len() {
                self.grow();
            }
        }
    }

    /// Writes `(lpn, until)` into `lpn`'s slot; true if the slot was
    /// vacant. The table always has a vacant slot, so the probe ends.
    #[inline]
    fn place(&mut self, lpn: u64, until: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = self.home(lpn);
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == lpn {
                slot.1 = until;
                return false;
            }
            if slot.0 == VACANT {
                *slot = (lpn, until);
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, lpn: u64) -> Option<u64> {
        if lpn == VACANT {
            return self.last;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(lpn);
        loop {
            let (key, until) = self.slots[i];
            if key == lpn {
                return Some(until);
            }
            if key == VACANT {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slot count and rehashes every entry.
    fn grow(&mut self) {
        let doubled = vec![(VACANT, 0); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        for (lpn, until) in old {
            if lpn != VACANT {
                self.place(lpn, until);
            }
        }
    }

    /// Keeps only the entries whose `until` satisfies `keep`, rebuilding
    /// the table in place.
    fn retain(&mut self, keep: impl Fn(u64) -> bool) {
        let mut kept = std::mem::take(&mut self.scratch);
        kept.clear();
        kept.extend(
            self.slots
                .iter()
                .copied()
                .filter(|&(lpn, until)| lpn != VACANT && keep(until)),
        );
        self.slots.fill((VACANT, 0));
        self.len = kept.len();
        for &(lpn, until) in &kept {
            self.place(lpn, until);
        }
        self.scratch = kept;
        self.last = self.last.filter(|&until| keep(until));
    }
}

/// How the read cache classified one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadClass {
    /// The request continued the previous one's address range.
    pub sequential: bool,
    /// The request hits device DRAM (readahead or cached data).
    pub hit: bool,
}

/// Locality-sensitive read cache / readahead model.
///
/// The real devices prefetch ahead of detected sequential streams and keep
/// recently accessed data in DRAM; rather than simulating DRAM contents we
/// classify each read and draw a hit with the configured per-class
/// probability — deterministic under a fixed seed.
#[derive(Debug)]
pub struct ReadCache {
    policy: ReadCachePolicy,
    expected_next: Option<u64>,
    rng: SplitMix64,
    hits: u64,
    lookups: u64,
}

impl ReadCache {
    /// Creates a cache with the given policy and RNG seed.
    pub fn new(policy: ReadCachePolicy, seed: u64) -> Self {
        ReadCache {
            policy,
            expected_next: None,
            rng: SplitMix64::new(seed),
            hits: 0,
            lookups: 0,
        }
    }

    /// Classifies a read of `units` 4 KB units starting at `lpn`.
    pub fn classify(&mut self, lpn: u64, units: u64) -> ReadClass {
        self.lookups += 1;
        let sequential = self.expected_next == Some(lpn);
        self.expected_next = Some(lpn + units);
        let p = if sequential {
            self.policy.seq_hit_prob
        } else {
            self.policy.rnd_hit_prob
        };
        let hit = self.rng.chance(p);
        if hit {
            self.hits += 1;
        }
        ReadClass { sequential, hit }
    }

    /// DRAM service latency on a hit.
    pub fn hit_latency(&self) -> SimDuration {
        self.policy.hit_latency
    }

    /// Observed hit fraction so far.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_simkit::SimDuration;

    fn policy(seq: f64, rnd: f64) -> ReadCachePolicy {
        ReadCachePolicy {
            seq_hit_prob: seq,
            rnd_hit_prob: rnd,
            hit_latency: SimDuration::from_micros(2),
        }
    }

    #[test]
    fn buffer_admits_immediately_when_free() {
        let mut b = WriteBuffer::new(4);
        for lpn in 0..4 {
            assert_eq!(
                b.admit(SimTime::from_micros(1), lpn),
                SimTime::from_micros(1)
            );
        }
        assert_eq!(b.admitted(), 4);
    }

    #[test]
    fn full_buffer_blocks_until_earliest_release() {
        let mut b = WriteBuffer::new(2);
        b.admit(SimTime::ZERO, 0);
        b.retire(0, SimTime::from_micros(300));
        b.admit(SimTime::ZERO, 1);
        b.retire(1, SimTime::from_micros(100));
        // Both slots busy; earliest frees at 100us.
        assert_eq!(
            b.admit(SimTime::from_micros(5), 2),
            SimTime::from_micros(100)
        );
        b.retire(2, SimTime::from_micros(400));
        // Next earliest is 300us.
        assert_eq!(
            b.admit(SimTime::from_micros(5), 3),
            SimTime::from_micros(300)
        );
    }

    #[test]
    fn buffered_data_is_readable_until_program_end() {
        let mut b = WriteBuffer::new(4);
        b.admit(SimTime::ZERO, 42);
        // Not yet retired: provisionally resident forever.
        assert!(b.holds(42, SimTime::from_micros(1)));
        b.retire(42, SimTime::from_micros(100));
        assert!(b.holds(42, SimTime::from_micros(99)));
        assert!(!b.holds(42, SimTime::from_micros(100)));
        assert!(!b.holds(7, SimTime::ZERO));
    }

    #[test]
    fn resident_table_grows_sweeps_and_keys_every_lpn() {
        let mut t = ResidentTable::new();
        let lpns = (0..1000u64).map(|i| i << 20).chain([0, 1, u64::MAX]);
        for (i, lpn) in lpns.clone().enumerate() {
            t.insert(lpn, if i % 2 == 0 { u64::MAX } else { i as u64 });
        }
        assert!(t.slots.len() >= 2 * t.len);
        t.insert(u64::MAX, 7); // overwrite
        assert_eq!(t.get(u64::MAX), Some(7));
        assert_eq!(t.get(3 << 20), Some(3));
        assert_eq!(t.get(2), None);
        t.retain(|until| until == u64::MAX || until > 500);
        for (i, lpn) in lpns.enumerate() {
            let until = if lpn == u64::MAX {
                7
            } else if i % 2 == 0 {
                u64::MAX
            } else {
                i as u64
            };
            let kept = until == u64::MAX || until > 500;
            assert_eq!(t.get(lpn), kept.then_some(until), "lpn {lpn}");
        }
    }

    #[test]
    fn sequential_detection_tracks_stream() {
        let mut c = ReadCache::new(policy(1.0, 0.0), 1);
        assert!(!c.classify(10, 2).sequential); // first access
        let second = c.classify(12, 2);
        assert!(second.sequential);
        assert!(second.hit); // seq prob 1.0
        let jump = c.classify(100, 1);
        assert!(!jump.sequential);
        assert!(!jump.hit); // rnd prob 0.0
    }

    #[test]
    fn hit_probability_is_respected() {
        let mut c = ReadCache::new(policy(0.0, 0.5), 7);
        let hits = (0..10_000).filter(|i| c.classify(i * 97, 1).hit).count();
        assert!((hits as f64 / 10_000.0 - 0.5).abs() < 0.03);
    }
}
