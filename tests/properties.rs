//! Randomized-but-deterministic tests on the core data structures and
//! invariants (DESIGN.md §7).
//!
//! These used to be `proptest` properties; they are now driven by the
//! workspace's own seeded [`SplitMix64`] generator so the whole test suite
//! builds offline and — more importantly — every run explores *exactly* the
//! same cases. Each property walks a fixed set of seeds and generates the
//! same shapes the proptest strategies did.

use ull_ssd_study::faults::{FaultPlan, FaultReport};
use ull_ssd_study::netblock::{NbdServerKind, NbdSystem};
use ull_ssd_study::nvme::{CompletionQueue, NvmeCommand, SubmissionQueue};
use ull_ssd_study::simkit::{
    EventQueue, Histogram, SimDuration, SimTime, SplitMix64, Timeline, TimingWheel,
};
use ull_ssd_study::ssd::{
    presets, Ftl, GcPolicy, LaneId, RemapChecker, Ssd, SsdConfig, WearConfig, WriteBuffer,
};
use ull_ssd_study::stack::{split_request, IoOp, IoPath};
use ull_ssd_study::study::{host, Device};
use ull_ssd_study::workload::{run_job, JobSpec, Pattern};

/// Seeds each property iterates; chosen arbitrarily but fixed forever.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, 0x5EED_CAFE];

fn vec_u64(rng: &mut SplitMix64, len_lo: u64, len_hi: u64, lo: u64, hi: u64) -> Vec<u64> {
    let len = len_lo + rng.below(len_hi - len_lo);
    (0..len).map(|_| lo + rng.below(hi - lo)).collect()
}

fn vec_bool(rng: &mut SplitMix64, len_lo: u64, len_hi: u64) -> Vec<bool> {
    let len = len_lo + rng.below(len_hi - len_lo);
    (0..len).map(|_| rng.chance(0.5)).collect()
}

/// Histogram quantiles stay within one bucket (<2% relative error) of the
/// exact order statistic.
#[test]
fn histogram_quantiles_track_exact() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let values = vec_u64(&mut rng, 50, 400, 1, 10_000_000);
        let q = rng.next_f64();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(SimDuration::from_nanos(v));
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = (((q * sorted.len() as f64).floor() as usize) + 1).min(sorted.len());
        let exact = sorted[rank - 1] as f64;
        let est = h.quantile(q).as_nanos() as f64;
        // The estimate is the bucket's upper edge: never below the exact
        // value, and within the bucket's relative width above it.
        assert!(
            est >= exact - 1.0,
            "seed {seed}: est {est} below exact {exact}"
        );
        assert!(
            est <= exact * 1.02 + 1.0,
            "seed {seed}: est {est} too far above exact {exact}"
        );
    }
}

/// Histograms record exact count/min/max/mean.
#[test]
fn histogram_moments_exact() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let values = vec_u64(&mut rng, 1, 300, 0, 1_000_000);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(SimDuration::from_nanos(v));
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min().as_nanos(), *values.iter().min().expect("non-empty"));
        assert_eq!(h.max().as_nanos(), *values.iter().max().expect("non-empty"));
        let mean = values.iter().sum::<u64>() / values.len() as u64;
        assert_eq!(h.mean().as_nanos(), mean);
    }
}

/// The event queue is a stable time-ordered priority queue.
#[test]
fn event_queue_is_stable_sort() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let times = vec_u64(&mut rng, 1, 200, 0, 1000);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort(); // stable: ties keep insertion order by second key
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        assert_eq!(popped, expected, "seed {seed}");
    }
}

/// FIFO tie-breaking survives interleaved schedule/pop: events scheduled
/// across pop boundaries still come out in (time, insertion) order, i.e.
/// the sequence counter is global to the queue's lifetime, not to one
/// batch. The model is a vector popped by stable (time, id) minimum.
#[test]
fn event_queue_fifo_survives_interleaving() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0x1757);
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..400 {
            if model.is_empty() || rng.chance(0.6) {
                // Times from a tiny range, so equal-time ties are common.
                let t = rng.below(16);
                q.schedule(SimTime::from_nanos(t), next_id);
                model.push((t, next_id));
                next_id += 1;
            } else {
                let min = *model.iter().min().expect("non-empty");
                let idx = model.iter().position(|&e| e == min).expect("present");
                model.remove(idx);
                let (t, id) = q.pop().expect("queue tracks model");
                assert_eq!((t.as_nanos(), id), min, "seed {seed}");
            }
        }
        // Drain the rest: still stable (time, insertion) order.
        let mut rest = Vec::new();
        while let Some((t, id)) = q.pop() {
            rest.push((t.as_nanos(), id));
        }
        model.sort_unstable(); // (time, id) = FIFO within equal times
        assert_eq!(rest, model, "seed {seed}");
    }
}

/// The timing wheel is a drop-in replacement for the heap: under random
/// interleavings of schedule and pop — with a delta distribution that
/// exercises same-slot bursts, cross-slot ordering, *and* far-future
/// overflow promotion — the wheel pops exactly the (time, payload)
/// sequence the retained `EventQueue` reference does.
#[test]
fn timing_wheel_matches_heap_reference() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0x3EE1);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        for _ in 0..2_000 {
            if heap.is_empty() || rng.chance(0.55) {
                // Mixed horizon: mostly near (same or adjacent slots),
                // sometimes zero (same-instant FIFO burst), occasionally
                // far enough to land in the wheel's overflow level.
                let delta = if rng.chance(0.15) {
                    0
                } else if rng.chance(0.1) {
                    1_000_000 + rng.below(500_000_000) // far: overflow level
                } else {
                    rng.below(30_000) // near: wheel slots
                };
                let at = now + SimDuration::from_nanos(delta);
                wheel.schedule(at, next_id);
                heap.schedule(at, next_id);
                next_id += 1;
            } else {
                assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "seed {seed}: wheel diverged from heap");
                // Popping advances simulated time, so later schedules are
                // relative to the new now — the engine-loop access pattern.
                if let Some((t, _)) = w {
                    now = t;
                }
            }
            assert_eq!(wheel.len(), heap.len(), "seed {seed}");
        }
        // Drain both to the end: the tails agree too.
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h, "seed {seed}: tails diverged");
            if w.is_none() {
                break;
            }
        }
    }
}

/// Same-instant bursts pop FIFO on the wheel, exactly like the heap:
/// the sequence counter is global to the wheel's lifetime, so events
/// scheduled for one instant across pop boundaries still come out in
/// insertion order.
#[test]
fn timing_wheel_same_instant_fifo_bursts() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xF1F0);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let t = SimTime::from_nanos(rng.below(1_000_000));
        for id in 0..64u64 {
            wheel.schedule(t, id);
        }
        // Interleave: pop half, then schedule more at the same instant.
        for id in 0..32u64 {
            assert_eq!(wheel.pop(), Some((t, id)), "seed {seed}");
        }
        for id in 64..96u64 {
            wheel.schedule(t, id);
        }
        for id in 32..96u64 {
            assert_eq!(wheel.pop(), Some((t, id)), "seed {seed}");
        }
        assert!(wheel.is_empty());
    }
}

/// Far-future events survive overflow promotion with their order intact:
/// schedule a cluster far beyond the wheel horizon, chew through nearer
/// work, and the far cluster still pops in (time, insertion) order.
#[test]
fn timing_wheel_far_future_promotion_preserves_order() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xFA2);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        // A far cluster: deliberately includes duplicate times.
        for id in 0..100u64 {
            let t = 1_000_000_000 + rng.below(50) * 1_000_000;
            wheel.schedule(SimTime::from_nanos(t), id);
            expect.push((t, id));
        }
        // Near work that forces the wheel to rotate toward the horizon.
        for id in 100..400u64 {
            let t = rng.below(900_000_000);
            wheel.schedule(SimTime::from_nanos(t), id);
            expect.push((t, id));
        }
        expect.sort(); // (time, id); id order == insertion order
        let mut got = Vec::new();
        while let Some((t, id)) = wheel.pop() {
            got.push((t.as_nanos(), id));
        }
        assert_eq!(got, expect, "seed {seed}");
    }
}

/// A `peek_time`-guarded `pop` and `pop_same_instant` agree with the
/// plain pop-loop semantics the engine loops rely on: popping while
/// `peek_time() < t` yields exactly the events strictly before `t`, and
/// `pop_same_instant` drains exactly one instant's FIFO batch.
#[test]
fn timing_wheel_conditional_pops_match_reference() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xC0DE);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut reference: EventQueue<u64> = EventQueue::new();
        for id in 0..300u64 {
            let t = SimTime::from_nanos(rng.below(64)); // dense ties
            wheel.schedule(t, id);
            reference.schedule(t, id);
        }
        let cutoff = SimTime::from_nanos(32);
        // Drain [0, cutoff) via peek_time-guarded pops.
        while wheel.peek_time().is_some_and(|t| t < cutoff) {
            let (t, id) = wheel.pop().expect("peek_time saw a pending event");
            assert!(t < cutoff, "seed {seed}: popped event at/after cutoff");
            assert_eq!(Some((t, id)), reference.pop(), "seed {seed}");
        }
        assert!(wheel.peek_time().is_none_or(|t| t >= cutoff));
        // Drain the rest one instant at a time via pop_same_instant.
        let mut batch = Vec::new();
        while let Some(t) = wheel.pop_same_instant(&mut batch) {
            for &id in &batch {
                assert_eq!(Some((t, id)), reference.pop(), "seed {seed}");
            }
            batch.clear();
        }
        assert!(reference.pop().is_none(), "seed {seed}: wheel lost events");
    }
}

/// `schedule_keyed` orders equal-time events by key (the NVMe cid
/// tie-break), falling back to insertion order on equal keys.
#[test]
fn timing_wheel_keyed_ties_order_by_key() {
    let mut wheel: TimingWheel<&'static str> = TimingWheel::new();
    let t = SimTime::from_nanos(77);
    wheel.schedule_keyed(t, 30, "c");
    wheel.schedule_keyed(t, 10, "a");
    wheel.schedule_keyed(t, 20, "b");
    wheel.schedule_keyed(t, 10, "a2"); // equal key: insertion order
    assert_eq!(wheel.pop(), Some((t, "a")));
    assert_eq!(wheel.pop(), Some((t, "a2")));
    assert_eq!(wheel.pop(), Some((t, "b")));
    assert_eq!(wheel.pop(), Some((t, "c")));
    assert_eq!(wheel.pop(), None);
}

/// Timelines serve FIFO: completions are monotone, never start before the
/// request arrives, and busy time equals the sum of durations.
#[test]
fn timeline_fifo_invariants() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let n = 1 + rng.below(199);
        let mut arrivals: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.below(10_000), 1 + rng.below(499)))
            .collect();
        arrivals.sort_by_key(|r| r.0); // submit in arrival order
        let mut tl = Timeline::new();
        let mut last_end = SimTime::ZERO;
        let mut total = 0u64;
        for &(at, dur) in &arrivals {
            let slot = tl.reserve(SimTime::from_nanos(at), SimDuration::from_nanos(dur));
            assert!(slot.start >= SimTime::from_nanos(at));
            assert!(slot.start >= last_end);
            assert_eq!(slot.end - slot.start, SimDuration::from_nanos(dur));
            last_end = slot.end;
            total += dur;
        }
        assert_eq!(tl.busy_time().as_nanos(), total, "seed {seed}");
    }
}

/// Priority reservations never finish after "waiting like normal work"
/// would, and normal work is pushed back by at most dur + resume cost.
#[test]
fn priority_reservation_bounds() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let base = 1 + rng.below(999);
            let arrive = rng.below(800);
            let dur = 1 + rng.below(199);
            let mut tl = Timeline::new();
            tl.reserve(SimTime::ZERO, SimDuration::from_nanos(base));
            let before = tl.busy_until();
            let sus = SimDuration::from_nanos(5);
            let res = SimDuration::from_nanos(7);
            let slot = tl.reserve_priority(
                SimTime::from_nanos(arrive),
                SimDuration::from_nanos(dur),
                sus,
                res,
            );
            // FIFO alternative would start at max(arrive, base).
            let fifo_start = arrive.max(base);
            assert!(slot.start.as_nanos() <= fifo_start + sus.as_nanos());
            // Normal work resumes no later than the resume penalty after the
            // later of (its own old end, the priority slot's end).
            assert!(tl.busy_until() <= before.max(slot.end) + res);
        }
    }
}

/// The FTL keeps L2P exact under arbitrary overwrite streams: every written
/// lpn resolves, and unwritten lpns never do.
#[test]
fn ftl_mapping_is_exact_under_overwrites() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let ops = vec_u64(&mut rng, 1, 600, 0, 48);
        let gc = GcPolicy {
            low_watermark: 2,
            units_per_host_write: 4,
            parallel: false,
        };
        // 2 lanes x 12 blocks x 8 units = 192 physical for 48 logical.
        let mut ftl = Ftl::new(2, 12, 8, gc);
        let mut written = std::collections::BTreeSet::new();
        for &lpn in &ops {
            ftl.append(lpn);
            written.insert(lpn);
        }
        for &lpn in &written {
            assert!(
                ftl.lookup(lpn).is_some(),
                "seed {seed}: lost mapping for {lpn}"
            );
        }
        for lpn in 0..48u64 {
            if !written.contains(&lpn) {
                assert!(ftl.lookup(lpn).is_none());
            }
        }
    }
}

/// NVMe submission rings deliver commands FIFO with exact contents under
/// arbitrary interleavings of pushes and pops.
#[test]
fn sq_ring_matches_model() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let ops = vec_bool(&mut rng, 1, 300);
        let mut sq = SubmissionQueue::new(8);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u16;
        for &push in &ops {
            if push {
                let cmd = NvmeCommand::read(next, next as u64 * 4096, 4096);
                match sq.push(cmd) {
                    Ok(()) => {
                        model.push_back(cmd);
                        next = next.wrapping_add(1);
                    }
                    Err(_) => assert_eq!(model.len(), 7), // size-1 capacity
                }
            } else {
                assert_eq!(sq.pop(), model.pop_front());
            }
            assert_eq!(sq.len() as usize, model.len());
        }
    }
}

/// Completion rings never deliver an entry twice nor invent one, across
/// arbitrary post/consume interleavings (phase-tag correctness).
#[test]
fn cq_phase_tags_exact() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let ops = vec_bool(&mut rng, 1, 400);
        let mut cq = CompletionQueue::new(5);
        let mut posted = std::collections::VecDeque::new();
        let mut next = 0u16;
        for &post in &ops {
            if post {
                if cq.post(next, 0, true).is_ok() {
                    posted.push_back(next);
                    next = next.wrapping_add(1);
                }
            } else {
                match cq.peek() {
                    Some(c) => {
                        assert_eq!(Some(c.cid), posted.pop_front());
                        cq.advance();
                    }
                    None => assert!(posted.is_empty()),
                }
            }
        }
    }
}

/// The write buffer never admits more units than its capacity before the
/// corresponding releases, and admission times are monotone per arrival
/// order.
#[test]
fn write_buffer_conserves_slots() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let cap = 1 + rng.below(31) as u32;
        let prog_ns = vec_u64(&mut rng, 1, 200, 1, 5000);
        let mut buf = WriteBuffer::new(cap);
        let mut admitted_before_release = 0u64;
        let mut last_admit = SimTime::ZERO;
        for (i, &p) in prog_ns.iter().enumerate() {
            let at = SimTime::from_nanos(i as u64 * 10);
            let admit = buf.admit(at, i as u64);
            assert!(admit >= at, "admission cannot precede arrival");
            assert!(
                admit >= last_admit || admit >= at,
                "admission times regress"
            );
            last_admit = admit;
            buf.retire(i as u64, admit + SimDuration::from_nanos(p));
            admitted_before_release += 1;
        }
        assert_eq!(buf.admitted(), admitted_before_release);
        assert!(buf.in_flight() <= prog_ns.len());
    }
}

/// `WriteBuffer` as the device model first specified it, written the slow
/// obvious way: a sorted list of release instants, and a resident map that
/// takes a provisional never-ending entry at every admit and is swept of
/// ended entries every 4,096 admits.
struct RefWriteBuffer {
    capacity: usize,
    releases: Vec<u64>,
    resident: std::collections::BTreeMap<u64, u64>,
    admitted: u64,
}

impl RefWriteBuffer {
    fn admit(&mut self, at: u64, lpn: u64) -> u64 {
        self.admitted += 1;
        let admitted_at = if self.releases.len() < self.capacity {
            at
        } else {
            at.max(self.releases.remove(0))
        };
        self.resident.insert(lpn, u64::MAX);
        if self.admitted.is_multiple_of(4096) {
            self.resident
                .retain(|_, &mut until| until == u64::MAX || until > admitted_at);
        }
        admitted_at
    }

    fn retire(&mut self, lpn: u64, program_end: u64) {
        let i = self.releases.partition_point(|&r| r <= program_end);
        self.releases.insert(i, program_end);
        self.resident.insert(lpn, program_end);
    }

    fn holds(&self, lpn: u64, at: u64) -> bool {
        self.resident.get(&lpn).is_some_and(|&until| at < until)
    }
}

/// `WriteBuffer` (release heap, resident table, periodic sweep) makes the
/// same admit decisions and `holds` answers as the reference model under
/// seeded random admit/retire/holds interleavings, with program ends out
/// of order and enough admits that the full-buffer pop and three sweeps
/// fire. `admit_slot` followed at once by `retire` — the single-unit-row
/// write path — must match the reference's `admit` + `retire`.
///
/// Each seed runs two shapes. The narrow one (lpns below 64, at most 64
/// slots) overwrites and re-queries the same entries constantly. The wide
/// one (lpns below 2^20 plus `0` and `u64::MAX`, up to 8,192 slots) makes
/// the resident table grow, its probes collide, and its sweeps rebuild it
/// around many live entries.
#[test]
fn write_buffer_matches_reference() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0x3B0F);
        let cap = 1 + rng.below(64) as u32;
        check_write_buffer(seed, &mut rng, cap, 100_000, 12_500, |rng| rng.below(64));
        let mut rng = SplitMix64::new(seed ^ 0x71DE);
        let cap = 1 + rng.below(8192) as u32;
        // Programs long enough that the buffer fills at any capacity.
        let program_ns = u64::from(cap) * 2_000;
        check_write_buffer(seed, &mut rng, cap, program_ns, 25_000, |rng| {
            match rng.below(16) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.below(1 << 20),
            }
        });
    }
}

/// Drives a `cap`-slot `WriteBuffer` and the reference through
/// `admits_target` random admits, with programs of up to `program_ns`
/// and lpns drawn from `lpn_of`.
fn check_write_buffer(
    seed: u64,
    rng: &mut SplitMix64,
    cap: u32,
    program_ns: u64,
    admits_target: u64,
    lpn_of: impl Fn(&mut SplitMix64) -> u64,
) {
    let mut buf = WriteBuffer::new(cap);
    let mut reference = RefWriteBuffer {
        capacity: cap as usize,
        releases: Vec::new(),
        resident: std::collections::BTreeMap::new(),
        admitted: 0,
    };
    // Units admitted through `admit` and not yet retired.
    let mut pending: Vec<(u64, u64)> = Vec::new();
    let mut clock = 0u64;
    let (mut pops, mut admits) = (0u64, 0u64);
    let mut answers = [0u64; 2];
    while admits < admits_target {
        clock += rng.below(300);
        let lpn = lpn_of(rng);
        match rng.below(8) {
            0..=1 => {
                let want = reference.admit(clock, lpn);
                let got = buf.admit(SimTime::from_nanos(clock), lpn).as_nanos();
                assert_eq!(got, want, "seed {seed}: admit {admits}");
                pops += u64::from(want > clock);
                admits += 1;
                clock = want;
                pending.push((lpn, want));
            }
            2 => {
                let want = reference.admit(clock, lpn);
                let got = buf.admit_slot(SimTime::from_nanos(clock)).as_nanos();
                assert_eq!(got, want, "seed {seed}: admit_slot {admits}");
                pops += u64::from(want > clock);
                admits += 1;
                clock = want;
                let end = want + 1 + rng.below(program_ns);
                reference.retire(lpn, end);
                buf.retire(lpn, SimTime::from_nanos(end));
            }
            3..=4 if !pending.is_empty() => {
                let (lpn, admitted_at) =
                    pending.swap_remove(rng.below(pending.len() as u64) as usize);
                let end = admitted_at + 1 + rng.below(program_ns);
                reference.retire(lpn, end);
                buf.retire(lpn, SimTime::from_nanos(end));
            }
            _ => {
                // Half the queries target a unit still awaiting retire.
                let lpn = if !pending.is_empty() && rng.chance(0.5) {
                    pending[rng.below(pending.len() as u64) as usize].0
                } else {
                    lpn
                };
                let at = (clock + rng.below(program_ns + program_ns / 10))
                    .saturating_sub(program_ns / 10);
                let want = reference.holds(lpn, at);
                assert_eq!(
                    buf.holds(lpn, SimTime::from_nanos(at)),
                    want,
                    "seed {seed}: holds({lpn}, {at}) after {admits} admits (cap {cap})"
                );
                answers[usize::from(want)] += 1;
            }
        }
    }
    assert!(pops > 0, "seed {seed}: the buffer never filled (cap {cap})");
    assert!(answers.iter().all(|&n| n > 0), "seed {seed}: {answers:?}");
    assert_eq!(buf.admitted(), reference.admitted);
    assert_eq!(buf.in_flight(), reference.releases.len());
}

/// Request splitting always covers the byte range exactly, contiguously and
/// within the limit.
#[test]
fn split_request_partitions_exactly() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..64 {
            let offset = rng.below(1_000_000);
            let len = 1 + rng.below(3_999_999) as u32;
            let max = 1 + rng.below(299_999) as u32;
            let parts = split_request(offset, len, max);
            assert_eq!(parts[0].0, offset);
            let mut expect = offset;
            let mut total = 0u64;
            for &(o, l) in &parts {
                assert_eq!(o, expect, "non-contiguous split");
                assert!(l >= 1 && l <= max);
                expect = o + l as u64;
                total += l as u64;
            }
            assert_eq!(total, len as u64);
        }
    }
}

/// The remap checker stays injective no matter which blocks die.
#[test]
fn remap_checker_injective() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let bad: std::collections::BTreeSet<u32> =
            (0..rng.below(16)).map(|_| rng.below(64) as u32).collect();
        let mut r = RemapChecker::new(64, 16);
        for &b in &bad {
            r.retire(b)
                .expect("spares cover at most 16 distinct bad blocks");
        }
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..64 {
            assert!(
                seen.insert(r.resolve(v).expect("in range")),
                "seed {seed}: collision at {v}"
            );
        }
    }
}

/// Valid-unit conservation under heavy GC churn (deterministic, heavier
/// than the randomized cases).
#[test]
fn ftl_conserves_valid_units_under_churn() {
    let gc = GcPolicy {
        low_watermark: 2,
        units_per_host_write: 4,
        parallel: false,
    };
    let mut ftl = Ftl::new(4, 16, 8, gc);
    let logical = 256u64;
    let mut x = 0x12345u64;
    for _ in 0..20_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ftl.append((x >> 33) % logical);
    }
    for lpn in 0..logical {
        let ppa = ftl
            .lookup(lpn)
            .expect("all lpns written at least once eventually");
        assert!(ppa.lane <= LaneId(3));
    }
    assert!(ftl.migrated_units() > 0);
}

/// Under a hostile NVMe timeout lottery, synchronous completions to the
/// same LBA never reorder: control returns to the application at
/// monotonically nondecreasing sim times even while the host aborts,
/// retries with backoff, and occasionally resets the controller
/// mid-request.
#[test]
fn same_lba_completions_never_reorder_under_timeouts() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xFA);
        let mut h = host(Device::Ull, IoPath::KernelInterrupt);
        let mut plan = FaultPlan::uniform(seed, 0.0);
        plan.nvme_timeout_prob = 0.3;
        h.set_fault_plan(&plan);
        let mut t = SimTime::ZERO;
        let mut last_visible = SimTime::ZERO;
        for i in 0..200u64 {
            let op = if rng.chance(0.5) {
                IoOp::Read
            } else {
                IoOp::Write
            };
            // Occasionally a large I/O that splits into several NVMe
            // commands — the interesting case, since any one part can
            // be timed out, retried, or destroyed by a reset.
            let len = if rng.chance(0.2) { 512 << 10 } else { 4096 };
            let r = h.io_sync(op, 0, len, t);
            assert_eq!(r.submitted, t, "seed {seed} io {i}");
            assert_eq!(
                r.latency,
                r.user_visible - r.submitted,
                "seed {seed} io {i}"
            );
            assert!(
                r.user_visible >= last_visible,
                "seed {seed}: io {i} completed before its predecessor"
            );
            last_visible = r.user_visible;
            t = r.user_visible + SimDuration::from_nanos(rng.below(2_000));
        }
        let c = h.nvme_fault_counters();
        assert!(c.injected_timeouts > 0, "seed {seed}: lottery never fired");
        assert_eq!(c.aborts, c.injected_timeouts, "seed {seed}");
    }
}

/// Program-fail recovery preserves read-after-write: the lpn whose
/// program failed resolves to the freshly re-appended copy, and no
/// other live mapping is lost — regardless of whether the failing
/// block was retired immediately or retirement was deferred.
#[test]
fn program_fail_recovery_preserves_raw_mapping() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0x9F);
        let gc = GcPolicy {
            low_watermark: 2,
            units_per_host_write: 4,
            parallel: false,
        };
        // Plenty of spares, so retirements remap instead of silently
        // bleeding capacity into a GC deadlock over the long run.
        let wear = WearConfig {
            per_erase_prob: 0.0,
            remap_enabled: true,
            spares_per_lane: 64,
            seed,
        };
        let mut ftl = Ftl::new(2, 24, 8, gc).with_wear(wear, 1);
        let mut written = std::collections::BTreeSet::new();
        for i in 0..400u64 {
            let lpn = rng.below(48);
            let (placement, _gc) = ftl.append(lpn);
            written.insert(lpn);
            if rng.chance(0.06) {
                let r = ftl.recover_program_fail(placement.ppa, lpn);
                assert_eq!(
                    ftl.lookup(lpn),
                    Some(r.new_ppa),
                    "seed {seed} op {i}: read-after-write lost"
                );
                assert!(
                    !(r.remapped && r.marked_bad),
                    "retirement is remap XOR capacity loss"
                );
                if r.deferred {
                    assert!(!r.remapped && !r.marked_bad);
                }
            }
            for &l in &written {
                assert!(ftl.lookup(l).is_some(), "seed {seed} op {i}: lost lpn {l}");
            }
        }
    }
}

/// Every injected fault is accounted for by exactly one recovery path:
/// the cross-layer counter equalities hold at every seed, for the host
/// stack (flash + FTL + NVMe) and for the NBD export path.
#[test]
fn fault_accounting_totals_match_injections() {
    for seed in SEEDS {
        let mut h = host(Device::Ull, IoPath::KernelInterrupt);
        h.set_fault_plan(&FaultPlan::uniform(seed, 2e-3));
        let spec = JobSpec::new("acct")
            .pattern(Pattern::Random)
            .read_fraction(0.7)
            .block_size(4096)
            .ios(4_000)
            .seed(seed ^ 0xACC7);
        let _ = run_job(&mut h, &spec);
        let (flash, rec) = h.controller().ssd().fault_counters();
        let nvme = h.nvme_fault_counters();
        // Every lost completion was detected by exactly one abort.
        assert_eq!(nvme.aborts, nvme.injected_timeouts, "seed {seed}");
        // Every program failure led to a retirement or a counted deferral.
        assert_eq!(
            rec.retired_blocks + rec.deferred_retirements,
            flash.program_failures,
            "seed {seed}"
        );
        // Every retirement was absorbed by a spare or shrank capacity.
        assert_eq!(
            rec.remapped + rec.marked_bad,
            rec.retired_blocks,
            "seed {seed}"
        );
        // Every marginal read took at least one retry step.
        assert!(flash.read_retry_steps >= flash.read_marginal_events);
        let rep = FaultReport {
            flash,
            ssd: rec,
            nvme,
            nbd: Default::default(),
        };
        assert_eq!(
            rep.injected_total(),
            flash.read_marginal_events + flash.program_failures + nvme.injected_timeouts,
            "seed {seed}"
        );
        assert!(
            rep.injected_total() > 0,
            "seed {seed}: 2e-3 over 4k ios must fire"
        );
    }
    // The NBD link lottery: drops, reconnects and replays stay equal.
    for seed in SEEDS {
        let mut sys =
            NbdSystem::new(presets::ull_800g(), NbdServerKind::Spdk, seed).expect("valid preset");
        let mut plan = FaultPlan::uniform(seed ^ 0xB, 0.0);
        plan.nbd_drop_prob = 0.05;
        sys.set_fault_plan(&plan);
        let mut t = SimTime::ZERO;
        for k in 0..500u64 {
            let r = sys.file_read(t, k.wrapping_mul(2654435761), 4096);
            t = r.done;
        }
        let c = sys.nbd_fault_counters();
        assert!(c.link_drops > 0, "seed {seed}: link lottery never fired");
        assert_eq!(c.link_drops, c.reconnects, "seed {seed}");
        assert_eq!(c.reconnects, c.replayed_commands, "seed {seed}");
    }
}

/// The probe's accounting identity `sum(stages) == end_to_end` holds for
/// every request even while the fault machinery aborts, retries with
/// backoff, resets the controller, and re-executes commands — at every
/// seed, with every fault class firing (rates > 0). Recovery waits are
/// charged to real stages (SQ wait, completion delivery), never dropped
/// on the floor, so the attribution stays exact under the ugliest runs.
#[test]
fn probe_accounting_tiles_exactly_under_faults() {
    use ull_ssd_study::probe::ProbeConfig;

    for seed in SEEDS {
        let mut host = host(Device::Ull, IoPath::KernelInterrupt);
        let mut plan = FaultPlan::uniform(seed, 0.0);
        plan.nvme_timeout_prob = 0.05;
        plan.flash_read_marginal_prob = 0.05;
        plan.program_fail_prob = 0.02;
        host.set_fault_plan(&plan);
        host.enable_probe(ProbeConfig::default());
        let spec = JobSpec::new("probe-under-faults")
            .pattern(Pattern::Random)
            .read_fraction(0.6)
            .ios(1_500)
            .seed(seed ^ 0xFA_575);
        let job = run_job(&mut host, &spec);
        let probe = host.take_probe().expect("probe was enabled");
        assert!(
            probe.metrics.accounting_exact(),
            "seed {seed}: sum(stages) != end_to_end under faults"
        );
        assert_eq!(
            probe.metrics.ios(),
            job.completed,
            "seed {seed}: probe lost or invented requests"
        );
        let (flash, _rec) = host.controller().ssd().fault_counters();
        let injected = host.nvme_fault_counters().injected_timeouts
            + flash.read_marginal_events
            + flash.program_failures;
        assert!(
            injected > 0,
            "seed {seed}: fault lottery never fired — test is vacuous"
        );
    }
}

/// An extreme value for one `SsdConfig` field. Integer fields read `Nan`
/// as half their range (a large power of two); booleans flip whatever the
/// extreme.
#[derive(Clone, Copy, Debug)]
enum Extreme {
    Zero,
    One,
    Max,
    Nan,
}

impl Extreme {
    const ALL: [Extreme; 4] = [Extreme::Zero, Extreme::One, Extreme::Max, Extreme::Nan];

    fn u32(self) -> u32 {
        match self {
            Extreme::Zero => 0,
            Extreme::One => 1,
            Extreme::Max => u32::MAX,
            Extreme::Nan => 1 << 31,
        }
    }

    fn u64(self) -> u64 {
        match self {
            Extreme::Zero => 0,
            Extreme::One => 1,
            Extreme::Max => u64::MAX,
            Extreme::Nan => 1 << 63,
        }
    }

    fn f64(self) -> f64 {
        match self {
            Extreme::Zero => 0.0,
            Extreme::One => 1.0,
            Extreme::Max => f64::MAX,
            Extreme::Nan => f64::NAN,
        }
    }

    fn ns(self) -> SimDuration {
        SimDuration::from_nanos(self.u64())
    }
}

/// Number of fields [`perturb`] can set.
const CONFIG_FIELDS: usize = 46;

/// Sets field number `field` of `cfg`, nested ones included, to `x`.
fn perturb(cfg: &mut SsdConfig, field: usize, x: Extreme) {
    match field {
        0 => cfg.channels = x.u32(),
        1 => cfg.ways = x.u32(),
        2 => cfg.super_channel = !cfg.super_channel,
        3 => cfg.split_dma = !cfg.split_dma,
        4 => cfg.suspend_resume = !cfg.suspend_resume,
        5 => cfg.planes = x.u32(),
        6 => cfg.channel_mbps = x.u32(),
        7 => cfg.channel_setup = x.ns(),
        8 => cfg.pcie_mbps = x.u32(),
        9 => cfg.controller_read = x.ns(),
        10 => cfg.controller_write = x.ns(),
        11 => cfg.controller_per_op = x.ns(),
        12 => cfg.capacity_bytes = x.u64(),
        13 => {
            cfg.pages_per_block_override = match x {
                Extreme::Nan => None,
                _ => Some(x.u32()),
            }
        }
        14 => cfg.overprovision = x.f64(),
        15 => cfg.write_buffer_units = x.u32(),
        16 => cfg.row_flush_timeout = x.ns(),
        17 => cfg.read_cache.seq_hit_prob = x.f64(),
        18 => cfg.read_cache.rnd_hit_prob = x.f64(),
        19 => cfg.read_cache.hit_latency = x.ns(),
        20 => cfg.gc.low_watermark = x.u32(),
        21 => cfg.gc.units_per_host_write = x.u32(),
        22 => cfg.gc.parallel = !cfg.gc.parallel,
        23 => cfg.wear.per_erase_prob = x.f64(),
        24 => cfg.wear.remap_enabled = !cfg.wear.remap_enabled,
        25 => cfg.wear.spares_per_lane = x.u32(),
        26 => cfg.wear.seed = x.u64(),
        27 => cfg.read_tail.probability = x.f64(),
        28 => cfg.read_tail.delay = x.ns(),
        29 => cfg.write_tail.probability = x.f64(),
        30 => cfg.write_tail.delay = x.ns(),
        31 => cfg.power.idle_w = x.f64(),
        32 => cfg.power.host_read_nj = x.f64(),
        33 => cfg.power.host_write_nj = x.f64(),
        34 => cfg.power.gc_unit_nj = x.f64(),
        35 => cfg.seed = x.u64(),
        36 => cfg.flash.layers = x.u32(),
        37 => cfg.flash.t_read = x.ns(),
        38 => cfg.flash.t_prog = x.ns(),
        39 => cfg.flash.t_erase = x.ns(),
        40 => cfg.flash.page_size = x.u32(),
        41 => cfg.flash.pages_per_block = x.u32(),
        42 => cfg.flash.die_capacity_gbit = x.u32(),
        43 => cfg.flash.program_suspend = !cfg.flash.program_suspend,
        44 => cfg.flash.suspend_latency = x.ns(),
        45 => cfg.flash.resume_latency = x.ns(),
        _ => unreachable!("no config field {field}"),
    }
}

/// Runs `Ssd::new` on `cfg` and, if it builds a device, one read and one
/// write. `Err` if anything panicked, else whether a device was built.
fn try_config(cfg: SsdConfig) -> std::thread::Result<bool> {
    std::panic::catch_unwind(|| {
        let Ok(mut ssd) = Ssd::new(cfg) else {
            return false;
        };
        ssd.read(SimTime::ZERO, 0, 4096);
        ssd.write(SimTime::ZERO, 0, 4096);
        true
    })
}

/// No `SsdConfig` panics the device: every preset field at 0, 1, its
/// maximum and NaN, alone and in seeded combinations of two to four
/// fields, makes `Ssd::new` return a `ConfigError` or a working device.
#[test]
fn ssd_config_extremes_never_panic() {
    let presets = [presets::ull_800g(), presets::nvme750()];
    let (mut panicked, mut built) = (Vec::new(), 0);
    let mut run = |cfg, what: String| match try_config(cfg) {
        Ok(ok) => built += usize::from(ok),
        Err(_) => panicked.push(what),
    };
    for base in &presets {
        for field in 0..CONFIG_FIELDS {
            for x in Extreme::ALL {
                let mut cfg = base.clone();
                perturb(&mut cfg, field, x);
                run(cfg, format!("{}: field {field} = {x:?}", base.name));
            }
        }
    }
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xC0F1);
        for _ in 0..32 {
            let base = &presets[rng.below(2) as usize];
            let mut cfg = base.clone();
            let mut what = base.name.to_string();
            for _ in 0..2 + rng.below(3) {
                let field = rng.below(CONFIG_FIELDS as u64) as usize;
                let x = Extreme::ALL[rng.below(4) as usize];
                perturb(&mut cfg, field, x);
                what += &format!(", field {field} = {x:?}");
            }
            run(cfg, format!("seed {seed}: {what}"));
        }
    }
    assert!(panicked.is_empty(), "panicked on:\n{}", panicked.join("\n"));
    // Most single-field extremes still describe a working device.
    assert!(built > 200, "only {built} configurations built a device");
}
