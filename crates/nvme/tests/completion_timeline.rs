//! Differential test of the controller's completion timeline.
//!
//! Seeded random read/write/flush submissions, doorbells at random
//! instants, polls, bare deliveries and occasional queue resets drive an
//! [`NvmeController`] and a reference model side by side: a sorted
//! `Vec<(time, cid)>` of pending completions in front of a bounded FIFO
//! CQ. After every step the two must agree on what was delivered,
//! `in_flight` and `next_completion_at`, and a reset must report the
//! same lost cids in the same order. CQ sizes of 2–8 make head-of-line
//! backpressure fire often; flushes behind writes make several
//! completions share one instant, so the cid tie-break is exercised.

use std::collections::VecDeque;

use ull_nvme::{NvmeCommand, NvmeController};
use ull_simkit::{SimDuration, SimTime, SplitMix64};
use ull_ssd::{presets, Ssd};

/// The reference model of one queue pair's completion side.
struct Model {
    /// Undelivered completions, sorted ascending by `(time, cid)`.
    pending: Vec<(SimTime, u16)>,
    /// Posted but unconsumed CQ entries, oldest first.
    cq: VecDeque<u16>,
    /// CQ capacity: a ring of `size` slots holds `size - 1` entries.
    cq_cap: usize,
    /// Deliveries stopped by a full CQ while a due entry waited.
    backpressured: u64,
    /// Deliveries of an entry whose instant equals the previous one's.
    tied: u64,
}

impl Model {
    fn park(&mut self, at: SimTime, cid: u16) {
        let i = self.pending.partition_point(|&e| e < (at, cid));
        self.pending.insert(i, (at, cid));
    }

    fn deliver_due(&mut self, at: SimTime) {
        let mut last = None;
        while let Some(&(t, cid)) = self.pending.first() {
            if t > at {
                return;
            }
            if self.cq.len() == self.cq_cap {
                self.backpressured += 1;
                return;
            }
            if last == Some(t) {
                self.tied += 1;
            }
            last = Some(t);
            self.pending.remove(0);
            self.cq.push_back(cid);
        }
    }

    fn poll(&mut self, at: SimTime) -> Option<u16> {
        self.deliver_due(at);
        self.cq.pop_front()
    }

    fn in_flight(&self) -> usize {
        self.pending.len() + self.cq.len()
    }

    fn next_completion_at(&self) -> Option<SimTime> {
        self.pending.first().map(|&(t, _)| t)
    }

    /// Returns the lost cids (pending ones, in `(time, cid)` order) and
    /// every cid the reset freed, CQ entries included.
    fn reset(&mut self) -> (Vec<u16>, Vec<u16>) {
        let lost: Vec<u16> = self.pending.drain(..).map(|(_, cid)| cid).collect();
        let mut freed = lost.clone();
        freed.extend(self.cq.drain(..));
        (lost, freed)
    }
}

/// Highest cid handed out; cids are drawn at random from the free ones
/// so that cid order and submission order disagree.
const CIDS: u16 = 48;
/// In-flight cap, counting submitted-but-unrung commands.
const MAX_OUTSTANDING: usize = 24;

/// Runs one seeded episode and returns the model's `(backpressured,
/// tied)` counters.
fn episode(seed: u64, steps: usize) -> (u64, u64) {
    let mut rng = SplitMix64::new(seed);
    let qsize = 2 + rng.below(7) as u16;
    let ssd = Ssd::new(presets::ull_800g()).expect("preset is valid");
    let mut ctrl = NvmeController::new(ssd, 1, qsize);
    let mut model = Model {
        pending: Vec::new(),
        cq: VecDeque::new(),
        cq_cap: usize::from(qsize) - 1,
        backpressured: 0,
        tied: 0,
    };
    let mut free: Vec<u16> = (0..CIDS).collect();
    let mut unrung: Vec<u16> = Vec::new();
    let mut now = SimTime::ZERO;
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step} qsize {qsize} at {now:?}");
        match rng.below(100) {
            0..=39 => {
                let outstanding = model.in_flight() + unrung.len();
                if free.is_empty() || outstanding >= MAX_OUTSTANDING {
                    continue;
                }
                let cid = free.swap_remove(rng.below(free.len() as u64) as usize);
                let offset = rng.below(256) * 4096;
                let len = 4096 * (1 + rng.below(2) as u32);
                let cmd = match rng.below(100) {
                    0..=39 => NvmeCommand::read(cid, offset, len),
                    40..=74 => NvmeCommand::write(cid, offset, len),
                    _ => NvmeCommand::flush(cid),
                };
                match ctrl.submit(0, cmd) {
                    Ok(()) => unrung.push(cid),
                    Err(_) => free.push(cid),
                }
            }
            40..=54 => {
                ctrl.ring_sq_doorbell(0, now);
                for cid in unrung.drain(..) {
                    let done = ctrl.take_detail(0, cid).expect("rung command executed");
                    model.park(done.done, cid);
                }
            }
            55..=79 => {
                let got = ctrl.poll(0, now).map(|c| c.cid);
                assert_eq!(got, model.poll(now), "poll: {ctx}");
                free.extend(got);
            }
            80..=87 => {
                ctrl.deliver_due(0, now);
                model.deliver_due(now);
            }
            88..=89 => {
                let (lost, freed) = model.reset();
                assert_eq!(ctrl.reset_queue(0), lost, "lost cids: {ctx}");
                free.extend(freed);
                // The SQ reset discards submitted-but-unrung commands.
                free.append(&mut unrung);
            }
            _ => {
                // Land exactly on the next completion instant half the
                // time, so `t == at` boundaries are exercised.
                now = match model.next_completion_at() {
                    Some(t) if t > now && rng.chance(0.5) => t,
                    _ => now + SimDuration::from_nanos(rng.below(30_000)),
                };
            }
        }
        assert_eq!(ctrl.in_flight(0), model.in_flight(), "in_flight: {ctx}");
        assert_eq!(
            ctrl.next_completion_at(0),
            model.next_completion_at(),
            "next_completion_at: {ctx}"
        );
    }
    (model.backpressured, model.tied)
}

#[test]
fn completion_timeline_matches_sorted_vec_reference() {
    let (mut backpressured, mut tied) = (0, 0);
    for seed in 0..48 {
        let (b, t) = episode(seed, 600);
        backpressured += b;
        tied += t;
    }
    // The comparison above means little unless both hard cases occur.
    assert!(backpressured > 0, "no CQ backpressure was exercised");
    assert!(tied > 0, "no same-instant completions were exercised");
}
