//! Conservative parallel DES: one world, many wheels, byte-identical
//! at any shard count.
//!
//! A [`ShardedWorld`] partitions a set of [`Component`] actors across
//! `n` physical shards (actor `a` lives on shard `a % n`), each with
//! its own [`TimingWheel`]. Simulation proceeds in windows: with
//! `T` the earliest pending instant anywhere and `L` the world's
//! [`Lookahead`], every shard drains `[T, T + L)` concurrently, then a
//! barrier exchanges the cross-shard events emitted during the window.
//! The window is safe because the [`Scheduler`](crate::Scheduler)
//! floors every cross-actor send to `now + L >= T + L` — no event can
//! arrive inside the window being drained (the null-message argument
//! of conservative synchronization, with the null messages implicit in
//! the barrier).
//!
//! # Why the bytes cannot change with the shard count
//!
//! Every event in a shard's wheel carries a tie-break key that is a
//! pure function of *logical* identities, never of wheel insertion
//! order (which does vary with the shard count):
//!
//! * cross-actor events are keyed `(src actor, per-source send seq)` —
//!   delivery order at any destination is ascending
//!   `(time, src, seq)`, the `(time, shard, seq)` merge key with the
//!   logical shard = [`ActorId`];
//! * an actor's own events are keyed by a per-actor counter (or the
//!   caller's key), namespaced above every cross-actor key, so "my own
//!   follow-ups after my arrivals" holds at every shard count.
//!
//! Same-instant ties *between different actors* are the only place
//! physical placement can reorder dispatch, and those commute: actors
//! share no state, and anything they emit is either keyed as above or
//! floored beyond the window. Each actor therefore sees exactly the
//! same event sequence whatever the shard count, so the merged output
//! (actors read out in [`ActorId`] order) is byte-identical.
//! `docs/SHARDING.md` gives the full proof sketch.

use crate::component::{ActorId, Component, EventSink, Scheduler};
use crate::lookahead::Lookahead;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// Key namespace bit for an actor's own (local) events: every local
/// key sorts above every cross-actor key, so arrivals dispatch before
/// same-instant local follow-ups at any shard count.
const LOCAL_KEY_BIT: u64 = 1 << 63;

/// Packs the shard-count-invariant tie-break key of a cross-actor
/// event: ascending `(src, seq)` under a single `u64` compare.
fn remote_key(src: ActorId, seq: u64) -> u64 {
    (u64::from(src.0) << 32) | (seq & 0xFFFF_FFFF)
}

/// One timestamped event crossing (or queued within) a shard: the wire
/// format of the inter-shard channels.
///
/// `seq` is the per-source emission counter that, with `src`, forms
/// the shard-count-invariant tie-break — the reason this struct can
/// carry a [`SimTime`] and still satisfy simlint's S014 total-order
/// rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEvent<E> {
    /// Delivery instant (already lookahead-floored for cross-actor
    /// sends).
    pub at: SimTime,
    /// Emitting actor.
    pub src: ActorId,
    /// Receiving actor.
    pub dst: ActorId,
    /// Per-source emission sequence number (the `seq` of the
    /// `(time, shard, seq)` merge key).
    pub seq: u64,
    /// The component-level event.
    pub payload: E,
}

/// One cross-actor delivery, as observed by the receiving actor — the
/// record the `(time, shard, seq)` total-order property test audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Delivery {
    /// Delivery instant.
    pub at: SimTime,
    /// Emitting actor.
    pub src: ActorId,
    /// Per-source emission sequence number.
    pub seq: u64,
}

/// One actor resident on a shard, with the per-actor counters that
/// make its keys placement-invariant.
struct ActorSlot<C> {
    id: ActorId,
    component: C,
    /// FIFO counter for the actor's own (unkeyed) schedules.
    local_seq: u64,
    /// Emission counter for cross-actor sends.
    send_seq: u64,
    /// Cross-actor arrivals, in dispatch order.
    log: Vec<Delivery>,
}

/// One physical shard: a wheel, its resident actors, and the outbox
/// drained at every window barrier.
struct Shard<C: Component> {
    index: u32,
    actors: Vec<ActorSlot<C>>,
    wheel: TimingWheel<ShardEvent<C::Event>>,
    outbox: Vec<ShardEvent<C::Event>>,
    batch: Vec<ShardEvent<C::Event>>,
    halted: bool,
}

/// Routes a dispatching actor's emissions: own wheel for local (and
/// co-resident) events, the outbox for cross-shard ones.
struct ShardSink<'a, E> {
    wheel: &'a mut TimingWheel<ShardEvent<E>>,
    outbox: &'a mut Vec<ShardEvent<E>>,
    me: ActorId,
    shard_index: u32,
    n_shards: u32,
    local_seq: &'a mut u64,
    send_seq: &'a mut u64,
}

impl<E> EventSink<E> for ShardSink<'_, E> {
    fn local(&mut self, at: SimTime, key: Option<u64>, ev: E) {
        let k = match key {
            Some(k) => k,
            None => {
                let s = *self.local_seq;
                *self.local_seq += 1;
                s
            }
        };
        let e = ShardEvent {
            at,
            src: self.me,
            dst: self.me,
            seq: k,
            payload: ev,
        };
        self.wheel.schedule_keyed(at, LOCAL_KEY_BIT | k, e);
    }

    fn remote(&mut self, dst: ActorId, at: SimTime, ev: E) {
        let seq = *self.send_seq;
        *self.send_seq += 1;
        debug_assert!(seq < u64::from(u32::MAX), "per-source send seq overflow");
        let e = ShardEvent {
            at,
            src: self.me,
            dst,
            seq,
            payload: ev,
        };
        if dst.0 % self.n_shards == self.shard_index {
            // Co-resident destination: same key, same delivery order as
            // the cross-shard path, just without the barrier hop.
            self.wheel.schedule_keyed(at, remote_key(self.me, seq), e);
        } else {
            self.outbox.push(e);
        }
    }
}

impl<C: Component> Shard<C> {
    /// Drains every instant strictly before `bound`, dispatching each
    /// event to its resident actor through [`Component::on_event`].
    /// Emissions flow through a [`ShardSink`]; a component
    /// [`halt`](Scheduler::halt) stops this window after the current
    /// instant (the remaining events stay pending for the next).
    fn drain_window(&mut self, bound: SimTime, floor: SimDuration, n_shards: u32) {
        self.halted = false;
        // `bound` is exclusive and lookahead is >= 1 ns, so the
        // inclusive drain limit is one nanosecond short of it.
        let limit = SimTime::from_nanos(bound.as_nanos().saturating_sub(1));
        while !self.halted {
            let mut batch = core::mem::take(&mut self.batch);
            let Some(t) = self.wheel.pop_same_instant_until(limit, &mut batch) else {
                self.batch = batch;
                return;
            };
            for ev in batch.drain(..) {
                let dst = ev.dst;
                let slot = &mut self.actors[(dst.0 / n_shards) as usize];
                debug_assert_eq!(slot.id, dst, "round-robin placement out of sync");
                if ev.src != dst {
                    slot.log.push(Delivery {
                        at: t,
                        src: ev.src,
                        seq: ev.seq,
                    });
                }
                let mut sink = ShardSink {
                    wheel: &mut self.wheel,
                    outbox: &mut self.outbox,
                    me: dst,
                    shard_index: self.index,
                    n_shards,
                    local_seq: &mut slot.local_seq,
                    send_seq: &mut slot.send_seq,
                };
                let mut sched = Scheduler {
                    now: t,
                    me: dst,
                    floor,
                    halted: &mut self.halted,
                    sink: &mut sink,
                };
                slot.component.on_event(t, ev.payload, &mut sched);
            }
            self.batch = batch;
        }
    }
}

/// Runs one window's worth of per-shard work. Defined here (token-free)
/// so `ull-simkit` stays thread-free; the parallel implementation lives
/// in `ull-exec`, the one crate allowed to spawn.
pub trait WindowRunner {
    /// Applies `work` to every shard exactly once. Implementations may
    /// run shards in any order or concurrently — shard state is
    /// disjoint and the window protocol makes order immaterial.
    fn run<S: Send>(&mut self, shards: &mut [S], work: impl Fn(usize, &mut S) + Sync);
}

/// The reference [`WindowRunner`]: shards drain one after another on
/// the calling thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialRunner;

impl WindowRunner for SerialRunner {
    fn run<S: Send>(&mut self, shards: &mut [S], work: impl Fn(usize, &mut S) + Sync) {
        for (i, s) in shards.iter_mut().enumerate() {
            work(i, s);
        }
    }
}

/// A world of actors partitioned across shards, synchronized
/// conservatively — the parallel-DES layer of the crate.
///
/// # Examples
///
/// Two actors ping counts back and forth across (potentially) two
/// shards; the exchange is identical however many shards carry it:
///
/// ```
/// use ull_simkit::{
///     ActorId, Component, Lookahead, Scheduler, ShardedWorld, SimDuration, SimTime,
/// };
///
/// struct Pinger {
///     peer: ActorId,
///     got: Vec<u64>,
///     budget: u64,
/// }
///
/// impl Component for Pinger {
///     type Event = u64;
///     fn on_event(&mut self, now: SimTime, n: u64, sched: &mut Scheduler<'_, u64>) {
///         self.got.push(n);
///         if self.budget > 0 {
///             self.budget -= 1;
///             sched.send(self.peer, now, n + 1);
///         }
///     }
/// }
///
/// let run = |shards: usize| {
///     let mk = |peer: u32| Pinger { peer: ActorId(peer), got: Vec::new(), budget: 4 };
///     let mut world = ShardedWorld::new(
///         shards,
///         Lookahead::from_floor(SimDuration::from_micros(5)),
///         vec![mk(1), mk(0)],
///     );
///     world.seed(ActorId(0), |p, sched| sched.send(p.peer, SimTime::ZERO, 0));
///     world.run();
///     world.into_actors().into_iter().map(|p| p.got).collect::<Vec<_>>()
/// };
/// assert_eq!(run(1), run(2));
/// ```
pub struct ShardedWorld<C: Component> {
    shards: Vec<Shard<C>>,
    lookahead: Lookahead,
    n_actors: usize,
    /// Pooled scratch the window barrier rotates shard outboxes
    /// through, so steady-state exchanges allocate nothing.
    exchange_scratch: Vec<ShardEvent<C::Event>>,
}

impl<C: Component> ShardedWorld<C> {
    /// Builds a world of `actors` (actor `i` becomes [`ActorId`]`(i)`)
    /// spread round-robin over `shards` physical shards.
    ///
    /// `shards` is clamped to `[1, actors.len()]`; `lookahead` is the
    /// tightest cross-actor latency floor (see [`Lookahead`]).
    ///
    /// # Panics
    ///
    /// Panics if `actors` is empty or holds `2^31` or more actors (the
    /// key packing reserves the top bit of the 32-bit actor space).
    pub fn new(shards: usize, lookahead: Lookahead, actors: Vec<C>) -> Self {
        assert!(!actors.is_empty(), "a world needs at least one actor");
        assert!(
            actors.len() < (1 << 31),
            "actor ids must fit the 31-bit key space"
        );
        let n_actors = actors.len();
        let n_shards = shards.clamp(1, n_actors);
        let mut world = ShardedWorld {
            shards: (0..n_shards)
                .map(|i| Shard {
                    index: i as u32,
                    actors: Vec::new(),
                    wheel: TimingWheel::new(),
                    outbox: Vec::new(),
                    batch: Vec::new(),
                    halted: false,
                })
                .collect(),
            lookahead,
            n_actors,
            exchange_scratch: Vec::new(),
        };
        for (i, component) in actors.into_iter().enumerate() {
            world.shards[i % n_shards].actors.push(ActorSlot {
                id: ActorId(i as u32),
                component,
                local_seq: 0,
                send_seq: 0,
                log: Vec::new(),
            });
        }
        world
    }

    /// Number of physical shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Runs `f` over `actor`'s component with a [`Scheduler`] pinned to
    /// time zero — the priming hook for closed-loop actors.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is not in the world.
    pub fn seed(&mut self, actor: ActorId, f: impl FnOnce(&mut C, &mut Scheduler<'_, C::Event>)) {
        let n_shards = self.shards.len() as u32;
        assert!((actor.0 as usize) < self.n_actors, "unknown actor");
        let shard = &mut self.shards[(actor.0 % n_shards) as usize];
        let slot = &mut shard.actors[(actor.0 / n_shards) as usize];
        let mut sink = ShardSink {
            wheel: &mut shard.wheel,
            outbox: &mut shard.outbox,
            me: actor,
            shard_index: shard.index,
            n_shards,
            local_seq: &mut slot.local_seq,
            send_seq: &mut slot.send_seq,
        };
        let mut halted = false;
        let mut sched = Scheduler {
            now: SimTime::ZERO,
            me: actor,
            floor: self.lookahead.duration(),
            halted: &mut halted,
            sink: &mut sink,
        };
        f(&mut slot.component, &mut sched);
        // Seeding happens before the first window; route any
        // cross-shard emissions immediately.
        self.exchange();
    }

    /// Runs the world to completion on the calling thread.
    pub fn run(&mut self)
    where
        C: Send,
        C::Event: Send,
    {
        self.run_with(&mut SerialRunner);
    }

    /// Runs the world to completion, draining each window's shards
    /// through `runner` (serial reference or `ull-exec`'s thread pool —
    /// the output is identical either way).
    pub fn run_with(&mut self, runner: &mut impl WindowRunner)
    where
        C: Send,
        C::Event: Send,
    {
        let floor = self.lookahead.duration();
        let n_shards = self.shards.len() as u32;
        loop {
            // `peek_time` only settles the cursor the window's first pop
            // would settle anyway, so it cannot change pop order.
            let horizon = self
                .shards
                .iter_mut()
                .filter_map(|s| s.wheel.peek_time())
                .min();
            let Some(t) = horizon else { break };
            let bound = t + floor;
            runner.run(&mut self.shards, |_, shard| {
                shard.drain_window(bound, floor, n_shards);
            });
            self.exchange();
        }
    }

    /// The window barrier: moves every outbox event into its
    /// destination shard's wheel. Keys are unique per event, so the
    /// insertion order here cannot influence delivery order.
    ///
    /// Each shard's outbox is swapped with a pooled scratch vector and
    /// drained in place, so the vectors rotate between barriers instead
    /// of being freed and regrown every window.
    fn exchange(&mut self) {
        let n_shards = self.shards.len() as u32;
        let mut scratch = core::mem::take(&mut self.exchange_scratch);
        for i in 0..self.shards.len() {
            core::mem::swap(&mut scratch, &mut self.shards[i].outbox);
            for e in scratch.drain(..) {
                let dst = (e.dst.0 % n_shards) as usize;
                let key = remote_key(e.src, e.seq);
                self.shards[dst].wheel.schedule_keyed(e.at, key, e);
            }
        }
        self.exchange_scratch = scratch;
    }

    /// Every actor's cross-actor arrival log, in [`ActorId`] order —
    /// each log ascends in `(time, src, seq)` whatever the shard count
    /// (audited by `tests/sharding.rs`).
    pub fn delivery_logs(&self) -> Vec<Vec<Delivery>> {
        let n_shards = self.shards.len();
        (0..self.n_actors)
            .map(|a| self.shards[a % n_shards].actors[a / n_shards].log.clone())
            .collect()
    }

    /// Consumes the world, returning the actors in [`ActorId`] order —
    /// the deterministic output merge.
    pub fn into_actors(self) -> Vec<C> {
        let mut slots: Vec<Option<C>> = (0..self.n_actors).map(|_| None).collect();
        for shard in self.shards {
            for actor in shard.actors {
                slots[actor.id.0 as usize] = Some(actor.component);
            }
        }
        slots.into_iter().flatten().collect()
    }
}

impl<C: Component> core::fmt::Debug for ShardedWorld<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardedWorld")
            .field("shards", &self.shards.len())
            .field("actors", &self.n_actors)
            .field("lookahead", &self.lookahead)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every arrival and fans messages onward.
    struct Relay {
        peers: Vec<ActorId>,
        got: Vec<(u64, u32, u64)>,
        sends_left: u64,
    }

    impl Component for Relay {
        type Event = u64;
        fn on_event(&mut self, now: SimTime, v: u64, sched: &mut Scheduler<'_, u64>) {
            self.got.push((now.as_nanos(), sched.me().0, v));
            if self.sends_left > 0 {
                self.sends_left -= 1;
                for &p in &self.peers {
                    sched.send(p, now, v + 1);
                }
            }
        }
    }

    fn ring_world(n_actors: u32, shards: usize, sends: u64) -> ShardedWorld<Relay> {
        let actors = (0..n_actors)
            .map(|i| Relay {
                peers: vec![ActorId((i + 1) % n_actors)],
                got: Vec::new(),
                sends_left: sends,
            })
            .collect();
        ShardedWorld::new(
            shards,
            Lookahead::from_floor(SimDuration::from_micros(3)),
            actors,
        )
    }

    /// Per-actor received `(payload, src, seq)` triples.
    type RingHistory = Vec<Vec<(u64, u32, u64)>>;

    fn run_ring(n_actors: u32, shards: usize) -> (RingHistory, Vec<Vec<Delivery>>) {
        let mut w = ring_world(n_actors, shards, 5);
        w.seed(ActorId(0), |r, sched| {
            let p = r.peers[0];
            sched.send(p, SimTime::ZERO, 0);
        });
        w.run();
        let logs = w.delivery_logs();
        (w.into_actors().into_iter().map(|r| r.got).collect(), logs)
    }

    #[test]
    fn ring_is_identical_at_every_shard_count() {
        let reference = run_ring(5, 1);
        for shards in [2, 3, 5, 8] {
            assert_eq!(run_ring(5, shards), reference, "shards={shards}");
        }
    }

    #[test]
    fn shard_count_is_clamped_to_actor_count() {
        let w = ring_world(3, 64, 0);
        assert_eq!(w.shard_count(), 3);
        let w = ring_world(3, 0, 0);
        assert_eq!(w.shard_count(), 1);
    }

    #[test]
    fn sends_are_floored_by_lookahead() {
        let mut w = ring_world(2, 2, 1);
        w.seed(ActorId(0), |_, sched| {
            // Asked for t=0 delivery; the floor pushes it to L.
            sched.send(ActorId(1), SimTime::ZERO, 7);
        });
        w.run();
        let logs = w.delivery_logs();
        assert_eq!(logs[1].len(), 2, "seeded send plus one reply hop");
        assert_eq!(logs[1][0].at, SimTime::ZERO + SimDuration::from_micros(3));
    }

    #[test]
    fn arrivals_dispatch_before_same_instant_local_events() {
        // Actor 1 schedules a local event for instant L; actor 0's
        // seeded send also lands at L. The arrival must win at every
        // shard count (remote keys sort below the local namespace).
        let run = |shards: usize| {
            let mk = |peers: Vec<ActorId>| Relay {
                peers,
                got: Vec::new(),
                sends_left: 0,
            };
            let mut w = ShardedWorld::new(
                shards,
                Lookahead::from_floor(SimDuration::from_micros(3)),
                vec![mk(vec![ActorId(1)]), mk(Vec::new())],
            );
            let l = SimTime::ZERO + SimDuration::from_micros(3);
            w.seed(ActorId(1), move |_, sched| sched.at(l, 999));
            w.seed(ActorId(0), |_, sched| {
                sched.send(ActorId(1), SimTime::ZERO, 7)
            });
            w.run();
            w.into_actors().pop().map(|r| r.got)
        };
        let one = run(1);
        assert_eq!(one, run(2));
        let got = one.expect("actor 1 exists");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].2, 7, "cross-actor arrival dispatches first");
        assert_eq!(got[1].2, 999);
    }
}
