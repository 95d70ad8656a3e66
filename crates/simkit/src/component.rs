//! The shared component (actor) API every engine loop runs on.
//!
//! Before this module, four crates hand-rolled the same drain loop — pop
//! the earliest event off a private [`TimingWheel`], mutate local state,
//! push follow-up events — in the stack async engine, the NVMe device
//! scheduler, the NBD server and the workload runner/trace replay. The
//! [`Component`] trait names that shape once: a component owns local
//! state, receives timestamped events, and emits follow-ups through a
//! [`Scheduler`] handle instead of touching a wheel directly. The same
//! component then runs unchanged under the single-actor [`Engine`] here
//! or inside a multi-core [`ShardedWorld`](crate::ShardedWorld)
//! (see `docs/SHARDING.md`).
//!
//! # Examples
//!
//! A counter that re-arms itself until it has ticked five times:
//!
//! ```
//! use ull_simkit::{Component, Engine, Scheduler, SimDuration, SimTime};
//!
//! struct Ticker {
//!     ticks: u32,
//! }
//!
//! impl Component for Ticker {
//!     type Event = ();
//!     fn on_event(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<'_, ()>) {
//!         self.ticks += 1;
//!         if self.ticks < 5 {
//!             sched.at(now + SimDuration::from_micros(10), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.with_scheduler(SimTime::ZERO, |sched| sched.at(SimTime::ZERO, ()));
//! let mut t = Ticker { ticks: 0 };
//! engine.run(&mut t);
//! assert_eq!(t.ticks, 5);
//! ```

use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// Identity of one logical actor in a simulated world.
///
/// The id is the *logical shard* of the `(time, shard, seq)` merge key:
/// it is assigned once when the world is built and never changes with
/// the physical shard count, which is what keeps cross-actor event
/// ordering — and therefore every report byte — identical at
/// `--shards 1/2/4/8` (see `docs/SHARDING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

/// Where a [`Scheduler`] routes the events a component emits.
///
/// Dispatched dynamically so one `Scheduler` type serves both the
/// single-actor [`Engine`] (everything lands in its own wheel) and the
/// sharded world (cross-actor sends go to an outbox). The indirection
/// costs one virtual call per emitted event, well below the cost of the
/// wheel insert behind it.
pub(crate) trait EventSink<E> {
    /// Schedule onto the emitting actor's own timeline. `key` is the
    /// caller's tie-break (`None` = FIFO insertion order).
    fn local(&mut self, at: SimTime, key: Option<u64>, ev: E);
    /// Deliver to another actor's timeline (already lookahead-floored
    /// by the [`Scheduler`]).
    fn remote(&mut self, dst: ActorId, at: SimTime, ev: E);
}

impl<E> EventSink<E> for TimingWheel<E> {
    fn local(&mut self, at: SimTime, key: Option<u64>, ev: E) {
        match key {
            Some(k) => self.schedule_keyed(at, k, ev),
            None => self.schedule(at, ev),
        }
    }

    fn remote(&mut self, _dst: ActorId, at: SimTime, ev: E) {
        // Single-actor world: every destination is this wheel.
        self.schedule(at, ev);
    }
}

/// The handle a [`Component`] emits events through.
///
/// Borrowed for the duration of one dispatch; it knows the current
/// instant, the emitting actor, and the world's lookahead floor, and it
/// routes each emission either to the actor's own timeline
/// ([`at`](Self::at)/[`at_keyed`](Self::at_keyed)) or across actors
/// ([`send`](Self::send)).
pub struct Scheduler<'a, E> {
    pub(crate) now: SimTime,
    pub(crate) me: ActorId,
    pub(crate) floor: SimDuration,
    pub(crate) sink: &'a mut dyn EventSink<E>,
}

impl<E> Scheduler<'_, E> {
    /// The instant of the event being dispatched.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The actor this dispatch belongs to.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// The world's cross-actor lookahead floor (zero under a
    /// single-actor [`Engine`]).
    pub fn lookahead(&self) -> SimDuration {
        self.floor
    }

    /// Schedules `ev` on this actor's own timeline at `at`, breaking
    /// same-instant ties by emission order (FIFO).
    pub fn at(&mut self, at: SimTime, ev: E) {
        self.sink.local(at, None, ev);
    }

    /// Schedules `ev` on this actor's own timeline at `at`, breaking
    /// same-instant ties by the caller-supplied `key` (trace replay keys
    /// submissions below completions).
    pub fn at_keyed(&mut self, at: SimTime, key: u64, ev: E) {
        self.sink.local(at, Some(key), ev);
    }

    /// Sends `ev` to actor `dst`.
    ///
    /// Cross-actor sends are floored to `now + lookahead` — the promise
    /// conservative synchronization rests on: no event can arrive
    /// inside the window currently being drained. A send to `self`
    /// is a local FIFO schedule and is not floored.
    pub fn send(&mut self, dst: ActorId, at: SimTime, ev: E) {
        if dst == self.me {
            self.sink.local(at, None, ev);
        } else {
            let eff = at.max(self.now + self.floor);
            self.sink.remote(dst, eff, ev);
        }
    }
}

impl<E> core::fmt::Debug for Scheduler<'_, E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("me", &self.me)
            .field("floor", &self.floor)
            .finish()
    }
}

/// One actor: local state driven by timestamped events.
///
/// Implementations receive events one at a time through
/// [`on_event`](Self::on_event) and emit follow-ups through the
/// [`Scheduler`] — never by draining a wheel of their own, which is
/// what lets one implementation run under either driver.
pub trait Component {
    /// The component's event payload.
    type Event;

    /// Handles one event at instant `now`.
    fn on_event(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// The single-actor driver: one component, one timing wheel.
///
/// This is what the four hand-rolled engine loops were each an
/// open-coded copy of. [`run`](Self::run) pops every event of the
/// earliest instant as one closed batch and dispatches it through
/// [`Component::on_event`] in order, so an event emitted at the current
/// instant runs after the whole batch. [`run_stepped`](Self::run_stepped)
/// pops strictly one event at a time for components whose emissions at
/// the *current* instant must interleave, by key, with events still
/// pending at that instant (trace replay's submit-before-completion
/// tie).
pub struct Engine<E> {
    wheel: TimingWheel<E>,
    batch: Vec<E>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine based at time zero.
    pub fn new() -> Self {
        Engine {
            wheel: TimingWheel::new(),
            batch: Vec::new(),
        }
    }

    /// Runs `f` with a [`Scheduler`] pinned to instant `now` — the
    /// priming hook: closed-loop components issue their initial
    /// submissions through the same handle they use during dispatch.
    pub fn with_scheduler<R>(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut Scheduler<'_, E>) -> R,
    ) -> R {
        let mut sched = Scheduler {
            now,
            me: ActorId(0),
            floor: SimDuration::ZERO,
            sink: &mut self.wheel,
        };
        f(&mut sched)
    }

    /// Drains every pending event through `c`, one closed batch per
    /// instant, until the wheel is empty.
    pub fn run(&mut self, c: &mut impl Component<Event = E>) {
        while let Some(t) = self.wheel.pop_same_instant(&mut self.batch) {
            let mut sched = Scheduler {
                now: t,
                me: ActorId(0),
                floor: SimDuration::ZERO,
                sink: &mut self.wheel,
            };
            for ev in self.batch.drain(..) {
                c.on_event(t, ev, &mut sched);
            }
        }
    }

    /// Drains events strictly one at a time through
    /// [`Component::on_event`] until the wheel is empty. An event the
    /// component emits at the current instant with a lower key than a
    /// still-pending same-instant event is dispatched first — exactly
    /// the wheel semantics the open-coded trace-replay loop relied on.
    pub fn run_stepped(&mut self, c: &mut impl Component<Event = E>) {
        while let Some((t, ev)) = self.wheel.pop() {
            let mut sched = Scheduler {
                now: t,
                me: ActorId(0),
                floor: SimDuration::ZERO,
                sink: &mut self.wheel,
            };
            c.on_event(t, ev, &mut sched);
        }
    }
}

impl<E> core::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("pending", &self.wheel.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collector {
        seen: Vec<(u64, u32)>,
        emit_at_now: Option<(u64, u32)>,
    }

    impl Component for Collector {
        type Event = u32;
        fn on_event(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.seen.push((now.as_nanos(), ev));
            if let Some((key, v)) = self.emit_at_now.take() {
                sched.at_keyed(now, key, v);
            }
        }
    }

    fn collector(emit_at_now: Option<(u64, u32)>) -> Collector {
        Collector {
            seen: Vec::new(),
            emit_at_now,
        }
    }

    #[test]
    fn run_drains_in_time_then_fifo_order() {
        let mut e = Engine::new();
        e.with_scheduler(SimTime::ZERO, |sched| {
            sched.at(SimTime::from_nanos(20), 1);
            sched.at(SimTime::from_nanos(10), 2);
            sched.at(SimTime::from_nanos(10), 3);
        });
        let mut c = collector(None);
        e.run(&mut c);
        assert_eq!(c.seen, vec![(10, 2), (10, 3), (20, 1)]);
    }

    /// Pending at t=10: keys 1 and 3; the dispatch of key 1 emits a
    /// key-2 event at t=10.
    fn keyed_pair() -> Engine<u32> {
        let mut e = Engine::new();
        e.with_scheduler(SimTime::ZERO, |sched| {
            sched.at_keyed(SimTime::from_nanos(10), 1, 100);
            sched.at_keyed(SimTime::from_nanos(10), 3, 300);
        });
        e
    }

    #[test]
    fn stepped_mode_interleaves_current_instant_emissions_by_key() {
        // Stepped mode must pop the key-2 emission before key 3.
        let mut c = collector(Some((2, 200)));
        keyed_pair().run_stepped(&mut c);
        assert_eq!(c.seen, vec![(10, 100), (10, 200), (10, 300)]);
    }

    #[test]
    fn run_dispatches_current_instant_emissions_after_the_batch() {
        // `run` pops keys 1 and 3 as one closed batch, so the key-2
        // emission waits until after key 3.
        let mut c = collector(Some((2, 200)));
        keyed_pair().run(&mut c);
        assert_eq!(c.seen, vec![(10, 100), (10, 300), (10, 200)]);
    }

    #[test]
    fn with_scheduler_primes_through_the_same_handle() {
        let mut e = Engine::new();
        e.with_scheduler(SimTime::ZERO, |sched| {
            assert_eq!(sched.now(), SimTime::ZERO);
            assert_eq!(sched.me(), ActorId(0));
            assert_eq!(sched.lookahead(), SimDuration::ZERO);
            sched.at(SimTime::from_nanos(7), 1u32);
            sched.send(ActorId(0), SimTime::from_nanos(3), 2u32);
        });
        let mut c = collector(None);
        e.run(&mut c);
        assert_eq!(c.seen, vec![(3, 2), (7, 1)]);
    }
}
