//! Building and running the nexus world: one frontend actor plus N
//! child actors under `ShardedWorld`.

use ull_simkit::{ActorId, Component, Lookahead, Scheduler, ShardedWorld, SimTime, WindowRunner};

use crate::child::NexusChild;
use crate::event::NexusEvent;
use crate::frontend::NexusFrontend;
use crate::report::NexusReport;
use crate::{NexusConfig, CHILD_LINK};

/// One actor of the nexus world (heterogeneous: actor 0 is the
/// frontend, actors `1..=children` are the replicas).
#[derive(Debug)]
pub enum NexusActor {
    /// The volume frontend.
    Frontend(Box<NexusFrontend>),
    /// One child replica.
    Child(Box<NexusChild>),
}

impl Component for NexusActor {
    type Event = NexusEvent;

    fn on_event(&mut self, now: SimTime, ev: NexusEvent, sched: &mut Scheduler<'_, NexusEvent>) {
        match self {
            NexusActor::Frontend(f) => f.on_event(now, ev, sched),
            NexusActor::Child(c) => c.on_event(now, ev, sched),
        }
    }
}

/// Builds the nexus world for `cfg`, runs it to quiescence on `shards`
/// shards with `runner` driving the windows, and returns the report.
///
/// Child `i < cfg.faulty_children` gets the config's fault plan with a
/// per-child decorrelated seed (distinct children draw independent
/// lotteries); the rest run pristine. The report is byte-identical at
/// any shard count.
pub fn run_nexus(cfg: &NexusConfig, shards: usize, runner: &mut impl WindowRunner) -> NexusReport {
    let mut actors = Vec::with_capacity(cfg.children as usize + 1);
    actors.push(NexusActor::Frontend(Box::new(NexusFrontend::new(
        cfg.clone(),
    ))));
    for i in 0..cfg.children {
        let plan = (i < cfg.faulty_children && cfg.plan.enabled()).then(|| {
            let mut p = cfg.plan;
            p.seed ^= (0xC0 + u64::from(i)) << 4;
            p
        });
        actors.push(NexusActor::Child(Box::new(NexusChild::new(
            i,
            ActorId(0),
            cfg.device.clone(),
            cfg.path,
            cfg.total_ranges,
            plan.as_ref(),
        ))));
    }
    let mut world = ShardedWorld::new(shards, Lookahead::from_floor(CHILD_LINK), actors);
    world.seed(ActorId(0), |a, sched| {
        if let NexusActor::Frontend(f) = a {
            f.prime(sched);
        }
    });
    world.run_with(runner);
    let mut frontend = None;
    let mut digests: Vec<Vec<u64>> = Vec::new();
    for a in world.into_actors() {
        match a {
            NexusActor::Frontend(f) => frontend = Some(f),
            NexusActor::Child(c) => digests.push(c.digests().to_vec()),
        }
    }
    let refs: Vec<&[u64]> = digests.iter().map(Vec::as_slice).collect();
    frontend
        .expect("the world contains the frontend")
        .into_report(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_faults::FaultPlan;
    use ull_simkit::SerialRunner;
    use ull_ssd::presets;

    fn quick_cfg() -> NexusConfig {
        let mut cfg = NexusConfig::new(presets::ull_800g());
        cfg.ios = 600;
        cfg.total_ranges = 8;
        cfg.range_len = 32 * 1024;
        cfg
    }

    #[test]
    fn fault_free_mirror_serves_everything_and_never_degrades() {
        let cfg = quick_cfg();
        let r = run_nexus(&cfg, 1, &mut SerialRunner);
        r.check().expect("accounting identities hold");
        let c = &r.counters;
        assert_eq!(c.completed, 600);
        assert_eq!(c.retired_children, 0);
        assert_eq!(c.degraded_reads, 0);
        assert_eq!(c.degraded_writes, 0);
        assert_eq!(c.fault_events, 0);
        assert_eq!(r.serving_children, 3);
        assert_eq!(r.degraded.count(), 0);
        assert_eq!(r.digest_mismatch_ranges, 0);
    }

    #[test]
    fn faulty_child_is_retired_and_rebuilt_online() {
        let mut cfg = quick_cfg();
        cfg.plan = FaultPlan::uniform(0x4E05, 2e-2);
        cfg.budget = 3;
        let r = run_nexus(&cfg, 1, &mut SerialRunner);
        r.check().expect("accounting identities hold");
        let c = &r.counters;
        assert!(c.retired_children >= 1, "the faulty child must be retired");
        assert_eq!(c.rebuilds_completed, c.retired_children);
        assert!(c.degraded_reads > 0, "reads were served degraded");
        assert!(r.degraded.count() > 0);
        assert_eq!(r.serving_children, 3, "the child was re-admitted");
        assert_eq!(r.digest_mismatch_ranges, 0, "replicas converged");
    }

    #[test]
    fn nexus_report_is_byte_identical_at_any_shard_count() {
        let mut cfg = quick_cfg();
        cfg.plan = FaultPlan::uniform(0x4E05, 2e-2);
        cfg.budget = 3;
        cfg.probe = true;
        let serial = run_nexus(&cfg, 1, &mut SerialRunner);
        assert!(serial.counters.retired_children >= 1);
        for shards in [2, 4] {
            assert_eq!(
                run_nexus(&cfg, shards, &mut SerialRunner),
                serial,
                "shards={shards}"
            );
        }
    }
}
