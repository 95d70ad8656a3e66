//! Wall-clock performance baseline for the simulator's hot loops.
//!
//! Unlike the figure benches (which regenerate paper results), this
//! harness measures the *simulator itself*: events/sec through the
//! scheduler hot loop (timing wheel vs the retained `EventQueue`
//! binary-heap reference), simulated I/Os per wall-clock second
//! through the full closed-loop stack, and the shard-scaling curve of
//! one gossip-coupled fleet world at `--shards {1,2,4}`
//! (`docs/SHARDING.md`). It writes `BENCH_perf.json`.
//!
//! Wall-clock numbers are machine-dependent, so `BENCH_perf.json` is
//! deliberately *outside* the byte-diffed baseline set (those are the
//! `reproduce` JSONs): CI's perf-smoke job only *warns* when events/sec
//! drops more than 25% below the committed file. See
//! docs/PERFORMANCE.md.
//!
//! Usage:
//!
//! ```text
//! perf [--out FILE] [--baseline FILE] [--quick]
//! ```
//!
//! `--baseline FILE` compares against a previously committed
//! `BENCH_perf.json` and prints `PERF-WARN` lines (exit code stays 0 —
//! the gate is advisory by design).

use std::time::Instant;

use ull_bench::PERF_RESULT_KEYS;
use ull_faults::FaultPlan;
use ull_nexus::{run_nexus, NexusConfig};
use ull_simkit::{
    EventQueue, Json, SerialRunner, SimDuration, SimTime, Slab, SlotId, SplitMix64, TimingWheel,
};
use ull_stack::IoPath;
use ull_study::testbed::{host, Device};
use ull_workload::{run_fleet, run_job, Engine, JobSpec, Pattern};

/// Steady-state churn depth for the scheduler microbenches: enough
/// in-flight events that the heap's `O(log n)` sift costs are visible,
/// matching the sweep driver's worst-case concurrency rather than the
/// `iodepth=1` best case.
const CHURN_DEPTH: usize = 1024;

/// Scheduler microbench: prime `CHURN_DEPTH` events, then pop-and-
/// reschedule `ops` times — the exact access pattern of the engine
/// loops. Returns events/sec (one schedule + one pop = two events).
fn wheel_events_per_sec(ops: u64) -> f64 {
    let mut q: TimingWheel<u64> = TimingWheel::new();
    let mut rng = SplitMix64::new(0x5EED_BEEF);
    let mut t = SimTime::ZERO;
    for i in 0..CHURN_DEPTH as u64 {
        q.schedule(t + delta(&mut rng), i);
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ops {
        let (at, v) = q.pop().expect("churn queue never drains");
        t = at;
        acc = acc.wrapping_add(v);
        q.schedule(t + delta(&mut rng), v);
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    2.0 * ops as f64 / secs
}

/// Identical churn through the retained binary-heap `EventQueue` — the
/// pre-wheel scheduler, kept as the differential-testing reference.
fn heap_events_per_sec(ops: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SplitMix64::new(0x5EED_BEEF);
    let mut t = SimTime::ZERO;
    for i in 0..CHURN_DEPTH as u64 {
        q.schedule(t + delta(&mut rng), i);
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ops {
        let (at, v) = q.pop().expect("churn queue never drains");
        t = at;
        acc = acc.wrapping_add(v);
        q.schedule(t + delta(&mut rng), v);
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    2.0 * ops as f64 / secs
}

/// Inter-event gap distribution for the churn benches: mostly short
/// (within the wheel's near horizon, like NVMe completions) with an
/// occasional far outlier (like a GC or timeout event).
fn delta(rng: &mut SplitMix64) -> SimDuration {
    if rng.chance(0.01) {
        SimDuration::from_micros(5_000 + rng.below(20_000))
    } else {
        SimDuration::from_nanos(200 + rng.below(40_000))
    }
}

/// End-to-end kernel: closed-loop libaio random reads on the ULL
/// device. Returns simulated I/Os completed per wall-clock second.
fn closed_loop_ios_per_sec(ios: u64) -> f64 {
    let mut h = host(Device::Ull, IoPath::KernelInterrupt);
    let spec = JobSpec::new("perf-closed-loop")
        .pattern(Pattern::Random)
        .read_fraction(0.7)
        .engine(Engine::Libaio)
        .iodepth(16)
        .ios(ios);
    let t0 = Instant::now();
    let r = run_job(&mut h, &spec);
    let secs = t0.elapsed().as_secs_f64();
    r.completed as f64 / secs
}

/// Sync-path kernel: `pvsync2` polled reads (the latency-critical path
/// of figs. 9-16). Returns simulated I/Os per wall-clock second.
fn sync_ios_per_sec(ios: u64) -> f64 {
    let mut h = host(Device::Ull, IoPath::KernelPolled);
    let spec = JobSpec::new("perf-sync").ios(ios);
    let t0 = Instant::now();
    let r = run_job(&mut h, &spec);
    let secs = t0.elapsed().as_secs_f64();
    r.completed as f64 / secs
}

/// Nexus kernel: a 3-way mirror on the ULL device absorbing one child
/// retirement and an online rebuild under traffic (docs/NEXUS.md) —
/// the heaviest multi-actor world in the tree, dominated by
/// cross-actor event traffic rather than a single engine loop.
/// Returns simulated client I/Os per wall-clock second.
fn nexus_ios_per_sec(ios: u64) -> f64 {
    let mut cfg = NexusConfig::new(ull_ssd::presets::ull_800g());
    cfg.path = IoPath::KernelInterrupt;
    cfg.ios = ios;
    cfg.plan = FaultPlan::uniform(0x4E_BE4C, 2e-2);
    cfg.budget = 2;
    let t0 = Instant::now();
    let r = run_nexus(&cfg, 1, &mut SerialRunner);
    let secs = t0.elapsed().as_secs_f64();
    r.counters.completed as f64 / secs
}

/// Sharded-fleet kernel: one gossip-coupled fleet world (see
/// `ull_workload::run_fleet`) drained at `shards` shards with up to
/// `shards` window workers. Returns `(events/s, simulated ios/s)`
/// aggregated across the fleet — the scaling curve of
/// `docs/SHARDING.md`.
fn fleet_rates(nodes: u32, ios: u64, shards: usize) -> (f64, f64) {
    let mut runner = ull_exec::ParallelRunner { jobs: shards };
    let t0 = Instant::now();
    let reports = run_fleet(nodes, ios, 8, shards, &mut runner);
    let secs = t0.elapsed().as_secs_f64();
    let events: u64 = reports.iter().map(|r| r.completed + r.stats_received).sum();
    let done: u64 = reports.iter().map(|r| r.completed).sum();
    (events as f64 / secs, done as f64 / secs)
}

/// Device-burst microbench: doorbell-sized bursts of 32 commands, each
/// burst issued at one instant as one-at-a-time [`ull_ssd::Ssd::read`]/
/// [`ull_ssd::Ssd::write`] calls — the controller's doorbell drain with
/// the NVMe rings peeled away. Returns commands/sec.
fn device_batch_drain_events_per_sec(ops: u64) -> f64 {
    const BURST: u64 = 32;
    let mut ssd = ull_ssd::Ssd::new(ull_ssd::presets::ull_800g()).expect("preset");
    let mut t = SimTime::ZERO;
    let mut lba = 0u64;
    let t0 = Instant::now();
    for _ in 0..ops / BURST {
        let mut last = t;
        for j in 0..BURST {
            let off = ((lba + j) % 8192) * 4096;
            let c = if (lba + j).is_multiple_of(4) {
                ssd.write(t, off, 4096)
            } else {
                ssd.read(t, off, 4096)
            };
            last = c.done;
        }
        lba += BURST;
        t = last;
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(ssd.metrics());
    (ops / BURST * BURST) as f64 / secs
}

/// Slab-churn microbench: the struct-of-arrays request slab under the
/// completion-burst access pattern — remove-and-reinsert each id of a
/// 32-slot window (one in-flight request retiring and its replacement
/// arriving). Returns remove+insert pairs/sec.
fn slab_churn_ops_per_sec(ops: u64) -> f64 {
    const DEPTH: usize = 1024;
    const BURST: usize = 32;
    let mut slab: Slab<[u64; 4]> = Slab::with_capacity(DEPTH);
    let mut ids: Vec<SlotId> = (0..DEPTH as u64).map(|i| slab.insert([i; 4])).collect();
    let t0 = Instant::now();
    let mut acc = 0u64;
    for b in 0..ops / BURST as u64 {
        let start = (b as usize * BURST) % DEPTH;
        for id in &mut ids[start..start + BURST] {
            let v = slab.remove(*id).expect("window ids are live");
            acc = acc.wrapping_add(v[0]);
            *id = slab.insert(v);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    (ops / BURST as u64 * BURST as u64) as f64 / secs
}

/// Per-metric sample spread: `max` is the headline best-of-N estimate
/// (wall-clock benches are noisy downwards only — cache misses,
/// scheduling — so the max is the stable estimator); `min`/`max`
/// together record the spread across samples in `BENCH_perf.json`.
#[derive(Clone, Copy)]
struct Spread {
    min: f64,
    max: f64,
}

fn sampled<F: FnMut() -> f64>(n: usize, mut f: F) -> Spread {
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for _ in 0..n {
        let v = f();
        min = min.min(v);
        max = max.max(v);
    }
    Spread {
        min: if min.is_finite() { min } else { 0.0 },
        max,
    }
}

/// Pulls `"key": <number>` out of a committed `BENCH_perf.json` without
/// a JSON parser (the workspace deliberately has no serde; the writer
/// in `ull-simkit` emits exactly this shape).
fn extract_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = text.find(&needle)? + needle.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_perf.json");
    let mut baseline: Option<String> = None;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--baseline" => baseline = Some(it.next().expect("--baseline needs a path").clone()),
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: perf [--out FILE] [--baseline FILE] [--quick]");
                std::process::exit(2);
            }
        }
    }

    let (sched_ops, io_n, samples) = if quick {
        (200_000u64, 5_000u64, 2usize)
    } else {
        (2_000_000, 40_000, 3)
    };

    println!("scheduler churn: depth={CHURN_DEPTH} ops={sched_ops} samples={samples}");
    let wheel = sampled(samples, || wheel_events_per_sec(sched_ops));
    let heap = sampled(samples, || heap_events_per_sec(sched_ops));
    let speedup = wheel.max / heap.max;
    println!("  wheel: {:.0} events/s", wheel.max);
    println!("  heap reference: {:.0} events/s", heap.max);
    println!("  speedup: {speedup:.2}x");

    println!("closed-loop libaio qd16 ({io_n} ios):");
    let closed = sampled(samples, || closed_loop_ios_per_sec(io_n));
    println!("  {:.0} simulated ios/s", closed.max);
    println!("sync pvsync2 polled ({io_n} ios):");
    let sync = sampled(samples, || sync_ios_per_sec(io_n));
    println!("  {:.0} simulated ios/s", sync.max);
    let nexus_n = io_n / 4;
    println!("nexus retire + online rebuild, 3-way mirror ({nexus_n} ios):");
    let nexus = sampled(samples, || nexus_ios_per_sec(nexus_n));
    println!("  {:.0} simulated ios/s", nexus.max);
    let drain_ops = sched_ops / 4;
    println!("device burst drain, 32-command doorbell bursts ({drain_ops} cmds):");
    let drain = sampled(samples, || device_batch_drain_events_per_sec(drain_ops));
    println!("  {:.0} commands/s", drain.max);
    println!("SoA slab churn, 32-slot bursts ({sched_ops} pairs):");
    let churn = sampled(samples, || slab_churn_ops_per_sec(sched_ops));
    println!("  {:.0} remove+insert pairs/s", churn.max);

    // Shard-scaling curve: the same gossip-coupled fleet world drained
    // at 1, 2 and 4 shards. The reports are byte-identical at every
    // point (the golden tests pin that); only wall-clock may differ.
    let (fleet_nodes, fleet_ios) = if quick { (8u32, 2_000u64) } else { (8, 12_000) };
    println!("sharded fleet: nodes={fleet_nodes} ios/node={fleet_ios} qd=8");
    // Per entry: (shards, best events/s, its paired ios/s, min events/s
    // across samples) — the min records the spread like the scalars'.
    let mut curve: Vec<(usize, f64, f64, f64)> = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut best = (0.0f64, 0.0f64);
        let mut ev_min = f64::INFINITY;
        for _ in 0..samples {
            let (ev, io) = fleet_rates(fleet_nodes, fleet_ios, shards);
            ev_min = ev_min.min(ev);
            if ev > best.0 {
                best = (ev, io);
            }
        }
        curve.push((shards, best.0, best.1, ev_min));
        println!(
            "  shards={shards}: {:.0} events/s, {:.0} sim ios/s",
            best.0, best.1
        );
    }
    let scale4 = curve[2].1 / curve[0].1;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("  scaling at 4 shards: {scale4:.2}x (cores available: {cores})");
    if cores >= 4 && scale4 < 1.5 {
        // Advisory only — a loaded or small runner must not fail CI.
        println!("PERF-WARN: shard scaling at 4 shards below 1.5x ({scale4:.2}x)");
    }

    let doc = Json::obj()
        .field("schema", 1i64)
        .field(
            "note",
            "wall-clock numbers: machine-dependent, advisory only; NOT part of the byte-diffed baseline set (docs/PERFORMANCE.md)",
        )
        .field(
            "config",
            Json::obj()
                .field("churn_depth", CHURN_DEPTH as i64)
                .field("sched_ops", sched_ops as i64)
                .field("io_n", io_n as i64)
                .field("samples", samples as i64),
        )
        .field(
            "results",
            Json::obj()
                .field("wheel_events_per_sec", wheel.max)
                .field("heap_events_per_sec", heap.max)
                .field("wheel_speedup_vs_heap", speedup)
                .field("closed_loop_ios_per_sec", closed.max)
                .field("sync_ios_per_sec", sync.max)
                .field("nexus_ios_per_sec", nexus.max)
                .field("device_batch_drain_events_per_sec", drain.max)
                .field("slab_churn_ops_per_sec", churn.max),
        )
        .field(
            "spread",
            // min/max across samples per sampled metric (the ratio
            // `wheel_speedup_vs_heap` has no per-sample spread).
            [
                ("wheel_events_per_sec", wheel),
                ("heap_events_per_sec", heap),
                ("closed_loop_ios_per_sec", closed),
                ("sync_ios_per_sec", sync),
                ("nexus_ios_per_sec", nexus),
                ("device_batch_drain_events_per_sec", drain),
                ("slab_churn_ops_per_sec", churn),
            ]
            .into_iter()
            .fold(Json::obj(), |o, (key, s)| {
                o.field(key, Json::obj().field("min", s.min).field("max", s.max))
            }),
        )
        .field(
            "shard_scaling",
            Json::Arr(
                curve
                    .iter()
                    .map(|&(shards, ev, io, ev_min)| {
                        Json::obj()
                            .field("shards", shards as i64)
                            .field("events_per_sec", ev)
                            .field("sim_ios_per_sec", io)
                            .field("events_per_sec_min", ev_min)
                    })
                    .collect(),
            ),
        );
    std::fs::write(&out_path, doc.to_pretty_string()).expect("write perf baseline");
    println!("wrote {out_path}");

    // Every gated key must be a live results key (PERF_RESULT_KEYS is
    // what the docs-drift test pins to docs/PERFORMANCE.md).
    let gated = [
        ("wheel_events_per_sec", wheel.max),
        ("closed_loop_ios_per_sec", closed.max),
        ("sync_ios_per_sec", sync.max),
        ("nexus_ios_per_sec", nexus.max),
        ("device_batch_drain_events_per_sec", drain.max),
        ("slab_churn_ops_per_sec", churn.max),
    ];
    for (key, _) in &gated {
        assert!(
            PERF_RESULT_KEYS.contains(key),
            "gated key {key} missing from PERF_RESULT_KEYS"
        );
    }

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path).expect("read baseline");
        let mut warned = false;
        for (key, current) in gated {
            let Some(base) = extract_number(&text, key) else {
                println!("PERF-WARN: baseline {path} has no {key}");
                warned = true;
                continue;
            };
            if current < 0.75 * base {
                println!(
                    "PERF-WARN: {key} dropped >25%: {current:.0} vs baseline {base:.0} ({:.0}%)",
                    100.0 * current / base
                );
                warned = true;
            } else {
                println!(
                    "perf ok: {key} {current:.0} vs baseline {base:.0} ({:.0}%)",
                    100.0 * current / base
                );
            }
        }
        if !warned {
            println!("perf ok: all metrics within 25% of {path}");
        }
        // Advisory by design: never fail the build on wall-clock noise.
    }
}
