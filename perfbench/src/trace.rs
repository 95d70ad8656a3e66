//! The traced run: the benchmark times each layer's public functions
//! from its own code, so the simulator carries no instrumentation.
//!
//! `closed_loop` and `sync_poll` are re-driven by [`job_loop`], a loop
//! over the same layer calls `run_job` makes (`AddressStream::next_io`,
//! `AsyncPort::submit`/`finish` or `Host::io_sync`, `TimingWheel`
//! schedule/pop, histogram recording). Its report must equal `run_job`'s
//! exactly before any number is written. The NVMe and SSD shares come
//! from replaying the loop's `(op, offset, at)` stream into a bare
//! controller and a bare device. `fleet_2shard` is traced through a
//! timing `WindowRunner`; `reproduce_quick` per registry entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ull_exec::ParallelRunner;
use ull_nvme::{NvmeCommand, NvmeController};
use ull_simkit::{Histogram, SimDuration, SimTime, SlotId, TimeSeries, TimingWheel, WindowRunner};
use ull_ssd::{presets, Ssd};
use ull_stack::{AsyncPort, Host, IoOp, Mode, StackFn};
use ull_study::registry::default_entries;
use ull_workload::{run_fleet, run_job, AddressStream, JobReport, JobSpec};

use crate::output::Metric;
use crate::workloads::{
    check_fleet, job_host, job_spec, median, report_digest, reproduce_setup, run_entry, Checks,
    Expected, Workload, FLEET_IODEPTH, FLEET_IOS, FLEET_JOBS, FLEET_NODES, FLEET_SHARDS,
};

/// Untraced/traced alternations behind `trace.overhead_frac`.
const OVERHEAD_REPS: usize = 3;

/// The per-I/O recorder `run_job` keeps, rebuilt from the same simkit
/// types so the traced loop yields an identical `JobReport`.
struct Recorder {
    latency: Histogram,
    read_latency: Histogram,
    write_latency: Histogram,
    series: TimeSeries,
    bytes: u64,
    completed: u64,
    end: SimTime,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            latency: Histogram::new(),
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            series: TimeSeries::new(SimDuration::from_millis(10)),
            bytes: 0,
            completed: 0,
            end: SimTime::ZERO,
        }
    }

    fn record(&mut self, op: IoOp, r: &ull_stack::IoResult, bytes: u32) {
        self.latency.record(r.latency);
        match op {
            IoOp::Read => self.read_latency.record(r.latency),
            IoOp::Write => self.write_latency.record(r.latency),
        }
        self.series.record(r.submitted, r.latency.as_micros_f64());
        self.bytes += u64::from(bytes);
        self.completed += 1;
        self.end = self.end.max(r.user_visible);
    }

    fn finish(self, host: &mut Host, spec: &JobSpec) -> JobReport {
        let elapsed = self.end.saturating_since(SimTime::ZERO);
        host.account_idle_spin(elapsed);
        let cpu = host.cpu();
        let ssd = host.controller().ssd();
        JobReport {
            name: spec.name.clone(),
            completed: self.completed,
            bytes: self.bytes,
            elapsed,
            user_util: cpu.utilization(Mode::User, elapsed),
            kernel_util: cpu.utilization(Mode::Kernel, elapsed),
            mem: cpu.mem_total(),
            mem_by_fn: [
                StackFn::FioEngine,
                StackFn::Syscall,
                StackFn::Vfs,
                StackFn::BlockLayer,
                StackFn::NvmeDriverSubmit,
                StackFn::BlkMqPoll,
                StackFn::NvmePoll,
                StackFn::Isr,
                StackFn::Softirq,
                StackFn::ContextSwitch,
                StackFn::HybridSleep,
                StackFn::SpdkSubmit,
                StackFn::SpdkQpairProcess,
                StackFn::SpdkPcieProcess,
                StackFn::SpdkCheckEnabled,
            ]
            .into_iter()
            .map(|f| (f, cpu.mem_of(f)))
            .filter(|(_, m)| m.total() > 0)
            .collect(),
            busy_by_fn: cpu.busy_breakdown(),
            device: ssd.metrics(),
            avg_power_w: ssd.energy().average_power(self.end),
            latency: self.latency,
            read_latency: self.read_latency,
            write_latency: self.write_latency,
            latency_series: self.series,
            power_series: ssd.energy().power_series(self.end),
        }
    }
}

/// Time spent in each layer call over one traced job.
#[derive(Debug, Default)]
pub struct Tally {
    pub next_io: Duration,
    /// `AsyncPort::submit` (closed loop) or `Host::io_sync` (sync).
    pub submit: Duration,
    pub finish: Duration,
    pub schedule: Duration,
    pub pop: Duration,
    pub record: Duration,
    /// The whole traced loop.
    pub total: Duration,
    pub events: u64,
    pub bursts: u64,
    pub bursts_gt1: u64,
    /// Every command the loop issued: `(op, offset, submitted at)`.
    pub stream: Vec<(IoOp, u64, SimTime)>,
}

impl Tally {
    fn covered(&self) -> Duration {
        self.next_io + self.submit + self.finish + self.schedule + self.pop + self.record
    }
}

/// `run_job`'s async engine loop, re-driven call by call: prime
/// `iodepth` submits, then drain same-instant bursts off a timing wheel,
/// finishing each completion and submitting its replacement in order.
fn async_loop(host: &mut Host, spec: &JobSpec, t: &mut Tally) -> Recorder {
    let mut stream = AddressStream::new(spec, host.controller().ssd().capacity_bytes());
    let mut rec = Recorder::new();
    let mut wheel: TimingWheel<SlotId> = TimingWheel::new();
    let mut port = AsyncPort::with_capacity(spec.iodepth as usize);
    let mut batch = Vec::new();
    let mut submitted = 0u64;
    // Spans share endpoints wherever two layer calls are adjacent, so
    // the trace's own clock reads stay few; the loop's bookkeeping
    // between spans is what `trace.residual_frac` reports.
    let mut submit = |host: &mut Host,
                      port: &mut AsyncPort,
                      wheel: &mut TimingWheel<SlotId>,
                      t: &mut Tally,
                      at: SimTime,
                      a: Instant| {
        let (op, offset) = stream.next_io();
        let b = Instant::now();
        let (slot, done) = port.submit(host, op, offset, spec.block_size, at);
        let c = Instant::now();
        wheel.schedule(done, slot);
        let d = Instant::now();
        t.next_io += b - a;
        t.submit += c - b;
        t.schedule += d - c;
        t.stream.push((op, offset, at));
        d
    };
    let start = Instant::now();
    for _ in 0..spec.ios.min(u64::from(spec.iodepth)) {
        submit(
            host,
            &mut port,
            &mut wheel,
            t,
            SimTime::ZERO,
            Instant::now(),
        );
        submitted += 1;
    }
    loop {
        let a = Instant::now();
        let popped = wheel.pop_same_instant(&mut batch);
        let mut mark = Instant::now();
        t.pop += mark - a;
        if popped.is_none() {
            break;
        }
        t.events += batch.len() as u64;
        t.bursts += 1;
        t.bursts_gt1 += u64::from(batch.len() > 1);
        for slot in batch.drain(..) {
            let (op, r) = port
                .finish(host, slot)
                .expect("completion for an in-flight slot");
            let b = Instant::now();
            rec.record(op, &r, spec.block_size);
            let c = Instant::now();
            t.finish += b - mark;
            t.record += c - b;
            mark = c;
            if submitted < spec.ios {
                let at = r.user_visible + spec.think_time;
                mark = submit(host, &mut port, &mut wheel, t, at, c);
                submitted += 1;
            }
        }
    }
    t.total = start.elapsed();
    rec
}

/// `run_job`'s pvsync2 loop, re-driven call by call.
fn sync_loop(host: &mut Host, spec: &JobSpec, t: &mut Tally) -> Recorder {
    let mut stream = AddressStream::new(spec, host.controller().ssd().capacity_bytes());
    let mut rec = Recorder::new();
    let mut at = SimTime::ZERO;
    let start = Instant::now();
    for _ in 0..spec.ios {
        let a = Instant::now();
        let (op, offset) = stream.next_io();
        let b = Instant::now();
        let r = host.io_sync(op, offset, spec.block_size, at);
        let c = Instant::now();
        rec.record(op, &r, spec.block_size);
        let d = Instant::now();
        t.next_io += b - a;
        t.submit += c - b;
        t.record += d - c;
        t.stream.push((op, offset, at));
        at = r.user_visible + spec.think_time;
    }
    t.total = start.elapsed();
    rec
}

/// Runs a single-host workload through the traced loop; returns its
/// report and the per-layer tally.
pub fn job_loop(w: Workload, seed: u64) -> (JobReport, Tally) {
    let spec = job_spec(w, seed);
    let mut host = job_host(w);
    let mut t = Tally {
        stream: Vec::with_capacity(spec.ios as usize),
        ..Tally::default()
    };
    let rec = match w {
        Workload::ClosedLoop => async_loop(&mut host, &spec, &mut t),
        _ => sync_loop(&mut host, &spec, &mut t),
    };
    (rec.finish(&mut host, &spec), t)
}

/// Replays `stream` into a bare NVMe controller over a fresh ULL device:
/// submit, doorbell, completion detail and CQ poll per command. Returns
/// wall time per command.
fn nvme_replay(stream: &[(IoOp, u64, SimTime)], len: u32) -> f64 {
    let ssd = Ssd::new(presets::ull_800g()).expect("preset config is valid");
    let mut ctrl = NvmeController::new(ssd, 1, 1024);
    let mut cid = 0u16;
    let start = Instant::now();
    for &(op, offset, at) in stream {
        let cmd = match op {
            IoOp::Read => NvmeCommand::read(cid, offset, len),
            IoOp::Write => NvmeCommand::write(cid, offset, len),
        };
        ctrl.submit(0, cmd)
            .expect("a drained ring accepts a command");
        ctrl.ring_sq_doorbell(0, at);
        let done = ctrl
            .take_detail(0, cid)
            .expect("a fetched command has a completion")
            .done;
        std::hint::black_box(ctrl.poll(0, done + NvmeController::DEFAULT_MSI_LATENCY));
        cid = cid.wrapping_add(1);
    }
    start.elapsed().as_nanos() as f64 / stream.len() as f64
}

/// Replays `stream` into a bare ULL device. Returns wall time per command.
fn ssd_replay(stream: &[(IoOp, u64, SimTime)], len: u32) -> f64 {
    let mut ssd = Ssd::new(presets::ull_800g()).expect("preset config is valid");
    let start = Instant::now();
    for &(op, offset, at) in stream {
        std::hint::black_box(match op {
            IoOp::Read => ssd.read(at, offset, len),
            IoOp::Write => ssd.write(at, offset, len),
        });
    }
    start.elapsed().as_nanos() as f64 / stream.len() as f64
}

fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_nanos() as f64 / n as f64
}

/// Traces one single-host workload and appends its layer metrics.
/// Returns an error, before any number is written, if the traced loop
/// does not reproduce `run_job`'s report exactly.
fn trace_job(
    w: Workload,
    seed: u64,
    expected: &Expected,
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let spec = job_spec(w, seed);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    for _ in 0..OVERHEAD_REPS {
        let mut h = job_host(w);
        let t0 = Instant::now();
        let want = run_job(&mut h, &spec);
        untraced.push(t0.elapsed().as_secs_f64());
        drop(h);
        let (got, tally) = job_loop(w, seed);
        traced.push(tally.total.as_secs_f64());
        let (dw, dg) = (report_digest(&want), report_digest(&got));
        if dw != dg {
            return Err(format!(
                "{}: traced loop report {dg:016x} differs from run_job's {dw:016x}; \
                 the trace would measure a different program",
                w.name()
            ));
        }
        if let Some(rec) = expected.job(w, seed) {
            checks.check(dw == rec, || {
                format!(
                    "{} seed {seed}: digest {dw:016x}, expected {rec:016x}",
                    w.name()
                )
            });
        }
        last = Some((want, tally));
    }
    let (report, t) = last.expect("OVERHEAD_REPS > 0");
    let n = spec.ios;
    let nvme = nvme_replay(&t.stream, spec.block_size);
    let ssd = ssd_replay(&t.stream, spec.block_size);
    let io = ns_per(t.total, n);
    let p = w.name();
    let m = |name: &str, value: f64, unit: &'static str| {
        Metric::new(format!("{p}.{name}"), value, unit)
    };
    out.push(m("workload.next_io_ns", ns_per(t.next_io, n), "ns"));
    match w {
        Workload::ClosedLoop => {
            let (submit, finish) = (ns_per(t.submit, n), ns_per(t.finish, n));
            out.extend([
                m("stack.submit_ns", submit, "ns"),
                m("stack.finish_ns", finish, "ns"),
                m("simkit.wheel_schedule_ns", ns_per(t.schedule, n), "ns"),
                m("simkit.wheel_pop_ns", ns_per(t.pop, n), "ns"),
                m("stack.self_ns", submit + finish - nvme, "ns"),
            ]);
        }
        _ => {
            let io_sync = ns_per(t.submit, n);
            out.extend([
                m("stack.io_sync_ns", io_sync, "ns"),
                m("stack.self_ns", io_sync - nvme, "ns"),
            ]);
        }
    }
    let dev = &report.device;
    out.extend([
        m("simkit.record_ns", ns_per(t.record, n), "ns"),
        m("nvme.cmd_ns", nvme, "ns"),
        m("ssd.cmd_ns", ssd, "ns"),
        m("nvme.self_ns", nvme - ssd, "ns"),
        m("trace.io_ns", io, "ns"),
        m(
            "trace.residual_frac",
            1.0 - ns_per(t.covered(), n) / io,
            "ratio",
        ),
        m(
            "trace.overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
            "ratio",
        ),
    ]);
    if w == Workload::ClosedLoop {
        out.extend([
            m("simkit.events_per_io", t.events as f64 / n as f64, "count"),
            m(
                "simkit.burst_size_mean",
                t.events as f64 / t.bursts as f64,
                "count",
            ),
            m(
                "simkit.burst_gt1_frac",
                t.bursts_gt1 as f64 / t.bursts as f64,
                "ratio",
            ),
            m("ssd.dram_hit_rate", dev.dram_hit_rate(), "ratio"),
            m(
                "ssd.write_amplification",
                dev.write_amplification(),
                "ratio",
            ),
            m(
                "ssd.gc_migrated_units",
                dev.gc_migrated_units as f64,
                "count",
            ),
        ]);
    }
    Ok(())
}

/// A `WindowRunner` that times each window from outside: the whole
/// `run` call, each shard's work closure, and the gap between calls
/// (the barrier exchange and next-horizon scan of `ShardedWorld`).
struct TimedRunner {
    inner: ParallelRunner,
    shard_ns: Vec<AtomicU64>,
    windows: u64,
    run_ns: u128,
    drain_ns: u128,
    gap_ns: u128,
    last_end: Option<Instant>,
}

impl WindowRunner for TimedRunner {
    fn run<S: Send>(&mut self, shards: &mut [S], work: impl Fn(usize, &mut S) + Sync) {
        let start = Instant::now();
        if let Some(end) = self.last_end {
            self.gap_ns += (start - end).as_nanos();
        }
        if self.shard_ns.len() < shards.len() {
            self.shard_ns
                .resize_with(shards.len(), || AtomicU64::new(0));
        }
        let shard_ns = &self.shard_ns;
        self.inner.run(shards, |i, s| {
            let t = Instant::now();
            work(i, s);
            shard_ns[i].store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        let end = Instant::now();
        let slowest = shard_ns[..shards.len()]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        self.windows += 1;
        self.run_ns += (end - start).as_nanos();
        self.drain_ns += u128::from(slowest);
        self.last_end = Some(end);
    }
}

fn trace_fleet(expected: &Expected, checks: &mut Checks, out: &mut Vec<Metric>) {
    let mut r = TimedRunner {
        inner: ParallelRunner { jobs: FLEET_JOBS },
        shard_ns: Vec::new(),
        windows: 0,
        run_ns: 0,
        drain_ns: 0,
        gap_ns: 0,
        last_end: None,
    };
    let reports = run_fleet(FLEET_NODES, FLEET_IOS, FLEET_IODEPTH, FLEET_SHARDS, &mut r);
    check_fleet(&reports, expected, checks);
    let w = r.windows as f64;
    let ios: u64 = reports.iter().map(|n| n.completed).sum();
    let m = |name: &str, value: f64, unit: &'static str| {
        Metric::new(format!("fleet_2shard.{name}"), value, unit)
    };
    out.extend([
        m("shard.windows", w, "count"),
        m("shard.ios_per_window", ios as f64 / w, "count"),
        m("shard.drain_ns_per_window", r.drain_ns as f64 / w, "ns"),
        m(
            "exec.fork_join_ns_per_window",
            (r.run_ns - r.drain_ns) as f64 / w,
            "ns",
        ),
        m("shard.exchange_ns_per_window", r.gap_ns as f64 / w, "ns"),
    ]);
}

fn trace_reproduce(
    root: &std::path::Path,
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let base = reproduce_setup(root)?;
    for e in default_entries() {
        let (wall, _) = run_entry(e, &base, checks);
        out.push(Metric::new(
            format!("reproduce_quick.core.{}_s", e.name),
            wall,
            "s",
        ));
    }
    Ok(())
}

/// Per-layer metrics of the two single-host sections (after the
/// workload prefix), with units.
const CLOSED_LOOP_LAYERS: [(&str, &str); 19] = [
    ("workload.next_io_ns", "ns"),
    ("stack.submit_ns", "ns"),
    ("stack.finish_ns", "ns"),
    ("simkit.wheel_schedule_ns", "ns"),
    ("simkit.wheel_pop_ns", "ns"),
    ("stack.self_ns", "ns"),
    ("simkit.record_ns", "ns"),
    ("nvme.cmd_ns", "ns"),
    ("ssd.cmd_ns", "ns"),
    ("nvme.self_ns", "ns"),
    ("trace.io_ns", "ns"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("simkit.events_per_io", "count"),
    ("simkit.burst_size_mean", "count"),
    ("simkit.burst_gt1_frac", "ratio"),
    ("ssd.dram_hit_rate", "ratio"),
    ("ssd.write_amplification", "ratio"),
    ("ssd.gc_migrated_units", "count"),
];
const SYNC_POLL_LAYERS: [(&str, &str); 10] = [
    ("workload.next_io_ns", "ns"),
    ("stack.io_sync_ns", "ns"),
    ("stack.self_ns", "ns"),
    ("simkit.record_ns", "ns"),
    ("nvme.cmd_ns", "ns"),
    ("ssd.cmd_ns", "ns"),
    ("nvme.self_ns", "ns"),
    ("trace.io_ns", "ns"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];
const FLEET_LAYERS: [(&str, &str); 5] = [
    ("shard.windows", "count"),
    ("shard.ios_per_window", "count"),
    ("shard.drain_ns_per_window", "ns"),
    ("exec.fork_join_ns_per_window", "ns"),
    ("shard.exchange_ns_per_window", "ns"),
];

/// Every per-layer metric a traced run reports, with its unit, in order.
pub fn per_layer_table() -> Vec<(String, &'static str)> {
    let section = |w: Workload, rows: &[(&str, &'static str)]| {
        rows.iter()
            .map(|&(n, u)| (format!("{}.{n}", w.name()), u))
            .collect::<Vec<_>>()
    };
    let mut t = section(Workload::ClosedLoop, &CLOSED_LOOP_LAYERS);
    t.extend(section(Workload::SyncPoll, &SYNC_POLL_LAYERS));
    t.extend(section(Workload::Fleet2Shard, &FLEET_LAYERS));
    t.extend(default_entries().map(|e| (format!("reproduce_quick.core.{}_s", e.name), "s")));
    t
}

/// The whole layer table, every workload's section in turn: the per-layer
/// metric set is the same whichever workload the traced run names.
pub fn trace_all(
    root: &std::path::Path,
    seed: u64,
    expected: &Expected,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    trace_job(Workload::ClosedLoop, seed, expected, checks, &mut out)?;
    trace_job(Workload::SyncPoll, seed, expected, checks, &mut out)?;
    trace_fleet(expected, checks, &mut out);
    trace_reproduce(root, checks, &mut out)?;
    let mut got: Vec<(String, &str)> = out.iter().map(|m| (m.name.clone(), m.unit)).collect();
    let mut want = per_layer_table();
    got.sort();
    want.sort();
    assert_eq!(got, want, "traced metrics differ from the per-layer table");
    Ok(out)
}
