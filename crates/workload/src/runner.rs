//! The job runner: drives a [`crate::JobSpec`] against a host.

use ull_simkit::{
    Component, Engine as EngineLoop, Histogram, Scheduler, SimDuration, SimTime, SlotId, TimeSeries,
};
use ull_stack::{AsyncPort, Host, IoOp, IoPath, Mode};

use crate::pattern::AddressStream;
use crate::report::JobReport;
use crate::spec::{Engine, JobSpec};

/// Fills the device's whole logical space (mapping only, no simulated
/// time) — the paper's preconditioning step before GC experiments.
pub fn precondition_full(host: &mut Host) {
    host.controller_mut().ssd_mut().precondition_full();
}

/// Runs `spec` against a fresh `host` and returns the report.
///
/// The host must be freshly constructed (its ledger empty) so that CPU
/// utilization can be attributed to this job alone.
///
/// # Panics
///
/// Panics if the host has prior CPU charges, or if the engine and the
/// host's I/O path disagree (`SpdkPlugin` requires [`IoPath::Spdk`];
/// `Libaio` requires a kernel path).
pub fn run_job(host: &mut Host, spec: &JobSpec) -> JobReport {
    assert!(
        host.cpu().busy_total().is_zero(),
        "run_job needs a fresh host for per-job CPU accounting"
    );
    match (spec.engine, host.path()) {
        (Engine::SpdkPlugin, IoPath::Spdk) => {}
        (Engine::SpdkPlugin, p) => panic!("SpdkPlugin requires IoPath::Spdk, host has {p:?}"),
        (Engine::Libaio, IoPath::Spdk) => panic!("Libaio cannot run on the SPDK path"),
        _ => {}
    }
    let capacity = host.controller().ssd().capacity_bytes();
    let mut stream = AddressStream::new(spec, capacity);
    let mut rec = Recorder::new(spec);
    match spec.engine {
        Engine::Pvsync2 => run_sync(host, spec, &mut stream, &mut rec),
        Engine::Libaio | Engine::SpdkPlugin => run_async(host, spec, &mut stream, &mut rec),
    }
    rec.finish(host, spec)
}

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
    fn new(_spec: &JobSpec) -> Self {
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

    fn record(
        &mut self,
        op: IoOp,
        submitted: SimTime,
        latency: SimDuration,
        bytes: u32,
        done: SimTime,
    ) {
        self.latency.record(latency);
        match op {
            IoOp::Read => self.read_latency.record(latency),
            IoOp::Write => self.write_latency.record(latency),
        }
        self.series.record(submitted, latency.as_micros_f64());
        self.bytes += bytes as u64;
        self.completed += 1;
        self.end = self.end.max(done);
    }

    fn finish(self, host: &mut Host, spec: &JobSpec) -> JobReport {
        let elapsed = self.end.saturating_since(SimTime::ZERO);
        host.account_idle_spin(elapsed);
        let cpu = host.cpu();
        let device = host.controller().ssd().metrics();
        let avg_power_w = host.controller().ssd().energy().average_power(self.end);
        let power_series = host.controller().ssd().energy().power_series(self.end);
        JobReport {
            name: spec.name.clone(),
            completed: self.completed,
            bytes: self.bytes,
            elapsed,
            user_util: cpu.utilization(Mode::User, elapsed),
            kernel_util: cpu.utilization(Mode::Kernel, elapsed),
            mem: cpu.mem_total(),
            mem_by_fn: [
                ull_stack::StackFn::FioEngine,
                ull_stack::StackFn::Syscall,
                ull_stack::StackFn::Vfs,
                ull_stack::StackFn::BlockLayer,
                ull_stack::StackFn::NvmeDriverSubmit,
                ull_stack::StackFn::BlkMqPoll,
                ull_stack::StackFn::NvmePoll,
                ull_stack::StackFn::Isr,
                ull_stack::StackFn::Softirq,
                ull_stack::StackFn::ContextSwitch,
                ull_stack::StackFn::HybridSleep,
                ull_stack::StackFn::SpdkSubmit,
                ull_stack::StackFn::SpdkQpairProcess,
                ull_stack::StackFn::SpdkPcieProcess,
                ull_stack::StackFn::SpdkCheckEnabled,
            ]
            .into_iter()
            .map(|f| (f, cpu.mem_of(f)))
            .filter(|(_, m)| m.total() > 0)
            .collect(),
            busy_by_fn: cpu.busy_breakdown(),
            device,
            avg_power_w,
            latency: self.latency,
            read_latency: self.read_latency,
            write_latency: self.write_latency,
            latency_series: self.series,
            power_series,
        }
    }
}

fn run_sync(host: &mut Host, spec: &JobSpec, stream: &mut AddressStream, rec: &mut Recorder) {
    let mut at = SimTime::ZERO;
    for _ in 0..spec.ios {
        let (op, offset) = stream.next_io();
        let r = host.io_sync(op, offset, spec.block_size, at);
        rec.record(op, r.submitted, r.latency, spec.block_size, r.user_visible);
        at = r.user_visible + spec.think_time;
    }
}

/// The async engine loop as a [`Component`]: each event is the slab slot
/// of a completed I/O, and every completion may submit one replacement.
struct AsyncLoop<'a> {
    host: &'a mut Host,
    spec: &'a JobSpec,
    stream: &'a mut AddressStream,
    rec: &'a mut Recorder,
    port: AsyncPort,
    submitted: u64,
}

impl AsyncLoop<'_> {
    /// Submits the next I/O of the stream at `at` and schedules its
    /// completion event (FIFO tie-break).
    fn submit(&mut self, at: SimTime, sched: &mut Scheduler<'_, SlotId>) {
        let (op, offset) = self.stream.next_io();
        let (slot, done) = self
            .port
            .submit(self.host, op, offset, self.spec.block_size, at);
        sched.at(done, slot);
        self.submitted += 1;
    }
}

impl Component for AsyncLoop<'_> {
    type Event = SlotId;

    fn on_event(&mut self, _now: SimTime, slot: SlotId, sched: &mut Scheduler<'_, SlotId>) {
        let (op, r) = self
            .port
            .finish(self.host, slot)
            .expect("completion for an in-flight slot");
        self.rec.record(
            op,
            r.submitted,
            r.latency,
            self.spec.block_size,
            r.user_visible,
        );
        if self.submitted < self.spec.ios {
            self.submit(r.user_visible + self.spec.think_time, sched);
        }
    }
}

fn run_async(host: &mut Host, spec: &JobSpec, stream: &mut AddressStream, rec: &mut Recorder) {
    // In-flight state lives in reusable `AsyncPort` slab slots keyed by
    // the event payload, so the steady-state loop performs no per-I/O
    // allocation at all.
    let mut engine: EngineLoop<SlotId> = EngineLoop::new();
    let mut comp = AsyncLoop {
        host,
        spec,
        stream,
        rec,
        port: AsyncPort::with_capacity(spec.iodepth as usize),
        submitted: 0,
    };
    let prime = spec.ios.min(spec.iodepth as u64);
    engine.with_scheduler(SimTime::ZERO, |sched| {
        for _ in 0..prime {
            comp.submit(SimTime::ZERO, sched);
        }
    });
    engine.run(&mut comp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Pattern;
    use ull_nvme::NvmeController;
    use ull_ssd::{presets, Ssd};
    use ull_stack::SoftwareCosts;

    fn host(path: IoPath) -> Host {
        let ctrl = NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 1, 1024);
        Host::new(ctrl, SoftwareCosts::linux_4_14(), path)
    }

    #[test]
    fn sync_job_completes_requested_ios() {
        let mut h = host(IoPath::KernelInterrupt);
        let spec = JobSpec::new("sync").ios(500);
        let r = run_job(&mut h, &spec);
        assert_eq!(r.completed, 500);
        assert!(r.mean_latency().as_micros_f64() > 5.0);
        assert!(r.iops() > 10_000.0);
    }

    #[test]
    fn deeper_queues_raise_throughput() {
        let run = |depth| {
            let mut h = host(IoPath::KernelInterrupt);
            let spec = JobSpec::new("aio")
                .engine(Engine::Libaio)
                .pattern(Pattern::Random)
                .iodepth(depth)
                .ios(4000);
            run_job(&mut h, &spec).iops()
        };
        let q1 = run(1);
        let q8 = run(8);
        assert!(q8 > 3.0 * q1, "q1={q1:.0} q8={q8:.0}");
    }

    #[test]
    fn mixed_job_records_both_directions() {
        let mut h = host(IoPath::KernelInterrupt);
        let spec = JobSpec::new("mix").read_fraction(0.5).ios(1000).seed(5);
        let r = run_job(&mut h, &spec);
        assert!(r.read_latency.count() > 300);
        assert!(r.write_latency.count() > 300);
        assert_eq!(r.read_latency.count() + r.write_latency.count(), 1000);
    }

    #[test]
    fn spdk_plugin_requires_spdk_path() {
        let mut h = host(IoPath::Spdk);
        let spec = JobSpec::new("spdk")
            .engine(Engine::SpdkPlugin)
            .iodepth(4)
            .ios(1000);
        let r = run_job(&mut h, &spec);
        assert_eq!(r.completed, 1000);
        // Fig. 20: the reactor owns the core.
        assert!(r.user_util > 0.9, "user util {}", r.user_util);
    }

    #[test]
    #[should_panic(expected = "SpdkPlugin requires IoPath::Spdk")]
    fn engine_path_mismatch_panics() {
        let mut h = host(IoPath::KernelInterrupt);
        run_job(&mut h, &JobSpec::new("bad").engine(Engine::SpdkPlugin));
    }

    #[test]
    fn identical_specs_reproduce_identical_reports() {
        let run = || {
            let mut h = host(IoPath::KernelPolled);
            run_job(&mut h, &JobSpec::new("det").ios(2000).seed(77))
        };
        let a = run();
        let b = run();
        assert_eq!(a.mean_latency(), b.mean_latency());
        assert_eq!(a.five_nines(), b.five_nines());
        assert_eq!(a.mem.loads, b.mem.loads);
    }
}
