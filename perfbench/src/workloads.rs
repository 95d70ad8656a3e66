//! The four workloads, their fixed sizes, and the untraced measured
//! phase that produces the end-to-end samples.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ull_exec::ParallelRunner;
use ull_stack::{Host, IoPath};
use ull_study::registry::{default_entries, json_document, Entry};
use ull_study::testbed::{host, Device, Scale};
use ull_workload::{run_fleet, run_job, Engine, FleetNodeReport, JobReport, JobSpec, Pattern};

use crate::calib::Calibrator;
use crate::sys::{cpu_seconds, peak_rss_mb};

/// I/Os per `closed_loop` unit.
pub const CLOSED_LOOP_IOS: u64 = 100_000;
/// I/Os per `sync_poll` unit.
pub const SYNC_POLL_IOS: u64 = 250_000;
/// Fleet shape for `fleet_2shard`: nodes, per-node queue depth, per-node
/// I/Os, shards and window workers.
pub const FLEET_NODES: u32 = 8;
pub const FLEET_IODEPTH: u32 = 8;
pub const FLEET_IOS: u64 = 25_000;
pub const FLEET_SHARDS: usize = 2;
pub const FLEET_JOBS: usize = 2;
/// Units measured at least, however short `--seconds` is.
const MIN_UNITS: usize = 3;
/// Set-up repetitions for `reproduce_quick`, whose units carry none.
const SETUP_REPS: usize = 5;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClosedLoop,
    SyncPoll,
    Fleet2Shard,
    ReproduceQuick,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClosedLoop,
        Workload::SyncPoll,
        Workload::Fleet2Shard,
        Workload::ReproduceQuick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedLoop => "closed_loop",
            Workload::SyncPoll => "sync_poll",
            Workload::Fleet2Shard => "fleet_2shard",
            Workload::ReproduceQuick => "reproduce_quick",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's size, as recorded in the run fingerprint.
    pub fn size(self) -> String {
        match self {
            Workload::ClosedLoop => format!("ios={CLOSED_LOOP_IOS} qd=16 read=0.7"),
            Workload::SyncPoll => format!("ios={SYNC_POLL_IOS} qd=1 read=1.0"),
            Workload::Fleet2Shard => format!(
                "nodes={FLEET_NODES} qd={FLEET_IODEPTH} ios_per_node={FLEET_IOS} \
                 shards={FLEET_SHARDS} jobs={FLEET_JOBS}"
            ),
            Workload::ReproduceQuick => "entries=all scale=quick jobs=1".to_string(),
        }
    }

    /// Whether `--seed` reaches the workload's input.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::ClosedLoop | Workload::SyncPoll)
    }
}

/// `closed_loop`: ULL 800 GB, interrupt path, libaio QD16, 4 KiB random,
/// 70% reads.
pub fn closed_loop_spec(seed: u64) -> JobSpec {
    JobSpec::new("bench-closed-loop")
        .pattern(Pattern::Random)
        .read_fraction(0.7)
        .engine(Engine::Libaio)
        .iodepth(16)
        .ios(CLOSED_LOOP_IOS)
        .seed(seed)
}

/// `sync_poll`: ULL 800 GB, polled path, pvsync2 QD1, 4 KiB random reads.
pub fn sync_poll_spec(seed: u64) -> JobSpec {
    JobSpec::new("bench-sync-poll")
        .pattern(Pattern::Random)
        .engine(Engine::Pvsync2)
        .ios(SYNC_POLL_IOS)
        .seed(seed)
}

/// The job spec and fresh host of a single-host workload.
pub fn job_spec(w: Workload, seed: u64) -> JobSpec {
    match w {
        Workload::ClosedLoop => closed_loop_spec(seed),
        Workload::SyncPoll => sync_poll_spec(seed),
        _ => unreachable!("{} is not a single-host job", w.name()),
    }
}

pub fn job_host(w: Workload) -> Host {
    match w {
        Workload::ClosedLoop => host(Device::Ull, IoPath::KernelInterrupt),
        Workload::SyncPoll => host(Device::Ull, IoPath::KernelPolled),
        _ => unreachable!("{} is not a single-host job", w.name()),
    }
}

pub fn fleet(ios: u64) -> Vec<FleetNodeReport> {
    run_fleet(
        FLEET_NODES,
        ios,
        FLEET_IODEPTH,
        FLEET_SHARDS,
        &mut ParallelRunner { jobs: FLEET_JOBS },
    )
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of everything a job report holds (its `Debug` rendering).
pub fn report_digest(r: &JobReport) -> u64 {
    fnv1a(format!("{r:?}").as_bytes())
}

/// Output checks: every check counts as attempted; a mismatch counts as
/// failed and is printed, never passed over.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// Expected outputs recorded at the commit that defined the benchmark
/// (`expected.txt`): job report digests per workload and seed, and the
/// fleet's per-node checksums.
#[derive(Debug, Default, Clone)]
pub struct Expected {
    pub jobs: BTreeMap<(String, u64), u64>,
    pub fleet: Vec<u64>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut e = Expected::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("expected.txt line {}: {line:?}", n + 1);
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            match f.as_slice() {
                [w @ ("closed_loop" | "sync_poll"), seed, digest] => {
                    let seed = seed.parse().map_err(|_| bad())?;
                    e.jobs.insert((w.to_string(), seed), hex(digest)?);
                }
                ["fleet_2shard", node, sum] => {
                    if node.parse::<usize>().ok() != Some(e.fleet.len()) {
                        return Err(bad());
                    }
                    e.fleet.push(hex(sum)?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(e)
    }

    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Expected::parse(&text)
    }

    pub fn job(&self, w: Workload, seed: u64) -> Option<u64> {
        self.jobs.get(&(w.name().to_string(), seed)).copied()
    }
}

/// Per-unit samples of one measured phase, in reference seconds (see
/// `calib`), plus the raw host wall times.
#[derive(Debug)]
struct Samples {
    cal: Calibrator,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    setup_s: Vec<f64>,
    host_wall_s: Vec<f64>,
}

impl Samples {
    fn new() -> Samples {
        Samples {
            cal: Calibrator::new(),
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
            setup_s: Vec::new(),
            host_wall_s: Vec::new(),
        }
    }

    /// Records one unit measured since the last call: its set-up, wall
    /// and CPU seconds, converted to reference seconds.
    fn unit(&mut self, setup: f64, wall: f64, cpu: f64) {
        let (k, k_cpu) = self.cal.factor();
        self.setup_s.push(setup * k);
        self.wall_s.push(wall * k);
        self.cpu_s.push(cpu * k_cpu);
        self.host_wall_s.push(wall);
    }

    /// Ends the measured phase; call before any output check, whose
    /// memory must not count in `peak_rss_mb`.
    fn finish(self, ios_per_unit: u64) -> Measured {
        Measured {
            wall_s: median(&self.wall_s),
            cpu_s: median(&self.cpu_s),
            peak_rss_mb: peak_rss_mb(),
            setup_s: median(&self.setup_s),
            host_wall_s: median(&self.host_wall_s),
            ios_per_unit,
            units: self.wall_s.len(),
        }
    }
}

/// What one untraced run reports.
#[derive(Debug)]
pub struct Measured {
    /// Median unit wall time, reference seconds.
    pub wall_s: f64,
    /// Median unit process CPU time, reference seconds.
    pub cpu_s: f64,
    /// Peak resident memory at the end of the measured phase, MB.
    pub peak_rss_mb: f64,
    /// Median set-up time, reference seconds.
    pub setup_s: f64,
    /// Median unit wall time, host seconds.
    pub host_wall_s: f64,
    /// Simulated I/Os per unit (0 for `reproduce_quick`, whose I/O count
    /// is internal to the experiments).
    pub ios_per_unit: u64,
    pub units: usize,
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Times `f` in wall and process-CPU seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, cpu_seconds() - c0)
}

/// Whether another unit of `next` seconds still fits before `deadline`.
fn fits(start: Instant, next: f64, deadline: Duration, units: usize) -> bool {
    units < MIN_UNITS || start.elapsed().as_secs_f64() + next <= deadline.as_secs_f64()
}

/// The digest a single-host job must reproduce: the recorded one when
/// this seed was recorded, else the benchmark's own loop over the same
/// layer calls (see `trace`), which must agree with `run_job` exactly.
pub fn reference_digest(w: Workload, seed: u64, expected: &Expected) -> u64 {
    expected
        .job(w, seed)
        .unwrap_or_else(|| report_digest(&crate::trace::job_loop(w, seed).0))
}

/// `closed_loop` / `sync_poll`: each unit builds a fresh host (set-up)
/// and runs one `run_job` (measured).
pub fn measure_job(
    w: Workload,
    seed: u64,
    seconds: Duration,
    expected: &Expected,
    checks: &mut Checks,
) -> Measured {
    let spec = job_spec(w, seed);
    let mut digests = Vec::new();
    let mut s = Samples::new();
    let start = Instant::now();
    let mut last = 0.0;
    while fits(start, last, seconds, s.wall_s.len()) {
        let t0 = Instant::now();
        let mut h = job_host(w);
        let setup = t0.elapsed().as_secs_f64();
        let (report, wall, cpu) = timed(|| run_job(&mut h, &spec));
        drop(h);
        s.unit(setup, wall, cpu);
        last = wall;
        checks.check(report.completed == spec.ios, || {
            format!(
                "{}: completed {} of {}",
                w.name(),
                report.completed,
                spec.ios
            )
        });
        digests.push(report_digest(&report));
    }
    let measured = s.finish(spec.ios);
    let want = reference_digest(w, seed, expected);
    for (i, d) in digests.iter().enumerate() {
        checks.check(*d == want, || {
            format!(
                "{} seed {seed} unit {i}: digest {d:016x}, expected {want:016x}",
                w.name()
            )
        });
    }
    measured
}

/// Checks a fleet run against the recorded per-node checksums.
pub fn check_fleet(reports: &[FleetNodeReport], expected: &Expected, checks: &mut Checks) {
    checks.check(reports.len() == expected.fleet.len(), || {
        format!(
            "fleet_2shard: {} nodes reported, {} recorded",
            reports.len(),
            expected.fleet.len()
        )
    });
    for (i, (r, want)) in reports.iter().zip(&expected.fleet).enumerate() {
        checks.check(r.checksum == *want && r.completed == FLEET_IOS, || {
            format!(
                "fleet_2shard node {i}: checksum {:016x} completed {}, expected {want:016x} / {FLEET_IOS}",
                r.checksum, r.completed
            )
        });
    }
}

/// `fleet_2shard`: set-up is the fleet built and drained with no I/O;
/// each unit is one full fleet run on two shards.
pub fn measure_fleet(seconds: Duration, expected: &Expected, checks: &mut Checks) -> Measured {
    let mut s = Samples::new();
    let start = Instant::now();
    let mut last = 0.0;
    while fits(start, last, seconds, s.wall_s.len()) {
        let t0 = Instant::now();
        std::hint::black_box(fleet(0));
        let setup = t0.elapsed().as_secs_f64();
        let (reports, wall, cpu) = timed(|| fleet(FLEET_IOS));
        s.unit(setup, wall, cpu);
        last = wall;
        check_fleet(&reports, expected, checks);
    }
    s.finish(u64::from(FLEET_NODES) * FLEET_IOS)
}

/// `BENCH_quick.json`, indexed by section: each `all` entry's expected
/// section bytes start at the recorded offset.
pub struct QuickBaseline {
    text: String,
    offsets: BTreeMap<&'static str, usize>,
}

impl QuickBaseline {
    pub fn load(path: &Path) -> Result<QuickBaseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        QuickBaseline::index(text)
    }

    pub(crate) fn index(text: String) -> Result<QuickBaseline, String> {
        let mut offsets = BTreeMap::new();
        let mut from = 0;
        for e in default_entries() {
            let key = format!("\"name\": \"{}\",", e.name);
            let at = text[from..]
                .find(&key)
                .map(|i| i + from)
                .ok_or_else(|| format!("BENCH_quick.json has no section {:?}", e.name))?;
            let open = text[..at]
                .rfind('{')
                .ok_or_else(|| format!("BENCH_quick.json: section {:?} has no '{{'", e.name))?;
            offsets.insert(e.name, open);
            from = at + key.len();
        }
        Ok(QuickBaseline { text, offsets })
    }

    /// Whether `section` (as rendered inside `reproduce all --json`)
    /// is byte-identical to the baseline's section of the same entry.
    pub fn matches(&self, name: &str, section_bytes: &str) -> bool {
        let Some(&at) = self.offsets.get(name) else {
            return false;
        };
        let rest = &self.text[at..];
        rest.starts_with(section_bytes)
            && matches!(rest.as_bytes().get(section_bytes.len()), Some(b',' | b'\n'))
    }
}

/// One entry's section exactly as `reproduce all --json` prints it:
/// rendered inside a one-section document so that indentation matches.
pub fn section_bytes(doc: &str) -> &str {
    let start = doc
        .find("\"sections\": [")
        .and_then(|i| doc[i..].find('{').map(|j| i + j))
        .expect("a one-section document has a section object");
    let close = doc.rfind(']').expect("the sections array closes");
    let end = doc[..close].rfind('}').expect("the section object closes");
    &doc[start..=end]
}

/// Runs one registry entry at quick scale on one worker and checks its
/// shape verdict and its bytes against the baseline. Returns wall and
/// CPU seconds of the run alone.
pub fn run_entry(e: &Entry, base: &QuickBaseline, checks: &mut Checks) -> (f64, f64) {
    let (section, wall, cpu) = timed(|| e.run(Scale::Quick, 1));
    let violations = section.violations.clone();
    checks.check(violations.is_empty(), || {
        format!(
            "reproduce_quick {}: shape violations {violations:?}",
            e.name
        )
    });
    let doc = json_document(Scale::Quick, vec![section]).to_pretty_string();
    checks.check(base.matches(e.name, section_bytes(&doc)), || {
        format!(
            "reproduce_quick {}: section bytes differ from BENCH_quick.json",
            e.name
        )
    });
    (wall, cpu)
}

/// Set-up shared by every `reproduce_quick` pass: read and index the
/// baseline, and build one host per testbed device (the fixed cost each
/// experiment cell pays).
pub fn reproduce_setup(root: &Path) -> Result<QuickBaseline, String> {
    let base = QuickBaseline::load(&root.join("BENCH_quick.json"))?;
    for d in Device::ALL {
        std::hint::black_box(host(d, IoPath::KernelInterrupt));
    }
    Ok(base)
}

/// `reproduce_quick`: every `all` entry round-robin; the first full pass
/// always runs, later entries only while they fit. The pass time is the
/// sum of per-entry medians, each entry calibrated on its own.
pub fn measure_reproduce(
    root: &Path,
    seconds: Duration,
    checks: &mut Checks,
) -> Result<Measured, String> {
    let mut cal = Calibrator::new();
    let mut setup = Vec::new();
    let mut base = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        base = Some(reproduce_setup(root)?);
        let t = t0.elapsed().as_secs_f64();
        setup.push(t * cal.factor().0);
    }
    let base = base.expect("SETUP_REPS > 0");
    let entries: Vec<&Entry> = default_entries().collect();
    let n = entries.len();
    let (mut walls, mut cpus, mut host) = (
        vec![Vec::new(); n],
        vec![Vec::new(); n],
        vec![Vec::new(); n],
    );
    let start = Instant::now();
    'passes: for pass in 0.. {
        for (i, e) in entries.iter().enumerate() {
            if pass > 0 && start.elapsed().as_secs_f64() + median(&host[i]) > seconds.as_secs_f64()
            {
                break 'passes;
            }
            let (wall, cpu) = run_entry(e, &base, checks);
            let (k, k_cpu) = cal.factor();
            walls[i].push(wall * k);
            cpus[i].push(cpu * k_cpu);
            host[i].push(wall);
        }
    }
    let sum = |xs: &[Vec<f64>]| xs.iter().map(|v| median(v)).sum::<f64>();
    Ok(Measured {
        wall_s: sum(&walls),
        cpu_s: sum(&cpus),
        peak_rss_mb: peak_rss_mb(),
        setup_s: median(&setup),
        host_wall_s: sum(&host),
        ios_per_unit: 0,
        units: walls.iter().map(Vec::len).sum(),
    })
}
