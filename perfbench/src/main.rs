//! perfbench: the simulator's benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--commit C] [--out FILE]
//! perfbench --record      # print expected.txt for this commit
//! ```
//!
//! Run from the repository root, which holds `BENCH_quick.json`.
//!
//! `--trace 0` measures one workload for `S` seconds and reports the
//! end-to-end metrics; `--trace 1` runs the layer trace of every
//! workload and reports the per-layer metrics. The last stdout line is
//! the result object.

mod calib;
mod output;
mod sys;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use output::{quote, result_json, table, Metric};
use workloads::{Checks, Expected, Workload};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Seeds whose `closed_loop` / `sync_poll` digests `--record` writes.
const RECORD_SEEDS: u64 = 256;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    commit: String,
    out: Option<PathBuf>,
}

enum Mode {
    Run(Args),
    Record,
}

const USAGE: &str = "usage: perfbench --workload W --seed N --seconds S --trace 0|1 \
    [--commit C] [--out FILE]\n       perfbench --record";

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut out = None;
    let mut record = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--commit" => commit = value.clone(),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    if record {
        return Ok(Mode::Record);
    }
    let missing = |f: &str| format!("missing {f}\n{USAGE}");
    Ok(Mode::Run(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        commit,
        out,
    }))
}

/// The repository root: the working directory.
const ROOT: &str = ".";

fn expected_path() -> PathBuf {
    Path::new(ROOT).join("perfbench").join("expected.txt")
}

/// The run's configuration and machine, recorded beside its numbers.
/// Runs compare only when every field but `seed` and `commit` agrees.
fn fingerprint(a: &Args) -> String {
    let w = a.workload;
    format!(
        "{{\"workload\": {}, \"size\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"cpu_model\": {}, \"seed\": {}, \"seed_used\": {}, \"commit\": {}}}",
        quote(w.name()),
        quote(&w.size()),
        a.seconds.as_secs_f64(),
        u8::from(a.trace),
        sys::nproc(),
        quote(&sys::cpu_model()),
        a.seed,
        w.seeded() || a.trace,
        quote(&a.commit),
    )
}

fn run(a: &Args) -> Result<(), String> {
    let expected = Expected::load(&expected_path())?;
    let fp = fingerprint(a);
    println!("fingerprint: {fp}");
    let mut checks = Checks::default();
    let metrics = if a.trace {
        trace::trace_all(Path::new(ROOT), a.seed, &expected, &mut checks)?
    } else {
        let w = a.workload;
        let m = match w {
            Workload::ClosedLoop | Workload::SyncPoll => {
                workloads::measure_job(w, a.seed, a.seconds, &expected, &mut checks)
            }
            Workload::Fleet2Shard => workloads::measure_fleet(a.seconds, &expected, &mut checks),
            Workload::ReproduceQuick => {
                workloads::measure_reproduce(Path::new(ROOT), a.seconds, &mut checks)?
            }
        };
        let values = [m.wall_s, m.cpu_s, m.peak_rss_mb, m.setup_s];
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect();
        println!(
            "units measured: {}; median unit wall {:.6} host s = {:.6} reference s",
            m.units, m.host_wall_s, m.wall_s
        );
        if m.ios_per_unit > 0 {
            println!(
                "sim_ios_per_s: {:.0} host, {:.0} reference ({} simulated I/Os per unit)",
                m.ios_per_unit as f64 / m.host_wall_s,
                m.ios_per_unit as f64 / m.wall_s,
                m.ios_per_unit
            );
        }
        metrics
    };
    print!("{}", table(&metrics));
    println!(
        "failed_frac: {} ({} of {} checks failed)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    let result = result_json(
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        &metrics,
    );
    if let Some(path) = &a.out {
        let record = format!("{{\"fingerprint\": {fp}, \"result\": {result}}}\n");
        std::fs::write(path, record)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(())
}

/// Prints `expected.txt`: run_job digests for seeds `0..RECORD_SEEDS`
/// of both single-host workloads, then the fleet's node checksums.
fn record() -> Result<(), String> {
    // The quick baseline must already match, or the recorded outputs
    // would belong to a different program.
    let base = workloads::reproduce_setup(Path::new(ROOT))?;
    let mut checks = Checks::default();
    for e in ull_study::registry::default_entries() {
        workloads::run_entry(e, &base, &mut checks);
    }
    if checks.failed > 0 {
        return Err("reproduce all differs from BENCH_quick.json; not recording".into());
    }
    println!("# Expected outputs for perfbench; regenerate with `perfbench --record`.");
    println!("# <workload> <seed> <run_job report digest>");
    for w in [Workload::ClosedLoop, Workload::SyncPoll] {
        for seed in 0..RECORD_SEEDS {
            let spec = workloads::job_spec(w, seed);
            let r = ull_workload::run_job(&mut workloads::job_host(w), &spec);
            println!("{} {seed} {:016x}", w.name(), workloads::report_digest(&r));
        }
    }
    println!("# fleet_2shard <node> <checksum>");
    for (i, r) in workloads::fleet(workloads::FLEET_IOS).iter().enumerate() {
        println!("fleet_2shard {i} {:016x}", r.checksum);
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Mode::Run(a)) => run(&a),
        Ok(Mode::Record) => record(),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
