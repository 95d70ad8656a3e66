//! fio-like job specifications.

use ull_simkit::{Label, SimDuration};

/// Spatial access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Ascending offsets, wrapping at the working set.
    Sequential,
    /// Uniformly random aligned offsets.
    Random,
    /// Zipfian offsets (hot spots), exponent 1.0ish.
    Zipf,
}

/// Which fio engine the job models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Synchronous `preadv2`/`pwritev2` — used by the completion-method
    /// experiments (figs. 9-16); honours the host's completion path.
    Pvsync2,
    /// Asynchronous `libaio` with a queue depth — used by the
    /// device-characterization experiments (figs. 4-8); interrupt
    /// completion.
    Libaio,
    /// The SPDK fio plugin — asynchronous over the SPDK path.
    SpdkPlugin,
}

/// A complete workload description (the subset of fio options the paper's
/// experiments use, plus `O_DIRECT` semantics which are implicit: the
/// simulator has no page cache).
///
/// # Examples
///
/// ```
/// use ull_workload::{Engine, JobSpec, Pattern};
///
/// let job = JobSpec::new("randread")
///     .pattern(Pattern::Random)
///     .read_fraction(1.0)
///     .block_size(4096)
///     .iodepth(16)
///     .engine(Engine::Libaio)
///     .ios(10_000);
/// assert_eq!(job.iodepth, 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name for reports. A [`Label`], so fixed names (string
    /// literals) never allocate and sweep-generated names are shared by
    /// reference instead of deep-copied into each report.
    pub name: Label,
    /// Spatial pattern.
    pub pattern: Pattern,
    /// Fraction of operations that are reads (1.0 = read-only).
    pub read_fraction: f64,
    /// Block size in bytes.
    pub block_size: u32,
    /// Outstanding I/Os (async engines; `Pvsync2` is depth 1).
    pub iodepth: u32,
    /// Engine model.
    pub engine: Engine,
    /// Number of I/Os to complete.
    pub ios: u64,
    /// Bytes of device address space the job touches (0 = whole device).
    pub working_set: u64,
    /// RNG seed.
    pub seed: u64,
    /// Think time inserted between a completion and the next submission.
    pub think_time: SimDuration,
}

impl JobSpec {
    /// Creates a job with fio-like defaults: 4 KB random reads, depth 1,
    /// `pvsync2`, 10k I/Os.
    pub fn new(name: impl Into<Label>) -> Self {
        JobSpec {
            name: name.into(),
            pattern: Pattern::Random,
            read_fraction: 1.0,
            block_size: 4096,
            iodepth: 1,
            engine: Engine::Pvsync2,
            ios: 10_000,
            working_set: 0,
            seed: 0xF10,
            think_time: SimDuration::ZERO,
        }
    }

    /// Sets the spatial pattern.
    pub fn pattern(mut self, p: Pattern) -> Self {
        self.pattern = p;
        self
    }

    /// Sets the read fraction (`1.0` read-only, `0.0` write-only).
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn read_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "read fraction must be in [0,1]");
        self.read_fraction = f;
        self
    }

    /// Sets the block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if zero or not 4 KB-aligned.
    pub fn block_size(mut self, bs: u32) -> Self {
        assert!(
            bs > 0 && bs.is_multiple_of(4096),
            "block size must be a positive multiple of 4KB"
        );
        self.block_size = bs;
        self
    }

    /// Sets the queue depth.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn iodepth(mut self, d: u32) -> Self {
        assert!(d > 0, "iodepth must be positive");
        self.iodepth = d;
        self
    }

    /// Sets the engine.
    pub fn engine(mut self, e: Engine) -> Self {
        self.engine = e;
        self
    }

    /// Sets the number of I/Os to complete.
    pub fn ios(mut self, n: u64) -> Self {
        self.ios = n;
        self
    }

    /// Restricts the working set (bytes).
    pub fn working_set(mut self, bytes: u64) -> Self {
        self.working_set = bytes;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Adds think time between I/Os.
    pub fn think_time(mut self, t: SimDuration) -> Self {
        self.think_time = t;
        self
    }

    /// The pattern and read fraction of a fio-style `rw` mode string, or
    /// `None` for an unknown mode (see [`rw`](Self::rw)).
    pub fn parse_rw(mode: &str) -> Option<(Pattern, f64)> {
        match mode {
            "seqread" | "read" => Some((Pattern::Sequential, 1.0)),
            "randread" => Some((Pattern::Random, 1.0)),
            "seqwrite" | "write" => Some((Pattern::Sequential, 0.0)),
            "randwrite" => Some((Pattern::Random, 0.0)),
            "randrw" => Some((Pattern::Random, 0.5)),
            _ => None,
        }
    }

    /// fio-style shorthand: `"seqread"`, `"randread"`, `"seqwrite"`,
    /// `"randwrite"`, `"randrw"`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown mode string.
    pub fn rw(mut self, mode: &str) -> Self {
        let Some((pattern, frac)) = Self::parse_rw(mode) else {
            panic!("unknown rw mode {mode:?}");
        };
        self.pattern = pattern;
        self.read_fraction = frac;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Exact constants flow through the builder untouched; bit-equality is
    // the point of the assertion.
    #[allow(clippy::float_cmp)]
    fn defaults_are_fio_like() {
        let j = JobSpec::new("x");
        assert_eq!(j.block_size, 4096);
        assert_eq!(j.iodepth, 1);
        assert_eq!(j.engine, Engine::Pvsync2);
        assert_eq!(j.read_fraction, 1.0);
    }

    #[test]
    #[allow(clippy::float_cmp)]
    fn rw_shorthand() {
        let j = JobSpec::new("x").rw("randwrite");
        assert_eq!(j.pattern, Pattern::Random);
        assert_eq!(j.read_fraction, 0.0);
        let j = JobSpec::new("x").rw("randrw");
        assert_eq!(j.read_fraction, 0.5);
    }

    #[test]
    #[should_panic(expected = "unknown rw mode")]
    fn bad_rw_mode_panics() {
        JobSpec::new("x").rw("sideways");
    }

    #[test]
    #[should_panic(expected = "multiple of 4KB")]
    fn bad_block_size_panics() {
        JobSpec::new("x").block_size(512);
    }
}
