//! What every workload shares: the run configuration, the outcome it
//! reports, repeated set-up timing, the quality normaliser and the seed
//! derivation.

use crate::cpu::{self, ThreadCpu};
use crate::speed::SpeedProbe;
use crate::stats;
use cfaopc_eval::Json;
use cfaopc_fft::parallel::{par_map, worker_count};
use cfaopc_grid::{perimeter, BitGrid};
use cfaopc_litho::{LithoConfig, LithoSimulator};
use std::time::Instant;

/// How large a workload runs: the benchmark's size, or the small
/// counterpart the test suite drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as `BENCHMARK.json` defines it.
    Full,
    /// The same code paths on inputs small enough for `cargo test`.
    Small,
}

/// One invocation of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the timed phase measures (untraced runs).
    pub seconds: f64,
    /// Per-layer ledger run instead of the end-to-end measurement.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Set-up is repeated this many times before the timed phase and as
/// many times after it, and the median of all of them is reported. It
/// takes milliseconds, so many repetitions cost nothing; spreading them
/// over both ends of the run keeps one moment of the machine's speed
/// from setting the number.
pub const SETUP_REPS: usize = 15;

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Items and checks attempted.
    pub attempted: usize,
    /// One message per failed item or check.
    pub failures: Vec<String>,
    /// Extra detail for the `--out` record (sample counts, span table).
    pub details: Vec<(String, Json)>,
}

impl Outcome {
    /// Counts one attempted check or item, recording `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a detail entry.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_string(), value));
    }

    /// Records a timing distribution (seconds) as a detail entry.
    pub fn detail_summary(&mut self, key: &str, samples: &[f64]) {
        if let Some(s) = stats::Summary::of(samples) {
            self.detail(key, s.to_json());
        }
    }

    fn detail_samples(&mut self, key: &str, samples: &[f64]) {
        self.detail(
            key,
            Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect()),
        );
    }
}

/// The CPU cost of a run's passes over the workload's inputs. Each pass
/// is followed by a reference shot (see [`crate::speed`]); the run's
/// shots scale its costs to reference speed.
#[derive(Debug, Default)]
pub struct PassCosts {
    probe: SpeedProbe,
    pass_start_cpu_s: f64,
    /// Process CPU seconds per item of each pass, as measured.
    raw: Vec<f64>,
}

impl PassCosts {
    /// Marks the start of a pass.
    ///
    /// # Errors
    ///
    /// Returns a message where process CPU time is unavailable.
    pub fn start(&mut self) -> Result<(), String> {
        self.pass_start_cpu_s = cpu::process_cpu_s()?;
        Ok(())
    }

    /// Ends the pass started last, which completed `items` items, and
    /// takes its reference shot.
    ///
    /// # Errors
    ///
    /// Returns a message where CPU time is unavailable.
    pub fn end(&mut self, items: usize) -> Result<(), String> {
        self.raw
            .push((cpu::process_cpu_s()? - self.pass_start_cpu_s) / items as f64);
        self.probe.shot()
    }

    /// Passes ended so far.
    pub fn passes(&self) -> usize {
        self.raw.len()
    }

    /// Records `setup_s` from `setups` and the cost metric,
    /// `cpu_s_per_item`: the run's process CPU seconds per item — the
    /// mean over its passes, which all do the same work — at reference
    /// speed. CPU time leaves out steal and waits (see [`crate::cpu`]),
    /// and the scaling removes the drift in the host's speed. Whole-run
    /// means average out a burst in one pass or one
    /// shot; a median of per-pass ratios carries each single shot's
    /// noise and spread about half again as much across runs. The raw
    /// samples, the shots, and the wall-clock latency of every item —
    /// count, median and the highest percentile with enough samples
    /// beyond it — go to the details.
    ///
    /// # Errors
    ///
    /// Returns a message when no pass or no set-up completed.
    pub fn record(
        &self,
        out: &mut Outcome,
        setups: &SetupTimes,
        latency: &[f64],
    ) -> Result<(), String> {
        let (Some(raw), Some(factor), Some(summary)) = (
            stats::mean(&self.raw),
            self.probe.factor(),
            stats::Summary::of(latency),
        ) else {
            return Err("no pass completed".into());
        };
        setups.record(out, factor)?;
        out.metric("cpu_s_per_item", raw * factor);
        out.detail("passes", Json::Num(self.passes() as f64));
        out.detail_samples("cpu_s_per_item_raw", &self.raw);
        out.detail_samples("reference_shot_s", self.probe.shots());
        out.detail("item_s", summary.to_json());
        Ok(())
    }
}

/// Set-up costs of one run, seconds: the CPU time every thread of the
/// process spent on each set-up, and its wall time.
#[derive(Debug, Default)]
pub struct SetupTimes {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl SetupTimes {
    /// Runs `setup` [`SETUP_REPS`] times, timing each, and returns the
    /// last result. Each earlier result goes to `teardown` before the
    /// next set-up starts, outside the timing, so every repetition after
    /// the first finds the allocator in the same state; otherwise
    /// repetitions alternate between reusing freed memory and faulting
    /// in fresh pages, and the median lands on either.
    ///
    /// # Errors
    ///
    /// Propagates the first set-up or teardown failure.
    pub fn repeat<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<T, String>,
        mut teardown: impl FnMut(T) -> Result<(), String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            if let Some(previous) = last.take() {
                teardown(previous)?;
            }
            let before = ThreadCpu::read()?;
            let (value, wall) = timed(&mut setup);
            self.cpu.push(before.since()?);
            self.wall.push(wall);
            last = Some(value?);
        }
        last.ok_or_else(|| "no set-up ran".into())
    }

    /// Records `setup_s`, the median CPU time of every set-up timed,
    /// scaled to reference speed by `factor`; the CPU and wall times as
    /// measured go to the details. CPU time, because a set-up lasts
    /// milliseconds and wakes the pool's threads several times: on a
    /// shared host the waits for a core stretched its wall time up to
    /// threefold within minutes, while its CPU time at reference speed
    /// held within 13 %.
    ///
    /// # Errors
    ///
    /// Returns a message when no set-up was timed.
    fn record(&self, out: &mut Outcome, factor: f64) -> Result<(), String> {
        let (Some(cpu), Some(wall)) = (
            stats::Summary::of(&self.cpu),
            stats::Summary::of(&self.wall),
        ) else {
            return Err("no set-up ran".into());
        };
        out.metric("setup_s", cpu.p50 * factor);
        out.detail("setup_cpu_s_raw", cpu.to_json());
        out.detail("setup_wall_s", wall.to_json());
        Ok(())
    }
}

/// Readies an optical setup: builds its simulator, starts the worker
/// pool, and images `first` — an input's target at the simulator's grid
/// size — at the three process corners. Set-up ends with that first
/// image because the build alone takes well under a millisecond, too
/// short to time steadily, and because work a simulator defers to its
/// first call belongs to set-up too. Returns the simulator and its
/// build time in seconds.
///
/// # Errors
///
/// Returns a message for an invalid configuration or a failed image.
pub fn ready_optical_setup(
    config: &LithoConfig,
    first: &BitGrid,
) -> Result<(LithoSimulator, f64), String> {
    let (sim, build_s) = timed(|| LithoSimulator::new(config.clone()));
    let sim = sim.map_err(|e| e.to_string())?;
    par_map(worker_count(), |i| i);
    sim.aerial_corners(&first.to_real())
        .map_err(|e| e.to_string())?;
    Ok((sim, build_s))
}

/// Times one call in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), MB.
///
/// # Errors
///
/// Returns a message where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CircleOpt mask quality summed over a workload's benchmark-tile inputs
/// and normalised by the targets' edge length: L2 and PVB per nm of
/// target edge (nm), shots per µm of edge. Seed-generated inputs are
/// left out, so the numbers do not move with the seed and any change
/// is the optimizer's; their outputs are still checked run against run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    l2_nm2: f64,
    pvb_nm2: f64,
    shots: f64,
    edge_nm: f64,
}

impl Quality {
    /// Adds one input's CircleOpt result; `target` is the raster it was
    /// optimized against, at `pixel_nm`.
    pub fn add(
        &mut self,
        l2_nm2: f64,
        pvb_nm2: f64,
        shots: usize,
        target: &BitGrid,
        pixel_nm: f64,
    ) {
        self.l2_nm2 += l2_nm2;
        self.pvb_nm2 += pvb_nm2;
        self.shots += shots as f64;
        self.edge_nm += perimeter(target) as f64 * pixel_nm;
    }

    /// Records the three quality metrics.
    ///
    /// # Errors
    ///
    /// Returns a message when no target edge was recorded.
    pub fn record(&self, out: &mut Outcome) -> Result<(), String> {
        if self.edge_nm <= 0.0 {
            return Err("quality: no target edge recorded".into());
        }
        out.metric("opt_l2_per_edge_nm", self.l2_nm2 / self.edge_nm);
        out.metric("opt_pvb_per_edge_nm", self.pvb_nm2 / self.edge_nm);
        out.metric("opt_shots_per_um", self.shots / (self.edge_nm / 1000.0));
        Ok(())
    }
}

/// Derives the `stream`-th input seed from the workload seed
/// (SplitMix64), kept below 10⁶ so it survives a JSON round trip and
/// reads well in case names.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_grid::{fill_rect, Rect};

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(5, 0), derive_seed(5, 0));
        assert_ne!(derive_seed(5, 0), derive_seed(5, 1));
        assert_ne!(derive_seed(5, 0), derive_seed(6, 0));
        assert!((0..100).all(|s| derive_seed(s, 3) < 1_000_000));
    }

    #[test]
    fn quality_is_normalised_by_edge_length() {
        let mut target = BitGrid::new(16, 16);
        fill_rect(&mut target, Rect::new(4, 4, 12, 12));
        let mut q = Quality::default();
        // 28 boundary pixels at 2 nm/px = 56 nm of edge.
        q.add(112.0, 56.0, 14, &target, 2.0);
        let mut out = Outcome::default();
        q.record(&mut out).unwrap();
        assert_eq!(
            out.metrics,
            vec![
                ("opt_l2_per_edge_nm", 2.0),
                ("opt_pvb_per_edge_nm", 1.0),
                ("opt_shots_per_um", 250.0)
            ]
        );
        assert!(Quality::default().record(&mut Outcome::default()).is_err());
    }

    fn spin(seconds: f64) {
        let start = Instant::now();
        let mut x = 0u64;
        while since(start) < seconds {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
    }

    #[test]
    fn pass_costs_are_scaled_run_means() {
        let mut costs = PassCosts::default();
        let mut setups = SetupTimes::default();
        setups.repeat(|| Ok(()), |()| Ok(())).unwrap();
        assert!(costs
            .record(&mut Outcome::default(), &setups, &[1.0])
            .is_err());
        for _ in 0..3 {
            costs.start().unwrap();
            spin(0.05);
            costs.end(5).unwrap();
        }
        assert_eq!(costs.passes(), 3);
        assert_eq!(costs.probe.shots().len(), 3);
        let mut out = Outcome::default();
        costs.record(&mut out, &setups, &[1.0, 2.0]).unwrap();
        let factor = costs.probe.factor().unwrap();
        let setup = stats::median(&setups.cpu).unwrap() * factor;
        let cost = stats::mean(&costs.raw).unwrap() * factor;
        assert_eq!(
            out.metrics,
            vec![("setup_s", setup), ("cpu_s_per_item", cost)]
        );
    }

    #[test]
    fn setup_times_pool_every_repetition() {
        let mut times = SetupTimes::default();
        let mut built = 0;
        let mut torn_down = Vec::new();
        let mut next = || {
            built += 1;
            Ok(built)
        };
        let last = times.repeat(&mut next, |v| {
            torn_down.push(v);
            Ok(())
        });
        assert_eq!(last, Ok(SETUP_REPS));
        assert_eq!(torn_down, (1..SETUP_REPS).collect::<Vec<_>>());
        times.repeat(&mut next, |_| Ok(())).unwrap();
        assert_eq!(
            (times.cpu.len(), times.wall.len()),
            (2 * SETUP_REPS, 2 * SETUP_REPS)
        );
        let mut out = Outcome::default();
        times.record(&mut out, 0.5).unwrap();
        let median = stats::median(&times.cpu).unwrap();
        assert_eq!(out.metrics, vec![("setup_s", median * 0.5)]);
        assert!(SetupTimes::default().record(&mut out, 1.0).is_err());
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut out = Outcome::default();
        out.check(true, || "fine".into());
        out.check(false, || "broken".into());
        assert_eq!(out.attempted, 2);
        assert_eq!(out.failures, vec!["broken".to_string()]);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
