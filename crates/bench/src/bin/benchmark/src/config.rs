//! Every size, seed and estimation setting the workloads use.
//!
//! They are pinned here, inside the benchmark, so that no change elsewhere
//! in the repository (a new library default, a smaller test profile) can
//! shrink or grow a workload behind the benchmark's back.

use pgfmu_estimation::EstimationConfig;

/// Workload sizes. [`FULL`] is what the benchmark measures; [`TINY`] runs
/// the same code paths in well under a second for the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Calibration settings of `si_calibrate` and `mi_calibrate`.
    pub estimation: EstimationConfig,
    /// Hourly HP1 samples per `si_calibrate` dataset.
    pub si_samples: usize,
    /// Scaling factors δ of the `si_calibrate` datasets; the first is 1.
    pub si_deltas: &'static [f64],
    /// Allowed relative distance of the δ = 1 estimate from the true
    /// `Cp = R = 1.5`.
    pub si_truth_tolerance: f64,
    /// Warm-up operations (untimed) before each timed phase.
    pub si_warmup: usize,
    /// Half-hourly Classroom samples per `mi_calibrate` instance.
    pub mi_samples: usize,
    /// Scaling factors δ of the `mi_calibrate` instances, one per instance
    /// of a batch; the first (the anchor) is 1.
    pub mi_deltas: &'static [f64],
    /// Warm-up batches.
    pub mi_warmup: usize,
    /// Batches a timed phase runs at least: one batch takes about 3 s, so
    /// a 10 s phase alone would give the percentiles three samples.
    pub mi_min_batches: usize,
    /// HP1 instances simulated per `sim_store` round.
    pub sim_instances: usize,
    /// Simulated hours per `sim_store` operation.
    pub sim_hours: usize,
    /// Warm-up rounds.
    pub sim_warmup_rounds: usize,
    /// Sensors of the `ingest_query` table.
    pub ingest_sensors: usize,
    /// Hours kept live by the retention delete.
    pub ingest_hours: usize,
    /// Reads of each of the three shapes per tick.
    pub ingest_reads_per_shape: usize,
    /// Ticks between two vacuums.
    pub ingest_vacuum_every: usize,
    /// Warm-up ticks.
    pub ingest_warmup: usize,
}

/// The calibration settings both calibration workloads run with: a
/// population of 24 over 18 generations, every other field at the value
/// the library shipped as its default when the benchmark was defined, and
/// one worker so that the run is single-threaded.
pub const ESTIMATION: EstimationConfig = EstimationConfig {
    population: 24,
    generations: 18,
    tournament: 3,
    mutation_prob: 0.25,
    mutation_scale: 0.15,
    elitism: 2,
    local_max_iters: 20,
    local_tol: 1e-10,
    mi_threshold: 0.20,
    lo_neighborhood: 0.023,
    seed: 0xB10C_5EED,
    workers: 1,
    local_starts: 1,
};

/// The measured sizes.
pub const FULL: Sizes = Sizes {
    estimation: ESTIMATION,
    si_samples: 168,
    si_deltas: &[1.0, 0.85, 0.9, 0.95, 1.05, 1.1, 1.15, 1.2],
    si_truth_tolerance: 0.10,
    si_warmup: 2,
    mi_samples: 336,
    mi_deltas: &[1.0, 0.91, 0.93, 0.95, 0.97, 1.03, 1.05, 1.07, 1.09, 1.1],
    mi_warmup: 1,
    mi_min_batches: 10,
    sim_instances: 100,
    sim_hours: 672,
    sim_warmup_rounds: 1,
    ingest_sensors: 100,
    ingest_hours: 672,
    ingest_reads_per_shape: 4,
    ingest_vacuum_every: 24,
    ingest_warmup: 24,
};

/// Smoke-test sizes: every workload, every check, a fraction of the work.
#[cfg(test)]
pub const TINY: Sizes = Sizes {
    estimation: EstimationConfig {
        population: 12,
        generations: 6,
        ..ESTIMATION
    },
    si_samples: 48,
    si_deltas: &[1.0, 1.1],
    si_truth_tolerance: 0.5,
    si_warmup: 1,
    mi_samples: 48,
    mi_deltas: &[1.0, 0.95, 1.05],
    mi_warmup: 1,
    mi_min_batches: 1,
    sim_instances: 3,
    sim_hours: 48,
    sim_warmup_rounds: 1,
    ingest_sensors: 5,
    ingest_hours: 48,
    ingest_reads_per_shape: 1,
    ingest_vacuum_every: 2,
    ingest_warmup: 2,
};

/// Generator seed of the Classroom data `mi_calibrate` calibrates on.
///
/// How many evaluations the LO tail needs depends on the data: across
/// seeds one batch took 1,400 to 2,000 evaluations, which moved its time
/// by 40 %. So the data is pinned, and the workload seed only decides
/// which tail instance gets which scaled copy — the same work in a
/// different arrangement — and a run-to-run spread measures the code.
pub const MI_DATA_SEED: u64 = 42;

/// Default run length of one workload when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Default workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

/// Timed phases per run at most: a phase whose host steal exceeds
/// [`MAX_STEAL`] is run again, once: a host that steals through two phases
/// in a row seldom spares a third, and a third `mi_calibrate` phase would
/// add another 25 s to the run.
pub const MAX_ATTEMPTS: usize = 2;

/// Highest share of CPU time the hypervisor may steal during a timed phase
/// before the phase is run again.
pub const MAX_STEAL: f64 = 0.02;

/// Trajectory replays per traced operation; the layer split uses their
/// median.
pub const REPLAYS: usize = 9;
