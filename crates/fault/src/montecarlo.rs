//! Monte-Carlo availability estimates cross-checking the closed forms.
//!
//! [`now_raid::availability::FailureModel`] gives the paper's
//! back-of-envelope formulas; these estimators *simulate* the same
//! failure/repair processes with exponential draws from a seeded
//! [`SimRng`] and average over many trials. Agreement between the two is
//! the `repro availability` report's first table.
//!
//! # Seed splitting and parallelism
//!
//! Every estimator derives one child seed per trial from the root seed
//! (`SimRng::fork_seed`, drawn serially up front), so trial *i* consumes
//! its own private random stream. That makes each trial an independent
//! pure function of its seed, which lets every estimator fan the
//! trials out over [`now_sim::parallel::run_indexed`] worker threads
//! while returning per-trial samples in input order. The mean is then a
//! sequential sum over that ordered list, so the result is bit-identical
//! for any worker count — `f(seed, jobs=8) == f(seed, jobs=1)` exactly,
//! not just statistically.

use now_raid::availability::FailureModel;
use now_sim::parallel::run_indexed;
use now_sim::SimRng;

/// One private seed per trial, drawn serially from the root seed.
///
/// The draw order is fixed (trial 0 first), so the seed list — and hence
/// every trial's stream — is a function of `seed` alone, independent of
/// how the trials are later scheduled across workers.
fn trial_seeds(seed: u64, trials: u64) -> Vec<u64> {
    let mut root = SimRng::new(seed);
    (0..trials).map(|_| root.fork_seed()).collect()
}

/// Mean of per-trial samples, summed sequentially in trial order.
///
/// Summation order is part of the contract: floating-point addition is
/// not associative, and keeping the serial order is what makes parallel
/// estimates bit-identical to serial ones.
fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Monte-Carlo mean time to data loss (hours) of an `n`-disk RAID-5.
///
/// Each trial alternates: wait for a first disk failure (rate `n/MTTF`),
/// then race the repair (mean `mttr_hours`) against a second failure
/// among the surviving `n-1` disks. Data is lost when the second failure
/// wins. Exponentials are memoryless, so surviving disks need no age
/// bookkeeping.
///
/// The trials fan out over `jobs` workers; the estimate is
/// bit-identical for any `jobs`.
///
/// # Panics
///
/// Panics if `n < 2` or `trials == 0`.
pub fn raid5_mttdl_hours(model: &FailureModel, n: u32, trials: u64, seed: u64, jobs: usize) -> f64 {
    assert!(n >= 2, "a parity group needs at least two disks");
    assert!(trials > 0, "need at least one trial");
    let seeds = trial_seeds(seed, trials);
    let samples = run_indexed(jobs, &seeds, |_, &s| {
        raid5_trial(model, f64::from(n), &mut SimRng::new(s))
    });
    mean(&samples)
}

fn raid5_trial(model: &FailureModel, n: f64, rng: &mut SimRng) -> f64 {
    let mut t = 0.0;
    loop {
        t += rng.exponential(model.disk_mttf_hours / n);
        let repair = rng.exponential(model.mttr_hours);
        let second = rng.exponential(model.disk_mttf_hours / (n - 1.0));
        if second < repair {
            return t + second;
        }
        t += repair;
    }
}

/// Monte-Carlo mean time to service loss (hours) of the serverless
/// software RAID on `n` workstation nodes.
///
/// A node outage is either a disk failure (outage lasts a replacement
/// cycle) or a host crash (outage lasts a reboot); service is lost when a
/// second node goes out while the first is still down.
///
/// The trials fan out over `jobs` workers; the estimate is
/// bit-identical for any `jobs`.
///
/// # Panics
///
/// Panics if `n < 2` or `trials == 0`.
pub fn software_service_mttf_hours(
    model: &FailureModel,
    n: u32,
    trials: u64,
    seed: u64,
    jobs: usize,
) -> f64 {
    assert!(n >= 2, "serverless RAID needs at least two nodes");
    assert!(trials > 0, "need at least one trial");
    let seeds = trial_seeds(seed, trials);
    let samples = run_indexed(jobs, &seeds, |_, &s| {
        software_trial(model, f64::from(n), &mut SimRng::new(s))
    });
    mean(&samples)
}

fn software_trial(model: &FailureModel, nf: f64, rng: &mut SimRng) -> f64 {
    let node_rate = 1.0 / model.disk_mttf_hours + 1.0 / model.host_mttf_hours;
    let disk_share = (1.0 / model.disk_mttf_hours) / node_rate;
    let mut t = 0.0;
    loop {
        t += rng.exponential(1.0 / (nf * node_rate));
        let outage = if rng.chance(disk_share) {
            rng.exponential(model.mttr_hours)
        } else {
            rng.exponential(model.reboot_hours)
        };
        let second = rng.exponential(1.0 / ((nf - 1.0) * node_rate));
        if second < outage {
            return t + second;
        }
        t += outage;
    }
}

/// Monte-Carlo mean time to service loss (hours) of a hardware RAID-5
/// behind a single host: whichever comes first, the double disk failure
/// or the host crash.
///
/// The trials fan out over `jobs` workers; the estimate is
/// bit-identical for any `jobs`.
///
/// # Panics
///
/// Panics if `n < 2` or `trials == 0`.
pub fn hardware_service_mttf_hours(
    model: &FailureModel,
    n: u32,
    trials: u64,
    seed: u64,
    jobs: usize,
) -> f64 {
    assert!(n >= 2, "a parity group needs at least two disks");
    assert!(trials > 0, "need at least one trial");
    let seeds = trial_seeds(seed, trials);
    let samples = run_indexed(jobs, &seeds, |_, &s| {
        let rng = &mut SimRng::new(s);
        let host = rng.exponential(model.host_mttf_hours);
        let raid = raid5_trial(model, f64::from(n), rng);
        host.min(raid)
    });
    mean(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative error between a Monte-Carlo estimate and a closed form.
    fn rel_err(mc: f64, closed: f64) -> f64 {
        (mc - closed).abs() / closed
    }

    #[test]
    fn raid5_mttdl_matches_closed_form() {
        let m = FailureModel::paper_defaults();
        for n in [8, 16] {
            let mc = raid5_mttdl_hours(&m, n, 2_000, 42, 1);
            let closed = m.raid5_mttdl_hours(n);
            assert!(
                rel_err(mc, closed) < 0.15,
                "n={n}: MC {mc:.0} h vs closed {closed:.0} h"
            );
        }
    }

    #[test]
    fn software_service_matches_closed_form() {
        let m = FailureModel::paper_defaults();
        for n in [8, 16] {
            let mc = software_service_mttf_hours(&m, n, 2_000, 42, 1);
            let closed = m.software_raid_service_mttf_hours(n);
            assert!(
                rel_err(mc, closed) < 0.15,
                "n={n}: MC {mc:.0} h vs closed {closed:.0} h"
            );
        }
    }

    #[test]
    fn hardware_service_matches_closed_form() {
        let m = FailureModel::paper_defaults();
        for n in [8, 16] {
            let mc = hardware_service_mttf_hours(&m, n, 2_000, 42, 1);
            let closed = m.hardware_raid_service_mttf_hours(n);
            assert!(
                rel_err(mc, closed) < 0.15,
                "n={n}: MC {mc:.0} h vs closed {closed:.0} h"
            );
        }
    }

    #[test]
    fn estimates_are_deterministic_per_seed() {
        let m = FailureModel::paper_defaults();
        assert_eq!(
            raid5_mttdl_hours(&m, 8, 500, 7, 1),
            raid5_mttdl_hours(&m, 8, 500, 7, 1)
        );
        assert_ne!(
            raid5_mttdl_hours(&m, 8, 500, 7, 1),
            raid5_mttdl_hours(&m, 8, 500, 8, 1)
        );
    }

    /// Widening `trials` to u64 and splitting seeds per trial must not
    /// drift silently: the n=2_000 estimates at the canonical seed are
    /// pinned bit-for-bit. If an intentional change to the trial bodies
    /// or the seeding scheme moves these, re-pin them deliberately.
    #[test]
    fn n2000_estimates_are_pinned() {
        let m = FailureModel::paper_defaults();
        let pinned = [
            (
                raid5_mttdl_hours(&m, 8, 2_000, 42, 1),
                0x417c20fe0b39d3e7u64,
            ),
            (
                software_service_mttf_hours(&m, 8, 2_000, 42, 1),
                0x40ec7b9ce759a362u64,
            ),
            (
                hardware_service_mttf_hours(&m, 8, 2_000, 42, 1),
                0x408e0568a217ff55u64,
            ),
        ];
        for (i, (got, want)) in pinned.iter().enumerate() {
            assert_eq!(
                got.to_bits(),
                *want,
                "estimator #{i}: got {got} ({:#018x}), pinned {:#018x}",
                got.to_bits(),
                want
            );
        }
    }

    /// The whole point of per-trial seeds: worker count cannot change the
    /// estimate, bit for bit.
    #[test]
    fn parallel_estimates_are_bit_identical_to_serial() {
        let m = FailureModel::paper_defaults();
        let serial = (
            raid5_mttdl_hours(&m, 8, 2_000, 42, 1),
            software_service_mttf_hours(&m, 8, 2_000, 42, 1),
            hardware_service_mttf_hours(&m, 8, 2_000, 42, 1),
        );
        for jobs in [2, 8] {
            assert_eq!(
                serial.0.to_bits(),
                raid5_mttdl_hours(&m, 8, 2_000, 42, jobs).to_bits(),
                "raid5 jobs={jobs}"
            );
            assert_eq!(
                serial.1.to_bits(),
                software_service_mttf_hours(&m, 8, 2_000, 42, jobs).to_bits(),
                "software jobs={jobs}"
            );
            assert_eq!(
                serial.2.to_bits(),
                hardware_service_mttf_hours(&m, 8, 2_000, 42, jobs).to_bits(),
                "hardware jobs={jobs}"
            );
        }
    }
}
