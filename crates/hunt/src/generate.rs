//! Seeded scenario generation: `(master_seed, trial)` → one complete
//! [`HeadlessSpec`], drawn from a declared [`Envelope`].
//!
//! The generator is a pure function of its arguments — no global RNG,
//! no time — so a hunt is reproducible from its master seed alone and
//! trials can be distributed across any number of workers without
//! changing what gets explored.

use nscc_bench::headless::HeadlessSpec;
use nscc_core::FaultPlan;
use nscc_faults::{LinkFaults, Prob};
use nscc_msg::ReliableConfig;
use nscc_sim::SimTime;

/// The generator's search space. Every bound is inclusive unless noted;
/// widening the envelope widens future hunts without invalidating old
/// repros (a repro carries its concrete scenario, not the envelope).
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Island-count range (min, max).
    pub procs: (usize, usize),
    /// Serial-baseline generation range (min, max) — small: a fuzz trial
    /// should cost a fraction of a second, not reproduce the paper.
    pub generations: (u64, u64),
    /// `Global_Read` age-bound range (min, max).
    pub ages: (u64, u64),
    /// Upper bound on the base per-frame drop probability.
    pub max_loss: f64,
    /// Upper bound on the base duplication probability.
    pub max_dup: f64,
    /// Upper bound on the base delay probability.
    pub max_delay_prob: f64,
    /// Upper bound on the injected delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Most crash events per scenario.
    pub max_crashes: u64,
    /// Most stall windows per scenario.
    pub max_stalls: u64,
    /// Whether partition windows may be generated.
    pub allow_partitions: bool,
    /// Probability that a trial runs the `inject_stale` sabotage (the
    /// deliberate age-bound violation the audit plane must catch).
    /// `1.0` turns every trial into a sabotage hunt (`--sabotage`).
    pub sabotage_prob: f64,
}

impl Default for Envelope {
    fn default() -> Self {
        Envelope {
            procs: (2, 5),
            generations: (24, 48),
            ages: (0, 30),
            max_loss: 0.25,
            max_dup: 0.05,
            max_delay_prob: 0.2,
            max_delay_ms: 20,
            max_crashes: 2,
            max_stalls: 1,
            allow_partitions: true,
            sabotage_prob: 0.05,
        }
    }
}

/// SplitMix64 over an open counter — the small deterministic PRNG behind
/// the generator: `nscc-rand`'s output function over a state the caller
/// can seed and read. `format_pin` holds the scenarios it draws.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(rand::rngs::GAMMA);
        rand::rngs::mix(self.0)
    }

    /// Uniform draw in `[0, n)`; `n` must be non-zero. (Modulo bias is
    /// irrelevant at fuzzing's tolerances.)
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn fraction(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.fraction() < p
    }
}

/// Generate trial `trial` of the hunt seeded with `master_seed`, within
/// `env`. Pure and stateless: same arguments, same scenario.
pub fn generate(master_seed: u64, trial: u64, env: &Envelope) -> HeadlessSpec {
    let mut r = SplitMix(master_seed ^ (trial + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    r.next_u64(); // decorrelate nearby trial indices

    let procs = r.range(env.procs.0 as u64, env.procs.1 as u64) as usize;
    let generations = r.range(env.generations.0, env.generations.1);
    let age = r.range(env.ages.0, env.ages.1);

    // --- fault plan -----------------------------------------------------
    let mut plan = FaultPlan::new(r.next_u64());
    if r.chance(0.7) {
        plan = plan.loss(r.fraction() * env.max_loss);
    }
    if r.chance(0.2) {
        plan = plan.duplication(r.fraction() * env.max_dup);
    }
    if r.chance(0.3) {
        plan = plan.delay(
            r.fraction() * env.max_delay_prob,
            SimTime::from_millis(r.range(1, env.max_delay_ms.max(1))),
        );
    }
    if r.chance(0.15) {
        // One asymmetric link override: a fully dead direction stresses
        // the reliable layer's give-up path.
        let src = r.below(procs as u64) as u32;
        let dst = (src + 1 + r.below(procs as u64 - 1) as u32) % procs as u32;
        plan = plan.link(
            src,
            dst,
            LinkFaults {
                drop_prob: Prob::new(1.0),
                ..LinkFaults::default()
            },
        );
    }
    for _ in 0..r.below(env.max_crashes + 1) {
        let node = r.below(procs as u64) as u32;
        let at = SimTime::from_millis(r.range(10, 2_000));
        if r.chance(0.7) {
            let restart = at + SimTime::from_millis(r.range(5, 500));
            plan = plan.crash_and_restart(node, at, restart);
        } else {
            plan = plan.crash(node, at);
        }
    }
    for _ in 0..r.below(env.max_stalls + 1) {
        let node = r.below(procs as u64) as u32;
        let from = SimTime::from_millis(r.range(10, 1_000));
        let until = from + SimTime::from_millis(r.range(1, 300));
        plan = plan.stall(node, from, until);
    }
    if env.allow_partitions && r.chance(0.15) {
        let from = SimTime::from_millis(r.range(10, 1_500));
        let until = from + SimTime::from_millis(r.range(10, 400));
        let split = 1 + r.below(procs as u64 - 1) as u32;
        plan = plan.partition(from, until, 0..split);
    }

    // --- robustness-stack knobs ------------------------------------------
    let reliable = if r.chance(0.9) {
        let base_rto = SimTime::from_millis(r.range(5, 120));
        let max_rto = SimTime::from_nanos(
            (base_rto.as_nanos() << r.below(6)).min(SimTime::from_secs(5).as_nanos()),
        );
        Some(ReliableConfig {
            base_rto,
            max_rto,
            max_retries: r.range(1, 8) as u32,
            ..ReliableConfig::default()
        })
    } else {
        None
    };

    HeadlessSpec {
        procs,
        generations,
        runs: 1,
        seed: r.next_u64(),
        age,
        plan: (!plan.is_noop()).then_some(plan),
        reliable,
        read_timeout: r
            .chance(0.8)
            .then(|| SimTime::from_millis(r.range(10, 100))),
        heartbeat: r.chance(0.8).then(|| SimTime::from_millis(r.range(5, 50))),
        watchdog: SimTime::from_secs(3600),
        inject_stale: if r.chance(env.sabotage_prob) {
            r.range(1, 4)
        } else {
            0
        },
        snapshots: r.chance(0.3).then(|| r.range(4, 16)),
        supervision: r.chance(0.4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_scenario() {
        let env = Envelope::default();
        for trial in 0..20 {
            let a = generate(42, trial, &env);
            let b = generate(42, trial, &env);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "trial {trial}");
        }
    }

    #[test]
    fn different_trials_differ() {
        let env = Envelope::default();
        let a = format!("{:?}", generate(42, 0, &env));
        let b = format!("{:?}", generate(42, 1, &env));
        assert_ne!(a, b);
    }

    #[test]
    fn scenarios_respect_the_envelope() {
        let env = Envelope::default();
        for trial in 0..200 {
            let s = generate(7, trial, &env);
            assert!(
                (env.procs.0..=env.procs.1).contains(&s.procs),
                "trial {trial}"
            );
            assert!(
                (env.generations.0..=env.generations.1).contains(&s.generations),
                "trial {trial}"
            );
            assert!((env.ages.0..=env.ages.1).contains(&s.age), "trial {trial}");
            assert_eq!(s.runs, 1);
            assert_eq!(s.watchdog, SimTime::from_secs(3600));
            if let Some(plan) = &s.plan {
                assert!(!plan.is_noop(), "trial {trial}: stored plans are non-noop");
            }
        }
    }

    #[test]
    fn sabotage_envelope_forces_inject_stale() {
        let env = Envelope {
            sabotage_prob: 1.0,
            ..Envelope::default()
        };
        for trial in 0..20 {
            assert!(generate(1, trial, &env).inject_stale > 0, "trial {trial}");
        }
    }
}
