//! The compute-cost model: converts GA work into virtual CPU time.
//!
//! The paper measured real seconds on 77 MHz RS/6000-591 nodes; we charge
//! calibrated virtual time per unit of GA work instead (see DESIGN.md §2).
//! The model includes multiplicative jitter and rare "hiccups" — transient
//! OS/daemon interference — because load skew between nodes is one of the
//! two effects `Global_Read` tolerates (the other being network delay).

use rand::rngs::StdRng;
use rand::Rng;

use nscc_sim::SimTime;

use crate::population::GenWork;

/// Cost parameters for one node's CPU.
///
/// Hiccups follow a hazard model: a charged interval of `b` compute
/// seconds stalls with probability `hiccup_rate_per_sec × b`, adding
/// `hiccup_stall`. The serial baseline runs under the same model, so the
/// comparison is fair; what differs is how each coherence discipline
/// *reacts* to a stalled peer.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// CPU time per true fitness evaluation (decode + objective).
    pub eval_cost: SimTime,
    /// CPU time per cache-hit lookup.
    pub cache_hit_cost: SimTime,
    /// CPU time per individual for selection/crossover/mutation.
    pub per_individual: SimTime,
    /// Multiplicative jitter half-width: each generation's cost is scaled
    /// by `U(1-j, 1+j)` (0 disables).
    pub jitter: f64,
    /// Hiccups per second of compute (0 disables).
    pub hiccup_rate_per_sec: f64,
    /// Stall added by one hiccup.
    pub hiccup_stall: SimTime,
}

impl Default for CostModel {
    /// Calibrated for a 77 MHz POWER2: ~150 µs per evaluation (bit decode
    /// plus a transcendental-heavy objective), 3 µs per cache hit, 20 µs
    /// of genetic-operator work per individual, ±20% jitter, and a
    /// ~300 ms stall roughly every 3 s of compute (daemon noise; a stall
    /// spans tens of generations — the load skew Global_Read absorbs).
    fn default() -> Self {
        CostModel {
            eval_cost: SimTime::from_micros(150),
            cache_hit_cost: SimTime::from_micros(3),
            per_individual: SimTime::from_micros(20),
            jitter: 0.2,
            hiccup_rate_per_sec: 0.3,
            hiccup_stall: SimTime::from_millis(300),
        }
    }
}

impl CostModel {
    /// A deterministic model with no jitter or hiccups (for tests and the
    /// `crates/perf` workloads).
    pub fn deterministic() -> Self {
        CostModel {
            jitter: 0.0,
            hiccup_rate_per_sec: 0.0,
            ..CostModel::default()
        }
    }

    /// The virtual CPU time of one generation that performed `work`.
    pub fn generation_cost(&self, work: GenWork, rng: &mut StdRng) -> SimTime {
        let base = self.eval_cost * work.evals
            + self.cache_hit_cost * work.cache_hits
            + self.per_individual * work.individuals;
        let mut out = base;
        if self.jitter > 0.0 {
            let scale = 1.0 - self.jitter + 2.0 * self.jitter * rng.gen::<f64>();
            out = SimTime::from_secs_f64(base.as_secs_f64() * scale);
        }
        if self.hiccup_rate_per_sec > 0.0
            && rng.gen::<f64>() < self.hiccup_rate_per_sec * base.as_secs_f64()
        {
            out += self.hiccup_stall;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn work() -> GenWork {
        GenWork {
            evals: 40,
            cache_hits: 10,
            individuals: 50,
        }
    }

    #[test]
    fn deterministic_model_is_linear() {
        let m = CostModel::deterministic();
        let mut rng = StdRng::seed_from_u64(0);
        let c = m.generation_cost(work(), &mut rng);
        let expected = SimTime::from_micros(40 * 150 + 10 * 3 + 50 * 20);
        assert_eq!(c, expected);
        // No randomness consumed paths change the answer.
        assert_eq!(m.generation_cost(work(), &mut rng), expected);
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let m = CostModel {
            jitter: 0.2,
            hiccup_rate_per_sec: 0.0,
            ..CostModel::default()
        };
        let base = CostModel::deterministic()
            .generation_cost(work(), &mut StdRng::seed_from_u64(0))
            .as_secs_f64();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let c = m.generation_cost(work(), &mut rng).as_secs_f64();
            assert!(
                c >= base * 0.799 && c <= base * 1.201,
                "c = {c}, base = {base}"
            );
        }
    }

    #[test]
    fn hiccups_occur_at_roughly_the_hazard_rate() {
        let m = CostModel {
            jitter: 0.0,
            hiccup_rate_per_sec: 20.0,
            hiccup_stall: SimTime::from_millis(50),
            ..CostModel::default()
        };
        let base = CostModel::deterministic()
            .generation_cost(work(), &mut StdRng::seed_from_u64(0))
            .as_secs_f64();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 5000;
        let hiccups = (0..n)
            .filter(|_| m.generation_cost(work(), &mut rng).as_secs_f64() > base + 0.01)
            .count();
        // Expected: 20/s * base * n stalls.
        let expected = 20.0 * base * n as f64;
        assert!(
            (hiccups as f64) > expected * 0.5 && (hiccups as f64) < expected * 1.5,
            "hiccups {hiccups} vs expected {expected}"
        );
    }
}
