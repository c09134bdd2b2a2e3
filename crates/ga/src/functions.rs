//! The eight-function GA test bed of Table 1 (DeJong F1–F5 [5] and the
//! Mühlenbein et al. extensions F6–F8 [13]).
//!
//! All functions are *minimized*. F3 carries DeJong's customary `+30`
//! offset so its minimum is 0 as Table 1 states; F4's Gauss(0,1) noise is
//! injected by the evaluator (see [`TestFn::eval_noisy`]) so the
//! deterministic part can be tested exactly.

use std::f64::consts::PI;

/// One benchmark function: identity, domain, encoding and known optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestFn {
    /// F1: sphere, 3 vars in [-5.12, 5.12], min 0 at the origin.
    F1Sphere,
    /// F2: Rosenbrock's saddle, 2 vars in [-2.048, 2.048], min 0 at (1,1).
    F2Rosenbrock,
    /// F3: step function (+30 offset), 5 vars in [-5.12, 5.12], min 0.
    F3Step,
    /// F4: quartic with Gaussian noise, 30 vars in [-1.28, 1.28],
    /// deterministic part minimized at 0.
    F4QuarticNoise,
    /// F5: Shekel's foxholes, 2 vars in [-65.536, 65.536], min ≈ 0.998004.
    F5Foxholes,
    /// F6: Rastrigin, 20 vars in [-5.12, 5.12], min 0 at the origin.
    F6Rastrigin,
    /// F7: Schwefel, 10 vars in [-500, 500], min ≈ −4189.829 at 420.9687.
    F7Schwefel,
    /// F8: Griewank, 10 vars in [-600, 600], min 0 at the origin.
    F8Griewank,
}

/// All eight functions in Table 1 order.
pub const ALL_FUNCTIONS: [TestFn; 8] = [
    TestFn::F1Sphere,
    TestFn::F2Rosenbrock,
    TestFn::F3Step,
    TestFn::F4QuarticNoise,
    TestFn::F5Foxholes,
    TestFn::F6Rastrigin,
    TestFn::F7Schwefel,
    TestFn::F8Griewank,
];

/// Foxhole grid coordinates: `a[0][j]`, `a[1][j]` for j in 0..25.
fn foxhole_a(i: usize, j: usize) -> f64 {
    const VALS: [f64; 5] = [-32.0, -16.0, 0.0, 16.0, 32.0];
    match i {
        0 => VALS[j % 5],
        _ => VALS[j / 5],
    }
}

impl TestFn {
    /// Table 1 row number (1-based).
    pub fn number(self) -> usize {
        match self {
            TestFn::F1Sphere => 1,
            TestFn::F2Rosenbrock => 2,
            TestFn::F3Step => 3,
            TestFn::F4QuarticNoise => 4,
            TestFn::F5Foxholes => 5,
            TestFn::F6Rastrigin => 6,
            TestFn::F7Schwefel => 7,
            TestFn::F8Griewank => 8,
        }
    }

    /// Conventional name.
    pub fn name(self) -> &'static str {
        match self {
            TestFn::F1Sphere => "sphere",
            TestFn::F2Rosenbrock => "rosenbrock",
            TestFn::F3Step => "step",
            TestFn::F4QuarticNoise => "quartic-noise",
            TestFn::F5Foxholes => "foxholes",
            TestFn::F6Rastrigin => "rastrigin",
            TestFn::F7Schwefel => "schwefel",
            TestFn::F8Griewank => "griewank",
        }
    }

    /// Number of decision variables.
    pub fn dims(self) -> usize {
        match self {
            TestFn::F1Sphere => 3,
            TestFn::F2Rosenbrock => 2,
            TestFn::F3Step => 5,
            TestFn::F4QuarticNoise => 30,
            TestFn::F5Foxholes => 2,
            TestFn::F6Rastrigin => 20,
            TestFn::F7Schwefel => 10,
            TestFn::F8Griewank => 10,
        }
    }

    /// Domain `[lo, hi]` shared by all variables (Table 1 "Limits").
    pub fn limits(self) -> (f64, f64) {
        match self {
            TestFn::F1Sphere | TestFn::F3Step | TestFn::F6Rastrigin => (-5.12, 5.12),
            TestFn::F2Rosenbrock => (-2.048, 2.048),
            TestFn::F4QuarticNoise => (-1.28, 1.28),
            TestFn::F5Foxholes => (-65.536, 65.536),
            TestFn::F7Schwefel => (-500.0, 500.0),
            TestFn::F8Griewank => (-600.0, 600.0),
        }
    }

    /// Bits per variable under DeJong's fixed-point binary coding (chosen
    /// so the grid step is ~0.01 of the native scale of each domain).
    pub fn bits_per_var(self) -> usize {
        match self {
            TestFn::F1Sphere | TestFn::F3Step | TestFn::F6Rastrigin => 10,
            TestFn::F2Rosenbrock => 12,
            TestFn::F4QuarticNoise => 8,
            TestFn::F5Foxholes => 17,
            TestFn::F7Schwefel => 10,
            TestFn::F8Griewank => 10,
        }
    }

    /// Total genome length in bits.
    pub fn genome_bits(self) -> usize {
        self.dims() * self.bits_per_var()
    }

    /// The known global minimum value (Table 1 "min f(x)"), for the
    /// noiseless part in F4's case.
    pub fn known_min(self) -> f64 {
        match self {
            TestFn::F1Sphere
            | TestFn::F2Rosenbrock
            | TestFn::F3Step
            | TestFn::F6Rastrigin
            | TestFn::F8Griewank => 0.0,
            TestFn::F4QuarticNoise => 0.0, // noiseless part; Table 1 lists ≤ -2.5 with noise
            TestFn::F5Foxholes => 0.998_003_838,
            TestFn::F7Schwefel => -4_189.828_872_724_34,
        }
    }

    /// A point attaining the known minimum (for tests).
    pub fn argmin(self) -> Vec<f64> {
        match self {
            TestFn::F1Sphere
            | TestFn::F4QuarticNoise
            | TestFn::F6Rastrigin
            | TestFn::F8Griewank => {
                vec![0.0; self.dims()]
            }
            TestFn::F2Rosenbrock => vec![1.0, 1.0],
            // Any point with floor(x_i) = -6, e.g. -5.12 exactly at the edge.
            TestFn::F3Step => vec![-5.12; 5],
            TestFn::F5Foxholes => vec![-32.0, -32.0],
            TestFn::F7Schwefel => vec![420.9687; 10],
        }
    }

    /// For the functions of the form `c + Σ g(xᵢ)` — F1, F3, F6, F7 — the
    /// per-variable term `g`. The rest have none: F2 and F5 couple their
    /// variables, F4's and F8's terms depend on the variable's position.
    /// Both [`eval`](TestFn::eval) and the fitness cache's term table go
    /// through this one definition, so they agree to the bit.
    pub(crate) fn term(self) -> Option<fn(f64) -> f64> {
        match self {
            TestFn::F1Sphere => Some(|v| v * v),
            TestFn::F3Step => Some(f64::floor),
            TestFn::F6Rastrigin => Some(|v| v * v - 10.0 * (2.0 * PI * v).cos()),
            TestFn::F7Schwefel => Some(|v| -v * v.abs().sqrt().sin()),
            TestFn::F2Rosenbrock
            | TestFn::F4QuarticNoise
            | TestFn::F5Foxholes
            | TestFn::F8Griewank => None,
        }
    }

    /// `c + Σ terms`, for a function that has a [`term`](TestFn::term): the
    /// terms are summed in variable order and `c` is added last, on the
    /// left.
    pub(crate) fn sum_terms(self, terms: impl Iterator<Item = f64>) -> f64 {
        let sum = terms.sum::<f64>();
        match self {
            TestFn::F3Step => 30.0 + sum,
            TestFn::F6Rastrigin => self.dims() as f64 * 10.0 + sum,
            _ => sum,
        }
    }

    /// Evaluate the deterministic part of the function at `x`.
    /// Panics if `x.len() != dims()`.
    pub fn eval(self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.dims(),
            "{}: wrong dimensionality",
            self.name()
        );
        if let Some(g) = self.term() {
            return self.sum_terms(x.iter().map(|&v| g(v)));
        }
        match self {
            TestFn::F2Rosenbrock => {
                let (x1, x2) = (x[0], x[1]);
                100.0 * (x1 * x1 - x2).powi(2) + (1.0 - x1).powi(2)
            }
            TestFn::F4QuarticNoise => x
                .iter()
                .enumerate()
                .map(|(i, v)| (i + 1) as f64 * v.powi(4))
                .sum(),
            TestFn::F5Foxholes => {
                let mut s = 0.002;
                for j in 0..25 {
                    let mut denom = (j + 1) as f64;
                    for (i, &xi) in x.iter().enumerate() {
                        denom += (xi - foxhole_a(i, j)).powi(6);
                    }
                    s += 1.0 / denom;
                }
                1.0 / s
            }
            TestFn::F8Griewank => {
                let s: f64 = x.iter().map(|v| v * v / 4000.0).sum();
                let p: f64 = x
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (v / ((i + 1) as f64).sqrt()).cos())
                    .product();
                s - p + 1.0
            }
            _ => unreachable!("{} is a sum of terms", self.name()),
        }
    }

    /// Evaluate with F4's additive Gauss(0,1) noise (Box–Muller over the
    /// provided uniform draws); every other function ignores the noise.
    pub fn eval_noisy(self, x: &[f64], u1: f64, u2: f64) -> f64 {
        let base = self.eval(x);
        if self == TestFn::F4QuarticNoise {
            let u1 = u1.clamp(f64::MIN_POSITIVE, 1.0);
            let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos();
            base + gauss
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_function_attains_its_known_min_at_argmin() {
        for f in ALL_FUNCTIONS {
            let v = f.eval(&f.argmin());
            assert!(
                (v - f.known_min()).abs() < 1e-3,
                "{}: eval(argmin) = {v}, expected {}",
                f.name(),
                f.known_min()
            );
        }
    }

    #[test]
    fn known_min_is_a_lower_bound_on_random_points() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for f in ALL_FUNCTIONS {
            let (lo, hi) = f.limits();
            for _ in 0..300 {
                let x: Vec<f64> = (0..f.dims()).map(|_| rng.gen_range(lo..=hi)).collect();
                let v = f.eval(&x);
                assert!(
                    v >= f.known_min() - 1e-6,
                    "{}: found {v} below the known minimum {} at {x:?}",
                    f.name(),
                    f.known_min()
                );
            }
        }
    }

    #[test]
    fn table1_metadata() {
        assert_eq!(TestFn::F1Sphere.dims(), 3);
        assert_eq!(TestFn::F4QuarticNoise.dims(), 30);
        assert_eq!(TestFn::F6Rastrigin.dims(), 20);
        assert_eq!(TestFn::F7Schwefel.limits(), (-500.0, 500.0));
        assert_eq!(TestFn::F8Griewank.limits(), (-600.0, 600.0));
        for (i, f) in ALL_FUNCTIONS.iter().enumerate() {
            assert_eq!(f.number(), i + 1);
        }
    }

    #[test]
    fn rosenbrock_classic_values() {
        // f(0,0) = 1, f(1,1) = 0, f(-1,1) = 4 for the DeJong form.
        let f = TestFn::F2Rosenbrock;
        assert!((f.eval(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(f.eval(&[1.0, 1.0]).abs() < 1e-12);
        assert!((f.eval(&[-1.0, 1.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn step_function_is_integer_valued() {
        let f = TestFn::F3Step;
        let v = f.eval(&[0.3, 1.7, -2.2, 4.9, 0.0]);
        assert_eq!(v.fract(), 0.0);
        assert_eq!(v, 30.0 + (0.0 + 1.0 - 3.0 + 4.0 + 0.0));
    }

    #[test]
    fn foxholes_near_one_at_first_foxhole() {
        let f = TestFn::F5Foxholes;
        let v = f.eval(&[-32.0, -32.0]);
        assert!((v - 0.998).abs() < 1e-2, "got {v}");
        // Far from every foxhole the function is large (≈ 1/0.002 = 500).
        let far = f.eval(&[50.0, -50.0]);
        assert!(far > 100.0, "got {far}");
    }

    #[test]
    fn rastrigin_local_structure() {
        let f = TestFn::F6Rastrigin;
        // At integer points the cosine term is maximal: f(1,0,..,0) = 1.
        let mut x = vec![0.0; 20];
        x[0] = 1.0;
        assert!((f.eval(&x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn f4_noise_is_zero_mean_ish() {
        use rand::{Rng, SeedableRng};
        let f = TestFn::F4QuarticNoise;
        let x = vec![0.0; 30];
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| f.eval_noisy(&x, rng.gen::<f64>(), rng.gen::<f64>()))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.05, "noise mean {mean} too far from 0");
    }

    #[test]
    fn noise_only_applies_to_f4() {
        let f = TestFn::F1Sphere;
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(f.eval(&x), f.eval_noisy(&x, 0.5, 0.5));
    }
}
