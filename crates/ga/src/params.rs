//! GA parameters (§4.2.1): the six-parameter family of DeJong [5].

/// The GA parameter set used throughout the paper's experiments:
/// `N=50, C=0.6, M=0.001, G=1, W=1, S=E`.
#[derive(Debug, Clone)]
pub struct GaParams {
    /// Population size per deme (N).
    pub pop_size: usize,
    /// Crossover rate (C): probability a selected pair is recombined.
    pub crossover_rate: f64,
    /// Mutation rate (M): per-bit flip probability.
    pub mutation_rate: f64,
    /// Generation gap (G): fraction of the population replaced each
    /// generation (1.0 = full replacement).
    pub generation_gap: f64,
    /// Scaling window (W): fitness scaling baseline is the worst raw
    /// fitness seen in the last W generations.
    pub scaling_window: usize,
    /// Elitist strategy (S = E): the best individual always survives.
    pub elitist: bool,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            pop_size: 50,
            crossover_rate: 0.6,
            mutation_rate: 0.001,
            generation_gap: 1.0,
            scaling_window: 1,
            elitist: true,
        }
    }
}

impl GaParams {
    /// The paper's settings but with a different population size
    /// (the serial baseline scales N with the processor count).
    pub fn with_pop_size(pop_size: usize) -> Self {
        GaParams {
            pop_size,
            ..GaParams::default()
        }
    }

    /// Validate ranges; panics with a clear message on nonsense.
    pub fn validate(&self) {
        assert!(self.pop_size >= 2, "population must hold at least 2");
        assert!(
            (0.0..=1.0).contains(&self.crossover_rate),
            "crossover rate must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.mutation_rate),
            "mutation rate must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.generation_gap),
            "generation gap must be in [0, 1]"
        );
        assert!(self.scaling_window >= 1, "scaling window must be >= 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = GaParams::default();
        assert_eq!(p.pop_size, 50);
        assert_eq!(p.crossover_rate, 0.6);
        assert_eq!(p.mutation_rate, 0.001);
        assert_eq!(p.generation_gap, 1.0);
        assert_eq!(p.scaling_window, 1);
        assert!(p.elitist);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        GaParams::with_pop_size(1).validate();
    }
}
