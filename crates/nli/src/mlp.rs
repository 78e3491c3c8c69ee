//! A one-hidden-layer MLP variant of the NLI classifier.
//!
//! The paper's remark (Section IV-D) contrasts ready-made models with
//! "crafting a custom NLI model from scratch"; the linear model in
//! [`crate::model`] is the primary reproduction. This MLP adds non-linear
//! feature interactions (e.g. *value mismatch matters more when an
//! aggregate also disagrees*) under the identical focal-loss training
//! protocol — implemented from scratch with manual backpropagation and a
//! finite-difference-checked gradient.

use crate::features::{Hypothesis, FEATURE_DIM};
use crate::loss::{sigmoid, FocalLoss};
use crate::model::TrainingExample;
use cyclesql_rng::StdRng;

/// MLP hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct MlpConfig {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Loss settings.
    pub loss: FocalLoss,
    /// Learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// L2 regularization.
    pub l2: f64,
    /// Init/shuffle seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 16,
            loss: FocalLoss::default(),
            learning_rate: 0.02,
            epochs: 60,
            l2: 1e-4,
            seed: 0x3117,
        }
    }
}

/// The trained MLP: `score = σ(w2 · tanh(W1 x + b1) + b2)`.
#[derive(Debug, Clone)]
pub struct MlpNli {
    /// First-layer weights, `hidden × FEATURE_DIM`, row-major.
    pub w1: Vec<f64>,
    /// First-layer biases.
    pub b1: Vec<f64>,
    /// Output weights.
    pub w2: Vec<f64>,
    /// Output bias.
    pub b2: f64,
    /// Decision threshold.
    pub threshold: f64,
}

impl MlpNli {
    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.b1.len()
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, f64) {
        let h = self.hidden();
        let mut hidden = vec![0.0; h];
        for (j, hj) in hidden.iter_mut().enumerate() {
            let mut z = self.b1[j];
            for (i, xi) in x.iter().enumerate() {
                z += self.w1[j * FEATURE_DIM + i] * xi;
            }
            *hj = z.tanh();
        }
        let mut out = self.b2;
        for (j, hj) in hidden.iter().enumerate() {
            out += self.w2[j] * hj;
        }
        (hidden, out)
    }

    /// Entailment probability for a feature vector.
    pub fn score(&self, features: &[f64]) -> f64 {
        sigmoid(self.forward(features).1)
    }

    /// Binary entailment decision.
    pub fn entails(&self, features: &[f64]) -> bool {
        self.score(features) >= self.threshold
    }

    /// Accuracy on a labeled set.
    pub fn accuracy(&self, examples: &[TrainingExample]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let ok = examples
            .iter()
            .filter(|e| self.entails(&e.features) == e.entailment)
            .count();
        ok as f64 / examples.len() as f64
    }

    /// Trains the MLP with SGD under focal loss; deterministic per seed.
    /// Returns the model plus the per-epoch mean-loss trace.
    pub fn train(examples: &[TrainingExample], config: MlpConfig) -> (MlpNli, Vec<f64>) {
        let h = config.hidden.max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = (1.0 / FEATURE_DIM as f64).sqrt();
        let mut model = MlpNli {
            w1: (0..h * FEATURE_DIM)
                .map(|_| rng.gen_range(-scale..scale))
                .collect(),
            b1: vec![0.0; h],
            w2: (0..h).map(|_| rng.gen_range(-0.3..0.3)).collect(),
            b2: 0.0,
            threshold: 0.5,
        };
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut trace = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0;
            for &idx in &order {
                let ex = &examples[idx];
                let (hidden, z) = model.forward(&ex.features);
                let p = sigmoid(z);
                total += config.loss.loss(p, ex.entailment);
                let g_out = config.loss.grad_logit(p, ex.entailment);
                // Output layer.
                for (j, hj) in hidden.iter().enumerate() {
                    let grad = g_out * hj + config.l2 * model.w2[j];
                    model.w2[j] -= config.learning_rate * grad;
                }
                model.b2 -= config.learning_rate * g_out;
                // Hidden layer (tanh' = 1 - h²).
                for (j, hj) in hidden.iter().enumerate() {
                    let g_hidden = g_out * model.w2[j] * (1.0 - hj * hj);
                    for (i, xi) in ex.features.iter().enumerate() {
                        let w = &mut model.w1[j * FEATURE_DIM + i];
                        *w -= config.learning_rate * (g_hidden * xi + config.l2 * *w);
                    }
                    model.b1[j] -= config.learning_rate * g_hidden;
                }
            }
            trace.push(if examples.is_empty() {
                0.0
            } else {
                total / examples.len() as f64
            });
        }
        model.calibrate_threshold(examples);
        (model, trace)
    }

    /// Same asymmetric threshold calibration as the linear model.
    pub fn calibrate_threshold(&mut self, examples: &[TrainingExample]) {
        let pos: Vec<f64> = examples
            .iter()
            .filter(|e| e.entailment)
            .map(|e| self.score(&e.features))
            .collect();
        let neg: Vec<f64> = examples
            .iter()
            .filter(|e| !e.entailment)
            .map(|e| self.score(&e.features))
            .collect();
        if pos.is_empty() || neg.is_empty() {
            return;
        }
        let mut best = (self.threshold, f64::MIN);
        for step in 1..=39 {
            let th = step as f64 * 0.025;
            let tpr = pos.iter().filter(|&&s| s >= th).count() as f64 / pos.len() as f64;
            let fpr = neg.iter().filter(|&&s| s >= th).count() as f64 / neg.len() as f64;
            let objective = tpr - 2.5 * fpr;
            if objective > best.1 {
                best = (th, objective);
            }
        }
        self.threshold = best.0;
    }
}

/// A verifier over the MLP, plug-compatible with the loop via
/// [`crate::verifier::Verifier`].
#[derive(Debug, Clone)]
pub struct MlpVerifier {
    /// The trained MLP.
    pub model: MlpNli,
}

impl crate::verifier::Verifier for MlpVerifier {
    fn verify(&self, input: &crate::verifier::VerifyInput<'_>) -> crate::verifier::Verdict {
        self.verify_prepared(&Hypothesis::new(input.question), input)
    }

    fn verify_prepared(
        &self,
        hyp: &Hypothesis,
        input: &crate::verifier::VerifyInput<'_>,
    ) -> crate::verifier::Verdict {
        let features = hyp.features(input.premise_text, input.facets);
        let score = self.model.score(&features);
        crate::verifier::Verdict {
            entails: score >= self.model.threshold,
            score,
        }
    }

    fn name(&self) -> &'static str {
        "mlp-nli"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_like(n: usize, seed: u64) -> Vec<TrainingExample> {
        // A problem a linear model cannot solve: label = sign(x0) ⊕ sign(x1).
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let b: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let mut features = vec![0.0; FEATURE_DIM];
                features[0] = a + rng.gen_range(-0.2..0.2);
                features[1] = b + rng.gen_range(-0.2..0.2);
                features[FEATURE_DIM - 1] = 1.0;
                TrainingExample {
                    features,
                    entailment: (a > 0.0) != (b > 0.0),
                }
            })
            .collect()
    }

    #[test]
    fn learns_nonlinear_xor() {
        let data = xor_like(600, 5);
        let (mlp, trace) = MlpNli::train(
            &data,
            MlpConfig {
                epochs: 120,
                learning_rate: 0.05,
                ..Default::default()
            },
        );
        assert!(trace.last().unwrap() < &trace[0]);
        assert!(
            mlp.accuracy(&data) > 0.9,
            "MLP must solve XOR-like data: {}",
            mlp.accuracy(&data)
        );
        // A linear model cannot get far above chance on the same data.
        let (linear, _) =
            crate::model::NliModel::train(&data, crate::model::TrainConfig::default());
        assert!(
            linear.accuracy(&data) < 0.75,
            "linear model unexpectedly solved XOR: {}",
            linear.accuracy(&data)
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Check dLoss/dw for a few random parameters via central differences.
        let data = xor_like(1, 9);
        let ex = &data[0];
        let config = MlpConfig {
            hidden: 4,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = (1.0 / FEATURE_DIM as f64).sqrt();
        let model = MlpNli {
            w1: (0..4 * FEATURE_DIM)
                .map(|_| rng.gen_range(-scale..scale))
                .collect(),
            b1: vec![0.1; 4],
            w2: vec![0.3, -0.2, 0.5, -0.4],
            b2: 0.05,
            threshold: 0.5,
        };
        let loss = |m: &MlpNli| config.loss.loss(m.score(&ex.features), ex.entailment);

        // Analytic gradients via one backprop step.
        let (hidden, z) = model.forward(&ex.features);
        let p = sigmoid(z);
        let g_out = config.loss.grad_logit(p, ex.entailment);
        let eps = 1e-6;

        // w2[0]
        let mut plus = model.clone();
        plus.w2[0] += eps;
        let mut minus = model.clone();
        minus.w2[0] -= eps;
        let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
        let analytic = g_out * hidden[0];
        assert!((numeric - analytic).abs() < 1e-5, "{numeric} vs {analytic}");

        // w1[0] (first hidden unit, first input).
        let mut plus = model.clone();
        plus.w1[0] += eps;
        let mut minus = model.clone();
        minus.w1[0] -= eps;
        let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
        let analytic = g_out * model.w2[0] * (1.0 - hidden[0] * hidden[0]) * ex.features[0];
        assert!((numeric - analytic).abs() < 1e-5, "{numeric} vs {analytic}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = xor_like(100, 3);
        let (a, _) = MlpNli::train(&data, MlpConfig::default());
        let (b, _) = MlpNli::train(&data, MlpConfig::default());
        assert_eq!(a.w1, b.w1);
        assert_eq!(a.threshold, b.threshold);
    }

    #[test]
    fn empty_training_is_harmless() {
        let (m, trace) = MlpNli::train(&[], MlpConfig::default());
        assert_eq!(trace.len(), MlpConfig::default().epochs);
        assert!(m.score(&vec![0.0; FEATURE_DIM]).is_finite());
    }
}
