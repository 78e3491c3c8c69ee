//! Verifier implementations: the trained NLI verifier plus the two
//! "strawman" verifiers of Table III (a prompted-LLM stand-in and a
//! pre-built generic NLI model stand-in).

use crate::features::Hypothesis;
use crate::model::NliModel;
use cyclesql_explain::ExplanationFacets;
use cyclesql_rng::fnv1a;

/// Everything a verifier may read: the premise (explanation text + facets +
/// SQL) and the hypothesis (the NL question). Gold data is *not* available.
#[derive(Debug, Clone)]
pub struct VerifyInput<'a> {
    /// The NL question (hypothesis).
    pub question: &'a str,
    /// The explanation text (premise body).
    pub premise_text: &'a str,
    /// Structured facets of the premise.
    pub facets: &'a ExplanationFacets,
    /// The candidate SQL (the premise's third `|` segment).
    pub sql: &'a str,
}

/// A verification verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Whether the premise entails the question.
    pub entails: bool,
    /// The verifier's confidence in entailment, in `[0, 1]`.
    pub score: f64,
}

/// Common interface for NLI-style verifiers.
pub trait Verifier: Send + Sync {
    /// Judges whether the explanation entails the question.
    fn verify(&self, input: &VerifyInput<'_>) -> Verdict;

    /// [`Verifier::verify`] with the question's features already mined:
    /// `hyp` must be [`Hypothesis::new`] of `input.question`. A loop over
    /// several candidates of one question builds `hyp` once and passes it
    /// to each. The default ignores `hyp`; verifiers that read features
    /// override this and make `verify` prepare a hypothesis and call it.
    fn verify_prepared(&self, _hyp: &Hypothesis, input: &VerifyInput<'_>) -> Verdict {
        self.verify(input)
    }

    /// Display name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's dedicated verifier: the focal-loss-trained linear NLI model
/// over entailment features.
#[derive(Debug, Clone)]
pub struct TrainedVerifier {
    /// The trained model.
    pub model: NliModel,
}

impl Verifier for TrainedVerifier {
    fn verify(&self, input: &VerifyInput<'_>) -> Verdict {
        self.verify_prepared(&Hypothesis::new(input.question), input)
    }

    fn verify_prepared(&self, hyp: &Hypothesis, input: &VerifyInput<'_>) -> Verdict {
        let features = hyp.features(input.premise_text, input.facets);
        let score = self.model.score(&features);
        Verdict {
            entails: score >= self.model.threshold,
            score,
        }
    }

    fn name(&self) -> &'static str {
        "trained-nli"
    }
}

/// Strawman 1: a 5-shot prompted LLM as verifier (Table III, "LLM
/// verifier"). Modeled as a capable but shallow judge: it leans on lexical
/// overlap and the most salient intent cue (aggregate match), with a
/// deterministic pseudo-noise term standing in for sampling variance.
/// "Capable straight out of the box, but below the dedicated model."
#[derive(Debug, Clone, Default)]
pub struct LlmStrawmanVerifier;

impl Verifier for LlmStrawmanVerifier {
    fn verify(&self, input: &VerifyInput<'_>) -> Verdict {
        self.verify_prepared(&Hypothesis::new(input.question), input)
    }

    fn verify_prepared(&self, hyp: &Hypothesis, input: &VerifyInput<'_>) -> Verdict {
        let features = hyp.features(input.premise_text, input.facets);
        // Shallow read: text overlap (23), count agreement (0), value
        // grounding (10), empty-result sanity (21).
        let score_raw =
            0.45 * features[23] + 0.25 * features[0] + 0.20 * features[10] + 0.10 * features[21];
        // Deterministic "sampling noise" from the premise hash.
        let h = fnv1a(input.premise_text.as_bytes()) ^ fnv1a(input.question.as_bytes());
        let noise = ((h >> 17) % 1000) as f64 / 1000.0 - 0.5;
        let score = ((score_raw + 1.0) / 2.0 + noise * 0.18).clamp(0.0, 1.0);
        Verdict {
            entails: score >= 0.45,
            score,
        }
    }

    fn name(&self) -> &'static str {
        "llm-strawman"
    }
}

/// Strawman 2: an off-the-shelf pre-built NLI model (Table III, SemBERT).
/// Pre-trained on natural sentence pairs, it is mis-calibrated for
/// machine-generated explanation text: it keys on surface overlap, is
/// confused by the `|`-separated premise format, and systematically rejects
/// long mechanical premises — the paper observes it *hurts* the base model.
#[derive(Debug, Clone, Default)]
pub struct PrebuiltNliVerifier;

impl Verifier for PrebuiltNliVerifier {
    fn verify(&self, input: &VerifyInput<'_>) -> Verdict {
        self.verify_prepared(&Hypothesis::new(input.question), input)
    }

    fn verify_prepared(&self, hyp: &Hypothesis, input: &VerifyInput<'_>) -> Verdict {
        let features = hyp.features(input.premise_text, input.facets);
        // Only the generic overlap signal, with a strong length penalty
        // (machine-generated premises are long) and a high threshold.
        let words = input.premise_text.split_whitespace().count() as f64;
        let length_penalty = (words / 60.0).min(1.0) * 0.5;
        let score = (((features[23] + 1.0) / 2.0) - length_penalty
            + ((fnv1a(input.question.as_bytes()) % 100) as f64 / 100.0 - 0.5) * 0.3)
            .clamp(0.0, 1.0);
        Verdict {
            entails: score >= 0.55,
            score,
        }
    }

    fn name(&self) -> &'static str {
        "prebuilt-nli"
    }
}

/// A verifier that accepts everything — with this, CycleSQL degenerates to
/// the base model's top-1 output (used by invariant tests).
#[derive(Debug, Clone, Default)]
pub struct AlwaysAcceptVerifier;

impl Verifier for AlwaysAcceptVerifier {
    fn verify(&self, _input: &VerifyInput<'_>) -> Verdict {
        Verdict {
            entails: true,
            score: 1.0,
        }
    }

    fn name(&self) -> &'static str {
        "always-accept"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_sql::AggFunc;

    fn facets_count() -> ExplanationFacets {
        ExplanationFacets {
            agg_funcs: vec![(AggFunc::Count, None)],
            num_columns: 1,
            num_rows: 1,
            result_values: vec!["4".into()],
            ..Default::default()
        }
    }

    #[test]
    fn strawmen_are_deterministic() {
        let facets = facets_count();
        let input = VerifyInput {
            question: "How many flights are there?",
            premise_text: "there are 4 flights in total",
            facets: &facets,
            sql: "SELECT count(*) FROM flight",
        };
        let llm = LlmStrawmanVerifier;
        assert_eq!(llm.verify(&input), llm.verify(&input));
        let pre = PrebuiltNliVerifier;
        assert_eq!(pre.verify(&input), pre.verify(&input));
    }

    #[test]
    fn always_accept_accepts() {
        let facets = facets_count();
        let input = VerifyInput {
            question: "anything",
            premise_text: "whatever",
            facets: &facets,
            sql: "SELECT 1 FROM t",
        };
        assert!(AlwaysAcceptVerifier.verify(&input).entails);
    }

    #[test]
    fn prebuilt_rejects_long_mechanical_premises() {
        let facets = facets_count();
        let long_premise = "word ".repeat(80);
        let input = VerifyInput {
            question: "How many flights are there?",
            premise_text: &long_premise,
            facets: &facets,
            sql: "SELECT count(*) FROM flight",
        };
        assert!(!PrebuiltNliVerifier.verify(&input).entails);
    }

    #[test]
    fn verdict_scores_bounded() {
        let facets = facets_count();
        let input = VerifyInput {
            question: "How many flights go to Tokyo from Los Angeles today?",
            premise_text: "there are 4 flights in total, filtered by destination",
            facets: &facets,
            sql: "SELECT count(*) FROM flight",
        };
        for v in [
            LlmStrawmanVerifier.verify(&input),
            PrebuiltNliVerifier.verify(&input),
        ] {
            assert!((0.0..=1.0).contains(&v.score));
        }
    }
}

/// A trained verifier with selected features zeroed out — the harness for
/// feature-group ablations (which entailment signals carry the loop).
#[derive(Debug, Clone)]
pub struct MaskedNliVerifier {
    /// The underlying trained model.
    pub model: crate::model::NliModel,
    /// Feature indices forced to zero before scoring.
    pub masked: Vec<usize>,
}

impl Verifier for MaskedNliVerifier {
    fn verify(&self, input: &VerifyInput<'_>) -> Verdict {
        self.verify_prepared(&Hypothesis::new(input.question), input)
    }

    fn verify_prepared(&self, hyp: &Hypothesis, input: &VerifyInput<'_>) -> Verdict {
        let mut features = hyp.features(input.premise_text, input.facets);
        for &i in &self.masked {
            if i < features.len() {
                features[i] = 0.0;
            }
        }
        let score = self.model.score(&features);
        Verdict {
            entails: score >= self.model.threshold,
            score,
        }
    }

    fn name(&self) -> &'static str {
        "masked-nli"
    }
}
