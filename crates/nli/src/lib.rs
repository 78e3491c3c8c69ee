//! # cyclesql-nli
//!
//! Stage 4 of the CycleSQL loop: translation verification as natural
//! language inference. Provides entailment feature extraction over
//! explanation premises, the focal loss of the paper's training setup, a
//! from-scratch linear NLI classifier with a deterministic SGD trainer, and
//! the Table III strawman verifiers (prompted-LLM stand-in, pre-built NLI
//! stand-in).
//!
//! ```
//! use cyclesql_nli::{extract_features, NliModel, TrainConfig, TrainingExample, FEATURE_DIM};
//! use cyclesql_explain::ExplanationFacets;
//!
//! // A count-style premise vs a count-style question.
//! let facets = ExplanationFacets {
//!     agg_funcs: vec![(cyclesql_sql::AggFunc::Count, None)],
//!     num_columns: 1,
//!     num_rows: 1,
//!     result_values: vec!["4".into()],
//!     ..Default::default()
//! };
//! let features = extract_features(
//!     "How many flights are there?",
//!     "there are 4 flights in total",
//!     &facets,
//! );
//! assert_eq!(features.len(), FEATURE_DIM);
//!
//! // Train a tiny verifier on two examples and score.
//! let examples = vec![
//!     TrainingExample { features: features.clone(), entailment: true },
//!     TrainingExample { features: vec![-1.0; FEATURE_DIM], entailment: false },
//! ];
//! let (model, _trace) = NliModel::train(&examples, TrainConfig::default());
//! assert!(model.score(&features).is_finite());
//! ```

#![warn(missing_docs)]

pub mod features;
pub mod loss;
pub mod mlp;
pub mod model;
pub mod verifier;

pub use features::{
    extract_features, question_entities, question_intent, Hypothesis, QuestionIntent, FEATURE_DIM,
};
pub use loss::{sigmoid, FocalLoss};
pub use mlp::{MlpConfig, MlpNli, MlpVerifier};
pub use model::{NliModel, TrainConfig, TrainingExample};
pub use verifier::{
    AlwaysAcceptVerifier, LlmStrawmanVerifier, MaskedNliVerifier, PrebuiltNliVerifier,
    TrainedVerifier, Verdict, Verifier, VerifyInput,
};
