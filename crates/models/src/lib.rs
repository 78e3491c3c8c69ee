//! # cyclesql-models
//!
//! Simulated end-to-end NL2SQL translation models. Each of the paper's
//! eight baselines (SMBoP, PICARD, RESDSQL-Large/3B, GPT-3.5, GPT-4, CHESS,
//! DAIL-SQL) is realized as a calibrated candidate-list generator whose
//! behavioural shape — top-1 accuracy by difficulty, beam recovery,
//! first-correct rank depth, style divergence, perturbation sensitivity,
//! latency — matches the published numbers. CycleSQL consumes only the
//! ranked SQL strings, exactly as it would from the real models.
//!
//! ```
//! use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
//! use cyclesql_models::{ModelProfile, SimulatedModel, TranslationRequest};
//!
//! let suite = build_spider_suite(
//!     Variant::Spider,
//!     SuiteConfig { seed: 7, train_per_template: 1, eval_per_template: 1 },
//! );
//! let item = &suite.dev[0];
//! let model = SimulatedModel::new(ModelProfile::resdsql_3b());
//! let req = TranslationRequest {
//!     item,
//!     db: suite.database(item),
//!     k: 4,
//!     severity: 0.0,
//!     science: false,
//! };
//! let candidates = model.translate(&req);
//! assert_eq!(candidates.len(), 4);
//! assert!(candidates[0].score > candidates[3].score);
//! ```

#![warn(missing_docs)]

pub mod error_ops;
pub mod profile;
pub mod simulate;

pub use error_ops::{apply_error_op, apply_random_error, ErrorOp};
pub use profile::{ModelKind, ModelProfile};
pub use simulate::{
    Candidate, PreparedCandidate, PreparedGold, SimStats, SimulatedModel, TranslationRequest,
};
