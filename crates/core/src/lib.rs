//! # cyclesql-core
//!
//! The CycleSQL framework: the plug-and-play feedback loop over end-to-end
//! NL2SQL models, the verifier training pipeline, evaluation metrics
//! (EM / EX / TS), and experiment drivers that regenerate every table and
//! figure of the paper.
//!
//! There is one loop body, [`CycleSql::run_controlled`]. Who accepts a
//! verified candidate is the loop's [`AcceptPolicy`]: [`TakeVerdict`] (the
//! verifier's verdict stands) unless [`CycleSql::policy`] is set to
//! another, such as the human-in-the-loop [`HumanPolicy`].
//!
//! There is one evaluation pass, [`evaluate`]: each item's beam is drawn
//! once, by the loop, and the pass scores both the model's own top-1 (the
//! loop's candidate 0) and the loop's choice, as a [`PairedResult`].
//!
//! ```
//! use cyclesql_core::{CycleSql, LoopVerifier, ex_correct};
//! use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
//! use cyclesql_models::Candidate;
//!
//! let suite = build_spider_suite(
//!     Variant::Spider,
//!     SuiteConfig { seed: 7, train_per_template: 1, eval_per_template: 1 },
//! );
//! let item = &suite.dev[0];
//! let db = suite.database(item);
//! // A wrong candidate followed by the gold one: the oracle-verified loop
//! // walks past the error.
//! let candidates = vec![
//!     Candidate { sql: "SELECT count(*) FROM country WHERE 1 = 0".into(), rank: 0, score: 1.0 },
//!     Candidate { sql: item.gold_sql.clone(), rank: 1, score: 0.9 },
//! ];
//! let cycle = CycleSql::new(LoopVerifier::Oracle);
//! let outcome = cycle.run(item, db, &candidates);
//! assert!(ex_correct(db, &outcome.chosen_sql, &item.gold_sql));
//! ```

#![warn(missing_docs)]

pub mod cycle;
pub mod eval;
pub mod experiments;
#[cfg(test)]
mod feature_reference;
pub mod human;
pub mod metrics;
pub mod session;
pub mod training;

pub use cycle::{
    candidate_premise, premise_from_parts, AcceptPolicy, CycleSql, FeedbackKind, LoopOutcome,
    LoopVerifier, RunControls, StageTimings, TakeVerdict,
};
pub use cyclesql_explain::{CachedRun, NoCache, RunCache};
pub use eval::{
    any_beam_accuracy, evaluate, trained_loop, EvalOptions, EvalResult, ExFlips, PairedResult,
    Parallelism,
};
pub use human::{HumanJudge, HumanPolicy, SimulatedHuman};
pub use metrics::{em_correct, ex_correct, ts_correct, Accuracy, VariantCache, TS_VARIANTS};
pub use session::{EvalSession, PreparedItem};
pub use training::{collect_training_data, train_verifier, CollectConfig, CollectStats};
