//! Shared experiment setup: all five benchmark suites and the frozen
//! verifier trained once on the SPIDER-like training split (the paper's
//! fire/ice protocol — train on SPIDER, freeze for the variants).
//!
//! Each suite is wrapped in an [`EvalSession`] at construction, so gold
//! parses and gold executions (dev database and TS variants) are shared by
//! every experiment driver that reads the context — across all models and
//! modes, each happens exactly once per `(benchmark, item)`.

use crate::cycle::{CycleSql, FeedbackKind, LoopVerifier};
use crate::session::EvalSession;
use crate::training::{train_verifier, CollectConfig, CollectStats};
use cyclesql_benchgen::{build_science_suite, build_spider_suite, SuiteConfig, Variant};
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_nli::{TrainConfig, TrainedVerifier};

/// All prepared suites plus the frozen verifier.
pub struct ExperimentContext {
    /// The base SPIDER-like suite (with train/dev/test splits).
    pub spider: EvalSession,
    /// SPIDER-REALISTIC-like.
    pub realistic: EvalSession,
    /// SPIDER-SYN-like.
    pub syn: EvalSession,
    /// SPIDER-DK-like.
    pub dk: EvalSession,
    /// SCIENCEBENCHMARK-like.
    pub science: EvalSession,
    /// The verifier trained on the SPIDER train split (frozen elsewhere).
    pub verifier: TrainedVerifier,
    /// Training-collection statistics.
    pub stats: CollectStats,
}

impl ExperimentContext {
    /// Builds the context with the given suite size configuration.
    pub fn with_config(config: SuiteConfig) -> Self {
        let spider = EvalSession::new(build_spider_suite(Variant::Spider, config));
        let realistic = EvalSession::new(build_spider_suite(Variant::Realistic, config));
        let syn = EvalSession::new(build_spider_suite(Variant::Syn, config));
        let dk = EvalSession::new(build_spider_suite(Variant::Dk, config));
        let science = EvalSession::new(build_science_suite(config));
        // Error sources for negatives: a spread of model families, as in the
        // paper's "collected from various translation models".
        let error_sources = vec![
            SimulatedModel::new(ModelProfile::smbop()),
            SimulatedModel::new(ModelProfile::resdsql_large()),
            SimulatedModel::new(ModelProfile::gpt35()),
        ];
        let (verifier, stats, _trace) = train_verifier(
            &spider,
            &error_sources,
            CollectConfig::default(),
            TrainConfig::default(),
        );
        ExperimentContext {
            spider,
            realistic,
            syn,
            dk,
            science,
            verifier,
            stats,
        }
    }

    /// The full-size context used by the `repro` binary.
    pub fn full() -> Self {
        Self::with_config(SuiteConfig::default())
    }

    /// A reduced context for tests and Criterion benches.
    pub fn quick() -> Self {
        Self::with_config(SuiteConfig {
            seed: 0xC1C1E,
            train_per_template: 1,
            eval_per_template: 1,
        })
    }

    /// A process-wide shared quick context (suites and verifier training are
    /// expensive; tests and benches reuse one instance).
    pub fn shared_quick() -> &'static ExperimentContext {
        static SHARED: std::sync::OnceLock<ExperimentContext> = std::sync::OnceLock::new();
        SHARED.get_or_init(ExperimentContext::quick)
    }

    /// A fresh loop around the frozen verifier (data-grounded feedback).
    pub fn cycle(&self) -> CycleSql {
        CycleSql::new(LoopVerifier::Trained(self.verifier.clone()))
    }

    /// A loop with SQL2NL feedback and a matching verifier (Figure 9).
    pub fn cycle_with(&self, verifier: TrainedVerifier, feedback: FeedbackKind) -> CycleSql {
        CycleSql {
            feedback,
            ..CycleSql::new(LoopVerifier::Trained(verifier))
        }
    }

    /// The SPIDER-family sessions with their display labels, Table I order.
    pub fn spider_family(&self) -> [(&'static str, &EvalSession); 4] {
        [
            ("SPIDER", &self.spider),
            ("REALISTIC", &self.realistic),
            ("SYN", &self.syn),
            ("DK", &self.dk),
        ]
    }
}
