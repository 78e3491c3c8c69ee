//! # cyclesql-serve
//!
//! An in-process, std-only concurrent serving engine for the CycleSQL
//! NLIDB: the missing layer between the per-question feedback loop
//! (`cyclesql-core`) and a production deployment answering many users over
//! many databases at once.
//!
//! The subsystem has four pieces:
//!
//! - [`Catalog`] — the immutable set of served databases, built once at
//!   startup with per-database artifacts (the join-semantics
//!   [`SchemaGraph`](cyclesql_explain::SchemaGraph)) precomputed and
//!   `Arc`-shared across workers.
//! - [`ResultCache`] — a sharded, capacity-bounded LRU of query results
//!   keyed by `(db_id, canonical SQL)`. Every execute of a request — the
//!   gold, the simulated model's validation runs, the loop's candidates —
//!   reads it through one [`RunCache`](cyclesql_core::RunCache) hook, and
//!   a validated candidate carries its entry into the loop, so repeated
//!   questions skip compilation and execution alike.
//! - [`ServiceEngine`] — a fixed worker pool behind a bounded admission
//!   queue with two backpressure policies ([`AdmissionPolicy::Block`] /
//!   [`AdmissionPolicy::Shed`]), per-request deadlines that abandon the
//!   candidate loop cleanly mid-iteration, and graceful draining shutdown.
//! - [`Metrics`] — lock-free counters and per-stage latency histograms
//!   (`cyclesql-obs`'s one `Histogram`), exported as a serializable
//!   [`MetricsSnapshot`] and rendered as Prometheus exposition text by
//!   [`render_metrics`] into `cyclesql-obs`'s one writer, `Exposition`.
//!
//! Started via [`ServiceEngine::start_traced`], the engine additionally
//! opens one `cyclesql-obs` span tree per request — root `serve` span,
//! per-candidate `cycle` spans, and `execute` / `provenance` / `explain` /
//! `verify` stage children, optionally carrying per-operator EXPLAIN
//! ANALYZE profiles — without changing the metrics surface.
//!
//! ```
//! use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
//! use cyclesql_core::{CycleSql, LoopVerifier};
//! use cyclesql_models::{ModelProfile, SimulatedModel};
//! use cyclesql_serve::{Catalog, ServeConfig, ServeRequest, ServiceEngine};
//! use std::sync::Arc;
//!
//! let suite = build_spider_suite(
//!     Variant::Spider,
//!     SuiteConfig { seed: 7, train_per_template: 1, eval_per_template: 1 },
//! );
//! let catalog = Arc::new(Catalog::from_suites([&suite]));
//! let engine = ServiceEngine::start(
//!     catalog,
//!     SimulatedModel::new(ModelProfile::resdsql_3b()),
//!     CycleSql::new(LoopVerifier::Oracle),
//!     ServeConfig { workers: 2, ..ServeConfig::default() },
//! );
//! let item = Arc::new(suite.dev[0].clone());
//! let response = engine.call(ServeRequest { item }).unwrap();
//! assert!(!response.sql.is_empty());
//! let metrics = engine.shutdown();
//! assert_eq!(metrics.completed, 1);
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod engine;
pub mod metrics;
pub mod plan_cache;
pub mod prometheus;
pub mod requests;

pub use catalog::{Catalog, CatalogEntry};
pub use engine::{
    AdmissionPolicy, ServeConfig, ServeError, ServeRequest, ServeResponse, ServiceEngine, Ticket,
};
pub use metrics::{Metrics, MetricsSnapshot, StageHistograms, StageSnapshots};
pub use plan_cache::{PlanCache, PlanKey, ResultCache};
pub use prometheus::{render_metrics, render_observability, render_windows};
pub use requests::{sql_digest, RequestLog, RequestSummary, STAGE_NAMES};
