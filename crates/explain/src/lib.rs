//! # cyclesql-explain
//!
//! Stages 2 and 3 of the CycleSQL loop: semantics enrichment of the
//! provenance table, provenance-graph construction, join-semantics
//! discovery, and rule-based natural-language explanation generation —
//! plus the SQL2NL baseline explainer, the polishing pass, and the
//! explanation-quality rater used by the simulated user study.
//!
//! ```
//! use cyclesql_explain::generate_explanation;
//! use cyclesql_provenance::track_provenance;
//! use cyclesql_sql::parse;
//! use cyclesql_storage::{execute, ColumnDef, DataType, Database, DatabaseSchema, TableSchema, Value};
//!
//! let mut schema = DatabaseSchema::new("demo");
//! schema.add_table(TableSchema::new(
//!     "aircraft",
//!     vec![ColumnDef::new("aid", DataType::Int), ColumnDef::new("name", DataType::Text)],
//! ));
//! let mut db = Database::new(schema);
//! db.insert("aircraft", vec![Value::Int(3), Value::from("Airbus A340-300")]);
//!
//! let q = parse("SELECT count(*) FROM aircraft WHERE name = 'Airbus A340-300'").unwrap();
//! let result = execute(&db, &q).unwrap();
//! let prov = track_provenance(&db, &q, &result, 0).unwrap();
//! let e = generate_explanation(&db, &q, &result, 0, &prov);
//! assert!(e.text.contains("there is 1 aircraft in total"), "{}", e.text);
//! ```

#![warn(missing_docs)]

pub mod enrich;
pub mod graph;
pub mod join_sem;
pub mod nlg;
pub mod polish;
pub mod quality;
pub mod run_cache;
pub mod sql2nl;

#[cfg(test)]
mod nlg_tests;

pub use enrich::{enrich, Annotation, AnnotationTarget, EnrichedProvenance};
pub use graph::{build_graph, Edge, EdgeKind, Node, NodeKind, ProvenanceGraph};
pub use join_sem::{
    discover_join_semantics, discover_join_semantics_uncached, discover_join_semantics_with,
    schema_graph, JoinSemantics, JoinTopology, SchemaGraph,
};
pub use nlg::{generate_explanation, Explanation, ExplanationFacets};
pub use polish::polish;
pub use quality::{panel_rating, rate_explanation, QualityScore, RatingBucket};
pub use run_cache::{CachedRun, RunCache};
pub use sql2nl::{sql_to_nl, Sql2NlExplanation};
