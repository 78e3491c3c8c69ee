//! # cyclesql-storage
//!
//! An in-memory relational engine for the CycleSQL reproduction: typed
//! values, schemas with primary/foreign keys, and a query executor covering
//! the Spider SQL subset — with per-row *lineage* tracking that the
//! provenance layer builds on.
//!
//! Queries compile once ([`compile()`]) and run on one production engine,
//! the vectorized columnar executor ([`CompiledQuery::run`]); the
//! tree-walking [`reference`](mod@reference) interpreter is kept as its
//! differential oracle.
//!
//! ```
//! use cyclesql_storage::{Database, DatabaseSchema, TableSchema, ColumnDef, DataType, Value};
//! use cyclesql_storage::exec::execute;
//! use cyclesql_sql::parse;
//!
//! let mut schema = DatabaseSchema::new("demo");
//! schema.add_table(TableSchema::new(
//!     "aircraft",
//!     vec![
//!         ColumnDef::new("aid", DataType::Int),
//!         ColumnDef::new("name", DataType::Text),
//!     ],
//! ));
//! let mut db = Database::new(schema);
//! db.insert("aircraft", vec![Value::Int(1), Value::from("Boeing 747-400")]);
//! db.insert("aircraft", vec![Value::Int(3), Value::from("Airbus A340-300")]);
//!
//! let q = parse("SELECT count(*) FROM aircraft").unwrap();
//! let result = execute(&db, &q).unwrap();
//! assert_eq!(result.rows[0][0], Value::Int(2));
//! ```

#![warn(missing_docs)]

mod batch;
pub mod compile;
pub mod error;
pub mod exec;
pub mod ir;
pub mod plan;
pub mod profile;
pub mod reference;
pub mod result;
mod run;
mod scalar;
pub mod schema;
pub mod table;
pub mod value;

#[cfg(test)]
mod compiled_tests;
#[cfg(test)]
mod exec_tests;

pub use compile::compile;
pub use error::ExecError;
pub use exec::{execute, execute_with_lineage, is_executable, ExecOutput, Lineage, SourceRef};
pub use ir::{CompiledQuery, InProbe, RunStats};
pub use plan::{describe_plan, describe_plan_analyze, PlanStep, QueryPlan};
pub use profile::{OpProfile, PlanProfile, SubProfile};
pub use result::ResultSet;
pub use run::ExecOpts;
pub use schema::{ColumnDef, DataType, DatabaseSchema, ForeignKey, TableSchema};
pub use table::{ColumnarTable, Database, Row, Table};
pub use value::{KeyValue, Value};
