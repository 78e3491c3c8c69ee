//! The one cache hook shared by the simulated models and the feedback
//! loop: a query's run on a database, keyed by the query's text, with the
//! data-grounded explanation of its result memoized on the same entry.
//!
//! It lives here, below both `cyclesql-models` (whose simulator validates
//! its wrong candidates through it) and `cyclesql-core` (whose loop
//! executes and explains candidates through it), because an entry holds
//! an [`Explanation`], which storage cannot name.

use crate::nlg::Explanation;
use cyclesql_sql::Query;
use cyclesql_storage::{compile, Database, ExecOpts, ResultSet};
use std::sync::{Arc, OnceLock};

/// One query execution as a serving cache keeps it: the result, its bag
/// fingerprint, and the data-grounded explanation of its first row once
/// some loop run has built it. All three are functions of the database and
/// the query text alone — the question only enters at the verifier — so
/// one entry serves every request that examines the query.
#[derive(Debug)]
pub struct CachedRun {
    /// The query's result on its database.
    pub result: Arc<ResultSet>,
    /// [`ResultSet::fingerprint`] of `result`, computed once at fill time.
    pub fingerprint: u64,
    /// The explanation, built at most once per entry.
    pub explanation: OnceLock<Arc<Explanation>>,
}

impl CachedRun {
    /// An entry whose explanation is not built yet.
    pub fn new(result: Arc<ResultSet>) -> Self {
        CachedRun {
            fingerprint: result.fingerprint(),
            result,
            explanation: OnceLock::new(),
        }
    }

    /// Compiles and runs `query` on `db` under `opts`; `None` when it
    /// fails to compile or run.
    pub fn execute(db: &Database, query: &Query, opts: &ExecOpts<'_>) -> Option<Arc<Self>> {
        let (out, _) = compile(db, query)
            .and_then(|plan| plan.run_opts(db, opts))
            .ok()?;
        Some(Arc::new(CachedRun::new(Arc::new(out.result))))
    }

    /// Whether the two results are equal bags ([`ResultSet::bag_eq`]): a
    /// fingerprint compare, confirmed by `bag_eq` only on a match.
    pub fn same_bag(&self, other: &CachedRun) -> bool {
        self.fingerprint == other.fingerprint && self.result.bag_eq(&other.result)
    }

    /// The entry's explanation, built by `make` on the first call only
    /// (concurrent callers wait for that one build), and whether it was
    /// already memoized.
    pub fn explanation_or_init(
        &self,
        make: impl FnOnce() -> Explanation,
    ) -> (Arc<Explanation>, bool) {
        let mut built = false;
        let e = self.explanation.get_or_init(|| {
            built = true;
            Arc::new(make())
        });
        (Arc::clone(e), !built)
    }
}

/// Where query runs come from: one entry per (database, query text) holds
/// the result and the explanation, so a query is printed, keyed and looked
/// up once per request for both. A serving engine answers from its result
/// cache; offline callers (evaluation, experiments) pass [`NoCache`].
pub trait RunCache: Sync {
    /// The run of `query` on `db` and whether the lookup hit. `sql` is the
    /// key: it must be a text that parses to `query` (the simulator passes
    /// the query's print). A miss compiles and runs the query under
    /// `opts`; `None` records a query that fails to compile or run.
    fn run(
        &self,
        db: &Database,
        sql: &str,
        query: &Query,
        opts: &ExecOpts<'_>,
    ) -> (Option<Arc<CachedRun>>, bool);

    /// `run`'s explanation, built by `make` unless an earlier run built it,
    /// and whether it was memoized. Implementations may tally the outcome.
    fn explanation(
        &self,
        run: &CachedRun,
        make: &mut dyn FnMut() -> Explanation,
    ) -> (Arc<Explanation>, bool) {
        run.explanation_or_init(make)
    }
}

/// The hook that keeps nothing: every lookup is a miss that compiles and
/// runs the query ([`CachedRun::execute`]), so every explanation is built
/// fresh — what a serving cache of capacity 0 does.
#[derive(Debug, Clone, Copy)]
pub struct NoCache;

impl RunCache for NoCache {
    fn run(
        &self,
        db: &Database,
        _sql: &str,
        query: &Query,
        opts: &ExecOpts<'_>,
    ) -> (Option<Arc<CachedRun>>, bool) {
        (CachedRun::execute(db, query, opts), false)
    }
}
