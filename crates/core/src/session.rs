//! Prepared-query evaluation sessions.
//!
//! Every layer of the evaluation stack used to pass SQL around as strings,
//! so one Table-I style pass re-parsed each item's gold query and re-executed
//! it on the dev database and on every TS variant once *per candidate, per
//! model, per mode*. An [`EvalSession`] hoists all of that gold-side work out
//! of the loops: built once per benchmark suite, it owns a [`PreparedItem`]
//! per item holding
//!
//! - the gold AST, parsed once (`Arc<Query>`),
//! - the gold canonical form for EM, computed once ([`CanonicalSql`]),
//! - the gold result on the item's database, executed once (`Arc<ResultSet>`),
//! - and the gold result on each TS variant, executed lazily once and
//!   memoized per `(item, seed)` behind a `OnceLock`.
//!
//! TS variant databases themselves are shared through the session's
//! [`VariantCache`] (keyed by `(db_name, seed)`, handles cloned out of the
//! lock), so parallel evaluation workers never serialize on query execution.
//!
//! The session derefs to its [`BenchmarkSuite`], so existing call sites that
//! only need items or databases keep working unchanged.

use crate::metrics::{VariantCache, TS_VARIANTS};
use cyclesql_benchgen::{BenchmarkItem, BenchmarkSuite, Split};
use cyclesql_explain::{CachedRun, NoCache};
use cyclesql_models::PreparedGold;
use cyclesql_sql::{parse, to_sql, CanonicalSql, Query};
use cyclesql_storage::{compile, CompiledQuery, Database, ResultSet};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Per-item gold artifacts, computed once when the session is built.
#[derive(Debug)]
pub struct PreparedItem {
    /// The parsed gold query; `None` if the gold does not parse.
    pub gold_ast: Option<Arc<Query>>,
    /// The gold canonical form for EM comparison.
    pub gold_canonical: Option<CanonicalSql>,
    /// The gold query compiled once against the item's database schema;
    /// `None` if parsing or compilation failed. Reused for every execution
    /// of the gold — on the dev database and on each TS variant (which
    /// share the schema the plan was bound against).
    pub gold_compiled: Option<Arc<CompiledQuery>>,
    /// The gold result on the item's database; `None` if parsing or
    /// execution failed.
    pub gold_result: Option<Arc<ResultSet>>,
    /// Memoized gold results on the TS variants, indexed by `seed - 1`.
    variant_gold: [OnceLock<VariantGoldState>; TS_VARIANTS as usize],
}

/// The memoized state of one `(item, variant-seed)` gold execution.
#[derive(Debug, Clone)]
enum VariantGoldState {
    /// The suite has no variant generator for this database.
    Missing,
    /// The variant exists; the gold's result on it (`None` = failed).
    Result(Option<Arc<ResultSet>>),
}

impl PreparedItem {
    fn prepare(item: &BenchmarkItem, db: &Database) -> Self {
        let gold_ast = parse(&item.gold_sql).ok().map(Arc::new);
        let gold_canonical = gold_ast.as_deref().map(CanonicalSql::of);
        let gold_compiled = gold_ast
            .as_deref()
            .and_then(|q| compile(db, q).ok())
            .map(Arc::new);
        let gold_result = gold_compiled
            .as_deref()
            .and_then(|c| c.run_result(db).ok())
            .map(Arc::new);
        PreparedItem {
            gold_ast,
            gold_canonical,
            gold_compiled,
            gold_result,
            variant_gold: Default::default(),
        }
    }

    /// The gold artifacts in the form the model simulators consume, or
    /// `None` when the gold does not parse.
    pub fn as_prepared_gold(&self) -> Option<PreparedGold<'static>> {
        self.gold_ast.as_ref().map(|ast| PreparedGold {
            ast: Arc::clone(ast),
            sql: to_sql(ast),
            run: self
                .gold_result
                .clone()
                .map(|r| Arc::new(CachedRun::new(r))),
            source: &NoCache,
        })
    }
}

/// A benchmark suite with all gold-side artifacts prepared.
///
/// Build one per suite ([`EvalSession::new`]) and share it (`&EvalSession` is
/// `Sync`) across models, modes, and evaluation worker threads: the gold
/// parse and every gold execution then happen exactly once per
/// `(benchmark, item)` no matter how many passes consume them.
//
// Field names deliberately avoid the suite's `train`/`dev`/`test` so
// `session.dev` keeps resolving through `Deref` at external call sites.
pub struct EvalSession {
    suite: BenchmarkSuite,
    variants: VariantCache,
    prep_train: Vec<PreparedItem>,
    prep_dev: Vec<PreparedItem>,
    prep_test: Vec<PreparedItem>,
}

impl Deref for EvalSession {
    type Target = BenchmarkSuite;

    fn deref(&self) -> &BenchmarkSuite {
        &self.suite
    }
}

impl EvalSession {
    /// Prepares every item of every split of `suite`.
    pub fn new(suite: BenchmarkSuite) -> Self {
        let prep = |items: &[BenchmarkItem]| {
            items
                .iter()
                .map(|item| {
                    let db = suite.database(item);
                    PreparedItem::prepare(item, db)
                })
                .collect()
        };
        let prep_train = prep(&suite.train);
        let prep_dev = prep(&suite.dev);
        let prep_test = prep(&suite.test);
        EvalSession {
            suite,
            variants: VariantCache::new(),
            prep_train,
            prep_dev,
            prep_test,
        }
    }

    /// The underlying suite.
    pub fn suite(&self) -> &BenchmarkSuite {
        &self.suite
    }

    /// The session's shared TS-variant cache.
    pub fn variant_cache(&self) -> &VariantCache {
        &self.variants
    }

    /// Prepared items of a split, index-aligned with
    /// [`BenchmarkSuite::split`].
    pub fn prepared(&self, split: Split) -> &[PreparedItem] {
        match split {
            Split::Train => &self.prep_train,
            Split::Dev => &self.prep_dev,
            Split::Test => &self.prep_test,
        }
    }

    /// The prepared item at `idx` of `split`.
    pub fn prepared_item(&self, split: Split, idx: usize) -> &PreparedItem {
        &self.prepared(split)[idx]
    }

    /// A shared handle to the `(db_name, seed)` TS variant, if the suite can
    /// generate one.
    pub fn variant_db(&self, db_name: &str, seed: u64) -> Option<Arc<Database>> {
        self.variants.variant_arc(&self.suite, db_name, seed)
    }

    /// The gold result of `(split, idx)` on TS variant `seed`, executed once
    /// and memoized. The outer `Option` is `None` when the suite has no
    /// variant generator for the item's database; the inner one is `None`
    /// when the gold fails on the variant.
    #[allow(clippy::option_option)]
    pub fn gold_on_variant(
        &self,
        split: Split,
        idx: usize,
        seed: u64,
    ) -> Option<Option<Arc<ResultSet>>> {
        debug_assert!((1..=TS_VARIANTS).contains(&seed));
        let item = &self.suite.split(split)[idx];
        let prep = &self.prepared(split)[idx];
        let state = prep.variant_gold[(seed - 1) as usize].get_or_init(|| {
            match self.variant_db(&item.db_name, seed) {
                None => VariantGoldState::Missing,
                Some(db) => VariantGoldState::Result(
                    prep.gold_compiled
                        .as_deref()
                        .and_then(|c| c.run_result(&db).ok())
                        .map(Arc::new),
                ),
            }
        });
        match state {
            VariantGoldState::Missing => None,
            VariantGoldState::Result(r) => Some(r.clone()),
        }
    }

    /// Test-suite accuracy for a prepared prediction — the same decision
    /// procedure as [`crate::metrics::ts_correct`], but every gold-side
    /// parse/execution comes from the session's caches and only the
    /// prediction is executed per call.
    ///
    /// `pred_dev_result` is the prediction's (already computed) result on
    /// the item's own database; `None` means it failed to parse or execute.
    pub fn ts_prepared(
        &self,
        split: Split,
        idx: usize,
        pred_ast: Option<&Query>,
        pred_dev_result: Option<&ResultSet>,
    ) -> bool {
        let prep = &self.prepared(split)[idx];
        // EX gate: prediction and gold must both succeed and agree on dev.
        let ex = match (&prep.gold_result, pred_dev_result) {
            (Some(g), Some(p)) => p.bag_eq(g),
            _ => false,
        };
        if !ex {
            return false;
        }
        let item = &self.suite.split(split)[idx];
        // Compile the prediction once against the item's database (same
        // schema as every variant); each seed below only re-runs the plan.
        let pred_compiled = pred_ast.and_then(|q| compile(self.suite.database(item), q).ok());
        for seed in 1..=TS_VARIANTS {
            let Some(gold_v) = self.gold_on_variant(split, idx, seed) else {
                // No variant generator for this db: fall back to EX.
                return true;
            };
            let db = self
                .variant_db(&item.db_name, seed)
                .expect("variant exists when gold_on_variant returned Some");
            let pred_v = pred_compiled.as_ref().and_then(|c| c.run_result(&db).ok());
            match (pred_v, gold_v) {
                (Some(p), Some(g)) => {
                    if !p.bag_eq(&g) {
                        return false;
                    }
                }
                (None, None) => {}
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{em_correct, ex_correct, ts_correct};
    use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
    use cyclesql_sql::to_sql;
    use cyclesql_storage::execute;

    fn session() -> EvalSession {
        EvalSession::new(build_spider_suite(
            Variant::Spider,
            SuiteConfig {
                seed: 0xABCD,
                train_per_template: 1,
                eval_per_template: 1,
            },
        ))
    }

    #[test]
    fn prepared_items_align_with_splits() {
        let s = session();
        for split in [Split::Train, Split::Dev, Split::Test] {
            assert_eq!(s.prepared(split).len(), s.suite().split(split).len());
        }
        // Every generated gold parses and executes, so all artifacts exist.
        for prep in s.prepared(Split::Dev) {
            assert!(prep.gold_ast.is_some());
            assert!(prep.gold_canonical.is_some());
            assert!(prep.gold_result.is_some());
        }
    }

    #[test]
    fn session_derefs_to_suite() {
        let s = session();
        assert!(!s.suite().dev.is_empty());
        let item = &s.suite().dev[0];
        // Both accessors resolve through the suite via Deref.
        assert_eq!(s.database(item).schema.name, item.db_name);
        assert_eq!(s.database_arc(item).schema.name, item.db_name);
    }

    #[test]
    fn prepared_gold_matches_direct_parse_and_execute() {
        let s = session();
        for (idx, item) in s.suite().dev.iter().enumerate() {
            let prep = s.prepared_item(Split::Dev, idx);
            let db = s.database(item);
            let q = parse(&item.gold_sql).unwrap();
            assert_eq!(to_sql(prep.gold_ast.as_deref().unwrap()), to_sql(&q));
            assert_eq!(
                prep.gold_canonical.as_ref().unwrap().as_str(),
                CanonicalSql::of(&q).as_str()
            );
            let direct = execute(db, &q).unwrap();
            assert!(prep.gold_result.as_deref().unwrap().bag_eq(&direct));
        }
    }

    #[test]
    fn ts_prepared_agrees_with_string_path() {
        let s = session();
        // Probe predictions: the gold itself, a syntactically different but
        // equivalent form, a wrong query, and garbage.
        for (idx, item) in s.suite().dev.iter().enumerate().take(25) {
            let db = s.database(item);
            let gold = &item.gold_sql;
            let wrong = "SELECT count(*) FROM nosuchtable";
            for pred in [gold.as_str(), wrong, "NOT SQL AT ALL"] {
                let string_path =
                    ts_correct(s.suite(), s.variant_cache(), db, &item.db_name, pred, gold);
                let pred_ast = parse(pred).ok();
                let pred_result = pred_ast.as_ref().and_then(|q| execute(db, q).ok());
                let prepared_path =
                    s.ts_prepared(Split::Dev, idx, pred_ast.as_ref(), pred_result.as_ref());
                assert_eq!(string_path, prepared_path, "{}: {pred}", item.id);
            }
        }
    }

    #[test]
    fn em_via_canonical_agrees_with_string_path() {
        let s = session();
        for (idx, item) in s.suite().dev.iter().enumerate().take(25) {
            let prep = s.prepared_item(Split::Dev, idx);
            for pred in [item.gold_sql.as_str(), "SELECT count(*) FROM country"] {
                let string_path = em_correct(pred, &item.gold_sql);
                let prepared_path = parse(pred).ok().map(|q| CanonicalSql::of(&q)).as_ref()
                    == prep.gold_canonical.as_ref();
                assert_eq!(string_path, prepared_path, "{}: {pred}", item.id);
            }
        }
    }

    #[test]
    fn variant_gold_is_memoized() {
        let s = session();
        let a = s.gold_on_variant(Split::Dev, 0, 1);
        let b = s.gold_on_variant(Split::Dev, 0, 1);
        match (a, b) {
            (Some(Some(x)), Some(Some(y))) => assert!(Arc::ptr_eq(&x, &y)),
            (x, y) => assert_eq!(x.is_some(), y.is_some()),
        }
        // EX-style sanity: gold on dev agrees with itself.
        let item = &s.suite().dev[0];
        assert!(ex_correct(s.database(item), &item.gold_sql, &item.gold_sql));
    }
}
