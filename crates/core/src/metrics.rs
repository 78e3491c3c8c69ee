//! Evaluation metrics: exact-match (EM), execution accuracy (EX), and
//! test-suite accuracy (TS).

use cyclesql_benchgen::BenchmarkSuite;
use cyclesql_sql::{exact_match, parse};
use cyclesql_storage::{compile, execute, Database};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of distilled database variants used by the TS metric (the paper
/// uses a 100-fold distilled suite; four seeded variants keep the runtime
/// proportionate while preserving the metric's discriminating power).
pub const TS_VARIANTS: u64 = 4;

/// Syntactic (exact-match) accuracy for one prediction: canonicalized,
/// value-insensitive AST equality.
pub fn em_correct(pred_sql: &str, gold_sql: &str) -> bool {
    match (parse(pred_sql), parse(gold_sql)) {
        (Ok(p), Ok(g)) => exact_match(&p, &g),
        _ => false,
    }
}

/// Execution accuracy for one prediction: bag-equality of result sets on
/// the benchmark database.
pub fn ex_correct(db: &Database, pred_sql: &str, gold_sql: &str) -> bool {
    let Ok(pred) = parse(pred_sql) else {
        return false;
    };
    let Ok(gold) = parse(gold_sql) else {
        return false;
    };
    let Ok(gold_result) = execute(db, &gold) else {
        return false;
    };
    match execute(db, &pred) {
        Ok(pred_result) => pred_result.bag_eq(&gold_result),
        Err(_) => false,
    }
}

/// A cache of database variants for the TS metric, keyed by
/// `(db_name, seed)` — regenerating them per item would dominate runtime.
///
/// Variants are stored behind `Arc` so callers clone a handle out and run
/// their queries *outside* the lock: parallel TS evaluation never serializes
/// on query execution, only on the (cheap) map lookup.
#[derive(Default)]
pub struct VariantCache {
    cache: Mutex<HashMap<(String, u64), Arc<Database>>>,
}

impl VariantCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle to the `(db_name, seed)` variant, generating it on
    /// first use. Returns `None` when the suite has no variant generator for
    /// this database.
    ///
    /// Generation happens outside the lock; if two threads race on the same
    /// missing key, both build the (deterministic, identical) variant and one
    /// result wins — a cheaper trade than holding the lock across datagen.
    pub fn variant_arc(
        &self,
        suite: &BenchmarkSuite,
        db_name: &str,
        seed: u64,
    ) -> Option<Arc<Database>> {
        let key = (db_name.to_string(), seed);
        if let Some(db) = self.map().get(&key) {
            return Some(Arc::clone(db));
        }
        let db = Arc::new(suite.database_variant(db_name, seed)?);
        Some(Arc::clone(self.map().entry(key).or_insert(db)))
    }

    /// The map, taken back from a poisoned lock: entries are inserted
    /// whole, so a panic elsewhere cannot leave it half-updated.
    fn map(&self) -> MutexGuard<'_, HashMap<(String, u64), Arc<Database>>> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_variant<R>(
        &self,
        suite: &BenchmarkSuite,
        db_name: &str,
        seed: u64,
        f: impl FnOnce(&Database) -> R,
    ) -> Option<R> {
        self.variant_arc(suite, db_name, seed).map(|db| f(&db))
    }
}

/// Test-suite accuracy for one prediction: execution equality on the
/// original database *and* on every distilled variant.
pub fn ts_correct(
    suite: &BenchmarkSuite,
    cache: &VariantCache,
    db: &Database,
    db_name: &str,
    pred_sql: &str,
    gold_sql: &str,
) -> bool {
    // Parse and compile each side once: the dev database and every distilled
    // variant share one schema, so a single compiled plan serves all five
    // executions (compilation failing is exactly the old "executes nowhere").
    let gold_c = parse(gold_sql).ok().and_then(|q| compile(db, &q).ok());
    let pred_c = parse(pred_sql).ok().and_then(|q| compile(db, &q).ok());
    // EX gate: both must succeed and agree on the dev database.
    let gold_dev = gold_c
        .as_ref()
        .and_then(|c| c.run(db).ok().map(|o| o.result));
    let pred_dev = pred_c
        .as_ref()
        .and_then(|c| c.run(db).ok().map(|o| o.result));
    match (&pred_dev, &gold_dev) {
        (Some(p), Some(g)) if p.bag_eq(g) => {}
        _ => return false,
    }
    for seed in 1..=TS_VARIANTS {
        let ok = cache.with_variant(suite, db_name, seed, |variant| {
            let p = pred_c
                .as_ref()
                .and_then(|c| c.run(variant).ok().map(|o| o.result));
            let g = gold_c
                .as_ref()
                .and_then(|c| c.run(variant).ok().map(|o| o.result));
            match (p, g) {
                (Some(p), Some(g)) => p.bag_eq(&g),
                (None, None) => true,
                _ => false,
            }
        });
        match ok {
            Some(true) => {}
            Some(false) => return false,
            None => return true, // no variant generator for this db: fall back to EX
        }
    }
    true
}

/// An accuracy accumulator.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy {
    /// Correct predictions.
    pub correct: usize,
    /// Total predictions.
    pub total: usize,
}

impl Accuracy {
    /// Records one outcome.
    pub fn record(&mut self, ok: bool) {
        self.correct += ok as usize;
        self.total += 1;
    }

    /// Percentage in [0, 100].
    pub fn pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.correct as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};

    #[test]
    fn em_ignores_values_but_not_structure() {
        assert!(em_correct(
            "SELECT name FROM t WHERE x = 1",
            "SELECT name FROM t WHERE x = 2"
        ));
        assert!(!em_correct(
            "SELECT count(*) FROM t",
            "SELECT max(x) FROM t"
        ));
        assert!(!em_correct("garbage", "SELECT a FROM t"));
    }

    #[test]
    fn ex_on_real_suite_items() {
        let suite = build_spider_suite(Variant::Spider, SuiteConfig::default());
        let item = &suite.dev[0];
        let db = suite.database(item);
        assert!(ex_correct(db, &item.gold_sql, &item.gold_sql));
        assert!(
            !ex_correct(
                db,
                "SELECT count(*) FROM country WHERE 1 = 0",
                &item.gold_sql
            ) || item.gold_sql.contains("1 = 0")
        );
    }

    #[test]
    fn ts_is_stricter_than_ex() {
        let suite = build_spider_suite(Variant::Spider, SuiteConfig::default());
        let cache = VariantCache::new();
        // A prediction with a hardcoded value tuned to the dev database can
        // pass EX yet fail TS on variant data. Use gold as sanity: gold
        // always passes.
        let item = suite
            .dev
            .iter()
            .find(|i| i.gold_sql.contains("count"))
            .expect("a count item");
        let db = suite.database(item);
        assert!(ts_correct(
            &suite,
            &cache,
            db,
            &item.db_name,
            &item.gold_sql,
            &item.gold_sql
        ));
    }

    #[test]
    fn ts_catches_value_coincidences() {
        let suite = build_spider_suite(Variant::Spider, SuiteConfig::default());
        let cache = VariantCache::new();
        // Find a dev table with a serial key column (values 1..n). Variant
        // databases regenerate that table at different scales, so its row
        // count — and therefore count(*) — changes across variants.
        let (item, table, col, n) = suite
            .dev
            .iter()
            .find_map(|item| {
                let db = suite.database(item);
                db.tables.iter().find_map(|t| {
                    if t.len() < 5 {
                        return None;
                    }
                    t.schema.columns.iter().find_map(|c| {
                        let serial = (0..t.len()).all(|i| {
                            t.value(i, &c.name) == Some(&cyclesql_storage::Value::Int(i as i64 + 1))
                        });
                        serial.then(|| (item, t.schema.name.clone(), c.name.clone(), t.len()))
                    })
                })
            })
            .expect("a serial-keyed dev table");
        let db = suite.database(item);
        let gold = format!("SELECT count(*) FROM {table}");
        // A prediction whose filter is tuned to the dev data: the bound keeps
        // every dev row, so it coincidentally passes EX…
        let cheat = format!("SELECT count(*) FROM {table} WHERE {col} <= {n}");
        assert!(
            ex_correct(db, &cheat, &gold),
            "coincidence must pass EX on dev data"
        );
        // …but a larger distilled variant has rows beyond the bound, so the
        // cheat undercounts there and TS rejects it.
        assert!(
            !ts_correct(&suite, &cache, db, &item.db_name, &cheat, &gold),
            "TS must catch the value coincidence"
        );
        // The gold query itself still passes TS on the same variants.
        assert!(ts_correct(&suite, &cache, db, &item.db_name, &gold, &gold));
    }

    #[test]
    fn accuracy_accumulator() {
        let mut a = Accuracy::default();
        a.record(true);
        a.record(false);
        a.record(true);
        assert_eq!(a.total, 3);
        assert!((a.pct() - 66.666).abs() < 0.1);
        assert_eq!(Accuracy::default().pct(), 0.0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};

    #[test]
    fn em_is_symmetric_and_value_insensitive_on_generated_golds() {
        let suite = build_spider_suite(
            Variant::Spider,
            SuiteConfig {
                seed: 5,
                train_per_template: 1,
                eval_per_template: 1,
            },
        );
        for item in suite.dev.iter().take(30) {
            assert!(em_correct(&item.gold_sql, &item.gold_sql), "{}", item.id);
        }
    }

    #[test]
    fn unparseable_prediction_scores_zero_on_all_metrics() {
        let suite = build_spider_suite(
            Variant::Spider,
            SuiteConfig {
                seed: 5,
                train_per_template: 1,
                eval_per_template: 1,
            },
        );
        let cache = VariantCache::new();
        let item = &suite.dev[0];
        let db = suite.database(item);
        let junk = "THIS IS NOT SQL";
        assert!(!em_correct(junk, &item.gold_sql));
        assert!(!ex_correct(db, junk, &item.gold_sql));
        assert!(!ts_correct(
            &suite,
            &cache,
            db,
            &item.db_name,
            junk,
            &item.gold_sql
        ));
    }

    #[test]
    fn ts_never_exceeds_ex_on_model_outputs() {
        use cyclesql_models::{ModelProfile, SimulatedModel, TranslationRequest};
        let suite = build_spider_suite(
            Variant::Spider,
            SuiteConfig {
                seed: 5,
                train_per_template: 1,
                eval_per_template: 1,
            },
        );
        let cache = VariantCache::new();
        let model = SimulatedModel::new(ModelProfile::gpt35());
        for item in suite.dev.iter().take(25) {
            let db = suite.database(item);
            let req = TranslationRequest {
                item,
                db,
                k: 1,
                severity: 0.0,
                science: false,
            };
            let pred = &model.beam(&req, None).next().unwrap().sql;
            let ex = ex_correct(db, pred, &item.gold_sql);
            let ts = ts_correct(&suite, &cache, db, &item.db_name, pred, &item.gold_sql);
            assert!(!ts || ex, "{}: TS implies EX", item.id);
        }
    }
}
