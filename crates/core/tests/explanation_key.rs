//! The serving result cache keys a candidate's entry — its result and its
//! data-grounded explanation — by `(database id, SQL text)`, where the text
//! is the candidate AST's print. That is sound only if the explanation
//! depends on nothing the print loses: every AST the models run or emit
//! must equal the parse of its own print, each candidate's text must be
//! that print, and explaining either AST must give the same text and
//! facets. Restyled ASTs and error-operator outputs are the risk, since
//! the simulator builds them by editing a tree it never reparses.
//!
//! If this test fails, the cache is unsound: fix the cache key or the
//! operator that broke the invariant, not the test.

use cyclesql_benchgen::{
    build_science_suite, build_spider_suite, BenchmarkSuite, SuiteConfig, Variant,
};
use cyclesql_core::{premise_from_parts, CachedRun, FeedbackKind, RunCache};
use cyclesql_models::{PreparedGold, SimulatedModel, TranslationRequest};
use cyclesql_sql::{parse, to_sql, Query};
use cyclesql_storage::{execute, Database, ExecOpts};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const ITEMS: usize = 60;
const K: usize = 8;

/// The loop's data-grounded explanation text and facets for `query` (the
/// facets compared through their `Debug` form, which prints every field).
fn explain(db: &Database, query: &Query) -> Option<(String, String)> {
    let result = execute(db, query).ok()?;
    let (text, facets) = premise_from_parts(db, query, Some(&result), FeedbackKind::DataGrounded)?;
    Some((text, format!("{facets:?}")))
}

/// Runs the simulator's validation queries directly, first checking the
/// key invariant on each one before it is used: the text it is keyed by is
/// its print, and that print parses back to the very same AST.
#[derive(Default)]
struct CheckedRuns {
    checked: AtomicUsize,
}

impl RunCache for CheckedRuns {
    fn run(
        &self,
        db: &Database,
        sql: &str,
        query: &Query,
        opts: &ExecOpts<'_>,
    ) -> (Option<Arc<CachedRun>>, bool) {
        assert_eq!(sql, to_sql(query), "a validation run keyed by another text");
        let reparsed = parse(sql).unwrap_or_else(|e| panic!("{sql}: print does not parse: {e}"));
        assert_eq!(
            *query, reparsed,
            "{sql}: AST differs from the parse of its print"
        );
        self.checked.fetch_add(1, Ordering::Relaxed);
        (CachedRun::execute(db, query, opts), false)
    }
}

fn check_suite(
    suite: &BenchmarkSuite,
    science: bool,
    seen: &mut HashSet<(String, String)>,
    runs: &CheckedRuns,
) -> usize {
    let mut checked = 0;
    for model in SimulatedModel::all() {
        for item in suite.dev.iter().take(ITEMS) {
            let db = suite.database(item);
            let request = TranslationRequest {
                item,
                db,
                k: K,
                severity: 0.0,
                science,
            };
            let gold = parse(&item.gold_sql).ok().map(|ast| PreparedGold {
                run: CachedRun::execute(db, &ast, &ExecOpts::default()),
                sql: to_sql(&ast),
                ast: Arc::new(ast),
                source: Some(runs),
            });
            for cand in model.translate_prepared(&request, gold.as_ref()) {
                let Some(ast) = cand.ast else { continue };
                checked += 1;
                let sql = to_sql(&ast);
                let at = format!(
                    "{} {} rank {}: {sql}",
                    model.profile.name, item.id, cand.rank
                );
                assert_eq!(cand.sql, sql, "{at}: candidate text is not its AST's print");
                let reparsed =
                    parse(&sql).unwrap_or_else(|e| panic!("{at}: print does not parse: {e}"));
                assert_eq!(
                    *ast, reparsed,
                    "{at}: AST differs from the parse of its print"
                );
                // Equal ASTs explain alike; explaining each distinct key
                // once from both trees keeps the check affordable.
                if seen.insert((db.schema.name.clone(), sql)) {
                    assert_eq!(
                        explain(db, &ast),
                        explain(db, &reparsed),
                        "{at}: explanation"
                    );
                }
            }
        }
    }
    checked
}

#[test]
fn explanation_depends_only_on_database_and_canonical_sql() {
    let config = SuiteConfig::default();
    let mut seen = HashSet::new();
    let runs = CheckedRuns::default();
    let spider = check_suite(
        &build_spider_suite(Variant::Spider, config),
        false,
        &mut seen,
        &runs,
    );
    let science = check_suite(&build_science_suite(config), true, &mut seen, &runs);
    assert!(spider > 0 && science > 0, "both splits produced candidates");
    assert!(
        runs.checked.load(Ordering::Relaxed) > 0,
        "validation runs went through the checked source"
    );
}
