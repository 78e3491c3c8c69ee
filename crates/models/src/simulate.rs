//! The simulated translation models: calibrated candidate-list generators.
//!
//! A simulated model never reveals correctness to the caller — it returns a
//! ranked list of SQL strings exactly as a beam decoder or a chat-completion
//! API would. Whether a candidate is right is decided downstream by
//! executing it, precisely as the paper's evaluation does.
//!
//! The list is a stream ([`SimulatedModel::beam`]): each candidate, with
//! its error operators and validation runs, is drawn only when a consumer
//! pulls it, so a feedback loop that accepts its first candidate draws one.
//! The simulated latency ([`SimulatedModel::inference_latency_ms`]) still
//! models one inference call producing the whole list.

use crate::error_ops::apply_random_error;
use crate::profile::{ModelKind, ModelProfile};
use cyclesql_benchgen::BenchmarkItem;
use cyclesql_explain::{CachedRun, NoCache, RunCache};
use cyclesql_rng::{fnv1a, StdRng};
use cyclesql_sql::{parse, to_sql, AggFunc, BinOp, Expr, FuncArg, Literal, Query, SelectItem};
use cyclesql_storage::{execute, Database, ExecOpts, ResultSet};
use std::sync::Arc;

/// One plain-text translation candidate, as any model emits it (a beam
/// decoder, a chat-completion API): the input of the feedback loop's
/// string entry point.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate SQL text (may be unparseable for LLM profiles).
    pub sql: String,
    /// Rank in the beam / completion list (0 = top).
    pub rank: usize,
    /// Model confidence score (monotonically decreasing in rank).
    pub score: f64,
}

/// Gold-side artifacts prepared once per item by an evaluation session or
/// once per served request: the parsed gold AST, its print, and (when the
/// gold executes) its run on the item's database. Passing this into
/// [`SimulatedModel::beam`] lets the simulator skip re-parsing,
/// re-printing and re-executing the gold query.
#[derive(Clone)]
pub struct PreparedGold<'a> {
    /// The parsed gold query.
    pub ast: Arc<Query>,
    /// `to_sql(&ast)`: the text of an unrestyled correct candidate, and
    /// the gold's cache key.
    pub sql: String,
    /// The gold run on the item's database; `None` if execution failed.
    pub run: Option<Arc<CachedRun>>,
    /// Where the simulator runs the queries that check its wrong
    /// candidates: a serving engine's result cache, or [`NoCache`], which
    /// executes each one. Either way the same rows come back, so the
    /// candidate list does not depend on it.
    pub source: &'a dyn RunCache,
}

/// A candidate paired with its parse artifact, so downstream consumers
/// (the cycle loop, metrics) never re-parse the SQL text.
#[derive(Debug, Clone)]
pub struct PreparedCandidate {
    /// The candidate SQL text (may be unparseable for LLM profiles). The
    /// simulator emits the print of `ast` whenever `ast` is set.
    pub sql: String,
    /// The parsed candidate; `None` when the text does not parse.
    pub ast: Option<Arc<Query>>,
    /// The candidate's run on the item's database when the simulator
    /// already has it (a validated wrong candidate, or the unrestyled gold),
    /// so the loop executes and explains from it with no second lookup.
    pub run: Option<Arc<CachedRun>>,
    /// Rank in the beam / completion list (0 = top).
    pub rank: usize,
    /// Model confidence score (monotonically decreasing in rank).
    pub score: f64,
}

impl PreparedCandidate {
    /// The candidate's result on the item's database: the run it carries,
    /// else a fresh execution; `None` when it does not parse or run.
    pub fn result(&self, db: &Database) -> Option<Arc<ResultSet>> {
        let ast = self.ast.as_deref()?;
        match &self.run {
            Some(run) => Some(Arc::clone(&run.result)),
            None => execute(db, ast).ok().map(Arc::new),
        }
    }
}

/// How much of a beam was drawn, and how hard it worked to make its wrong
/// candidates: each attempt draws error operators and runs the result on
/// the database; an attempt is retried when the query fails to run or
/// (usually) when its result equals the gold's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Candidates drawn.
    pub candidates: u64,
    /// Validation runs of drawn wrong queries.
    pub attempts: u64,
    /// Attempts rejected and drawn again (or given up on for the fallback).
    pub retries: u64,
}

/// A translation request.
#[derive(Debug, Clone, Copy)]
pub struct TranslationRequest<'a> {
    /// The benchmark item to translate.
    pub item: &'a BenchmarkItem,
    /// The database it targets.
    pub db: &'a Database,
    /// Number of candidates (beam size / completion count).
    pub k: usize,
    /// Perturbation severity of the benchmark variant in `[0, 1]`.
    pub severity: f64,
    /// Whether the item comes from the science benchmark (domain shift).
    pub science: bool,
}

/// A simulated end-to-end NL2SQL model.
#[derive(Debug, Clone)]
pub struct SimulatedModel {
    /// The behavioural profile.
    pub profile: ModelProfile,
}

impl SimulatedModel {
    /// Wraps a profile.
    pub fn new(profile: ModelProfile) -> Self {
        SimulatedModel { profile }
    }

    /// All eight baseline models.
    pub fn all() -> Vec<SimulatedModel> {
        ModelProfile::all()
            .into_iter()
            .map(SimulatedModel::new)
            .collect()
    }

    /// The whole [`SimulatedModel::beam`], drawn. The loop, evaluation and
    /// experiments read the beam itself; this collector stays because the
    /// benchmark harness under `perfbench/` calls it.
    pub fn translate_prepared(
        &self,
        req: &TranslationRequest<'_>,
        gold: Option<&PreparedGold<'_>>,
    ) -> Vec<PreparedCandidate> {
        self.beam(req, gold).collect()
    }

    /// The ranked candidate list for an item as a stream, deterministic
    /// per (model, item): each candidate is drawn when it is pulled, so a
    /// consumer that stops early (the feedback loop accepting a candidate)
    /// never pays for the rest. [`Beam::stats`] reports what was drawn.
    ///
    /// Candidate `i` depends only on the RNG state the first `i` left
    /// behind, never on how far the stream is read, on a result source, or
    /// on whether `gold` is supplied (the gold parse and gold execution
    /// consume no randomness), so every prefix equals the same prefix of
    /// the fully drawn list.
    pub fn beam<'a>(
        &'a self,
        req: &TranslationRequest<'a>,
        gold: Option<&'a PreparedGold<'a>>,
    ) -> Beam<'a> {
        let gold_ast: Option<Arc<Query>> = match gold {
            Some(g) => Some(Arc::clone(&g.ast)),
            None => parse(&req.item.gold_sql).ok().map(Arc::new),
        };
        let mut rng = StdRng::seed_from_u64(
            fnv1a(self.profile.name.as_bytes()) ^ fnv1a(req.item.id.as_bytes()) ^ 0x5117,
        );

        // Effective top-1 correctness under perturbation / domain shift.
        let mut p1 = self.profile.top1_for(req.item.difficulty);
        p1 *= 1.0 - self.profile.perturbation_sensitivity * req.severity;
        if req.science {
            p1 *= self.profile.science_factor;
        }
        let p1 = p1.clamp(0.02, 0.98);

        // Where does the first correct candidate sit? (An unparseable gold
        // yields an empty beam and draws nothing.)
        let first_correct: Option<usize> = if gold_ast.is_none() {
            None
        } else if rng.gen_bool(p1) {
            Some(0)
        } else if rng.gen_bool(self.profile.beam_recovery.clamp(0.0, 1.0)) {
            let mut rank = 1usize;
            while rank + 1 < req.k && rng.gen_bool(self.profile.rank_depth) {
                rank += 1;
            }
            Some(rank)
        } else {
            None
        };

        Beam {
            profile: &self.profile,
            req: *req,
            gold,
            // The gold run is only needed to keep wrong candidates
            // execution-distinct; it is computed lazily so a k=1 correct
            // beam never executes the gold at all.
            gold_run: gold.map(|g| g.run.clone()),
            end: if gold_ast.is_some() { req.k } else { 0 },
            gold_ast,
            rng,
            first_correct,
            rank: 0,
            stats: SimStats::default(),
        }
    }

    /// Simulated wall-clock for one inference call producing the whole
    /// candidate list — beam search and the `n` API parameter both amortize
    /// candidates into a single call. The simulator itself draws candidates
    /// on demand ([`SimulatedModel::beam`]); the latency model still
    /// charges the one call.
    pub fn inference_latency_ms(&self) -> f64 {
        self.profile.latency_ms
    }
}

/// A candidate list drawn on demand, in rank order; see
/// [`SimulatedModel::beam`].
pub struct Beam<'a> {
    profile: &'a ModelProfile,
    req: TranslationRequest<'a>,
    gold: Option<&'a PreparedGold<'a>>,
    /// `None` until the gold has run (or was supplied).
    gold_run: Option<Option<Arc<CachedRun>>>,
    /// `None` when the gold does not parse; the beam is then empty.
    gold_ast: Option<Arc<Query>>,
    rng: StdRng,
    first_correct: Option<usize>,
    /// The rank of the next candidate.
    rank: usize,
    /// One past the last rank (`0` for an empty beam).
    end: usize,
    stats: SimStats,
}

impl Beam<'_> {
    /// Counters over the candidates drawn so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }
}

impl Iterator for Beam<'_> {
    type Item = PreparedCandidate;

    fn next(&mut self) -> Option<PreparedCandidate> {
        if self.rank >= self.end {
            return None;
        }
        let Beam {
            profile,
            req,
            gold,
            gold_run,
            gold_ast,
            rng,
            first_correct,
            rank,
            stats,
            ..
        } = self;
        let gold_ast = gold_ast.as_ref()?;
        let (sql, ast, run) = if Some(*rank) == *first_correct {
            let style_p = if req.science {
                profile.science_style_divergence
            } else {
                profile.style_divergence
            };
            if rng.gen_bool(style_p) {
                let q = restyle(gold_ast, req.db, rng);
                (to_sql(&q), Some(Arc::new(q)), None)
            } else {
                let sql = gold.map_or_else(|| to_sql(gold_ast), |g| g.sql.clone());
                (sql, Some(Arc::clone(gold_ast)), gold_run.clone().flatten())
            }
        } else if profile.kind == ModelKind::Llm && rng.gen_bool(profile.invalid_rate) {
            // LLMs occasionally emit non-SQL garbage.
            let sql = format!("{} AND AND ???", req.item.gold_sql);
            let ast = parse(&sql).ok().map(Arc::new);
            (sql, ast, None)
        } else {
            let gr = gold_run
                .get_or_insert_with(|| CachedRun::execute(req.db, gold_ast, &ExecOpts::default()))
                .clone();
            let source = gold.map_or(&NoCache as &dyn RunCache, |g| g.source);
            wrong_candidate(gold_ast, gr.as_deref(), req.db, source, rng, stats)
        };
        let cand = PreparedCandidate {
            sql,
            ast,
            run,
            rank: *rank,
            score: 1.0 - *rank as f64 * 0.07,
        };
        *rank += 1;
        stats.candidates += 1;
        Some(cand)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.rank;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Beam<'_> {}

/// Builds an incorrect candidate: 1–2 error operators, retried until the
/// result is executable and (best-effort) execution-distinct from the gold.
///
/// The drawn AST is the candidate: its print is the candidate's text and
/// its cache key, and it is never reparsed (every error operator emits an
/// AST that equals the parse of its print). The gold run is supplied by
/// the caller (computed at most once per translation). Each attempt clones
/// the gold once and applies its operators to that copy in place, then runs
/// it through `source`; the accepted attempt's run travels with the
/// candidate.
fn wrong_candidate(
    gold: &Query,
    gold_run: Option<&CachedRun>,
    db: &Database,
    source: &dyn RunCache,
    rng: &mut StdRng,
    stats: &mut SimStats,
) -> (String, Option<Arc<Query>>, Option<Arc<CachedRun>>) {
    for _attempt in 0..4 {
        let mut q = gold.clone();
        if !apply_random_error(&mut q, db, rng) {
            break;
        }
        if rng.gen_bool(0.35) {
            apply_random_error(&mut q, db, rng);
        }
        let sql = to_sql(&q);
        let run = source.run(db, &sql, &q, &ExecOpts::default()).0;
        stats.attempts += 1;
        let Some(run) = run else {
            stats.retries += 1;
            continue;
        };
        // Accidentally equivalent — usually retry, occasionally let it
        // through (real model errors are sometimes benign).
        if gold_run.is_some_and(|g| run.same_bag(g)) && rng.gen_bool(0.85) {
            stats.retries += 1;
            continue;
        }
        return (sql, Some(Arc::new(q)), Some(run));
    }
    // Fallback: a structurally-different but valid query (count over base).
    let sql = format!(
        "SELECT count(*) FROM {}",
        gold.leading_select().from.base.name
    );
    let ast = parse(&sql).ok().map(Arc::new);
    (sql, ast, None)
}

/// Restyles a correct query without changing its semantics: breaks EM,
/// preserves EX (the LLM signature of low exact-match, high execution
/// accuracy).
fn restyle(gold: &Query, db: &Database, rng: &mut StdRng) -> Query {
    let mut q = gold.clone();
    let choice = rng.gen_range(0..3);
    match choice {
        0 => {
            // count(*) → count(<pk>): the paper's CHESS "ID-like projection"
            // signature (here EX-preserving because generated keys are
            // non-null).
            let base = q.leading_select().from.base.clone();
            let pk = db
                .schema
                .table(&base.name)
                .and_then(|t| t.primary_key_names().first().map(|s| s.to_string()));
            if let Some(pk) = pk {
                let core = q.leading_select_mut();
                for item in &mut core.projections {
                    if let SelectItem::Expr {
                        expr:
                            Expr::Agg {
                                func: AggFunc::Count,
                                arg: arg @ FuncArg::Star,
                                ..
                            },
                        ..
                    } = item
                    {
                        *arg = FuncArg::Expr(Box::new(Expr::col(cyclesql_sql::ColumnRef {
                            table: base.alias.clone().or_else(|| Some(base.name.clone())),
                            column: pk.clone(),
                        })));
                        return q;
                    }
                }
            }
            add_tautology(&mut q);
            q
        }
        1 => {
            // x = 'v'  →  x IN ('v').
            let core = q.leading_select_mut();
            if let Some(w) = &mut core.where_clause {
                if eq_to_in(w) {
                    return q;
                }
            }
            add_tautology(&mut q);
            q
        }
        _ => {
            add_tautology(&mut q);
            q
        }
    }
}

/// Appends a `1 = 1` tautology conjunct (semantics-preserving EM breaker).
fn add_tautology(q: &mut Query) {
    let core = q.leading_select_mut();
    let tautology = Expr::binary(
        BinOp::Eq,
        Expr::lit(Literal::Int(1)),
        Expr::lit(Literal::Int(1)),
    );
    core.where_clause = Some(match core.where_clause.take() {
        Some(w) => Expr::and(w, tautology),
        None => tautology,
    });
}

fn eq_to_in(e: &mut Expr) -> bool {
    match e {
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => {
            if let (Expr::Column(_), Expr::Literal(lit)) = (&**left, &**right) {
                let lit = lit.clone();
                let col = std::mem::replace(&mut **left, Expr::lit(Literal::Null));
                *e = Expr::InList {
                    expr: Box::new(col),
                    list: vec![Expr::lit(lit)],
                    negated: false,
                };
                true
            } else {
                false
            }
        }
        Expr::Binary { left, right, .. } => eq_to_in(left) || eq_to_in(right),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
    use cyclesql_sql::exact_match;
    use cyclesql_storage::execute;

    fn setup() -> (cyclesql_benchgen::BenchmarkSuite, SimulatedModel) {
        (
            build_spider_suite(Variant::Spider, SuiteConfig::default()),
            SimulatedModel::new(ModelProfile::resdsql_3b()),
        )
    }

    #[test]
    fn translation_is_deterministic() {
        let (suite, model) = setup();
        let item = &suite.dev[0];
        let req = TranslationRequest {
            item,
            db: suite.database(item),
            k: 8,
            severity: 0.0,
            science: false,
        };
        let a: Vec<_> = model.beam(&req, None).collect();
        let b: Vec<_> = model.beam(&req, None).collect();
        assert_eq!(
            a.iter().map(|c| &c.sql).collect::<Vec<_>>(),
            b.iter().map(|c| &c.sql).collect::<Vec<_>>()
        );
        assert_eq!(a.len(), 8);
    }

    /// A run cache that memoizes every query it runs by its text, so
    /// repeated validation queries are answered from memory as a serving
    /// cache would.
    #[derive(Default)]
    struct MemoSource(std::sync::Mutex<std::collections::HashMap<String, Option<Arc<CachedRun>>>>);

    impl RunCache for MemoSource {
        fn run(
            &self,
            db: &Database,
            sql: &str,
            query: &Query,
            opts: &ExecOpts<'_>,
        ) -> (Option<Arc<CachedRun>>, bool) {
            let key = format!("{}\n{sql}", db.schema.name);
            let mut memo = self.0.lock().unwrap();
            let hit = memo.contains_key(&key);
            let run = memo
                .entry(key)
                .or_insert_with(|| CachedRun::execute(db, query, opts));
            (run.clone(), hit)
        }
    }

    #[test]
    fn prepared_translation_matches_string_path() {
        // The prepared path must draw the same RNG sequence whether or not
        // gold artifacts — and a result source for the validation runs —
        // are supplied, for every profile.
        let (suite, _) = setup();
        let source = MemoSource::default();
        for model in SimulatedModel::all() {
            for item in suite.dev.iter().take(20) {
                let db = suite.database(item);
                let req = TranslationRequest {
                    item,
                    db,
                    k: 8,
                    severity: 0.0,
                    science: false,
                };
                let plain: Vec<_> = model.beam(&req, None).collect();
                let gold_ast = Arc::new(parse(&item.gold_sql).unwrap());
                let mut gold = PreparedGold {
                    ast: Arc::clone(&gold_ast),
                    sql: to_sql(&gold_ast),
                    run: CachedRun::execute(db, &gold_ast, &ExecOpts::default()),
                    source: &NoCache,
                };
                let mut beam = model.beam(&req, Some(&gold));
                let (prepared, stats): (Vec<_>, _) = (beam.by_ref().collect(), beam.stats());
                gold.source = &source;
                let mut beam = model.beam(&req, Some(&gold));
                let (sourced, sourced_stats): (Vec<_>, _) = (beam.by_ref().collect(), beam.stats());
                assert_eq!(stats, sourced_stats, "{}", item.id);
                assert!(stats.retries <= stats.attempts);
                assert_eq!(plain.len(), prepared.len());
                assert_eq!(plain.len(), sourced.len());
                for ((p, c), r) in plain.iter().zip(&prepared).zip(&sourced) {
                    let at = format!("{} {} rank {}", model.profile.name, item.id, p.rank);
                    assert_eq!(p.sql, c.sql, "{at}");
                    assert_eq!(p.rank, c.rank);
                    assert_eq!(p.score, c.score);
                    assert_eq!(c.sql, r.sql, "{at}: with a result source");
                    assert_eq!(c.rank, r.rank);
                    assert_eq!(c.score, r.score);
                    assert_eq!(c.ast, r.ast, "{at}: AST with a result source");
                    // The attached AST must agree with parsing the text.
                    assert_eq!(c.ast.is_some(), parse(&c.sql).is_ok());
                    if let Some(ast) = &c.ast {
                        assert_eq!(to_sql(ast), to_sql(&parse(&c.sql).unwrap()));
                    }
                    // A carried run is the candidate's own result.
                    for cand in [c, r] {
                        if let (Some(run), Some(ast)) = (&cand.run, &cand.ast) {
                            let fresh = CachedRun::execute(db, ast, &ExecOpts::default());
                            assert_eq!(
                                Some(&run.result),
                                fresh.as_ref().map(|f| &f.result),
                                "{at}"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            !source.0.lock().unwrap().is_empty(),
            "validation runs went through the source"
        );
    }

    #[test]
    fn every_beam_prefix_matches_the_eager_list() {
        // Drawing lazily changes nothing: for every profile, each prefix of
        // the stream equals the same prefix of the collected list, and a
        // drained stream reports the eager counters.
        let (suite, _) = setup();
        let source = MemoSource::default();
        for model in SimulatedModel::all() {
            for item in suite.dev.iter().take(20) {
                let db = suite.database(item);
                let req = TranslationRequest {
                    item,
                    db,
                    k: 8,
                    severity: 0.0,
                    science: false,
                };
                let gold_ast = Arc::new(parse(&item.gold_sql).unwrap());
                let gold = PreparedGold {
                    ast: Arc::clone(&gold_ast),
                    sql: to_sql(&gold_ast),
                    run: CachedRun::execute(db, &gold_ast, &ExecOpts::default()),
                    source: &source,
                };
                let mut beam = model.beam(&req, Some(&gold));
                let (eager, eager_stats): (Vec<_>, _) = (beam.by_ref().collect(), beam.stats());
                assert_eq!(eager_stats.candidates, eager.len() as u64);
                for n in 0..=eager.len() {
                    let mut beam = model.beam(&req, Some(&gold));
                    assert_eq!(beam.len(), eager.len());
                    let prefix: Vec<_> = beam.by_ref().take(n).collect();
                    assert_eq!(beam.len(), eager.len() - n);
                    assert_eq!(beam.stats().candidates, n as u64);
                    for (lazy, want) in prefix.iter().zip(&eager) {
                        let at = format!(
                            "{} {} rank {} of {n}",
                            model.profile.name, item.id, want.rank
                        );
                        assert_eq!(lazy.sql, want.sql, "{at}");
                        assert_eq!(lazy.ast, want.ast, "{at}");
                        assert_eq!(lazy.rank, want.rank, "{at}");
                        assert_eq!(lazy.score, want.score, "{at}");
                        assert_eq!(
                            lazy.run.as_ref().map(|r| &r.result),
                            want.run.as_ref().map(|r| &r.result),
                            "{at}: carried run"
                        );
                    }
                    if n == eager.len() {
                        assert!(beam.next().is_none());
                        assert_eq!(beam.stats(), eager_stats, "{}", item.id);
                    }
                }
            }
        }
    }

    #[test]
    fn unparseable_gold_yields_an_empty_beam() {
        let (suite, model) = setup();
        let mut item = suite.dev[0].clone();
        item.gold_sql = "NOT SQL @@@".into();
        let req = TranslationRequest {
            item: &item,
            db: suite.database(&suite.dev[0]),
            k: 8,
            severity: 0.0,
            science: false,
        };
        let mut beam = model.beam(&req, None);
        assert_eq!(beam.len(), 0);
        assert!(beam.next().is_none());
        assert_eq!(beam.stats(), SimStats::default());
    }

    #[test]
    fn scores_decrease_with_rank() {
        let (suite, model) = setup();
        let item = &suite.dev[0];
        let req = TranslationRequest {
            item,
            db: suite.database(item),
            k: 8,
            severity: 0.0,
            science: false,
        };
        let cands: Vec<_> = model.beam(&req, None).collect();
        for w in cands.windows(2) {
            assert!(w[0].score > w[1].score);
        }
    }

    #[test]
    fn top1_accuracy_tracks_profile() {
        // Over the dev split, measured top-1 EX should be within a few
        // points of the calibrated profile (law of large numbers on ~350
        // items).
        let (suite, model) = setup();
        let mut correct = 0usize;
        let mut total = 0usize;
        for item in &suite.dev {
            let db = suite.database(item);
            let gold = parse(&item.gold_sql).unwrap();
            let gold_result = execute(db, &gold).unwrap();
            let req = TranslationRequest {
                item,
                db,
                k: 1,
                severity: 0.0,
                science: false,
            };
            let cands: Vec<_> = model.beam(&req, None).collect();
            total += 1;
            if let Ok(q) = parse(&cands[0].sql) {
                if let Ok(r) = execute(db, &q) {
                    if r.bag_eq(&gold_result) {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total as f64;
        // Dev-split difficulty mix weights the profile; expect 0.65–0.92.
        assert!((0.60..=0.95).contains(&acc), "top-1 accuracy {acc}");
    }

    #[test]
    fn beam_contains_more_correct_than_top1() {
        let (suite, model) = setup();
        let mut top1 = 0usize;
        let mut any = 0usize;
        for item in &suite.dev {
            let db = suite.database(item);
            let gold = parse(&item.gold_sql).unwrap();
            let gold_result = execute(db, &gold).unwrap();
            let req = TranslationRequest {
                item,
                db,
                k: 8,
                severity: 0.0,
                science: false,
            };
            let cands: Vec<_> = model.beam(&req, None).collect();
            let correct_at = |c: &PreparedCandidate| {
                parse(&c.sql)
                    .ok()
                    .and_then(|q| execute(db, &q).ok())
                    .is_some_and(|r| r.bag_eq(&gold_result))
            };
            if correct_at(&cands[0]) {
                top1 += 1;
            }
            if cands.iter().any(correct_at) {
                any += 1;
            }
        }
        assert!(
            any > top1,
            "beam must recover extra correct answers ({any} vs {top1})"
        );
    }

    #[test]
    fn severity_degrades_accuracy() {
        let (suite, model) = setup();
        let mut base = 0usize;
        let mut perturbed = 0usize;
        for item in &suite.dev {
            let db = suite.database(item);
            let gold = parse(&item.gold_sql).unwrap();
            let gold_result = execute(db, &gold).unwrap();
            for (severity, counter) in [(0.0, &mut base), (0.55, &mut perturbed)] {
                let req = TranslationRequest {
                    item,
                    db,
                    k: 1,
                    severity,
                    science: false,
                };
                let cands: Vec<_> = model.beam(&req, None).collect();
                if let Ok(q) = parse(&cands[0].sql) {
                    if let Ok(r) = execute(db, &q) {
                        if r.bag_eq(&gold_result) {
                            *counter += 1;
                        }
                    }
                }
            }
        }
        assert!(
            perturbed < base,
            "severity should hurt: {perturbed} vs {base}"
        );
    }

    #[test]
    fn llm_restyles_break_em_not_ex() {
        let (suite, _) = setup();
        let model = SimulatedModel::new(ModelProfile::gpt35());
        let mut styled = 0usize;
        let mut checked = 0usize;
        for item in &suite.dev {
            let db = suite.database(item);
            let gold = parse(&item.gold_sql).unwrap();
            let gold_result = execute(db, &gold).unwrap();
            let req = TranslationRequest {
                item,
                db,
                k: 1,
                severity: 0.0,
                science: false,
            };
            let cands: Vec<_> = model.beam(&req, None).collect();
            let Ok(q) = parse(&cands[0].sql) else {
                continue;
            };
            let Ok(r) = execute(db, &q) else { continue };
            if r.bag_eq(&gold_result) {
                checked += 1;
                if !exact_match(&q, &gold) {
                    styled += 1;
                }
            }
        }
        assert!(checked > 30, "only {checked} correct top-1 candidates");
        let ratio = styled as f64 / checked as f64;
        assert!(
            (0.2..=0.6).contains(&ratio),
            "GPT-3.5 style divergence should be heavy: {ratio}"
        );
    }

    #[test]
    fn restyle_preserves_execution() {
        let (suite, _) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        for item in suite.dev.iter().take(60) {
            let db = suite.database(item);
            let gold = parse(&item.gold_sql).unwrap();
            let gold_result = execute(db, &gold).unwrap();
            let styled = restyle(&gold, db, &mut rng);
            let r =
                execute(db, &styled).unwrap_or_else(|e| panic!("restyle broke {}: {e}", item.id));
            assert!(
                r.bag_eq(&gold_result),
                "restyle changed semantics for {}: {}",
                item.id,
                to_sql(&styled)
            );
        }
    }

    #[test]
    fn all_models_translate_without_panic() {
        let (suite, _) = setup();
        let item = &suite.dev[3];
        for model in SimulatedModel::all() {
            let req = TranslationRequest {
                item,
                db: suite.database(item),
                k: model.profile.default_k,
                severity: 0.0,
                science: false,
            };
            let cands: Vec<_> = model.beam(&req, None).collect();
            assert_eq!(
                cands.len(),
                model.profile.default_k,
                "{}",
                model.profile.name
            );
        }
    }
}
