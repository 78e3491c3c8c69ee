//! The evaluation harness: runs a model with the CycleSQL loop over a
//! benchmark split and reports EM / EX / TS, per-difficulty breakdowns,
//! average iterations, and latency — for the model's own top-1 and for the
//! loop's choice, from one pass.
//!
//! Each item's beam is drawn once, by the loop. The loop's candidate 0 is
//! the model's top-1, so the base outcome is read off the loop's own top-1
//! (its parse and its result as the loop executed it) and the loop outcome
//! off its choice.
//!
//! The harness consumes a prepared [`EvalSession`]: gold parses, canonical
//! forms, and gold executions (dev database and TS variants) all come from
//! the session's per-item caches, so each is performed exactly once per
//! `(benchmark, item)` no matter how many models or loops are evaluated.
//! The per-item loop runs on a scoped worker pool; results are merged in
//! item order and folded sequentially, so every aggregate is bit-for-bit
//! identical to a sequential run.

use crate::cycle::{CycleSql, LoopVerifier};
use crate::metrics::Accuracy;
use crate::session::EvalSession;
use cyclesql_benchgen::{Split, Variant};
use cyclesql_models::{SimulatedModel, TranslationRequest};
use cyclesql_sql::{CanonicalSql, Difficulty, Query};
use cyclesql_storage::ResultSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Aggregate evaluation results for one (model, configuration, split).
#[derive(Debug, Clone, Default)]
pub struct EvalResult {
    /// Exact-match accuracy (%).
    pub em: f64,
    /// Execution accuracy (%).
    pub ex: f64,
    /// Test-suite accuracy (%).
    pub ts: f64,
    /// Execution accuracy by difficulty (%), in Easy→ExtraHard order.
    pub ex_by_difficulty: [f64; 4],
    /// Item counts by difficulty.
    pub counts_by_difficulty: [usize; 4],
    /// Average loop iterations (1.0 for the base half).
    pub avg_iterations: f64,
    /// Average inference latency in milliseconds (simulated base latency
    /// plus measured loop overhead).
    pub avg_latency_ms: f64,
    /// Items evaluated.
    pub total: usize,
}

cyclesql_obs::impl_to_json! {
    EvalResult {
        em, ex, ts, ex_by_difficulty, counts_by_difficulty, avg_iterations, avg_latency_ms,
        total
    }
}

impl EvalResult {
    /// Whether two results agree on every deterministic field.
    ///
    /// `avg_latency_ms` is excluded: it folds in measured wall-clock loop
    /// overhead, which legitimately varies between runs. Everything else is
    /// derived from seeded computation and must match bit-for-bit.
    pub fn same_outcomes(&self, other: &EvalResult) -> bool {
        self.em.to_bits() == other.em.to_bits()
            && self.ex.to_bits() == other.ex.to_bits()
            && self.ts.to_bits() == other.ts.to_bits()
            && self
                .ex_by_difficulty
                .iter()
                .zip(&other.ex_by_difficulty)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.counts_by_difficulty == other.counts_by_difficulty
            && self.avg_iterations.to_bits() == other.avg_iterations.to_bits()
            && self.total == other.total
    }

    /// Folds per-item outcomes, in item order, into aggregates.
    fn fold<'a>(items: &'a [ItemPair], side: impl Fn(&'a ItemPair) -> &'a Outcome) -> Self {
        let mut em = Accuracy::default();
        let mut ex = Accuracy::default();
        let mut ts = Accuracy::default();
        let mut ex_diff = [Accuracy::default(); 4];
        let mut iterations_sum = 0usize;
        let mut latency_sum_ms = 0.0f64;
        for item in items {
            let o = side(item);
            em.record(o.em);
            ex.record(o.ex);
            ex_diff[item.diff].record(o.ex);
            if let Some(t) = o.ts {
                ts.record(t);
            }
            iterations_sum += o.iterations;
            latency_sum_ms += o.latency_ms;
        }
        let total = items.len().max(1);
        EvalResult {
            em: em.pct(),
            ex: ex.pct(),
            ts: ts.pct(),
            ex_by_difficulty: ex_diff.map(|a| a.pct()),
            counts_by_difficulty: ex_diff.map(|a| a.total),
            avg_iterations: iterations_sum as f64 / total as f64,
            avg_latency_ms: latency_sum_ms / total as f64,
            total: items.len(),
        }
    }
}

/// The base and +CycleSQL results of one evaluation pass.
#[derive(Debug, Clone)]
pub struct PairedResult {
    /// Base model (top-1).
    pub base: EvalResult,
    /// With the CycleSQL loop.
    pub cycle: EvalResult,
    /// Per-item outcomes, in item order.
    items: Vec<ItemPair>,
}

cyclesql_obs::impl_to_json! { PairedResult { base, cycle } }

/// How the loop moved each item's EX away from the base top-1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExFlips {
    /// Right at base, right after the loop.
    pub right_right: usize,
    /// Right at base, wrong after the loop.
    pub right_wrong: usize,
    /// Wrong at base, right after the loop.
    pub wrong_right: usize,
    /// Wrong at base, wrong after the loop.
    pub wrong_wrong: usize,
}

impl PairedResult {
    /// EM per database (the paper's SCIENCEBENCHMARK columns report EM per
    /// database), for the base top-1 and for the loop's choice.
    pub fn em_by_db(&self) -> (HashMap<String, f64>, HashMap<String, f64>) {
        let per_db = |side: fn(&ItemPair) -> &Outcome| {
            let mut acc: HashMap<&str, Accuracy> = HashMap::new();
            for item in &self.items {
                acc.entry(&item.db_name).or_default().record(side(item).em);
            }
            acc.into_iter()
                .map(|(db, a)| (db.to_string(), a.pct()))
                .collect()
        };
        (per_db(|i| &i.base), per_db(|i| &i.cycle))
    }

    /// The items counted by how their EX moved from base to loop.
    pub fn ex_flips(&self) -> ExFlips {
        let mut flips = ExFlips::default();
        for item in &self.items {
            *match (item.base.ex, item.cycle.ex) {
                (true, true) => &mut flips.right_right,
                (true, false) => &mut flips.right_wrong,
                (false, true) => &mut flips.wrong_right,
                (false, false) => &mut flips.wrong_wrong,
            } += 1;
        }
        flips
    }
}

/// How to distribute the per-item evaluation loop across threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker per available core (capped at the item count).
    #[default]
    Auto,
    /// Plain sequential loop on the calling thread.
    Sequential,
    /// Exactly this many workers (capped at the item count).
    Fixed(usize),
}

impl Parallelism {
    fn worker_count(self, items: usize) -> usize {
        let n = match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        n.min(items.max(1))
    }
}

/// Options for one evaluation pass.
pub struct EvalOptions<'a> {
    /// The prepared benchmark session.
    pub session: &'a EvalSession,
    /// Which split to evaluate.
    pub split: Split,
    /// The loop (verifier + feedback) whose choice the `cycle` half scores.
    pub cycle: &'a CycleSql,
    /// Candidate count; defaults to the model's profile default.
    pub k: Option<usize>,
    /// Compute the TS metric (disable to speed up large sweeps).
    pub compute_ts: bool,
    /// Worker-thread policy for the per-item loop.
    pub parallelism: Parallelism,
}

impl<'a> EvalOptions<'a> {
    /// A pass over `split` at the model's default k, without TS, on one
    /// worker per core.
    pub fn new(session: &'a EvalSession, split: Split, cycle: &'a CycleSql) -> Self {
        EvalOptions {
            session,
            split,
            cycle,
            k: None,
            compute_ts: false,
            parallelism: Parallelism::Auto,
        }
    }
}

fn difficulty_index(d: Difficulty) -> usize {
    match d {
        Difficulty::Easy => 0,
        Difficulty::Medium => 1,
        Difficulty::Hard => 2,
        Difficulty::ExtraHard => 3,
    }
}

/// One item's metric outcomes for one chosen query.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    em: bool,
    ex: bool,
    ts: Option<bool>,
    iterations: usize,
    latency_ms: f64,
}

/// One item's base and loop outcomes, read off one beam.
#[derive(Debug, Clone)]
struct ItemPair {
    db_name: String,
    diff: usize,
    base: Outcome,
    cycle: Outcome,
}

/// Runs `f(0..n)` over a scoped worker pool and returns the results in
/// index order. Workers pull indices from a shared counter (items vary a lot
/// in cost, so static partitioning would straggle); the merge reorders by
/// index so the caller's fold is independent of scheduling.
fn run_indexed<T: Send>(
    parallelism: Parallelism,
    n: usize,
    f: &(dyn Fn(usize) -> T + Sync),
) -> Vec<T> {
    let workers = parallelism.worker_count(n);
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        out.push((idx, f(idx)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("evaluation worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (idx, value) in indexed {
        slots[idx] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index evaluated"))
        .collect()
}

/// Evaluates one model under the given options: the base top-1 and the
/// loop's choice, from one beam per item.
pub fn evaluate(model: &SimulatedModel, opts: &EvalOptions<'_>) -> PairedResult {
    let session = opts.session;
    let items = session.suite().split(opts.split);
    let severity = session.variant.severity();
    let science = session.variant == Variant::Science;
    let k = opts.k.unwrap_or(model.profile.default_k);
    let latency_ms = model.inference_latency_ms();

    let eval_item = |idx: usize| -> ItemPair {
        let item = &items[idx];
        let prep = session.prepared_item(opts.split, idx);
        let db = session.database(item);
        let req = TranslationRequest {
            item,
            db,
            k,
            severity,
            science,
        };
        let beam = model.beam(&req, prep.gold.as_ref());
        let run = opts.cycle.run_prepared(item, db, beam, prep.gold_result());
        let score = |ast: Option<&Query>, result: Option<&ResultSet>, iterations, latency_ms| {
            let em = match (ast, &prep.gold_canonical) {
                (Some(pred), Some(gold)) => &CanonicalSql::of(pred) == gold,
                _ => false,
            };
            let ex = match (prep.gold_result(), result) {
                (Some(g), Some(p)) => p.bag_eq(g),
                _ => false,
            };
            let ts = opts
                .compute_ts
                .then(|| session.ts_prepared(opts.split, idx, ast, result));
            Outcome {
                em,
                ex,
                ts,
                iterations,
                latency_ms,
            }
        };
        let base = score(
            run.top1_ast.as_deref(),
            run.top1_result.as_deref(),
            1,
            latency_ms,
        );
        let cycle_latency_ms = latency_ms + run.overhead.as_secs_f64() * 1e3;
        // A loop that keeps its top-1 scores exactly as the base does.
        let kept_top1 = run.chosen_ast.as_ref().map(Arc::as_ptr)
            == run.top1_ast.as_ref().map(Arc::as_ptr)
            && run.chosen_result.as_ref().map(Arc::as_ptr)
                == run.top1_result.as_ref().map(Arc::as_ptr);
        let cycle = if kept_top1 {
            Outcome {
                iterations: run.iterations,
                latency_ms: cycle_latency_ms,
                ..base
            }
        } else {
            score(
                run.chosen_ast.as_deref(),
                run.chosen_result.as_deref(),
                run.iterations,
                cycle_latency_ms,
            )
        };
        ItemPair {
            db_name: item.db_name.clone(),
            diff: difficulty_index(item.difficulty),
            base,
            cycle,
        }
    };

    let items = run_indexed(opts.parallelism, items.len(), &eval_item);
    PairedResult {
        base: EvalResult::fold(&items, |i| &i.base),
        cycle: EvalResult::fold(&items, |i| &i.cycle),
        items,
    }
}

/// Accuracy when matching *any* beam candidate (Figure 1's evaluation rule).
pub fn any_beam_accuracy(
    model: &SimulatedModel,
    session: &EvalSession,
    split: Split,
    k: usize,
) -> f64 {
    let mut acc = Accuracy::default();
    let items = session.suite().split(split);
    for (idx, item) in items.iter().enumerate() {
        let prep = session.prepared_item(split, idx);
        let db = session.database(item);
        let req = TranslationRequest {
            item,
            db,
            k,
            severity: session.variant.severity(),
            science: session.variant == Variant::Science,
        };
        // Drawing stops at the first correct candidate.
        let mut beam = model.beam(&req, prep.gold.as_ref());
        acc.record(
            prep.gold_result()
                .is_some_and(|g| beam.any(|c| c.result(db).is_some_and(|r| r.bag_eq(g)))),
        );
    }
    acc.pct()
}

/// Shared handle to a frozen verifier-backed loop.
pub fn trained_loop(verifier: cyclesql_nli::TrainedVerifier) -> CycleSql {
    CycleSql::new(LoopVerifier::Trained(verifier))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{em_correct, ex_correct, ts_correct, VariantCache};
    use crate::training::{train_verifier, CollectConfig};
    use cyclesql_benchgen::{build_spider_suite, SuiteConfig};
    use cyclesql_models::{Candidate, ModelProfile};
    use cyclesql_nli::TrainConfig;

    fn small_session() -> EvalSession {
        EvalSession::new(build_spider_suite(
            Variant::Spider,
            SuiteConfig {
                seed: 21,
                train_per_template: 1,
                eval_per_template: 1,
            },
        ))
    }

    #[test]
    fn cyclesql_improves_ex_over_base() {
        let session = small_session();
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        let (verifier, _, _) = train_verifier(
            &session,
            &[
                SimulatedModel::new(ModelProfile::resdsql_large()),
                SimulatedModel::new(ModelProfile::gpt35()),
            ],
            CollectConfig::default(),
            TrainConfig::default(),
        );
        let cycle = trained_loop(verifier);
        let PairedResult {
            base, cycle: with, ..
        } = evaluate(&model, &EvalOptions::new(&session, Split::Dev, &cycle));
        assert!(
            with.ex >= base.ex,
            "CycleSQL must not hurt EX: base {} vs cycle {}",
            base.ex,
            with.ex
        );
        assert!(with.avg_iterations >= 1.0);
    }

    #[test]
    fn oracle_is_an_upper_bound() {
        let session = small_session();
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        let oracle = CycleSql::new(LoopVerifier::Oracle);
        let PairedResult {
            base,
            cycle: with_oracle,
            ..
        } = evaluate(&model, &EvalOptions::new(&session, Split::Dev, &oracle));
        assert!(with_oracle.ex >= base.ex);
        // Oracle EX equals the any-beam ceiling.
        let ceiling = any_beam_accuracy(&model, &session, Split::Dev, 8);
        assert!((with_oracle.ex - ceiling).abs() < 1e-9);
    }

    #[test]
    fn any_beam_accuracy_grows_with_k() {
        let session = small_session();
        let model = SimulatedModel::new(ModelProfile::resdsql_large());
        let k1 = any_beam_accuracy(&model, &session, Split::Dev, 1);
        let k8 = any_beam_accuracy(&model, &session, Split::Dev, 8);
        assert!(k8 >= k1, "beam widening cannot lose accuracy: {k1} vs {k8}");
    }

    #[test]
    fn difficulty_counts_partition_total() {
        let session = small_session();
        let model = SimulatedModel::new(ModelProfile::smbop());
        let oracle = CycleSql::new(LoopVerifier::Oracle);
        let pair = evaluate(&model, &EvalOptions::new(&session, Split::Dev, &oracle));
        for r in [pair.base, pair.cycle] {
            assert_eq!(r.counts_by_difficulty.iter().sum::<usize>(), r.total);
            assert!(r.avg_latency_ms > 0.0);
        }
    }

    /// Each dev item's base and oracle-loop choices, drawn and chosen on
    /// the string path as the seed harness did.
    fn string_choices(
        session: &EvalSession,
        model: &SimulatedModel,
        oracle: &CycleSql,
    ) -> Vec<[String; 2]> {
        let severity = session.variant.severity();
        let science = session.variant == Variant::Science;
        session
            .suite()
            .dev
            .iter()
            .map(|item| {
                let db = session.database(item);
                let req = TranslationRequest {
                    item,
                    db,
                    k: model.profile.default_k,
                    severity,
                    science,
                };
                let candidates: Vec<Candidate> = model
                    .beam(&req, None)
                    .map(|c| Candidate {
                        sql: c.sql,
                        rank: c.rank,
                        score: c.score,
                    })
                    .collect();
                let base = candidates
                    .first()
                    .map(|c| c.sql.clone())
                    .unwrap_or_default();
                [base, oracle.run(item, db, &candidates).chosen_sql]
            })
            .collect()
    }

    fn models() -> [SimulatedModel; 2] {
        [
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            SimulatedModel::new(ModelProfile::gpt35()),
        ]
    }

    #[test]
    fn prepared_metrics_agree_with_string_path_wrappers() {
        // The prepared fast path must reproduce the string wrappers'
        // decisions exactly, item by item, for both halves of one pass.
        let session = small_session();
        let oracle = CycleSql::new(LoopVerifier::Oracle);
        for model in models() {
            let choices = string_choices(&session, &model, &oracle);
            let pair = evaluate(
                &model,
                &EvalOptions {
                    compute_ts: true,
                    parallelism: Parallelism::Sequential,
                    ..EvalOptions::new(&session, Split::Dev, &oracle)
                },
            );
            for (side, (half, r)) in [("Base", &pair.base), ("CycleSql", &pair.cycle)]
                .into_iter()
                .enumerate()
            {
                let cache = VariantCache::new();
                let mut em = Accuracy::default();
                let mut ex = Accuracy::default();
                let mut ts = Accuracy::default();
                for (item, chosen) in session.suite().dev.iter().zip(&choices) {
                    let chosen = &chosen[side];
                    let db = session.database(item);
                    em.record(em_correct(chosen, &item.gold_sql));
                    ex.record(ex_correct(db, chosen, &item.gold_sql));
                    ts.record(ts_correct(
                        session.suite(),
                        &cache,
                        db,
                        &item.db_name,
                        chosen,
                        &item.gold_sql,
                    ));
                }
                let name = model.profile.name;
                assert_eq!(r.em, em.pct(), "{name} {half} EM");
                assert_eq!(r.ex, ex.pct(), "{name} {half} EX");
                assert_eq!(r.ts, ts.pct(), "{name} {half} TS");
            }
        }

        // The per-database EM view, on the quick science suite.
        let science = &crate::experiments::ExperimentContext::shared_quick().science;
        for model in models() {
            let choices = string_choices(science, &model, &oracle);
            let (base, cycle) =
                evaluate(&model, &EvalOptions::new(science, Split::Dev, &oracle)).em_by_db();
            for (side, (half, view)) in [("Base", base), ("CycleSql", cycle)]
                .into_iter()
                .enumerate()
            {
                let mut per_db: HashMap<String, Accuracy> = HashMap::new();
                for (item, chosen) in science.suite().dev.iter().zip(&choices) {
                    per_db
                        .entry(item.db_name.clone())
                        .or_default()
                        .record(em_correct(&chosen[side], &item.gold_sql));
                }
                let expected: HashMap<String, f64> =
                    per_db.into_iter().map(|(db, a)| (db, a.pct())).collect();
                assert!(expected.len() > 1, "several science databases");
                assert_eq!(
                    view, expected,
                    "{} {half} EM by database",
                    model.profile.name
                );
            }
        }
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        let session = small_session();
        let oracle = CycleSql::new(LoopVerifier::Oracle);
        for model in models() {
            let run = |parallelism| {
                evaluate(
                    &model,
                    &EvalOptions {
                        compute_ts: true,
                        parallelism,
                        ..EvalOptions::new(&session, Split::Dev, &oracle)
                    },
                )
            };
            let seq = run(Parallelism::Sequential);
            let par = run(Parallelism::Fixed(4));
            for (half, seq, par) in [
                ("Base", &seq.base, &par.base),
                ("CycleSql", &seq.cycle, &par.cycle),
            ] {
                assert!(
                    seq.same_outcomes(par),
                    "{} {half}: sequential {seq:?} vs parallel {par:?}",
                    model.profile.name
                );
            }
        }
    }
}
