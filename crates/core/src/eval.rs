//! The evaluation harness: runs a model (with or without CycleSQL) over a
//! benchmark split and reports EM / EX / TS, per-difficulty breakdowns,
//! average iterations, and latency.
//!
//! The harness consumes a prepared [`EvalSession`]: gold parses, canonical
//! forms, and gold executions (dev database and TS variants) all come from
//! the session's per-item caches, so each is performed exactly once per
//! `(benchmark, item)` no matter how many models or modes are evaluated.
//! The per-item loop runs on a scoped worker pool; results are merged in
//! item order and folded sequentially, so every aggregate is bit-for-bit
//! identical to a sequential run.

use crate::cycle::{CycleSql, LoopVerifier};
use crate::metrics::Accuracy;
use crate::session::EvalSession;
use cyclesql_benchgen::{Split, Variant};
use cyclesql_models::{SimulatedModel, TranslationRequest};
use cyclesql_sql::{CanonicalSql, Difficulty};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// Average loop iterations (1.0 for base runs).
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
}

/// How to run the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Base: take the model's top-1 output.
    Base,
    /// CycleSQL: run the feedback loop over the candidate list.
    CycleSql,
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
    /// Base or +CycleSQL.
    pub mode: EvalMode,
    /// The loop (verifier + feedback); required for `EvalMode::CycleSql`.
    pub cycle: Option<&'a CycleSql>,
    /// Candidate count; defaults to the model's profile default.
    pub k: Option<usize>,
    /// Compute the TS metric (disable to speed up large sweeps).
    pub compute_ts: bool,
    /// Worker-thread policy for the per-item loop.
    pub parallelism: Parallelism,
}

fn difficulty_index(d: Difficulty) -> usize {
    match d {
        Difficulty::Easy => 0,
        Difficulty::Medium => 1,
        Difficulty::Hard => 2,
        Difficulty::ExtraHard => 3,
    }
}

/// One item's metric outcomes, produced by a worker and folded in order.
struct ItemOutcome {
    em: bool,
    ex: bool,
    ts: Option<bool>,
    diff: usize,
    iterations: usize,
    latency_ms: f64,
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

/// Evaluates one model under the given options.
pub fn evaluate(model: &SimulatedModel, opts: &EvalOptions<'_>) -> EvalResult {
    let session = opts.session;
    let items = session.suite().split(opts.split);
    let severity = session.variant.severity();
    let science = session.variant == Variant::Science;
    let k = opts.k.unwrap_or(model.profile.default_k);

    let eval_item = |idx: usize| -> ItemOutcome {
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
        let mut beam = model.beam(&req, prep.gold.as_ref());
        let (chosen_ast, chosen_result, iterations, overhead_ms) = match opts.mode {
            EvalMode::Base => {
                // Only the top-1 is drawn.
                let top1 = beam.next();
                let top1_result = top1.as_ref().and_then(|c| c.result(db));
                (top1.and_then(|c| c.ast), top1_result, 1usize, 0.0)
            }
            EvalMode::CycleSql => {
                let cycle = opts.cycle.expect("CycleSql mode requires a loop");
                let outcome = cycle.run_prepared(item, db, beam, prep.gold_result());
                (
                    outcome.chosen_ast,
                    outcome.chosen_result,
                    outcome.iterations,
                    outcome.overhead.as_secs_f64() * 1e3,
                )
            }
        };
        let em = match (&chosen_ast, &prep.gold_canonical) {
            (Some(pred), Some(gold)) => &CanonicalSql::of(pred) == gold,
            _ => false,
        };
        let ex = match (prep.gold_result(), chosen_result.as_deref()) {
            (Some(g), Some(p)) => p.bag_eq(g),
            _ => false,
        };
        let ts = opts.compute_ts.then(|| {
            session.ts_prepared(
                opts.split,
                idx,
                chosen_ast.as_deref(),
                chosen_result.as_deref(),
            )
        });
        ItemOutcome {
            em,
            ex,
            ts,
            diff: difficulty_index(item.difficulty),
            iterations,
            latency_ms: model.inference_latency_ms() + overhead_ms,
        }
    };

    let outcomes = run_indexed(opts.parallelism, items.len(), &eval_item);

    let mut em = Accuracy::default();
    let mut ex = Accuracy::default();
    let mut ts = Accuracy::default();
    let mut ex_diff = [Accuracy::default(); 4];
    let mut iterations_sum = 0usize;
    let mut latency_sum_ms = 0.0f64;
    for o in &outcomes {
        em.record(o.em);
        ex.record(o.ex);
        ex_diff[o.diff].record(o.ex);
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
        ex_by_difficulty: [
            ex_diff[0].pct(),
            ex_diff[1].pct(),
            ex_diff[2].pct(),
            ex_diff[3].pct(),
        ],
        counts_by_difficulty: [
            ex_diff[0].total,
            ex_diff[1].total,
            ex_diff[2].total,
            ex_diff[3].total,
        ],
        avg_iterations: iterations_sum as f64 / total as f64,
        avg_latency_ms: latency_sum_ms / total as f64,
        total: items.len(),
    }
}

/// Per-science-domain EM (the paper's SCIENCEBENCHMARK columns report EM
/// per database).
pub fn evaluate_science_em(
    model: &SimulatedModel,
    session: &EvalSession,
    mode: EvalMode,
    cycle: Option<&CycleSql>,
    k: Option<usize>,
) -> HashMap<String, f64> {
    assert_eq!(session.variant, Variant::Science);
    let k = k.unwrap_or(model.profile.default_k);
    let mut per_db: HashMap<String, Accuracy> = HashMap::new();
    for (idx, item) in session.suite().dev.iter().enumerate() {
        let prep = session.prepared_item(Split::Dev, idx);
        let db = session.database(item);
        let req = TranslationRequest {
            item,
            db,
            k,
            severity: session.variant.severity(),
            science: true,
        };
        let mut beam = model.beam(&req, prep.gold.as_ref());
        let chosen_ast = match mode {
            EvalMode::Base => beam.next().and_then(|c| c.ast),
            EvalMode::CycleSql => {
                cycle
                    .expect("loop")
                    .run_prepared(item, db, beam, prep.gold_result())
                    .chosen_ast
            }
        };
        let em = match (&chosen_ast, &prep.gold_canonical) {
            (Some(pred), Some(gold)) => &CanonicalSql::of(pred) == gold,
            _ => false,
        };
        per_db.entry(item.db_name.clone()).or_default().record(em);
    }
    per_db.into_iter().map(|(k, v)| (k, v.pct())).collect()
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

/// Convenience: evaluates base and +CycleSQL side by side.
pub fn evaluate_pair(
    model: &SimulatedModel,
    session: &EvalSession,
    split: Split,
    cycle: &CycleSql,
    compute_ts: bool,
) -> (EvalResult, EvalResult) {
    let base = evaluate(
        model,
        &EvalOptions {
            session,
            split,
            mode: EvalMode::Base,
            cycle: None,
            k: None,
            compute_ts,
            parallelism: Parallelism::Auto,
        },
    );
    let with = evaluate(
        model,
        &EvalOptions {
            session,
            split,
            mode: EvalMode::CycleSql,
            cycle: Some(cycle),
            k: None,
            compute_ts,
            parallelism: Parallelism::Auto,
        },
    );
    (base, with)
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
        let (base, with) = evaluate_pair(&model, &session, Split::Dev, &cycle, false);
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
        let (base, with_oracle) = evaluate_pair(&model, &session, Split::Dev, &oracle, false);
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
        let r = evaluate(
            &model,
            &EvalOptions {
                session: &session,
                split: Split::Dev,
                mode: EvalMode::Base,
                cycle: None,
                k: None,
                compute_ts: false,
                parallelism: Parallelism::Auto,
            },
        );
        assert_eq!(r.counts_by_difficulty.iter().sum::<usize>(), r.total);
        assert!(r.avg_latency_ms > 0.0);
    }

    #[test]
    fn prepared_metrics_agree_with_string_path_wrappers() {
        // The prepared fast path must reproduce the string wrappers'
        // decisions exactly, item by item, in both modes.
        let session = small_session();
        let oracle = CycleSql::new(LoopVerifier::Oracle);
        let severity = session.variant.severity();
        for (mode, cycle) in [(EvalMode::Base, None), (EvalMode::CycleSql, Some(&oracle))] {
            for model in [
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                SimulatedModel::new(ModelProfile::gpt35()),
            ] {
                // String-path reference, computed as the seed harness did.
                let cache = VariantCache::new();
                let mut em = Accuracy::default();
                let mut ex = Accuracy::default();
                let mut ts = Accuracy::default();
                for item in &session.suite().dev {
                    let db = session.database(item);
                    let req = TranslationRequest {
                        item,
                        db,
                        k: model.profile.default_k,
                        severity,
                        science: false,
                    };
                    let candidates: Vec<Candidate> = model
                        .beam(&req, None)
                        .map(|c| Candidate {
                            sql: c.sql,
                            rank: c.rank,
                            score: c.score,
                        })
                        .collect();
                    let chosen = match mode {
                        EvalMode::Base => candidates
                            .first()
                            .map(|c| c.sql.clone())
                            .unwrap_or_default(),
                        EvalMode::CycleSql => oracle.run(item, db, &candidates).chosen_sql,
                    };
                    em.record(em_correct(&chosen, &item.gold_sql));
                    ex.record(ex_correct(db, &chosen, &item.gold_sql));
                    ts.record(ts_correct(
                        session.suite(),
                        &cache,
                        db,
                        &item.db_name,
                        &chosen,
                        &item.gold_sql,
                    ));
                }
                let r = evaluate(
                    &model,
                    &EvalOptions {
                        session: &session,
                        split: Split::Dev,
                        mode,
                        cycle,
                        k: None,
                        compute_ts: true,
                        parallelism: Parallelism::Sequential,
                    },
                );
                let name = model.profile.name;
                assert_eq!(r.em, em.pct(), "{name} {mode:?} EM");
                assert_eq!(r.ex, ex.pct(), "{name} {mode:?} EX");
                assert_eq!(r.ts, ts.pct(), "{name} {mode:?} TS");
            }
        }
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        let session = small_session();
        let oracle = CycleSql::new(LoopVerifier::Oracle);
        for (mode, cycle) in [(EvalMode::Base, None), (EvalMode::CycleSql, Some(&oracle))] {
            for model in [
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                SimulatedModel::new(ModelProfile::gpt35()),
            ] {
                let run = |parallelism| {
                    evaluate(
                        &model,
                        &EvalOptions {
                            session: &session,
                            split: Split::Dev,
                            mode,
                            cycle,
                            k: None,
                            compute_ts: true,
                            parallelism,
                        },
                    )
                };
                let seq = run(Parallelism::Sequential);
                let par = run(Parallelism::Fixed(4));
                assert!(
                    seq.same_outcomes(&par),
                    "{} {mode:?}: sequential {seq:?} vs parallel {par:?}",
                    model.profile.name
                );
            }
        }
    }
}
