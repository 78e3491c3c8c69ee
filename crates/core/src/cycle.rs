//! The CycleSQL feedback loop (Figure 3): iterate over a model's ranked
//! candidates, explain each candidate's result from tracked provenance, and
//! accept the first candidate whose explanation entails the NL question.
//!
//! Who takes that last decision is an [`AcceptPolicy`]: by default the
//! verifier's verdict stands ([`TakeVerdict`]); the human-in-the-loop
//! variant ([`crate::human::HumanPolicy`]) escalates uncertain verdicts to a
//! human reading the same explanation.

use cyclesql_benchgen::BenchmarkItem;
use cyclesql_explain::{
    generate_explanation, sql_to_nl, Explanation, ExplanationFacets, NoCache, RunCache,
    Sql2NlExplanation,
};
use cyclesql_models::{Candidate, PreparedCandidate};
use cyclesql_nli::{
    AlwaysAcceptVerifier, Hypothesis, LlmStrawmanVerifier, PrebuiltNliVerifier, TrainedVerifier,
    Verdict, Verifier, VerifyInput,
};
use cyclesql_obs::{Span, SpanCtx};
use cyclesql_provenance::{track_provenance, Provenance, ProvenanceTable};
use cyclesql_sql::{parse, Query};
use cyclesql_storage::{compile, execute, Database, ExecOpts, ResultSet};
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which feedback channel the loop uses (Figure 9's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackKind {
    /// Data-grounded explanations from enriched provenance (CycleSQL).
    DataGrounded,
    /// Plain SQL2NL back-translation (the baseline feedback).
    Sql2Nl,
}

/// The verifier plugged into the loop (Table III's variants).
pub enum LoopVerifier {
    /// The dedicated focal-loss-trained NLI model.
    Trained(TrainedVerifier),
    /// The 5-shot prompted-LLM strawman.
    LlmStrawman(LlmStrawmanVerifier),
    /// The pre-built generic NLI strawman.
    Prebuilt(PrebuiltNliVerifier),
    /// Accepts everything (degenerates to the base model's top-1).
    AlwaysAccept(AlwaysAcceptVerifier),
    /// The oracle: accepts exactly the execution-correct candidates
    /// (the paper's headroom estimate).
    Oracle,
    /// Any other verifier implementation (ablation harnesses, custom
    /// integrations).
    Custom(Box<dyn Verifier>),
}

impl LoopVerifier {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        self.as_verifier().map_or("oracle", |v| v.name())
    }

    /// The plugged-in NLI verifier; `None` for the oracle, which judges by
    /// execution instead.
    fn as_verifier(&self) -> Option<&dyn Verifier> {
        match self {
            LoopVerifier::Trained(v) => Some(v),
            LoopVerifier::LlmStrawman(v) => Some(v),
            LoopVerifier::Prebuilt(v) => Some(v),
            LoopVerifier::AlwaysAccept(v) => Some(v),
            LoopVerifier::Oracle => None,
            LoopVerifier::Custom(v) => Some(v.as_ref()),
        }
    }
}

/// The loop's accept decision: once the verifier has judged a candidate's
/// explanation, the policy decides whether the loop accepts the candidate.
/// The oracle verifier decides by execution and never consults it.
pub trait AcceptPolicy: Send + Sync {
    /// Whether to accept the candidate. `explanation` is the text the
    /// verifier read, `result` the candidate's result, and `gold` the gold
    /// result the caller handed the loop (`None` when it has none).
    fn accept(
        &self,
        question: &str,
        explanation: &str,
        verdict: Verdict,
        result: &ResultSet,
        gold: Option<&ResultSet>,
    ) -> bool;
}

/// The default policy: the verifier's verdict stands.
#[derive(Debug, Clone, Copy, Default)]
pub struct TakeVerdict;

impl AcceptPolicy for TakeVerdict {
    fn accept(
        &self,
        _: &str,
        _: &str,
        verdict: Verdict,
        _: &ResultSet,
        _: Option<&ResultSet>,
    ) -> bool {
        verdict.entails
    }
}

/// The CycleSQL framework instance.
pub struct CycleSql {
    /// The plugged-in verifier.
    pub verifier: LoopVerifier,
    /// Which feedback channel to generate.
    pub feedback: FeedbackKind,
    /// Who accepts a verified candidate ([`TakeVerdict`] from
    /// [`CycleSql::new`]). A caller that reads the policy's own state
    /// afterwards, such as an escalation tally, keeps a clone of the `Arc`.
    pub policy: Arc<dyn AcceptPolicy>,
}

/// Wall-clock spent in each pipeline stage of one loop run, summed over
/// iterations. The serving engine's per-stage histograms and the Figure 8b
/// latency accounting both read these, so there is exactly one measurement
/// path.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Model inference: the time the loop spent pulling candidates after
    /// the first from its stream (a lazy beam draws each one then), plus
    /// whatever the caller adds for its own inference (the serving engine
    /// adds its gold preparation and top-1 draw). The first candidate is
    /// pulled before the loop's clock starts, so a loop over one candidate,
    /// or over a list the caller already drew, reports next to nothing.
    pub translate: Duration,
    /// Candidate execution on the database.
    pub execute: Duration,
    /// Why-provenance tracking.
    pub provenance: Duration,
    /// Explanation generation (data-grounded or SQL2NL).
    pub explain: Duration,
    /// Verifier entailment decisions (oracle comparison included).
    pub verify: Duration,
}

impl StageTimings {
    /// Total time spent inside the loop's own stages (translate excluded).
    pub fn loop_total(&self) -> Duration {
        self.execute + self.provenance + self.explain + self.verify
    }
}

/// Per-run controls injected by serving callers: a deadline that abandons
/// the candidate loop cleanly mid-iteration, a run cache that lets
/// repeated queries skip execution and explanation, and a tracing context
/// for request-scoped observability.
#[derive(Clone, Copy)]
pub struct RunControls<'a> {
    /// Abandon the loop once this instant passes (checked between stages).
    pub deadline: Option<Instant>,
    /// Where candidate runs (result and explanation) come from for
    /// candidates that carry no run of their own, keyed by each
    /// candidate's text (which must parse to its AST). The default,
    /// [`NoCache`], compiles, runs and explains each such candidate.
    pub cache: &'a dyn RunCache,
    /// Tracing context. When enabled, each candidate iteration opens a
    /// `cycle` child span with `execute` / `provenance` / `explain` /
    /// `verify` stage children. Disabled by default — the loop then
    /// allocates and emits nothing.
    pub span: SpanCtx<'a>,
    /// Collect an EXPLAIN ANALYZE operator profile per traced candidate
    /// execution and attach it to the `execute` stage span. Ignored when
    /// `span` is disabled; the candidate still executes exactly once, for
    /// real, bypassing `cache` and any run the candidate carries (its
    /// explanation is built, not memoized). This is the loop's one bypass
    /// of the cache hook.
    pub analyze: bool,
    /// Intra-query morsel workers per candidate execution. `0` or `1`
    /// executes single-threaded; serving callers derive this from their
    /// own pool occupancy so intra-query parallelism never oversubscribes
    /// the host. Results are bit-identical at every setting.
    pub exec_threads: usize,
}

impl Default for RunControls<'_> {
    fn default() -> Self {
        RunControls {
            deadline: None,
            cache: &NoCache,
            span: SpanCtx::none(),
            analyze: false,
            exec_threads: 0,
        }
    }
}

impl RunControls<'_> {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Outcome of one feedback-loop run.
#[derive(Debug, Clone)]
pub struct LoopOutcome {
    /// The selected SQL (the first validated candidate, or the top-1
    /// fallback when none validates).
    pub chosen_sql: String,
    /// Candidates examined before acceptance (the paper's iteration count;
    /// equals the candidate count when nothing validates).
    pub iterations: usize,
    /// Whether any candidate validated.
    pub accepted: bool,
    /// The explanation of the chosen candidate, when one was generated
    /// (shared with the run cache's entry when one holds it).
    pub explanation: Option<Arc<Explanation>>,
    /// Wall-clock overhead of the loop itself (excluding model inference:
    /// the time spent drawing candidates is in `stages.translate`).
    pub overhead: Duration,
    /// The chosen candidate's parsed query, when it parsed — consumers can
    /// compute EM without re-parsing `chosen_sql`.
    pub chosen_ast: Option<Arc<Query>>,
    /// The chosen candidate's result on the loop's database, when it was
    /// executed during the loop — consumers can compute EX without
    /// re-executing `chosen_sql`.
    pub chosen_result: Option<Arc<ResultSet>>,
    /// The top-1 candidate's parsed query, when it parsed: the base model's
    /// own answer, which evaluation scores next to the loop's choice.
    pub top1_ast: Option<Arc<Query>>,
    /// The top-1 candidate's result, when the loop executed it.
    pub top1_result: Option<Arc<ResultSet>>,
    /// Per-stage wall-clock, summed over iterations (`translate` holds only
    /// the loop's own draws unless the caller adds to it).
    pub stages: StageTimings,
    /// Whether a [`RunControls::deadline`] abandoned the loop before every
    /// candidate was examined.
    pub timed_out: bool,
}

impl CycleSql {
    /// Builds a loop with the given verifier, data-grounded feedback and
    /// the [`TakeVerdict`] policy.
    pub fn new(verifier: LoopVerifier) -> Self {
        CycleSql {
            verifier,
            feedback: FeedbackKind::DataGrounded,
            policy: Arc::new(TakeVerdict),
        }
    }

    /// Runs the feedback loop over ranked string candidates.
    ///
    /// Thin wrapper over [`CycleSql::run_prepared`]: parses each candidate
    /// the loop reaches once and — for the oracle verifier only — executes
    /// the gold once, instead of per candidate.
    ///
    /// `item` supplies the NL question (hypothesis); the gold SQL on the
    /// item is used **only** by the oracle verifier (the paper's headroom
    /// configuration) — the trained/strawman verifiers never see it.
    pub fn run(
        &self,
        item: &BenchmarkItem,
        db: &Database,
        candidates: &[Candidate],
    ) -> LoopOutcome {
        let prepared = candidates.iter().map(|c| PreparedCandidate {
            sql: c.sql.clone(),
            ast: parse(&c.sql).ok().map(Arc::new),
            run: None,
            rank: c.rank,
            score: c.score,
        });
        let gold_result = match &self.verifier {
            LoopVerifier::Oracle => parse(&item.gold_sql)
                .ok()
                .and_then(|q| execute(db, &q).ok()),
            _ => None,
        };
        self.run_prepared(item, db, prepared, gold_result.as_ref())
    }

    /// Runs the feedback loop over prepared candidates: a slice, or a stream
    /// such as [`cyclesql_models::Beam`] that draws each candidate only when
    /// the loop reaches it.
    ///
    /// `gold_result` is the gold query's (cached) result on `db`; it is
    /// consulted **only** by the oracle verifier, whose verdict is
    /// "entails iff the candidate's result bag-equals the gold's" — the
    /// same decision [`crate::metrics::ex_correct`] makes, minus all the
    /// redundant parsing and gold re-execution.
    pub fn run_prepared<C: Borrow<PreparedCandidate>>(
        &self,
        item: &BenchmarkItem,
        db: &Database,
        candidates: impl IntoIterator<Item = C>,
        gold_result: Option<&ResultSet>,
    ) -> LoopOutcome {
        self.run_controlled(item, db, candidates, gold_result, &RunControls::default())
    }

    /// Runs the feedback loop under serving-time controls: an optional
    /// deadline (the loop is abandoned cleanly between stages once it
    /// passes, falling back to whatever was chosen so far) and an optional
    /// run cache (hits skip candidate execution, and a memoized explanation
    /// skips provenance and explanation).
    ///
    /// The loop pulls candidates one at a time and stops pulling once one
    /// is accepted, so a lazy stream draws only what the loop examines. The
    /// top-1 is pulled first, before the clock starts and before any
    /// deadline check, so every run can fall back to it. Each later pull
    /// is timed into [`StageTimings::translate`] (not `overhead`) and, when
    /// traced, shows as a `translate` child of that candidate's `cycle`
    /// span.
    ///
    /// After each NLI verdict the loop's [`AcceptPolicy`] decides whether
    /// to accept the candidate; the `cycle` span's `entails` records that
    /// decision and the `verify` span's the verdict.
    ///
    /// With default controls this is exactly [`CycleSql::run_prepared`].
    pub fn run_controlled<C: Borrow<PreparedCandidate>>(
        &self,
        item: &BenchmarkItem,
        db: &Database,
        candidates: impl IntoIterator<Item = C>,
        gold_result: Option<&ResultSet>,
        controls: &RunControls<'_>,
    ) -> LoopOutcome {
        let mut candidates = candidates.into_iter();
        let top1 = candidates.next();
        let start = Instant::now();
        let mut stages = StageTimings::default();
        let mut timed_out = false;
        let mut examined = 0usize;
        let mut chosen: Option<ChosenCandidate> = None;
        let mut first_explained: Option<Arc<Explanation>> = None;
        // The top-1 candidate's result, reported and kept for the fallback.
        let mut top1_result: Option<Arc<ResultSet>> = None;
        // The candidate under examination, once past the top-1.
        let mut later: Option<C> = None;
        // The question's NLI features, mined at the first candidate that
        // reaches an NLI verifier and shared by every later one.
        let mut hypothesis: Option<Hypothesis> = None;

        loop {
            if controls.expired() {
                timed_out = true;
                break;
            }
            let i = examined;
            let drawn_at = Instant::now();
            let cand: &PreparedCandidate = if i == 0 {
                match &top1 {
                    Some(c) => c.borrow(),
                    None => break,
                }
            } else {
                match candidates.next() {
                    Some(c) => (*later.insert(c)).borrow(),
                    None => {
                        stages.translate += drawn_at.elapsed();
                        break;
                    }
                }
            };
            examined = i + 1;
            // A pulled candidate's cycle span starts when its draw did.
            let mut cand_span = controls.span.child_from("cycle", drawn_at);
            if i > 0 {
                if let Some(s) = &cand_span {
                    s.child_from("translate", drawn_at).finish();
                }
                stages.translate += drawn_at.elapsed();
            }
            if let Some(s) = cand_span.as_mut() {
                s.set("candidate", i);
                s.set("rank", cand.rank);
            }
            let Some(query) = cand.ast.as_ref() else {
                if let Some(mut s) = cand_span.take() {
                    s.set("parse_error", true);
                    s.set_error();
                }
                continue;
            };

            let exec_span = cand_span.as_ref().map(|s| s.child("execute"));
            let t = Instant::now();
            // Morsel workers trace under the execute stage span, so traces
            // show which candidate ran in parallel and how wide.
            let opts = ExecOpts {
                threads: controls.exec_threads.max(1),
                span: exec_span.as_ref().map_or(SpanCtx::none(), SpanCtx::of),
                ..ExecOpts::default()
            };
            let mut profile = None;
            // The candidate's run — carried from the simulator's validation
            // lookup, or else read through the cache hook by its text —
            // serves both its execute and, below, its explanation. An
            // analyzed execution bypasses both: the same single run,
            // instrumented.
            let (executed, run, result_cached) = if controls.analyze && exec_span.is_some() {
                let executed = compile(db, query)
                    .and_then(|c| c.run_opts_analyzed(db, &opts))
                    .map(|(out, p)| {
                        profile = Some(p);
                        Arc::new(out.result)
                    })
                    .map_err(Some);
                (executed, None, false)
            } else {
                let (run, hit) = match &cand.run {
                    Some(run) => (Some(Arc::clone(run)), true),
                    None => controls.cache.run(db, &cand.sql, query, &opts),
                };
                let executed = run.as_ref().map(|r| Arc::clone(&r.result)).ok_or(None);
                (executed, run, hit)
            };
            stages.execute += t.elapsed();
            if let Some(mut s) = exec_span {
                s.set("result_cached", result_cached);
                match &executed {
                    Ok(result) => {
                        s.set("rows", result.rows.len());
                        if let Some(profile) = profile {
                            s.set("analyze", profile.render(true));
                            s.set("analyze_ops_ns", profile.ops_ns());
                            s.set("analyze_total_ns", profile.total_ns);
                        }
                    }
                    Err(e) => {
                        // A run from the hook keeps only that a query
                        // failed; rerun it for the message, on traced
                        // failures alone.
                        let e = e.clone().or_else(|| execute(db, query).err());
                        s.set("exec_error", e.map_or_else(String::new, |e| e.to_string()));
                        s.set_error();
                    }
                }
            }
            let Ok(result) = executed else {
                if let Some(mut s) = cand_span.take() {
                    s.set_error();
                }
                continue;
            };
            if i == 0 {
                top1_result = Some(Arc::clone(&result));
            }
            if controls.expired() {
                timed_out = true;
                if let Some(mut s) = cand_span.take() {
                    s.set("deadline_abort", true);
                    s.set_error();
                }
                break;
            }

            // Premise construction (non-oracle verifiers only), timed per
            // stage so serving histograms see provenance and explanation
            // separately.
            let premise = match &self.verifier {
                LoopVerifier::Oracle => None,
                _ => Some(match self.feedback {
                    FeedbackKind::DataGrounded => {
                        let t = Instant::now();
                        let mut make = || {
                            explain_grounded(db, query, &result, cand_span.as_ref(), &mut stages)
                        };
                        let (e, cached) = match &run {
                            Some(run) => controls.cache.explanation(run, &mut make),
                            // Only an analyzed execution leaves no run.
                            None => (Arc::new(make()), false),
                        };
                        if cached {
                            // A memoized explanation skips both stages; their
                            // spans still open, so span counts do not depend on
                            // what the cache holds.
                            stages.explain += t.elapsed();
                            drop(cand_span.as_ref().map(|s| s.child("provenance")));
                            if let Some(mut s) = cand_span.as_ref().map(|s| s.child("explain")) {
                                s.set("chars", e.text.len());
                                s.set("explanation_cached", true);
                            }
                        }
                        if first_explained.is_none() {
                            first_explained = Some(Arc::clone(&e));
                        }
                        Premise::Grounded(e)
                    }
                    FeedbackKind::Sql2Nl => {
                        let explain_span = cand_span.as_ref().map(|s| s.child("explain"));
                        let t = Instant::now();
                        let s = sql_to_nl(db, query);
                        stages.explain += t.elapsed();
                        if let Some(mut sp) = explain_span {
                            sp.set("chars", s.text.len());
                        }
                        Premise::Sql2Nl(Box::new(s))
                    }
                }),
            };
            if controls.expired() {
                timed_out = true;
                break;
            }

            let mut verify_span = cand_span.as_ref().map(|s| s.child("verify"));
            let t = Instant::now();
            let (verdict, accept) = match (self.verifier.as_verifier(), &premise) {
                (Some(verifier), Some(premise)) => {
                    let input = VerifyInput {
                        question: &item.question,
                        premise_text: premise.text(),
                        facets: premise.facets(),
                        sql: &cand.sql,
                    };
                    let hyp = hypothesis.get_or_insert_with(|| prepare(&item.question));
                    let verdict = verifier.verify_prepared(hyp, &input);
                    let accept = self.policy.accept(
                        &item.question,
                        premise.text(),
                        verdict,
                        &result,
                        gold_result,
                    );
                    (Some(verdict), accept)
                }
                // Headroom estimate: accept iff execution-correct.
                _ => (None, gold_result.is_some_and(|g| result.bag_eq(g))),
            };
            stages.verify += t.elapsed();
            if let Some(mut s) = verify_span.take() {
                s.set("entails", verdict.map_or(accept, |v| v.entails));
                if let Some(v) = verdict {
                    s.set("score", v.score);
                }
            }
            if let Some(mut s) = cand_span.take() {
                s.set("entails", accept);
            }
            if accept {
                chosen = Some(ChosenCandidate {
                    sql: cand.sql.clone(),
                    ast: Some(Arc::clone(query)),
                    result: Some(result),
                    explanation: match premise {
                        Some(Premise::Grounded(e)) => Some(e),
                        _ => None,
                    },
                });
                break;
            }
        }

        let overhead = start.elapsed().saturating_sub(stages.translate);
        let accepted = chosen.is_some();
        // Nothing validated: fall back to the top-1 candidate. The run
        // examined every candidate it drew (all of them, unless the deadline
        // cut it short), and an acceptance ends the run, so `examined` is
        // the iteration count either way.
        let top1 = top1.as_ref().map(|c| c.borrow());
        let top1_ast = top1.and_then(|c| c.ast.clone());
        let c = chosen.unwrap_or_else(|| ChosenCandidate {
            sql: top1.map(|c| c.sql.clone()).unwrap_or_default(),
            ast: top1_ast.clone(),
            result: top1_result.clone(),
            explanation: first_explained,
        });
        LoopOutcome {
            chosen_sql: c.sql,
            iterations: examined,
            accepted,
            explanation: c.explanation,
            overhead,
            chosen_ast: c.ast,
            chosen_result: c.result,
            top1_ast,
            top1_result,
            stages,
            timed_out,
        }
    }
}

/// The chosen candidate's artifacts: the accepted one, or the top-1
/// fallback.
struct ChosenCandidate {
    sql: String,
    ast: Option<Arc<Query>>,
    result: Option<Arc<ResultSet>>,
    explanation: Option<Arc<Explanation>>,
}

/// What the verifier reads for one candidate, borrowed rather than cloned.
enum Premise {
    Grounded(Arc<Explanation>),
    Sql2Nl(Box<Sql2NlExplanation>),
}

impl Premise {
    fn text(&self) -> &str {
        match self {
            Premise::Grounded(e) => &e.text,
            Premise::Sql2Nl(s) => &s.text,
        }
    }

    fn facets(&self) -> &ExplanationFacets {
        match self {
            Premise::Grounded(e) => &e.facets,
            Premise::Sql2Nl(s) => &s.facets,
        }
    }
}

/// Mines the question's NLI features for a run's verifier.
fn prepare(question: &str) -> Hypothesis {
    #[cfg(test)]
    control_tests::HYPOTHESES_BUILT.with(|n| n.set(n.get() + 1));
    Hypothesis::new(question)
}

/// Tracks `query`'s provenance for `result`'s first row and generates its
/// data-grounded explanation, timing each stage into `stages` and tracing
/// it under `span` when one is given.
fn explain_grounded(
    db: &Database,
    query: &Query,
    result: &ResultSet,
    span: Option<&Span>,
    stages: &mut StageTimings,
) -> Explanation {
    let prov_span = span.map(|s| s.child("provenance"));
    let t = Instant::now();
    let prov = track_provenance(db, query, result, 0).unwrap_or_else(|_| empty_provenance());
    stages.provenance += t.elapsed();
    if let Some(mut s) = prov_span {
        s.set("rows", prov.table.rows.len());
    }
    let explain_span = span.map(|s| s.child("explain"));
    let t = Instant::now();
    let e = generate_explanation(db, query, result, 0, &prov);
    stages.explain += t.elapsed();
    if let Some(mut s) = explain_span {
        s.set("chars", e.text.len());
        s.set("explanation_cached", false);
    }
    e
}

/// Builds the premise (text + facets) for a candidate without running the
/// verifier — the training-data pipeline and the experiments share this.
pub fn candidate_premise(
    db: &Database,
    sql: &str,
    feedback: FeedbackKind,
) -> Option<(String, ExplanationFacets)> {
    let query = parse(sql).ok()?;
    let result = match feedback {
        FeedbackKind::DataGrounded => Some(execute(db, &query).ok()?),
        FeedbackKind::Sql2Nl => None,
    };
    premise_from_parts(db, &query, result.as_ref(), feedback)
}

/// Builds the premise from already-parsed / already-executed artifacts.
///
/// `result` is the query's result on `db`; the data-grounded channel
/// requires it (returns `None` without it), the SQL2NL channel ignores it.
pub fn premise_from_parts(
    db: &Database,
    query: &Query,
    result: Option<&ResultSet>,
    feedback: FeedbackKind,
) -> Option<(String, ExplanationFacets)> {
    match feedback {
        FeedbackKind::DataGrounded => {
            let e = explain_grounded(db, query, result?, None, &mut StageTimings::default());
            Some((e.text, e.facets))
        }
        FeedbackKind::Sql2Nl => {
            let s = sql_to_nl(db, query);
            Some((s.text, s.facets))
        }
    }
}

fn empty_provenance() -> Provenance {
    Provenance {
        rewritten: Vec::new(),
        table: ProvenanceTable {
            columns: Vec::new(),
            rows: Vec::new(),
        },
        empty_result: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
    use cyclesql_models::{ModelProfile, SimulatedModel, TranslationRequest};

    fn setup() -> (cyclesql_benchgen::BenchmarkSuite, SimulatedModel) {
        (
            build_spider_suite(Variant::Spider, SuiteConfig::default()),
            SimulatedModel::new(ModelProfile::resdsql_3b()),
        )
    }

    /// The model's beam as plain-text candidates, for the string entry
    /// point.
    fn strings(model: &SimulatedModel, req: &TranslationRequest<'_>) -> Vec<Candidate> {
        model
            .beam(req, None)
            .map(|c| Candidate {
                sql: c.sql,
                rank: c.rank,
                score: c.score,
            })
            .collect()
    }

    #[test]
    fn oracle_loop_achieves_any_beam_ceiling() {
        let (suite, model) = setup();
        let cycle = CycleSql::new(LoopVerifier::Oracle);
        let mut oracle_correct = 0usize;
        let mut any_correct = 0usize;
        for item in suite.dev.iter().take(60) {
            let db = suite.database(item);
            let req = TranslationRequest {
                item,
                db,
                k: 8,
                severity: 0.0,
                science: false,
            };
            let cands = strings(&model, &req);
            let outcome = cycle.run(item, db, &cands);
            if crate::metrics::ex_correct(db, &outcome.chosen_sql, &item.gold_sql) {
                oracle_correct += 1;
            }
            if cands
                .iter()
                .any(|c| crate::metrics::ex_correct(db, &c.sql, &item.gold_sql))
            {
                any_correct += 1;
            }
        }
        assert_eq!(oracle_correct, any_correct, "oracle = any-beam ceiling");
    }

    #[test]
    fn always_accept_equals_top1() {
        let (suite, model) = setup();
        let cycle = CycleSql::new(LoopVerifier::AlwaysAccept(AlwaysAcceptVerifier));
        for item in suite.dev.iter().take(20) {
            let db = suite.database(item);
            let req = TranslationRequest {
                item,
                db,
                k: 8,
                severity: 0.0,
                science: false,
            };
            let cands = strings(&model, &req);
            let outcome = cycle.run(item, db, &cands);
            // First parseable+executable candidate is accepted; with a
            // seq2seq profile every candidate is valid, so it's the top-1.
            assert_eq!(outcome.chosen_sql, cands[0].sql);
            assert_eq!(outcome.iterations, 1);
            assert!(outcome.accepted);
        }
    }

    #[test]
    fn fallback_to_top1_when_nothing_validates() {
        let (suite, model) = setup();
        // The prebuilt strawman rejects long mechanical premises; force
        // rejection of everything with an impossible trained model.
        let mut nli = cyclesql_nli::NliModel::untrained();
        nli.threshold = 1.1; // unreachable
        let cycle = CycleSql::new(LoopVerifier::Trained(TrainedVerifier { model: nli }));
        let item = &suite.dev[0];
        let db = suite.database(item);
        let req = TranslationRequest {
            item,
            db,
            k: 4,
            severity: 0.0,
            science: false,
        };
        let cands = strings(&model, &req);
        let outcome = cycle.run(item, db, &cands);
        assert!(!outcome.accepted);
        assert_eq!(outcome.chosen_sql, cands[0].sql);
        assert_eq!(outcome.iterations, 4);
    }

    #[test]
    fn unparseable_candidates_are_skipped() {
        let (suite, _) = setup();
        let item = &suite.dev[0];
        let db = suite.database(item);
        let cands = vec![
            Candidate {
                sql: "THIS IS NOT SQL @@@".into(),
                rank: 0,
                score: 1.0,
            },
            Candidate {
                sql: item.gold_sql.clone(),
                rank: 1,
                score: 0.9,
            },
        ];
        let cycle = CycleSql::new(LoopVerifier::Oracle);
        let outcome = cycle.run(item, db, &cands);
        assert!(outcome.accepted);
        assert_eq!(outcome.chosen_sql, item.gold_sql);
        assert_eq!(outcome.iterations, 2);
    }

    #[test]
    fn premise_builders_for_both_feedback_kinds() {
        let (suite, _) = setup();
        let item = &suite.dev[0];
        let db = suite.database(item);
        let grounded = candidate_premise(db, &item.gold_sql, FeedbackKind::DataGrounded).unwrap();
        let sql2nl = candidate_premise(db, &item.gold_sql, FeedbackKind::Sql2Nl).unwrap();
        assert_ne!(grounded.0, sql2nl.0);
        // Data-grounded premises quote result values; SQL2NL ones don't.
        assert!(sql2nl.1.result_values.is_empty());
    }
}

#[cfg(test)]
mod more_loop_tests {
    use super::*;
    use crate::experiments::ExperimentContext;
    use cyclesql_models::Candidate;

    #[test]
    fn empty_candidate_list_yields_empty_fallback() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = ctx.cycle();
        let outcome = cycle.run(item, db, &[]);
        assert!(!outcome.accepted);
        assert_eq!(outcome.iterations, 0);
        assert!(outcome.chosen_sql.is_empty());
    }

    #[test]
    fn candidates_referencing_missing_tables_are_skipped() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let candidates = vec![
            Candidate {
                sql: "SELECT x FROM nonexistent_table".into(),
                rank: 0,
                score: 1.0,
            },
            Candidate {
                sql: item.gold_sql.clone(),
                rank: 1,
                score: 0.9,
            },
        ];
        let cycle = CycleSql::new(LoopVerifier::Oracle);
        let outcome = cycle.run(item, db, &candidates);
        assert!(outcome.accepted);
        assert_eq!(outcome.chosen_sql, item.gold_sql);
    }

    #[test]
    fn sql2nl_feedback_loop_runs_end_to_end() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = CycleSql {
            feedback: FeedbackKind::Sql2Nl,
            ..ctx.cycle()
        };
        let candidates = vec![Candidate {
            sql: item.gold_sql.clone(),
            rank: 0,
            score: 1.0,
        }];
        let outcome = cycle.run(item, db, &candidates);
        // SQL2NL premises never carry an explanation object.
        assert!(outcome.explanation.is_none());
        assert_eq!(outcome.chosen_sql, item.gold_sql);
    }

    #[test]
    fn loop_overhead_is_measured() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = ctx.cycle();
        let candidates = vec![Candidate {
            sql: item.gold_sql.clone(),
            rank: 0,
            score: 1.0,
        }];
        let outcome = cycle.run(item, db, &candidates);
        assert!(outcome.overhead.as_nanos() > 0);
    }
}

#[cfg(test)]
mod control_tests {
    use super::*;
    use crate::experiments::ExperimentContext;
    use cyclesql_explain::CachedRun;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    thread_local! {
        /// Hypotheses [`prepare`] built on this thread.
        pub(super) static HYPOTHESES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn prepared(sqls: &[&str]) -> Vec<PreparedCandidate> {
        sqls.iter()
            .enumerate()
            .map(|(i, s)| PreparedCandidate {
                sql: (*s).to_string(),
                ast: parse(s).ok().map(Arc::new),
                run: None,
                rank: i,
                score: 1.0 - i as f64 * 0.1,
            })
            .collect()
    }

    #[test]
    fn stage_timings_cover_every_loop_stage() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = ctx.cycle();
        let cands = prepared(&[item.gold_sql.as_str()]);
        let outcome = cycle.run_prepared(item, db, &cands, None);
        let s = outcome.stages;
        assert!(s.execute.as_nanos() > 0, "execute stage timed");
        assert!(s.provenance.as_nanos() > 0, "provenance stage timed");
        assert!(s.explain.as_nanos() > 0, "explain stage timed");
        assert!(s.verify.as_nanos() > 0, "verify stage timed");
        assert_eq!(s.translate, Duration::ZERO, "the loop never runs the model");
        assert!(
            s.loop_total() <= outcome.overhead,
            "stages nest inside overhead"
        );
        assert!(!outcome.timed_out);
    }

    #[test]
    fn expired_deadline_abandons_loop_cleanly() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = CycleSql::new(LoopVerifier::Oracle);
        let cands = prepared(&[item.gold_sql.as_str(), item.gold_sql.as_str()]);
        let controls = RunControls {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..RunControls::default()
        };
        let outcome = cycle.run_controlled(item, db, &cands, None, &controls);
        assert!(outcome.timed_out);
        assert!(!outcome.accepted);
        assert_eq!(outcome.iterations, 0, "abandoned before examining anything");
        // The fallback still reports the top-1 SQL so callers can degrade
        // gracefully.
        assert_eq!(outcome.chosen_sql, cands[0].sql);
    }

    #[test]
    fn loop_pulls_only_the_candidates_it_examines() {
        use std::cell::Cell;
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = CycleSql::new(LoopVerifier::AlwaysAccept(AlwaysAcceptVerifier));
        let gold = item.gold_sql.as_str();
        let cands = prepared(&["NOT SQL @@@", gold, gold, gold]);
        let pulled = Cell::new(0usize);
        let stream = || cands.iter().inspect(|_| pulled.set(pulled.get() + 1));
        // The unparseable top-1 is skipped; the second is accepted and the
        // rest are never pulled.
        let outcome = cycle.run_prepared(item, db, stream(), None);
        assert!(outcome.accepted);
        assert_eq!((outcome.iterations, pulled.get()), (2, 2));
        assert!(outcome.stages.loop_total() <= outcome.overhead);
        // A run that validates nothing pulls (and examines) everything.
        let rejecting = CycleSql::new(LoopVerifier::Oracle);
        pulled.set(0);
        let outcome = rejecting.run_prepared(item, db, stream(), None);
        assert!(!outcome.accepted);
        assert_eq!((outcome.iterations, pulled.get()), (4, 4));
        assert_eq!(outcome.chosen_sql, cands[0].sql, "top-1 fallback");
        // An expired deadline still pulls the top-1 for the fallback, and
        // nothing more.
        pulled.set(0);
        let controls = RunControls {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..RunControls::default()
        };
        let outcome = cycle.run_controlled(item, db, stream(), None, &controls);
        assert!(outcome.timed_out);
        assert_eq!((outcome.iterations, pulled.get()), (0, 1));
        assert_eq!(outcome.chosen_sql, cands[0].sql);
    }

    /// A memoizing run cache that counts its lookups and explanation
    /// builds.
    #[derive(Default)]
    struct CountingRuns {
        entries: Mutex<HashMap<String, Option<Arc<CachedRun>>>>,
        lookups: AtomicUsize,
        built: AtomicUsize,
    }

    impl RunCache for CountingRuns {
        fn run(
            &self,
            db: &Database,
            sql: &str,
            query: &Query,
            opts: &ExecOpts<'_>,
        ) -> (Option<Arc<CachedRun>>, bool) {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            let key = format!("{}|{sql}", db.schema.name);
            let mut entries = self.entries.lock().unwrap();
            let hit = entries.contains_key(&key);
            let run = entries
                .entry(key)
                .or_insert_with(|| CachedRun::execute(db, query, opts));
            (run.clone(), hit)
        }

        fn explanation(
            &self,
            run: &CachedRun,
            make: &mut dyn FnMut() -> Explanation,
        ) -> (Arc<Explanation>, bool) {
            run.explanation_or_init(|| {
                self.built.fetch_add(1, Ordering::Relaxed);
                make()
            })
        }
    }

    #[test]
    fn plan_source_is_consulted_and_preserves_outcome() {
        let ctx = ExperimentContext::shared_quick();
        let runs = CountingRuns::default();
        let controls = RunControls {
            cache: &runs,
            ..RunControls::default()
        };
        for cycle in [CycleSql::new(LoopVerifier::Oracle), ctx.cycle()] {
            for (idx, item) in ctx.spider.dev.iter().enumerate().take(10) {
                let db = ctx.spider.database(item);
                let gold = ctx.spider.prepared_item(cyclesql_benchgen::Split::Dev, idx);
                let gold = gold.gold_result();
                let cands = prepared(&[item.gold_sql.as_str(), "SELECT count(*) FROM nosuchtable"]);
                let plain = cycle.run_prepared(item, db, &cands, gold);
                // Twice: the second pass reads memoized results and
                // explanations and must answer the same.
                for _ in 0..2 {
                    let routed = cycle.run_controlled(item, db, &cands, gold, &controls);
                    assert_eq!(plain.chosen_sql, routed.chosen_sql);
                    assert_eq!(plain.accepted, routed.accepted);
                    assert_eq!(plain.iterations, routed.iterations);
                    assert_eq!(
                        plain.chosen_result.as_deref().map(|r| r.rows.clone()),
                        routed.chosen_result.as_deref().map(|r| r.rows.clone())
                    );
                    assert_eq!(
                        plain.explanation.as_ref().map(|e| &e.text),
                        routed.explanation.as_ref().map(|e| &e.text)
                    );
                }
            }
        }
        assert!(
            runs.lookups.load(Ordering::Relaxed) > 0,
            "run cache consulted"
        );
        let explained = runs
            .entries
            .lock()
            .unwrap()
            .values()
            .flatten()
            .filter(|r| r.explanation.get().is_some())
            .count();
        assert!(explained > 0, "the explaining loop memoized explanations");
        assert_eq!(
            runs.built.load(Ordering::Relaxed),
            explained,
            "each entry's explanation was built exactly once"
        );
    }
    #[test]
    fn cache_spans_report_actual_hits() {
        use cyclesql_obs::{AttrValue, MemorySink, ObsCounters, SpanSink, Tracer};
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = CycleSql::new(LoopVerifier::AlwaysAccept(AlwaysAcceptVerifier));
        let cands = prepared(&[item.gold_sql.as_str()]);
        let runs = CountingRuns::default();
        let traced_run = || {
            let counters = Arc::new(ObsCounters::default());
            let sink = Arc::new(MemorySink::new(64, Arc::clone(&counters)));
            let tracer = Tracer::new(sink.clone() as Arc<dyn SpanSink>, counters);
            {
                let root = tracer.root("serve");
                let controls = RunControls {
                    cache: &runs,
                    span: SpanCtx::of(&root),
                    ..RunControls::default()
                };
                cycle.run_controlled(item, db, &cands, None, &controls);
            }
            sink.records()
        };
        let flag = |records: &[cyclesql_obs::SpanRecord], span: &str, key: &str| {
            let record = records.iter().find(|r| r.name == span).unwrap();
            match record.attr(key) {
                Some(AttrValue::Bool(b)) => *b,
                other => panic!("{span}.{key} = {other:?}"),
            }
        };
        let cold = traced_run();
        let warm = traced_run();
        assert!(
            !flag(&cold, "execute", "result_cached"),
            "a miss is not a hit"
        );
        assert!(!flag(&cold, "explain", "explanation_cached"));
        assert!(flag(&warm, "execute", "result_cached"));
        assert!(flag(&warm, "explain", "explanation_cached"));
        // Memoized stages still open their spans.
        let names = |records: &[cyclesql_obs::SpanRecord]| {
            let mut names: Vec<_> = records.iter().map(|r| r.name).collect();
            names.sort_unstable();
            names
        };
        assert_eq!(names(&cold), names(&warm), "same spans cold and warm");
        assert_eq!(runs.built.load(Ordering::Relaxed), 1);
    }

    /// Rejects every candidate through `verify_prepared`, recording the
    /// address of each hypothesis it is handed; `verify` must not be used.
    struct AddressRecorder(Arc<Mutex<Vec<usize>>>);

    impl Verifier for AddressRecorder {
        fn verify(&self, _input: &VerifyInput<'_>) -> cyclesql_nli::Verdict {
            panic!("the loop prepares the question and calls verify_prepared");
        }
        fn verify_prepared(
            &self,
            hyp: &Hypothesis,
            _input: &VerifyInput<'_>,
        ) -> cyclesql_nli::Verdict {
            self.0
                .lock()
                .unwrap()
                .push(hyp as *const Hypothesis as usize);
            cyclesql_nli::Verdict {
                entails: false,
                score: 0.0,
            }
        }
        fn name(&self) -> &'static str {
            "address-recorder"
        }
    }

    #[test]
    fn loop_prepares_the_question_once() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let built = || HYPOTHESES_BUILT.with(|n| n.replace(0));
        let calls = Arc::new(Mutex::new(Vec::new()));
        let cycle = CycleSql::new(LoopVerifier::Custom(Box::new(AddressRecorder(Arc::clone(
            &calls,
        )))));
        let gold = item.gold_sql.as_str();

        built();
        let out = cycle.run_prepared(item, db, prepared(&[gold; 4]), None);
        assert!(!out.accepted);
        let calls = std::mem::take(&mut *calls.lock().unwrap());
        assert_eq!(calls.len(), 4, "one verdict per rejected candidate");
        assert!(
            calls.iter().all(|&a| a == calls[0]),
            "one hypothesis: {calls:?}"
        );
        assert_eq!(built(), 1);

        // Nothing reaches the verifier: no candidate parses or runs.
        let broken = prepared(&["SELECT nope FROM nowhere", "not sql at all"]);
        let out = cycle.run_prepared(item, db, broken, None);
        assert_eq!(out.iterations, 2);
        assert_eq!(built(), 0, "no verdict, no hypothesis");

        // The oracle judges by execution and never mines the question.
        let gold_result = execute(db, &parse(gold).unwrap()).unwrap();
        let oracle = CycleSql::new(LoopVerifier::Oracle);
        let out = oracle.run_prepared(item, db, prepared(&[gold; 4]), Some(&gold_result));
        assert!(out.accepted);
        assert_eq!(built(), 0, "the oracle builds no hypothesis");
    }
}

#[cfg(test)]
mod tracing_tests {
    use super::*;
    use crate::experiments::ExperimentContext;
    use cyclesql_nli::Verdict;
    use cyclesql_obs::{MemorySink, ObsCounters, SpanSink, Tracer};

    fn prepared(sqls: &[&str]) -> Vec<PreparedCandidate> {
        sqls.iter()
            .enumerate()
            .map(|(i, s)| PreparedCandidate {
                sql: (*s).to_string(),
                ast: parse(s).ok().map(Arc::new),
                run: None,
                rank: i,
                score: 1.0 - i as f64 * 0.1,
            })
            .collect()
    }

    fn tracer() -> (Tracer, Arc<MemorySink>) {
        let counters = Arc::new(ObsCounters::default());
        let sink = Arc::new(MemorySink::new(1024, Arc::clone(&counters)));
        let tracer = Tracer::new(sink.clone() as Arc<dyn SpanSink>, counters);
        (tracer, sink)
    }

    #[test]
    fn traced_loop_emits_candidate_and_stage_spans() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = CycleSql::new(LoopVerifier::AlwaysAccept(AlwaysAcceptVerifier));
        let cands = prepared(&["NOT SQL @@@", item.gold_sql.as_str()]);
        let (tracer, sink) = tracer();
        {
            let root = tracer.root("serve");
            let controls = RunControls {
                span: SpanCtx::of(&root),
                ..RunControls::default()
            };
            let outcome = cycle.run_controlled(item, db, &cands, None, &controls);
            assert!(outcome.accepted);
        }
        let records = sink.records();
        let cycles: Vec<_> = records.iter().filter(|r| r.name == "cycle").collect();
        assert_eq!(cycles.len(), 2, "one cycle span per examined candidate");
        assert!(
            cycles[0].error && cycles[0].attr("parse_error").is_some(),
            "unparseable candidate marked"
        );
        for stage in ["execute", "provenance", "explain", "verify"] {
            assert_eq!(
                records.iter().filter(|r| r.name == stage).count(),
                1,
                "{stage} span for the one executed candidate"
            );
        }
        // Stage spans are children of the second cycle span; cycle spans
        // are children of the root.
        let root = records.iter().find(|r| r.name == "serve").unwrap();
        let good_cycle = cycles[1];
        assert_eq!(good_cycle.parent_id, Some(root.span_id));
        let exec = records.iter().find(|r| r.name == "execute").unwrap();
        assert_eq!(exec.parent_id, Some(good_cycle.span_id));
        // The loop drew the second candidate itself, under its cycle span.
        let draws: Vec<_> = records.iter().filter(|r| r.name == "translate").collect();
        assert_eq!(draws.len(), 1, "one draw after the top-1");
        assert_eq!(draws[0].parent_id, Some(good_cycle.span_id));
    }

    #[test]
    fn untraced_loop_emits_nothing() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = CycleSql::new(LoopVerifier::AlwaysAccept(AlwaysAcceptVerifier));
        let cands = prepared(&[item.gold_sql.as_str()]);
        let outcome = cycle.run_controlled(item, db, &cands, None, &RunControls::default());
        assert!(outcome.accepted, "tracing off changes nothing");
    }

    #[test]
    fn analyze_attaches_operator_profile_to_execute_span() {
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = CycleSql::new(LoopVerifier::AlwaysAccept(AlwaysAcceptVerifier));
        let cands = prepared(&[item.gold_sql.as_str()]);
        let (tracer, sink) = tracer();
        {
            let root = tracer.root("serve");
            let controls = RunControls {
                span: SpanCtx::of(&root),
                analyze: true,
                ..RunControls::default()
            };
            cycle.run_controlled(item, db, &cands, None, &controls);
        }
        let records = sink.records();
        let exec = records.iter().find(|r| r.name == "execute").unwrap();
        let analyze = exec.attr("analyze").expect("profile attached");
        let cyclesql_obs::AttrValue::Str(text) = analyze else {
            panic!("analyze attr is text")
        };
        assert!(text.contains("RESULT"), "{text}");
        assert!(exec.attr("analyze_total_ns").is_some());
    }

    /// Satellite guarantee: a panic inside a stage (here the verifier)
    /// cannot lose spans. Drop guards deliver every open span to the sink
    /// with `error=true`.
    #[test]
    fn panicking_verifier_loses_no_spans_and_marks_errors() {
        struct PanicVerifier;
        impl Verifier for PanicVerifier {
            fn verify(&self, _input: &VerifyInput<'_>) -> Verdict {
                panic!("verifier exploded");
            }
            fn name(&self) -> &'static str {
                "panic"
            }
        }
        let ctx = ExperimentContext::shared_quick();
        let item = &ctx.spider.dev[0];
        let db = ctx.spider.database(item);
        let cycle = CycleSql::new(LoopVerifier::Custom(Box::new(PanicVerifier)));
        let cands = prepared(&[item.gold_sql.as_str()]);
        let (tracer, sink) = tracer();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let root = tracer.root("serve");
            let controls = RunControls {
                span: SpanCtx::of(&root),
                ..RunControls::default()
            };
            cycle.run_controlled(item, db, &cands, None, &controls)
        }));
        assert!(result.is_err(), "the panic propagated");
        let records = sink.records();
        for name in [
            "serve",
            "cycle",
            "execute",
            "provenance",
            "explain",
            "verify",
        ] {
            assert!(
                records.iter().any(|r| r.name == name),
                "{name} span reached the sink despite the panic"
            );
        }
        // The spans still open when the verifier panicked (verify, its
        // cycle, the root) were finished by drop guards and marked errored.
        for name in ["serve", "cycle", "verify"] {
            let r = records.iter().find(|r| r.name == name).unwrap();
            assert!(r.error, "{name} span marked error=true");
        }
        // Stages that completed before the panic stay clean.
        let exec = records.iter().find(|r| r.name == "execute").unwrap();
        assert!(!exec.error);
    }
}
