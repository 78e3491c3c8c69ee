//! End-to-end experiment smoke tests: the whole system (benchgen → models →
//! loop → metrics) reproduces the paper's qualitative claims on the quick
//! configuration, deterministically.

use cyclesql_benchgen::Split;
use cyclesql_core::experiments::{fig1, table1, ExperimentContext};
use cyclesql_core::{evaluate, CycleSql, EvalOptions, LoopVerifier, PairedResult, Parallelism};
use cyclesql_models::{ModelProfile, SimulatedModel};

#[test]
fn headline_claim_cyclesql_improves_resdsql() {
    let ctx = ExperimentContext::shared_quick();
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let cycle = ctx.cycle();
    let PairedResult {
        base, cycle: with, ..
    } = evaluate(&model, &EvalOptions::new(&ctx.spider, Split::Dev, &cycle));
    assert!(
        with.ex >= base.ex,
        "headline claim: +CycleSQL must not lose EX ({} vs {})",
        base.ex,
        with.ex
    );
    assert!(with.avg_iterations >= 1.0 && with.avg_iterations <= 8.0);
}

#[test]
fn improvement_holds_for_every_model_family() {
    let ctx = ExperimentContext::shared_quick();
    let cycle = ctx.cycle();
    for profile in [
        ModelProfile::smbop(),
        ModelProfile::gpt35(),
        ModelProfile::chess(),
    ] {
        let model = SimulatedModel::new(profile);
        let PairedResult {
            base, cycle: with, ..
        } = evaluate(&model, &EvalOptions::new(&ctx.spider, Split::Dev, &cycle));
        assert!(
            with.ex + 3.0 >= base.ex,
            "{}: EX regressed badly: {} -> {}",
            model.profile.name,
            base.ex,
            with.ex
        );
    }
}

#[test]
fn oracle_dominates_trained_dominates_nothing() {
    let ctx = ExperimentContext::shared_quick();
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let trained = ctx.cycle();
    let oracle = CycleSql::new(LoopVerifier::Oracle);
    let PairedResult {
        base,
        cycle: with_trained,
        ..
    } = evaluate(&model, &EvalOptions::new(&ctx.spider, Split::Dev, &trained));
    let with_oracle = evaluate(&model, &EvalOptions::new(&ctx.spider, Split::Dev, &oracle)).cycle;
    assert!(with_oracle.ex >= with_trained.ex);
    assert!(with_oracle.ex >= base.ex);
}

#[test]
fn figure1_reproduces_the_motivation() {
    // The paper's motivating observation: beam-1 accuracy plateaus below
    // what wider beams contain.
    let ctx = ExperimentContext::shared_quick();
    let f = fig1::run(ctx);
    for curve in &f.curves {
        let k1 = curve.points.first().unwrap().1;
        let k8 = curve.points.last().unwrap().1;
        assert!(
            k8 >= k1,
            "{}: wider beams cannot contain fewer correct answers",
            curve.model
        );
    }
    // At least one model shows a material gap (the motivation's point).
    assert!(
        f.curves
            .iter()
            .any(|c| c.points.last().unwrap().1 - c.points.first().unwrap().1 >= 2.0),
        "no model shows the beam-width headroom"
    );
}

#[test]
fn experiments_are_deterministic() {
    let ctx = ExperimentContext::shared_quick();
    let models = vec![SimulatedModel::new(ModelProfile::smbop())];
    let a = table1::run_dev_only(ctx, &models);
    let b = table1::run_dev_only(ctx, &models);
    assert_eq!(a[0].1.base.ex, b[0].1.base.ex);
    assert_eq!(a[0].1.cycle.ex, b[0].1.cycle.ex);
}

#[test]
fn frozen_verifier_transfers_to_variants() {
    // The robustness claim: the verifier trained on SPIDER still helps on
    // the perturbed variants (frozen weights).
    let ctx = ExperimentContext::shared_quick();
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let cycle = ctx.cycle();
    let mut improved = 0;
    for (_, suite) in ctx.spider_family() {
        let PairedResult {
            base, cycle: with, ..
        } = evaluate(&model, &EvalOptions::new(suite, Split::Dev, &cycle));
        if with.ex >= base.ex {
            improved += 1;
        }
    }
    assert!(
        improved >= 3,
        "frozen verifier must transfer to most variants: {improved}/4"
    );
}

#[test]
fn parallel_and_sequential_evaluation_agree_on_every_suite() {
    // The worker pool merges per-item outcomes in index order, so every
    // deterministic field must match a sequential run bit for bit — on each
    // suite the experiment drivers evaluate.
    let ctx = ExperimentContext::shared_quick();
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let cycle = ctx.cycle();
    for (label, session) in ctx.spider_family() {
        let run = |parallelism| {
            evaluate(
                &model,
                &EvalOptions {
                    compute_ts: true,
                    parallelism,
                    ..EvalOptions::new(session, Split::Dev, &cycle)
                },
            )
        };
        let seq = run(Parallelism::Sequential);
        let par = run(Parallelism::Fixed(3));
        for (half, seq, par) in [
            ("Base", &seq.base, &par.base),
            ("CycleSql", &seq.cycle, &par.cycle),
        ] {
            assert!(
                seq.same_outcomes(par),
                "{label} {half}: sequential and parallel runs diverged"
            );
        }
    }
}
