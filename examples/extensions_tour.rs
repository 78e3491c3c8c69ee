//! A tour of the features beyond the paper's evaluation: empty-result
//! diagnosis, where-provenance, verifier persistence, and the
//! human-in-the-loop interactive variant.

use cyclesql_benchgen::Split;
use cyclesql_core::experiments::ExperimentContext;
use cyclesql_core::{evaluate, CycleSql, EvalOptions, HumanPolicy, SimulatedHuman};
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_nli::NliModel;
use cyclesql_provenance::{diagnose_empty_result, where_provenance, WhereProvenance};
use cyclesql_sql::parse;
use cyclesql_storage::execute;
use std::sync::Arc;

fn main() {
    eprintln!("building suites and training the verifier (quick config)...");
    let ctx = ExperimentContext::quick();
    let db = ctx.spider.databases.get("world_1").expect("world db");

    // --- 1. Empty-result diagnosis --------------------------------------
    println!("== Empty-result diagnosis ==");
    let q = parse("SELECT name FROM country WHERE continent = 'Europe' AND population > 999999999")
        .unwrap();
    let result = execute(db, &q).unwrap();
    assert!(result.is_empty());
    let diag = diagnose_empty_result(db, &q).unwrap();
    println!(
        "query   : SELECT name FROM country WHERE continent = 'Europe' AND population > 999999999"
    );
    println!("verdict : {}\n", diag.to_phrase());

    // --- 2. Where-provenance --------------------------------------------
    println!("== Where-provenance ==");
    let q = parse(
        "SELECT T2.name FROM countrylanguage AS T1 JOIN country AS T2 \
         ON T1.countrycode = T2.code WHERE T1.language = 'English'",
    )
    .unwrap();
    let result = execute(db, &q).unwrap();
    if !result.is_empty() {
        match where_provenance(db, &q, 0, 0).unwrap() {
            WhereProvenance::Copied(cells) => {
                for c in cells {
                    println!(
                        "output cell (0,0) = {:?} was copied from {}[row {}].{}",
                        result.rows[0][0].to_string(),
                        c.table,
                        c.row,
                        c.column
                    );
                }
            }
            other => println!("{other:?}"),
        }
    }
    println!();

    // --- 3. Verifier persistence ------------------------------------------
    println!("== Verifier persistence ==");
    let json = ctx.verifier.model.to_json();
    let restored = NliModel::from_json(&json).expect("roundtrip");
    println!(
        "saved {} bytes of verifier weights; restored threshold = {:.3}\n",
        json.len(),
        restored.threshold
    );

    // --- 4. Human-in-the-loop ----------------------------------------------
    println!("== Human-in-the-loop (simulated, competence 0.95) ==");
    // The trained loop, with verdicts near the threshold escalated to the
    // simulated human; the policy counts its escalations.
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let human = SimulatedHuman {
        competence: 0.95,
        seed: 42,
    };
    let policy = Arc::new(HumanPolicy::new(human, ctx.verifier.model.threshold, 0.3));
    let interactive = CycleSql {
        policy: policy.clone(),
        ..ctx.cycle()
    };
    let opts = EvalOptions {
        k: Some(8),
        ..EvalOptions::new(&ctx.spider, Split::Dev, &interactive)
    };
    let result = evaluate(&model, &opts).cycle;
    println!(
        "interactive EX = {:.1}% over {} questions, {:.2} escalations per question",
        result.ex,
        result.total,
        policy.escalations() as f64 / result.total as f64
    );
}
