//! An NLIDB session demo: the complete user-facing experience the paper
//! motivates. A sequence of natural-language questions is answered over the
//! world database — for each, the simulated model proposes candidates, the
//! CycleSQL loop selects a validated translation, and the user sees the
//! answer *with* its polished data-grounded explanation.

use cyclesql_core::ex_correct;
use cyclesql_core::experiments::ExperimentContext;
use cyclesql_explain::polish;
use cyclesql_models::{ModelProfile, SimulatedModel, TranslationRequest};

fn main() {
    eprintln!("building suites and training the verifier (quick config)...");
    let ctx = ExperimentContext::quick();
    let model = SimulatedModel::new(ModelProfile::gpt35());
    let cycle = ctx.cycle();

    // A session over the world database: one item per structural class.
    let mut shown_templates = std::collections::HashSet::new();
    let session: Vec<_> = ctx
        .spider
        .dev
        .iter()
        .filter(|i| i.db_name == "world_1" && shown_templates.insert(i.template))
        .take(6)
        .collect();

    for item in session {
        let db = ctx.spider.database(item);
        println!("you    > {}", item.question);
        let req = TranslationRequest {
            item,
            db,
            k: model.profile.default_k,
            severity: 0.0,
            science: false,
        };
        // The loop draws candidates from the model's beam as it examines
        // them, and hands back the chosen candidate's result.
        let outcome = cycle.run_prepared(item, db, model.beam(&req, None), None);
        println!("sql    > {}", outcome.chosen_sql);
        if let Some(result) = &outcome.chosen_result {
            let preview: Vec<String> = result
                .rows
                .iter()
                .take(3)
                .map(|r| {
                    r.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .collect();
            println!(
                "answer > {} row(s): {}{}",
                result.len(),
                preview.join(" | "),
                if result.len() > 3 { " | …" } else { "" }
            );
        }
        if let Some(e) = &outcome.explanation {
            println!("why    > {}", polish(&e.text));
        }
        let ok = ex_correct(db, &outcome.chosen_sql, &item.gold_sql);
        println!(
            "status > {} after {} iteration(s), {}\n",
            if outcome.accepted {
                "validated"
            } else {
                "top-1 fallback"
            },
            outcome.iterations,
            if ok { "correct" } else { "incorrect" }
        );
    }
}
