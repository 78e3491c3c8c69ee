//! Table I: overall translation results (EM/EX/TS) for every baseline
//! model, base vs +CycleSQL, on SPIDER dev/test, the three variants, and
//! the science benchmark.

use super::ExperimentContext;
use crate::eval::{evaluate, EvalOptions, PairedResult};
use crate::session::EvalSession;
use cyclesql_benchgen::Split;
use cyclesql_models::SimulatedModel;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One model's full Table-I row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Model name.
    pub model: String,
    /// SPIDER dev (EM/EX/TS).
    pub spider_dev: PairedResult,
    /// SPIDER test (EM/EX) — the paper reports it for RESDSQL and
    /// GPT-3.5-Turbo only.
    pub spider_test: Option<PairedResult>,
    /// SPIDER-REALISTIC.
    pub realistic: PairedResult,
    /// SPIDER-SYN.
    pub syn: PairedResult,
    /// SPIDER-DK (EM/EX).
    pub dk: PairedResult,
    /// Science EM per domain, base and cycle.
    pub science_em_base: HashMap<String, f64>,
    /// Science EM per domain with CycleSQL.
    pub science_em_cycle: HashMap<String, f64>,
}

cyclesql_obs::impl_to_json! {
    Table1Row {
        model, spider_dev, spider_test, realistic, syn, dk, science_em_base,
        science_em_cycle
    }
}

/// The whole table.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Rows in the paper's model order.
    pub rows: Vec<Table1Row>,
}

cyclesql_obs::impl_to_json! { Table1Result { rows } }

/// Runs Table I for the given models (pass `SimulatedModel::all()` for the
/// full table; a subset for quick runs).
pub fn run(ctx: &ExperimentContext, models: &[SimulatedModel]) -> Table1Result {
    let cycle = ctx.cycle();
    let rows = models
        .iter()
        .map(|model| {
            let pair = |session: &EvalSession, split: Split, compute_ts: bool| {
                let opts = EvalOptions::new(session, split, &cycle);
                evaluate(model, &EvalOptions { compute_ts, ..opts })
            };
            let spider_dev = pair(&ctx.spider, Split::Dev, true);
            // Test-set numbers for the two models the paper reports.
            let spider_test = if model.profile.name.contains("RESDSQL")
                || model.profile.name == "GPT-3.5-Turbo"
            {
                Some(pair(&ctx.spider, Split::Test, false))
            } else {
                None
            };
            let (science_em_base, science_em_cycle) =
                evaluate(model, &EvalOptions::new(&ctx.science, Split::Dev, &cycle)).em_by_db();
            Table1Row {
                model: model.profile.name.to_string(),
                spider_dev,
                spider_test,
                realistic: pair(&ctx.realistic, Split::Dev, true),
                syn: pair(&ctx.syn, Split::Dev, true),
                dk: pair(&ctx.dk, Split::Dev, false),
                science_em_base,
                science_em_cycle,
            }
        })
        .collect();
    Table1Result { rows }
}

/// A faster dev-only variant used by Criterion benches.
pub fn run_dev_only(
    ctx: &ExperimentContext,
    models: &[SimulatedModel],
) -> Vec<(String, PairedResult)> {
    let cycle = ctx.cycle();
    models
        .iter()
        .map(|model| {
            let pair = evaluate(model, &EvalOptions::new(&ctx.spider, Split::Dev, &cycle));
            (model.profile.name.to_string(), pair)
        })
        .collect()
}

impl Table1Result {
    /// Plain-text rendering in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table I: overall translation results (%); each model row shows Base then +CycleSQL"
        );
        let _ = writeln!(
            out,
            "{:<16} {:<10} | {:>6} {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} | {:>7} {:>7} {:>6}",
            "model", "config", "dEM", "dEX", "dTS", "tEM", "tEX", "rEM", "rEX", "rTS",
            "sEM", "sEX", "sTS", "kEM", "kEX", "oncomx", "cordis", "sdss"
        );
        for row in &self.rows {
            for (label, get) in [("Base", false), ("+CycleSQL", true)] {
                let pick = |p: &PairedResult| if get { p.cycle.clone() } else { p.base.clone() };
                let d = pick(&row.spider_dev);
                let t = row.spider_test.as_ref().map(&pick);
                let r = pick(&row.realistic);
                let s = pick(&row.syn);
                let k = pick(&row.dk);
                let sci = if get {
                    &row.science_em_cycle
                } else {
                    &row.science_em_base
                };
                let _ = writeln!(
                    out,
                    "{:<16} {:<10} | {:>6.1} {:>6.1} {:>6.1} | {:>6} {:>6} | {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} | {:>7.1} {:>7.1} {:>6.1}",
                    row.model,
                    label,
                    d.em, d.ex, d.ts,
                    t.as_ref().map(|x| format!("{:.1}", x.em)).unwrap_or_else(|| "-".into()),
                    t.as_ref().map(|x| format!("{:.1}", x.ex)).unwrap_or_else(|| "-".into()),
                    r.em, r.ex, r.ts,
                    s.em, s.ex, s.ts,
                    k.em, k.ex,
                    sci.get("oncomx").copied().unwrap_or(0.0),
                    sci.get("cordis").copied().unwrap_or(0.0),
                    sci.get("sdss").copied().unwrap_or(0.0),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalResult;
    use cyclesql_models::ModelProfile;

    #[test]
    fn cyclesql_improves_or_holds_ex_everywhere() {
        let ctx = ExperimentContext::shared_quick();
        let models = vec![SimulatedModel::new(ModelProfile::resdsql_3b())];
        let t = run(ctx, &models);
        let row = &t.rows[0];
        for (name, pair) in [
            ("dev", &row.spider_dev),
            ("realistic", &row.realistic),
            ("syn", &row.syn),
            ("dk", &row.dk),
        ] {
            assert!(
                pair.cycle.ex + 1e-9 >= pair.base.ex,
                "{name}: base {} vs cycle {}",
                pair.base.ex,
                pair.cycle.ex
            );
        }
    }

    #[test]
    fn variants_are_harder_than_spider() {
        let ctx = ExperimentContext::shared_quick();
        let models = vec![SimulatedModel::new(ModelProfile::resdsql_large())];
        let t = run(ctx, &models);
        let row = &t.rows[0];
        assert!(
            row.dk.base.ex <= row.spider_dev.base.ex,
            "DK should be hardest: {} vs {}",
            row.dk.base.ex,
            row.spider_dev.base.ex
        );
    }

    #[test]
    fn ex_flips_reconcile_base_and_loop_in_every_cell() {
        let ctx = ExperimentContext::shared_quick();
        let models = SimulatedModel::all();
        let t = run(ctx, &models);
        let cycle = ctx.cycle();
        let ex_count = |r: &EvalResult| (r.ex * r.total as f64 / 100.0).round() as usize;
        let (mut cells, mut turned_right) = (0, 0);
        for (row, model) in t.rows.iter().zip(&models) {
            // The science columns report EM only, but come from a pass too.
            let science = evaluate(model, &EvalOptions::new(&ctx.science, Split::Dev, &cycle));
            assert_eq!(
                science.em_by_db(),
                (row.science_em_base.clone(), row.science_em_cycle.clone())
            );
            for (name, pair) in [
                ("dev", Some(&row.spider_dev)),
                ("test", row.spider_test.as_ref()),
                ("realistic", Some(&row.realistic)),
                ("syn", Some(&row.syn)),
                ("dk", Some(&row.dk)),
                ("science", Some(&science)),
            ] {
                let Some(pair) = pair else { continue };
                let f = pair.ex_flips();
                let label = format!("{} {name}: {f:?}", row.model);
                assert_eq!(
                    f.right_right + f.right_wrong + f.wrong_right + f.wrong_wrong,
                    pair.base.total,
                    "{label}"
                );
                assert_eq!(
                    ex_count(&pair.base) + f.wrong_right - f.right_wrong,
                    ex_count(&pair.cycle),
                    "{label}"
                );
                cells += 1;
                turned_right += f.wrong_right;
            }
        }
        assert!(cells >= 5 * models.len(), "{cells} cells");
        assert!(turned_right > 0, "the loop turns some item right");
    }

    #[test]
    fn render_has_both_configs_per_model() {
        let ctx = ExperimentContext::shared_quick();
        let models = vec![SimulatedModel::new(ModelProfile::smbop())];
        let text = run(ctx, &models).render();
        assert!(text.contains("Base"));
        assert!(text.contains("+CycleSQL"));
        assert!(text.contains("SMBoP"));
    }
}
