//! Applies CycleSQL to a simulated translation model over the SPIDER-like
//! dev split and reports the accuracy improvement — the paper's headline
//! workflow in miniature (Table I's RESDSQL-3B row).

use cyclesql_benchgen::Split;
use cyclesql_core::experiments::ExperimentContext;
use cyclesql_core::{evaluate, CycleSql, EvalOptions, LoopVerifier, PairedResult};
use cyclesql_models::{ModelProfile, SimulatedModel};

fn main() {
    eprintln!("building suites and training the verifier (quick config)...");
    let ctx = ExperimentContext::quick();
    println!(
        "verifier trained on {} positives / {} negatives (threshold {:.2})\n",
        ctx.stats.positives, ctx.stats.negatives, ctx.verifier.model.threshold
    );

    let cycle = ctx.cycle();
    println!(
        "{:<16} {:>9} {:>11} {:>7} {:>12}",
        "model", "base EX", "+CycleSQL", "delta", "avg iters"
    );
    for profile in [
        ModelProfile::smbop(),
        ModelProfile::resdsql_large(),
        ModelProfile::resdsql_3b(),
        ModelProfile::gpt35(),
    ] {
        let model = SimulatedModel::new(profile);
        let PairedResult {
            base, cycle: with, ..
        } = evaluate(&model, &EvalOptions::new(&ctx.spider, Split::Dev, &cycle));
        println!(
            "{:<16} {:>9.1} {:>11.1} {:>+7.1} {:>12.2}",
            model.profile.name,
            base.ex,
            with.ex,
            with.ex - base.ex,
            with.avg_iterations
        );
    }

    // The oracle headroom, as in Table III's last row.
    let oracle = CycleSql::new(LoopVerifier::Oracle);
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let ceiling = evaluate(&model, &EvalOptions::new(&ctx.spider, Split::Dev, &oracle)).cycle;
    println!(
        "\noracle-verifier headroom for RESDSQL_3B: EX {:.1}%",
        ceiling.ex
    );
}
