//! `repro` — regenerates every table and figure of the CycleSQL paper.
//!
//! Usage:
//! ```text
//!   repro [--quick] [--fig1] [--table1] [--table2] [--fig8] [--fig9]
//!         [--table3] [--fig10] [--table4] [--ext-human] [--ext-ablation]
//!         [--ext-arch] [--json <dir>] [--dump-suite <dir>]
//! ```
//!
//! With no experiment flags, everything runs. `--quick` uses the reduced
//! suite configuration (fast sanity pass); the default is the full-size
//! suites. `--json <dir>` additionally writes each result as JSON. An
//! unknown argument, or a `--json`/`--dump-suite` without its directory,
//! prints the usage and exits with status 2.
//!
//! Every run also writes `BENCH_eval.json` in the working directory with
//! the per-experiment wall-clock breakdown (context/suite build, each
//! experiment, total), so evaluation-harness speedups are recorded
//! alongside the results.

use cyclesql_benchgen::BenchmarkItem;
use cyclesql_core::experiments::{
    ext_ablation, ext_arch, ext_human, fig1, fig10, fig8, fig9, table1, table2, table3, table4,
    ExperimentContext,
};
use cyclesql_models::SimulatedModel;
use cyclesql_obs::json::{self, ToJson};
use cyclesql_storage::DatabaseSchema;
use std::time::Instant;

/// One generated item as `--dump-suite` writes it.
struct DumpItem<'a>(&'a BenchmarkItem);

impl ToJson for DumpItem<'_> {
    fn write_json(&self, out: &mut String, indent: usize) {
        let i = self.0;
        json::write_object(
            out,
            indent,
            &[
                ("id", &i.id),
                ("db", &i.db_name),
                ("split", &format!("{:?}", i.split)),
                ("question", &i.question),
                ("gold_sql", &i.gold_sql),
                ("difficulty", &i.difficulty.label()),
                ("template", &i.template),
            ],
        );
    }
}

/// Writes the generated benchmark (items + schemas, by database name) as
/// JSON so the synthetic suites can be inspected or consumed by external
/// tooling.
fn dump_suite(ctx: &ExperimentContext, dir: &str) {
    let _ = std::fs::create_dir_all(dir);
    let items: Vec<DumpItem> = ctx
        .spider
        .train
        .iter()
        .chain(&ctx.spider.dev)
        .chain(&ctx.spider.test)
        .map(DumpItem)
        .collect();
    let mut schemas: Vec<&DatabaseSchema> =
        ctx.spider.databases.values().map(|db| &db.schema).collect();
    schemas.sort_by(|a, b| a.name.cmp(&b.name));
    let _ = std::fs::write(
        format!("{dir}/spider_items.json"),
        json::to_string_pretty(&items),
    );
    let _ = std::fs::write(
        format!("{dir}/spider_schemas.json"),
        json::to_string_pretty(&schemas),
    );
    eprintln!(
        "dumped {} items and {} schemas to {dir}/",
        items.len(),
        schemas.len()
    );
}

/// The command-line synopsis, printed on a bad argument.
const USAGE: &str = "usage: repro [--quick] [--fig1] [--table1] [--table2] [--fig8] [--fig9]
             [--table3] [--fig10] [--table4] [--ext-human] [--ext-ablation]
             [--ext-arch] [--json <dir>] [--dump-suite <dir>]";

/// The experiment flags, without their `--`, in run order.
const EXPERIMENTS: [&str; 11] = [
    "fig1",
    "table1",
    "table2",
    "fig8",
    "fig9",
    "table3",
    "table4",
    "fig10",
    "ext-human",
    "ext-ablation",
    "ext-arch",
];

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    json_dir: Option<String>,
    dump_dir: Option<String>,
    /// The experiments named; none runs them all.
    wanted: Vec<String>,
}

/// Parses the arguments after the program name. An unknown argument, or a
/// `--json`/`--dump-suite` whose directory is missing or is itself a flag,
/// is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" | "--dump-suite" => {
                let dir = args
                    .next()
                    .filter(|dir| !dir.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a directory"))?;
                let slot = if arg == "--json" {
                    &mut parsed.json_dir
                } else {
                    &mut parsed.dump_dir
                };
                *slot = Some(dir.clone());
            }
            _ => match arg.strip_prefix("--") {
                Some(name) if EXPERIMENTS.contains(&name) => parsed.wanted.push(name.to_string()),
                _ => return Err(format!("unknown argument {arg}")),
            },
        }
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let quick = args.quick;
    let run_all = args.wanted.is_empty();
    let want = |name: &str| {
        debug_assert!(EXPERIMENTS.contains(&name), "{name} is selectable");
        run_all || args.wanted.iter().any(|w| w == name)
    };

    eprintln!(
        "building benchmark suites and training the verifier ({})...",
        if quick { "quick" } else { "full" }
    );
    let run_start = Instant::now();
    let t0 = Instant::now();
    let ctx = if quick {
        ExperimentContext::quick()
    } else {
        ExperimentContext::full()
    };
    let context_build_s = t0.elapsed().as_secs_f64();
    let mut timings: Vec<(String, f64)> = Vec::new();
    eprintln!(
        "context ready in {:.1}s: dev={} items, train={} items, verifier trained on +{}/-{} examples\n",
        t0.elapsed().as_secs_f64(),
        ctx.spider.dev.len(),
        ctx.spider.train.len(),
        ctx.stats.positives,
        ctx.stats.negatives,
    );

    if let Some(dir) = &args.dump_dir {
        dump_suite(&ctx, dir);
        if run_all && args.json_dir.is_none() {
            return;
        }
    }

    let models = SimulatedModel::all();
    // Runs one experiment if selected: prints its text report, writes its
    // JSON under `--json`, and records its wall-clock time.
    macro_rules! experiment {
        ($flag:literal, $json:literal, $run:expr) => {
            if want($flag) {
                let t = Instant::now();
                let r = $run;
                println!("{}", r.render());
                if let Some(dir) = &args.json_dir {
                    let _ = std::fs::create_dir_all(dir);
                    let path = format!("{dir}/{}.json", $json);
                    if let Err(e) = std::fs::write(&path, json::to_string_pretty(&r)) {
                        eprintln!("failed writing {path}: {e}");
                    }
                }
                let secs = t.elapsed().as_secs_f64();
                timings.push(($flag.into(), secs));
                eprintln!("[{} done in {secs:.1}s]\n", $flag);
            }
        };
    }
    experiment!("fig1", "fig1", fig1::run(&ctx));
    experiment!("table1", "table1", table1::run(&ctx, &models));
    experiment!("table2", "table2", table2::run(&ctx, &models));
    experiment!("fig8", "fig8", fig8::run(&ctx, &models));
    experiment!("fig9", "fig9", fig9::run(&ctx));
    experiment!("table3", "table3", table3::run(&ctx));
    experiment!("table4", "table4", table4::run(&ctx));
    experiment!("fig10", "fig10", fig10::run(&ctx));
    experiment!("ext-human", "ext_human", ext_human::run(&ctx));
    experiment!("ext-ablation", "ext_ablation", ext_ablation::run(&ctx));
    experiment!("ext-arch", "ext_arch", ext_arch::run(&ctx));

    write_bench_eval(
        quick,
        context_build_s,
        &timings,
        run_start.elapsed().as_secs_f64(),
    );
}

/// Writes `BENCH_eval.json` with the run's wall-clock breakdown.
fn write_bench_eval(quick: bool, context_build_s: f64, timings: &[(String, f64)], total_s: f64) {
    struct Experiments<'a>(&'a [(String, f64)]);
    impl ToJson for Experiments<'_> {
        fn write_json(&self, out: &mut String, indent: usize) {
            let fields: Vec<(&str, &dyn ToJson)> = self
                .0
                .iter()
                .map(|(name, secs)| (name.as_str(), secs as &dyn ToJson))
                .collect();
            json::write_object(out, indent, &fields);
        }
    }
    let mut report = String::new();
    json::write_object(
        &mut report,
        0,
        &[
            ("quick", &quick),
            ("context_build_s", &context_build_s),
            ("experiments", &Experiments(timings)),
            ("total_s", &total_s),
        ],
    );
    let path = "BENCH_eval.json";
    if let Err(e) = std::fs::write(path, report) {
        eprintln!("failed writing {path}: {e}");
    } else {
        eprintln!("wall-clock breakdown written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn every_experiment_flag_parses() {
        for name in EXPERIMENTS {
            let args = parse(&["--quick", &format!("--{name}")]).unwrap();
            assert!(args.quick);
            assert_eq!(args.wanted, [name]);
        }
        assert_eq!(parse(&[]).unwrap(), Args::default());
    }

    #[test]
    fn directories_follow_their_flags() {
        let args = parse(&["--json", "out", "--table2", "--dump-suite", "suite"]).unwrap();
        assert_eq!(args.json_dir.as_deref(), Some("out"));
        assert_eq!(args.dump_dir.as_deref(), Some("suite"));
        assert_eq!(args.wanted, ["table2"]);
        assert!(!args.quick);
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        for bad in [&["--tabel1"][..], &["--quick", "table1"], &["--"], &["-q"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.starts_with("unknown argument"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn a_directory_flag_without_a_directory_is_rejected() {
        for bad in [
            &["--json"][..],
            &["--json", "--quick"],
            &["--dump-suite"],
            &["--fig1", "--dump-suite", "--json", "out"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.ends_with("needs a directory"), "{bad:?}: {err}");
        }
    }
}
