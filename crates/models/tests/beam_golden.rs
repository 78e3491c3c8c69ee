//! Golden beams: every profile's full k=8 beam over the quick Spider and
//! Science suites (train, dev and test), drawn with and without a
//! `PreparedGold`, is pinned by digest. Each candidate contributes its SQL,
//! rank, score bits and whether it carries a run; each beam contributes its
//! `SimStats`. Any RNG draw that moves, any candidate text that changes,
//! fails here.
//!
//! The full dump is about 116k lines, so the golden keeps one line per
//! (profile, suite, split, gold mode): the counts and the FNV-1a digest of
//! that cell's dump. On a mismatch the test prints the table it computed.

use cyclesql_benchgen::{build_science_suite, build_spider_suite, SuiteConfig, Variant};
use cyclesql_explain::{CachedRun, NoCache};
use cyclesql_models::{PreparedGold, SimStats, SimulatedModel, TranslationRequest};
use cyclesql_rng::{fnv1a, fnv1a_extend};
use cyclesql_sql::{parse, to_sql};
use cyclesql_storage::ExecOpts;
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/beam_digests.txt");

/// The quick configuration of `ExperimentContext::quick`.
const QUICK: SuiteConfig = SuiteConfig {
    seed: 0xC1C1E,
    train_per_template: 1,
    eval_per_template: 1,
};

fn digest_table() -> String {
    let suites = [
        ("spider", build_spider_suite(Variant::Spider, QUICK), false),
        ("science", build_science_suite(QUICK), true),
    ];
    let mut table = String::new();
    for model in SimulatedModel::all() {
        for (suite_name, suite, science) in &suites {
            for (split, items) in [
                ("train", &suite.train),
                ("dev", &suite.dev),
                ("test", &suite.test),
            ] {
                for prepared in [false, true] {
                    let mut hash = fnv1a(b"");
                    let (mut lines, mut total) = (0usize, SimStats::default());
                    for item in items.iter() {
                        let db = suite.database(item);
                        let req = TranslationRequest {
                            item,
                            db,
                            k: 8,
                            severity: 0.0,
                            science: *science,
                        };
                        let gold =
                            prepared
                                .then(|| parse(&item.gold_sql).ok())
                                .flatten()
                                .map(|ast| {
                                    let ast = Arc::new(ast);
                                    PreparedGold {
                                        sql: to_sql(&ast),
                                        run: CachedRun::execute(db, &ast, &ExecOpts::default()),
                                        ast,
                                        source: &NoCache,
                                    }
                                });
                        let mut beam = model.beam(&req, gold.as_ref());
                        let mut dump = String::new();
                        for c in beam.by_ref() {
                            let carried = u8::from(c.run.is_some());
                            let score = c.score.to_bits();
                            writeln!(dump, "{} {} {score:x} {carried} {}", item.id, c.rank, c.sql)
                                .unwrap();
                            lines += 1;
                        }
                        let s = beam.stats();
                        writeln!(
                            dump,
                            "{} stats {} {} {}",
                            item.id, s.candidates, s.attempts, s.retries
                        )
                        .unwrap();
                        lines += 1;
                        total.candidates += s.candidates;
                        total.attempts += s.attempts;
                        total.retries += s.retries;
                        hash = fnv1a_extend(hash, dump.as_bytes());
                    }
                    let mode = if prepared { "prepared" } else { "plain" };
                    writeln!(
                        table,
                        "{} {suite_name} {split} {mode} lines={lines} candidates={} \
                         attempts={} retries={} fnv={hash:016x}",
                        model.profile.name, total.candidates, total.attempts, total.retries
                    )
                    .unwrap();
                }
            }
        }
    }
    table
}

#[test]
fn every_profile_beam_matches_the_recorded_golden() {
    let table = digest_table();
    assert!(
        table == GOLDEN,
        "beam digests differ from tests/golden/beam_digests.txt; computed:\n{table}"
    );
}
