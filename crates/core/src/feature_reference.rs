//! The NLI feature extractor as it was before the question and premise
//! sides were split, kept verbatim as the reference that
//! [`cyclesql_nli::Hypothesis`] must match bit for bit: on every question
//! of the quick suites, against its gold premise and its simulated
//! candidates' premises.

use cyclesql_explain::ExplanationFacets;
use cyclesql_sql::{AggFunc, BinOp, SetOp, SortOrder};
use std::collections::HashSet;

const FEATURE_DIM: usize = cyclesql_nli::FEATURE_DIM;

/// Intent signals mined from the NL question (the hypothesis).
#[derive(Debug, Clone, Default)]
pub(crate) struct QuestionIntent {
    /// Wants a count ("how many", "number of").
    pub(crate) count: bool,
    /// Wants a sum ("total X" where X isn't "number").
    pub(crate) sum: bool,
    /// Wants an average.
    pub(crate) avg: bool,
    /// Wants a minimum.
    pub(crate) min: bool,
    /// Wants a maximum.
    pub(crate) max: bool,
    /// Superlative / top-k phrasing.
    pub(crate) superlative: bool,
    /// Direction of the superlative (`true` = descending / "highest").
    pub(crate) superlative_desc: bool,
    /// Contains negation ("not", "no", "without", "excluding").
    pub(crate) negation: bool,
    /// "both … and …" phrasing (intersection).
    pub(crate) both: bool,
    /// "excluding" / "except" phrasing (difference).
    pub(crate) except: bool,
    /// "for each" phrasing (grouping).
    pub(crate) per_group: bool,
    /// "at least" phrasing.
    pub(crate) at_least: bool,
    /// Comparison words → operators.
    pub(crate) gt: bool,
    /// "less than"-family words.
    pub(crate) lt: bool,
    /// "between" phrasing.
    pub(crate) between: bool,
    /// "different"/"distinct"/"unique" phrasing.
    pub(crate) distinct: bool,
    /// Outer-join retention phrasing ("including X without any",
    /// "unmatched rows").
    pub(crate) retention: bool,
    /// Classification phrasing ("whether … is high or low", "label").
    pub(crate) classify: bool,
    /// Numbers mentioned in the question.
    pub(crate) numbers: Vec<String>,
    /// Top-k number if present ("top 3").
    pub(crate) top_k: Option<u64>,
    /// Content tokens (lower-cased words minus stopwords).
    pub(crate) tokens: HashSet<String>,
}

/// Mines intent signals from an NL question.
pub(crate) fn question_intent(question: &str) -> QuestionIntent {
    let q = question.to_lowercase();
    let mut intent = QuestionIntent::default();
    // Word-boundary matching: `count` must not fire on "country".
    let words: HashSet<String> = q
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '\'')
        .filter(|w| !w.is_empty())
        .map(String::from)
        .collect();
    let word = |s: &str| words.contains(s);
    let phrase = |s: &str| q.contains(s);

    intent.count = phrase("how many") || phrase("number of") || word("count");
    intent.sum = (word("total") && !phrase("total number")) || phrase("sum of") || word("combined");
    intent.avg = word("average") || word("mean");
    intent.min = word("minimum")
        || word("lowest")
        || word("smallest")
        || word("youngest")
        || word("fewest")
        || word("shortest")
        || word("cheapest");
    intent.max = word("maximum")
        || word("highest")
        || word("largest")
        || word("oldest")
        || word("most")
        || word("longest")
        || word("biggest")
        || word("top");
    intent.superlative = word("highest")
        || word("lowest")
        || word("most")
        || word("fewest")
        || word("top")
        || word("largest")
        || word("smallest")
        || word("oldest")
        || word("youngest")
        || word("best")
        || word("worst")
        || word("maximum")
        || word("minimum");
    intent.superlative_desc = word("highest")
        || word("most")
        || word("largest")
        || word("top")
        || word("oldest")
        || word("biggest")
        || word("best")
        || word("maximum");
    intent.negation = word("not")
        || word("no")
        || word("without")
        || word("excluding")
        || word("except")
        || word("never")
        || word("don't")
        || word("doesn't");
    intent.both = word("both") || phrase("and also") || phrase("as well as");
    intent.except = word("excluding") || word("except") || phrase("other than");
    intent.per_group = phrase("for each") || word("per") || word("each");
    intent.at_least = phrase("at least") || phrase("or more") || phrase("no fewer");
    intent.gt = phrase("greater than")
        || phrase("more than")
        || word("above")
        || word("over")
        || word("exceeding")
        || word("exceeds")
        || intent.at_least;
    intent.lt = phrase("less than")
        || word("below")
        || word("under")
        || phrase("at most")
        || phrase("fewer than");
    intent.between = word("between");
    intent.distinct = word("different") || word("distinct") || word("unique");
    intent.retention = phrase("without any")
        || word("unmatched")
        || phrase("even when")
        || phrase("even if")
        || (word("including") && word("without"));
    intent.classify = word("whether")
        || word("classify")
        || word("classified")
        || word("categorize")
        || word("categorized")
        || word("label")
        || word("labeled")
        || (word("high") && word("low"));

    for token in q.split(|c: char| !c.is_ascii_alphanumeric() && c != '.') {
        if token.is_empty() {
            continue;
        }
        if token.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            intent.numbers.push(token.trim_end_matches('.').to_string());
        } else if !STOPWORDS.contains(&token) && token.len() > 2 {
            intent.tokens.insert(token.to_string());
        }
    }
    if let Some(pos) = q.find("top ") {
        let rest = &q[pos + 4..];
        let num: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(k) = num.parse::<u64>() {
            intent.top_k = Some(k);
        }
    }
    intent
}

const STOPWORDS: &[&str] = &[
    "the",
    "of",
    "is",
    "are",
    "a",
    "an",
    "what",
    "which",
    "who",
    "that",
    "have",
    "has",
    "with",
    "for",
    "all",
    "and",
    "or",
    "in",
    "to",
    "do",
    "does",
    "there",
    "list",
    "show",
    "give",
    "find",
    "return",
    "me",
    "please",
    "whose",
    "how",
    "many",
    "much",
    "values",
    "value",
    "was",
    "were",
    "their",
    "they",
    "its",
    "than",
    "linked",
    "associated",
];

/// Proper-noun entity mentions in a question: maximal runs of capitalized
/// words that are not sentence-initial (e.g. "Airbus A340-300", "Aruba"),
/// lower-cased for containment checks.
pub(crate) fn question_entities(question: &str) -> Vec<String> {
    let words: Vec<&str> = question.split_whitespace().collect();
    let mut entities = Vec::new();
    let mut run: Vec<String> = Vec::new();
    for (i, w) in words.iter().enumerate() {
        let cleaned: String = w
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
            .collect();
        let capitalized = cleaned
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase());
        if capitalized && i > 0 {
            run.push(cleaned.to_lowercase());
        } else {
            if !run.is_empty() {
                entities.push(run.join(" "));
                run.clear();
            }
        }
    }
    if !run.is_empty() {
        entities.push(run.join(" "));
    }
    entities.retain(|e| !e.is_empty());
    entities
}

/// Tri-state agreement: +1 both present, -1 exactly one present, 0 neither.
fn agree(a: bool, b: bool) -> f64 {
    match (a, b) {
        (true, true) => 1.0,
        (false, false) => 0.0,
        _ => -1.0,
    }
}

/// Extracts the feature vector for a (premise, hypothesis) pair.
///
/// `facets` is the premise's structured digest; `premise_text` its free
/// text; `question` the hypothesis.
pub(crate) fn extract_features(
    question: &str,
    premise_text: &str,
    facets: &ExplanationFacets,
) -> Vec<f64> {
    let intent = question_intent(question);
    let mut f = Vec::with_capacity(FEATURE_DIM);

    let has_agg = |func: AggFunc| facets.agg_funcs.iter().any(|(g, _)| *g == func);
    let any_agg = !facets.agg_funcs.is_empty();
    let wants_any_agg = intent.count || intent.sum || intent.avg || intent.min || intent.max;

    // 0-4: per-aggregate agreement.
    f.push(agree(intent.count, has_agg(AggFunc::Count)));
    f.push(agree(intent.sum, has_agg(AggFunc::Sum)));
    f.push(agree(intent.avg, has_agg(AggFunc::Avg)));
    // min/max also satisfied by ORDER BY + LIMIT 1 (superlative form).
    let order_desc = matches!(facets.order, Some((_, SortOrder::Desc, _)));
    let order_asc = matches!(facets.order, Some((_, SortOrder::Asc, _)));
    let limit1 = facets.limit == Some(1);
    f.push(agree(
        intent.min,
        has_agg(AggFunc::Min) || (order_asc && limit1),
    ));
    f.push(agree(
        intent.max,
        has_agg(AggFunc::Max) || (order_desc && limit1),
    ));

    // 5: plain retrieval wanted but aggregate produced (the Figure-2 bug).
    f.push(if !wants_any_agg && any_agg && !intent.superlative {
        -1.0
    } else {
        0.0
    });
    // 6: aggregate wanted but plain projection produced.
    f.push(if wants_any_agg && !any_agg && facets.limit.is_none() {
        -1.0
    } else {
        0.0
    });

    // 7: comparison-operator agreement over filters. BETWEEN realizes as a
    // GtEq/LtEq pair — when both sides agree on BETWEEN, the derived
    // comparisons must not read as operator mismatches.
    let has_between = premise_text.contains("between");
    let between_consistent = intent.between && has_between;
    let ops: Vec<BinOp> = facets.comparisons.iter().map(|(_, op, _)| *op).collect();
    let has_gt = ops.iter().any(|o| matches!(o, BinOp::Gt | BinOp::GtEq))
        || facets
            .having
            .iter()
            .any(|(_, o, _)| matches!(o, BinOp::Gt | BinOp::GtEq));
    let has_lt = ops.iter().any(|o| matches!(o, BinOp::Lt | BinOp::LtEq));
    if between_consistent {
        f.push(0.0);
        f.push(0.0);
    } else {
        f.push(agree(intent.gt, has_gt));
        f.push(agree(intent.lt, has_lt));
    }
    // 9: between.
    f.push(agree(intent.between, has_between));

    // 10: value grounding — question literals found among premise values.
    let premise_values: HashSet<String> = facets
        .comparisons
        .iter()
        .map(|(_, _, v)| v.to_lowercase())
        .chain(
            facets
                .subquery_conditions
                .iter()
                .map(|(_, _, v)| v.to_lowercase()),
        )
        .chain(
            facets
                .like_patterns
                .iter()
                .map(|p| p.trim_matches('%').to_lowercase()),
        )
        .collect();
    let q_lower = question.to_lowercase();
    let quoted_hits = premise_values
        .iter()
        .filter(|v| q_lower.contains(v.as_str()))
        .count();
    f.push(if premise_values.is_empty() {
        0.0
    } else {
        2.0 * quoted_hits as f64 / premise_values.len() as f64 - 1.0
    });

    // 11: number agreement — numbers in the question appearing as premise
    // values (thresholds, having bounds, limits).
    let premise_numbers: HashSet<String> = facets
        .comparisons
        .iter()
        .map(|(_, _, v)| v.clone())
        .chain(facets.having.iter().map(|(_, _, v)| v.clone()))
        .chain(facets.limit.iter().map(|n| n.to_string()))
        .filter(|v| v.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .collect();
    if intent.numbers.is_empty() && premise_numbers.is_empty() {
        f.push(0.0);
    } else if intent.numbers.is_empty() || premise_numbers.is_empty() {
        f.push(-0.5);
    } else {
        let hits = intent
            .numbers
            .iter()
            .filter(|n| premise_numbers.contains(*n))
            .count();
        f.push(2.0 * hits as f64 / intent.numbers.len() as f64 - 1.0);
    }

    // 12: negation agreement (an EXCEPT set operation realizes negation).
    // Retention questions ("including countries without any") use negation
    // words to describe outer-join padding, not a filter — neutral when the
    // premise conveys an outer join.
    let premise_negates = facets.negations > 0 || facets.set_op == Some(SetOp::Except);
    let retention_explained = intent.retention && !facets.outer_joins.is_empty();
    if retention_explained {
        f.push(0.0);
    } else {
        f.push(agree(intent.negation, premise_negates));
    }
    // 13: grouping agreement. Grouping without "for each" is natural in
    // superlative questions ("which continent has the most…"), so only a
    // plain question with grouping counts as a mismatch. "For each X,
    // show…" over a CASE labelling or a padded join enumerates rows rather
    // than aggregating groups — also neutral.
    let grouping_neutral =
        (intent.superlative && !facets.group_keys.is_empty() && !intent.per_group)
            || (intent.per_group
                && facets.group_keys.is_empty()
                && (facets.case_count > 0 || !facets.outer_joins.is_empty()));
    if grouping_neutral {
        f.push(0.0);
    } else {
        f.push(agree(intent.per_group, !facets.group_keys.is_empty()));
    }
    // 14: having agreement ("at least K").
    f.push(agree(
        intent.at_least,
        !facets.having.is_empty() || ops.contains(&BinOp::GtEq),
    ));
    // 15: superlative agreement.
    f.push(agree(
        intent.superlative,
        facets.limit.is_some() && facets.order.is_some(),
    ));
    // 16: superlative direction.
    f.push(if intent.superlative && facets.order.is_some() {
        if intent.superlative_desc == order_desc {
            1.0
        } else {
            -1.0
        }
    } else {
        0.0
    });
    // 17: top-k number agreement. A LIMIT without an explicit "top k"
    // number is natural for superlative questions.
    f.push(match (intent.top_k, facets.limit) {
        (Some(k), Some(l)) => {
            if k == l {
                1.0
            } else {
                -1.0
            }
        }
        (Some(_), None) => -0.5,
        (None, Some(_)) => {
            if intent.superlative {
                0.0
            } else {
                -0.3
            }
        }
        (None, None) => 0.0,
    });
    // 18: set-op agreement (both→intersect, except→except).
    let setop_score = match facets.set_op {
        Some(SetOp::Intersect) => agree(intent.both, true),
        Some(SetOp::Except) => agree(intent.except || intent.negation, true),
        Some(SetOp::Union) => 0.2,
        None => {
            if retention_explained {
                // "unmatched rows from both sides" describes join padding,
                // not an intersection.
                0.0
            } else if intent.both || intent.except {
                // Wanted a set operation, premise has none — mildly negative
                // (NOT IN can realize "except" without a set op).
                if facets.negations > 0 {
                    0.3
                } else {
                    -0.6
                }
            } else {
                0.0
            }
        }
    };
    f.push(setop_score);
    // 19: distinct agreement.
    f.push(agree(intent.distinct, facets.distinct) * 0.5);

    // 20: schema-token overlap between question and premise column mentions.
    let mut premise_tokens: HashSet<String> = HashSet::new();
    for t in facets
        .projected_columns
        .iter()
        .chain(facets.group_keys.iter())
        .chain(facets.join_tables.iter())
        .chain(facets.comparisons.iter().map(|(c, _, _)| c))
    {
        for w in t.to_lowercase().split(|c: char| !c.is_ascii_alphanumeric()) {
            if w.len() > 2 && !STOPWORDS.contains(&w) {
                premise_tokens.insert(w.to_string());
            }
        }
    }
    if premise_tokens.is_empty() || intent.tokens.is_empty() {
        f.push(0.0);
    } else {
        let hits = premise_tokens
            .iter()
            .filter(|t| intent.tokens.contains(*t))
            .count();
        f.push(2.0 * hits as f64 / premise_tokens.len().min(intent.tokens.len()) as f64 - 1.0);
    }

    // 21: empty-result sanity — a non-existence question is fine with an
    // empty result; most retrieval questions aren't.
    f.push(if facets.empty_result {
        if intent.negation {
            0.2
        } else {
            -1.0
        }
    } else {
        0.3
    });

    // 22: singleton expectation — "what is the X of Y" style questions
    // expect few rows.
    let singular_question = q_lower.starts_with("what is")
        || q_lower.starts_with("return the")
        || q_lower.starts_with("give the");
    f.push(if singular_question && facets.num_rows > 10 {
        -0.7
    } else {
        0.0
    });

    // 23: raw text overlap (unigram containment of question tokens in the
    // premise text) — the generic NLI signal.
    let premise_lower = premise_text.to_lowercase();
    if intent.tokens.is_empty() {
        f.push(0.0);
    } else {
        let hits = intent
            .tokens
            .iter()
            .filter(|t| premise_lower.contains(t.as_str()))
            .count();
        f.push(2.0 * hits as f64 / intent.tokens.len() as f64 - 1.0);
    }

    // 24: projection-arity sanity — multi-column questions ("name and
    // number") vs single-column results.
    let wants_two = q_lower.contains(" and the ") || q_lower.contains("name and");
    f.push(if wants_two && facets.num_columns == 1 {
        -0.4
    } else {
        0.0
    });

    // 25: entity coverage — proper-noun mentions in the question (the
    // filter values users name) must surface in the premise. Catches
    // dropped conjuncts and swapped values even when the premise's own
    // value list looks internally consistent.
    let entities = question_entities(question);
    if entities.is_empty() {
        f.push(0.0);
    } else {
        let hits = entities
            .iter()
            .filter(|e| premise_lower.contains(e.as_str()))
            .count();
        f.push(2.0 * hits as f64 / entities.len() as f64 - 1.0);
    }

    // 26: outer-join retention agreement — "including X without any" /
    // "unmatched" questions expect a padded (LEFT/RIGHT/FULL) join.
    f.push(agree(intent.retention, !facets.outer_joins.is_empty()));

    // 27: classification agreement — "whether … is high or low" questions
    // expect a CASE mapping in the premise.
    f.push(agree(intent.classify, facets.case_count > 0));

    // 28: no-negative-evidence — a derived indicator the linear model
    // cannot express itself: +1 when no individual feature flags a
    // mismatch, -1 otherwise. This is what separates a bland-but-correct
    // explanation (nothing wrong detected) from a subtly wrong one.
    let clean = !f.iter().any(|&x| x <= -0.5);
    f.push(if clean { 1.0 } else { -1.0 });

    // 29: bias.
    f.push(1.0);

    debug_assert_eq!(f.len(), FEATURE_DIM);
    f
}

mod tests {
    use super::*;
    use crate::cycle::{premise_from_parts, FeedbackKind};
    use crate::experiments::ExperimentContext;
    use cyclesql_benchgen::Split;
    use cyclesql_models::{ModelProfile, SimulatedModel, TranslationRequest};
    use cyclesql_nli::Hypothesis;
    use cyclesql_sql::Query;
    use cyclesql_storage::ResultSet;
    use std::collections::HashMap;

    /// Every boolean signal of an intent, in declaration order.
    macro_rules! flags {
        ($i:expr) => {
            [
                $i.count,
                $i.sum,
                $i.avg,
                $i.min,
                $i.max,
                $i.superlative,
                $i.superlative_desc,
                $i.negation,
                $i.both,
                $i.except,
                $i.per_group,
                $i.at_least,
                $i.gt,
                $i.lt,
                $i.between,
                $i.distinct,
                $i.retention,
                $i.classify,
            ]
        };
    }

    fn bits(f: &[f64]) -> Vec<u64> {
        f.iter().map(|x| x.to_bits()).collect()
    }

    /// The prepared question mines what the reference mines.
    fn assert_question_matches(question: &str) -> Hypothesis {
        let want = question_intent(question);
        let hyp = Hypothesis::new(question);
        let got = hyp.intent();
        assert_eq!(flags!(got), flags!(want), "{question}");
        assert_eq!(got.numbers, want.numbers, "{question}");
        assert_eq!(got.top_k, want.top_k, "{question}");
        let mut tokens: Vec<String> = want.tokens.into_iter().collect();
        tokens.sort();
        assert_eq!(got.tokens, tokens, "{question}");
        assert_eq!(
            cyclesql_nli::question_entities(question),
            question_entities(question),
            "{question}"
        );
        hyp
    }

    #[test]
    fn hypothesis_features_match_the_reference_bit_for_bit() {
        let ctx = ExperimentContext::shared_quick();
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        let sessions = [
            (&ctx.spider, false),
            (&ctx.realistic, false),
            (&ctx.syn, false),
            (&ctx.dk, false),
            (&ctx.science, true),
        ];
        // Premises by (database, SQL): the variants share databases and
        // many gold queries, and a correct candidate prints as its gold.
        let mut premises: HashMap<(String, String), Option<(String, ExplanationFacets)>> =
            HashMap::new();
        let (mut questions, mut pairs) = (0usize, 0usize);
        for (session, science) in sessions {
            for split in [Split::Train, Split::Dev, Split::Test] {
                for (idx, item) in session.suite().split(split).iter().enumerate() {
                    let question = item.question.as_str();
                    let hyp = assert_question_matches(question);
                    questions += 1;
                    let prep = session.prepared_item(split, idx);
                    let db = session.database(item);
                    let mut check = |sql: &str, ast: &Query, result: Option<&ResultSet>| {
                        let key = (item.db_name.clone(), sql.to_string());
                        let premise = premises.entry(key).or_insert_with(|| {
                            premise_from_parts(db, ast, result, FeedbackKind::DataGrounded)
                        });
                        if let Some((text, facets)) = premise {
                            assert_eq!(
                                bits(&hyp.features(text, facets)),
                                bits(&extract_features(question, text, facets)),
                                "{question} | {text}"
                            );
                            pairs += 1;
                        }
                    };
                    if let Some(gold) = prep.gold_ast() {
                        check(&item.gold_sql, gold, prep.gold_result());
                    }
                    // The top-1 and one more keep the debug run short.
                    let req = TranslationRequest {
                        item,
                        db,
                        k: 2,
                        severity: 0.0,
                        science,
                    };
                    for cand in model.beam(&req, prep.gold.as_ref()) {
                        if let Some(ast) = cand.ast.as_deref() {
                            check(&cand.sql, ast, cand.result(db).as_deref());
                        }
                    }
                }
            }
        }
        assert!(questions > 500, "{questions} questions");
        assert!(pairs > 2 * questions, "{pairs} premise-question pairs");
    }

    #[test]
    fn tokenizer_edge_cases_match_the_reference() {
        for question in [
            "Which country has the most cities?",
            "Which students don't have pets?",
            "Which singer doesn't sing in English?",
            "Show the top 3 products by price.",
            "Show the top3 products, or the top  5, or TOP 10!",
            "List cities with population above 5.",
            "Countries with more than 2.5 million people, i.e. 2.5e6.",
            "What's the count of 'O'Brien' entries — naïve Ünïcode ÉTÉ?",
            "Show employees in the Airbus A340-300 fleet, with Aruba and Los Angeles",
            "  Aruba  ",
            "",
            "top 99999999999999999999999 items",
            "Is the Kelvin sign \u{212A} lower-cased like K?",
            "İstanbul and the İNDEX of cities",
        ] {
            assert_question_matches(question);
        }
    }
}
