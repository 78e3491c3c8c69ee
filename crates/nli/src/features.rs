//! Feature extraction for the NLI verifier.
//!
//! The premise is an explanation (its text, structured facets, quoted result
//! and SQL — exactly what the paper concatenates with `|` separators); the
//! hypothesis is the original NL question. Features measure semantic
//! coherence along the axes the explanations encode: aggregate intent,
//! comparison operators, value grounding, negation, grouping, ordering,
//! limits, set operations, and schema-term overlap.
//!
//! Everything here reads only premise-visible content — the verifier never
//! peeks at gold SQL or the gold result.
//!
//! The hypothesis is the same for every candidate of a request, so its side
//! of the work — lower-casing, keyword intent, numbers, content tokens,
//! entity mentions — is done once by [`Hypothesis::new`];
//! [`Hypothesis::features`] then does only the premise's side per candidate.

use cyclesql_explain::ExplanationFacets;
use cyclesql_sql::{AggFunc, BinOp, SetOp, SortOrder};

/// Number of features produced by [`Hypothesis::features`].
pub const FEATURE_DIM: usize = 30;

/// Intent signals mined from the NL question (the hypothesis).
#[derive(Debug, Clone, Default)]
pub struct QuestionIntent {
    /// Wants a count ("how many", "number of").
    pub count: bool,
    /// Wants a sum ("total X" where X isn't "number").
    pub sum: bool,
    /// Wants an average.
    pub avg: bool,
    /// Wants a minimum.
    pub min: bool,
    /// Wants a maximum.
    pub max: bool,
    /// Superlative / top-k phrasing.
    pub superlative: bool,
    /// Direction of the superlative (`true` = descending / "highest").
    pub superlative_desc: bool,
    /// Contains negation ("not", "no", "without", "excluding").
    pub negation: bool,
    /// "both … and …" phrasing (intersection).
    pub both: bool,
    /// "excluding" / "except" phrasing (difference).
    pub except: bool,
    /// "for each" phrasing (grouping).
    pub per_group: bool,
    /// "at least" phrasing.
    pub at_least: bool,
    /// Comparison words → operators.
    pub gt: bool,
    /// "less than"-family words.
    pub lt: bool,
    /// "between" phrasing.
    pub between: bool,
    /// "different"/"distinct"/"unique" phrasing.
    pub distinct: bool,
    /// Outer-join retention phrasing ("including X without any",
    /// "unmatched rows").
    pub retention: bool,
    /// Classification phrasing ("whether … is high or low", "label").
    pub classify: bool,
    /// Numbers mentioned in the question.
    pub numbers: Vec<String>,
    /// Top-k number if present ("top 3").
    pub top_k: Option<u64>,
    /// Content tokens (lower-cased words minus stopwords), sorted and
    /// distinct.
    pub tokens: Vec<String>,
}

/// Declares the whole-word keywords the intent reads: one [`Kw`] variant
/// and one bit each, and [`keyword_bit`] mapping a word to its bit.
macro_rules! keywords {
    ($($kw:ident = $word:literal,)*) => {
        /// A keyword the intent matches as a whole word.
        #[derive(Clone, Copy)]
        enum Kw {
            $($kw,)*
        }

        const _: () = assert!([$(Kw::$kw),*].len() <= 64, "keywords must fit a u64");

        /// The bit of `word` if it is a keyword, else 0.
        fn keyword_bit(word: &str) -> u64 {
            match word {
                $($word => 1 << Kw::$kw as u32,)*
                _ => 0,
            }
        }
    };
}

keywords! {
    Count = "count", Total = "total", Combined = "combined", Average = "average", Mean = "mean",
    Minimum = "minimum", Lowest = "lowest", Smallest = "smallest", Youngest = "youngest",
    Fewest = "fewest", Shortest = "shortest", Cheapest = "cheapest", Maximum = "maximum",
    Highest = "highest", Largest = "largest", Oldest = "oldest", Most = "most", Longest = "longest",
    Biggest = "biggest", Top = "top", Best = "best", Worst = "worst", Not = "not", No = "no",
    Without = "without", Excluding = "excluding", Except = "except", Never = "never",
    Dont = "don't", Doesnt = "doesn't", Both = "both", Per = "per", Each = "each", Above = "above",
    Over = "over", Exceeding = "exceeding", Exceeds = "exceeds", Below = "below", Under = "under",
    Between = "between", Different = "different", Distinct = "distinct", Unique = "unique",
    Unmatched = "unmatched", Including = "including", Whether = "whether", Classify = "classify",
    Classified = "classified", Categorize = "categorize", Categorized = "categorized",
    Label = "label", Labeled = "labeled", High = "high", Low = "low",
}

/// Mines intent signals from an NL question.
pub fn question_intent(question: &str) -> QuestionIntent {
    intent_of_lower(&question.to_lowercase())
}

/// [`question_intent`] of an already lower-cased question: one pass ORs
/// the keyword bits of its words, a second collects numbers and tokens.
fn intent_of_lower(q: &str) -> QuestionIntent {
    use Kw::*;
    // Word-boundary matching: `count` must not fire on "country".
    let words = q
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '\'')
        .fold(0u64, |bits, w| bits | keyword_bit(w));
    let any = |kws: &[Kw]| kws.iter().any(|&k| words & (1 << k as u32) != 0);
    let phrase = |s: &str| q.contains(s);

    let at_least = phrase("at least") || phrase("or more") || phrase("no fewer");
    let mut intent = QuestionIntent {
        count: phrase("how many") || phrase("number of") || any(&[Count]),
        sum: (any(&[Total]) && !phrase("total number")) || phrase("sum of") || any(&[Combined]),
        avg: any(&[Average, Mean]),
        min: any(&[
            Minimum, Lowest, Smallest, Youngest, Fewest, Shortest, Cheapest,
        ]),
        max: any(&[
            Maximum, Highest, Largest, Oldest, Most, Longest, Biggest, Top,
        ]),
        superlative: any(&[
            Highest, Lowest, Most, Fewest, Top, Largest, Smallest, Oldest, Youngest, Best, Worst,
            Maximum, Minimum,
        ]),
        superlative_desc: any(&[Highest, Most, Largest, Top, Oldest, Biggest, Best, Maximum]),
        negation: any(&[Not, No, Without, Excluding, Except, Never, Dont, Doesnt]),
        both: any(&[Both]) || phrase("and also") || phrase("as well as"),
        except: any(&[Excluding, Except]) || phrase("other than"),
        per_group: phrase("for each") || any(&[Per, Each]),
        at_least,
        gt: phrase("greater than")
            || phrase("more than")
            || any(&[Above, Over, Exceeding, Exceeds])
            || at_least,
        lt: phrase("less than")
            || any(&[Below, Under])
            || phrase("at most")
            || phrase("fewer than"),
        between: any(&[Between]),
        distinct: any(&[Different, Distinct, Unique]),
        retention: phrase("without any")
            || any(&[Unmatched])
            || phrase("even when")
            || phrase("even if")
            || (any(&[Including]) && any(&[Without])),
        classify: any(&[Whether, Classify, Classified, Categorize, Categorized])
            || any(&[Label, Labeled])
            || (any(&[High]) && any(&[Low])),
        ..QuestionIntent::default()
    };

    for token in q.split(|c: char| !c.is_ascii_alphanumeric() && c != '.') {
        if token.is_empty() {
            continue;
        }
        if token.starts_with(|c: char| c.is_ascii_digit()) {
            intent.numbers.push(token.trim_end_matches('.').to_string());
        } else if !is_stopword(token) && token.len() > 2 {
            intent.tokens.push(token.to_string());
        }
    }
    intent.tokens.sort_unstable();
    intent.tokens.dedup();
    if let Some(pos) = q.find("top ") {
        let rest = &q[pos + 4..];
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        intent.top_k = rest[..digits].parse().ok();
    }
    intent
}

fn is_stopword(word: &str) -> bool {
    matches!(
        word,
        "the"
            | "of"
            | "is"
            | "are"
            | "a"
            | "an"
            | "what"
            | "which"
            | "who"
            | "that"
            | "have"
            | "has"
            | "with"
            | "for"
            | "all"
            | "and"
            | "or"
            | "in"
            | "to"
            | "do"
            | "does"
            | "there"
            | "list"
            | "show"
            | "give"
            | "find"
            | "return"
            | "me"
            | "please"
            | "whose"
            | "how"
            | "many"
            | "much"
            | "values"
            | "value"
            | "was"
            | "were"
            | "their"
            | "they"
            | "its"
            | "than"
            | "linked"
            | "associated"
    )
}

/// Proper-noun entity mentions in a question: maximal runs of capitalized
/// words that are not sentence-initial (e.g. "Airbus A340-300", "Aruba"),
/// lower-cased for containment checks. A word counts by its ASCII
/// alphanumerics and hyphens alone.
pub fn question_entities(question: &str) -> Vec<String> {
    let mut entities = Vec::new();
    let mut run = String::new();
    for (i, w) in question.split_whitespace().enumerate() {
        let mut kept = w.chars().filter(|c| c.is_ascii_alphanumeric() || *c == '-');
        match kept.next() {
            Some(first) if first.is_ascii_uppercase() && i > 0 => {
                if !run.is_empty() {
                    run.push(' ');
                }
                run.push(first.to_ascii_lowercase());
                run.extend(kept.map(|c| c.to_ascii_lowercase()));
            }
            _ if !run.is_empty() => entities.push(std::mem::take(&mut run)),
            _ => {}
        }
    }
    if !run.is_empty() {
        entities.push(run);
    }
    entities
}

/// `items` sorted, each once.
fn distinct<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort_unstable();
    items.dedup();
    items
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
/// text; `question` the hypothesis. To check many premises against one
/// question, build its [`Hypothesis`] once instead.
pub fn extract_features(
    question: &str,
    premise_text: &str,
    facets: &ExplanationFacets,
) -> Vec<f64> {
    Hypothesis::new(question).features(premise_text, facets)
}

/// The hypothesis side of feature extraction: everything the features read
/// from the question, mined once. A loop that checks several candidates'
/// premises against one question prepares it once and calls
/// [`Hypothesis::features`] per premise.
#[derive(Debug, Clone)]
pub struct Hypothesis {
    /// The lower-cased question.
    lower: String,
    intent: QuestionIntent,
    entities: Vec<String>,
}

impl Hypothesis {
    /// Mines `question`'s intent and entity mentions.
    pub fn new(question: &str) -> Self {
        let lower = question.to_lowercase();
        Hypothesis {
            intent: intent_of_lower(&lower),
            entities: question_entities(question),
            lower,
        }
    }

    /// The question's intent signals.
    pub fn intent(&self) -> &QuestionIntent {
        &self.intent
    }

    /// The feature vector for a premise — `premise_text` its free text,
    /// `facets` its structured digest — against this hypothesis.
    pub fn features(&self, premise_text: &str, facets: &ExplanationFacets) -> Vec<f64> {
        let intent = &self.intent;
        let q_lower = self.lower.as_str();
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
        let ops = || facets.comparisons.iter().map(|(_, op, _)| *op);
        let has_gt = ops().any(|o| matches!(o, BinOp::Gt | BinOp::GtEq))
            || facets
                .having
                .iter()
                .any(|(_, o, _)| matches!(o, BinOp::Gt | BinOp::GtEq));
        let has_lt = ops().any(|o| matches!(o, BinOp::Lt | BinOp::LtEq));
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
        let premise_values = distinct(
            facets
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
                .collect(),
        );
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
        let limit = facets.limit.map(|n| n.to_string());
        let premise_numbers: Vec<&str> = facets
            .comparisons
            .iter()
            .map(|(_, _, v)| v.as_str())
            .chain(facets.having.iter().map(|(_, _, v)| v.as_str()))
            .chain(limit.as_deref())
            .filter(|v| v.starts_with(|c: char| c.is_ascii_digit()))
            .collect();
        if intent.numbers.is_empty() && premise_numbers.is_empty() {
            f.push(0.0);
        } else if intent.numbers.is_empty() || premise_numbers.is_empty() {
            f.push(-0.5);
        } else {
            let hits = intent
                .numbers
                .iter()
                .filter(|n| premise_numbers.contains(&n.as_str()))
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
            !facets.having.is_empty() || ops().any(|o| o == BinOp::GtEq),
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
        let mentions: Vec<String> = facets
            .projected_columns
            .iter()
            .chain(&facets.group_keys)
            .chain(&facets.join_tables)
            .chain(facets.comparisons.iter().map(|(c, _, _)| c))
            .map(|t| t.to_lowercase())
            .collect();
        let premise_tokens = distinct(
            mentions
                .iter()
                .flat_map(|t| t.split(|c: char| !c.is_ascii_alphanumeric()))
                .filter(|w| w.len() > 2 && !is_stopword(w))
                .collect(),
        );
        if premise_tokens.is_empty() || intent.tokens.is_empty() {
            f.push(0.0);
        } else {
            let hits = premise_tokens
                .iter()
                .filter(|t| {
                    intent
                        .tokens
                        .binary_search_by(|x| x.as_str().cmp(t))
                        .is_ok()
                })
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
        let entities = &self.entities;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_facets() -> ExplanationFacets {
        ExplanationFacets {
            num_columns: 1,
            num_rows: 1,
            ..Default::default()
        }
    }

    #[test]
    fn dimension_is_stable() {
        let f = extract_features("How many flights?", "text", &base_facets());
        assert_eq!(f.len(), FEATURE_DIM);
    }

    #[test]
    fn count_agreement_positive() {
        let mut facets = base_facets();
        facets.agg_funcs.push((AggFunc::Count, None));
        let f = extract_features("How many flights are there?", "there are 4", &facets);
        assert_eq!(f[0], 1.0);
    }

    #[test]
    fn count_mismatch_negative() {
        let facets = base_facets(); // no aggregates
        let f = extract_features(
            "How many flights are there?",
            "the flight number is 7",
            &facets,
        );
        assert_eq!(f[0], -1.0);
        assert_eq!(f[6], -1.0, "aggregate wanted but plain projection");
    }

    #[test]
    fn figure2_wrong_count_detected() {
        // Question lists flight numbers; premise conveys a count.
        let mut facets = base_facets();
        facets.agg_funcs.push((AggFunc::Count, None));
        let f = extract_features(
            "What are all flight numbers with aircraft Airbus A340-300?",
            "there are 2 flights in total",
            &facets,
        );
        assert_eq!(f[5], -1.0, "plain retrieval wanted but aggregate produced");
    }

    #[test]
    fn value_grounding_rewards_quoted_values() {
        let mut facets = base_facets();
        facets
            .comparisons
            .push(("name".into(), BinOp::Eq, "Aruba".into()));
        let f = extract_features(
            "What is the total number of languages used in Aruba?",
            "filtered by name equal to Aruba",
            &facets,
        );
        assert_eq!(f[10], 1.0);
        let f2 = extract_features(
            "What is the total number of languages used in France?",
            "filtered by name equal to Aruba",
            &facets,
        );
        assert_eq!(f2[10], -1.0);
    }

    #[test]
    fn number_agreement_detects_changed_threshold() {
        let mut facets = base_facets();
        facets
            .comparisons
            .push(("population".into(), BinOp::GtEq, "8000".into()));
        let good = extract_features("population equal to 8000", "p", &facets);
        let bad = extract_features("population equal to 80000", "p", &facets);
        assert!(good[11] > bad[11]);
    }

    #[test]
    fn superlative_direction_feature() {
        let mut facets = base_facets();
        facets.order = Some(("age".into(), SortOrder::Desc, None));
        facets.limit = Some(1);
        let hi = extract_features("Who is the oldest singer?", "sorted descending", &facets);
        assert_eq!(hi[16], 1.0);
        let lo = extract_features("Who is the youngest singer?", "sorted descending", &facets);
        assert_eq!(lo[16], -1.0);
    }

    #[test]
    fn intersect_agreement() {
        let mut facets = base_facets();
        facets.set_op = Some(SetOp::Intersect);
        let f = extract_features(
            "Which countries speak both English and French?",
            "keeping only rows satisfying both conditions",
            &facets,
        );
        assert_eq!(f[18], 1.0);
    }

    #[test]
    fn empty_result_penalized_for_retrieval_questions() {
        let mut facets = base_facets();
        facets.empty_result = true;
        facets.num_rows = 0;
        let f = extract_features("List the names of all singers.", "no rows", &facets);
        assert_eq!(f[21], -1.0);
    }

    #[test]
    fn negation_agreement() {
        let mut facets = base_facets();
        facets.negations = 1;
        let f = extract_features(
            "Which students have no pets?",
            "excludes entries where pet type equal to dog",
            &facets,
        );
        assert_eq!(f[12], 1.0);
    }

    #[test]
    fn intent_parses_top_k() {
        let i = question_intent("Show the top 3 products by price.");
        assert_eq!(i.top_k, Some(3));
        assert!(i.superlative);
    }

    #[test]
    fn intent_matches_whole_words_and_contractions() {
        assert!(!question_intent("Which country has the most cities?").count);
        assert!(question_intent("What is the count of cities?").count);
        assert!(question_intent("Which students don't have pets?").negation);
        assert!(question_intent("Which singer doesn't sing?").negation);
        assert!(!question_intent("Which singers sing?").negation);
    }

    #[test]
    fn intent_parses_numbers_and_top_k() {
        let i = question_intent("Cities with population above 5. Show the top 12.");
        assert_eq!(i.numbers, ["5", "12"]);
        assert_eq!(i.top_k, Some(12));
        assert_eq!(question_intent("the top ten").top_k, None);
        assert_eq!(question_intent("top 99999999999999999999999").top_k, None);
    }

    #[test]
    fn intent_tokens_are_sorted_and_distinct() {
        let i = question_intent("Singers and singers of the concert, by concert name");
        assert_eq!(i.tokens, ["concert", "name", "singers"]);
    }

    #[test]
    fn entities_are_capitalized_runs_after_the_first_word() {
        assert_eq!(
            question_entities("Which flights use Airbus A340-300 from Los Angeles to Aruba?"),
            ["airbus a340-300", "los angeles", "aruba"]
        );
        assert!(question_entities("Aruba").is_empty());
    }

    #[test]
    fn one_hypothesis_serves_many_premises() {
        let q = "How many flights go to Tokyo?";
        let hyp = Hypothesis::new(q);
        let mut facets = base_facets();
        for premise in ["there are 4 flights", "the flight number is 7 for Tokyo"] {
            assert_eq!(
                hyp.features(premise, &facets),
                extract_features(q, premise, &facets)
            );
            facets.agg_funcs.push((AggFunc::Count, None));
        }
    }

    #[test]
    fn intent_total_number_is_count_not_sum() {
        let i = question_intent("What is the total number of languages?");
        assert!(i.count);
        assert!(!i.sum);
    }
}
