//! Query result sets and bag-semantics equivalence.

use crate::value::{KeyValue, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A query result: column display names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Display names, e.g. `count(T2.language)` or `T1.name`.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// An empty result with the given columns.
    pub fn empty(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Multiset ("bag semantics") equivalence, ignoring row order and column
    /// names. This mirrors the Spider evaluation script's execution-accuracy
    /// comparison.
    pub fn bag_eq(&self, other: &ResultSet) -> bool {
        if self.columns.len() != other.columns.len() || self.rows.len() != other.rows.len() {
            return false;
        }
        // Allocation-light row keys: KeyValue equality matches group_key
        // string equality (pinned in value.rs), sorted under its arbitrary
        // total order for multiset comparison.
        let keyed = |rows: &[Vec<Value>]| -> Vec<Vec<KeyValue>> {
            let mut keys: Vec<Vec<KeyValue>> = rows
                .iter()
                .map(|r| r.iter().map(Value::key).collect())
                .collect();
            keys.sort();
            keys
        };
        keyed(&self.rows) == keyed(&other.rows)
    }

    /// An order-independent hash of the bag of rows: equal for any two
    /// results [`ResultSet::bag_eq`] calls equal, so a differing
    /// fingerprint proves two bags differ and only a match needs
    /// `bag_eq` to confirm it. Each row hashes its [`Value::key`]s, and the
    /// rows' hashes are summed, so row order does not matter while
    /// duplicates still do.
    pub fn fingerprint(&self) -> u64 {
        let rows = self.rows.iter().fold(0u64, |sum, row| {
            let mut h = DefaultHasher::new();
            for v in row {
                v.key().hash(&mut h);
            }
            sum.wrapping_add(h.finish())
        });
        let mut h = DefaultHasher::new();
        (self.columns.len(), self.rows.len(), rows).hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            columns: cols.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    #[test]
    fn bag_eq_ignores_row_order() {
        let a = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let b = rs(&["y"], vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        assert!(a.bag_eq(&b));
    }

    #[test]
    fn bag_eq_is_duplicate_sensitive() {
        let a = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(1)]]);
        let b = rs(&["x"], vec![vec![Value::Int(1)]]);
        assert!(!a.bag_eq(&b));
    }

    #[test]
    fn bag_eq_collapses_numeric_representation() {
        let a = rs(&["x"], vec![vec![Value::Int(2)]]);
        let b = rs(&["x"], vec![vec![Value::Float(2.0)]]);
        assert!(a.bag_eq(&b));
    }

    #[test]
    fn bag_eq_checks_arity() {
        let a = rs(&["x"], vec![vec![Value::Int(1)]]);
        let b = rs(&["x", "y"], vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(!a.bag_eq(&b));
    }

    #[test]
    fn nulls_compare_equal_in_bags() {
        let a = rs(&["x"], vec![vec![Value::Null]]);
        let b = rs(&["x"], vec![vec![Value::Null]]);
        assert!(a.bag_eq(&b));
    }

    #[test]
    fn fingerprint_stable_under_reorder() {
        let a = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let b = rs(&["x"], vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_agrees_with_bag_eq() {
        // Equal bags must hash equal: a cache compares fingerprints first
        // and trusts a mismatch without running `bag_eq`.
        let one = |v: Value| rs(&["x"], vec![vec![v]]);
        let equal = [
            (one(Value::Int(1)), one(Value::Float(1.0))),
            (one(Value::Bool(true)), one(Value::Int(1))),
            (one(Value::Float(f64::NAN)), one(Value::Float(-f64::NAN))),
            (one(Value::Null), one(Value::Null)),
            (
                rs(
                    &["a", "b"],
                    vec![vec![Value::Int(2), Value::Str("s".into())]],
                ),
                rs(
                    &["c", "d"],
                    vec![vec![Value::Float(2.0), Value::Str("s".into())]],
                ),
            ),
        ];
        for (a, b) in &equal {
            assert!(a.bag_eq(b), "{a:?} vs {b:?}");
            assert_eq!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
        }
        // `bag_eq` keeps -0.0 and 0.0 apart (their keys differ), and so
        // does the fingerprint.
        let (neg, pos) = (one(Value::Float(-0.0)), one(Value::Float(0.0)));
        assert!(!neg.bag_eq(&pos));
        assert_ne!(neg.fingerprint(), pos.fingerprint());
        let differ = [
            (one(Value::Int(1)), one(Value::Int(2))),
            (one(Value::Int(1)), one(Value::Str("1".into()))),
            (one(Value::Null), one(Value::Str(String::new()))),
            (
                rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(1)]]),
                rs(&["x"], vec![vec![Value::Int(1)]]),
            ),
            (
                rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(1)]]),
                rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]),
            ),
            (rs(&["x", "y"], Vec::new()), rs(&["x"], Vec::new())),
        ];
        for (a, b) in &differ {
            assert!(!a.bag_eq(b), "{a:?} vs {b:?}");
            assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
        }
    }
}
