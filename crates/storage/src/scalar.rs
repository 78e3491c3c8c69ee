//! Scalar and aggregate kernels shared by the compiled engine and the
//! reference interpreter.
//!
//! Both execution paths call into these functions for binary operators,
//! aggregate folding, and ORDER BY sorting, so arithmetic semantics (and
//! fixes to them) cannot diverge between the paths the differential tests
//! compare.

use crate::value::Value;
use cyclesql_sql::{AggFunc, BinOp, SortOrder};

/// Evaluates a binary operator over two already-evaluated operands.
///
/// Comparison and logic follow SQL three-valued semantics. Arithmetic over
/// two `Int` operands stays in `i64` (checked; a result that overflows
/// falls back to the float path), because routing integer Add/Sub/Mul
/// through `f64` silently rounds results beyond 2^53. Integer division
/// truncates toward zero (SQLite semantics) and division by zero is NULL.
/// The function is total: operands it cannot combine yield NULL, never an
/// error.
pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Value {
    match op {
        BinOp::And => {
            // 3-valued AND.
            match (l.is_null(), r.is_null()) {
                (false, false) => Value::Bool(l.is_truthy() && r.is_truthy()),
                _ => {
                    if (!l.is_null() && !l.is_truthy()) || (!r.is_null() && !r.is_truthy()) {
                        Value::Bool(false)
                    } else {
                        Value::Null
                    }
                }
            }
        }
        BinOp::Or => match (l.is_null(), r.is_null()) {
            (false, false) => Value::Bool(l.is_truthy() || r.is_truthy()),
            _ => {
                if (!l.is_null() && l.is_truthy()) || (!r.is_null() && r.is_truthy()) {
                    Value::Bool(true)
                } else {
                    Value::Null
                }
            }
        },
        BinOp::Eq => l.sql_eq(r).map(Value::Bool).unwrap_or(Value::Null),
        BinOp::NotEq => l.sql_eq(r).map(|b| Value::Bool(!b)).unwrap_or(Value::Null),
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => match l.sql_cmp(r) {
            None => Value::Null,
            Some(ord) => Value::Bool(match op {
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::LtEq => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                BinOp::GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if l.is_null() || r.is_null() {
                return Value::Null;
            }
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                let exact = match op {
                    BinOp::Add => a.checked_add(*b),
                    BinOp::Sub => a.checked_sub(*b),
                    BinOp::Mul => a.checked_mul(*b),
                    BinOp::Div => {
                        if *b == 0 {
                            return Value::Null;
                        }
                        a.checked_div(*b)
                    }
                    _ => unreachable!(),
                };
                if let Some(n) = exact {
                    return Value::Int(n);
                }
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Value::Null,
            };
            let result = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Value::Null;
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            let ints = matches!(l, Value::Int(_)) && matches!(r, Value::Int(_));
            if ints && result.fract() == 0.0 && op != BinOp::Div {
                Value::Int(result as i64)
            } else if ints && op == BinOp::Div {
                // SQLite integer division truncates.
                Value::Int(result.trunc() as i64)
            } else {
                Value::Float(result)
            }
        }
    }
}

/// Folds the collected (non-NULL, DISTINCT-deduplicated) argument values of
/// an aggregate. `COUNT(*)` never reaches here — callers answer it from the
/// group size directly.
///
/// SUM over pure `Int`/`Bool` inputs accumulates in `i64` (checked), so
/// integer sums stay exact past 2^53; it promotes to `Float` only on mixed
/// input or `i64` overflow.
pub(crate) fn fold_agg(func: AggFunc, values: &[Value]) -> Value {
    match func {
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Sum => {
            if values.is_empty() {
                Value::Null
            } else if values
                .iter()
                .all(|v| matches!(v, Value::Int(_) | Value::Bool(_)))
            {
                let mut acc: i64 = 0;
                let mut overflow = false;
                for v in values {
                    let n = match v {
                        Value::Int(n) => *n,
                        Value::Bool(b) => *b as i64,
                        _ => unreachable!("checked above"),
                    };
                    match acc.checked_add(n) {
                        Some(a) => acc = a,
                        None => {
                            overflow = true;
                            break;
                        }
                    }
                }
                if overflow {
                    Value::Float(values.iter().filter_map(Value::as_f64).sum())
                } else {
                    Value::Int(acc)
                }
            } else {
                Value::Float(values.iter().filter_map(Value::as_f64).sum())
            }
        }
        AggFunc::Avg => {
            if values.is_empty() {
                Value::Null
            } else {
                let s: f64 = values.iter().filter_map(Value::as_f64).sum();
                Value::Float(s / values.len() as f64)
            }
        }
        AggFunc::Min => values
            .iter()
            .cloned()
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null),
        AggFunc::Max => values
            .iter()
            .cloned()
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null),
    }
}

/// In-place DISTINCT over aggregate argument values, keyed like GROUP BY.
pub(crate) fn dedup_distinct(values: &mut Vec<Value>) {
    let mut seen = std::collections::HashSet::new();
    values.retain(|v| seen.insert(v.key()));
}

/// Stable sort of output rows by their precomputed ORDER BY keys.
pub(crate) fn sort_by_order_keys<T>(
    rows: &mut [T],
    dirs: &[SortOrder],
    keys: impl Fn(&T) -> &[Value],
) {
    rows.sort_by(|a, b| {
        let (ka, kb) = (keys(a), keys(b));
        for (i, dir) in dirs.iter().enumerate() {
            let ord = ka[i].total_cmp(&kb[i]);
            let ord = match dir {
                SortOrder::Asc => ord,
                SortOrder::Desc => ord.reverse(),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic_is_exact_beyond_f64_precision() {
        // 2^53 is the last integer f64 represents exactly; the old f64
        // round-trip lost the +1 below.
        let big = (1i64 << 53) + 1;
        assert_eq!(
            eval_binary(BinOp::Add, &Value::Int(big), &Value::Int(0)),
            Value::Int(big)
        );
        assert_eq!(
            eval_binary(BinOp::Add, &Value::Int(1i64 << 53), &Value::Int(1)),
            Value::Int(big)
        );
        assert_eq!(
            eval_binary(BinOp::Sub, &Value::Int(big), &Value::Int(1)),
            Value::Int(1i64 << 53)
        );
        assert_eq!(
            eval_binary(BinOp::Mul, &Value::Int(big), &Value::Int(1)),
            Value::Int(big)
        );
        // Strict equality on the representation, not sql_eq collapse.
        let v = eval_binary(BinOp::Add, &Value::Int(big), &Value::Int(0));
        assert!(matches!(v, Value::Int(n) if n == big));
    }

    #[test]
    fn int_division_truncates_and_zero_is_null() {
        assert_eq!(
            eval_binary(BinOp::Div, &Value::Int(7), &Value::Int(2)),
            Value::Int(3)
        );
        assert_eq!(
            eval_binary(BinOp::Div, &Value::Int(-7), &Value::Int(2)),
            Value::Int(-3)
        );
        assert!(eval_binary(BinOp::Div, &Value::Int(7), &Value::Int(0)).is_null());
    }

    #[test]
    fn mixed_arithmetic_still_floats() {
        assert!(matches!(
            eval_binary(BinOp::Add, &Value::Int(1), &Value::Float(0.5)),
            Value::Float(_)
        ));
        assert!(matches!(
            eval_binary(BinOp::Add, &Value::Str("2".into()), &Value::Int(1)),
            Value::Float(_)
        ));
    }

    #[test]
    fn int_overflow_falls_back_to_float() {
        let v = eval_binary(BinOp::Add, &Value::Int(i64::MAX), &Value::Int(1));
        assert!(matches!(v, Value::Int(_) | Value::Float(_)));
        // The fallback must not panic and must stay on the numeric rail.
        assert!(v.as_f64().is_some());
    }

    #[test]
    fn sum_accumulates_in_i64() {
        let big = (1i64 << 53) + 1;
        let vals = vec![Value::Int(1i64 << 53), Value::Int(1)];
        assert!(matches!(fold_agg(AggFunc::Sum, &vals), Value::Int(n) if n == big));
        // Bools count as 0/1 integers.
        let vals = vec![Value::Int(big), Value::Bool(true)];
        assert!(matches!(fold_agg(AggFunc::Sum, &vals), Value::Int(n) if n == big + 1));
        // Mixed input promotes to float, as before.
        let vals = vec![Value::Int(1), Value::Float(0.5)];
        assert!(matches!(fold_agg(AggFunc::Sum, &vals), Value::Float(x) if x == 1.5));
        // Overflow promotes to float instead of wrapping.
        let vals = vec![Value::Int(i64::MAX), Value::Int(i64::MAX)];
        assert!(matches!(fold_agg(AggFunc::Sum, &vals), Value::Float(_)));
        // Empty SUM stays NULL.
        assert!(fold_agg(AggFunc::Sum, &[]).is_null());
    }
}
