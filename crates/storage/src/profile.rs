//! EXPLAIN ANALYZE instrumentation for the compiled run loop.
//!
//! A [`PlanProfile`] is the *measured* counterpart of
//! [`crate::plan::QueryPlan`]: the same operator sequence the describer
//! renders, annotated with what actually flowed through each operator on
//! one run — rows in/out, probe and comparison counts, hash-index sizes,
//! prologue subquery timings, and per-operator wall time.
//!
//! Collection sits behind `Prof`, an on/off handle threaded through the
//! executor. Disabled, every instrumentation site is one branch on an enum
//! discriminant — no clocks are read, no strings are built, nothing
//! allocates — so the untraced hot path keeps its compiled-execution cost.
//!
//! The columnar engine accumulates each operator's in/out/cmp/hash
//! counters across morsels and pushes one [`OpProfile`] per operator after
//! the in-order merge, so a profile is invariant to both the batch size
//! and the morsel-pool width ([`crate::run::ExecOpts::threads`]) — only
//! `elapsed_ns` (which overlaps across workers) varies run to run.

use crate::plan::PlanStep;
use std::fmt::Write as _;
use std::time::Instant;

/// Measured statistics for one operator of a run.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// The operator, in the same shape [`crate::plan::describe_plan`] uses.
    pub step: PlanStep,
    /// Rows entering the operator (left-side working set for joins).
    pub rows_in: usize,
    /// Rows leaving the operator.
    pub rows_out: usize,
    /// Predicate evaluations / hash probes performed.
    pub comparisons: usize,
    /// Rows indexed by a hash join's build side (0 elsewhere).
    pub hash_entries: usize,
    /// Wall time spent in the operator, nanoseconds.
    pub elapsed_ns: u64,
}

/// Measured statistics for one prologue subquery (executed exactly once
/// per run, before the operator pipeline).
#[derive(Debug, Clone)]
pub struct SubProfile {
    /// Position in the prologue (execution order).
    pub index: usize,
    /// How the result is consumed: `"in-set"`, `"exists"`, `"scalar"`,
    /// or `"cte"` (a materialized `WITH` body).
    pub kind: &'static str,
    /// Rows the subquery produced.
    pub rows: usize,
    /// Wall time, nanoseconds.
    pub elapsed_ns: u64,
}

/// The measured plan for one run: operators in execution order (matching
/// [`crate::plan::describe_plan`]'s step order), prologue timings, and
/// run totals.
#[derive(Debug, Clone, Default)]
pub struct PlanProfile {
    /// Per-operator measurements, in plan order.
    pub ops: Vec<OpProfile>,
    /// Prologue subquery measurements, in execution order.
    pub prologue: Vec<SubProfile>,
    /// Wall time for the whole run, nanoseconds.
    pub total_ns: u64,
    /// Rows in the final result.
    pub rows_out: usize,
}

impl PlanProfile {
    /// Renders the profile as an EXPLAIN ANALYZE text block, one operator
    /// per line. With `with_timing` false, wall-clock fields are omitted —
    /// the rendering is then deterministic for a given database and query,
    /// which is what golden tests pin.
    pub fn render(&self, with_timing: bool) -> String {
        let mut out = String::new();
        for sub in &self.prologue {
            let _ = write!(
                out,
                "PROLOGUE SUBQUERY {} [{}] -> {} rows",
                sub.index, sub.kind, sub.rows
            );
            if with_timing {
                let _ = write!(out, " ({})", fmt_ns(sub.elapsed_ns));
            }
            out.push('\n');
        }
        for op in &self.ops {
            let head = match &op.step {
                PlanStep::Scan { table, rows } => format!("SCAN {table} ({rows} rows)"),
                PlanStep::HashJoin { table, rows, on } => {
                    format!("HASH JOIN {table} ({rows} rows) ON {on}")
                }
                PlanStep::NestedLoopJoin { table, rows, on } => match on {
                    Some(on) => format!("NESTED LOOP JOIN {table} ({rows} rows) ON {on}"),
                    None => format!("NESTED LOOP JOIN {table} ({rows} rows) [cross]"),
                },
                PlanStep::Filter { predicate } => format!("FILTER {predicate}"),
                PlanStep::Aggregate { group_keys, having } => format!(
                    "AGGREGATE ({} group key(s){})",
                    group_keys,
                    if *having { ", HAVING" } else { "" }
                ),
                PlanStep::Distinct => "DISTINCT".to_string(),
                PlanStep::Sort { keys } => format!("SORT ({keys} key(s))"),
                PlanStep::Limit { n } => format!("LIMIT {n}"),
                PlanStep::SetOp { op } => format!("SET {op}"),
            };
            let _ = write!(out, "{head} | in={} out={}", op.rows_in, op.rows_out);
            if op.comparisons > 0 {
                let _ = write!(out, " cmp={}", op.comparisons);
            }
            if op.hash_entries > 0 {
                let _ = write!(out, " hash={}", op.hash_entries);
            }
            if with_timing {
                let _ = write!(out, " ({})", fmt_ns(op.elapsed_ns));
            }
            out.push('\n');
        }
        let _ = write!(out, "RESULT {} rows", self.rows_out);
        if with_timing {
            let _ = write!(out, " ({} total)", fmt_ns(self.total_ns));
        }
        out.push('\n');
        out
    }

    /// Sum of per-operator wall time (excludes the prologue and the
    /// framework glue around the operators; always `<= total_ns`).
    pub fn ops_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.elapsed_ns).sum()
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}µs", ns as f64 / 1e3)
    }
}

/// The on/off profiling handle the run loop threads through itself.
/// [`Prof::Off`] makes every instrumentation site a discriminant check.
pub(crate) enum Prof {
    /// Collect nothing (the default for every ordinary run).
    Off,
    /// Accumulate into the boxed profile.
    On(Box<PlanProfile>),
}

impl Prof {
    /// Whether profiling is on (sites that must *reserve* an operator slot
    /// before measuring check this to skip label construction when off).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        matches!(self, Prof::On(_))
    }

    /// Reads the clock only when profiling is on; the `Some` flows into
    /// [`Prof::push_op`]-guarding `if let`s so disabled sites build no
    /// step labels either.
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        match self {
            Prof::Off => None,
            Prof::On(_) => Some(Instant::now()),
        }
    }

    /// Appends a finished operator; returns its index for later patching
    /// (the set-op marker is reserved before its right branch runs).
    pub(crate) fn push_op(&mut self, op: OpProfile) -> usize {
        match self {
            Prof::Off => 0,
            Prof::On(p) => {
                p.ops.push(op);
                p.ops.len() - 1
            }
        }
    }

    /// Overwrites a previously reserved operator slot.
    pub(crate) fn patch_op(&mut self, index: usize, op: OpProfile) {
        if let Prof::On(p) = self {
            p.ops[index] = op;
        }
    }

    /// Appends a prologue subquery measurement.
    pub(crate) fn push_sub(&mut self, sub: SubProfile) {
        if let Prof::On(p) = self {
            sub_push(p, sub);
        }
    }
}

fn sub_push(p: &mut PlanProfile, mut sub: SubProfile) {
    sub.index = p.prologue.len();
    p.prologue.push(sub);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_without_timing_is_deterministic_text() {
        let profile = PlanProfile {
            ops: vec![
                OpProfile {
                    step: PlanStep::Scan {
                        table: "a".into(),
                        rows: 3,
                    },
                    rows_in: 3,
                    rows_out: 3,
                    comparisons: 0,
                    hash_entries: 0,
                    elapsed_ns: 123,
                },
                OpProfile {
                    step: PlanStep::Filter {
                        predicate: "x > 1".into(),
                    },
                    rows_in: 3,
                    rows_out: 2,
                    comparisons: 3,
                    hash_entries: 0,
                    elapsed_ns: 456,
                },
            ],
            prologue: vec![SubProfile {
                index: 0,
                kind: "in-set",
                rows: 4,
                elapsed_ns: 789,
            }],
            total_ns: 1_000,
            rows_out: 2,
        };
        let text = profile.render(false);
        assert_eq!(
            text,
            "PROLOGUE SUBQUERY 0 [in-set] -> 4 rows\n\
             SCAN a (3 rows) | in=3 out=3\n\
             FILTER x > 1 | in=3 out=2 cmp=3\n\
             RESULT 2 rows\n"
        );
        let timed = profile.render(true);
        assert!(timed.contains("µs"), "{timed}");
        assert_eq!(profile.ops_ns(), 579);
    }

    #[test]
    fn off_prof_reads_no_clock_and_keeps_nothing() {
        let mut prof = Prof::Off;
        assert!(prof.start().is_none());
        prof.push_sub(SubProfile {
            index: 0,
            kind: "scalar",
            rows: 1,
            elapsed_ns: 1,
        });
        let idx = prof.push_op(OpProfile {
            step: PlanStep::Distinct,
            rows_in: 0,
            rows_out: 0,
            comparisons: 0,
            hash_entries: 0,
            elapsed_ns: 0,
        });
        assert_eq!(idx, 0);
        assert!(matches!(prof, Prof::Off));
    }
}
