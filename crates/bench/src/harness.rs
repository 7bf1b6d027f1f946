//! Shared measurement machinery.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ppr_core::methods::{build_plan, Method};
use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::{exec, Budget, ExecStats, RelalgError};

/// How a single run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Finished within budget.
    Ok,
    /// A budget (tuples, materialization, or wall clock) tripped; the run
    /// is reported the way the paper reports timeouts.
    Timeout,
}

/// Outcome of one (method, instance, seed) run.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// The method that ran.
    pub method: Method,
    /// Ok or timeout.
    pub status: RunStatus,
    /// Wall-clock execution time (including plan construction, which is
    /// negligible — the paper likewise folds its rewrite time in and notes
    /// compile time becomes "rather negligible").
    pub millis: f64,
    /// Engine statistics for finished runs.
    pub stats: Option<ExecStats>,
    /// Whether the query result was nonempty (`None` on timeout).
    pub nonempty: Option<bool>,
}

/// Plans and executes `method` on one instance under `budget`; `seed`
/// drives the method's tie-breaking randomness. Runs the streaming
/// executor (push-based, over cached secondary indexes).
pub fn run_method(
    method: Method,
    query: &ConjunctiveQuery,
    db: &Database,
    budget: &Budget,
    seed: u64,
) -> MethodOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let started = Instant::now();
    let plan = build_plan(method, query, db, &mut rng);
    match exec::execute(&plan, budget) {
        Ok((rel, stats)) => MethodOutcome {
            method,
            status: RunStatus::Ok,
            millis: started.elapsed().as_secs_f64() * 1e3,
            nonempty: Some(!rel.is_empty()),
            stats: Some(stats),
        },
        Err(RelalgError::BudgetExceeded { .. }) => MethodOutcome {
            method,
            status: RunStatus::Timeout,
            millis: started.elapsed().as_secs_f64() * 1e3,
            nonempty: None,
            stats: None,
        },
        Err(other) => panic!("unexpected execution error: {other}"),
    }
}

/// Logical CPUs on this host; recorded in benchmark reports so numbers
/// are interpretable on other machines.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Compile-target OS and architecture (e.g. `linux-x86_64`); recorded
/// next to [`host_cpus`] in benchmark reports.
pub fn host_os() -> String {
    format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH)
}

/// Median of a sample (`None` when empty). Timeout runs should be filtered
/// or penalized by the caller before aggregation.
pub fn median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    Some(if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    })
}

/// Aggregates outcomes of one (method, instance-point) cell over seeds:
/// the median time, treating timeouts as the wall-clock budget (a lower
/// bound, as in the paper's timeout plots), plus how many runs timed out.
pub struct CellSummary {
    /// Median milliseconds (timeouts contribute the budget).
    pub median_millis: f64,
    /// Number of timed-out runs.
    pub timeouts: usize,
    /// Number of runs.
    pub runs: usize,
    /// Median tuples flowed over finished runs (engine-independent
    /// proxy).
    pub median_tuples: Option<f64>,
    /// Max intermediate arity over finished runs.
    pub max_arity: Option<usize>,
}

/// Summarizes a cell.
pub fn summarize(outcomes: &[MethodOutcome], budget_timeout: Duration) -> CellSummary {
    let times: Vec<f64> = outcomes
        .iter()
        .map(|o| match o.status {
            RunStatus::Ok => o.millis,
            RunStatus::Timeout => budget_timeout.as_secs_f64() * 1e3,
        })
        .collect();
    let tuples: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.stats.as_ref().map(|s| s.tuples_flowed as f64))
        .collect();
    let max_arity = outcomes
        .iter()
        .filter_map(|o| o.stats.as_ref().map(|s| s.max_intermediate_arity))
        .max();
    CellSummary {
        median_millis: median(times).unwrap_or(f64::NAN),
        timeouts: outcomes
            .iter()
            .filter(|o| o.status == RunStatus::Timeout)
            .count(),
        runs: outcomes.len(),
        median_tuples: median(tuples),
        max_arity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_workload::{InstanceSpec, QueryShape};

    #[test]
    fn median_odd_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(vec![]), None);
    }

    #[test]
    fn run_method_finishes_small_instance() {
        let spec = InstanceSpec {
            shape: QueryShape::Random {
                order: 8,
                density: 2.0,
            },
            seed: 1,
            free_fraction: 0.0,
        };
        let (q, db) = spec.build();
        let out = run_method(Method::Straightforward, &q, &db, &Budget::unlimited(), 1);
        assert_eq!(out.status, RunStatus::Ok);
        assert!(out.nonempty.is_some());
    }

    #[test]
    fn run_method_times_out_under_tiny_budget() {
        let spec = InstanceSpec {
            shape: QueryShape::Random {
                order: 12,
                density: 3.0,
            },
            seed: 2,
            free_fraction: 0.0,
        };
        let (q, db) = spec.build();
        let out = run_method(Method::Straightforward, &q, &db, &Budget::tuples(10), 1);
        assert_eq!(out.status, RunStatus::Timeout);
    }

    #[test]
    fn summarize_counts_timeouts() {
        let ok = MethodOutcome {
            method: Method::Straightforward,
            status: RunStatus::Ok,
            millis: 5.0,
            stats: None,
            nonempty: Some(true),
        };
        let to = MethodOutcome {
            method: Method::Straightforward,
            status: RunStatus::Timeout,
            millis: 100.0,
            stats: None,
            nonempty: None,
        };
        let s = summarize(&[ok, to], Duration::from_millis(1000));
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.runs, 2);
        // Median of [5, 1000].
        assert!((s.median_millis - 502.5).abs() < 1e-9);
    }
}
