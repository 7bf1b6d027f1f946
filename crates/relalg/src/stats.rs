//! Execution statistics.
//!
//! The paper measures wall-clock time on one specific machine; the
//! *engine-independent* quantities that drive those times are the number of
//! tuples that flow through join stages and the size/arity of materialized
//! intermediates. The executor records both, so every experiment in this
//! repository can report a machine-independent series alongside wall time.

use std::time::Duration;

use ppr_obs::OpProfile;

/// Statistics for a single plan execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples emitted by all join stages (the pipelined flow the paper's
    /// execution time is proportional to).
    pub tuples_flowed: u64,
    /// Rows written into materialized intermediates, before deduplication.
    pub materialized_rows_in: u64,
    /// Rows in materialized intermediates after deduplication.
    pub materialized_rows_out: u64,
    /// Largest materialized intermediate (rows, after dedup).
    pub peak_materialized: u64,
    /// Widest intermediate schema observed anywhere in the plan — the
    /// "working label" size; Theorem 1 bounds its minimum over all plans by
    /// treewidth + 1.
    pub max_intermediate_arity: usize,
    /// Number of `ProjectDistinct` (subquery) materializations.
    pub materializations: u64,
    /// Number of join stages executed.
    pub join_stages: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Threads the executor ran with: always 1 (execution is serial).
    /// Kept because replies, the slow-query log and traces carry it.
    pub threads_used: u64,
    /// Execution CPU time: always equals `elapsed` (execution is serial).
    /// Kept because replies carry it as `cpu_us`.
    pub cpu_time: Duration,
    /// Physical input rows read: base rows streamed by scans, rows hashed
    /// into per-query build tables, base rows read while building a
    /// secondary index, and index postings walked at probe time. Unlike
    /// [`ExecStats::tuples_flowed`] (a plan property, identical across
    /// executors), this measures the *work the chosen executor did* — the
    /// streaming executor's cached indexes make it drop on warm runs.
    pub rows_scanned: u64,
    /// Rows pushed out of pipelines into their sinks (before any
    /// `DISTINCT` de-duplication the sink applies).
    pub rows_emitted: u64,
    /// Secondary-index lookups performed by `IxScan`/`IxJoin` operators.
    pub index_probes: u64,
    /// Secondary indexes built this execution (cache misses; a reused
    /// index cached on the relation's `Arc` snapshot costs nothing).
    pub index_builds: u64,
    /// Per-operator profile tree, filled by the streaming executor when
    /// [`crate::exec::ExecOptions::profile`] is
    /// [`ppr_obs::ProfileMode::On`]; `None` otherwise (the zero-cost
    /// default). Boxed so the disabled case costs one pointer.
    pub op_profile: Option<Box<OpProfile>>,
}

/// Fixed-width summary of an execution — the quantities a trace span or
/// slow-query-log entry carries to explain a request without hauling the
/// full [`ExecStats`] (whose operator profile is unbounded) across a
/// metrics boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecDigest {
    /// Tuples emitted by all join stages.
    pub tuples_flowed: u64,
    /// Largest materialized intermediate (rows, after dedup).
    pub peak_materialized: u64,
    /// Number of join stages executed.
    pub join_stages: u64,
    /// Threads the executor ran with (always 1).
    pub threads_used: u64,
    /// Physical input rows read (see [`ExecStats::rows_scanned`]).
    pub rows_scanned: u64,
    /// Rows pushed into pipeline sinks (see [`ExecStats::rows_emitted`]).
    pub rows_emitted: u64,
    /// Secondary-index lookups performed.
    pub index_probes: u64,
    /// Secondary indexes built (cache misses).
    pub index_builds: u64,
}

impl ExecStats {
    /// The compact [`ExecDigest`] of this execution.
    pub fn digest(&self) -> ExecDigest {
        ExecDigest {
            tuples_flowed: self.tuples_flowed,
            peak_materialized: self.peak_materialized,
            join_stages: self.join_stages,
            threads_used: self.threads_used,
            rows_scanned: self.rows_scanned,
            rows_emitted: self.rows_emitted,
            index_probes: self.index_probes,
            index_builds: self.index_builds,
        }
    }
}
