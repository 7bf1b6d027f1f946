//! Plan execution.
//!
//! [`execute`] is the single entry point; [`ExecOptions::mode`] selects one
//! of three executors that produce the same answers:
//!
//! * [`ExecMode::Streaming`] (the default) — the push-based streaming
//!   executor in [`crate::pipelined`], and the one production executor:
//!   the server, `Eval`, the figures and the benches all run it. Scans
//!   stream straight off the base relations and equality joins probe
//!   per-column secondary indexes ([`crate::index`]) cached on the shared
//!   `Arc` snapshot, so repeated queries skip the per-query bind copies
//!   and hash builds entirely.
//! * [`ExecMode::Pipelined`] — the classic hash-join pipeline that stands
//!   in for the PostgreSQL backend of the paper's experiments: hash tables
//!   are built on every input except the first, and tuples stream
//!   depth-first through the probe stages without being materialized.
//!   Kept as a differential-testing oracle for the streaming executor
//!   (`tests/streaming.rs` asserts byte identity).
//! * [`ExecMode::Materialized`] — an ablation executor that materializes
//!   every join via [`crate::ops::natural_join`]; the `ablation_pipeline`
//!   bench compares it against the pipelines.
//!
//! In every mode a [`Plan::ProjectDistinct`] node (a `SELECT DISTINCT`
//! subquery in the paper's SQL) materializes and de-duplicates its input
//! before the enclosing pipeline consumes it — the only materialization
//! boundary the two pipelined modes have.
//!
//! Execution time is therefore proportional to the number of tuples that
//! flow through probe stages plus the cost of each materialization — the
//! same quantities that drove the paper's measurements.

use crate::budget::{Budget, Meter};
use crate::error::RelalgError;
use crate::key::{KeyedMap, KeyedSet};
use crate::ops;
use crate::plan::Plan;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::stats::ExecStats;
use crate::value::{Tuple, Value};
use crate::Result;

/// Which executor variant [`execute_with`] runs. All three return the
/// same rows; the two pipelined modes are byte-identical (same row order,
/// same `tuples_flowed`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Push-based streaming executor over cached secondary indexes
    /// ([`crate::pipelined`]). The engine default.
    #[default]
    Streaming,
    /// Classic per-query hash-join pipeline — the differential-testing
    /// oracle, and the model of how PostgreSQL ran the paper's SQL.
    Pipelined,
    /// Materializes every join node (ablation baseline).
    Materialized,
}

/// Options for [`execute_with`].
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Which executor variant runs.
    pub mode: ExecMode,
    /// Whether `ProjectDistinct` nodes de-duplicate (`SELECT DISTINCT`).
    /// Disabling turns every subquery into a plain `SELECT` — the
    /// `ablation_distinct` bench uses this to show that de-duplication at
    /// projection boundaries is what makes projection pushing effective.
    pub dedup_subqueries: bool,
    /// Operator-level profiling ([`ppr_obs::ProfileMode`], default
    /// `Off`). Honoured by the streaming executor, which fills
    /// [`ExecStats::op_profile`] with a per-operator tree of actual
    /// rows, probes, and self time; the decision is made once at
    /// pipeline build, so `Off` adds no clock reads to the row loop.
    /// The oracle executors ignore it (their physical shapes are not
    /// what serving runs).
    ///
    /// [`ExecStats::op_profile`]: crate::stats::ExecStats::op_profile
    pub profile: ppr_obs::ProfileMode,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::default(),
            dedup_subqueries: true,
            profile: ppr_obs::ProfileMode::Off,
        }
    }
}

/// Executes `plan` under `budget` with default [`ExecOptions`] — the
/// streaming executor with subquery dedup on.
///
/// Returns the result relation (always de-duplicated when the plan root is
/// a [`Plan::ProjectDistinct`], a bag otherwise) and execution statistics.
pub fn execute(plan: &Plan, budget: &Budget) -> Result<(Relation, ExecStats)> {
    execute_with(plan, budget, ExecOptions::default())
}

/// [`execute`] with explicit [`ExecOptions`] — the one entry point every
/// serial mode routes through.
pub fn execute_with(
    plan: &Plan,
    budget: &Budget,
    options: ExecOptions,
) -> Result<(Relation, ExecStats)> {
    plan.validate()?;
    let mut stats = ExecStats::default();
    let mut meter = budget.start();
    let rel = match options.mode {
        ExecMode::Streaming => {
            crate::pipelined::materialize_streaming(plan, &mut meter, &mut stats, options)?
        }
        ExecMode::Pipelined => materialize(plan, &mut meter, &mut stats, options)?,
        ExecMode::Materialized => materialize_all(plan, &mut meter, &mut stats)?,
    };
    stats.tuples_flowed = meter.tuples_flowed;
    stats.elapsed = meter.elapsed();
    stats.threads_used = 1;
    stats.cpu_time = stats.elapsed;
    Ok((rel, stats))
}

/// [`execute`] with the classic per-query hash-join pipeline
/// ([`ExecMode::Pipelined`]) — the streaming executor's oracle.
pub fn execute_pipelined(plan: &Plan, budget: &Budget) -> Result<(Relation, ExecStats)> {
    execute_with(
        plan,
        budget,
        ExecOptions {
            mode: ExecMode::Pipelined,
            ..ExecOptions::default()
        },
    )
}

/// Executes `plan` materializing **every** join node (no pipelining).
/// Intermediate bag sizes are charged against the materialization budget.
pub fn execute_materialized(plan: &Plan, budget: &Budget) -> Result<(Relation, ExecStats)> {
    execute_with(
        plan,
        budget,
        ExecOptions {
            mode: ExecMode::Materialized,
            ..ExecOptions::default()
        },
    )
}

/// One probe stage of a pipeline: a hash table over one join input.
///
/// The table is a [`KeyedMap`], so probing allocates nothing per tuple:
/// join keys of ≤ 2 values are packed into a `u64` inline, and wider keys
/// are looked up through a reused scratch buffer.
pub(crate) struct Stage {
    /// Join key → row indices of this input.
    pub(crate) table: KeyedMap<Vec<usize>>,
    /// This input's rows.
    pub(crate) rows: Vec<Tuple>,
    /// Positions *within the accumulated tuple buffer* of the join-key
    /// values to probe with.
    pub(crate) key_pos_in_buf: Vec<usize>,
    /// Positions within this input's rows of the columns appended to the
    /// buffer (columns not already bound by earlier stages).
    pub(crate) extra_pos: Vec<usize>,
}

/// Where pipeline output goes (shared by the pipelined and streaming
/// executors).
pub(crate) enum Sink {
    /// Keep full tuples (bag semantics) — a pipeline with no projection.
    Bag(Vec<Tuple>),
    /// `SELECT DISTINCT keep` — project then de-duplicate. With `dedup`
    /// off this degrades to a plain projection (bag semantics).
    Distinct {
        keep_pos: Vec<usize>,
        seen: KeyedSet,
        rows: Vec<Tuple>,
        dedup: bool,
    },
}

impl Sink {
    pub(crate) fn emit(
        &mut self,
        buf: &[Value],
        scratch: &mut Vec<Value>,
        meter: &Meter,
        stats: &mut ExecStats,
    ) -> Result<()> {
        stats.rows_emitted += 1;
        let rows = match self {
            Sink::Bag(rows) => {
                rows.push(buf.to_vec().into_boxed_slice());
                rows.len()
            }
            Sink::Distinct {
                keep_pos,
                seen,
                rows,
                dedup,
            } => {
                stats.materialized_rows_in += 1;
                // Duplicates cost a set probe only; the projected row is
                // allocated just for first occurrences.
                if !*dedup || seen.insert(keep_pos, buf, scratch) {
                    rows.push(keep_pos.iter().map(|&p| buf[p]).collect());
                }
                rows.len()
            }
        };
        if let Some(kind) = meter.on_materialized_rows(rows as u64) {
            return Err(RelalgError::BudgetExceeded {
                kind,
                tuples_flowed: 0,
            });
        }
        Ok(())
    }
}

/// Flattens a join tree into pipeline inputs, left to right.
/// `Join(Join(a, b), c)` — the shape the methods' SQL takes — becomes
/// `[a, b, c]`; right-nested and bushy shapes (which join-expression
/// trees produce when an interior node skips a no-op projection) flatten
/// the same way, which is sound because the pipeline natural-joins its
/// inputs in sequence and ⋈ is associative and commutative.
pub(crate) fn join_chain(plan: &Plan) -> Vec<&Plan> {
    match plan {
        Plan::Join { left, right } => {
            let mut chain = join_chain(left);
            chain.extend(join_chain(right));
            chain
        }
        other => vec![other],
    }
}

/// Materializes `plan`: runs its topmost pipeline (ending at this node) and
/// recursively materializes any `ProjectDistinct` inputs first.
fn materialize(
    plan: &Plan,
    meter: &mut Meter,
    stats: &mut ExecStats,
    options: ExecOptions,
) -> Result<Relation> {
    match plan {
        Plan::Scan { .. } => pipeline(plan, None, meter, stats, options),
        Plan::Join { .. } => pipeline(plan, None, meter, stats, options),
        Plan::ProjectDistinct { input, keep } => {
            let rel = pipeline(input, Some(keep.clone()), meter, stats, options)?;
            stats.materializations += 1;
            stats.peak_materialized = stats.peak_materialized.max(rel.len() as u64);
            stats.materialized_rows_out += rel.len() as u64;
            Ok(rel)
        }
    }
}

/// Runs the join pipeline rooted at `plan` (which must not itself be a
/// `ProjectDistinct`), sending output through a projection sink when `keep`
/// is given.
fn pipeline(
    plan: &Plan,
    keep: Option<Vec<crate::schema::AttrId>>,
    meter: &mut Meter,
    stats: &mut ExecStats,
    options: ExecOptions,
) -> Result<Relation> {
    let chain = join_chain(plan);
    // Materialize each input: scans bind base relations; subqueries recurse.
    let mut inputs: Vec<Relation> = Vec::with_capacity(chain.len());
    for node in &chain {
        match node {
            Plan::Scan { base, binding } => {
                stats.rows_scanned += base.len() as u64;
                inputs.push(ops::bind(base, binding));
            }
            Plan::ProjectDistinct { .. } => inputs.push(materialize(node, meter, stats, options)?),
            Plan::Join { .. } => unreachable!("join_chain flattens both spines"),
        }
    }

    // Accumulated schema after each stage.
    let mut acc = inputs[0].schema().clone();
    stats.max_intermediate_arity = stats.max_intermediate_arity.max(acc.arity());
    let mut scratch: Vec<Value> = Vec::new();
    let mut stages: Vec<Stage> = Vec::with_capacity(inputs.len().saturating_sub(1));
    for input in &inputs[1..] {
        stats.rows_scanned += input.len() as u64;
        let stage = build_stage(&acc, input, &mut scratch);
        acc = acc.join(input.schema());
        stats.max_intermediate_arity = stats.max_intermediate_arity.max(acc.arity());
        stages.push(stage);
    }
    stats.join_stages += stages.len() as u64;

    let distinct = keep.is_some() && options.dedup_subqueries;
    let out_schema = match &keep {
        Some(attrs) => acc.project(attrs),
        None => acc.clone(),
    };
    let mut sink = match keep {
        Some(attrs) => {
            let keep_pos = acc.positions(&attrs);
            Sink::Distinct {
                seen: KeyedSet::with_capacity(keep_pos.len(), 0),
                keep_pos,
                rows: Vec::new(),
                dedup: options.dedup_subqueries,
            }
        }
        None => Sink::Bag(Vec::new()),
    };

    // Depth-first streaming: probe stage by stage, never materializing the
    // intermediate tuple.
    let mut buf: Vec<Value> = Vec::with_capacity(acc.arity());
    let first =
        std::mem::replace(&mut inputs[0], Relation::empty("", Schema::empty())).into_tuples();
    stats.rows_scanned += first.len() as u64;
    for t in &first {
        if let Some(kind) = meter.on_tuple() {
            return Err(budget_err(kind, meter));
        }
        buf.clear();
        buf.extend_from_slice(t);
        probe(&stages, 0, &mut buf, &mut scratch, &mut sink, meter, stats)
            .map_err(|e| attach_flow(e, meter))?;
    }

    let rows = match sink {
        Sink::Bag(rows) => rows,
        Sink::Distinct { rows, .. } => rows,
    };
    let mut rel = Relation::new("result", out_schema, rows);
    if distinct {
        rel.assume_deduped();
    }
    Ok(rel)
}

/// Builds one probe stage: a keyed hash table over `input`, joined against
/// the accumulated schema `acc`. `scratch` is reused across build tuples.
pub(crate) fn build_stage(acc: &Schema, input: &Relation, scratch: &mut Vec<Value>) -> Stage {
    let keys = acc.common(input.schema());
    let key_pos_in_buf = acc.positions(&keys);
    let key_pos_in_rel = input.schema().positions(&keys);
    let extra_pos: Vec<usize> = input
        .schema()
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| !acc.contains(**a))
        .map(|(i, _)| i)
        .collect();
    let mut table: KeyedMap<Vec<usize>> = KeyedMap::with_capacity(keys.len(), input.len());
    for (i, t) in input.tuples().iter().enumerate() {
        table.entry_or_default(&key_pos_in_rel, t, scratch).push(i);
    }
    Stage {
        table,
        rows: input.tuples().to_vec(),
        key_pos_in_buf,
        extra_pos,
    }
}

fn probe(
    stages: &[Stage],
    idx: usize,
    buf: &mut Vec<Value>,
    scratch: &mut Vec<Value>,
    sink: &mut Sink,
    meter: &mut Meter,
    stats: &mut ExecStats,
) -> Result<()> {
    if idx == stages.len() {
        return sink.emit(buf, scratch, meter, stats);
    }
    let stage = &stages[idx];
    if let Some(matches) = stage.table.get(&stage.key_pos_in_buf, buf, scratch) {
        let base_len = buf.len();
        for &ri in matches {
            if let Some(kind) = meter.on_tuple() {
                return Err(RelalgError::BudgetExceeded {
                    kind,
                    tuples_flowed: 0,
                });
            }
            let row = &stage.rows[ri];
            buf.truncate(base_len);
            buf.extend(stage.extra_pos.iter().map(|&p| row[p]));
            probe(stages, idx + 1, buf, scratch, sink, meter, stats)?;
        }
        buf.truncate(base_len);
    }
    Ok(())
}

pub(crate) fn budget_err(kind: crate::budget::BudgetKind, meter: &Meter) -> RelalgError {
    RelalgError::BudgetExceeded {
        kind,
        tuples_flowed: meter.tuples_flowed,
    }
}

pub(crate) fn attach_flow(e: RelalgError, meter: &Meter) -> RelalgError {
    match e {
        RelalgError::BudgetExceeded { kind, .. } => budget_err(kind, meter),
        other => other,
    }
}

/// Fully-materialized evaluation (ablation baseline).
fn materialize_all(plan: &Plan, meter: &mut Meter, stats: &mut ExecStats) -> Result<Relation> {
    match plan {
        Plan::Scan { base, binding } => {
            stats.rows_scanned += base.len() as u64;
            let rel = ops::bind(base, binding);
            stats.max_intermediate_arity = stats.max_intermediate_arity.max(rel.arity());
            Ok(rel)
        }
        Plan::Join { left, right } => {
            let l = materialize_all(left, meter, stats)?;
            let r = materialize_all(right, meter, stats)?;
            stats.rows_scanned += l.len() as u64 + r.len() as u64;
            let j = ops::natural_join(&l, &r);
            for _ in 0..j.len() {
                if let Some(kind) = meter.on_tuple() {
                    return Err(budget_err(kind, meter));
                }
            }
            if let Some(kind) = meter.on_materialized_rows(j.len() as u64) {
                return Err(budget_err(kind, meter));
            }
            stats.max_intermediate_arity = stats.max_intermediate_arity.max(j.arity());
            stats.join_stages += 1;
            stats.rows_emitted += j.len() as u64;
            Ok(j)
        }
        Plan::ProjectDistinct { input, keep } => {
            let inner = materialize_all(input, meter, stats)?;
            stats.rows_scanned += inner.len() as u64;
            stats.materialized_rows_in += inner.len() as u64;
            let p = ops::project_distinct(&inner, keep);
            stats.materializations += 1;
            stats.materialized_rows_out += p.len() as u64;
            stats.peak_materialized = stats.peak_materialized.max(p.len() as u64);
            stats.rows_emitted += p.len() as u64;
            Ok(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use crate::value::tuple;
    use std::sync::Arc;

    fn edge() -> Arc<Relation> {
        let schema = Schema::new(vec![AttrId(1000), AttrId(1001)]);
        let mut rows = Vec::new();
        for a in 1..=3 {
            for b in 1..=3 {
                if a != b {
                    rows.push(tuple(&[a, b]));
                }
            }
        }
        Relation::from_distinct_rows("edge", schema, rows).into_shared()
    }

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    /// Triangle query: edge(1,2) ⋈ edge(2,3) ⋈ edge(1,3), project v1.
    fn triangle_plan() -> Plan {
        let e = edge();
        Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .join(Plan::scan(e, vec![a(1), a(3)]))
            .project(vec![a(1)])
    }

    #[test]
    fn triangle_is_3_colorable() {
        let (rel, stats) = execute(&triangle_plan(), &Budget::unlimited()).unwrap();
        // A triangle is 3-colorable, and every color appears as v1's value.
        assert_eq!(rel.len(), 3);
        assert!(stats.tuples_flowed > 0);
        assert_eq!(stats.materializations, 1);
        assert_eq!(stats.max_intermediate_arity, 3);
    }

    #[test]
    fn k4_is_not_3_colorable() {
        let e = edge();
        // Complete graph on 4 vertices: all 6 edges.
        let pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)];
        let mut plan = Plan::scan(e.clone(), vec![a(pairs[0].0), a(pairs[0].1)]);
        for &(u, v) in &pairs[1..] {
            plan = plan.join(Plan::scan(e.clone(), vec![a(u), a(v)]));
        }
        let plan = plan.project(vec![a(1)]);
        let (rel, _) = execute(&plan, &Budget::unlimited()).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn pipelined_matches_materialized() {
        let plan = triangle_plan();
        let (p, _) = execute(&plan, &Budget::unlimited()).unwrap();
        let (m, _) = execute_materialized(&plan, &Budget::unlimited()).unwrap();
        assert!(p.set_eq(&m));
    }

    #[test]
    fn nested_projection_boundaries() {
        let e = edge();
        // π_{v3}( π_{v2}(edge(v1,v2)) ⋈ edge(v2,v3) )
        let sub = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let plan = sub
            .join(Plan::scan(e, vec![a(2), a(3)]))
            .project(vec![a(3)]);
        let (rel, stats) = execute(&plan, &Budget::unlimited()).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(stats.materializations, 2);
        // Subquery materialized at most 3 rows (the three colors).
        assert!(stats.peak_materialized <= 3);
    }

    #[test]
    fn tuple_budget_aborts() {
        let plan = triangle_plan();
        let err = execute(&plan, &Budget::tuples(2)).unwrap_err();
        match err {
            RelalgError::BudgetExceeded { tuples_flowed, .. } => assert!(tuples_flowed >= 2),
            other => panic!("expected budget error, got {other}"),
        }
    }

    #[test]
    fn materialization_budget_aborts() {
        let plan = triangle_plan();
        let b = Budget {
            max_materialized: 1,
            ..Budget::unlimited()
        };
        assert!(matches!(
            execute(&plan, &b),
            Err(RelalgError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn bare_join_returns_bag() {
        let e = edge();
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)]).join(Plan::scan(e, vec![a(2), a(3)]));
        let (rel, _) = execute(&plan, &Budget::unlimited()).unwrap();
        // 6 edge tuples, each extended by 2 choices for v3.
        assert_eq!(rel.len(), 12);
        assert!(!rel.is_deduped());
    }

    #[test]
    fn cross_product_stage() {
        let e = edge();
        // Disjoint attributes: full cross product 6 × 6.
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)]).join(Plan::scan(e, vec![a(3), a(4)]));
        let (rel, stats) = execute(&plan, &Budget::unlimited()).unwrap();
        assert_eq!(rel.len(), 36);
        assert_eq!(stats.max_intermediate_arity, 4);
    }

    #[test]
    fn single_scan_project() {
        let e = edge();
        let plan = Plan::scan(e, vec![a(1), a(2)]).project(vec![a(1)]);
        let (rel, _) = execute(&plan, &Budget::unlimited()).unwrap();
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn repeated_attr_scan_executes_selection() {
        let e = edge();
        // edge(x, x): no monochromatic pairs exist, so empty.
        let plan = Plan::scan(e, vec![a(1), a(1)]).project(vec![a(1)]);
        let (rel, _) = execute(&plan, &Budget::unlimited()).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn right_nested_and_bushy_joins_execute() {
        // Join-expression trees produce bushy joins when interior nodes
        // skip no-op projections; the pipeline must flatten both spines.
        let e = edge();
        let left =
            Plan::scan(e.clone(), vec![a(1), a(2)]).join(Plan::scan(e.clone(), vec![a(2), a(3)]));
        let right =
            Plan::scan(e.clone(), vec![a(3), a(4)]).join(Plan::scan(e.clone(), vec![a(4), a(5)]));
        let bushy = Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
        }
        .project(vec![a(1)]);
        let (rel, _) = execute(&bushy, &Budget::unlimited()).unwrap();
        // A path of 4 edges is 3-colorable with any start color.
        assert_eq!(rel.len(), 3);
        let (m, _) = execute_materialized(&bushy, &Budget::unlimited()).unwrap();
        assert!(rel.set_eq(&m));
    }

    #[test]
    fn no_dedup_option_keeps_duplicates() {
        let e = edge();
        let sub = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let plan = sub
            .join(Plan::scan(e, vec![a(2), a(3)]))
            .project(vec![a(3)]);
        let opts = ExecOptions {
            dedup_subqueries: false,
            ..ExecOptions::default()
        };
        let (bag, _) = execute_with(&plan, &Budget::unlimited(), opts).unwrap();
        let (set, _) = execute(&plan, &Budget::unlimited()).unwrap();
        // Same set of values, but the bag carries duplicates.
        assert!(bag.len() > set.len());
        let mut bag_sorted: Vec<_> = bag.tuples().to_vec();
        bag_sorted.sort();
        bag_sorted.dedup();
        let mut set_sorted: Vec<_> = set.tuples().to_vec();
        set_sorted.sort();
        assert_eq!(bag_sorted, set_sorted);
        assert!(!bag.is_deduped());
    }

    #[test]
    fn no_dedup_blows_up_tuple_flow() {
        // Chain of projections: with dedup each boundary caps at 3 rows;
        // without, sizes multiply.
        let e = edge();
        let mut plan = Plan::scan(e.clone(), vec![a(0), a(1)]).project(vec![a(1)]);
        for i in 1..8 {
            plan = plan
                .join(Plan::scan(e.clone(), vec![a(i), a(i + 1)]))
                .project(vec![a(i + 1)]);
        }
        let (_, dedup_stats) = execute(&plan, &Budget::unlimited()).unwrap();
        let opts = ExecOptions {
            dedup_subqueries: false,
            ..ExecOptions::default()
        };
        let (_, bag_stats) = execute_with(&plan, &Budget::unlimited(), opts).unwrap();
        assert!(bag_stats.tuples_flowed > dedup_stats.tuples_flowed * 10);
    }

    #[test]
    fn stats_flow_counts_pipeline_tuples() {
        let plan = triangle_plan();
        let (_, stats) = execute(&plan, &Budget::unlimited()).unwrap();
        // 6 scan tuples + 12 after stage 1 + 6 after stage 2 (triangle
        // solutions: 3! = 6 proper colorings).
        assert_eq!(stats.tuples_flowed, 6 + 12 + 6);
    }
}
