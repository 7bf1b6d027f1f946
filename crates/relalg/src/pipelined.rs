//! Push-based streaming executor over secondary indexes.
//!
//! This is [`crate::exec::ExecMode::Streaming`]: a callback-driven operator
//! pipeline in the style of SpacetimeDB's `PipelinedExecutor`. Instead of
//! the classic executor's per-query preparation — `bind` copies of every
//! scanned relation plus a hash-table build per join stage — the pipeline
//! is wired from six operators that push rows downstream:
//!
//! * **`TableScan`** — streams the outer input's rows straight off the
//!   base relation, no bind copy (`Source::Table`).
//! * **`IxScan`** — answers a single-column `SELECT DISTINCT` subquery by
//!   reading the cached index's key list (`ix_scan_distinct`).
//! * **`IxJoin`** — an equality join (single shared attribute) probed
//!   through the base relation's cached [`ColumnIndex`]
//!   (`StreamStage::Index`); the index is built lazily once per
//!   relation and shared by every query holding the snapshot `Arc`.
//! * **`HashJoin`** — fallback for multi-attribute keys, cross products,
//!   and subquery inputs: the classic per-query build
//!   (`StreamStage::Hash`).
//! * **`Filter`** — repeated-attribute equality checks (`edge(x, x)`),
//!   applied inline at the scan or per index posting.
//! * **`Project`** — column collapse at scans and the `DISTINCT`
//!   projection at the sink (`crate::exec::Sink`).
//!
//! Nothing materializes except at `ProjectDistinct` (subquery-dedup)
//! boundaries — the same boundaries the classic pipeline has.
//!
//! **Byte identity.** Output rows, their order, and `tuples_flowed` are
//! exactly those of [`crate::exec::ExecMode::Pipelined`]. This holds
//! because index postings are kept in ascending row order (the order a
//! per-query build table would have recorded), repeated-attribute filters
//! drop exactly the rows `bind` would have dropped, and the meter is
//! ticked at the same points. `tests/streaming.rs` asserts all of it by
//! proptest against the pipelined oracle and the materializing ablation.
//!
//! What changes is the *physical* work, visible in
//! [`ExecStats::rows_scanned`] / [`ExecStats::index_probes`] /
//! [`ExecStats::index_builds`]: a warm repeated query touches no per-query
//! builds at all, which is where the serving stack's exec-phase latency
//! win comes from.

use std::sync::Arc;
use std::time::Instant;

use ppr_obs::{OpKind, OpProfile};

use crate::budget::Meter;
use crate::error::RelalgError;
use crate::exec::{attach_flow, budget_err, build_stage, join_chain, ExecOptions, Sink, Stage};
use crate::index::ColumnIndex;
use crate::ops;
use crate::plan::Plan;
use crate::relation::Relation;
use crate::schema::{AttrId, Schema};
use crate::stats::ExecStats;
use crate::value::{Tuple, Value};
use crate::Result;

/// The outer input of a streaming pipeline.
enum Source {
    /// `TableScan` (+ inline `Filter`/`Project`): stream base rows
    /// directly, dropping rows that fail the repeated-attribute equality
    /// checks and collapsing repeated columns on the fly.
    Table {
        base: Arc<Relation>,
        /// `(first, later)` positions in the base row that must agree.
        eq_checks: Vec<(usize, usize)>,
        /// Base-row positions streamed; `None` = identity (no repeats).
        out_pos: Option<Vec<usize>>,
    },
    /// An already-materialized subquery result, streamed row by row.
    Materialized(Relation),
}

/// One probe stage of a streaming pipeline.
enum StreamStage {
    /// `HashJoin`: per-query hash build over a bound input — the
    /// fallback for multi-attribute keys, cross products, and subquery
    /// inputs.
    Hash(Stage),
    /// `IxJoin` (+ inline `Filter`): probe the base relation's cached
    /// secondary index on the single shared attribute; repeated-attribute
    /// checks run per posting.
    Index {
        base: Arc<Relation>,
        index: Arc<ColumnIndex>,
        /// Position in the accumulated buffer of the join-key value.
        key_pos_in_buf: usize,
        /// `(first, later)` positions in the base row that must agree.
        eq_checks: Vec<(usize, usize)>,
        /// Base-row positions appended to the buffer (attributes not
        /// already bound by earlier stages).
        extra_pos: Vec<usize>,
    },
}

/// Per-operator accumulator while a profiled pipeline runs.
///
/// `incl_ns` is *inclusive* push-loop time — this operator plus
/// everything downstream of it — measured per visit. Because the
/// pipeline is a chain, operator `i`'s inclusive time contains operator
/// `i+1`'s, so self time falls out as a subtraction in
/// [`PipeProf::finish`] instead of needing per-row clock pairs at every
/// level.
struct NodeAcc {
    op: OpKind,
    target: String,
    rows_in: u64,
    rows_out: u64,
    probes: u64,
    /// Operator construction time (index/hash builds), outside the push
    /// loop.
    build_ns: u64,
    /// Inclusive push-loop time (see type docs).
    incl_ns: u64,
    /// Profiles of subquery pipelines materialized to feed this
    /// operator.
    subs: Vec<OpProfile>,
}

impl NodeAcc {
    fn new(op: OpKind, target: &str) -> NodeAcc {
        NodeAcc {
            op,
            target: target.to_string(),
            rows_in: 0,
            rows_out: 0,
            probes: 0,
            build_ns: 0,
            incl_ns: 0,
            subs: Vec::new(),
        }
    }
}

/// Profiling state for one streaming pipeline, allocated only under
/// [`ppr_obs::ProfileMode::On`] — the `Off` hot path carries a `None`
/// and pays a null check per row, never a clock read.
///
/// `nodes` is in pipeline order: `[source, stage 1, …, stage n, sink]`.
struct PipeProf {
    nodes: Vec<NodeAcc>,
}

impl PipeProf {
    /// Converts the accumulators into the sink-rooted [`OpProfile`]
    /// tree: self time = build time + inclusive time − downstream
    /// inclusive time, children = the upstream operator plus any
    /// subquery profiles.
    fn finish(mut self, sink_rows_out: u64) -> OpProfile {
        if let Some(sink) = self.nodes.last_mut() {
            sink.rows_out = sink_rows_out;
        }
        let self_ns: Vec<u64> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let downstream = self.nodes.get(i + 1).map_or(0, |d| d.incl_ns);
                node.build_ns + node.incl_ns.saturating_sub(downstream)
            })
            .collect();
        let mut tree: Option<OpProfile> = None;
        for (i, acc) in self.nodes.into_iter().enumerate() {
            let mut node = OpProfile::node(acc.op, acc.target);
            node.rows_in = acc.rows_in;
            node.rows_out = acc.rows_out;
            node.probes = acc.probes;
            node.time_us = self_ns[i] / 1_000;
            if let Some(upstream) = tree.take() {
                node.children.push(upstream);
            }
            node.children.extend(acc.subs);
            tree = Some(node);
        }
        tree.expect("a pipeline has at least a source and a sink")
    }
}

/// The shape `ops::bind` would give a scan, computed without touching any
/// rows: the bound schema (first-occurrence attribute order), the base-row
/// positions to stream (`None` when the binding has no repeats), and the
/// repeated-attribute equality checks.
fn bind_shape(binding: &[AttrId]) -> (Schema, Option<Vec<usize>>, Vec<(usize, usize)>) {
    let mut out_attrs: Vec<AttrId> = Vec::new();
    let mut out_pos: Vec<usize> = Vec::new();
    for (i, &a) in binding.iter().enumerate() {
        if !out_attrs.contains(&a) {
            out_attrs.push(a);
            out_pos.push(i);
        }
    }
    let mut eq_checks: Vec<(usize, usize)> = Vec::new();
    for (i, &a) in binding.iter().enumerate() {
        let first = binding.iter().position(|&x| x == a).expect("present");
        if first != i {
            eq_checks.push((first, i));
        }
    }
    let identity = out_pos.len() == binding.len();
    (
        Schema::new(out_attrs),
        (!identity).then_some(out_pos),
        eq_checks,
    )
}

#[inline]
fn eq_ok(eq_checks: &[(usize, usize)], row: &[Value]) -> bool {
    eq_checks.iter().all(|&(a, b)| row[a] == row[b])
}

/// The operator tree the streaming executor *would* run for `plan` under
/// default [`ExecOptions`], computed without touching any rows: kinds,
/// targets, and structure only — every counter stays zero. `explain plan`
/// renders this, so the planned tree lines up node for node with the
/// measured tree `explain analyze` produces.
pub fn streaming_shape(plan: &Plan) -> OpProfile {
    match plan {
        Plan::Scan { .. } | Plan::Join { .. } => pipeline_shape(plan, false),
        Plan::ProjectDistinct { input, keep } => match ix_scan_shape(input, keep) {
            Some(node) => node,
            None => pipeline_shape(input, true),
        },
    }
}

/// Shape counterpart of [`ix_scan_distinct`]'s applicability test.
fn ix_scan_shape(input: &Plan, keep: &[AttrId]) -> Option<OpProfile> {
    if keep.len() != 1 {
        return None;
    }
    let Plan::Scan { base, binding } = input else {
        return None;
    };
    let (_, out_pos, _) = bind_shape(binding);
    if out_pos.is_some() || !binding.contains(&keep[0]) {
        return None;
    }
    Some(OpProfile::node(OpKind::IxScan, base.name()))
}

/// Shape counterpart of [`pipeline_streaming`]: walks the join chain
/// making the same IxJoin-vs-HashJoin choices, building zeroed nodes.
fn pipeline_shape(plan: &Plan, distinct: bool) -> OpProfile {
    let chain = join_chain(plan);
    let (mut acc, mut tree) = match chain[0] {
        Plan::Scan { base, binding } => {
            let (schema, _, _) = bind_shape(binding);
            (schema, OpProfile::node(OpKind::TableScan, base.name()))
        }
        sub @ Plan::ProjectDistinct { keep, .. } => {
            let mut node = OpProfile::node(OpKind::TableScan, "");
            node.children.push(streaming_shape(sub));
            (Schema::new(keep.clone()), node)
        }
        Plan::Join { .. } => unreachable!("join_chain flattens both spines"),
    };
    for node in &chain[1..] {
        let (kind, target, schema, sub) = match node {
            Plan::Scan { base, binding } => {
                let (schema, _, _) = bind_shape(binding);
                let kind = if acc.common(&schema).len() == 1 {
                    OpKind::IxJoin
                } else {
                    OpKind::HashJoin
                };
                (kind, base.name().to_string(), schema, None)
            }
            sub @ Plan::ProjectDistinct { keep, .. } => (
                OpKind::HashJoin,
                String::new(),
                Schema::new(keep.clone()),
                Some(streaming_shape(sub)),
            ),
            Plan::Join { .. } => unreachable!("join_chain flattens both spines"),
        };
        acc = acc.join(&schema);
        let mut stage = OpProfile::node(kind, target);
        stage.children.push(tree);
        stage.children.extend(sub);
        tree = stage;
    }
    let mut root = OpProfile::node(
        if distinct {
            OpKind::Distinct
        } else {
            OpKind::Bag
        },
        "",
    );
    root.children.push(tree);
    root
}

/// Streaming counterpart of the classic executor's `materialize`: runs the
/// pipeline ending at `plan`, recursing into `ProjectDistinct` inputs.
/// Under [`ppr_obs::ProfileMode::On`] the per-operator profile of the
/// root pipeline lands in [`ExecStats::op_profile`].
pub(crate) fn materialize_streaming(
    plan: &Plan,
    meter: &mut Meter,
    stats: &mut ExecStats,
    options: ExecOptions,
) -> Result<Relation> {
    let (rel, prof) = materialize_streaming_prof(plan, meter, stats, options)?;
    if let Some(p) = prof {
        stats.op_profile = Some(Box::new(p));
    }
    Ok(rel)
}

/// [`materialize_streaming`] returning the pipeline's profile instead of
/// stashing it, so subquery recursion can attach child profiles to the
/// operator they feed.
fn materialize_streaming_prof(
    plan: &Plan,
    meter: &mut Meter,
    stats: &mut ExecStats,
    options: ExecOptions,
) -> Result<(Relation, Option<OpProfile>)> {
    match plan {
        Plan::Scan { .. } | Plan::Join { .. } => {
            pipeline_streaming(plan, None, meter, stats, options)
        }
        Plan::ProjectDistinct { input, keep } => {
            let (rel, prof) = match ix_scan_distinct(input, keep, meter, stats, options)? {
                Some(pair) => pair,
                None => pipeline_streaming(input, Some(keep.clone()), meter, stats, options)?,
            };
            stats.materializations += 1;
            stats.peak_materialized = stats.peak_materialized.max(rel.len() as u64);
            stats.materialized_rows_out += rel.len() as u64;
            Ok((rel, prof))
        }
    }
}

/// The `IxScan` operator: a single-column `SELECT DISTINCT` over a plain
/// scan is exactly the cached index's key list in first-occurrence order,
/// so the whole subquery pipeline collapses into one index read.
///
/// Returns `None` when the shape does not apply (multi-column keep,
/// repeated attributes adding a selection, dedup disabled) and the caller
/// falls back to the general pipeline. The meter still ticks once per
/// base row — the logical tuple flow is a plan property and must match
/// the other executors exactly.
fn ix_scan_distinct(
    input: &Plan,
    keep: &[AttrId],
    meter: &mut Meter,
    stats: &mut ExecStats,
    options: ExecOptions,
) -> Result<Option<(Relation, Option<OpProfile>)>> {
    if !options.dedup_subqueries || keep.len() != 1 {
        return Ok(None);
    }
    let Plan::Scan { base, binding } = input else {
        return Ok(None);
    };
    let (schema, out_pos, _) = bind_shape(binding);
    if out_pos.is_some() {
        // Repeated attributes add a selection the index does not see.
        return Ok(None);
    }
    let Some(col) = binding.iter().position(|&a| a == keep[0]) else {
        return Ok(None);
    };
    let start = options.profile.is_on().then(Instant::now);
    let (index, built) = base.column_index(col);
    stats.index_builds += built as u64;
    if built {
        stats.rows_scanned += base.len() as u64;
    }
    stats.index_probes += 1;
    for _ in 0..base.len() {
        if let Some(kind) = meter.on_tuple() {
            return Err(budget_err(kind, meter));
        }
    }
    stats.materialized_rows_in += base.len() as u64;
    // The working-label width the equivalent pipeline would have seen.
    stats.max_intermediate_arity = stats.max_intermediate_arity.max(schema.arity());
    let keys = index.first_keys();
    if let Some(kind) = meter.on_materialized_rows(keys.len() as u64) {
        return Err(budget_err(kind, meter));
    }
    stats.rows_emitted += keys.len() as u64;
    let rows: Vec<Tuple> = keys.iter().map(|&v| vec![v].into_boxed_slice()).collect();
    let prof = start.map(|s| {
        let mut node = OpProfile::node(OpKind::IxScan, base.name());
        node.rows_in = base.len() as u64;
        node.rows_out = keys.len() as u64;
        node.probes = 1;
        node.time_us = s.elapsed().as_micros() as u64;
        node
    });
    let mut rel = Relation::new("result", Schema::new(vec![keep[0]]), rows);
    rel.assume_deduped();
    Ok(Some((rel, prof)))
}

/// Wires and runs one streaming join pipeline: a [`Source`], a stage per
/// further input, and a sink (with the `DISTINCT` projection when `keep`
/// is given).
fn pipeline_streaming(
    plan: &Plan,
    keep: Option<Vec<AttrId>>,
    meter: &mut Meter,
    stats: &mut ExecStats,
    options: ExecOptions,
) -> Result<(Relation, Option<OpProfile>)> {
    let chain = join_chain(plan);
    let mut scratch: Vec<Value> = Vec::new();
    // The profile-or-not decision is made here, once per pipeline build:
    // `None` keeps the per-row cost at a null check, no clock reads.
    let profiling = options.profile.is_on();
    let mut prof: Option<PipeProf> = profiling.then(|| PipeProf { nodes: Vec::new() });

    // Source: scans stream straight off the base relation (no bind copy);
    // subqueries materialize first, as in every mode.
    let (mut acc, source) = match chain[0] {
        Plan::Scan { base, binding } => {
            let (schema, out_pos, eq_checks) = bind_shape(binding);
            if let Some(p) = prof.as_mut() {
                p.nodes.push(NodeAcc::new(OpKind::TableScan, base.name()));
            }
            (
                schema,
                Source::Table {
                    base: Arc::clone(base),
                    eq_checks,
                    out_pos,
                },
            )
        }
        sub @ Plan::ProjectDistinct { .. } => {
            let (rel, sub_prof) = materialize_streaming_prof(sub, meter, stats, options)?;
            if let Some(p) = prof.as_mut() {
                // Streaming a materialized intermediate: the subquery
                // that produced it hangs off the scan node.
                let mut node = NodeAcc::new(OpKind::TableScan, "");
                node.subs.extend(sub_prof);
                p.nodes.push(node);
            }
            (rel.schema().clone(), Source::Materialized(rel))
        }
        Plan::Join { .. } => unreachable!("join_chain flattens both spines"),
    };
    stats.max_intermediate_arity = stats.max_intermediate_arity.max(acc.arity());

    // Join stages: an IxJoin over the cached index when the join key is a
    // single attribute of a plain scan; a per-query HashJoin otherwise.
    let mut stages: Vec<StreamStage> = Vec::with_capacity(chain.len().saturating_sub(1));
    for node in &chain[1..] {
        let stage = match node {
            Plan::Scan { base, binding } => {
                let (schema, _, eq_checks) = bind_shape(binding);
                let keys = acc.common(&schema);
                if keys.len() == 1 {
                    let key = keys[0];
                    let col = binding
                        .iter()
                        .position(|&a| a == key)
                        .expect("key is bound");
                    let build_start = profiling.then(Instant::now);
                    let (index, built) = base.column_index(col);
                    stats.index_builds += built as u64;
                    if built {
                        stats.rows_scanned += base.len() as u64;
                    }
                    let extra_pos: Vec<usize> = schema
                        .attrs()
                        .iter()
                        .filter(|a| !acc.contains(**a))
                        .map(|a| binding.iter().position(|x| x == a).expect("bound"))
                        .collect();
                    let stage = StreamStage::Index {
                        base: Arc::clone(base),
                        index,
                        key_pos_in_buf: acc.position(key).expect("key in acc"),
                        eq_checks,
                        extra_pos,
                    };
                    if let Some(p) = prof.as_mut() {
                        let mut n = NodeAcc::new(OpKind::IxJoin, base.name());
                        n.build_ns = build_start.expect("profiling").elapsed().as_nanos() as u64;
                        p.nodes.push(n);
                    }
                    acc = acc.join(&schema);
                    stage
                } else {
                    let build_start = profiling.then(Instant::now);
                    stats.rows_scanned += base.len() as u64;
                    let bound = ops::bind(base, binding);
                    stats.rows_scanned += bound.len() as u64;
                    let stage = build_stage(&acc, &bound, &mut scratch);
                    if let Some(p) = prof.as_mut() {
                        let mut n = NodeAcc::new(OpKind::HashJoin, base.name());
                        n.build_ns = build_start.expect("profiling").elapsed().as_nanos() as u64;
                        p.nodes.push(n);
                    }
                    acc = acc.join(bound.schema());
                    StreamStage::Hash(stage)
                }
            }
            sub @ Plan::ProjectDistinct { .. } => {
                let (rel, sub_prof) = materialize_streaming_prof(sub, meter, stats, options)?;
                stats.rows_scanned += rel.len() as u64;
                // Time only the hash build: the subquery's own time is
                // already inside `sub_prof`'s nodes.
                let build_start = profiling.then(Instant::now);
                let stage = build_stage(&acc, &rel, &mut scratch);
                if let Some(p) = prof.as_mut() {
                    let mut n = NodeAcc::new(OpKind::HashJoin, "");
                    n.build_ns = build_start.expect("profiling").elapsed().as_nanos() as u64;
                    n.subs.extend(sub_prof);
                    p.nodes.push(n);
                }
                acc = acc.join(rel.schema());
                StreamStage::Hash(stage)
            }
            Plan::Join { .. } => unreachable!("join_chain flattens both spines"),
        };
        stats.max_intermediate_arity = stats.max_intermediate_arity.max(acc.arity());
        stages.push(stage);
    }
    stats.join_stages += stages.len() as u64;

    let distinct = keep.is_some() && options.dedup_subqueries;
    if let Some(p) = prof.as_mut() {
        let kind = if keep.is_some() {
            OpKind::Distinct
        } else {
            OpKind::Bag
        };
        p.nodes.push(NodeAcc::new(kind, ""));
    }
    let out_schema = match &keep {
        Some(attrs) => acc.project(attrs),
        None => acc.clone(),
    };
    let mut sink = match keep {
        Some(attrs) => {
            let keep_pos = acc.positions(&attrs);
            Sink::Distinct {
                seen: crate::key::KeyedSet::with_capacity(keep_pos.len(), 0),
                keep_pos,
                rows: Vec::new(),
                dedup: options.dedup_subqueries,
            }
        }
        None => Sink::Bag(Vec::new()),
    };

    // Push rows from the source through the stages into the sink.
    let mut buf: Vec<Value> = Vec::with_capacity(acc.arity());
    match source {
        Source::Table {
            base,
            eq_checks,
            out_pos,
        } => {
            stats.rows_scanned += base.len() as u64;
            if let Some(p) = prof.as_mut() {
                p.nodes[0].rows_in += base.len() as u64;
            }
            let loop_start = profiling.then(Instant::now);
            for t in base.tuples() {
                if !eq_ok(&eq_checks, t) {
                    continue;
                }
                if let Some(kind) = meter.on_tuple() {
                    return Err(budget_err(kind, meter));
                }
                buf.clear();
                match &out_pos {
                    None => buf.extend_from_slice(t),
                    Some(pos) => buf.extend(pos.iter().map(|&p| t[p])),
                }
                if let Some(p) = prof.as_mut() {
                    p.nodes[0].rows_out += 1;
                }
                probe_streaming(
                    &stages,
                    0,
                    &mut buf,
                    &mut scratch,
                    &mut sink,
                    meter,
                    stats,
                    prof.as_mut(),
                )
                .map_err(|e| attach_flow(e, meter))?;
            }
            if let (Some(p), Some(s)) = (prof.as_mut(), loop_start) {
                p.nodes[0].incl_ns += s.elapsed().as_nanos() as u64;
            }
        }
        Source::Materialized(rel) => {
            stats.rows_scanned += rel.len() as u64;
            if let Some(p) = prof.as_mut() {
                p.nodes[0].rows_in += rel.len() as u64;
            }
            let loop_start = profiling.then(Instant::now);
            for t in rel.tuples() {
                if let Some(kind) = meter.on_tuple() {
                    return Err(budget_err(kind, meter));
                }
                buf.clear();
                buf.extend_from_slice(t);
                if let Some(p) = prof.as_mut() {
                    p.nodes[0].rows_out += 1;
                }
                probe_streaming(
                    &stages,
                    0,
                    &mut buf,
                    &mut scratch,
                    &mut sink,
                    meter,
                    stats,
                    prof.as_mut(),
                )
                .map_err(|e| attach_flow(e, meter))?;
            }
            if let (Some(p), Some(s)) = (prof.as_mut(), loop_start) {
                p.nodes[0].incl_ns += s.elapsed().as_nanos() as u64;
            }
        }
    }

    let rows = match sink {
        Sink::Bag(rows) => rows,
        Sink::Distinct { rows, .. } => rows,
    };
    let mut rel = Relation::new("result", out_schema, rows);
    if distinct {
        rel.assume_deduped();
    }
    let profile = prof.map(|p| p.finish(rel.len() as u64));
    Ok((rel, profile))
}

/// Depth-first push through the stages — the streaming counterpart of the
/// classic executor's `probe`, with identical meter ticks.
///
/// `prof`, when present, indexes stage `idx` at `nodes[idx + 1]` (node 0
/// is the source) and the sink at the last node. All bookkeeping hides
/// behind the `Option` check, so the unprofiled path is unchanged.
#[allow(clippy::too_many_arguments)]
fn probe_streaming(
    stages: &[StreamStage],
    idx: usize,
    buf: &mut Vec<Value>,
    scratch: &mut Vec<Value>,
    sink: &mut Sink,
    meter: &mut Meter,
    stats: &mut ExecStats,
    mut prof: Option<&mut PipeProf>,
) -> Result<()> {
    if idx == stages.len() {
        return match prof {
            None => sink.emit(buf, scratch, meter, stats),
            Some(p) => {
                let start = Instant::now();
                let r = sink.emit(buf, scratch, meter, stats);
                let node = p.nodes.last_mut().expect("sink node");
                node.rows_in += 1;
                node.incl_ns += start.elapsed().as_nanos() as u64;
                r
            }
        };
    }
    let start = prof.as_ref().map(|_| Instant::now());
    match &stages[idx] {
        StreamStage::Hash(stage) => {
            let matches = stage.table.get(&stage.key_pos_in_buf, buf, scratch);
            if let Some(p) = prof.as_deref_mut() {
                let n = &mut p.nodes[idx + 1];
                n.probes += 1;
                if let Some(m) = &matches {
                    // Every match row is passed downstream unfiltered.
                    n.rows_in += m.len() as u64;
                    n.rows_out += m.len() as u64;
                }
            }
            if let Some(matches) = matches {
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
                    probe_streaming(
                        stages,
                        idx + 1,
                        buf,
                        scratch,
                        sink,
                        meter,
                        stats,
                        prof.as_deref_mut(),
                    )?;
                }
                buf.truncate(base_len);
            }
        }
        StreamStage::Index {
            base,
            index,
            key_pos_in_buf,
            eq_checks,
            extra_pos,
        } => {
            stats.index_probes += 1;
            let postings = index.postings(buf[*key_pos_in_buf]);
            stats.rows_scanned += postings.len() as u64;
            if let Some(p) = prof.as_deref_mut() {
                let n = &mut p.nodes[idx + 1];
                n.probes += 1;
                n.rows_in += postings.len() as u64;
            }
            let rows = base.tuples();
            let base_len = buf.len();
            for &ri in postings {
                let row = &rows[ri as usize];
                // Inline Filter: rows bind would have dropped never meter.
                if !eq_ok(eq_checks, row) {
                    continue;
                }
                if let Some(kind) = meter.on_tuple() {
                    return Err(RelalgError::BudgetExceeded {
                        kind,
                        tuples_flowed: 0,
                    });
                }
                buf.truncate(base_len);
                buf.extend(extra_pos.iter().map(|&p| row[p]));
                if let Some(p) = prof.as_deref_mut() {
                    p.nodes[idx + 1].rows_out += 1;
                }
                probe_streaming(
                    stages,
                    idx + 1,
                    buf,
                    scratch,
                    sink,
                    meter,
                    stats,
                    prof.as_deref_mut(),
                )?;
            }
            buf.truncate(base_len);
        }
    }
    if let (Some(p), Some(s)) = (prof, start) {
        p.nodes[idx + 1].incl_ns += s.elapsed().as_nanos() as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::exec::{execute_pipelined, execute_with, ExecMode};
    use crate::schema::AttrId;
    use crate::value::tuple;

    fn edge(n: u32) -> Arc<Relation> {
        let schema = Schema::new(vec![AttrId(1000), AttrId(1001)]);
        let mut rows = Vec::new();
        for a in 1..=n {
            for b in 1..=n {
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

    fn streaming(plan: &Plan) -> (Relation, ExecStats) {
        execute_with(
            plan,
            &Budget::unlimited(),
            ExecOptions {
                mode: ExecMode::Streaming,
                ..ExecOptions::default()
            },
        )
        .unwrap()
    }

    fn assert_byte_identical(plan: &Plan) {
        let (s, s_stats) = streaming(plan);
        let (p, p_stats) = execute_pipelined(plan, &Budget::unlimited()).unwrap();
        assert_eq!(s.schema(), p.schema());
        assert_eq!(s.tuples(), p.tuples());
        assert_eq!(s.is_deduped(), p.is_deduped());
        assert_eq!(s_stats.tuples_flowed, p_stats.tuples_flowed);
        assert_eq!(s_stats.materializations, p_stats.materializations);
        assert_eq!(
            s_stats.max_intermediate_arity,
            p_stats.max_intermediate_arity
        );
    }

    #[test]
    fn triangle_matches_pipelined_byte_for_byte() {
        let e = edge(3);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .join(Plan::scan(e, vec![a(1), a(3)]))
            .project(vec![a(1)]);
        assert_byte_identical(&plan);
    }

    #[test]
    fn chain_with_subqueries_matches() {
        let e = edge(5);
        let mut plan = Plan::scan(e.clone(), vec![a(0), a(1)]).project(vec![a(1)]);
        for i in 1..6 {
            plan = plan
                .join(Plan::scan(e.clone(), vec![a(i), a(i + 1)]))
                .project(vec![a(i + 1)]);
        }
        assert_byte_identical(&plan);
    }

    #[test]
    fn repeated_attrs_and_cross_products_match() {
        let e = edge(3);
        // edge(x, x) ⋈ edge(y, z): an empty filtered scan crossed in.
        let plan = Plan::scan(e.clone(), vec![a(1), a(1)]).join(Plan::scan(e, vec![a(2), a(3)]));
        assert_byte_identical(&plan);
    }

    #[test]
    fn bag_roots_match() {
        let e = edge(4);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)]).join(Plan::scan(e, vec![a(2), a(3)]));
        assert_byte_identical(&plan);
    }

    #[test]
    fn ix_scan_answers_single_column_distinct_from_the_index() {
        let e = edge(3);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let (rel, stats) = streaming(&plan);
        assert_eq!(rel.len(), 3);
        assert!(rel.is_deduped());
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.index_builds, 1);
        assert_byte_identical(&plan);
    }

    #[test]
    fn warm_runs_reuse_cached_indexes() {
        let e = edge(3);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .project(vec![a(1)]);
        let (_, cold) = streaming(&plan);
        assert!(cold.index_builds > 0);
        let (_, warm) = streaming(&plan);
        assert_eq!(warm.index_builds, 0);
        assert!(warm.rows_scanned < cold.rows_scanned);
        assert_eq!(warm.tuples_flowed, cold.tuples_flowed);
        assert!(e.indexed_columns() > 0);
    }

    #[test]
    fn profiling_reports_exact_rows_and_identical_results() {
        use ppr_obs::{OpKind, ProfileMode};
        let e = edge(4);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .join(Plan::scan(e, vec![a(1), a(3)]))
            .project(vec![a(1)]);
        let (plain_rel, plain) = streaming(&plan);
        let (rel, stats) = execute_with(
            &plan,
            &Budget::unlimited(),
            ExecOptions {
                mode: ExecMode::Streaming,
                profile: ProfileMode::On,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        // Profiling must be observation-only: same rows, same order,
        // same logical flow.
        assert_eq!(rel.tuples(), plain_rel.tuples());
        assert_eq!(stats.tuples_flowed, plain.tuples_flowed);
        assert!(plain.op_profile.is_none(), "off by default");

        let profile = stats.op_profile.as_deref().expect("profile on");
        let flat = profile.flatten();
        assert_eq!(flat.len(), 4, "sink + 2 stages + source: {flat:?}");
        // Root is the distinct sink; its outputs are the result rows and
        // its inputs are every row the pipeline emitted.
        assert_eq!(flat[0].op, OpKind::Distinct);
        assert_eq!(flat[0].rows_out, rel.len() as u64);
        assert_eq!(flat[0].rows_in, stats.rows_emitted);
        // The source streams the whole base relation.
        let source = flat.last().unwrap();
        assert_eq!(source.op, OpKind::TableScan);
        assert_eq!(source.target, "edge");
        assert_eq!(source.rows_in, 12);
        assert_eq!(source.rows_out, 12);
        // Index-join probes in the tree sum to the stats counter.
        let tree_probes: u64 = flat
            .iter()
            .filter(|n| matches!(n.op, OpKind::IxJoin | OpKind::IxScan))
            .map(|n| n.probes)
            .sum();
        assert_eq!(tree_probes, stats.index_probes);
        // Rows flowing between operators are consistent: each stage's
        // outputs feed the next operator's visits.
        assert_eq!(flat[1].rows_out, stats.rows_emitted);
    }

    #[test]
    fn subquery_profiles_attach_to_their_consumer() {
        use ppr_obs::{OpKind, ProfileMode};
        let e = edge(4);
        // π_{v3}( π_{v2}(edge(v1,v2)) ⋈ edge(v2,v3) ): the subquery is
        // answered by IxScan and feeds the outer pipeline's source.
        let sub = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let plan = sub
            .join(Plan::scan(e, vec![a(2), a(3)]))
            .project(vec![a(3)]);
        let (_, stats) = execute_with(
            &plan,
            &Budget::unlimited(),
            ExecOptions {
                mode: ExecMode::Streaming,
                profile: ProfileMode::On,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let profile = stats.op_profile.as_deref().expect("profile on");
        let flat = profile.flatten();
        let ix_scans: Vec<_> = flat.iter().filter(|n| n.op == OpKind::IxScan).collect();
        assert_eq!(ix_scans.len(), 1, "subquery collapses to IxScan: {flat:?}");
        assert_eq!(ix_scans[0].target, "edge");
        assert_eq!(ix_scans[0].rows_out, 4, "four distinct v2 values");
        // The IxScan is deeper than the outer source that consumes it.
        let source_depth = flat
            .iter()
            .find(|n| n.op == OpKind::TableScan)
            .expect("outer source")
            .depth;
        assert!(ix_scans[0].depth > source_depth);
    }

    #[test]
    fn streaming_shape_matches_the_measured_tree() {
        use ppr_obs::ProfileMode;
        let e = edge(4);
        // Triangle with an IxScan-answered subquery on one side: covers
        // TableScan, IxJoin, HashJoin, IxScan, and the Distinct sink.
        let sub = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let plan = Plan::scan(e.clone(), vec![a(2), a(3)])
            .join(Plan::scan(e, vec![a(3), a(4)]))
            .join(sub)
            .project(vec![a(2)]);
        let shape = streaming_shape(&plan);
        let (_, stats) = execute_with(
            &plan,
            &Budget::unlimited(),
            ExecOptions {
                mode: ExecMode::Streaming,
                profile: ProfileMode::On,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let measured = stats.op_profile.as_deref().expect("profile on");
        let planned: Vec<_> = shape
            .flatten()
            .iter()
            .map(|n| (n.depth, n.op, n.target.clone()))
            .collect();
        let actual: Vec<_> = measured
            .flatten()
            .iter()
            .map(|n| (n.depth, n.op, n.target.clone()))
            .collect();
        assert_eq!(planned, actual);
        // Shape rendering never touches rows.
        assert!(shape
            .flatten()
            .iter()
            .all(|n| n.rows_in == 0 && n.rows_out == 0 && n.probes == 0 && n.time_us == 0));
    }

    #[test]
    fn budget_trips_at_the_same_flow_as_pipelined() {
        let e = edge(4);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .join(Plan::scan(e, vec![a(3), a(4)]))
            .project(vec![a(1)]);
        let budget = Budget::tuples(17);
        let s = execute_with(
            &plan,
            &budget,
            ExecOptions {
                mode: ExecMode::Streaming,
                ..ExecOptions::default()
            },
        )
        .unwrap_err();
        let p = execute_pipelined(&plan, &budget).unwrap_err();
        match (s, p) {
            (
                RelalgError::BudgetExceeded {
                    kind: sk,
                    tuples_flowed: sf,
                },
                RelalgError::BudgetExceeded {
                    kind: pk,
                    tuples_flowed: pf,
                },
            ) => {
                assert_eq!(sk, pk);
                assert_eq!(sf, pf);
            }
            other => panic!("expected budget errors, got {other:?}"),
        }
    }
}
