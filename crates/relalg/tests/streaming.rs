//! Differential parity suite for the push-based streaming executor.
//!
//! On random project-join plans — including the paper's 3-COLOR and path
//! queries, empty relations, and Boolean (empty-keep) projections — the
//! streaming executor must return **byte-identical** relations and
//! identical `tuples_flowed` to the classic pipelined oracle, and
//! set-equal results to the fully materialized ablation executor (which
//! joins bottom-up, so its row order legitimately differs). A tuple budget must trip mid-stream at
//! exactly the same flow point as the oracle, and a warm second run over
//! the same snapshot must build no secondary indexes.

use std::sync::Arc;

use ppr_relalg::budget::BudgetKind;
use ppr_relalg::exec::{self, ExecMode, ExecOptions};
use ppr_relalg::stats::ExecStats;
use ppr_relalg::{AttrId, Budget, Plan, RelalgError, Relation, Schema, Value};
use proptest::prelude::*;

/// Attribute pool kept small so random scans share variables often —
/// that is what makes the joins selective and the plans interesting.
const ATTR_POOL: u32 = 4;

/// Builds the shared base relation from random rows.
fn base_relation(rows: Vec<Vec<Value>>) -> Arc<Relation> {
    let schema = Schema::new(vec![AttrId(900), AttrId(901)]);
    Relation::new(
        "edge",
        schema,
        rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
    )
    .into_shared()
}

/// One atom of the random query: a scan of the base relation binding its
/// two columns to attributes from the pool, plus a flag that wraps the
/// chain built so far in a `ProjectDistinct` (keep-mask below decides the
/// kept attributes).
type AtomSpec = (u8, u8, bool, u8);

/// Deterministically assembles a valid plan from the random specs: a
/// left-deep join chain over
/// scans, with `ProjectDistinct` nodes inserted where flagged. An empty
/// keep is a legal Boolean projection.
fn assemble(specs: &[AtomSpec], base: &Arc<Relation>) -> Plan {
    let scan_of = |a: u8, b: u8| {
        Plan::scan(
            Arc::clone(base),
            vec![
                AttrId(u32::from(a) % ATTR_POOL),
                AttrId(u32::from(b) % ATTR_POOL),
            ],
        )
    };
    let (a0, b0, _, _) = specs[0];
    let mut plan = scan_of(a0, b0);
    for &(a, b, project, mask) in &specs[1..] {
        plan = plan.join(scan_of(a, b));
        if project {
            let schema = plan.schema().expect("chain schema is valid");
            let keep: Vec<AttrId> = schema
                .attrs()
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> (i % 8) & 1 == 1)
                .map(|(_, &attr)| attr)
                .collect();
            plan = plan.project(keep);
        }
    }
    plan
}

/// A path query of `len` edge atoms: `edge(x0,x1), …, edge(x(len-1),xlen)`,
/// projected onto its endpoints — or a Boolean query when `boolean` is set.
/// Every interior stage shares exactly one variable with the accumulated
/// schema, which is precisely the shape the streaming executor serves from
/// a cached secondary index.
fn path_plan(base: &Arc<Relation>, len: u32, boolean: bool) -> Plan {
    let mut plan = Plan::scan(Arc::clone(base), vec![AttrId(0), AttrId(1)]);
    for i in 1..len {
        plan = plan.join(Plan::scan(Arc::clone(base), vec![AttrId(i), AttrId(i + 1)]));
    }
    let keep = if boolean {
        vec![]
    } else {
        vec![AttrId(0), AttrId(len)]
    };
    plan.project(keep)
}

/// The 3-COLOR inequality relation: all 6 pairs of distinct colors in
/// `{0,1,2}` — one `diff(xu, xv)` atom per graph edge encodes properly
/// coloring that edge, exactly as the paper's 3-COLOR workload does.
fn diff_relation() -> Arc<Relation> {
    let rows = (0..3u32)
        .flat_map(|a| {
            (0..3u32)
                .filter(move |b| *b != a)
                .map(move |b| vec![a, b].into_boxed_slice())
        })
        .collect();
    Relation::new("diff", Schema::new(vec![AttrId(900), AttrId(901)]), rows).into_shared()
}

/// One `diff` atom per graph edge, projected onto the first vertex's color
/// (or Boolean satisfiability when `boolean` is set).
fn coloring_plan(diff: &Arc<Relation>, edges: &[(u8, u8)], boolean: bool) -> Plan {
    let scan_of = |(u, v): (u8, u8)| {
        Plan::scan(
            Arc::clone(diff),
            vec![AttrId(u32::from(u) % 4), AttrId(u32::from(v) % 4)],
        )
    };
    let mut plan = scan_of(edges[0]);
    for &e in &edges[1..] {
        plan = plan.join(scan_of(e));
    }
    let keep = if boolean {
        vec![]
    } else {
        vec![AttrId(u32::from(edges[0].0) % 4)]
    };
    plan.project(keep)
}

/// Runs `plan` in the given mode with subquery dedup on or off.
fn run(
    plan: &Plan,
    budget: &Budget,
    mode: ExecMode,
    dedup: bool,
) -> Result<(Relation, ExecStats), RelalgError> {
    exec::execute_with(
        plan,
        budget,
        ExecOptions {
            mode,
            dedup_subqueries: dedup,
            ..ExecOptions::default()
        },
    )
}

/// Byte-identity: same schema, same rows in the same order, same dedup
/// marker, same metered flow.
fn check_identical(
    a: &(Relation, ExecStats),
    b: &(Relation, ExecStats),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.0.schema(), b.0.schema());
    prop_assert_eq!(a.0.tuples(), b.0.tuples());
    prop_assert_eq!(a.0.is_deduped(), b.0.is_deduped());
    prop_assert_eq!(a.1.tuples_flowed, b.1.tuples_flowed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole guarantee on fully random plans (row counts start at
    /// zero, so empty relations are in scope): streaming ≡ pipelined
    /// byte-for-byte, and set-equal to the materialized ablation.
    #[test]
    fn streaming_matches_every_oracle_on_random_plans(
        rows in prop::collection::vec(prop::collection::vec(0u32..5, 2), 0..=24),
        specs in prop::collection::vec((0u8..8, 0u8..8, prop::bool::ANY, 0u8..=255), 1..=5),
    ) {
        let base = base_relation(rows);
        let plan = assemble(&specs, &base);
        prop_assert!(plan.validate().is_ok());
        let budget = Budget::unlimited();

        let streaming = run(&plan, &budget, ExecMode::Streaming, true).expect("streaming");
        let pipelined = run(&plan, &budget, ExecMode::Pipelined, true).expect("pipelined");
        check_identical(&streaming, &pipelined)?;

        let (mat, _) = run(&plan, &budget, ExecMode::Materialized, true).expect("materialized");
        prop_assert!(streaming.0.set_eq(&mat));
    }

    /// Dedup ablation (`dedup_subqueries = false` turns every subquery
    /// `DISTINCT` into a plain `SELECT`): streaming and the pipelined
    /// oracle still agree byte-for-byte.
    #[test]
    fn streaming_matches_pipelined_with_dedup_disabled(
        rows in prop::collection::vec(prop::collection::vec(0u32..4, 2), 0..=16),
        specs in prop::collection::vec((0u8..8, 0u8..8, prop::bool::ANY, 0u8..=255), 1..=4),
    ) {
        let base = base_relation(rows);
        let plan = assemble(&specs, &base);
        let budget = Budget::unlimited();
        let streaming = run(&plan, &budget, ExecMode::Streaming, false).expect("streaming");
        let pipelined = run(&plan, &budget, ExecMode::Pipelined, false).expect("pipelined");
        check_identical(&streaming, &pipelined)?;
    }

    /// Path queries — the all-index-join shape. Every interior stage is
    /// served by a secondary index, so a multi-atom path over a nonempty
    /// base must report at least one index build.
    #[test]
    fn path_queries_agree_and_use_the_index(
        rows in prop::collection::vec(prop::collection::vec(0u32..6, 2), 0..=24),
        len in 1u32..=5,
        boolean in prop::bool::ANY,
    ) {
        let base = base_relation(rows);
        let plan = path_plan(&base, len, boolean);
        let budget = Budget::unlimited();

        let streaming = run(&plan, &budget, ExecMode::Streaming, true).expect("streaming");
        let pipelined = run(&plan, &budget, ExecMode::Pipelined, true).expect("pipelined");
        check_identical(&streaming, &pipelined)?;
        let (mat, _) = run(&plan, &budget, ExecMode::Materialized, true).expect("materialized");
        prop_assert!(streaming.0.set_eq(&mat));

        if len >= 2 {
            prop_assert!(streaming.1.index_builds >= 1);
            prop_assert_eq!(pipelined.1.index_builds, 0);
        }
    }

    /// 3-COLOR queries over random graphs (self-loops make the instance
    /// trivially uncolorable — the empty result is part of the property).
    #[test]
    fn three_color_queries_agree(
        edges in prop::collection::vec((0u8..4, 0u8..4), 1..=5),
        boolean in prop::bool::ANY,
    ) {
        let diff = diff_relation();
        let plan = coloring_plan(&diff, &edges, boolean);
        let budget = Budget::unlimited();

        let streaming = run(&plan, &budget, ExecMode::Streaming, true).expect("streaming");
        let pipelined = run(&plan, &budget, ExecMode::Pipelined, true).expect("pipelined");
        check_identical(&streaming, &pipelined)?;
        let (mat, _) = run(&plan, &budget, ExecMode::Materialized, true).expect("materialized");
        prop_assert!(streaming.0.set_eq(&mat));
    }

    /// Budget exhaustion mid-stream: because the streaming executor meters
    /// the exact same tuple-flow sequence as the pipelined oracle, a tuple
    /// budget below the full flow trips both with the **same** error —
    /// same kind and same `tuples_flowed` at the trip point.
    #[test]
    fn tuple_budgets_trip_at_the_same_flow(
        rows in prop::collection::vec(prop::collection::vec(0u32..4, 2), 1..=16),
        specs in prop::collection::vec((0u8..8, 0u8..8, prop::bool::ANY, 0u8..=255), 1..=4),
        frac in 0u64..u64::MAX,
    ) {
        let base = base_relation(rows);
        let plan = assemble(&specs, &base);
        let (_, full) =
            run(&plan, &Budget::unlimited(), ExecMode::Pipelined, true).expect("unlimited");
        prop_assume!(full.tuples_flowed > 0);
        let budget = Budget::tuples(frac % full.tuples_flowed);

        let s_err = run(&plan, &budget, ExecMode::Streaming, true).expect_err("streaming trips");
        let p_err = run(&plan, &budget, ExecMode::Pipelined, true).expect_err("pipelined trips");
        prop_assert_eq!(&s_err, &p_err);
        prop_assert!(matches!(
            s_err,
            RelalgError::BudgetExceeded { kind: BudgetKind::Tuples, .. }
        ));
    }

    /// Snapshot index reuse: a second streaming run over the same shared
    /// base builds nothing, scans no more than the cold run, and returns
    /// byte-identical results.
    #[test]
    fn warm_runs_build_no_indexes(
        rows in prop::collection::vec(prop::collection::vec(0u32..6, 2), 1..=24),
        len in 2u32..=4,
    ) {
        let base = base_relation(rows);
        let plan = path_plan(&base, len, false);
        let budget = Budget::unlimited();

        let cold = run(&plan, &budget, ExecMode::Streaming, true).expect("cold");
        let warm = run(&plan, &budget, ExecMode::Streaming, true).expect("warm");
        check_identical(&cold, &warm)?;
        prop_assert!(cold.1.index_builds >= 1);
        prop_assert_eq!(warm.1.index_builds, 0);
        prop_assert!(warm.1.rows_scanned <= cold.1.rows_scanned);
        prop_assert_eq!(warm.1.index_probes, cold.1.index_probes);
    }
}

/// An empty base flows nothing: every executor returns the same empty
/// relation without tripping even a zero-tuple budget.
#[test]
fn empty_base_is_empty_everywhere() {
    let base = base_relation(vec![]);
    let plan = path_plan(&base, 3, false);
    let budget = Budget::tuples(0);
    let (streaming, s_stats) = run(&plan, &budget, ExecMode::Streaming, true).expect("streaming");
    let (pipelined, p_stats) = run(&plan, &budget, ExecMode::Pipelined, true).expect("pipelined");
    assert!(streaming.is_empty());
    assert_eq!(streaming.schema(), pipelined.schema());
    assert_eq!(streaming.tuples(), pipelined.tuples());
    assert_eq!(s_stats.tuples_flowed, 0);
    assert_eq!(p_stats.tuples_flowed, 0);
}
