#![warn(missing_docs)]

//! **projection-pushing** — a reproduction of *Projection Pushing
//! Revisited* (McMahan, Pan, Porter, Vardi; EDBT 2004).
//!
//! The paper studies structural optimization of project-join (conjunctive)
//! queries with many relations over tiny databases: projection pushing,
//! greedy join reordering, and bucket elimination yield exponential
//! execution-time improvements over what a cost-based SQL planner
//! produces, and the achievable intermediate-result arity is characterized
//! exactly by the treewidth of the query's join graph (join width =
//! treewidth + 1; induced width = treewidth).
//!
//! This crate re-exports the workspace and offers a compact high-level
//! API around the [`Eval`] builder:
//!
//! ```
//! use projection_pushing::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A 5-cycle is 3-colorable…
//! let pentagon = graph::families::cycle(5);
//! let mut rng = StdRng::seed_from_u64(0);
//! let (q, db) = color_query(&pentagon, &ColorQueryOptions::boolean(), &mut rng);
//! let (rows, stats) = Eval::new(&q, &db)
//!     .method(Method::BucketElimination(OrderHeuristic::Mcs))
//!     .run()
//!     .unwrap();
//! assert!(!rows.is_empty());
//! assert!(stats.tuples_flowed > 0);
//! // …or, for the common yes/no question:
//! assert!(Eval::new(&q, &db).nonempty().unwrap());
//! ```
//!
//! For long-lived query serving — a multi-database [`service::Catalog`]
//! with content-keyed result caching, a fingerprint-keyed plan cache,
//! admission control, and a TCP line protocol (`ppr serve` / `ppr
//! client`) — see the [`service`] crate.

pub use ppr_core as core;
pub use ppr_costplanner as costplanner;
pub use ppr_durability as durability;
pub use ppr_graph as graph;
pub use ppr_obs as obs;
pub use ppr_query as query;
pub use ppr_relalg as relalg;
pub use ppr_service as service;
pub use ppr_sql as sql;
pub use ppr_workload as workload;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ppr_core::methods::build_plan;
pub use ppr_core::methods::{Method, OrderHeuristic};
use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::{exec, Budget, ExecStats, Relation};

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::{graph, Eval, Method, OrderHeuristic};
    pub use ppr_core::methods::{build_plan, emit_sql};
    pub use ppr_query::{Atom, ConjunctiveQuery, Database, Vars};
    pub use ppr_relalg::{Budget, Plan};
    pub use ppr_service::{
        Catalog, Client, Engine, EngineConfig, Pipeline, Request, Server, ServiceError, Ticket,
    };
    pub use ppr_workload::{color_query, ColorQueryOptions, InstanceSpec, QueryShape};
}

/// One evaluation of a conjunctive query over a database, configured
/// fluently.
///
/// Defaults: bucket elimination under the MCS order (the paper's winning
/// method), seed 0, unlimited budget.
///
/// ```
/// # use projection_pushing::prelude::*;
/// # use rand::rngs::StdRng;
/// # use rand::SeedableRng;
/// # let g = graph::families::cycle(5);
/// # let mut rng = StdRng::seed_from_u64(0);
/// # let (q, db) = color_query(&g, &ColorQueryOptions::boolean(), &mut rng);
/// let (rows, stats) = Eval::new(&q, &db)
///     .method(Method::EarlyProjection)
///     .seed(7)
///     .budget(Budget::tuples(1_000_000))
///     .run()
///     .unwrap();
/// # let _ = (rows, stats);
/// ```
#[derive(Debug, Clone)]
pub struct Eval<'a> {
    query: &'a ConjunctiveQuery,
    db: &'a Database,
    method: Method,
    seed: u64,
    budget: Budget,
}

impl<'a> Eval<'a> {
    /// An evaluation of `query` over `db` with the defaults above.
    pub fn new(query: &'a ConjunctiveQuery, db: &'a Database) -> Eval<'a> {
        Eval {
            query,
            db,
            method: Method::BucketElimination(OrderHeuristic::Mcs),
            seed: 0,
            budget: Budget::unlimited(),
        }
    }

    /// Selects the planning method.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Pins the planner tie-breaking seed (default 0). The seed is part
    /// of determinism: same query, database, method, and seed produce
    /// byte-identical rows.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bounds execution by tuples flowed and/or wall clock (default
    /// unlimited). Exhaustion is an error, never a truncated result.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Plans and executes, returning the result relation and execution
    /// statistics.
    pub fn run(&self) -> ppr_relalg::Result<(Relation, ExecStats)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let plan = build_plan(self.method, self.query, self.db, &mut rng);
        exec::execute(&plan, &self.budget)
    }

    /// Runs and reports only whether the result is non-empty — the
    /// natural question for Boolean (decision) queries like k-COLOR.
    pub fn nonempty(&self) -> ppr_relalg::Result<bool> {
        self.run().map(|(rel, _)| !rel.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_color(g: &ppr_graph::Graph, method: Method, seed: u64) -> bool {
        let mut rng = StdRng::seed_from_u64(seed);
        let (q, db) =
            ppr_workload::color_query(g, &ppr_workload::ColorQueryOptions::boolean(), &mut rng);
        Eval::new(&q, &db)
            .method(method)
            .seed(seed)
            .nonempty()
            .unwrap()
    }

    #[test]
    fn three_colorability_decisions() {
        let c5 = graph::families::cycle(5);
        let k4 = graph::families::complete(4);
        for method in Method::paper_lineup() {
            assert!(three_color(&c5, method, 1), "{method:?}");
            assert!(!three_color(&k4, method, 1), "{method:?}");
        }
    }

    #[test]
    fn eval_returns_stats_and_respects_budget() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = graph::families::ladder(4);
        let (q, db) =
            ppr_workload::color_query(&g, &ppr_workload::ColorQueryOptions::boolean(), &mut rng);
        let (rel, stats) = Eval::new(&q, &db).run().unwrap();
        assert!(!rel.is_empty());
        assert!(stats.tuples_flowed > 0);
        // Ladder treewidth is 2; MCS is a heuristic, so allow one extra
        // column for unlucky tie-breaking.
        assert!(stats.max_intermediate_arity <= 4);

        let starved = Eval::new(&q, &db).budget(Budget::tuples(1)).run();
        assert!(starved.is_err(), "budget exhaustion must be an error");
    }
}
