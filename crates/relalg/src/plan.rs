//! Project-join plan trees.
//!
//! A [`Plan`] is the engine-level counterpart of the paper's generated SQL:
//! `Scan` nodes are the `edge e_i (u,w)` entries of a `FROM` clause, `Join`
//! nodes are the `JOIN ... ON` chain (natural joins on shared attributes —
//! the ON conditions the paper emits are exactly the shared-variable
//! equalities), and `ProjectDistinct` nodes are the `SELECT DISTINCT`
//! subquery boundaries that materialize and de-duplicate.

use std::fmt;
use std::sync::Arc;

use crate::error::RelalgError;
use crate::relation::Relation;
use crate::schema::{AttrId, Schema};
use crate::Result;

/// A project-join plan.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Reads a base relation with its columns bound to query attributes.
    /// `binding[i]` names column `i`; repeated attributes (an atom like
    /// `edge(x, x)`) act as a selection followed by column collapse.
    Scan {
        /// The stored relation.
        base: Arc<Relation>,
        /// Attribute bound to each base column, in column order.
        binding: Vec<AttrId>,
    },
    /// Natural join of the two inputs on their shared attributes; a cross
    /// product when they share none (the paper's `ON (TRUE)`).
    Join {
        /// Outer input (streamed by the pipelined executor).
        left: Box<Plan>,
        /// Inner input (hash table is built on this side).
        right: Box<Plan>,
    },
    /// `SELECT DISTINCT keep FROM input` — materializes and de-duplicates.
    ProjectDistinct {
        /// Input plan.
        input: Box<Plan>,
        /// Attributes to keep, in output column order.
        keep: Vec<AttrId>,
    },
}

impl Plan {
    /// A scan of `base` binding its columns to `binding`.
    pub fn scan(base: Arc<Relation>, binding: Vec<AttrId>) -> Self {
        Plan::Scan { base, binding }
    }

    /// Natural join of `self` with `right`.
    pub fn join(self, right: Plan) -> Self {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Projection (with dedup) onto `keep`.
    pub fn project(self, keep: Vec<AttrId>) -> Self {
        Plan::ProjectDistinct {
            input: Box::new(self),
            keep,
        }
    }

    /// The output schema. For scans this is the distinct binding attributes
    /// in first-occurrence order; joins concatenate left-then-new-right;
    /// projections reorder to `keep`.
    pub fn schema(&self) -> Result<Schema> {
        match self {
            Plan::Scan { base, binding } => {
                if binding.len() != base.arity() {
                    return Err(RelalgError::InvalidPlan(format!(
                        "scan of {} binds {} attrs but relation has arity {}",
                        base.name(),
                        binding.len(),
                        base.arity()
                    )));
                }
                let mut attrs: Vec<AttrId> = Vec::with_capacity(binding.len());
                for &a in binding {
                    if !attrs.contains(&a) {
                        attrs.push(a);
                    }
                }
                Ok(Schema::new(attrs))
            }
            Plan::Join { left, right } => Ok(left.schema()?.join(&right.schema()?)),
            Plan::ProjectDistinct { input, keep } => {
                let inner = input.schema()?;
                for &a in keep {
                    if !inner.contains(a) {
                        return Err(RelalgError::MissingAttr(format!(
                            "projection keeps {a} but input schema is {inner}"
                        )));
                    }
                }
                Ok(Schema::new(keep.clone()))
            }
        }
    }

    /// The *width* of the plan: the maximum arity of any node's output
    /// schema. This is the working-label size of the corresponding
    /// join-expression tree; Theorem 1 states that the minimum width over
    /// all plans for a query is the treewidth of its join graph plus one.
    pub fn width(&self) -> Result<usize> {
        let own = self.schema()?.arity();
        let children = match self {
            Plan::Scan { .. } => 0,
            Plan::Join { left, right } => left.width()?.max(right.width()?),
            Plan::ProjectDistinct { input, .. } => input.width()?,
        };
        Ok(own.max(children))
    }

    /// Number of nodes in the plan tree.
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } => 0,
            Plan::Join { left, right } => left.node_count() + right.node_count(),
            Plan::ProjectDistinct { input, .. } => input.node_count(),
        }
    }

    /// Number of scan leaves.
    pub fn scan_count(&self) -> usize {
        match self {
            Plan::Scan { .. } => 1,
            Plan::Join { left, right } => left.scan_count() + right.scan_count(),
            Plan::ProjectDistinct { input, .. } => input.scan_count(),
        }
    }

    /// Number of `ProjectDistinct` (materialization) nodes.
    pub fn materialization_count(&self) -> usize {
        match self {
            Plan::Scan { .. } => 0,
            Plan::Join { left, right } => {
                left.materialization_count() + right.materialization_count()
            }
            Plan::ProjectDistinct { input, .. } => 1 + input.materialization_count(),
        }
    }

    /// Validates the whole tree (schema computation visits every node).
    pub fn validate(&self) -> Result<()> {
        self.width().map(|_| ())
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Plan::Scan { base, binding } => {
                write!(f, "{pad}Scan {}(", base.name())?;
                for (i, a) in binding.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, ")")
            }
            Plan::Join { left, right } => {
                writeln!(f, "{pad}Join")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            Plan::ProjectDistinct { input, keep } => {
                write!(f, "{pad}ProjectDistinct [")?;
                for (i, a) in keep.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, "]")?;
                input.fmt_indented(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::tuple;

    fn edge() -> Arc<Relation> {
        // All ordered pairs of distinct colors from {1,2,3}: the paper's
        // six-tuple edge relation.
        let schema = Schema::new(vec![AttrId(100), AttrId(101)]);
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

    #[test]
    fn scan_schema_dedups_repeats() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(1)]);
        assert_eq!(p.schema().unwrap(), Schema::new(vec![AttrId(1)]));
    }

    #[test]
    fn scan_binding_width_checked() {
        let p = Plan::scan(edge(), vec![AttrId(1)]);
        assert!(matches!(p.schema(), Err(RelalgError::InvalidPlan(_))));
    }

    #[test]
    fn join_schema_concatenates() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)])
            .join(Plan::scan(edge(), vec![AttrId(2), AttrId(3)]));
        assert_eq!(
            p.schema().unwrap(),
            Schema::new(vec![AttrId(1), AttrId(2), AttrId(3)])
        );
        assert_eq!(p.width().unwrap(), 3);
    }

    #[test]
    fn project_checks_attrs() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)]).project(vec![AttrId(9)]);
        assert!(matches!(p.schema(), Err(RelalgError::MissingAttr(_))));
    }

    #[test]
    fn width_sees_through_projection() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)])
            .join(Plan::scan(edge(), vec![AttrId(2), AttrId(3)]))
            .project(vec![AttrId(3)]);
        assert_eq!(p.width().unwrap(), 3);
    }

    #[test]
    fn node_counts() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)])
            .join(Plan::scan(edge(), vec![AttrId(2), AttrId(3)]))
            .project(vec![AttrId(3)]);
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.scan_count(), 2);
        assert_eq!(p.materialization_count(), 1);
    }

    #[test]
    fn display_renders_tree() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)]).project(vec![AttrId(1)]);
        let s = p.to_string();
        assert!(s.contains("ProjectDistinct"));
        assert!(s.contains("Scan edge"));
    }
}
