//! Materialized relations.

use std::fmt;
use std::sync::Arc;

use rustc_hash::FxHashSet;

use crate::index::{ColumnIndex, IndexCache};
use crate::schema::{AttrId, Schema};
use crate::value::{Tuple, Value};

/// A named, materialized relation: a schema plus a bag of tuples.
///
/// Relations produced by `SELECT DISTINCT` boundaries are sets; the engine
/// tracks set-ness in [`Relation::is_deduped`] so repeated de-duplication is
/// skipped. Base relations in the paper's workloads (the six-tuple `edge`
/// relation, SAT clause relations) are always sets.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Schema,
    tuples: Vec<Tuple>,
    deduped: bool,
    /// Lazily-built per-column secondary indexes. Cloning starts cold;
    /// in-place mutation ([`Relation::push`], [`Relation::dedup`]) clears
    /// it, so a cached index always describes the current tuples.
    /// [`Relation::with_new_row`] hands its copy the built ones, extended.
    indexes: IndexCache,
}

impl Relation {
    /// Creates a relation from rows, verifying each row's width. Does not
    /// de-duplicate; use [`Relation::dedup`] or construct via
    /// [`Relation::from_distinct_rows`].
    pub fn new(name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) -> Self {
        for t in &tuples {
            assert_eq!(
                t.len(),
                schema.arity(),
                "tuple width {} does not match schema arity {}",
                t.len(),
                schema.arity()
            );
        }
        Relation {
            name: name.into(),
            schema,
            tuples,
            deduped: false,
            indexes: IndexCache::default(),
        }
    }

    /// Creates a relation and de-duplicates its rows.
    pub fn from_distinct_rows(name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) -> Self {
        let mut r = Relation::new(name, schema, tuples);
        r.dedup();
        r
    }

    /// An empty relation over `schema`.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            tuples: Vec::new(),
            deduped: true,
            indexes: IndexCache::default(),
        }
    }

    /// The relation name (used by SQL emission and Display only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples.
    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples (bag cardinality).
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples. A Boolean project-join query
    /// is *false* iff its result relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Whether the rows are known to be distinct.
    pub fn is_deduped(&self) -> bool {
        self.deduped
    }

    /// Appends a row; clears the dedup mark and any cached indexes.
    pub fn push(&mut self, t: Tuple) {
        assert_eq!(t.len(), self.schema.arity());
        self.tuples.push(t);
        self.deduped = false;
        self.indexes = IndexCache::default();
    }

    /// Whether `row` is one of the tuples. Probes the most selective
    /// index already built and scans when none is; never builds one.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        if row.len() != self.arity() {
            return false;
        }
        match self.indexes.most_selective() {
            Some((col, ix)) => ix
                .postings(row[col])
                .iter()
                .any(|&i| *self.tuples[i as usize] == *row),
            None => self.tuples.iter().any(|t| **t == *row),
        }
    }

    /// A copy of this relation with `t` appended. The caller guarantees
    /// the relation is deduped and `t` absent, so the result is deduped
    /// too. Every index built here is extended into the copy rather than
    /// dropped; the cost is one copy of the rows and of those indexes.
    pub fn with_new_row(&self, t: Tuple) -> Relation {
        assert_eq!(t.len(), self.schema.arity());
        assert!(self.deduped, "with_new_row needs a deduped relation");
        debug_assert!(!self.contains_row(&t), "with_new_row needs an absent row");
        let indexes = self.indexes.extended(&t, self.tuples.len() as u32);
        let mut tuples = Vec::with_capacity(self.tuples.len() + 1);
        tuples.extend_from_slice(&self.tuples);
        tuples.push(t);
        Relation {
            name: self.name.clone(),
            schema: self.schema.clone(),
            tuples,
            deduped: true,
            indexes,
        }
    }

    /// Consumes the relation, yielding its rows.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Marks rows as distinct without scanning. Callers must guarantee it.
    pub(crate) fn assume_deduped(&mut self) {
        debug_assert!({
            let set: FxHashSet<&Tuple> = self.tuples.iter().collect();
            set.len() == self.tuples.len()
        });
        self.deduped = true;
    }

    /// Removes duplicate rows in place (hash-based, preserves first
    /// occurrence order).
    pub fn dedup(&mut self) {
        if self.deduped {
            return;
        }
        let mut seen: FxHashSet<Tuple> = FxHashSet::default();
        seen.reserve(self.tuples.len());
        self.tuples.retain(|t| seen.insert(t.clone()));
        self.deduped = true;
        self.indexes = IndexCache::default();
    }

    /// The column of values for `attr`; panics if absent.
    pub fn column(&self, attr: AttrId) -> Vec<Value> {
        let pos = self
            .schema
            .position(attr)
            .unwrap_or_else(|| panic!("attribute {attr} not in {}", self.schema));
        self.tuples.iter().map(|t| t[pos]).collect()
    }

    /// Renames the relation (schema unchanged).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Wraps the relation for cheap sharing between plans.
    pub fn into_shared(self) -> Arc<Relation> {
        Arc::new(self)
    }

    /// The secondary index on column `col`, building and caching it on
    /// first use. The second element is `true` iff this call built the
    /// index (a cache miss); a hit returns the shared `Arc` for free.
    ///
    /// The cache lives on the relation value itself, so every query
    /// holding the same `Arc`-shared snapshot reuses one build. Under
    /// concurrent first use, `OnceLock` guarantees exactly one thread
    /// builds while the others wait and report a hit.
    pub fn column_index(&self, col: usize) -> (Arc<ColumnIndex>, bool) {
        assert!(
            col < self.arity(),
            "column {col} out of range for arity {}",
            self.arity()
        );
        let mut built = false;
        let ix = self.indexes.slot(self.schema.arity(), col).get_or_init(|| {
            built = true;
            Arc::new(ColumnIndex::build(self, col))
        });
        (Arc::clone(ix), built)
    }

    /// Number of column indexes currently built and cached.
    pub fn indexed_columns(&self) -> usize {
        self.indexes.built()
    }

    /// Set-semantics equality: same schema (same attribute order) and same
    /// set of rows.
    pub fn set_eq(&self, other: &Relation) -> bool {
        if self.schema != other.schema {
            return false;
        }
        let a: FxHashSet<&Tuple> = self.tuples.iter().collect();
        let b: FxHashSet<&Tuple> = other.tuples.iter().collect();
        a == b
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}{} [{} rows]", self.name, self.schema, self.len())?;
        for t in self.tuples.iter().take(20) {
            writeln!(f, "  {t:?}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  ... ({} more)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::tuple;

    fn schema2() -> Schema {
        Schema::new(vec![AttrId(0), AttrId(1)])
    }

    #[test]
    fn new_checks_width() {
        let r = Relation::new("r", schema2(), vec![tuple(&[1, 2])]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.arity(), 2);
    }

    #[test]
    #[should_panic(expected = "tuple width")]
    fn new_rejects_bad_width() {
        Relation::new("r", schema2(), vec![tuple(&[1])]);
    }

    #[test]
    fn dedup_removes_duplicates_keeps_order() {
        let mut r = Relation::new(
            "r",
            schema2(),
            vec![tuple(&[1, 2]), tuple(&[3, 4]), tuple(&[1, 2])],
        );
        assert!(!r.is_deduped());
        r.dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples()[0], tuple(&[1, 2]));
        assert_eq!(r.tuples()[1], tuple(&[3, 4]));
        assert!(r.is_deduped());
    }

    #[test]
    fn push_clears_dedup_mark() {
        let mut r = Relation::empty("r", schema2());
        assert!(r.is_deduped());
        r.push(tuple(&[1, 1]));
        assert!(!r.is_deduped());
    }

    #[test]
    fn set_eq_ignores_row_order_and_duplicates() {
        let a = Relation::new("a", schema2(), vec![tuple(&[1, 2]), tuple(&[3, 4])]);
        let b = Relation::new(
            "b",
            schema2(),
            vec![tuple(&[3, 4]), tuple(&[1, 2]), tuple(&[1, 2])],
        );
        assert!(a.set_eq(&b));
    }

    #[test]
    fn set_eq_requires_same_schema() {
        let a = Relation::new("a", schema2(), vec![tuple(&[1, 2])]);
        let b = Relation::new(
            "b",
            Schema::new(vec![AttrId(1), AttrId(0)]),
            vec![tuple(&[1, 2])],
        );
        assert!(!a.set_eq(&b));
    }

    #[test]
    fn column_extraction() {
        let r = Relation::new("r", schema2(), vec![tuple(&[1, 2]), tuple(&[3, 4])]);
        assert_eq!(r.column(AttrId(1)), vec![2, 4]);
    }

    #[test]
    fn empty_is_deduped_and_empty() {
        let r = Relation::empty("r", schema2());
        assert!(r.is_empty());
        assert!(r.is_deduped());
    }

    #[test]
    fn column_index_is_built_once_and_shared() {
        let r = Relation::new("r", schema2(), vec![tuple(&[1, 2]), tuple(&[1, 3])]);
        assert_eq!(r.indexed_columns(), 0);
        let (ix, built) = r.column_index(0);
        assert!(built);
        assert_eq!(ix.postings(1), &[0, 1]);
        let (again, built_again) = r.column_index(0);
        assert!(!built_again);
        assert!(Arc::ptr_eq(&ix, &again));
        assert_eq!(r.indexed_columns(), 1);
    }

    #[test]
    fn mutation_invalidates_cached_indexes() {
        let mut r = Relation::new("r", schema2(), vec![tuple(&[1, 2])]);
        let _ = r.column_index(0);
        assert_eq!(r.indexed_columns(), 1);
        r.push(tuple(&[1, 9]));
        assert_eq!(r.indexed_columns(), 0);
        let (ix, built) = r.column_index(0);
        assert!(built);
        assert_eq!(ix.postings(1), &[0, 1]);
    }

    #[test]
    fn contains_row_probes_or_scans_without_building() {
        let r = Relation::from_distinct_rows(
            "r",
            schema2(),
            vec![tuple(&[1, 2]), tuple(&[1, 3]), tuple(&[4, 2])],
        );
        for warm in [false, true] {
            if warm {
                let _ = r.column_index(1);
            }
            assert!(r.contains_row(&[1, 3]));
            assert!(r.contains_row(&[4, 2]));
            assert!(!r.contains_row(&[4, 3]));
            assert!(!r.contains_row(&[1]));
            assert_eq!(r.indexed_columns(), usize::from(warm));
        }
    }

    #[test]
    fn with_new_row_extends_warm_indexes_and_leaves_the_source_alone() {
        let r = Relation::from_distinct_rows("r", schema2(), vec![tuple(&[1, 2]), tuple(&[3, 4])]);
        let _ = r.column_index(0);
        let grown = r.with_new_row(tuple(&[1, 5]));
        assert_eq!(r.len(), 2);
        assert_eq!(grown.tuples()[2], tuple(&[1, 5]));
        assert!(grown.is_deduped());
        assert_eq!(grown.name(), "r");
        assert_eq!(grown.indexed_columns(), 1, "warm columns stay warm");
        let (ix, built) = grown.column_index(0);
        assert!(!built, "a warm column is extended, never rebuilt");
        assert_eq!(ix.postings(1), &[0, 2]);
        // A column that was cold stays cold and builds on first use.
        let (ix1, built1) = grown.column_index(1);
        assert!(built1);
        assert_eq!(ix1.postings(5), &[2]);
        // A cold relation grows a cold copy.
        let cold = Relation::from_distinct_rows("c", schema2(), vec![tuple(&[1, 2])]);
        assert_eq!(cold.with_new_row(tuple(&[2, 3])).indexed_columns(), 0);
    }

    #[test]
    fn clones_start_with_a_cold_index_cache() {
        let r = Relation::new("r", schema2(), vec![tuple(&[1, 2])]);
        let _ = r.column_index(1);
        let c = r.clone();
        assert_eq!(r.indexed_columns(), 1);
        assert_eq!(c.indexed_columns(), 0);
    }
}
