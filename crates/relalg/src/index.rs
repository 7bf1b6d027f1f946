//! Per-column secondary indexes over materialized relations.
//!
//! A [`ColumnIndex`] maps each value of one column to the (ascending) row
//! positions holding it. The streaming executor probes these instead of
//! building a per-query hash table: the index is built **lazily** on first
//! use and cached on the [`crate::relation::Relation`] itself, so every
//! query running against the same `Arc`-shared snapshot reuses it. The
//! catalog's copy-on-write updates keep this sound — cloning a relation
//! starts with a cold cache, and in-place mutation clears it.
//!
//! A one-tuple append does not drop the indexes either:
//! [`crate::relation::Relation::with_new_row`] hands the successor every
//! index already built, each grown by [`ColumnIndex::extended`], which is
//! equal to a fresh [`ColumnIndex::build`] over the grown relation. A
//! catalog `add` therefore leaves the next query's indexes warm.
//!
//! Two representations are used, chosen by relation size at build time:
//!
//! * **hashed** — `value → Vec<row>` (small relations, the paper's
//!   six-tuple `edge` tables);
//! * **sorted** — a CSR layout (`keys` sorted ascending, `offsets`,
//!   `rows`) probed by binary search; denser and cache-friendlier for
//!   large relations.
//!
//! Both keep postings in ascending row order, which is what lets the
//! streaming executor's `IxJoin` reproduce the hash pipeline's output
//! byte for byte: probing an index yields matches in exactly the order a
//! per-query build table would have recorded them.

use std::fmt;
use std::sync::{Arc, OnceLock};

use rustc_hash::FxHashMap;

use crate::relation::Relation;
use crate::value::Value;

/// Relations at or above this row count get the sorted (CSR)
/// representation; smaller ones stay hashed.
const SORTED_MIN_ROWS: usize = 4096;

/// A secondary index on one column: value → ascending row positions.
pub struct ColumnIndex {
    /// Distinct key values in first-occurrence row order — exactly the
    /// result of `SELECT DISTINCT col` under the executor's
    /// first-occurrence dedup, which is what `IxScan` streams.
    first_keys: Vec<Value>,
    repr: Repr,
}

enum Repr {
    /// value → row positions (ascending).
    Hashed(FxHashMap<Value, Vec<u32>>),
    /// CSR: `keys` sorted ascending; key `i`'s postings are
    /// `rows[offsets[i]..offsets[i + 1]]`.
    Sorted {
        keys: Vec<Value>,
        offsets: Vec<u32>,
        rows: Vec<u32>,
    },
}

impl ColumnIndex {
    /// Builds the index over column `col` of `rel` (one pass plus, for
    /// large relations, a key sort into the CSR layout).
    pub fn build(rel: &Relation, col: usize) -> ColumnIndex {
        let tuples = rel.tuples();
        assert!(
            col < rel.arity(),
            "column {col} out of range for arity {}",
            rel.arity()
        );
        let mut first_keys: Vec<Value> = Vec::new();
        let mut postings: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
        for (i, t) in tuples.iter().enumerate() {
            let v = t[col];
            postings
                .entry(v)
                .or_insert_with(|| {
                    first_keys.push(v);
                    Vec::new()
                })
                .push(i as u32);
        }
        ColumnIndex {
            first_keys,
            repr: Repr::of(postings, tuples.len()),
        }
    }

    /// The index [`ColumnIndex::build`] would return after a row holding
    /// `v` is appended at position `row` (the relation's old length):
    /// `row` closes `v`'s postings, a new `v` joins `first_keys`, and the
    /// grown relation switches to the sorted layout at the same size a
    /// build would. Costs one copy of the index, no hashing of old rows.
    pub fn extended(&self, v: Value, row: u32) -> ColumnIndex {
        debug_assert_eq!(self.rows_indexed(), row as usize, "rows are appended");
        let mut first_keys = self.first_keys.clone();
        let repr = match &self.repr {
            Repr::Hashed(map) => {
                let mut postings = map.clone();
                postings
                    .entry(v)
                    .or_insert_with(|| {
                        first_keys.push(v);
                        Vec::new()
                    })
                    .push(row);
                Repr::of(postings, row as usize + 1)
            }
            Repr::Sorted {
                keys,
                offsets,
                rows,
            } => {
                let (mut keys, mut offsets, mut rows) =
                    (keys.clone(), offsets.clone(), rows.clone());
                let i = match keys.binary_search(&v) {
                    Ok(i) => i,
                    Err(i) => {
                        first_keys.push(v);
                        keys.insert(i, v);
                        offsets.insert(i + 1, offsets[i]);
                        i
                    }
                };
                // `row` is the largest position, so it goes last in `v`'s
                // postings; every later key's range shifts by one.
                rows.insert(offsets[i + 1] as usize, row);
                for o in &mut offsets[i + 1..] {
                    *o += 1;
                }
                Repr::Sorted {
                    keys,
                    offsets,
                    rows,
                }
            }
        };
        ColumnIndex { first_keys, repr }
    }

    /// Number of rows the index covers.
    fn rows_indexed(&self) -> usize {
        match &self.repr {
            Repr::Hashed(map) => map.values().map(Vec::len).sum(),
            Repr::Sorted { rows, .. } => rows.len(),
        }
    }

    /// Row positions holding `v`, ascending; empty when `v` is absent.
    #[inline]
    pub fn postings(&self, v: Value) -> &[u32] {
        match &self.repr {
            Repr::Hashed(map) => map.get(&v).map_or(&[], |p| p.as_slice()),
            Repr::Sorted {
                keys,
                offsets,
                rows,
            } => match keys.binary_search(&v) {
                Ok(i) => &rows[offsets[i] as usize..offsets[i + 1] as usize],
                Err(_) => &[],
            },
        }
    }

    /// Distinct key values in first-occurrence row order.
    #[inline]
    pub fn first_keys(&self) -> &[Value] {
        &self.first_keys
    }

    /// Number of distinct key values.
    pub fn distinct_keys(&self) -> usize {
        self.first_keys.len()
    }

    /// Whether the sorted (CSR) representation was chosen.
    pub fn is_sorted(&self) -> bool {
        matches!(self.repr, Repr::Sorted { .. })
    }
}

impl Repr {
    /// The representation for a relation of `len` rows whose postings
    /// are `postings`: sorted from [`SORTED_MIN_ROWS`] on, hashed below.
    fn of(postings: FxHashMap<Value, Vec<u32>>, len: usize) -> Repr {
        if len < SORTED_MIN_ROWS {
            return Repr::Hashed(postings);
        }
        let mut keys: Vec<Value> = postings.keys().copied().collect();
        keys.sort_unstable();
        let mut offsets: Vec<u32> = Vec::with_capacity(keys.len() + 1);
        let mut rows: Vec<u32> = Vec::with_capacity(len);
        offsets.push(0);
        for k in &keys {
            rows.extend_from_slice(&postings[k]);
            offsets.push(rows.len() as u32);
        }
        Repr::Sorted {
            keys,
            offsets,
            rows,
        }
    }
}

impl fmt::Debug for ColumnIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ColumnIndex({} keys, {})",
            self.first_keys.len(),
            if self.is_sorted() { "sorted" } else { "hashed" }
        )
    }
}

/// Lazily-populated per-column index slots carried by every
/// [`Relation`]. Thread-safe through `OnceLock` so concurrent queries
/// against one shared snapshot race at most on who builds first.
///
/// `Clone` deliberately yields a **cold** cache: a cloned relation may be
/// mutated (the catalog's copy-on-write path), and stale postings must
/// never survive that.
pub(crate) struct IndexCache {
    slots: OnceLock<Box<[OnceLock<Arc<ColumnIndex>>]>>,
}

impl IndexCache {
    /// The slot for column `col`, allocating the slot array (sized by
    /// `arity`) on first use.
    pub(crate) fn slot(&self, arity: usize, col: usize) -> &OnceLock<Arc<ColumnIndex>> {
        let slots = self
            .slots
            .get_or_init(|| (0..arity).map(|_| OnceLock::new()).collect());
        &slots[col]
    }

    /// The built index with the most distinct keys (the most selective
    /// probe), with its column; `None` when nothing is built.
    pub(crate) fn most_selective(&self) -> Option<(usize, &Arc<ColumnIndex>)> {
        self.slots
            .get()?
            .iter()
            .enumerate()
            .filter_map(|(col, slot)| Some((col, slot.get()?)))
            .max_by_key(|(_, ix)| ix.distinct_keys())
    }

    /// The cache for `row` appended at position `pos`: every index built
    /// here is [extended](ColumnIndex::extended) into the same slot;
    /// unbuilt slots stay unbuilt.
    pub(crate) fn extended(&self, row: &[Value], pos: u32) -> IndexCache {
        let Some(slots) = self.slots.get() else {
            return IndexCache::default();
        };
        let next: Box<[OnceLock<Arc<ColumnIndex>>]> = slots
            .iter()
            .zip(row)
            .map(|(slot, &v)| match slot.get() {
                Some(ix) => OnceLock::from(Arc::new(ix.extended(v, pos))),
                None => OnceLock::new(),
            })
            .collect();
        IndexCache {
            slots: OnceLock::from(next),
        }
    }

    /// Number of indexes currently built.
    pub(crate) fn built(&self) -> usize {
        self.slots
            .get()
            .map_or(0, |s| s.iter().filter(|l| l.get().is_some()).count())
    }
}

impl Default for IndexCache {
    fn default() -> Self {
        IndexCache {
            slots: OnceLock::new(),
        }
    }
}

impl Clone for IndexCache {
    fn clone(&self) -> Self {
        IndexCache::default()
    }
}

impl fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IndexCache({} built)", self.built())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrId, Schema};
    use crate::value::tuple;
    use proptest::prelude::*;

    fn rel(rows: &[[Value; 2]]) -> Relation {
        Relation::new(
            "r",
            Schema::new(vec![AttrId(0), AttrId(1)]),
            rows.iter().map(|r| tuple(r)).collect(),
        )
    }

    #[test]
    fn postings_are_ascending_and_complete() {
        let r = rel(&[[1, 10], [2, 20], [1, 30], [2, 40], [1, 50]]);
        let ix = ColumnIndex::build(&r, 0);
        assert_eq!(ix.postings(1), &[0, 2, 4]);
        assert_eq!(ix.postings(2), &[1, 3]);
        assert_eq!(ix.postings(9), &[] as &[u32]);
        assert!(!ix.is_sorted());
    }

    #[test]
    fn first_keys_preserve_first_occurrence_order() {
        let r = rel(&[[3, 0], [1, 0], [3, 0], [2, 0], [1, 0]]);
        let ix = ColumnIndex::build(&r, 0);
        assert_eq!(ix.first_keys(), &[3, 1, 2]);
        assert_eq!(ix.distinct_keys(), 3);
    }

    #[test]
    fn large_relations_use_the_sorted_repr() {
        let rows: Vec<[Value; 2]> = (0..SORTED_MIN_ROWS as Value).map(|i| [i % 97, i]).collect();
        let r = rel(&rows);
        let ix = ColumnIndex::build(&r, 0);
        assert!(ix.is_sorted());
        // Same answers as the hashed path would give.
        let expected: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, t)| t[0] == 13)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(ix.postings(13), expected.as_slice());
        assert_eq!(ix.postings(97), &[] as &[u32]);
    }

    /// `a` and `b` answer every probe alike and agree on layout.
    fn assert_same(a: &ColumnIndex, b: &ColumnIndex) {
        assert_eq!(a.first_keys(), b.first_keys());
        assert_eq!(a.is_sorted(), b.is_sorted());
        for &k in a.first_keys() {
            assert_eq!(a.postings(k), b.postings(k), "postings of {k}");
        }
        assert_eq!(a.rows_indexed(), b.rows_indexed());
    }

    #[test]
    fn extension_crosses_into_the_sorted_repr_like_a_build() {
        let mut rows: Vec<[Value; 2]> = (0..SORTED_MIN_ROWS as Value - 1)
            .map(|i| [i % 7, i])
            .collect();
        let ix = ColumnIndex::build(&rel(&rows), 0);
        assert!(!ix.is_sorted());
        rows.push([9, 0]);
        let grown = ix.extended(9, rows.len() as u32 - 1);
        assert!(grown.is_sorted());
        assert_same(&grown, &ColumnIndex::build(&rel(&rows), 0));
        assert_eq!(grown.first_keys().last(), Some(&9));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Extending an index row by row is indistinguishable from
        /// rebuilding it, on both sides of the hashed/sorted switch and
        /// for appended keys both old and new.
        #[test]
        fn extension_equals_rebuild(
            near_switch in prop::bool::ANY,
            base in 0usize..12,
            keys in 1u32..64,
            appended in prop::collection::vec((0u32..96, 0u32..1000), 1..16),
        ) {
            let len = if near_switch { SORTED_MIN_ROWS - 8 + base } else { base * 3 };
            let mut rows: Vec<[Value; 2]> =
                (0..len as Value).map(|i| [i.wrapping_mul(2654435761) % keys, i]).collect();
            let mut ix = ColumnIndex::build(&rel(&rows), 0);
            for (k, other) in appended {
                rows.push([k, other]);
                ix = ix.extended(k, rows.len() as u32 - 1);
                let rebuilt = ColumnIndex::build(&rel(&rows), 0);
                assert_same(&ix, &rebuilt);
                prop_assert_eq!(ix.postings(k), rebuilt.postings(k));
            }
        }
    }

    #[test]
    fn second_column_indexes_independently() {
        let r = rel(&[[1, 7], [2, 7], [3, 8]]);
        let ix = ColumnIndex::build(&r, 1);
        assert_eq!(ix.postings(7), &[0, 1]);
        assert_eq!(ix.first_keys(), &[7, 8]);
    }
}
