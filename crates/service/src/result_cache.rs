//! Content-keyed result cache: rows with zero execution.
//!
//! The plan cache amortizes *planning*; this cache amortizes *execution*.
//! It is the serving-side analogue of reusing decompositions across
//! isomorphic instances: the key ([`CacheKey`]) is the content hash of
//! the relations the query reads, crossed with the canonical query
//! identity, method and seed. So a repeated query — under any variable
//! renaming or atom reordering, against the same database or any whose
//! read relations hold the same tuples (another name, another load
//! order, a recovered post-crash catalog) — returns its rows without
//! touching the executor. **A mutation of a relation the query reads
//! invalidates naturally**: it changes the read-set hash, the next
//! request computes a key nobody has written, and the stale entry ages
//! out of the LRU. There is no purge logic to get wrong — and nothing to
//! *wrongly* purge: a restart, a no-op mutation, or a write to a relation
//! the query does not read keeps the key, so warm entries survive all
//! three.
//!
//! Results (unlike plans) have data-dependent size, so each entry
//! weighs its [`CachedResult::approx_bytes`] and the [`Lru`] capacity is
//! a byte budget. Key, shape check, races and eviction are shared with
//! the plan cache (see [`crate::cache`] and [`crate::lru`]).
//!
//! Budgets are deliberately *not* part of the key: execution budgets
//! bound work, successful results are budget-independent (an exhausted
//! budget is an error, never a truncation), and a hit does no work at
//! all, so it cannot exceed any budget.

use std::sync::Arc;

use ppr_relalg::{ExecStats, Value};

use crate::cache::CacheKey;
use crate::catalog::DbVersion;
use crate::lru::Lru;

/// The cached outcome of one successful evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// Output column names of the query that produced the rows. Cached
    /// per *fingerprint*, so a renamed variant of the query receives the
    /// original's column names; positions (and rows) are identical.
    pub columns: Vec<String>,
    /// Result rows, byte-identical to cold execution at this version.
    pub rows: Vec<Box<[Value]>>,
    /// Stats of the execution that originally produced the rows.
    pub stats: ExecStats,
    /// The catalog version the rows were computed at. A hit at a later
    /// version is a write the read-set key left valid
    /// (`ppr_result_cache_retained_hits_total`).
    pub version: DbVersion,
}

impl CachedResult {
    /// Approximate heap footprint, used for the byte budget. Counts the
    /// row payload exactly and the per-row/column overheads approximately;
    /// the budget is a sizing knob, not an allocator audit.
    pub fn approx_bytes(&self) -> usize {
        let row_overhead = std::mem::size_of::<Box<[Value]>>();
        let rows: usize = self
            .rows
            .iter()
            .map(|r| r.len() * std::mem::size_of::<Value>() + row_overhead)
            .sum();
        let columns: usize = self.columns.iter().map(|c| c.len() + 24).sum();
        rows + columns + std::mem::size_of::<Self>()
    }
}

/// Thread-safe LRU from [`CacheKey`] to rows, weighted by
/// [`CachedResult::approx_bytes`] so the capacity is a byte budget.
/// A zero budget disables caching entirely (every lookup misses
/// uncounted, every insert is dropped), which isolates the plan cache in
/// tests.
pub type ResultCache = Lru<CacheKey, Arc<CachedResult>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DbFingerprint;
    use ppr_core::methods::Method;
    use ppr_query::{parse_query, Fingerprint, QueryShape};

    fn key(fp: u128) -> CacheKey {
        CacheKey {
            data: DbFingerprint(1),
            fingerprint: Fingerprint(fp),
            method: Method::Straightforward,
            seed: 0,
        }
    }

    fn result(rows: usize) -> Arc<CachedResult> {
        Arc::new(CachedResult {
            columns: vec!["x".into()],
            rows: (0..rows as Value)
                .map(|i| vec![i, i].into_boxed_slice())
                .collect(),
            stats: ExecStats::default(),
            version: DbVersion(1),
        })
    }

    fn insert(c: &ResultCache, fp: u128, shape: &QueryShape, r: Arc<CachedResult>) {
        let bytes = r.approx_bytes();
        c.insert(key(fp), shape.clone(), r, bytes);
    }

    #[test]
    fn colliding_displacement_stays_within_the_byte_budget() {
        // Two small results fill the budget; a larger result displacing
        // the first through a fingerprint collision must evict the other
        // small one rather than overrun the budget.
        let shape = QueryShape::of(&parse_query("q(x) :- e(x, y)").unwrap());
        let other = QueryShape::of(&parse_query("q(x) :- e(x, y), e(y, z)").unwrap());
        let (small, large) = (result(2), result(6));
        let capacity = 2 * small.approx_bytes();
        assert!(small.approx_bytes() < large.approx_bytes() && large.approx_bytes() <= capacity);
        let c = ResultCache::new(capacity);
        insert(&c, 1, &shape, small.clone());
        insert(&c, 2, &shape, small);
        insert(&c, 1, &other, large.clone());
        let s = c.stats();
        assert!(
            s.weight <= s.capacity,
            "{} bytes over a {} budget",
            s.weight,
            s.capacity
        );
        assert_eq!((s.len, s.evictions, s.weight), (1, 1, large.approx_bytes()));
        assert_eq!(c.get(&key(1), &other), Some(large));
        assert!(c.get(&key(2), &shape).is_none());
    }
}
