//! Fingerprint-keyed plan cache.
//!
//! Planning is the per-request fixed cost the serving layer exists to
//! amortize: for the structural methods it is pure query analysis
//! (independent of the data), so a compiled [`Plan`] is reusable for every
//! future request whose query is *isomorphic* to the one that built it.
//! The cache key is [`CacheKey`]: the content hash of the relations the
//! query reads (its *read set*, see
//! [`DbSnapshot::read_set_fingerprint`](crate::catalog::DbSnapshot::read_set_fingerprint)),
//! [`Fingerprint`], [`Method`], and planner seed. The query fingerprint
//! quotients out variable renaming and atom order; the seed is part of
//! the key because it breaks planner ties, so plans built under different
//! seeds may legitimately differ; and the data identity is part of the
//! key because a compiled plan *embeds* `Arc<Relation>` handles in its
//! scan leaves — exactly one per relation its atoms name, which is why
//! hashing those relations suffices. Keying on content rather than on
//! the database's name + version means content-identical data (another
//! name, load order, or a post-crash recovery) shares plans, a write to
//! a relation the query reads naturally invalidates (the new hash makes
//! a fresh key and the stale entry ages out of the LRU), and a write to
//! any other relation leaves the plan valid. A plan hit from a different
//! database or version executes the embedded relations — the same tuple
//! sets as the current snapshot's, so the same answers. The value is an
//! `Arc<Plan>` shared with however many requests are concurrently
//! executing it.
//!
//! The result cache ([`crate::result_cache`]) uses the same key. Hit,
//! collision, race and eviction rules are those of [`Lru`]; every plan
//! weighs 1, so the capacity counts plans.

use std::sync::Arc;

use ppr_core::methods::Method;
use ppr_query::Fingerprint;
use ppr_relalg::Plan;

use crate::catalog::DbFingerprint;
use crate::lru::Lru;

/// Plan- and result-cache key: data identity (content hash of the
/// relations the query reads) × canonical query identity × planning
/// method × planner seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content hash of the relations the query's atoms name — the ones
    /// the plan's scans are bound to.
    pub data: DbFingerprint,
    /// Canonical query fingerprint.
    pub fingerprint: Fingerprint,
    /// Planning method.
    pub method: Method,
    /// Effective planner seed.
    pub seed: u64,
}

/// Thread-safe LRU from [`CacheKey`] to compiled plans, one weight unit
/// per plan.
pub type PlanCache = Lru<CacheKey, Arc<Plan>>;
