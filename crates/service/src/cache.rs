//! Fingerprint-keyed plan cache.
//!
//! Planning is the per-request fixed cost the serving layer exists to
//! amortize: for the structural methods it is pure query analysis
//! (independent of the data), so a compiled [`Plan`] is reusable for every
//! future request whose query is *isomorphic* to the one that built it.
//! The cache key is [`CacheKey`]: database *content* ([`DbFingerprint`]),
//! [`Fingerprint`], [`Method`], and planner seed. The query fingerprint
//! quotients out variable renaming and atom order; the seed is part of
//! the key because it breaks planner ties, so plans built under different
//! seeds may legitimately differ; and the data identity is part of the
//! key because a compiled plan *embeds* `Arc<Relation>` handles in its
//! scan leaves. Keying on the content hash rather than on the database's
//! name + version means isomorphic databases (same content under another
//! name, load order, or a post-crash recovery) share plans, while any
//! content-changing mutation naturally invalidates: the new fingerprint
//! makes a fresh key and the stale entry ages out of the LRU. A plan hit
//! from a *different* (content-identical) database executes the embedded
//! snapshot's relations — same tuple sets, so same answers. The value is
//! an `Arc<Plan>` shared with however many requests are concurrently
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

/// Plan- and result-cache key: data identity (database content hash) ×
/// canonical query identity × planning method × planner seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content fingerprint of the database the plan's scans are bound to.
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
