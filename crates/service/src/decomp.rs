//! Structure-keyed cache of chosen variable orders.
//!
//! Bucket elimination's expensive planning step is *decomposition*:
//! choosing the variable elimination order (MCS, min-degree, or min-fill
//! over the join graph). The [`crate::cache::PlanCache`] already reuses
//! whole plans, but its key includes the content fingerprint of the
//! relations the query reads — plans embed `Arc<Relation>` scans, so a
//! write to one of them rightly invalidates them. The variable order has
//! no such dependency: it is a
//! function of the query's *structure* alone. This cache exploits that
//! asymmetry. The key is [`DecompKey`]: query [`Fingerprint`] ×
//! [`OrderHeuristic`] × planner seed — deliberately **without** the data
//! fingerprint, so a write that forces a re-plan still skips
//! re-decomposition for every structurally repeated query.
//!
//! Variable orders are stored *rank-encoded*: a cached entry holds the
//! positions of the chosen order's variables within the query's
//! renaming-invariant [`ppr_query::canonical_var_order`]. Two isomorphic queries
//! disagree on raw [`AttrId`]s (each has its own interner), but they
//! share fingerprint, shape, and canonical-order length, so ranks decode
//! into the incoming query's own ids. For an exact repeat the decode is
//! the identity and the resulting plan is byte-identical to the cold one
//! (the `Decompose` pass consumes no randomness when a hint covers the
//! query — see `ppr_core::passes` and docs/PLANNING.md). For a renamed
//! repeat the decoded order is a valid total order over the new query's
//! variables; WL color ties mean it may differ from the order a fresh
//! decomposition would have chosen, but bucket construction is correct
//! under *any* total order, so collisions and tie-flips cost optimality,
//! never soundness.
//!
//! Shape check, races and eviction are those of the [`Lru`] shared with
//! the plan and result caches; every order weighs 1.

use ppr_core::methods::OrderHeuristic;
use ppr_query::Fingerprint;
use ppr_relalg::AttrId;

use crate::lru::Lru;

/// Cache key: canonical query structure × decomposition heuristic ×
/// planner seed. No database identity — the order is pure query
/// structure and survives catalog mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecompKey {
    /// Canonical query fingerprint.
    pub fingerprint: Fingerprint,
    /// Which elimination-order heuristic chose the order.
    pub heuristic: OrderHeuristic,
    /// Effective planner seed (heuristics break ties randomly).
    pub seed: u64,
}

/// Rank-encodes `order` against `canonical` (the query's
/// [`ppr_query::canonical_var_order`]): position `i` of the result is the index in
/// `canonical` of the `i`-th order variable. Returns `None` unless
/// `order` is exactly a permutation of `canonical` — anything else is
/// not a decomposition of this query and must not be cached.
pub fn encode_order(order: &[AttrId], canonical: &[AttrId]) -> Option<Vec<u32>> {
    if order.len() != canonical.len() {
        return None;
    }
    let mut ranks = Vec::with_capacity(order.len());
    for v in order {
        ranks.push(canonical.iter().position(|c| c == v)? as u32);
    }
    let mut seen = vec![false; canonical.len()];
    for &r in &ranks {
        if std::mem::replace(&mut seen[r as usize], true) {
            return None;
        }
    }
    Some(ranks)
}

/// Decodes `ranks` into the incoming query's own [`AttrId`]s via its
/// [`ppr_query::canonical_var_order`]. Returns `None` unless `ranks` is a
/// permutation of `0..canonical.len()` — a stale or colliding entry
/// yields a fresh decomposition, never a bad order.
pub fn decode_order(ranks: &[u32], canonical: &[AttrId]) -> Option<Vec<AttrId>> {
    if ranks.len() != canonical.len() {
        return None;
    }
    let mut seen = vec![false; canonical.len()];
    let mut order = Vec::with_capacity(ranks.len());
    for &r in ranks {
        let i = r as usize;
        if i >= canonical.len() || std::mem::replace(&mut seen[i], true) {
            return None;
        }
        order.push(canonical[i]);
    }
    Some(order)
}

/// Thread-safe LRU from [`DecompKey`] to rank-encoded variable orders,
/// one weight unit per order.
pub type DecompCache = Lru<DecompKey, Vec<u32>>;

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_query::{canonical_var_order, parse_query};

    #[test]
    fn rank_round_trip_is_identity_on_the_same_query() {
        let q = parse_query("q() :- e(a,b), e(b,c), e(c,a)").unwrap();
        let canonical = canonical_var_order(&q);
        let mut order = q.all_vars();
        order.reverse();
        let ranks = encode_order(&order, &canonical).unwrap();
        assert_eq!(decode_order(&ranks, &canonical).unwrap(), order);
    }

    #[test]
    fn renamed_query_decodes_to_its_own_ids() {
        // The pentagon under two different variable namings: ranks
        // encoded against one query's canonical order decode into the
        // other's AttrIds, covering every variable exactly once.
        let a = parse_query("q() :- e(a,b), e(b,c), e(c,d), e(d,f), e(f,a)").unwrap();
        let b = parse_query("q() :- e(v,w), e(u,v), e(z,u), e(y,z), e(w,y)").unwrap();
        let ca = canonical_var_order(&a);
        let cb = canonical_var_order(&b);
        let order = a.all_vars();
        let ranks = encode_order(&order, &ca).unwrap();
        let decoded = decode_order(&ranks, &cb).unwrap();
        let mut sorted = decoded.clone();
        sorted.sort_unstable();
        let mut all = b.all_vars();
        all.sort_unstable();
        assert_eq!(sorted, all, "decoded order must cover b's variables");
    }

    #[test]
    fn invalid_encodings_are_rejected() {
        let q = parse_query("q() :- e(a,b), e(b,c)").unwrap();
        let canonical = canonical_var_order(&q);
        let order = q.all_vars();
        // Too short.
        assert!(encode_order(&order[..2], &canonical).is_none());
        // Repeated variable.
        let dup = vec![order[0], order[0], order[1]];
        assert!(encode_order(&dup, &canonical).is_none());
        // Foreign variable id.
        let mut foreign = order.clone();
        foreign[0] = ppr_relalg::AttrId(9999);
        assert!(encode_order(&foreign, &canonical).is_none());
        // Bad ranks on decode: out of range, duplicated, wrong length.
        assert!(decode_order(&[0, 1, 7], &canonical).is_none());
        assert!(decode_order(&[0, 1, 1], &canonical).is_none());
        assert!(decode_order(&[0, 1], &canonical).is_none());
    }
}
