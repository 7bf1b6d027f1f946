//! The one LRU behind the plan, result and decomposition caches.
//!
//! [`Lru`] is a thread-safe, weight-budgeted, shape-verified LRU map.
//! The engine runs three instances of it: the plan cache
//! ([`crate::cache::PlanCache`]), the result cache
//! ([`crate::result_cache::ResultCache`]) and the decomposition cache
//! ([`crate::decomp::DecompCache`]). They differ only in key, value and
//! weight; everything below is shared.
//!
//! **Identity.** Keys carry a 1-WL query [`ppr_query::Fingerprint`],
//! which non-isomorphic queries *can* share. Every entry therefore also
//! stores the [`QueryShape`] of the query that built it, and a lookup
//! only hits when the incoming query's shape is equal. A key match with
//! a different shape counts as a miss plus a `collisions`, and the next
//! [`insert`](Lru::insert) for that key displaces the entry, so a
//! collision costs a recomputation, never a wrong answer.
//!
//! **Races.** When two requests compute the same key concurrently, the
//! first insert wins for an equal shape and its value is returned to the
//! second caller, so all of them use one value.
//!
//! **Budget.** Capacity is in caller-chosen weight units: plans and
//! orders weigh 1, results their approximate byte size. Inserts evict
//! least-recently-used entries until the total weight fits, never the
//! entry being written. A value heavier than the whole capacity is
//! refused (counted in `oversized`) instead of flushing everything
//! else, and capacity 0 disables the cache outright: lookups and inserts
//! do nothing and count nothing.
//!
//! Recency is an intrusive doubly-linked list threaded through a slab,
//! so `get` and `insert` are O(1) plus evictions and never scan.

use std::hash::Hash;
use std::sync::Mutex;

use ppr_query::QueryShape;
use rustc_hash::FxHashMap;

const NIL: usize = usize::MAX;

/// Counter snapshot and occupancy of one [`Lru`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LruStats {
    /// Lookups that returned a cached value.
    pub hits: u64,
    /// Lookups that returned nothing, collisions included.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Lookups whose key matched but whose [`QueryShape`] did not: a
    /// fingerprint collision between structurally different queries.
    /// Each is also counted as a miss.
    pub collisions: u64,
    /// Inserts refused because the value alone outweighs the capacity.
    pub oversized: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Total weight currently cached.
    pub weight: usize,
    /// Maximum total weight (0 = caching disabled).
    pub capacity: usize,
}

impl LruStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Node<K, V> {
    key: K,
    shape: QueryShape,
    value: V,
    weight: usize,
    prev: usize,
    next: usize,
}

struct Inner<K, V> {
    map: FxHashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    /// Counters and total weight; `len` and `capacity` are filled in by
    /// [`Lru::stats`].
    stats: LruStats,
}

impl<K: Eq + Hash, V> Inner<K, V> {
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Drops the least-recently-used entry. The slab stays dense: the
    /// last node moves into the freed slot, so an evicted value is
    /// released at once instead of lingering in a free list.
    fn evict_tail(&mut self) {
        let i = self.tail;
        self.unlink(i);
        let node = self.nodes.swap_remove(i);
        self.map.remove(&node.key);
        self.stats.weight -= node.weight;
        self.stats.evictions += 1;
        if i < self.nodes.len() {
            let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
            if prev == NIL {
                self.head = i;
            } else {
                self.nodes[prev].next = i;
            }
            if next == NIL {
                self.tail = i;
            } else {
                self.nodes[next].prev = i;
            }
            *self
                .map
                .get_mut(&self.nodes[i].key)
                .expect("moved node is mapped") = i;
        }
    }
}

/// Thread-safe, weight-budgeted LRU from `K` to `V` with a
/// [`QueryShape`] check on every hit (see the module docs).
pub struct Lru<K, V> {
    inner: Mutex<Inner<K, V>>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// A cache holding at most `capacity` weight units (0 disables it).
    pub fn new(capacity: usize) -> Self {
        Lru {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                nodes: Vec::new(),
                head: NIL,
                tail: NIL,
                stats: LruStats::default(),
            }),
            capacity,
        }
    }

    /// Looks up `key`, counting a hit (and refreshing recency) or a miss.
    /// A key match whose stored shape differs from `shape` is a
    /// collision: a miss that returns `None`.
    pub fn get(&self, key: &K, shape: &QueryShape) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock().expect("lru lock");
        match inner.map.get(key).copied() {
            Some(i) if inner.nodes[i].shape == *shape => {
                inner.unlink(i);
                inner.push_front(i);
                inner.stats.hits += 1;
                Some(inner.nodes[i].value.clone())
            }
            Some(_) => {
                inner.stats.collisions += 1;
                inner.stats.misses += 1;
                None
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` of `weight` under `key` and returns the value now
    /// resident. An equal-shape entry already under `key` wins the race
    /// and is returned; a different shape is displaced. Least-recently-used
    /// entries are then evicted until the weight fits. A refused insert
    /// (disabled cache or oversized value) returns `value` unchanged.
    pub fn insert(&self, key: K, shape: QueryShape, value: V, weight: usize) -> V {
        if self.capacity == 0 {
            return value;
        }
        let mut guard = self.inner.lock().expect("lru lock");
        let inner = &mut *guard;
        if weight > self.capacity {
            inner.stats.oversized += 1;
            return value;
        }
        match inner.map.get(&key).copied() {
            Some(i) => {
                let node = &mut inner.nodes[i];
                if node.shape != shape {
                    inner.stats.weight = inner.stats.weight - node.weight + weight;
                    node.weight = weight;
                    node.shape = shape;
                    node.value = value;
                }
                inner.unlink(i);
                inner.push_front(i);
            }
            None => {
                inner.nodes.push(Node {
                    key: key.clone(),
                    shape,
                    value,
                    weight,
                    prev: NIL,
                    next: NIL,
                });
                let i = inner.nodes.len() - 1;
                inner.push_front(i);
                inner.map.insert(key, i);
                inner.stats.weight += weight;
            }
        }
        // The written entry is at the head and fits on its own, so the
        // loop stops before reaching it.
        while inner.stats.weight > self.capacity {
            inner.evict_tail();
        }
        let head = inner.head;
        inner.nodes[head].value.clone()
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> LruStats {
        let inner = self.inner.lock().expect("lru lock");
        LruStats {
            len: inner.map.len(),
            capacity: self.capacity,
            ..inner.stats
        }
    }

    /// Keys from most to least recently used, walking the list both ways
    /// to check its links.
    #[cfg(test)]
    fn recency(&self) -> Vec<K> {
        let inner = self.inner.lock().expect("lru lock");
        let mut forward = Vec::new();
        let mut i = inner.head;
        while i != NIL {
            forward.push(inner.nodes[i].key.clone());
            i = inner.nodes[i].next;
        }
        let mut backward = Vec::new();
        let mut i = inner.tail;
        while i != NIL {
            backward.push(inner.nodes[i].key.clone());
            i = inner.nodes[i].prev;
        }
        backward.reverse();
        assert!(forward == backward, "list links disagree");
        assert_eq!(forward.len(), inner.map.len());
        forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::catalog::DbFingerprint;
    use crate::decomp::DecompKey;
    use ppr_core::methods::{Method, OrderHeuristic};
    use ppr_query::{parse_query, Fingerprint};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn shapes() -> [QueryShape; 2] {
        [
            QueryShape::of(&parse_query("q(x) :- e(x, y)").unwrap()),
            QueryShape::of(&parse_query("q(x) :- e(x, y), e(y, z)").unwrap()),
        ]
    }

    /// Naive reference: entries ordered most recent first, every
    /// operation a linear scan.
    struct Model {
        entries: Vec<(u8, usize, u32, usize)>, // key, shape, value, weight
        capacity: usize,
        stats: LruStats,
    }

    impl Model {
        fn weight(&self) -> usize {
            self.entries.iter().map(|e| e.3).sum()
        }

        fn get(&mut self, key: u8, shape: usize) -> Option<u32> {
            if self.capacity == 0 {
                return None;
            }
            let Some(pos) = self.entries.iter().position(|e| e.0 == key) else {
                self.stats.misses += 1;
                return None;
            };
            if self.entries[pos].1 != shape {
                self.stats.collisions += 1;
                self.stats.misses += 1;
                return None;
            }
            let e = self.entries.remove(pos);
            self.entries.insert(0, e);
            self.stats.hits += 1;
            Some(e.2)
        }

        fn insert(&mut self, key: u8, shape: usize, value: u32, weight: usize) -> u32 {
            if self.capacity == 0 {
                return value;
            }
            if weight > self.capacity {
                self.stats.oversized += 1;
                return value;
            }
            let mut e = (key, shape, value, weight);
            if let Some(pos) = self.entries.iter().position(|e| e.0 == key) {
                let old = self.entries.remove(pos);
                if old.1 == shape {
                    e = old;
                }
            }
            self.entries.insert(0, e);
            while self.weight() > self.capacity {
                self.entries.pop();
                self.stats.evictions += 1;
            }
            self.entries[0].2
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lru_matches_the_reference_model(
            capacity in 0usize..8,
            ops in prop::collection::vec((prop::bool::ANY, 0u8..6, 0usize..2, 1usize..10), 0..80),
        ) {
            let shapes = shapes();
            let lru: Lru<u8, u32> = Lru::new(capacity);
            let mut model = Model { entries: Vec::new(), capacity, stats: LruStats::default() };
            let mut lookups = 0;
            for (step, &(is_get, key, shape, weight)) in ops.iter().enumerate() {
                if is_get {
                    lookups += 1;
                    prop_assert_eq!(lru.get(&key, &shapes[shape]), model.get(key, shape));
                } else {
                    let value = step as u32;
                    prop_assert_eq!(
                        lru.insert(key, shapes[shape].clone(), value, weight),
                        model.insert(key, shape, value, weight)
                    );
                }
                let order: Vec<u8> = model.entries.iter().map(|e| e.0).collect();
                prop_assert_eq!(lru.recency(), order);
                let s = lru.stats();
                prop_assert_eq!(
                    s,
                    LruStats {
                        len: model.entries.len(),
                        weight: model.weight(),
                        capacity,
                        ..model.stats
                    }
                );
                prop_assert!(s.weight <= s.capacity);
                let counted = if capacity == 0 { 0 } else { lookups };
                prop_assert_eq!(s.hits + s.misses, counted);
            }
        }
    }

    /// Inserts under `base`, then checks that `variant` misses while
    /// `base` still hits.
    fn assert_distinct<K: Eq + Hash + Clone + std::fmt::Debug>(base: K, variant: K) {
        let [shape, _] = shapes();
        let lru = Lru::new(4);
        lru.insert(base.clone(), shape.clone(), (), 1);
        assert!(
            lru.get(&variant, &shape).is_none(),
            "{variant:?} hit {base:?}"
        );
        assert!(lru.get(&base, &shape).is_some());
    }

    #[test]
    fn every_key_field_separates_entries() {
        let base = CacheKey {
            data: DbFingerprint(1),
            fingerprint: Fingerprint(7),
            method: Method::Straightforward,
            seed: 0,
        };
        // Plans embed the scanned relations, so the data is part of the
        // key; the seed breaks planner ties, so plans and rows built
        // under different seeds may differ.
        for variant in [
            CacheKey {
                data: DbFingerprint(2),
                ..base
            },
            CacheKey {
                fingerprint: Fingerprint(8),
                ..base
            },
            CacheKey {
                method: Method::EarlyProjection,
                ..base
            },
            CacheKey { seed: 1, ..base },
        ] {
            assert_distinct(base, variant);
        }
        // Orders depend on query structure alone: no data fingerprint.
        let base = DecompKey {
            fingerprint: Fingerprint(7),
            heuristic: OrderHeuristic::Mcs,
            seed: 0,
        };
        for variant in [
            DecompKey {
                fingerprint: Fingerprint(8),
                ..base
            },
            DecompKey {
                heuristic: OrderHeuristic::MinFill,
                ..base
            },
            DecompKey { seed: 1, ..base },
        ] {
            assert_distinct(base, variant);
        }
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let [shape, _] = shapes();
        let lru = Arc::new(Lru::new(8));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let (lru, shape) = (lru.clone(), shape.clone());
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = (t * 4 + i) % 16;
                        if lru.get(&k, &shape).is_none() {
                            lru.insert(k, shape.clone(), i, 1 + (i % 3) as usize);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = lru.stats();
        assert_eq!(s.hits + s.misses, 800, "every lookup is counted once");
        assert!(s.weight <= s.capacity);
        assert_eq!(lru.recency().len(), s.len);
    }
}
