//! A multi-database catalog with copy-on-write versioned snapshots,
//! content-hash identities, and optional durability.
//!
//! The paper's regime is many queries over *tiny* databases, and a
//! long-lived server wants to hold many such databases at once — one per
//! tenant, workload, or experiment — and mutate them over the wire
//! without pausing query traffic. The [`Catalog`] is that collection:
//!
//! * Every database carries a [`DbVersion`] that increases monotonically
//!   across the whole catalog on every mutation (`create`, `load`, `add`,
//!   `insert`) — the number clients see in `ok db=… version=…` acks and
//!   the slow-query log. With a durable catalog the version is persisted
//!   and resumes above its pre-crash high-water mark.
//! * Every snapshot also carries a [`DbFingerprint`]: a 128-bit
//!   **content hash** of the database (relation names, arities, and
//!   tuple *sets* — independent of load order, database name, and
//!   internal column ids). The fingerprint combines one digest per
//!   relation, and the digests travel with the snapshot, so a mutation
//!   rehashes only what it changes. The result and plan caches key on
//!   the same fold over just the relations a query reads
//!   ([`DbSnapshot::read_set_fingerprint`]), so content-identical data
//!   shares cache entries, a recovered database resumes its pre-crash
//!   cache identity, and a write leaves valid every entry whose query
//!   does not read the written relation.
//! * Writes cost their delta. An `add` probes for a duplicate through an
//!   index already built, adjusts one relation digest by one tuple hash,
//!   and extends that relation's built indexes into its successor
//!   ([`Relation::with_new_row`]), so the next query starts warm. What
//!   remains proportional to the relation is one copy of its row vector.
//!   A `load` recomputes only the digest of the relation it replaces.
//! * Reads are **copy-on-write snapshots**: [`Catalog::snapshot`] hands
//!   back an `Arc<Database>` plus its version and fingerprint, and
//!   in-flight requests keep that consistent snapshot for as long as
//!   they need it. Writers build the successor database beside the
//!   current one (a [`Database`] clone is cheap — a map of
//!   `Arc<Relation>` handles) and publish it with a brief map-lock swap,
//!   so **writers never block readers** — not even on the durable
//!   catalog's commit `fsync`, which happens outside the map lock.
//! * Writers are serialized against each other by a separate mutex, so
//!   two concurrent `add`s both land (no lost read-modify-write).
//!
//! ## Durability
//!
//! [`Catalog::open`] recovers a catalog from a data directory and wires
//! a [`Persister`] (the `ppr-durability` store) into every mutating
//! path: the mutation is logged — and under the default sync policy
//! `fsync`ed — *before* it is published, so a client that saw `ok` will
//! see the mutation after a crash. A persist failure aborts the
//! mutation with [`CatalogError::Persist`]; the in-memory state never
//! runs ahead of the log. Catalogs built with [`Catalog::new`] /
//! [`Catalog::with_default`] have no persister and behave exactly as
//! before — memory-only mode is byte-for-byte unchanged on the wire.
//!
//! Relations created over the wire get fresh [`AttrId`] columns from a
//! catalog-wide allocator, far above the interned query-variable space,
//! so wire-loaded schemas can never collide with query variables or the
//! CLI's `--rel` columns. Attribute ids are *not* persisted — recovery
//! re-allocates them — which is safe because query evaluation binds
//! columns by position and the fingerprint deliberately excludes them.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ppr_durability::{
    DbContents, DurabilityStats, DurableStore, Persister, RecoveryError, RecoveryReport,
    RelationData, StoreOptions,
};
use ppr_query::Database;
use ppr_relalg::{AttrId, Relation, Schema, Value};
use rustc_hash::FxHashMap;

/// The database every request runs against when it does not name one.
pub const DEFAULT_DB: &str = "default";

/// First column id handed to wire-created relations. Above the CLI's
/// `--rel` base (10M) and far above interned query variables (which start
/// at 0), so the three id spaces never collide.
const WIRE_COL_BASE: u32 = 20_000_000;

/// A monotonically increasing database version. Bumped by every mutation
/// and unique across the catalog's lifetime (two live databases never
/// share a version). Durable catalogs persist it, so versions keep
/// increasing across restarts. The caches key on content hashes, not on
/// this — the version is the *observable* mutation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DbVersion(pub u64);

impl fmt::Display for DbVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A 128-bit content hash of one database: relation names, arities, and
/// tuple sets, combined order-independently. Two databases with the same
/// content — regardless of name, load order, or internal column ids —
/// get the same fingerprint, and any content change (including via
/// crash recovery replaying a different history) changes it.
///
/// The hash is two independently-seeded passes of the standard library's
/// deterministic SipHash (`DefaultHasher::new`), so it is stable across
/// processes of the same build — which is what lets a recovered database
/// resume its pre-crash cache identity. It is *not* cryptographic:
/// collisions are astronomically unlikely by accident but constructible
/// on purpose, the same stance the query-fingerprint caches take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DbFingerprint(pub u128);

impl fmt::Display for DbFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Content hash of `db`. Relations are visited in sorted name order and
/// each relation's tuples are combined with an order-independent sum, so
/// the result depends only on the database's logical content.
///
/// This is the from-scratch reference; the catalog arrives at the same
/// bits incrementally (one relation digest adjusted per mutation).
pub fn fingerprint_db(db: &Database) -> DbFingerprint {
    combine(digests_of(db).iter())
}

/// One relation's share of a [`DbFingerprint`]: its arity, its tuple
/// count, and per hash pass the wrapping sum of its tuple hashes. The
/// sums are order-independent, so appending a tuple is one addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RelDigest {
    arity: usize,
    count: u64,
    sums: [u64; 2],
}

impl RelDigest {
    /// The digest of every tuple of `rel` (a bag counts duplicates).
    fn of(rel: &Relation) -> RelDigest {
        let mut digest = RelDigest {
            arity: rel.arity(),
            count: 0,
            sums: [0; 2],
        };
        for t in rel.tuples() {
            digest.add(t);
        }
        digest
    }

    /// Accounts for one more tuple.
    fn add(&mut self, t: &[Value]) {
        for (pass, sum) in self.sums.iter_mut().enumerate() {
            let mut th = DefaultHasher::new();
            (pass as u64).hash(&mut th);
            t.hash(&mut th);
            *sum = sum.wrapping_add(th.finish());
        }
        self.count += 1;
    }
}

/// Folds per-relation digests into a fingerprint. The caller yields each
/// relation once, in ascending name order: all of a database's relations
/// for its [`DbFingerprint`], a query's read set for its cache key. Two
/// independently seeded hashers, one per word.
fn combine<'a, I>(digests: I) -> DbFingerprint
where
    I: Iterator<Item = (&'a String, &'a RelDigest)> + Clone,
{
    // Domain-separate the two passes so they are independent.
    let mut hashers = [0u64, 1].map(|pass| {
        let mut h = DefaultHasher::new();
        (0x7072_7062_6466_7030u64 + pass).hash(&mut h);
        h
    });
    let len = digests.clone().count();
    for h in &mut hashers {
        len.hash(h);
    }
    for (name, d) in digests {
        for (h, sum) in hashers.iter_mut().zip(d.sums) {
            name.hash(h);
            d.arity.hash(h);
            d.count.hash(h);
            sum.hash(h);
        }
    }
    let [hi, lo] = hashers.map(|h| h.finish());
    DbFingerprint(((hi as u128) << 64) | lo as u128)
}

/// Per-relation digests of one published database, by relation name (a
/// `BTreeMap`, so iteration is the sorted order [`combine`] needs).
type Digests = BTreeMap<String, RelDigest>;

/// The digest of every relation of `db`, from scratch.
fn digests_of(db: &Database) -> Digests {
    db.names()
        .into_iter()
        .map(|name| {
            let rel = db.get(name).expect("name came from names()");
            (name.to_string(), RelDigest::of(rel))
        })
        .collect()
}

/// A consistent read view of one database: the shared data plus the
/// version and content fingerprint it was published under. Requests hold
/// one snapshot end to end, so a concurrent mutation can never tear a
/// single evaluation.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    /// The shared, immutable database at this version.
    pub db: Arc<Database>,
    /// The version the snapshot was published under.
    pub version: DbVersion,
    /// Content hash of `db`: [`DbSnapshot::read_set_fingerprint`] over
    /// every relation.
    pub fingerprint: DbFingerprint,
    /// The per-relation digests `fingerprint` combines. They travel with
    /// `db`, so a writer starting from this snapshot adjusts exactly the
    /// digests of the content it copies.
    digests: Arc<Digests>,
}

impl DbSnapshot {
    /// The content hash of just the relations named in `relations` — the
    /// plan and result caches' data key. Each relation counts once, in
    /// name order, whatever the order and repetition of `relations`;
    /// names this database lacks are ignored. Over every relation name it
    /// equals [`DbSnapshot::fingerprint`], so a write to a relation
    /// outside the set leaves the key, and the cache entries under it,
    /// valid. Allocation-free: it walks the sorted digests and keeps
    /// those some name matches.
    pub fn read_set_fingerprint<'a, I>(&self, relations: I) -> DbFingerprint
    where
        I: Iterator<Item = &'a str> + Clone,
    {
        combine(
            self.digests
                .iter()
                .filter(move |(name, _)| relations.clone().any(|r| r == name.as_str())),
        )
    }
}

/// One row of [`Catalog::list`] — what the `dbs` wire verb reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbInfo {
    /// Database name.
    pub name: String,
    /// Current version.
    pub version: DbVersion,
    /// Current content fingerprint.
    pub fingerprint: DbFingerprint,
    /// Number of relations.
    pub relations: usize,
}

/// Why a catalog operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The named database does not exist.
    UnknownDatabase(String),
    /// `create` targeted a name that already exists.
    DatabaseExists(String),
    /// A tuple's arity disagreed with the relation (or with the other
    /// tuples in the same `load`).
    ArityMismatch {
        /// The relation being mutated.
        relation: String,
        /// Arity the relation (or the load's first tuple) has.
        have: usize,
        /// Arity the offending tuple carried.
        got: usize,
    },
    /// A bulk load carried no tuples, so the relation's arity is unknown.
    EmptyLoad(String),
    /// The durable catalog could not commit the mutation to its log; the
    /// mutation was not applied (in-memory state never runs ahead of the
    /// write-ahead log).
    Persist(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownDatabase(n) => write!(f, "unknown database: {n}"),
            CatalogError::DatabaseExists(n) => write!(f, "database already exists: {n}"),
            CatalogError::ArityMismatch {
                relation,
                have,
                got,
            } => write!(f, "{relation} has arity {have}, tuple has {got}"),
            CatalogError::EmptyLoad(r) => {
                write!(f, "load of {r} carries no tuples (arity unknown)")
            }
            CatalogError::Persist(e) => write!(f, "mutation not applied: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// A named collection of versioned databases, shared between the engine's
/// workers (readers) and the wire mutation verbs (writers).
pub struct Catalog {
    /// Name → current published snapshot. Held only for O(1) get/swap.
    map: Mutex<FxHashMap<String, DbSnapshot>>,
    /// Serializes writers so concurrent mutations cannot lose updates.
    /// Writers do their tuple work (and commit fsyncs) while holding only
    /// this, not `map`.
    write: Mutex<()>,
    /// Catalog-wide version fountain.
    ticks: AtomicU64,
    /// Column-id allocator for wire-created relations.
    next_col: AtomicU32,
    /// Durability hook; `None` for memory-only catalogs.
    persister: Option<Arc<dyn Persister>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty, memory-only catalog (no databases, not even
    /// [`DEFAULT_DB`]; nothing survives the process).
    pub fn new() -> Self {
        Catalog {
            map: Mutex::new(FxHashMap::default()),
            write: Mutex::new(()),
            ticks: AtomicU64::new(0),
            next_col: AtomicU32::new(WIRE_COL_BASE),
            persister: None,
        }
    }

    /// A memory-only catalog whose [`DEFAULT_DB`] is `db` — the migration
    /// path for everything that used to call `Engine::start(db, …)`.
    pub fn with_default(db: Database) -> Self {
        let catalog = Catalog::new();
        catalog
            .insert(DEFAULT_DB, db)
            .expect("memory-only insert cannot fail");
        catalog
    }

    /// Opens a durable catalog rooted at `data_dir` with the default
    /// store options (fsync on every commit): recovers every database
    /// from its newest snapshot plus write-ahead-log replay, resumes the
    /// version fountain above the recovered high-water mark, and hooks
    /// the store into every subsequent mutation.
    ///
    /// Recovery truncates torn log tails (unacknowledged residue of a
    /// crash) and refuses with a typed [`RecoveryError`] on anything
    /// worse — serving a wrong database is never an option.
    pub fn open(data_dir: impl Into<PathBuf>) -> Result<(Catalog, RecoveryReport), RecoveryError> {
        Catalog::open_with(data_dir, StoreOptions::default())
    }

    /// [`Catalog::open`] with explicit store tuning (sync policy,
    /// checkpoint cadence) — the bench's persistence axis and the tests
    /// use this.
    pub fn open_with(
        data_dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> Result<(Catalog, RecoveryReport), RecoveryError> {
        let (store, recovered, report) = DurableStore::open(data_dir, options)?;
        let mut catalog = Catalog::new();
        catalog.ticks = AtomicU64::new(report.max_version);
        {
            let mut map = catalog.map.lock().expect("catalog map lock");
            for db in recovered {
                let database = catalog.rebuild(db.contents);
                let digests = digests_of(&database);
                map.insert(
                    db.name,
                    snapshot_of(Arc::new(database), Arc::new(digests), DbVersion(db.version)),
                );
            }
        }
        catalog.persister = Some(Arc::new(store));
        Ok((catalog, report))
    }

    /// Converts recovered contents back into a [`Database`], allocating
    /// fresh column ids (ids are not persisted; evaluation binds columns
    /// by position).
    fn rebuild(&self, contents: DbContents) -> Database {
        let mut database = Database::new();
        for rel in contents.relations {
            let base = self.next_col.fetch_add(rel.arity as u32, Ordering::Relaxed);
            let schema = Schema::new((0..rel.arity as u32).map(|i| AttrId(base + i)).collect());
            let mut relation = Relation::new(&rel.name, schema, rel.tuples);
            relation.dedup();
            database.add(relation);
        }
        database
    }

    /// The durability hook, if this catalog persists (set by
    /// [`Catalog::open`]).
    pub fn persister(&self) -> Option<&Arc<dyn Persister>> {
        self.persister.as_ref()
    }

    /// Durability counters, if this catalog persists.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.persister.as_ref().map(|p| p.stats())
    }

    fn next_version(&self) -> DbVersion {
        DbVersion(self.ticks.fetch_add(1, Ordering::Relaxed) + 1)
    }

    fn persist<F>(&self, commit: F) -> Result<(), CatalogError>
    where
        F: FnOnce(&dyn Persister) -> Result<(), ppr_durability::PersistError>,
    {
        match &self.persister {
            Some(p) => commit(p.as_ref()).map_err(|e| CatalogError::Persist(e.to_string())),
            None => Ok(()),
        }
    }

    /// Publishes `db` under `name`, creating or wholesale-replacing it.
    /// This is the embedded (in-process) entry point; the wire verbs go
    /// through [`create`](Catalog::create) / [`load`](Catalog::load) /
    /// [`add`](Catalog::add). Returns the new version. On a durable
    /// catalog the whole database is checkpointed first; a persist
    /// failure leaves the catalog unchanged.
    pub fn insert(&self, name: impl Into<String>, db: Database) -> Result<DbVersion, CatalogError> {
        let name = name.into();
        let _w = self.write.lock().expect("catalog write lock");
        let version = self.next_version();
        self.persist(|p| p.record_insert(&name, &contents_of(&db), version.0))?;
        let digests = digests_of(&db);
        self.publish_at(&name, Arc::new(db), Arc::new(digests), version);
        Ok(version)
    }

    /// Creates an empty database. Fails if the name is taken (use
    /// [`insert`](Catalog::insert) to replace).
    pub fn create(&self, name: &str) -> Result<DbVersion, CatalogError> {
        let _w = self.write.lock().expect("catalog write lock");
        if self
            .map
            .lock()
            .expect("catalog map lock")
            .contains_key(name)
        {
            return Err(CatalogError::DatabaseExists(name.to_string()));
        }
        let version = self.next_version();
        self.persist(|p| p.record_create(name, version.0))?;
        self.publish_at(name, Arc::new(Database::new()), Arc::default(), version);
        Ok(version)
    }

    /// Removes a database. In-flight requests holding its snapshot finish
    /// normally; only new snapshots fail. On a durable catalog the drop
    /// is made durable before it is visible.
    pub fn drop_db(&self, name: &str) -> Result<(), CatalogError> {
        let _w = self.write.lock().expect("catalog write lock");
        if !self
            .map
            .lock()
            .expect("catalog map lock")
            .contains_key(name)
        {
            return Err(CatalogError::UnknownDatabase(name.to_string()));
        }
        let version = self.next_version();
        self.persist(|p| p.record_drop(name, version.0))?;
        self.map.lock().expect("catalog map lock").remove(name);
        Ok(())
    }

    /// The current snapshot of `name`, or `None` if absent. O(1): an Arc
    /// clone under a briefly-held lock.
    pub fn snapshot(&self, name: &str) -> Option<DbSnapshot> {
        self.map
            .lock()
            .expect("catalog map lock")
            .get(name)
            .cloned()
    }

    /// Bulk-loads `rel` in database `db`, **replacing** any existing
    /// relation of that name. All tuples must share one arity; at least
    /// one tuple is required (an empty load has no arity to infer).
    /// Returns the database's new version.
    pub fn load(
        &self,
        db: &str,
        rel: &str,
        tuples: Vec<Box<[Value]>>,
    ) -> Result<DbVersion, CatalogError> {
        let Some(first) = tuples.first() else {
            return Err(CatalogError::EmptyLoad(rel.to_string()));
        };
        let arity = first.len();
        for t in &tuples {
            if t.len() != arity {
                return Err(CatalogError::ArityMismatch {
                    relation: rel.to_string(),
                    have: arity,
                    got: t.len(),
                });
            }
        }
        let _w = self.write.lock().expect("catalog write lock");
        let current = self
            .snapshot(db)
            .ok_or_else(|| CatalogError::UnknownDatabase(db.to_string()))?;
        // Tuple work happens here, outside the map lock: readers snapshot
        // the *old* version undisturbed until the swap below.
        let base = self.next_col.fetch_add(arity as u32, Ordering::Relaxed);
        let schema = Schema::new((0..arity as u32).map(|i| AttrId(base + i)).collect());
        let mut relation = Relation::new(rel, schema, tuples);
        relation.dedup();
        let version = self.next_version();
        // The log stores the post-dedup rows in relation order, so replay
        // reconstructs byte-identical scans.
        self.persist(|p| p.record_load(db, rel, arity, relation.tuples(), version.0))?;
        let mut digests = (*current.digests).clone();
        digests.insert(rel.to_string(), RelDigest::of(&relation));
        let mut next = (*current.db).clone();
        next.add(relation);
        self.publish_at(db, Arc::new(next), Arc::new(digests), version);
        Ok(version)
    }

    /// Appends one tuple to `rel` in database `db`, creating the relation
    /// (with the tuple's arity) if it does not exist yet. Returns the
    /// database's new version.
    ///
    /// The cost is in the delta, not the database: a membership probe
    /// finds duplicates, one digest absorbs the new tuple, and the built
    /// indexes of `rel` are extended into its successor. What remains is
    /// one copy of `rel`'s row vector. A relation published undeduped
    /// (by [`insert`](Catalog::insert)) is deduped once, on its first add.
    pub fn add(&self, db: &str, rel: &str, tuple: Box<[Value]>) -> Result<DbVersion, CatalogError> {
        let _w = self.write.lock().expect("catalog write lock");
        let current = self
            .snapshot(db)
            .ok_or_else(|| CatalogError::UnknownDatabase(db.to_string()))?;
        if let Some(existing) = current.db.get(rel) {
            if existing.arity() != tuple.len() {
                return Err(CatalogError::ArityMismatch {
                    relation: rel.to_string(),
                    have: existing.arity(),
                    got: tuple.len(),
                });
            }
        }
        let version = self.next_version();
        self.persist(|p| p.record_add(db, rel, &tuple, version.0))?;
        let mut digests = (*current.digests).clone();
        let relation = match current.db.get(rel) {
            Some(existing) if existing.is_deduped() => {
                if existing.contains_row(&tuple) {
                    // A duplicate changes nothing but the version.
                    self.publish_at(db, current.db.clone(), current.digests.clone(), version);
                    return Ok(version);
                }
                digests
                    .get_mut(rel)
                    .expect("every published relation has a digest")
                    .add(&tuple);
                existing.with_new_row(tuple)
            }
            Some(bag) => {
                let mut set = (**bag).clone();
                set.dedup();
                if !set.contains_row(&tuple) {
                    set = set.with_new_row(tuple);
                }
                digests.insert(rel.to_string(), RelDigest::of(&set));
                set
            }
            None => {
                let arity = tuple.len() as u32;
                let base = self.next_col.fetch_add(arity, Ordering::Relaxed);
                let schema = Schema::new((0..arity).map(|i| AttrId(base + i)).collect());
                let fresh = Relation::from_distinct_rows(rel, schema, vec![tuple]);
                digests.insert(rel.to_string(), RelDigest::of(&fresh));
                fresh
            }
        };
        let mut next = (*current.db).clone();
        next.add(relation);
        self.publish_at(db, Arc::new(next), Arc::new(digests), version);
        Ok(version)
    }

    /// Swaps in `next` under `version`, with the fingerprint `digests`
    /// combine to. Caller holds `write` and has already persisted the
    /// mutation.
    fn publish_at(
        &self,
        name: &str,
        next: Arc<Database>,
        digests: Arc<Digests>,
        version: DbVersion,
    ) {
        let snap = snapshot_of(next, digests, version);
        debug_assert_eq!(
            snap.fingerprint,
            fingerprint_db(&snap.db),
            "incremental fingerprint drifted from the reference"
        );
        self.map
            .lock()
            .expect("catalog map lock")
            .insert(name.to_string(), snap);
    }

    /// Database names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .map
            .lock()
            .expect("catalog map lock")
            .keys()
            .cloned()
            .collect();
        names.sort_unstable();
        names
    }

    /// One [`DbInfo`] per database, sorted by name — the `dbs` verb's
    /// payload.
    pub fn list(&self) -> Vec<DbInfo> {
        let mut infos: Vec<DbInfo> = self
            .map
            .lock()
            .expect("catalog map lock")
            .iter()
            .map(|(name, snap)| DbInfo {
                name: name.clone(),
                version: snap.version,
                fingerprint: snap.fingerprint,
                relations: snap.db.len(),
            })
            .collect();
        infos.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Number of databases.
    pub fn len(&self) -> usize {
        self.map.lock().expect("catalog map lock").len()
    }

    /// True when the catalog holds no databases.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The snapshot of `db` at `version`, fingerprinted from `digests`.
fn snapshot_of(db: Arc<Database>, digests: Arc<Digests>, version: DbVersion) -> DbSnapshot {
    let fingerprint = combine(digests.iter());
    DbSnapshot {
        db,
        version,
        fingerprint,
        digests,
    }
}

/// Extracts a database's logical content for wholesale persistence
/// (attribute ids are deliberately dropped).
fn contents_of(db: &Database) -> DbContents {
    let relations = db
        .names()
        .into_iter()
        .map(|name| {
            let rel = db.get(name).expect("name came from names()");
            RelationData {
                name: name.to_string(),
                arity: rel.arity(),
                tuples: rel.tuples().to_vec(),
            }
        })
        .collect();
    DbContents { relations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(vals: &[Value]) -> Box<[Value]> {
        vals.to_vec().into_boxed_slice()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ppr-catalog-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn versions_are_monotonic_and_catalog_unique() {
        let c = Catalog::new();
        let v1 = c.create("a").unwrap();
        let v2 = c.create("b").unwrap();
        let v3 = c.load("a", "e", vec![tuple(&[1, 2])]).unwrap();
        assert!(v1 < v2 && v2 < v3);
        // Drop + recreate never revisits an old version.
        c.drop_db("a").unwrap();
        let v4 = c.create("a").unwrap();
        assert!(v4 > v3);
    }

    #[test]
    fn snapshots_are_stable_under_mutation() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.load("g", "e", vec![tuple(&[1, 2])]).unwrap();
        let before = c.snapshot("g").unwrap();
        c.add("g", "e", tuple(&[2, 3])).unwrap();
        let after = c.snapshot("g").unwrap();
        // The old snapshot still sees one tuple; the new one sees two.
        assert_eq!(before.db.expect("e").len(), 1);
        assert_eq!(after.db.expect("e").len(), 2);
        assert!(after.version > before.version);
        assert_ne!(after.fingerprint, before.fingerprint);
    }

    #[test]
    fn load_replaces_add_appends_and_dedups() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.load("g", "e", vec![tuple(&[1, 2]), tuple(&[2, 3])])
            .unwrap();
        c.load("g", "e", vec![tuple(&[7, 8])]).unwrap();
        assert_eq!(c.snapshot("g").unwrap().db.expect("e").len(), 1);
        let v1 = c.add("g", "e", tuple(&[7, 8])).unwrap(); // duplicate
        assert_eq!(c.snapshot("g").unwrap().db.expect("e").len(), 1);
        let v2 = c.add("g", "e", tuple(&[8, 9])).unwrap();
        assert_eq!(c.snapshot("g").unwrap().db.expect("e").len(), 2);
        // Even the no-op duplicate bumped the version (cheap, and keeps
        // the observable mutation counter honest)…
        assert!(v2 > v1);
    }

    #[test]
    fn noop_mutation_keeps_the_fingerprint() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.load("g", "e", vec![tuple(&[1, 2])]).unwrap();
        let before = c.snapshot("g").unwrap();
        c.add("g", "e", tuple(&[1, 2])).unwrap(); // duplicate: no content change
        let after = c.snapshot("g").unwrap();
        assert!(after.version > before.version, "version still bumps");
        assert_eq!(
            after.fingerprint, before.fingerprint,
            "content unchanged ⇒ cache identity unchanged ⇒ warm entries survive"
        );
    }

    #[test]
    fn isomorphic_databases_share_a_fingerprint() {
        let c = Catalog::new();
        // Same content under different names, loaded in different order,
        // through different verbs (⇒ different AttrIds internally).
        c.create("a").unwrap();
        c.load("a", "e", vec![tuple(&[1, 2]), tuple(&[2, 3])])
            .unwrap();
        c.load("a", "f", vec![tuple(&[9])]).unwrap();
        c.create("b").unwrap();
        c.load("b", "f", vec![tuple(&[9])]).unwrap();
        c.add("b", "e", tuple(&[2, 3])).unwrap();
        c.add("b", "e", tuple(&[1, 2])).unwrap();
        let (a, b) = (c.snapshot("a").unwrap(), c.snapshot("b").unwrap());
        assert_eq!(a.fingerprint, b.fingerprint);
        // And content differences do split them.
        c.add("b", "e", tuple(&[3, 4])).unwrap();
        assert_ne!(
            c.snapshot("a").unwrap().fingerprint,
            c.snapshot("b").unwrap().fingerprint
        );
        // The empty database has a fingerprint too, distinct per content.
        c.create("empty").unwrap();
        assert_ne!(c.snapshot("empty").unwrap().fingerprint, a.fingerprint);
    }

    #[test]
    fn add_creates_missing_relation_with_tuple_arity() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.add("g", "t", tuple(&[1, 2, 3])).unwrap();
        let snap = c.snapshot("g").unwrap();
        assert_eq!(snap.db.expect("t").arity(), 3);
    }

    #[test]
    fn typed_errors() {
        let c = Catalog::new();
        c.create("g").unwrap();
        assert_eq!(c.create("g"), Err(CatalogError::DatabaseExists("g".into())));
        assert_eq!(
            c.load("nope", "e", vec![tuple(&[1])]),
            Err(CatalogError::UnknownDatabase("nope".into()))
        );
        assert_eq!(
            c.load("g", "e", Vec::new()),
            Err(CatalogError::EmptyLoad("e".into()))
        );
        assert!(matches!(
            c.load("g", "e", vec![tuple(&[1, 2]), tuple(&[1])]),
            Err(CatalogError::ArityMismatch { .. })
        ));
        c.load("g", "e", vec![tuple(&[1, 2])]).unwrap();
        assert!(matches!(
            c.add("g", "e", tuple(&[1, 2, 3])),
            Err(CatalogError::ArityMismatch { .. })
        ));
        assert_eq!(
            c.drop_db("missing"),
            Err(CatalogError::UnknownDatabase("missing".into()))
        );
    }

    #[test]
    fn wire_created_schemas_never_collide() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.load("g", "a", vec![tuple(&[1, 2])]).unwrap();
        c.load("g", "b", vec![tuple(&[3])]).unwrap();
        let snap = c.snapshot("g").unwrap();
        let a: Vec<AttrId> = snap.db.expect("a").schema().attrs().to_vec();
        let b: Vec<AttrId> = snap.db.expect("b").schema().attrs().to_vec();
        assert!(a.iter().all(|x| !b.contains(x)));
    }

    #[test]
    fn concurrent_writers_lose_no_updates() {
        let c = Arc::new(Catalog::new());
        c.create("g").unwrap();
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    c.add("g", "e", tuple(&[t, i])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = c.snapshot("g").unwrap();
        assert_eq!(snap.db.expect("e").len(), 100, "every add must land");
        assert_eq!(snap.version, DbVersion(101), "100 adds + 1 create");
    }

    #[test]
    fn durable_catalog_recovers_content_version_and_fingerprint() {
        let dir = tmpdir("recover");
        let (before_v, before_fp);
        {
            let (c, report) = Catalog::open(&dir).unwrap();
            assert_eq!(report.databases, 0);
            c.create("g").unwrap();
            c.load("g", "e", vec![tuple(&[1, 2]), tuple(&[2, 3])])
                .unwrap();
            c.add("g", "e", tuple(&[3, 1])).unwrap();
            let snap = c.snapshot("g").unwrap();
            before_v = snap.version;
            before_fp = snap.fingerprint;
        }
        let (c, report) = Catalog::open(&dir).unwrap();
        assert_eq!(report.databases, 1);
        let snap = c.snapshot("g").unwrap();
        assert_eq!(snap.version, before_v, "version resumes, not resets");
        assert_eq!(
            snap.fingerprint, before_fp,
            "recovered database keeps its cache identity"
        );
        assert_eq!(
            snap.db.expect("e").tuples(),
            &[tuple(&[1, 2]), tuple(&[2, 3]), tuple(&[3, 1])],
            "row order is replayed exactly (byte-identical scans)"
        );
        // New mutations continue above the recovered high-water mark.
        let v = c.add("g", "e", tuple(&[9, 9])).unwrap();
        assert!(v > before_v);
    }

    #[test]
    fn durable_drop_does_not_resurrect() {
        let dir = tmpdir("drop");
        {
            let (c, _) = Catalog::open(&dir).unwrap();
            c.create("keep").unwrap();
            c.create("gone").unwrap();
            c.load("gone", "e", vec![tuple(&[1, 1])]).unwrap();
            c.drop_db("gone").unwrap();
        }
        let (c, _) = Catalog::open(&dir).unwrap();
        assert_eq!(c.names(), vec!["keep".to_string()]);
    }

    #[test]
    fn durable_insert_checkpoints_wholesale() {
        let dir = tmpdir("insert");
        let mut db = Database::new();
        db.add(Relation::new(
            "edge",
            Schema::new(vec![AttrId(1), AttrId(2)]),
            vec![tuple(&[4, 5])],
        ));
        let fp = fingerprint_db(&db);
        {
            let (c, _) = Catalog::open(&dir).unwrap();
            c.insert(DEFAULT_DB, db).unwrap();
            assert!(c.durability_stats().unwrap().snapshot_writes >= 1);
        }
        let (c, report) = Catalog::open(&dir).unwrap();
        assert_eq!(report.snapshots_loaded, 1);
        let snap = c.snapshot(DEFAULT_DB).unwrap();
        assert_eq!(snap.fingerprint, fp, "fingerprint ignores column ids");
        assert_eq!(snap.db.expect("edge").len(), 1);
    }

    /// The fingerprint of [`golden_db`], computed by the from-scratch
    /// hash before the catalog fingerprinted incrementally. Pinned so
    /// cache identity (and recovered databases' cache keys) survive.
    const GOLDEN: u128 = 0x091e_de93_31c9_c07c_6953_a0c2_661a_d202;
    const GOLDEN_EMPTY: u128 = 0x34ab_35a1_ef51_fae6_e10b_dac4_4fa5_50cc;

    fn golden_db() -> Database {
        let mut db = Database::new();
        db.add(Relation::new(
            "edge",
            Schema::new(vec![AttrId(1), AttrId(2)]),
            vec![tuple(&[1, 2]), tuple(&[2, 3]), tuple(&[3, 1])],
        ));
        db.add(Relation::new(
            "mark",
            Schema::new(vec![AttrId(3)]),
            vec![tuple(&[7])],
        ));
        db
    }

    #[test]
    fn fingerprint_bits_are_pinned() {
        assert_eq!(fingerprint_db(&golden_db()), DbFingerprint(GOLDEN));
        assert_eq!(
            fingerprint_db(&Database::new()),
            DbFingerprint(GOLDEN_EMPTY)
        );
        // The incremental path lands on the same bits.
        let c = Catalog::new();
        c.create("g").unwrap();
        assert_eq!(
            c.snapshot("g").unwrap().fingerprint,
            DbFingerprint(GOLDEN_EMPTY)
        );
        c.add("g", "edge", tuple(&[2, 3])).unwrap();
        c.load("g", "mark", vec![tuple(&[7]), tuple(&[7])]).unwrap();
        c.add("g", "edge", tuple(&[3, 1])).unwrap();
        c.add("g", "edge", tuple(&[1, 2])).unwrap();
        c.add("g", "edge", tuple(&[3, 1])).unwrap();
        assert_eq!(c.snapshot("g").unwrap().fingerprint, DbFingerprint(GOLDEN));
    }

    /// `names` as the iterator [`DbSnapshot::read_set_fingerprint`] takes.
    fn read_set(snap: &DbSnapshot, names: &[&str]) -> DbFingerprint {
        snap.read_set_fingerprint(names.iter().copied())
    }

    /// The reference for a read-set key: the from-scratch hash of `db`
    /// cut down to the relations named in `names`.
    fn restricted(db: &Database, names: &[&str]) -> DbFingerprint {
        let mut cut = Database::new();
        for name in names {
            if let Some(rel) = db.get(name) {
                cut.add((**rel).clone());
            }
        }
        fingerprint_db(&cut)
    }

    #[test]
    fn read_set_over_every_relation_is_the_fingerprint() {
        let c = Catalog::new();
        c.insert("g", golden_db()).unwrap();
        let snap = c.snapshot("g").unwrap();
        let all = read_set(&snap, &["edge", "mark"]);
        assert_eq!(all, DbFingerprint(GOLDEN));
        assert_eq!(all, snap.fingerprint);
        assert_eq!(all, fingerprint_db(&snap.db));
        // Name order and repetition do not matter; unknown names are
        // ignored.
        assert_eq!(read_set(&snap, &["mark", "edge", "edge", "nope"]), all);
        assert_eq!(
            read_set(&snap, &["mark", "mark"]),
            read_set(&snap, &["mark"])
        );
        assert_eq!(read_set(&snap, &[]), DbFingerprint(GOLDEN_EMPTY));
        // A proper subset is the hash of that part of the database.
        assert_eq!(read_set(&snap, &["edge"]), restricted(&snap.db, &["edge"]));
        assert_ne!(read_set(&snap, &["edge"]), all);
    }

    #[test]
    fn read_set_changes_only_with_the_relations_it_names() {
        let c = Catalog::new();
        c.insert("g", golden_db()).unwrap();
        let key = |c: &Catalog| read_set(&c.snapshot("g").unwrap(), &["edge"]);
        let before = key(&c);
        // Writes outside the set: an add, a new relation, a replacing load.
        c.add("g", "mark", tuple(&[8])).unwrap();
        c.add("g", "fresh", tuple(&[1, 1])).unwrap();
        c.load("g", "mark", vec![tuple(&[9])]).unwrap();
        assert_eq!(key(&c), before, "unread relations do not move the key");
        assert_ne!(c.snapshot("g").unwrap().fingerprint, DbFingerprint(GOLDEN));
        // A duplicate inside the set is no content change either.
        c.add("g", "edge", tuple(&[1, 2])).unwrap();
        assert_eq!(key(&c), before);
        // A new tuple inside the set is.
        c.add("g", "edge", tuple(&[1, 3])).unwrap();
        assert_ne!(key(&c), before);
    }

    #[test]
    fn add_extends_warm_indexes_and_republishes_duplicates() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.load("g", "e", vec![tuple(&[1, 2]), tuple(&[2, 3])])
            .unwrap();
        let _ = c.snapshot("g").unwrap().db.expect("e").column_index(0);
        c.add("g", "e", tuple(&[3, 4])).unwrap();
        let grown = c.snapshot("g").unwrap();
        let (ix, built) = grown.db.expect("e").column_index(0);
        assert!(!built, "the warm index was extended, not dropped");
        assert_eq!(ix.postings(3), &[2]);
        // A duplicate republishes the same database under a new version.
        c.add("g", "e", tuple(&[2, 3])).unwrap();
        let dup = c.snapshot("g").unwrap();
        assert!(dup.version > grown.version);
        assert!(Arc::ptr_eq(&dup.db, &grown.db));
        assert_eq!(dup.fingerprint, grown.fingerprint);
    }

    #[test]
    fn first_add_to_a_bag_dedups_it_once() {
        let c = Catalog::new();
        let mut db = Database::new();
        db.add(Relation::new(
            "b",
            Schema::new(vec![AttrId(1)]),
            vec![tuple(&[1]), tuple(&[1]), tuple(&[2])],
        ));
        c.insert("g", db).unwrap();
        let bag = c.snapshot("g").unwrap();
        c.add("g", "b", tuple(&[2])).unwrap();
        let set = c.snapshot("g").unwrap();
        assert_eq!(set.db.expect("b").tuples(), &[tuple(&[1]), tuple(&[2])]);
        assert!(set.db.expect("b").is_deduped());
        assert_ne!(
            set.fingerprint, bag.fingerprint,
            "the bag's duplicates are gone"
        );
        c.add("g", "b", tuple(&[3])).unwrap();
        assert_eq!(c.snapshot("g").unwrap().db.expect("b").len(), 3);
    }

    /// Every published snapshot's fingerprint equals the reference hash
    /// of its database, and so does its read-set key over every relation.
    fn assert_consistent(c: &Catalog) {
        for name in c.names() {
            let snap = c.snapshot(&name).unwrap();
            assert_eq!(snap.fingerprint, fingerprint_db(&snap.db), "db {name}");
            assert_eq!(read_set(&snap, &snap.db.names()), snap.fingerprint);
        }
    }

    /// Per database, the read-set key over the relations a `load` or
    /// `add` step leaves alone: every relation of the other database, and
    /// all but the written one of its own.
    fn untouched_keys(c: &Catalog, (_, d, r, _): (u8, usize, usize, u32)) -> Vec<DbFingerprint> {
        let mut others = vec!["r0", "r1", "bag"];
        others.remove(r);
        ["d0", "d1"]
            .into_iter()
            .enumerate()
            .map(|(i, db)| match c.snapshot(db) {
                Some(snap) if i == d => read_set(&snap, &others),
                Some(snap) => snap.fingerprint,
                None => DbFingerprint::default(),
            })
            .collect()
    }

    /// Applies one generated step; refused steps (arity clashes, unknown
    /// or existing databases) are part of the sequence too.
    fn apply(c: &Catalog, (op, d, r, v): (u8, usize, usize, u32)) {
        let db = ["d0", "d1"][d];
        let rel = ["r0", "r1", "bag"][r];
        let row = |x: u32| -> Box<[Value]> {
            match rel {
                "r1" => tuple(&[x % 3, (x + 1) % 3]),
                _ => tuple(&[x % 3]),
            }
        };
        let _ = match op {
            0 => c.create(db).map(drop),
            1 => c.load(db, rel, vec![row(v), row(v + 1), row(v)]).map(drop),
            2 | 3 => c.add(db, rel, row(v)).map(drop),
            4 => {
                let mut bag = Database::new();
                bag.add(Relation::new(
                    "bag",
                    Schema::new(vec![AttrId(1)]),
                    vec![tuple(&[v]), tuple(&[v]), tuple(&[v + 1])],
                ));
                c.insert(db, bag).map(drop)
            }
            _ => c.drop_db(db),
        };
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]
        /// Mutation sequences on a memory and a durable catalog keep every
        /// snapshot's incremental fingerprint equal to the reference, the
        /// two catalogs agree, and a reopened durable catalog agrees too.
        /// A `load` or `add` leaves the read-set key of every other
        /// relation set unchanged.
        #[test]
        fn incremental_fingerprint_matches_the_reference(
            steps in proptest::collection::vec((0u8..6, 0usize..2, 0usize..3, 0u32..4), 1..40),
        ) {
            let dir = tmpdir(&format!("prop-{}", steps.len()));
            let options = StoreOptions {
                sync: ppr_durability::SyncPolicy::Never,
                ..StoreOptions::default()
            };
            let memory = Catalog::new();
            let live: Vec<(String, DbFingerprint, bool)> = {
                let (durable, _) = Catalog::open_with(&dir, options).unwrap();
                for &step in &steps {
                    let before = untouched_keys(&memory, step);
                    apply(&memory, step);
                    apply(&durable, step);
                    // A load or add moves no read-set key that avoids the
                    // relation it writes (a refused one moves nothing).
                    if matches!(step.0, 1..=3) {
                        proptest::prop_assert_eq!(untouched_keys(&memory, step), before);
                    }
                    assert_consistent(&memory);
                    assert_consistent(&durable);
                    proptest::prop_assert_eq!(memory.list(), durable.list());
                }
                durable
                    .names()
                    .into_iter()
                    .map(|name| {
                        let snap = durable.snapshot(&name).unwrap();
                        let sets = snap
                            .db
                            .names()
                            .iter()
                            .all(|r| snap.db.expect(r).is_deduped());
                        (name, snap.fingerprint, sets)
                    })
                    .collect()
            };
            let (reopened, _) = Catalog::open_with(&dir, options).unwrap();
            assert_consistent(&reopened);
            proptest::prop_assert_eq!(reopened.names().len(), live.len());
            for (name, fingerprint, sets) in live {
                // Recovery dedups, so only a database without bags keeps
                // its exact identity.
                if sets {
                    proptest::prop_assert_eq!(reopened.snapshot(&name).unwrap().fingerprint, fingerprint);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn list_reports_versions_and_relation_counts() {
        let c = Catalog::new();
        c.create("b").unwrap();
        c.create("a").unwrap();
        c.load("a", "e", vec![tuple(&[1, 2])]).unwrap();
        let infos = c.list();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].name, "a");
        assert_eq!(infos[0].relations, 1);
        assert_eq!(infos[1].name, "b");
        assert_eq!(infos[1].relations, 0);
        assert_eq!(infos[0].fingerprint, c.snapshot("a").unwrap().fingerprint);
    }
}
