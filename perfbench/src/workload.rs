//! The three workloads, generated from `--seed`.
//!
//! A workload is a deterministic, unbounded sequence of operations
//! ([`Workload::op`]) plus the relations the server starts with. The
//! server receives the relations as CSV files (`--rel-file`) and the
//! operations as protocol lines; nothing else crosses over.
//!
//! * `paper-cold` — the paper's own instances (fig4 random 3-COLOR at
//!   density 3, fig8 augmented ladders, §7 3-SAT on 12 variables, fig2's
//!   5-variable 3-SAT under `naive`), each a distinct (query, method,
//!   seed) triple, so every request misses the plan and result caches.
//! * `hot-repeat` — 64 non-Boolean fig6/fig7 queries with pinned seeds,
//!   cycled over one pipelined connection; after the warmup pass every
//!   reply is a result-cache hit.
//! * `write-mix` — pinned-seed 3-COLOR queries on `edge` and Boolean path
//!   queries from a `mark` tuple along a 20 000-tuple `succ` chain, with
//!   one `add` of a fresh `succ` tuple after every [`READS_PER_WRITE`]
//!   reads.

use std::sync::Arc;

use ppr_core::methods::{Method, OrderHeuristic};
use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::csv::{relation_from_csv, relation_to_csv};
use ppr_relalg::{AttrId, Relation, Schema, Value};
use ppr_service::protocol::{self, Command};
use ppr_service::Request;
use ppr_workload::{InstanceSpec, QueryShape};

/// First column id `ppr serve` gives `--rel-file` relations; the
/// in-process database mirrors it so both sides hold the same relations.
const SERVE_COL_BASE: u32 = 10_000_000;

/// Length of `write-mix`'s initial `succ` chain.
pub const SUCC_LEN: u32 = 20_000;

/// Reads between two writes on `write-mix`.
pub const READS_PER_WRITE: u64 = 4;

/// Distinct queries `hot-repeat` cycles.
pub const HOT_QUERIES: usize = 64;

/// Database the write probe of the read-only workloads writes to, apart
/// from the one their reads use.
pub const PROBE_DB: &str = "aux";

const BUCKET: Method = Method::BucketElimination(OrderHeuristic::Mcs);
const SF: Method = Method::Straightforward;
const EARLY: Method = Method::EarlyProjection;
const REORDER: Method = Method::Reordering;
const NAIVE: Method = Method::Naive;

/// The five methods the per-layer planner and executor metrics cover.
pub const METHODS: [Method; 5] = [SF, EARLY, REORDER, BUCKET, NAIVE];

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Planner- and executor-heavy, all cache misses.
    PaperCold,
    /// Wire- and cache-heavy, all result-cache hits once warm.
    HotRepeat,
    /// Writes beside reads on a durable catalog.
    WriteMix,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::PaperCold, Kind::HotRepeat, Kind::WriteMix];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperCold => "paper-cold",
            Kind::HotRepeat => "hot-repeat",
            Kind::WriteMix => "write-mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One query request: the request and the exact line sent for it.
#[derive(Debug)]
pub struct Read {
    /// Instance family, for the report.
    pub family: &'static str,
    /// The request (rule text, method, pinned seed).
    pub request: Request,
    /// The v1 protocol line (no newline).
    pub line: String,
}

impl Read {
    fn new(family: &'static str, rule: String, method: Method, seed: u64) -> Read {
        let request = Request::new(rule, method).seed(seed);
        let line = protocol::encode_request(&request);
        Read {
            family,
            request,
            line,
        }
    }

    /// The request's pinned planner seed.
    pub fn seed(&self) -> u64 {
        self.request
            .seed
            .expect("every benchmark request pins its seed")
    }
}

/// One `add` of a tuple.
#[derive(Debug)]
pub struct Write {
    /// Target database.
    pub db: String,
    /// Target relation.
    pub rel: String,
    /// The tuple appended.
    pub tuple: Box<[Value]>,
    /// The protocol line (no newline).
    pub line: String,
}

impl Write {
    fn new(db: &str, rel: &str, tuple: Box<[Value]>) -> Write {
        let line = protocol::encode_command(&Command::Add {
            db: db.to_string(),
            rel: rel.to_string(),
            tuple: tuple.clone(),
        });
        Write {
            db: db.to_string(),
            rel: rel.to_string(),
            tuple,
            line,
        }
    }
}

/// One operation of a workload's sequence.
#[derive(Debug, Clone)]
pub enum Op {
    /// A query.
    Read(Arc<Read>),
    /// An `add`.
    Write(Arc<Write>),
}

/// The `j`-th write of the post-run write probe on the read-only
/// workloads: a fresh tuple in `aux.probe`.
pub fn probe_write(j: u64) -> Write {
    let v = j as Value;
    Write::new(PROBE_DB, "probe", vec![v, v + 1].into_boxed_slice())
}

/// SplitMix64 over `(seed, index, stream)`: independent, reproducible
/// per-operation randomness without threading one generator through.
fn mix(seed: u64, index: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A planner seed small enough to read in a protocol line.
fn request_seed(seed: u64, index: u64) -> u64 {
    mix(seed, index, 2) % 1_000_000_007
}

/// Renders a query as the rule text `ppr_query::parse_query` reads.
pub fn rule_text(q: &ConjunctiveQuery) -> String {
    let names = |ids: &[AttrId]| {
        ids.iter()
            .map(|&v| q.vars.name(v))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let head = if q.is_boolean() {
        String::new()
    } else {
        names(&q.free)
    };
    let body: Vec<String> = q
        .atoms
        .iter()
        .map(|a| format!("{}({})", a.relation, names(&a.args)))
        .collect();
    format!("q({head}) :- {}", body.join(", "))
}

fn instance_rule(shape: QueryShape, seed: u64, free_fraction: f64) -> String {
    let spec = InstanceSpec {
        shape,
        seed,
        free_fraction,
    };
    rule_text(&spec.build().0)
}

/// One line of `paper-cold`'s menu: a family, a size range and a method.
/// Sizes stop where the method still finishes in milliseconds.
struct Entry {
    family: &'static str,
    sizes: (usize, usize),
    free: f64,
    method: Method,
}

const fn e(family: &'static str, lo: usize, hi: usize, free: f64, method: Method) -> Entry {
    Entry {
        family,
        sizes: (lo, hi),
        free,
        method,
    }
}

/// `paper-cold` cycles this menu; each pass draws fresh sizes, instances
/// and planner seeds. Size ranges end where the method's slowest
/// instances (over 25 seeds, `ppr color`) still run in tens of
/// milliseconds: reordering and early projection pass 70 ms on fig4 at
/// order 16, bucket elimination at order 20.
const MENU: [Entry; 25] = [
    e("fig4", 12, 18, 0.0, BUCKET),
    e("fig4", 12, 18, 0.2, BUCKET),
    e("fig4", 12, 15, 0.0, REORDER),
    e("fig4", 12, 15, 0.2, REORDER),
    e("fig4", 12, 15, 0.0, EARLY),
    e("fig4", 12, 15, 0.2, EARLY),
    e("fig4", 12, 14, 0.0, SF),
    e("fig4", 12, 14, 0.2, SF),
    e("fig8", 5, 30, 0.0, BUCKET),
    e("fig8", 3, 8, 0.2, BUCKET),
    e("fig8", 5, 30, 0.0, EARLY),
    e("fig8", 3, 8, 0.2, EARLY),
    e("fig8", 3, 4, 0.0, SF),
    e("fig8", 3, 4, 0.2, SF),
    e("fig8", 3, 3, 0.0, REORDER),
    e("fig8", 3, 3, 0.2, REORDER),
    e("sat7", 12, 12, 0.0, BUCKET),
    e("sat7", 12, 12, 0.2, BUCKET),
    e("sat7", 12, 12, 0.0, REORDER),
    e("sat7", 12, 12, 0.2, REORDER),
    e("sat7", 12, 12, 0.0, EARLY),
    e("sat7", 12, 12, 0.2, EARLY),
    e("sat7", 12, 12, 0.0, SF),
    e("sat7", 12, 12, 0.2, SF),
    // fig2: 5-variable 3-SAT, the size axis is the clause density 1–8.
    e("fig2", 1, 8, 0.0, NAIVE),
];

fn menu_shape(family: &str, size: usize) -> QueryShape {
    match family {
        "fig4" => QueryShape::Random {
            order: size,
            density: 3.0,
        },
        "fig8" => QueryShape::AugmentedLadder { order: size },
        "sat7" => QueryShape::Sat {
            order: size,
            density: 4.3,
            k: 3,
        },
        "fig2" => QueryShape::Sat {
            order: 5,
            density: size as f64,
            k: 3,
        },
        other => unreachable!("unknown menu family {other}"),
    }
}

/// A generated workload.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The `--seed` it was generated from.
    pub seed: u64,
    /// The server's starting relations, in `--rel-file` order: name and
    /// CSV text.
    pub relations: Vec<(String, String)>,
    /// Requests kept in flight on the one connection (1 = serial v1).
    pub window: usize,
    /// Operations sent before the timed region (they fill the caches).
    pub warmup: Vec<Op>,
    /// `hot-repeat`'s cycle, or `write-mix`'s 3-COLOR pool.
    pool: Vec<Arc<Read>>,
    /// `write-mix`'s path-query pool.
    paths: Vec<Arc<Read>>,
}

impl Workload {
    /// Generates `kind` from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut relations = base_relations();
        let mut pool = Vec::new();
        let mut paths = Vec::new();
        let mut warmup = Vec::new();
        let mut window = 1;
        match kind {
            Kind::PaperCold => {}
            Kind::HotRepeat => {
                pool = hot_queries(seed);
                warmup = pool.iter().cloned().map(Op::Read).collect();
                window = 4;
            }
            Kind::WriteMix => {
                let succ: Vec<Box<[Value]>> = (0..SUCC_LEN)
                    .map(|i| vec![i, i + 1].into_boxed_slice())
                    .collect();
                relations.push(("succ".to_string(), csv("succ", succ)));
                pool = (0..16u64)
                    .map(|k| {
                        let order = 10 + (k % 5) as usize;
                        let free = if k % 2 == 0 { 0.0 } else { 0.2 };
                        let shape = QueryShape::Random {
                            order,
                            density: 3.0,
                        };
                        let rule = instance_rule(shape, mix(seed, k, 5), free);
                        Arc::new(Read::new(
                            "fig4",
                            rule,
                            METHODS[(k % 5) as usize],
                            request_seed(seed, k),
                        ))
                    })
                    .collect();
                // Anchored at the one `mark` tuple, so a path query reads
                // a handful of `succ` tuples through an index on `succ`
                // that every write invalidates. Listing-order methods
                // start from `mark`; the others would scan all of `succ`.
                relations.push((
                    "mark".to_string(),
                    csv("mark", vec![vec![SUCC_LEN / 2].into_boxed_slice()]),
                ));
                paths = (0..8u64)
                    .map(|k| {
                        let len = 2 + (k % 4) as usize;
                        let mut atoms = vec!["mark(a0)".to_string()];
                        atoms.extend((0..len).map(|j| format!("succ(a{j}, a{})", j + 1)));
                        let rule = format!("q() :- {}", atoms.join(", "));
                        Arc::new(Read::new(
                            "succ-path",
                            rule,
                            [SF, EARLY, NAIVE][(k % 3) as usize],
                            request_seed(seed, 100 + k),
                        ))
                    })
                    .collect();
            }
        }
        Workload {
            kind,
            seed,
            relations,
            window,
            warmup,
            pool,
            paths,
        }
    }

    /// Whether the server runs on a durable data dir.
    pub fn durable(&self) -> bool {
        self.kind == Kind::WriteMix
    }

    /// The database writes of the timed sequence go to (`write-mix`), or
    /// the probe database (the read-only workloads).
    pub fn write_db(&self) -> &'static str {
        match self.kind {
            Kind::WriteMix => ppr_service::DEFAULT_DB,
            _ => PROBE_DB,
        }
    }

    /// The `i`-th operation of the timed sequence.
    pub fn op(&self, i: u64) -> Op {
        match self.kind {
            Kind::PaperCold => {
                let entry = &MENU[(i % MENU.len() as u64) as usize];
                let (lo, hi) = entry.sizes;
                let size = lo + (mix(self.seed, i, 3) % (hi - lo + 1) as u64) as usize;
                let rule = instance_rule(
                    menu_shape(entry.family, size),
                    mix(self.seed, i, 1),
                    entry.free,
                );
                Op::Read(Arc::new(Read::new(
                    entry.family,
                    rule,
                    entry.method,
                    request_seed(self.seed, i),
                )))
            }
            Kind::HotRepeat => Op::Read(self.pool[(i % self.pool.len() as u64) as usize].clone()),
            Kind::WriteMix => {
                let cycle = READS_PER_WRITE + 1;
                let (epoch, slot) = (i / cycle, i % cycle);
                if slot == READS_PER_WRITE {
                    let v = SUCC_LEN + epoch as Value;
                    return Op::Write(Arc::new(Write::new(
                        ppr_service::DEFAULT_DB,
                        "succ",
                        vec![v, v + 1].into_boxed_slice(),
                    )));
                }
                let r = epoch * READS_PER_WRITE + slot;
                let read = if r.is_multiple_of(2) {
                    &self.pool[((r / 2) % self.pool.len() as u64) as usize]
                } else {
                    &self.paths[((r / 2) % self.paths.len() as u64) as usize]
                };
                Op::Read(read.clone())
            }
        }
    }

    /// The server's starting database, built from the same CSV text with
    /// the same column ids `ppr serve --rel-file` gives it.
    pub fn database(&self) -> Database {
        let mut db = Database::new();
        let mut base = SERVE_COL_BASE;
        for (name, text) in &self.relations {
            let rel = relation_from_csv(name, text, base).expect("generated CSV parses");
            base += rel.arity() as u32;
            db.add(rel);
        }
        db
    }
}

fn csv(name: &str, rows: Vec<Box<[Value]>>) -> String {
    let arity = rows[0].len() as u32;
    let schema = Schema::new((0..arity).map(AttrId).collect());
    relation_to_csv(&Relation::from_distinct_rows(name, schema, rows))
}

/// `edge` for 3 colours plus the eight 3-SAT clause relations, under the
/// names the workload crate's translations use.
fn base_relations() -> Vec<(String, String)> {
    let mut out = vec![(
        "edge".to_string(),
        relation_to_csv(&ppr_workload::edge_relation(3)),
    )];
    for pattern in 0..8u32 {
        let signs: Vec<bool> = (0..3).map(|i| pattern >> (2 - i) & 1 == 1).collect();
        let name: String = signs.iter().map(|&s| if s { 'p' } else { 'n' }).collect();
        // All assignments (0 = false, 1 = true) satisfying the clause.
        let rows: Vec<Box<[Value]>> = (0..8u32)
            .map(|bits| (0..3).map(|i| bits >> i & 1).collect::<Vec<Value>>())
            .filter(|a| (0..3).any(|i| (a[i] == 1) == signs[i]))
            .map(Vec::into_boxed_slice)
            .collect();
        let name = format!("clause3_{name}");
        out.push((name.clone(), csv(&name, rows)));
    }
    out
}

/// `hot-repeat`'s cycle: fig6 augmented paths and fig7 ladders, 20 % of
/// the vertices free, over all five methods, with pinned seeds.
fn hot_queries(seed: u64) -> Vec<Arc<Read>> {
    (0..HOT_QUERIES as u64)
        .map(|k| {
            let method = METHODS[(k % 5) as usize];
            // Straightforward, naive and reordering blow up on larger
            // ladders: keep them small.
            let max = match method {
                SF | NAIVE => 5,
                REORDER => 4,
                _ => 8,
            };
            let order = 3 + (k / 2) as usize % (max - 2);
            let (family, shape) = if k % 2 == 0 {
                ("fig6", QueryShape::AugmentedPath { order })
            } else {
                ("fig7", QueryShape::Ladder { order })
            };
            let rule = instance_rule(shape, mix(seed, k, 4), 0.2);
            Arc::new(Read::new(family, rule, method, request_seed(seed, k)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_in_the_seed() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 7);
            let b = Workload::new(kind, 7);
            for i in 0..50 {
                let line = |op: Op| match op {
                    Op::Read(r) => r.line.clone(),
                    Op::Write(w) => w.line.clone(),
                };
                assert_eq!(line(a.op(i)), line(b.op(i)), "{} op {i}", kind.name());
            }
        }
    }

    #[test]
    fn clause_relations_match_the_sat_translation() {
        // The server's clause relations must be exactly the ones the
        // workload crate's SAT translation refers to.
        let db = Workload::new(Kind::PaperCold, 1).database();
        let spec = InstanceSpec {
            shape: QueryShape::Sat {
                order: 12,
                density: 4.3,
                k: 3,
            },
            seed: 3,
            free_fraction: 0.0,
        };
        let (_, sat_db) = spec.build();
        for name in sat_db.names() {
            let ours = db.get(name).expect("clause relation present");
            let theirs = sat_db.get(name).unwrap();
            let mut a = ours.tuples().to_vec();
            let mut b = theirs.tuples().to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn paper_cold_requests_are_distinct() {
        let w = Workload::new(Kind::PaperCold, 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000 {
            let Op::Read(r) = w.op(i) else {
                panic!("paper-cold only reads")
            };
            assert!(seen.insert(r.line.clone()), "op {i} repeats");
        }
    }
}
