//! What both kinds of run share: the run's files, starting servers on the
//! workload's data, the correctness oracle over a run's replies and the
//! durability check.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ppr_durability::{StoreOptions, SyncPolicy};
use ppr_query::Database;
use ppr_service::{fingerprint_db, Catalog, DEFAULT_DB};

use crate::oracle;
use crate::server::{copy_dir, ServeConfig, Server};
use crate::wire::{Outcome, Sample};
use crate::workload::{Op, Read, Workload};

/// Store options matching `ppr serve --data-dir … --no-fsync`.
pub fn no_fsync() -> StoreOptions {
    StoreOptions {
        sync: SyncPolicy::Never,
        ..StoreOptions::default()
    }
}

/// One run's workload, binary, settings and work directory.
pub struct Env {
    /// The `ppr` binary.
    pub ppr: PathBuf,
    /// The workload.
    pub workload: Workload,
    /// `ppr serve` settings (`rel_files` filled in).
    pub serve: ServeConfig,
    /// The run's work directory, removed when the run ends.
    pub work: PathBuf,
    /// The data dir `ppr serve` generated from the CSV files (durable
    /// workloads only); each server starts on a fresh copy.
    generated: Option<PathBuf>,
    copies: Cell<usize>,
}

impl Env {
    /// Writes the workload's relations as CSV files under `work` and, for
    /// a durable workload, lets `ppr serve` build its data dir from them.
    pub fn new(ppr: PathBuf, workload: Workload, work: PathBuf) -> io::Result<Env> {
        std::fs::create_dir_all(&work)?;
        let mut serve = ServeConfig::default();
        for (name, text) in &workload.relations {
            let path = work.join(format!("{name}.csv"));
            std::fs::write(&path, text)?;
            serve.rel_files.push((name.clone(), path));
        }
        let mut env = Env {
            ppr,
            workload,
            serve,
            work,
            generated: None,
            copies: Cell::new(0),
        };
        if env.workload.durable() {
            let dir = env.work.join("generated");
            let mut cfg = env.serve.clone();
            cfg.data_dir = Some(dir.clone());
            // Serving the CSV files once persists them as the `default`
            // database; killing the server leaves the data dir behind.
            Server::start(&env.ppr, &cfg.args())?.stop();
            env.generated = Some(dir);
        }
        Ok(env)
    }

    /// Starts a fresh server; returns it with its data dir, if any. A
    /// durable workload's server recovers a fresh copy of the generated
    /// data dir instead of reading the CSV files.
    pub fn start(&self) -> io::Result<(Server, Option<PathBuf>)> {
        let Some(generated) = &self.generated else {
            return Ok((Server::start(&self.ppr, &self.serve.args())?, None));
        };
        self.copies.set(self.copies.get() + 1);
        let dir = self.work.join(format!("data-{}", self.copies.get()));
        copy_dir(generated, &dir)?;
        let mut cfg = self.serve.clone();
        cfg.rel_files.clear();
        cfg.data_dir = Some(dir.clone());
        Ok((Server::start(&self.ppr, &cfg.args())?, Some(dir)))
    }

    /// The flags reported for this run's servers.
    pub fn reported_flags(&self) -> String {
        let mut cfg = self.serve.clone();
        if self.generated.is_some() {
            cfg.rel_files.clear();
            cfg.data_dir = Some(PathBuf::from("<fresh copy of the generated data dir>"));
        }
        cfg.args().join(" ")
    }
}

/// What the oracle found over one run's replies.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations checked.
    pub checked: usize,
    /// Operations that failed: transport errors, typed refusals and
    /// budget exceedances, by kind.
    pub refused: Vec<String>,
    /// Replies that differ from library evaluation, described.
    pub mismatches: Vec<String>,
    /// The database the acknowledged writes to `default` leave.
    pub final_db: Database,
}

impl Check {
    /// Failed operations of either kind.
    pub fn failed(&self) -> usize {
        self.refused.len() + self.mismatches.len()
    }
}

/// Checks every sample against library evaluation on the snapshot the
/// server held: the starting database plus every acknowledged write to
/// `default` before it (one connection makes that order exact). Writes to
/// other databases leave `default` alone.
pub fn check(workload: &Workload, op: &dyn Fn(u64) -> Op, samples: &[Sample]) -> Check {
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| s.index);
    let mut out = Check {
        final_db: workload.database(),
        ..Check::default()
    };
    // Expected digests per (snapshot epoch, request line). While nothing
    // writes to `default` every read sees the starting database, so the
    // evaluations are independent and run on two threads up front.
    let mut memo: HashMap<(u64, String), Result<u64, String>> = HashMap::new();
    let writes_default = order.iter().any(|s| {
        matches!(s.outcome, Outcome::Ack(_))
            && matches!(op(s.index), Op::Write(w) if w.db == DEFAULT_DB)
    });
    if !writes_default {
        let mut reads: Vec<Arc<Read>> = Vec::new();
        let mut seen = HashSet::new();
        for s in &order {
            if let Op::Read(r) = op(s.index) {
                if seen.insert(r.line.clone()) {
                    reads.push(r);
                }
            }
        }
        let db = &out.final_db;
        let half = reads.len().div_ceil(2);
        let results: Vec<Result<u64, String>> = std::thread::scope(|scope| {
            let chunks: Vec<_> = reads
                .chunks(half.max(1))
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|r| oracle::expected(r, db))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            chunks
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        for (r, want) in reads.iter().zip(results) {
            memo.insert((0, r.line.clone()), want);
        }
    }
    let mut epoch = 0u64;
    for s in order {
        out.checked += 1;
        let op = op(s.index);
        match (&s.outcome, op) {
            (Outcome::Failed(kind), _) => out.refused.push(format!("op {}: {kind}", s.index)),
            (Outcome::Ack(_), Op::Write(w)) => {
                if w.db == DEFAULT_DB {
                    let mut rel =
                        (**out.final_db.get(&w.rel).expect("write target exists")).clone();
                    rel.push(w.tuple.clone());
                    rel.dedup();
                    out.final_db.add(rel);
                    epoch += 1;
                }
            }
            (Outcome::Rows { digest, .. }, Op::Read(r)) => {
                let want = memo
                    .entry((epoch, r.line.clone()))
                    .or_insert_with(|| oracle::expected(&r, &out.final_db));
                match want {
                    Ok(want) if want == digest => {}
                    Ok(_) => out.mismatches.push(format!(
                        "op {}: reply differs from Eval ({} {} seed={}): {}",
                        s.index,
                        r.family,
                        r.request.method.name(),
                        r.seed(),
                        r.request.query
                    )),
                    Err(e) => out.mismatches.push(format!(
                        "op {}: Eval failed where the server answered: {e}",
                        s.index
                    )),
                }
            }
            (outcome, _) => out.mismatches.push(format!(
                "op {}: reply of the wrong kind: {outcome:?}",
                s.index
            )),
        }
    }
    out
}

/// Reopens a stopped server's data dir in-process and compares the
/// recovered `default` database with the one every acknowledged write
/// should have produced. `Err` describes a mismatch.
pub fn check_durable(dir: &Path, expected: &Database) -> Result<(), String> {
    let (catalog, _) = Catalog::open_with(dir, no_fsync()).map_err(|e| e.to_string())?;
    let snap = catalog
        .snapshot(DEFAULT_DB)
        .ok_or("recovered data dir has no default database")?;
    let want = fingerprint_db(expected);
    if snap.fingerprint == want && fingerprint_db(&snap.db) == want {
        Ok(())
    } else {
        Err(format!(
            "recovered fingerprint {} differs from the acknowledged writes' {want}",
            snap.fingerprint
        ))
    }
}
