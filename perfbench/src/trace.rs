//! The traced run: per-layer metrics.
//!
//! The run replays a fixed prefix of the workload's sequence (its length
//! depends only on `--seconds`) four ways:
//!
//! 1. over the wire without tracing, for the tracing-overhead baseline;
//! 2. over the wire with a span around each client call;
//! 3. through an in-process `Engine` started with the same settings and
//!    database, one request at a time, so cache state evolves request by
//!    request as on the server; next to each request it calls the layers
//!    directly on the same snapshot (`decode_command`, `parse_query`,
//!    `QueryIdentity::of`, and on plan-cache misses `plan_query` and
//!    `exec::execute_with` on a cold copy of the snapshot, then
//!    `encode_result`);
//! 4. through the write path alone: `Catalog::add` and `fingerprint_db` on
//!    an in-memory catalog, and `Catalog::add` on `Catalog::open` with the
//!    same fsync policy as the server, then `Catalog::open` (recovery) of
//!    the data dir that leaves.
//!
//! The counters come from stages 3 and 4 only, which are deterministic:
//! two traced runs with the same seed report identical counts.
//!
//! `net.wire_us` is the traced wire pass's client-observed time minus
//! stage 3's `EngineHandle::execute` time for the same request. Where
//! execution dominates (`paper-cold`, `write-mix`) that difference of two
//! separate executions is within their noise and can come out negative;
//! it is meaningful on `hot-repeat`, where the wire dominates.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::Arc;

use ppr_core::passes::plan_query;
use ppr_obs::Phase;
use ppr_query::{Database, QueryIdentity};
use ppr_relalg::{exec, Budget};
use ppr_service::protocol::{self, Command};
use ppr_service::{fingerprint_db, Catalog, Engine, DEFAULT_DB};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::e2e::{connect, drive};
use crate::harness::{check, check_durable, no_fsync, Env};
use crate::report::Report;
use crate::server::ServeConfig;
use crate::spans::Tracer;
use crate::stats::{Json, Summary};
use crate::wire::{Outcome, Run, Stop};
use crate::workload::{probe_write, Kind, Op, Workload, Write, METHODS, PROBE_DB};

/// Probe writes the write-path stages replay on the read-only workloads.
const PROBE_WRITES: u64 = 200;

/// Recoveries timed for `durability.recover_us`.
const RECOVERIES: usize = 5;

/// Operations of the replayed prefix after the warmup.
pub fn prefix_len(kind: Kind, seconds: u64) -> u64 {
    seconds
        * match kind {
            Kind::PaperCold => 60,
            Kind::HotRepeat => 300,
            Kind::WriteMix => 50,
        }
}

/// The replayed sequence: the warmup, then the first
/// [`prefix_len`] operations.
pub fn trace_ops(w: &Workload, seconds: u64) -> Vec<Op> {
    let mut ops = w.warmup.clone();
    ops.extend((0..prefix_len(w.kind, seconds)).map(|i| w.op(i)));
    ops
}

/// The writes the write-path stages replay: the workload's own, or the
/// probe's on the read-only workloads.
fn stage_writes(w: &Workload, ops: &[Op]) -> Vec<Arc<Write>> {
    if w.durable() {
        ops.iter()
            .filter_map(|op| match op {
                Op::Write(wr) => Some(wr.clone()),
                Op::Read(_) => None,
            })
            .collect()
    } else {
        (0..PROBE_WRITES)
            .map(|j| Arc::new(probe_write(j)))
            .collect()
    }
}

/// A durable catalog over `dir` holding the workload's starting database,
/// built the way `ppr serve --data-dir` builds one (insert, then recover
/// on the next start).
fn durable_catalog(w: &Workload, dir: &Path) -> io::Result<Catalog> {
    let other = |e: String| io::Error::other(e);
    {
        let (catalog, _) = Catalog::open_with(dir, no_fsync()).map_err(|e| other(e.to_string()))?;
        catalog
            .insert(DEFAULT_DB, w.database())
            .map_err(|e| other(e.to_string()))?;
    }
    Catalog::open_with(dir, no_fsync())
        .map(|(c, _)| c)
        .map_err(|e| other(e.to_string()))
}

/// A copy of `db` whose relations start without secondary indexes, so a
/// standalone execution pays for its own and leaves the engine's alone.
fn cold_copy(db: &Database) -> Database {
    let mut out = Database::new();
    for name in db.names() {
        out.add((**db.get(name).expect("name listed")).clone());
    }
    out
}

/// What the in-process stages measured besides spans.
#[derive(Debug, Default)]
pub struct InProcess {
    /// Exact counts over the replay.
    pub counters: BTreeMap<&'static str, u64>,
    /// In-process `EngineHandle::execute` µs per read, by op index.
    pub engine_us: HashMap<u64, f64>,
    /// Queue wait µs of timed reads, from the engine's own trace.
    pub queue_wait_us: Vec<f64>,
    /// Execute minus parse + fingerprint + plan + exec, µs, per miss.
    pub overhead_us: Vec<f64>,
    /// Reply line bytes of timed reads.
    pub reply_bytes: Vec<f64>,
    /// Requests the engine refused or failed.
    pub failures: Vec<String>,
}

/// Stage 3 and 4: the in-process replay of `ops` (reads timed from
/// `first_timed` on) and the write-path stages.
pub fn in_process(
    w: &Workload,
    ops: &[Op],
    first_timed: u64,
    serve: &ServeConfig,
    work: &Path,
    tracer: &mut Tracer,
) -> io::Result<InProcess> {
    let mut out = InProcess::default();
    let catalog = if w.durable() {
        durable_catalog(w, &work.join("inproc"))?
    } else {
        Catalog::with_default(w.database())
    };
    let engine = Engine::start(catalog, serve.engine_config());
    let handle = engine.handle();
    let mut tally = |name: &'static str, by: u64| *out.counters.entry(name).or_default() += by;
    let (mut rows_returned, mut max_arity) = (0u64, 0u64);
    let mut engine_us = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        let i = i as u64;
        let read = match op {
            Op::Write(wr) => {
                let (res, _) = tracer.time("engine.add", i, None, || {
                    handle.catalog().add(&wr.db, &wr.rel, wr.tuple.clone())
                });
                if let Err(e) = res {
                    out.failures.push(format!("op {i}: add: {e}"));
                }
                continue;
            }
            Op::Read(r) => r,
        };
        let root = tracer.open("inproc.request", i, None);
        let (decoded, _) = tracer.time("protocol.decode", i, Some(root), || {
            protocol::decode_command(&read.line)
        });
        let Ok(Command::Run(request)) = decoded else {
            out.failures
                .push(format!("op {i}: line does not decode: {decoded:?}"));
            tracer.close(root);
            continue;
        };
        let snapshot = handle
            .catalog()
            .snapshot(DEFAULT_DB)
            .expect("default database exists");
        let (resp, exec_id) =
            tracer.time("engine.execute", i, Some(root), || handle.execute(request));
        let execute_us = tracer.spans()[exec_id].us();
        engine_us.insert(i, execute_us);
        let (parsed, parse_id) = tracer.time("query.parse", i, Some(root), || {
            ppr_query::parse_query(&read.request.query)
        });
        let q = parsed.expect("benchmark rules parse");
        let (_, fp_id) = tracer.time("query.fingerprint", i, Some(root), || QueryIdentity::of(&q));
        match &resp {
            Ok(resp) => {
                if i >= first_timed {
                    out.queue_wait_us
                        .push(resp.trace.get(Phase::QueueWait) as f64);
                }
                if !resp.cache_hit {
                    // A plan-cache miss: time the planner and executor
                    // alone on the same snapshot.
                    let method = read.request.method;
                    let cold = cold_copy(&snapshot.db);
                    let mut rng = StdRng::seed_from_u64(read.seed());
                    let (planned, plan_id) = tracer.time("passes.plan", i, Some(root), || {
                        plan_query(method, &q, &cold, &mut rng, None)
                    });
                    tracer.set_method(plan_id, method.name());
                    let (_, run_id) = tracer.time("relalg.exec", i, Some(root), || {
                        exec::execute_with(
                            &planned.plan,
                            &Budget::unlimited(),
                            exec::ExecOptions::default(),
                        )
                    });
                    tracer.set_method(run_id, method.name());
                    let parts: f64 = [parse_id, fp_id, plan_id, run_id]
                        .iter()
                        .map(|&s| tracer.spans()[s].us())
                        .sum();
                    out.overhead_us.push(execute_us - parts);
                }
                if !resp.result_cache_hit {
                    let s = &resp.stats;
                    tally("relalg.tuples_flowed", s.tuples_flowed);
                    tally("relalg.rows_scanned", s.rows_scanned);
                    tally("relalg.index_probes", s.index_probes);
                    tally("relalg.index_builds", s.index_builds);
                    rows_returned += resp.rows.len() as u64;
                    max_arity = max_arity.max(s.max_intermediate_arity as u64);
                }
            }
            Err(e) => out.failures.push(format!("op {i}: {}", e.kind())),
        }
        let (line, _) = tracer.time("protocol.encode", i, Some(root), || {
            protocol::encode_result(&resp)
        });
        if i >= first_timed {
            out.reply_bytes.push((line.len() + 1) as f64);
        }
        tracer.close(root);
    }
    let stats = handle.stats();
    engine.shutdown();
    tally("relalg.rows_returned", rows_returned);
    tally("relalg.max_arity", max_arity);
    tally("cache.plan_hits", stats.cache.hits);
    tally("cache.plan_misses", stats.cache.misses);
    tally("cache.result_hits", stats.results.hits);
    tally("cache.result_misses", stats.results.misses);
    tally("cache.decomp_hits", stats.decomps.hits);
    tally("cache.decomp_misses", stats.decomps.misses);
    tally(
        "cache.evictions",
        stats.cache.evictions + stats.results.evictions + stats.decomps.evictions,
    );
    tally(
        "cache.collisions",
        stats.cache.collisions + stats.results.collisions + stats.decomps.collisions,
    );
    tally("passes.passes_run", stats.passes_run);
    tally("engine.failures", out.failures.len() as u64);
    out.engine_us = engine_us;

    write_stages(w, &stage_writes(w, ops), work, tracer, &mut out.counters)?;
    Ok(out)
}

/// Stage 4: the write path on its own.
fn write_stages(
    w: &Workload,
    writes: &[Arc<Write>],
    work: &Path,
    tracer: &mut Tracer,
    counters: &mut BTreeMap<&'static str, u64>,
) -> io::Result<()> {
    let other = |e: String| io::Error::other(e);
    // In memory, holding the same data as the target database.
    let memory = if w.durable() {
        Catalog::with_default(w.database())
    } else {
        let c = Catalog::new();
        c.create(PROBE_DB).map_err(|e| other(e.to_string()))?;
        c
    };
    for (j, wr) in writes.iter().enumerate() {
        let j = j as u64;
        let (res, _) = tracer.time("catalog.add", j, None, || {
            memory.add(&wr.db, &wr.rel, wr.tuple.clone())
        });
        res.map_err(|e| other(e.to_string()))?;
        let snap = memory.snapshot(&wr.db).expect("written database exists");
        tracer.time("catalog.fingerprint_db", j, None, || {
            fingerprint_db(&snap.db)
        });
    }

    // Durable, with the server's fsync policy.
    let dir = work.join("durability");
    let durable = if w.durable() {
        durable_catalog(w, &dir)?
    } else {
        let (c, _) = Catalog::open_with(&dir, no_fsync()).map_err(|e| other(e.to_string()))?;
        c.create(PROBE_DB).map_err(|e| other(e.to_string()))?;
        c
    };
    for (j, wr) in writes.iter().enumerate() {
        let (res, _) = tracer.time("durability.add", j as u64, None, || {
            durable.add(&wr.db, &wr.rel, wr.tuple.clone())
        });
        res.map_err(|e| other(e.to_string()))?;
    }
    let stats = durable
        .durability_stats()
        .expect("an opened catalog persists");
    drop(durable);
    counters.insert("durability.wal_appends", stats.wal_appends);
    counters.insert("durability.wal_bytes", stats.wal_bytes);
    counters.insert("durability.fsyncs", stats.fsyncs);
    counters.insert("durability.snapshot_writes", stats.snapshot_writes);
    for k in 0..RECOVERIES {
        let (res, _) = tracer.time("durability.recover", k as u64, None, || {
            Catalog::open_with(&dir, no_fsync())
        });
        res.map_err(|e| other(e.to_string()))?;
    }
    Ok(())
}

/// One wire pass over `ops` against a fresh server: the warmup, then the
/// rest. Returns the run and the server's data dir.
fn wire_pass(
    env: &Env,
    ops: &[Op],
    first_timed: u64,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<(Run, Option<std::path::PathBuf>)> {
    let (server, dir) = env.start()?;
    let window = env.workload.window;
    let mut conn = connect(&server.addr, window)?;
    let op = |i: u64| ops[i as usize].clone();
    let mut run = drive(
        &mut conn,
        window,
        &op,
        0,
        Stop::count(first_timed),
        tracer.as_deref_mut(),
    );
    let rest = drive(
        &mut conn,
        window,
        &op,
        first_timed,
        Stop::count(ops.len() as u64 - first_timed),
        tracer,
    );
    run.samples.extend(rest.samples);
    run.wall = rest.wall;
    drop(conn);
    server.stop();
    Ok((run, dir))
}

/// Client-observed µs of the timed reads that were answered, by op index.
fn read_us(run: &Run, first_timed: u64) -> BTreeMap<u64, f64> {
    run.samples
        .iter()
        .filter(|s| !s.write && s.index >= first_timed)
        .filter(|s| matches!(s.outcome, Outcome::Rows { .. }))
        .map(|s| (s.index, s.us))
        .collect()
}

/// Runs the traced replay and reports the per-layer metrics; the spans go
/// to `spans_path`.
pub fn run(env: &Env, seconds: u64, spans_path: &Path) -> io::Result<Report> {
    let ops = trace_ops(&env.workload, seconds);
    let first_timed = env.workload.warmup.len() as u64;
    let (untraced, _) = wire_pass(env, &ops, first_timed, None)?;
    let mut tracer = Tracer::new();
    let (traced, traced_dir) = wire_pass(env, &ops, first_timed, Some(&mut tracer))?;
    let w = &env.workload;
    let inproc = in_process(w, &ops, first_timed, &env.serve, &env.work, &mut tracer)?;

    let mut report = Report::default();
    let op = |i: u64| ops[i as usize].clone();
    for (what, run) in [("untraced", &untraced), ("traced", &traced)] {
        let c = check(w, &op, &run.samples);
        report.attempted += c.checked;
        report.failed += c.failed();
        report.problems.extend(
            c.mismatches
                .iter()
                .map(|m| format!("{what} wire pass: {m}")),
        );
        if what == "traced" {
            if let Some(dir) = &traced_dir {
                if let Err(e) = check_durable(dir, &c.final_db) {
                    report.problems.push(format!("durability: {e}"));
                }
            }
        }
    }
    report.failed += inproc.failures.len();
    report.problems.extend(
        inproc
            .failures
            .iter()
            .map(|f| format!("in-process replay: {f}")),
    );
    layer_metrics(
        &mut report,
        &tracer,
        &inproc,
        &untraced,
        &traced,
        first_timed,
    );
    tracer.write_jsonl(spans_path)?;
    Ok(report)
}

fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    inproc: &InProcess,
    untraced: &Run,
    traced: &Run,
    first_timed: u64,
) {
    let selfs = tracer.self_us();
    // Self times of the spans called `name` (and tagged `method`) with a
    // request id of at least `min_req`, keyed by request id.
    let by_req = |name: &str, method: Option<&str>, min_req: u64| -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for (s, &us) in tracer.spans().iter().zip(&selfs) {
            if s.name == name && s.req >= min_req && (method.is_none() || s.method == method) {
                *out.entry(s.req).or_default() += us;
            }
        }
        out
    };
    let values = |m: &BTreeMap<u64, f64>| m.values().copied().collect::<Vec<f64>>();
    let p50 = |report: &mut Report, name: &str, unit: &'static str, xs: &[f64]| {
        let s = Summary::of(xs);
        report.metric(name, unit, s.p50, format!("p50 of n={}", s.n));
        s
    };

    let decode = by_req("protocol.decode", None, first_timed);
    let encode = by_req("protocol.encode", None, first_timed);
    p50(report, "protocol.decode_us", "us", &values(&decode));
    p50(report, "protocol.encode_us", "us", &values(&encode));
    p50(report, "protocol.reply_bytes", "bytes", &inproc.reply_bytes);

    let client = read_us(traced, first_timed);
    let client_decode = by_req("client.decode", None, first_timed);
    let mut wire = Vec::new();
    let mut residual = Vec::new();
    let (mut wire_sum, mut client_sum) = (0.0, 0.0);
    for (i, &c) in &client {
        let Some(&e) = inproc.engine_us.get(i) else {
            continue;
        };
        wire.push(c - e);
        wire_sum += c - e;
        client_sum += c;
        let layers = decode.get(i).unwrap_or(&0.0)
            + e
            + encode.get(i).unwrap_or(&0.0)
            + client_decode.get(i).unwrap_or(&0.0);
        residual.push(c - layers);
    }
    p50(report, "net.wire_us", "us", &wire);
    report.metric(
        "net.wire_share",
        "fraction",
        wire_sum / client_sum,
        format!("{wire_sum:.0} µs of wire time over {client_sum:.0} µs client-observed"),
    );

    let execute = values(&by_req("engine.execute", None, first_timed));
    let s = p50(report, "engine.execute_us", "us", &execute);
    report.metric(
        "engine.execute_us_p99",
        "us",
        s.p99,
        format!("p99 of n={}, {} beyond", s.n, s.beyond_p99),
    );
    p50(report, "engine.queue_wait_us", "us", &inproc.queue_wait_us);
    p50(report, "engine.overhead_us", "us", &inproc.overhead_us);

    let c = &inproc.counters;
    let rate = |report: &mut Report, name: &str, hits: &str, misses: &str| {
        let (h, m) = (c[hits], c[misses]);
        report.metric(
            name,
            "fraction",
            h as f64 / (h + m).max(1) as f64,
            format!("{h} hits of {} lookups", h + m),
        );
    };
    rate(
        report,
        "cache.plan_hit_rate",
        "cache.plan_hits",
        "cache.plan_misses",
    );
    rate(
        report,
        "cache.result_hit_rate",
        "cache.result_hits",
        "cache.result_misses",
    );
    rate(
        report,
        "cache.decomp_hit_rate",
        "cache.decomp_hits",
        "cache.decomp_misses",
    );
    let count = |report: &mut Report, name: &str, basis: &str| {
        report.metric(name, "count", c[name] as f64, basis.to_string());
    };
    count(
        report,
        "cache.evictions",
        "plan + result + decomposition caches",
    );
    count(
        report,
        "cache.collisions",
        "plan + result + decomposition caches",
    );

    p50(
        report,
        "query.parse_us",
        "us",
        &values(&by_req("query.parse", None, first_timed)),
    );
    p50(
        report,
        "query.fingerprint_us",
        "us",
        &values(&by_req("query.fingerprint", None, first_timed)),
    );

    for (layer, span) in [
        ("passes.plan_us", "passes.plan"),
        ("relalg.exec_us", "relalg.exec"),
    ] {
        for m in METHODS {
            let xs = values(&by_req(span, Some(m.name()), 0));
            let s = p50(report, &format!("{layer}.{}", m.name()), "us", &xs);
            let p99 = layer.replace("_us", "_us_p99");
            report.metric(
                format!("{p99}.{}", m.name()),
                "us",
                s.p99,
                format!("p99 of n={} plan-cache misses", s.n),
            );
        }
        if layer == "passes.plan_us" {
            count(
                report,
                "passes.passes_run",
                "engine counter over the replay",
            );
        }
    }
    for name in [
        "relalg.tuples_flowed",
        "relalg.rows_scanned",
        "relalg.index_probes",
        "relalg.index_builds",
    ] {
        count(report, name, "over the replay's executions");
    }
    report.metric(
        "relalg.rows_scanned_per_row",
        "ratio",
        c["relalg.rows_scanned"] as f64 / c["relalg.rows_returned"].max(1) as f64,
        format!(
            "{} rows scanned per {} result rows",
            c["relalg.rows_scanned"], c["relalg.rows_returned"]
        ),
    );
    report.metric(
        "relalg.max_arity",
        "count",
        c["relalg.max_arity"] as f64,
        "widest intermediate",
    );

    p50(
        report,
        "catalog.add_us",
        "us",
        &values(&by_req("catalog.add", None, 0)),
    );
    p50(
        report,
        "catalog.fingerprint_db_us",
        "us",
        &values(&by_req("catalog.fingerprint_db", None, 0)),
    );
    p50(
        report,
        "durability.add_us",
        "us",
        &values(&by_req("durability.add", None, 0)),
    );
    for (name, unit) in [
        ("durability.wal_appends", "count"),
        ("durability.wal_bytes", "bytes"),
        ("durability.fsyncs", "count"),
        ("durability.snapshot_writes", "count"),
    ] {
        report.metric(
            name,
            unit,
            c[name] as f64,
            "durable write stage, --no-fsync policy",
        );
    }
    p50(
        report,
        "durability.recover_us",
        "us",
        &values(&by_req("durability.recover", None, 0)),
    );

    p50(report, "trace.residual_us", "us", &residual);
    let base = Summary::of(
        &read_us(untraced, first_timed)
            .into_values()
            .collect::<Vec<_>>(),
    );
    let with = Summary::of(&client.values().copied().collect::<Vec<_>>());
    report.metric(
        "trace.overhead_pct",
        "%",
        (with.p50 - base.p50) / base.p50 * 100.0,
        format!(
            "read p50 {:.2} µs traced vs {:.2} µs untraced (n={})",
            with.p50, base.p50, base.n
        ),
    );

    let mut detail = Json::obj();
    for (k, v) in c {
        detail.set(*k, *v);
    }
    report.detail = detail;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_repeat_exactly_across_traced_replays() {
        for kind in Kind::ALL {
            let w = Workload::new(kind, 11);
            let mut ops = trace_ops(&w, 1);
            // Debug builds execute slowly; a short prefix still covers
            // misses, hits, writes and every write-path stage.
            ops.truncate(w.warmup.len() + 30);
            let first = w.warmup.len() as u64;
            let counts = |round: usize| {
                let work = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join(".work")
                    .join(format!(
                        "test-{}-{}-{round}",
                        kind.name(),
                        std::process::id()
                    ));
                let _ = std::fs::remove_dir_all(&work);
                let mut tracer = Tracer::new();
                let out = in_process(&w, &ops, first, &ServeConfig::default(), &work, &mut tracer)
                    .expect("in-process replay runs");
                std::fs::remove_dir_all(&work).expect("remove test dir");
                assert!(out.failures.is_empty(), "{:?}", out.failures);
                out.counters
            };
            let (a, b) = (counts(0), counts(1));
            assert_eq!(a, b, "{}", kind.name());
            assert!(a["relalg.tuples_flowed"] > 0, "{}", kind.name());
            assert!(a["durability.wal_appends"] > 0, "{}", kind.name());
        }
    }
}
