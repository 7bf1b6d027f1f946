//! The untraced run: end-to-end metrics over the wire.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use crate::harness::{check, check_durable, Check, Env};
use crate::report::Report;
use crate::stats::{Json, Summary};
use crate::wire::{run_pipelined, run_serial, Conn, Outcome, Run, Sample, Stop};
use crate::workload::{probe_write, Op, PROBE_DB};

/// Segments per second of the timed region.
const SEGMENTS_PER_SECOND: u64 = 4;

/// Probe writes per run on the read-only workloads.
const PROBE_WRITES: u64 = 1500;

/// Samples a p99 needs so that at least 10 lie beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// `USER_HZ`: the unit of `/proc/<pid>/stat` CPU times.
const TICKS_PER_SEC: f64 = 100.0;

/// Drives `op` over the workload's connection shape: serial, or
/// pipelined with the workload's window.
pub fn drive(
    conn: &mut Conn,
    window: usize,
    op: &dyn Fn(u64) -> Op,
    start: u64,
    stop: Stop,
    tracer: Option<&mut crate::spans::Tracer>,
) -> Run {
    if window > 1 {
        run_pipelined(conn, window, op, start, stop, tracer)
    } else {
        run_serial(conn, op, start, stop, tracer)
    }
}

/// Opens the workload's connection: v2 with its window checked against
/// the server's, or plain v1.
pub fn connect(addr: &str, window: usize) -> io::Result<Conn> {
    let mut conn = Conn::connect(addr)?;
    if window > 1 {
        let offered = conn.hello_v2()?;
        if offered < window {
            return Err(io::Error::other(format!(
                "server window {offered} is below the workload's {window}"
            )));
        }
    }
    Ok(conn)
}

/// Latencies (ms) of the samples that got an answer of the right kind.
fn latencies_ms(samples: &[Sample], write: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.write == write)
        .filter(|s| matches!(s.outcome, Outcome::Rows { .. } | Outcome::Ack(_)))
        .map(|s| s.us / 1e3)
        .collect()
}

/// Operations the server answered (anything but a transport error).
fn answered(samples: &[Sample]) -> usize {
    samples
        .iter()
        .filter(|s| !matches!(&s.outcome, Outcome::Failed(k) if k.starts_with("io")))
        .count()
}

fn tally(report: &mut Report, what: &str, check: &Check) {
    report.attempted += check.checked;
    report.failed += check.failed();
    for m in &check.mismatches {
        report.problems.push(format!("{what}: {m}"));
    }
    for r in check.refused.iter().take(5) {
        eprintln!("{what}: failed {r}");
    }
}

/// Runs the workload for `seconds` against a fresh server and reports the
/// end-to-end metrics.
///
/// The timed region is cut into quarter-second segments. Between two
/// segments the read clock stops while the read-only workloads send a
/// batch of probe writes and one extra server is started and stopped for
/// `setup_s`, so every metric samples the host over the whole run.
pub fn run(env: &Env, seconds: u64) -> io::Result<Report> {
    let (server, data_dir) = env.start()?;
    let mut setups = vec![server.setup.as_secs_f64()];
    let w = &env.workload;
    let durable = w.durable();

    let mut conn = connect(&server.addr, w.window)?;
    let warm_op = |i: u64| w.warmup[i as usize].clone();
    let warm = drive(
        &mut conn,
        w.window,
        &warm_op,
        0,
        Stop::count(w.warmup.len() as u64),
        None,
    );

    // The read-only workloads have no writes of their own. Between the
    // segments of the timed region, a probe of `add`s to a separate
    // database gives their write latency without touching the caches
    // their reads use; spreading it over the run lets it see the same
    // host conditions as the reads.
    let probe_op = |j: u64| Op::Write(Arc::new(probe_write(j)));
    let mut probe_conn = if durable {
        None
    } else {
        let mut c = Conn::connect(&server.addr)?;
        let ack = c.call(&format!("create {PROBE_DB}"))?;
        ppr_service::protocol::decode_ack(&ack).map_err(|e| io::Error::other(e.to_string()))?;
        Some(c)
    };
    let segments = seconds * SEGMENTS_PER_SECOND;
    let probes_per_segment = PROBE_WRITES.div_ceil(segments);
    let mut probe = Run {
        samples: Vec::new(),
        wall: Duration::ZERO,
    };

    let timed_op = |i: u64| w.op(i);
    let segment = Stop {
        min_time: Duration::from_secs(seconds) / segments as u32,
        min_reads: MIN_SAMPLES.div_ceil(segments as usize),
        min_writes: if durable {
            MIN_SAMPLES.div_ceil(segments as usize)
        } else {
            0
        },
        max_ops: u64::MAX,
    };
    let mut timed = Run {
        samples: Vec::new(),
        wall: Duration::ZERO,
    };
    let mut cpu_ticks = 0;
    let mut rss_kib = Vec::new();
    let mut segment_p50 = Vec::new();
    let mut next = 0;
    for k in 0..segments {
        let cpu_before = server.cpu_ticks()?;
        let run = drive(&mut conn, w.window, &timed_op, next, segment, None);
        cpu_ticks += server.cpu_ticks()? - cpu_before;
        rss_kib.push(server.memory_kib("VmRSS")? as f64);
        next = run
            .samples
            .iter()
            .map(|s| s.index + 1)
            .max()
            .unwrap_or(next);
        segment_p50.push(Json::from(
            Summary::of(&latencies_ms(&run.samples, false)).p50,
        ));
        timed.samples.extend(run.samples);
        timed.wall += run.wall;
        if let Some(c) = probe_conn.as_mut() {
            let stop = Stop::count(probes_per_segment);
            let p = run_serial(c, &probe_op, k * probes_per_segment, stop, None);
            probe.samples.extend(p.samples);
        }
        // Server starts are spread over the run the same way; each extra
        // server only starts, answers its ping and stops.
        setups.push(env.start()?.0.setup.as_secs_f64());
    }
    let peak_kib = server.memory_kib("VmHWM")?;
    drop(conn);
    drop(probe_conn);
    server.stop();

    let mut report = Report::default();
    tally(&mut report, "warmup", &check(w, &warm_op, &warm.samples));
    let timed_check = check(w, &timed_op, &timed.samples);
    tally(&mut report, "timed", &timed_check);
    if !durable {
        tally(
            &mut report,
            "write probe",
            &check(w, &probe_op, &probe.samples),
        );
    }
    if let Some(dir) = &data_dir {
        if let Err(e) = check_durable(dir, &timed_check.final_db) {
            report.problems.push(format!("durability: {e}"));
        }
    }

    let setup = Summary::of(&setups);
    report.metric(
        "setup_s",
        "s",
        setup.p50,
        format!("median of {} server starts", setup.n),
    );
    let reads = Summary::of(&latencies_ms(&timed.samples, false));
    let basis = format!("n={} reads, {} beyond p99", reads.n, reads.beyond_p99);
    report.metric("read_p50_ms", "ms", reads.p50, basis.clone());
    report.metric("read_p90_ms", "ms", reads.p90, basis.clone());
    // The p99s swing with host hiccups well past the largest bound a gated
    // metric may have; they are reported, not gated.
    report.info("read_p99_ms", "ms", reads.p99, basis);
    let wall = timed.wall.as_secs_f64();
    report.metric(
        "read_rps",
        "1/s",
        reads.n as f64 / wall,
        format!("{} reads in {wall:.3} s", reads.n),
    );
    let write_samples = if durable {
        &timed.samples
    } else {
        &probe.samples
    };
    let writes = Summary::of(&latencies_ms(write_samples, true));
    let basis = format!(
        "n={} {}, {} beyond p99",
        writes.n,
        if durable {
            "adds in the timed region"
        } else {
            "probe adds to `aux` between the timed segments"
        },
        writes.beyond_p99
    );
    report.metric("write_p50_ms", "ms", writes.p50, basis.clone());
    report.metric("write_p90_ms", "ms", writes.p90, basis.clone());
    report.info("write_p99_ms", "ms", writes.p99, basis);
    let ops = answered(&timed.samples);
    report.metric(
        "server_cpu_us_per_op",
        "us",
        cpu_ticks as f64 / TICKS_PER_SEC * 1e6 / ops as f64,
        format!("{cpu_ticks} ticks of user+system CPU over {ops} operations"),
    );
    // The resident set after each segment of the run's second half, once
    // the caches have filled. Reported, not gated: on `paper-cold` it
    // splits between about 17 and 35 MiB from seed to seed (the allocator
    // keeps or returns the memory of heavy requests), a quartile spread
    // near 0.8. The peak (`VmHWM`) is one heavy request's transient.
    let rss = Summary::of(&rss_kib[rss_kib.len() / 2..]);
    report.info(
        "server_rss_mb",
        "MiB",
        rss.p50 / 1024.0,
        format!(
            "median VmRSS of the last {} segments; VmHWM {peak_kib} KiB",
            rss.n
        ),
    );

    let result_hits = timed
        .samples
        .iter()
        .filter(|s| {
            matches!(
                s.outcome,
                Outcome::Rows {
                    result_hit: true,
                    ..
                }
            )
        })
        .count();
    let rows: usize = timed
        .samples
        .iter()
        .map(|s| match s.outcome {
            Outcome::Rows { rows, .. } => rows,
            _ => 0,
        })
        .sum();
    // Latency by instance class, to see which requests make the tail.
    let mut by_class: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &timed.samples {
        if let (Op::Read(r), Outcome::Rows { .. }) = (timed_op(s.index), &s.outcome) {
            let kind = if r.request.query.starts_with("q()") {
                "boolean"
            } else {
                "free"
            };
            let class = format!("{} {} {kind}", r.family, r.request.method.name());
            by_class.entry(class).or_default().push(s.us / 1e3);
        }
    }
    let mut classes = Json::obj();
    for (class, ms) in &by_class {
        let sum = Summary::of(ms);
        let mut c = Json::obj();
        c.set("n", sum.n)
            .set("p50_ms", sum.p50)
            .set("max_ms", ms.iter().copied().fold(0.0, f64::max));
        classes.set(class.clone(), c);
    }
    let mut detail = Json::obj();
    detail
        .set("read_ms_by_class", classes)
        .set("timed_ops", timed.samples.len())
        .set("segment_read_p50_ms", segment_p50)
        .set("timed_wall_s", wall)
        .set("warmup_ops", warm.samples.len())
        .set("result_cache_hits", result_hits)
        .set("rows_returned", rows)
        .set(
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&s| s.into()).collect()),
        );
    report.detail = detail;
    Ok(report)
}
