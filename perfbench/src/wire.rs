//! The single-threaded load generator: one TCP connection to `ppr serve`,
//! driven as a closed loop.
//!
//! A serial (protocol v1) connection sends a request, waits for its reply
//! and sends the next. A pipelined (protocol v2) connection keeps a fixed
//! window of tagged requests in flight and sends the next one as each
//! reply arrives. Each operation is timed from just before its line is
//! written to when its reply has been decoded.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ppr_service::protocol;

use crate::oracle::digest;
use crate::spans::Tracer;
use crate::workload::Op;

fn proto_err(e: ppr_service::ServiceError) -> io::Error {
    io::Error::other(e.to_string())
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    /// Connects with `TCP_NODELAY`, as the program's own client does.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Writes one line (one `write` call).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)
    }

    /// Reads one reply line.
    pub fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(&self.line)
    }

    /// One serial round trip.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv().map(str::to_string)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call("ping")?.trim_end() {
            "ok pong" => Ok(()),
            other => Err(io::Error::other(format!("unexpected ping reply `{other}`"))),
        }
    }

    /// Switches the connection to protocol v2 and returns the server's
    /// window.
    pub fn hello_v2(&mut self) -> io::Result<usize> {
        let reply = self.call("hello proto=2")?;
        Ok(protocol::decode_hello_ok(&reply).map_err(proto_err)?.window)
    }
}

/// What one operation came back with.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A query answered: the [`digest`] of its columns and rows, and
    /// whether the result cache served it.
    Rows {
        /// Digest of the reply.
        digest: u64,
        /// The reply's `result_hit` flag.
        result_hit: bool,
        /// Rows in the reply.
        rows: usize,
    },
    /// An `add` acknowledged at this database version.
    Ack(u64),
    /// A transport error or a typed refusal, by kind.
    Failed(String),
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the operation in the sequence.
    pub index: u64,
    /// Whether it was an `add`.
    pub write: bool,
    /// Client-observed latency in µs.
    pub us: f64,
    /// Its result.
    pub outcome: Outcome,
}

/// When a closed loop stops: after `min_time` once it has at least
/// `min_reads` reads and `min_writes` writes, or after `max_ops`
/// operations, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Minimum measured wall time.
    pub min_time: Duration,
    /// Minimum completed reads.
    pub min_reads: usize,
    /// Minimum completed writes.
    pub min_writes: usize,
    /// Hard cap on operations.
    pub max_ops: u64,
}

impl Stop {
    /// Exactly `ops` operations.
    pub fn count(ops: u64) -> Stop {
        Stop {
            min_time: Duration::MAX,
            min_reads: 0,
            min_writes: 0,
            max_ops: ops,
        }
    }

    fn done(&self, started: Instant, sent: u64, reads: usize, writes: usize) -> bool {
        sent >= self.max_ops
            || (started.elapsed() >= self.min_time
                && reads >= self.min_reads
                && writes >= self.min_writes)
    }
}

/// A run of the loop: its samples and its wall time.
pub struct Run {
    /// Samples in completion order.
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last reply.
    pub wall: Duration,
}

fn decode_reply(write: bool, payload: &str) -> Outcome {
    if write {
        match protocol::decode_ack(payload) {
            Ok(ack) => match ack.version {
                Some(v) => Outcome::Ack(v.0),
                None => Outcome::Failed("ack_without_version".into()),
            },
            Err(e) => Outcome::Failed(e.kind().into()),
        }
    } else {
        match protocol::decode_result(payload) {
            Ok(resp) => Outcome::Rows {
                digest: digest(&resp.columns, &resp.rows),
                result_hit: resp.result_cache_hit,
                rows: resp.rows.len(),
            },
            Err(e) => Outcome::Failed(e.kind().into()),
        }
    }
}

/// The line an operation sends; traced runs re-encode it inside a span.
fn encode(op: &Op, traced: bool) -> String {
    match (op, traced) {
        (Op::Read(r), false) => r.line.clone(),
        (Op::Write(w), false) => w.line.clone(),
        (Op::Read(r), true) => protocol::encode_request(&r.request),
        (Op::Write(w), true) => protocol::encode_command(&protocol::Command::Add {
            db: w.db.clone(),
            rel: w.rel.clone(),
            tuple: w.tuple.clone(),
        }),
    }
}

/// Drives a serial (v1) connection over `op(start)`, `op(start + 1)`, …
/// With a tracer, each operation gets a `wire.request` span with
/// `client.encode`, `client.exchange` and `client.decode` children.
pub fn run_serial(
    conn: &mut Conn,
    op: &dyn Fn(u64) -> Op,
    start: u64,
    stop: Stop,
    mut tracer: Option<&mut Tracer>,
) -> Run {
    let mut samples = Vec::new();
    let (mut reads, mut writes) = (0, 0);
    let started = Instant::now();
    let mut i = start;
    while !stop.done(started, i - start, reads, writes) {
        let op_i = op(i);
        let write = matches!(op_i, Op::Write(_));
        let (us, outcome) = match tracer.as_deref_mut() {
            None => {
                let line = encode(&op_i, false);
                let t0 = Instant::now();
                let outcome = match conn.call(&line) {
                    Ok(reply) => decode_reply(write, &reply),
                    Err(e) => Outcome::Failed(format!("io: {e}")),
                };
                (t0.elapsed().as_secs_f64() * 1e6, outcome)
            }
            Some(t) => {
                let root = t.open("wire.request", i, None);
                let (line, _) = t.time("client.encode", i, Some(root), || encode(&op_i, true));
                let t0 = Instant::now();
                let (reply, _) = t.time("client.exchange", i, Some(root), || conn.call(&line));
                let (outcome, _) = t.time("client.decode", i, Some(root), || match &reply {
                    Ok(reply) => decode_reply(write, reply),
                    Err(e) => Outcome::Failed(format!("io: {e}")),
                });
                let us = t0.elapsed().as_secs_f64() * 1e6;
                t.close(root);
                (us, outcome)
            }
        };
        let broken = matches!(&outcome, Outcome::Failed(k) if k.starts_with("io"));
        if write {
            writes += 1;
        } else {
            reads += 1;
        }
        samples.push(Sample {
            index: i,
            write,
            us,
            outcome,
        });
        i += 1;
        if broken {
            break;
        }
    }
    Run {
        samples,
        wall: started.elapsed(),
    }
}

/// Drives a pipelined (v2) connection that keeps `window` tagged reads in
/// flight. Tracing records the same spans as [`run_serial`]; exchanges of
/// requests in flight together overlap.
pub fn run_pipelined(
    conn: &mut Conn,
    window: usize,
    op: &dyn Fn(u64) -> Op,
    start: u64,
    stop: Stop,
    mut tracer: Option<&mut Tracer>,
) -> Run {
    struct Pending {
        index: u64,
        sent: Instant,
        root: usize,
        exchange: usize,
    }
    let mut samples = Vec::new();
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut reads = 0;
    let started = Instant::now();
    let mut i = start;
    let mut broken = false;
    loop {
        while !broken && pending.len() < window && !stop.done(started, i - start, reads, 0) {
            let Op::Read(read) = op(i) else {
                panic!("pipelined workloads only read")
            };
            let op_i = Op::Read(read);
            let (line, root) = match tracer.as_deref_mut() {
                None => (encode(&op_i, false), 0),
                Some(t) => {
                    let root = t.open("wire.request", i, None);
                    let (line, _) = t.time("client.encode", i, Some(root), || encode(&op_i, true));
                    (line, root)
                }
            };
            let line = protocol::tag_request(i, &line);
            let exchange = tracer
                .as_deref_mut()
                .map_or(0, |t| t.open("client.exchange", i, Some(root)));
            let sent = Instant::now();
            if let Err(e) = conn.send(&line) {
                samples.push(Sample {
                    index: i,
                    write: false,
                    us: 0.0,
                    outcome: Outcome::Failed(format!("io: {e}")),
                });
                broken = true;
                break;
            }
            pending.insert(
                i,
                Pending {
                    index: i,
                    sent,
                    root,
                    exchange,
                },
            );
            i += 1;
        }
        if pending.is_empty() {
            break;
        }
        let reply = match conn.recv() {
            Ok(line) => line.to_string(),
            Err(e) => {
                for p in pending.drain().map(|(_, p)| p) {
                    samples.push(Sample {
                        index: p.index,
                        write: false,
                        us: 0.0,
                        outcome: Outcome::Failed(format!("io: {e}")),
                    });
                }
                break;
            }
        };
        let (tag, payload) = match protocol::split_reply_tag(&reply) {
            Ok((Some(tag), payload)) => (tag, payload),
            _ => {
                broken = true;
                samples.push(Sample {
                    index: i,
                    write: false,
                    us: 0.0,
                    outcome: Outcome::Failed("untagged_reply".into()),
                });
                continue;
            }
        };
        let Some(p) = pending.remove(&tag) else {
            broken = true;
            continue;
        };
        let outcome = match tracer.as_deref_mut() {
            None => decode_reply(false, &payload),
            Some(t) => {
                t.close(p.exchange);
                let (outcome, _) = t.time("client.decode", p.index, Some(p.root), || {
                    decode_reply(false, &payload)
                });
                t.close(p.root);
                outcome
            }
        };
        reads += 1;
        samples.push(Sample {
            index: p.index,
            write: false,
            us: p.sent.elapsed().as_secs_f64() * 1e6,
            outcome,
        });
    }
    Run {
        samples,
        wall: started.elapsed(),
    }
}
