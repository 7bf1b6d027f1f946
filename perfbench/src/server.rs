//! Starting, probing and stopping the real `ppr serve` process.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppr_relalg::Budget;
use ppr_service::EngineConfig;

use crate::wire::Conn;

/// The `ppr serve` settings of a run. The in-process engine of the traced
/// run is built from the same values ([`ServeConfig::engine_config`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine worker threads (`--workers`).
    pub workers: usize,
    /// Bounded queue capacity (`--queue`).
    pub queue: usize,
    /// Plan- and decomposition-cache entries (`--cache`).
    pub cache: usize,
    /// Result-cache byte budget (`--result-cache-bytes`).
    pub result_cache_bytes: usize,
    /// Server-side wall-clock budget per request (`--timeout-ms`).
    pub timeout_ms: u64,
    /// `--rel-file name=path` pairs, in order.
    pub rel_files: Vec<(String, PathBuf)>,
    /// `--data-dir`, always with `--no-fsync`.
    pub data_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    /// The settings every workload uses; relations and data dir are set
    /// per run.
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue: 64,
            cache: 256,
            // Small enough that `paper-cold`'s one-off results fill it
            // within the first seconds, so a run measures the cache's
            // steady state rather than its growth; `hot-repeat`'s whole
            // working set still fits.
            result_cache_bytes: 512 << 10,
            timeout_ms: 10_000,
            rel_files: Vec::new(),
            data_dir: None,
        }
    }
}

impl ServeConfig {
    /// The command-line flags after `ppr serve`.
    pub fn args(&self) -> Vec<String> {
        let mut args: Vec<String> = [
            "--listen",
            "127.0.0.1:0",
            "--workers",
            &self.workers.to_string(),
            "--queue",
            &self.queue.to_string(),
            "--cache",
            &self.cache.to_string(),
            "--result-cache-bytes",
            &self.result_cache_bytes.to_string(),
            "--exec-threads",
            "1",
            "--timeout-ms",
            &self.timeout_ms.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for (name, path) in &self.rel_files {
            args.push("--rel-file".into());
            args.push(format!("{name}={}", path.display()));
        }
        if let Some(dir) = &self.data_dir {
            args.push("--data-dir".into());
            args.push(dir.display().to_string());
            // The WAL stays on; a sandbox fsync would time the host disk.
            args.push("--no-fsync".into());
        }
        args
    }

    /// The [`EngineConfig`] `ppr serve` builds from [`ServeConfig::args`].
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::default();
        cfg.workers = self.workers;
        cfg.queue_capacity = self.queue;
        cfg.cache_capacity = self.cache;
        cfg.result_cache_bytes = self.result_cache_bytes;
        cfg.exec_threads = 1;
        cfg.max_budget =
            Budget::tuples(u64::MAX).with_timeout(Duration::from_millis(self.timeout_ms));
        cfg
    }
}

/// A running `ppr serve` child. Dropping it kills the process and waits
/// for it.
pub struct Server {
    child: Child,
    /// The bound address, read from the server's startup line.
    pub addr: String,
    /// Spawn until the first `ping` reply.
    pub setup: Duration,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin serve args…`, waits for its listening line and answers
    /// one `ping`; the time from spawn to that reply is [`Server::setup`].
    pub fn start(bin: &Path, args: &[String]) -> io::Result<Server> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "ppr serve exited before listening:\n{seen}"
                )));
            }
            if let Some(addr) = line.trim().strip_prefix("ppr-service listening on ") {
                break addr.to_string();
            }
            seen.push_str(&line);
        };
        // Keep the pipe drained so a later server log line never blocks.
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        });
        let mut server = Server {
            child,
            addr,
            setup: Duration::ZERO,
            drain: Some(drain),
        };
        Conn::connect(&server.addr)?.ping()?;
        server.setup = started.elapsed();
        Ok(server)
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU of the whole process, in clock ticks of
    /// `USER_HZ` (100 per second on Linux).
    pub fn cpu_ticks(&self) -> io::Result<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> io::Result<u64> {
            fields
                .get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok(tick(11)? + tick(12)?)
    }

    /// A `/proc/<pid>/status` memory field (`VmRSS`, `VmHWM`) in KiB.
    pub fn memory_kib(&self, field: &str) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("no {field} in /proc status")))
    }

    /// Kills the server (it serves until killed) and waits for it.
    pub fn stop(self) {
        drop(self);
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Recursively copies `from` into the new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
