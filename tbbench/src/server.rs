//! The system under test: `tbstc-serve` in a child process. The child
//! is this benchmark's own binary re-executed in `serve` mode, so the
//! server's boot time and peak RSS are its own, not the generator's.
//!
//! The child prints its bound address on stdout, serves until its stdin
//! closes, then shuts down gracefully (drain, memo flush) and exits.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::time::Instant;

use tbstc::runner::JOBS_ENV;
use tbstc_serve::{ServeConfig, Server};

use crate::client::Conn;

/// A running server child.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// `host:port` it listens on.
    pub addr: String,
    /// Seconds from spawning the process to its first `/healthz` 200.
    pub boot_s: f64,
}

impl ServerProc {
    /// Boots a server over `cache_dir` with `workers` job workers (and
    /// `TBSTC_JOBS` set to the same count) and waits until it answers.
    pub fn start(cache_dir: &Path, workers: usize) -> Result<ServerProc, String> {
        let started = Instant::now();
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(cache_dir)
            .arg(workers.to_string())
            .env(JOBS_ENV, workers.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let mut server = ServerProc {
            child,
            stdin,
            addr: String::new(),
            boot_s: 0.0,
        };
        let stdout = stdout.ok_or("server stdout not captured")?;
        BufReader::new(stdout)
            .read_line(&mut server.addr)
            .map_err(|e| format!("read server address: {e}"))?;
        server.addr = server.addr.trim().to_string();
        if server.addr.is_empty() {
            return Err("server exited before binding".into());
        }
        let health = Conn::connect(&server.addr)?.call("GET", "/healthz", "")?;
        if health.status != 200 {
            return Err(format!("server health check answered {}", health.status));
        }
        server.boot_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Boots a server over `cache_dir` and kills it again; returns its
    /// boot time. It has served nothing, so there is nothing to drain,
    /// and a graceful stop would take far longer than the boot.
    pub fn boot_once(cache_dir: &Path, workers: usize) -> Result<f64, String> {
        // Killed before its stdin closes, so it never starts a shutdown
        // that would write to the store.
        let mut server = ServerProc::start(cache_dir, workers)?;
        server
            .child
            .kill()
            .and_then(|()| server.child.wait())
            .map_err(|e| format!("kill server: {e}"))?;
        drop(server.stdin.take());
        Ok(server.boot_s)
    }

    /// The child's peak resident set size so far, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Graceful stop: close stdin, wait for the drain and memo flush.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Only reached without `stop` (an error path): do not wait for a
        // graceful drain.
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// Entry point of the child: `serve <cache-dir> <job-workers>`.
pub fn child_main(args: &[String]) -> ExitCode {
    let (Some(dir), Some(workers)) = (args.first(), args.get(1).and_then(|w| w.parse().ok()))
    else {
        eprintln!("usage: tbbench serve <cache-dir> <job-workers>");
        return ExitCode::FAILURE;
    };
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: PathBuf::from(dir),
        job_workers: workers,
        quiet: true,
        ..ServeConfig::default()
    };
    let running = match Server::bind(cfg).and_then(Server::spawn) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tbbench serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::stdout();
    if writeln!(out, "{}", running.addr)
        .and_then(|()| out.flush())
        .is_err()
    {
        running.shutdown_and_join();
        return ExitCode::FAILURE;
    }
    // Serve until the parent closes our stdin.
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    running.shutdown_and_join();
    ExitCode::SUCCESS
}
