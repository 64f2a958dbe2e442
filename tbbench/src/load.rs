//! The closed-loop generator: a few client threads, one keep-alive
//! connection each, each sending its next request only after the
//! previous reply has arrived — how `submit --follow`, the CLI and
//! scripts use the server.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::client::{Conn, Reply};
use crate::prom::Scrape;

/// When the generator stops issuing requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// After exactly this many requests.
    Count(usize),
    /// Once this much time has passed since the first request.
    For(Duration),
}

/// Runs `unit` until `limit`: that many times, or, at least once,
/// until that much time has passed.
pub fn repeat(limit: Limit, mut unit: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let started = Instant::now();
    let mut n = 0;
    while match limit {
        Limit::Count(count) => n < count,
        Limit::For(d) => n == 0 || started.elapsed() < d,
    } {
        unit()?;
        n += 1;
    }
    Ok(())
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Op<T> {
    /// Position in the input stream.
    pub index: usize,
    /// Send-to-last-byte latency, seconds.
    pub latency_s: f64,
    /// What the caller kept of the reply.
    pub kept: T,
}

/// The requests of one closed-loop run, in input order.
#[derive(Debug)]
pub struct Run<T> {
    /// Completed requests (including failed ones).
    pub ops: Vec<Op<T>>,
    /// Seconds from the first send to the last reply.
    pub wall_s: f64,
}

/// Posts `body(i)` to `/v1/jobs` for i = 0, 1, … from `clients`
/// connections until `limit`, keeping `keep(i, reply)` per request.
/// A transport error reconnects before the next request.
pub fn closed_loop<T: Send>(
    addr: &str,
    clients: usize,
    limit: Limit,
    body: &(dyn Fn(usize) -> String + Sync),
    keep: &(dyn Fn(usize, Result<Reply, String>) -> T + Sync),
) -> Run<T> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Op<T>>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut ops = Vec::with_capacity(1 << 12);
                let mut conn = Conn::connect(addr);
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let more = match limit {
                        Limit::Count(n) => index < n,
                        Limit::For(d) => start.elapsed() < d,
                    };
                    if !more {
                        break;
                    }
                    let text = body(index);
                    let sent = Instant::now();
                    let reply = match conn.as_mut() {
                        Ok(c) => c.call("POST", "/v1/jobs", &text),
                        Err(e) => Err(e.clone()),
                    };
                    let latency_s = sent.elapsed().as_secs_f64();
                    if reply.is_err() {
                        conn = Conn::connect(addr);
                    }
                    ops.push(Op {
                        index,
                        latency_s,
                        kept: keep(index, reply),
                    });
                }
                done.lock()
                    .expect("no client thread panics holding the lock")
                    .extend(ops);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut ops = done.into_inner().expect("client threads joined");
    ops.sort_by_key(|op| op.index);
    Run { ops, wall_s }
}

/// One `GET /metrics` on a short-lived connection.
pub fn scrape(addr: &str) -> Result<Scrape, String> {
    let reply = Conn::connect(addr)?.call("GET", "/metrics", "")?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    Scrape::parse(&reply.body)
}
