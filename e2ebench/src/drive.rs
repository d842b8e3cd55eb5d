//! Closed-loop socket clients: each client sends its next request only
//! after the previous reply has been read and checked.

use crate::appliance::Appliance;
use crate::gen::{Op, OpKind, OpStream, Pattern, Proto, Spec};
use crate::trace::SpanLog;
use crate::wire::{Conn, OP_DEADLINE};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One op of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: OpKind,
    /// Microseconds from send to checked reply; `INFINITY` when the op
    /// failed, so a failure misses every latency limit.
    pub us: f64,
    pub bytes: u64,
    /// Seconds from the window's start to the op's send.
    pub at: f64,
}

/// A client's state across windows: its op stream, its session, and the
/// last version it wrote to each of its outputs.
pub struct Client {
    pub id: usize,
    pub proto: Proto,
    pub stream: OpStream,
    conn: Option<Conn>,
    ops_on_conn: usize,
    pub written: Vec<u32>,
    /// The first few failure messages, for the run's diagnostics.
    pub errors: Vec<String>,
}

impl Client {
    pub fn new(id: usize, spec: &Spec, seed: u64) -> Self {
        Self {
            id,
            proto: Proto::for_client(id),
            stream: OpStream::new(spec, seed, id),
            conn: None,
            ops_on_conn: 0,
            written: vec![0; spec.outputs_per_client],
            errors: Vec::new(),
        }
    }

    /// Sends `op` and checks its reply, reconnecting first when the job's
    /// session is used up; the first op of a session carries its connect.
    fn issue(
        &mut self,
        app: &Appliance,
        spec: &Spec,
        pattern: &Arc<Pattern>,
        op: Op,
    ) -> std::io::Result<()> {
        let renew = spec.ops_per_session.is_some_and(|n| self.ops_on_conn >= n);
        let fresh = self.conn.is_none() || renew;
        if fresh {
            self.conn = None;
            match Conn::connect(self.proto, app.addr(self.proto)) {
                Ok(c) => self.conn = Some(c),
                Err(e) => return Err(e),
            }
            self.ops_on_conn = 0;
        }
        let conn = self.conn.as_mut().expect("connected above");
        let len = spec.file_size as u64;
        let path = op.file.path();
        let shift = pattern.shift(spec, op.file, op.version);
        let result = match op.kind {
            OpKind::Get => conn.get(&path, len, pattern, shift),
            OpKind::Put => conn.put(&path, len, pattern, shift),
            OpKind::Stat => conn.stat(&path, len),
        };
        self.ops_on_conn += 1;
        match &result {
            Ok(()) => {
                if let (OpKind::Put, crate::gen::FileRef::Output { index, .. }) = (op.kind, op.file)
                {
                    self.written[index] = op.version;
                }
            }
            Err(e) => {
                // The session's state is unknown after a failure.
                self.conn = None;
                if self.errors.len() < 5 {
                    self.errors.push(format!("{} {path}: {e}", op.kind.name()));
                }
            }
        }
        result
    }

    /// Sends `op` and returns its record.
    pub fn run_op(
        &mut self,
        app: &Appliance,
        spec: &Spec,
        pattern: &Arc<Pattern>,
        op: Op,
    ) -> OpRecord {
        let t = Instant::now();
        let result = self.issue(app, spec, pattern, op);
        let took = t.elapsed();
        let ok = result.is_ok() && took <= OP_DEADLINE;
        OpRecord {
            kind: op.kind,
            us: if ok {
                took.as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            },
            bytes: if ok && op.kind != OpKind::Stat {
                spec.file_size as u64
            } else {
                0
            },
            at: 0.0,
        }
    }

    /// Closes the session, as a job does when it ends.
    pub fn hang_up(&mut self) {
        self.conn = None;
    }
}

/// What the clients did in one measured window.
pub struct Window {
    pub records: Vec<OpRecord>,
    /// From the window's start to the last reply of an op started in it.
    pub elapsed_s: f64,
}

/// Runs every client in its own thread: ops until `start` are warm-up and
/// unrecorded, ops started in `[start, end)` are the window. With `spans`,
/// each client call gets a span (op ids are `client << 40 | seq`).
pub fn run_window(
    app: &Appliance,
    spec: &Spec,
    pattern: &Arc<Pattern>,
    clients: &mut [Client],
    start: Instant,
    end: Instant,
    spans: Option<Instant>,
) -> (Window, Option<SpanLog>) {
    let results: Vec<(Vec<OpRecord>, Instant, Option<SpanLog>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut records = Vec::new();
                    let mut last = start;
                    let mut log = spans.map(SpanLog::new);
                    let mut seq = 0u64;
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let op = c.stream.next().expect("op streams are endless");
                        let span = log.as_mut().map(|l| {
                            seq += 1;
                            l.open(socket_span(op.kind), None, (c.id as u64) << 40 | seq)
                        });
                        let mut rec = c.run_op(app, spec, pattern, op);
                        if let (Some(l), Some(id)) = (log.as_mut(), span) {
                            l.close(id);
                        }
                        if now >= start {
                            rec.at = (now - start).as_secs_f64();
                            records.push(rec);
                            last = Instant::now();
                        }
                    }
                    (records, last, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut records = Vec::new();
    let mut last = end;
    let mut merged: Option<SpanLog> = spans.map(SpanLog::new);
    for (r, l, log) in results {
        records.extend(r);
        last = last.max(l);
        if let (Some(m), Some(log)) = (merged.as_mut(), log) {
            m.append(log);
        }
    }
    let elapsed_s = last.duration_since(start).as_secs_f64();
    (Window { records, elapsed_s }, merged)
}

fn socket_span(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Get => "socket.get",
        OpKind::Put => "socket.put",
        OpKind::Stat => "socket.stat",
    }
}

/// Reads back every output each client wrote and checks it holds the
/// last version written. Returns the failures.
pub fn verify_outputs(
    app: &Appliance,
    spec: &Spec,
    pattern: &Arc<Pattern>,
    clients: &mut [Client],
) -> Vec<String> {
    let mut failures = Vec::new();
    for c in clients.iter_mut() {
        c.hang_up();
        let conn = Conn::connect(c.proto, app.addr(c.proto));
        let mut conn = match conn {
            Ok(conn) => conn,
            Err(e) => {
                failures.push(format!("client {}: connect for read-back: {e}", c.id));
                continue;
            }
        };
        for (index, &version) in c.written.iter().enumerate() {
            let file = crate::gen::FileRef::Output {
                client: c.id,
                index,
            };
            let shift = pattern.shift(spec, file, version);
            if let Err(e) = conn.get(&file.path(), spec.file_size as u64, pattern, shift) {
                failures.push(format!("read-back {}: {e}", file.path()));
            }
        }
    }
    failures
}

/// Sleeps until `t`.
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The warm-up before every measured window: long enough to fill the
/// handle cache and pass the adaptive selector's warm-up.
pub fn warmup(smoke: bool) -> Duration {
    Duration::from_millis(if smoke { 200 } else { 1500 })
}
