//! The traced run: per-layer metrics from spans recorded around the
//! calls the benchmark makes into each layer, over sockets and
//! in-process.

use crate::appliance::{staged_files, Appliance};
use crate::drive::{warmup, Client, OpRecord};
use crate::gen::{FileRef, Op, OpKind, Pattern, Proto, Spec, CLIENTS};
use crate::host;
use crate::run::{failed, latencies, measure, print_latency, Args, MIB};
use crate::stats::{median, percentile, sorted};
use crate::trace::SpanLog;
use crate::wire::Conn;
use nest_core::Dispatcher;
use nest_proto::chirp::{format_request, parse_command};
use nest_proto::http::{HttpMethod, HttpRequestHead};
use nest_proto::{NestRequest, NestResponse};
use nest_storage::{Principal, VPath};
use nest_transfer::flow::{CountingSink, DataSink, FlowMeta, MemSource};
use nest_transfer::manager::TransferConfig;
use nest_transfer::TransferManager;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fewest samples a per-op-kind layer metric rests on; kinds the
/// workload's stream has fewer of are measured by a probe of this size.
const MIN_SAMPLES: usize = 32;
/// Every n-th in-process op also replays its storage and transfer calls
/// directly.
const SAMPLE_EVERY: u64 = 4;

/// The traced run: a traced socket window, a session probe, and an
/// in-process replay of the op streams through the calls a
/// front makes. Returns (attempted, failed) over every op it sent.
pub(crate) fn traced(
    args: &Args,
    app: &Appliance,
    spec: &Spec,
    pattern: &Arc<Pattern>,
    clients: &mut [Client],
    values: &mut BTreeMap<&'static str, f64>,
) -> io::Result<(u64, u64)> {
    let epoch = Instant::now();
    let (w, samples, log) = measure(
        app,
        spec,
        pattern,
        clients,
        warmup(args.smoke),
        (args.seconds / 2.0, 1),
        Some(epoch),
    );
    let (a, b) = (&samples[0], &samples[1]);
    let mut spans = log.expect("traced window records spans");
    let all = latencies(&w.records, None);
    let op_us = percentile(&all, 0.5).unwrap_or(f64::NAN);
    values.insert("trace.overhead_share", span_cost_us() / op_us);
    let ops = (w.records.len() as f64).max(1.0);
    print_latency("traced socket", &w.records);

    for name in [
        "session.accepted",
        "session.rejected",
        "session.queued",
        "dispatch.errors",
    ] {
        values.insert(name, b.delta(a, name));
    }
    for name in ["transfer.zerocopy.fallbacks", "transfer.retries"] {
        values.insert(name, b.delta(a, name));
    }
    let hits = b.delta(a, "handlecache.hits");
    let misses = b.delta(a, "handlecache.misses");
    values.insert("handlecache.hit_ratio", hits / (hits + misses).max(1.0));
    let moved = b.delta(a, "transfer.bytes_total") / MIB;
    values.insert(
        "transfer.engine.cpu_ns_per_mib",
        b.delta(a, "transfer.engine.cpu_ns") / moved.max(1e-9),
    );
    let flows = b.delta(a, "transfer.completed").max(1.0);
    values.insert(
        "transfer.sendfile_share",
        b.delta(a, "transfer.zerocopy.sendfile_flows") / flows,
    );
    values.insert(
        "transfer.model.switches_per_flow",
        b.delta(a, "transfer.model.switches") / flows,
    );
    let reuse = b.delta(a, "bufpool.reuse");
    values.insert(
        "bufpool.reuse_share",
        reuse / (reuse + b.delta(a, "bufpool.fresh")).max(1.0),
    );
    let waits = b.lock_waits(a);
    let wait_of = |class: &str| waits.iter().find(|w| w.0 == class).map_or(0.0, |w| w.1);
    values.insert("lock.storage.lot.wait_us", wait_of("storage.lot") / ops);
    values.insert(
        "lock.transfer.cache.wait_us",
        wait_of("transfer.cache") / ops,
    );
    values.insert(
        "lock.transfer.bufpool.free.wait_us",
        wait_of("transfer.bufpool.free") / ops,
    );
    let top: Vec<_> = waits
        .iter()
        .filter(|(n, w)| {
            *w > 0.0 && !n.ends_with(".cv") && !n.starts_with("test.") && !n.starts_with("model.")
        })
        .take(5)
        .collect();
    values.insert(
        "lock.top5.wait_us",
        top.iter().map(|t| t.1).sum::<f64>() / ops,
    );
    println!(
        "# lock wait top 5 (us/op): {}",
        top.iter()
            .map(|(n, w)| format!("{n} {:.3}", w / ops))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "# traced window: {} ops in {:.3} s, steal share of busy CPU {:.4}, model switches {}, flows by model: {}",
        w.records.len(),
        w.elapsed_s,
        host::steal_share(a.jiffies, b.jiffies),
        b.delta(a, "transfer.model.switches"),
        b.model_mix(a)
    );

    values.insert("session.first_op_extra_us", session_probe(app, spec)?);
    let (render, parse) = codec_costs(spec, args.seed);
    values.insert("proto.render_us", render);
    values.insert("proto.parse_us", parse);

    let mut socket = w.records.clone();
    let inproc = in_process(
        app,
        spec,
        pattern,
        clients,
        (args.seconds / 4.0).max(0.2),
        epoch,
    );
    let mut spans_in = inproc.spans;
    let (mut probe_ops, mut probe_bad) = (0, 0);
    for kind in OpKind::ALL {
        let have = spans_in.durations(inproc_span(kind)).len();
        if have < MIN_SAMPLES {
            let (n, b) = probe(
                app,
                spec,
                pattern,
                clients,
                kind,
                &mut spans_in,
                &mut socket,
            );
            probe_ops += n;
            probe_bad += b;
        }
    }
    for kind in OpKind::ALL {
        let sock = latencies(&socket, Some(kind));
        let own = sorted(spans_in.durations(inproc_span(kind)));
        let residual = percentile(&sock, 0.5)
            .zip(percentile(&own, 0.5))
            .map(|(s, o)| s - o);
        let name = match kind {
            OpKind::Get => "front.get.residual_us",
            OpKind::Put => "front.put.residual_us",
            OpKind::Stat => "front.stat.residual_us",
        };
        values.insert(name, residual.unwrap_or(f64::NAN));
    }
    for (metric, span) in [
        ("dispatcher.admit_get_us", "dispatcher.admit_get"),
        ("dispatcher.transfer_get_us", "dispatcher.transfer_get"),
        ("dispatcher.admit_put_us", "dispatcher.admit_put"),
        ("dispatcher.transfer_put_us", "dispatcher.transfer_put"),
        ("dispatcher.stat_us", "dispatcher.stat"),
        ("dispatcher.persist_lots_us", "dispatcher.persist_lots"),
        ("storage.begin_get_us", "storage.begin_get"),
        ("storage.begin_put_us", "storage.begin_put"),
        ("storage.read_chunk_us", "storage.read_chunk"),
        ("storage.write_chunk_us", "storage.write_chunk"),
        ("storage.lot_snapshot_us", "storage.lot_snapshot"),
        ("transfer.engine_us", "transfer.engine"),
    ] {
        values.insert(metric, median(&spans_in.durations(span)));
    }
    values.insert(
        "storage.lot_snapshot_bytes",
        median(&spans_in.noted("storage.lot_snapshot_bytes")),
    );
    let (amp, amp_bad) = write_amp(app, spec, pattern, &mut clients[0]);
    values.insert("storage.write_amp", amp);
    values.insert(
        "dispatcher.transfer_put.unexplained_us",
        unexplained_put(&spans_in),
    );

    spans.append(spans_in);
    println!("# spans (name: count, median us, median self us):");
    for (name, (n, d, own)) in spans.summary() {
        println!("#   {name}: {n}, {d:.2}, {own:.2}");
    }
    let file = args.data.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    spans.write_jsonl(&file)?;
    println!("# spans written to {}", file.display());

    let attempted = w.records.len() + inproc.ops + probe_ops + AMP_PUTS;
    let bad = failed(&socket) + inproc.failed + probe_bad + amp_bad;
    Ok((attempted as u64, bad))
}

/// Microseconds one span costs the op it wraps: the median over
/// batches of the time to open and close a span. The socket pass puts
/// one span around each op, so this over the op's median latency is the
/// tracing overhead.
fn span_cost_us() -> f64 {
    const BATCH: u32 = 10_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut log = SpanLog::new(Instant::now());
            let t = Instant::now();
            for i in 0..BATCH {
                let id = log.open("trace.cost", None, u64::from(i));
                log.close(id);
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH)
        })
        .collect();
    median(&batches)
}

/// Median first-op time on a fresh session minus the warm median of the
/// same op (a stat), over both protocols.
fn session_probe(app: &Appliance, spec: &Spec) -> io::Result<f64> {
    let file = staged_files(spec)[0];
    let (path, len) = (file.path(), spec.file_size as u64);
    let mut fresh = Vec::new();
    let mut warm = Vec::new();
    for proto in [Proto::Chirp, Proto::Http] {
        for _ in 0..MIN_SAMPLES {
            let t = Instant::now();
            Conn::connect(proto, app.addr(proto))?.stat(&path, len)?;
            fresh.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let mut conn = Conn::connect(proto, app.addr(proto))?;
        for _ in 0..MIN_SAMPLES {
            let t = Instant::now();
            conn.stat(&path, len)?;
            warm.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median(&fresh) - median(&warm))
}

/// Mean microseconds to render and to parse one request of each
/// client's stream, in its client's protocol.
fn codec_costs(spec: &Spec, seed: u64) -> (f64, f64) {
    const N: usize = 2000;
    let mut render = Vec::new();
    let mut parse = Vec::new();
    for round in 0..5 {
        let (mut r_ns, mut p_ns) = (0u128, 0u128);
        for client in 0..CLIENTS {
            let ops: Vec<Op> = crate::gen::OpStream::new(spec, seed ^ round, client)
                .take(N)
                .collect();
            let proto = Proto::for_client(client);
            let t = Instant::now();
            let wire: Vec<String> = ops
                .iter()
                .map(|op| render_request(proto, spec, op))
                .collect();
            r_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            let mut ok = 0;
            for line in &wire {
                ok += match proto {
                    Proto::Chirp => parse_command(line).is_some() as usize,
                    Proto::Http => HttpRequestHead::read(&mut line.as_bytes())
                        .ok()
                        .flatten()
                        .is_some() as usize,
                };
            }
            p_ns += t.elapsed().as_nanos();
            assert_eq!(ok, wire.len(), "a generated request failed to parse");
        }
        let n = (N * CLIENTS) as f64;
        render.push(r_ns as f64 / 1e3 / n);
        parse.push(p_ns as f64 / 1e3 / n);
    }
    (median(&render), median(&parse))
}

fn render_request(proto: Proto, spec: &Spec, op: &Op) -> String {
    let path = op.file.path();
    match proto {
        Proto::Chirp => format_request(&match op.kind {
            OpKind::Get => NestRequest::Get { path },
            OpKind::Put => NestRequest::Put {
                path,
                size: Some(spec.file_size as u64),
            },
            OpKind::Stat => NestRequest::Stat { path },
        }),
        Proto::Http => {
            let method = match op.kind {
                OpKind::Get => HttpMethod::Get,
                OpKind::Put => HttpMethod::Put,
                OpKind::Stat => HttpMethod::Head,
            };
            let mut headers = BTreeMap::new();
            headers.insert("host".to_owned(), "127.0.0.1:80".to_owned());
            if op.kind == OpKind::Put {
                headers.insert("content-length".to_owned(), spec.file_size.to_string());
            }
            HttpRequestHead::plain(method, &path, headers).render()
        }
    }
}

fn inproc_span(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Get => "inproc.get",
        OpKind::Put => "inproc.put",
        OpKind::Stat => "inproc.stat",
    }
}

fn direct_span(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Get => "direct.get",
        OpKind::Put => "direct.put",
        OpKind::Stat => "direct.stat",
    }
}

/// Median over sampled PUTs of `transfer_put` minus the direct replay's
/// `write_chunk` and `persist_lots` time: what the engine hand-off and
/// flow scheduling add beneath the dispatcher.
fn unexplained_put(log: &SpanLog) -> f64 {
    let mut by_op: BTreeMap<u64, (f64, f64, bool)> = BTreeMap::new();
    for s in &log.spans {
        let e = by_op.entry(s.op).or_default();
        match s.name {
            "dispatcher.transfer_put" => e.0 += s.us(),
            "storage.write_chunk" | "dispatcher.persist_lots" => e.1 += s.us(),
            "direct.put" => e.2 = true,
            _ => {}
        }
    }
    let v: Vec<f64> = by_op
        .values()
        .filter(|e| e.2 && e.0 > 0.0)
        .map(|e| e.0 - e.1)
        .collect();
    median(&v)
}

/// A DataSink that checks a GET body against its pattern.
struct CheckSink {
    check: crate::gen::Checker,
    done: Arc<Mutex<Option<(u64, bool)>>>,
}

impl DataSink for CheckSink {
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        self.check.feed(data);
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        *self.done.lock().expect("check slot poisoned") = Some((self.check.seen, self.check.ok));
        Ok(())
    }
}

struct InProc {
    spans: SpanLog,
    ops: usize,
    failed: u64,
}

/// Everything one in-process op needs.
struct Ctx<'a> {
    d: &'a Dispatcher,
    engine: &'a TransferManager,
    spec: &'a Spec,
    pattern: &'a Arc<Pattern>,
    zeros: Arc<Vec<u8>>,
}

/// Replays the clients' streams in-process, one thread per client, for
/// `secs`: each op goes through the dispatcher calls its front makes,
/// and every `SAMPLE_EVERY`-th op also replays the storage and transfer
/// calls beneath them directly.
fn in_process(
    app: &Appliance,
    spec: &Spec,
    pattern: &Arc<Pattern>,
    clients: &mut [Client],
    secs: f64,
    epoch: Instant,
) -> InProc {
    let d = app.server.dispatcher();
    let engine = engine();
    let ctx = Ctx {
        d,
        engine: &engine,
        spec,
        pattern,
        zeros: Arc::new(vec![0; spec.file_size]),
    };
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let results: Vec<(SpanLog, usize, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let ctx = &ctx;
                s.spawn(move || {
                    let mut log = SpanLog::new(epoch);
                    let (mut ops, mut bad) = (0, 0);
                    let mut seq = 0u64;
                    while Instant::now() < end {
                        let op = c.stream.next().expect("op streams are endless");
                        seq += 1;
                        let id = 1 << 62 | (c.id as u64) << 40 | seq;
                        let sample = seq.is_multiple_of(SAMPLE_EVERY);
                        ops += 1;
                        if let Err(e) = inproc_op(ctx, c, op, sample, &mut log, id) {
                            bad += 1;
                            if c.errors.len() < 5 {
                                c.errors.push(format!("in-process {}: {e}", op.kind.name()));
                            }
                        }
                    }
                    (log, ops, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("in-process thread panicked"))
            .collect()
    });
    engine.shutdown();
    let mut out = InProc {
        spans: SpanLog::new(epoch),
        ops: 0,
        failed: 0,
    };
    for (log, ops, bad) in results {
        out.spans.append(log);
        out.ops += ops;
        out.failed += bad;
    }
    out
}

/// A transfer engine configured as the dispatcher's, for timing bare
/// flows (the dispatcher's own engine is private to it).
fn engine() -> TransferManager {
    let engine = TransferManager::new(TransferConfig {
        process_launcher: Arc::new(nest_core::procpool::SubprocessLauncher::new()),
        ..TransferConfig::default()
    });
    // Past the adaptive selector's warm-up, as the appliance is.
    for _ in 0..16 {
        let _ = engine_flow(&engine, &Arc::new(vec![0; 4096]));
    }
    engine
}

fn engine_flow(engine: &TransferManager, data: &Arc<Vec<u8>>) -> io::Result<u64> {
    let meta = FlowMeta::new(engine.next_flow_id(), "e2ebench", Some(data.len() as u64));
    engine
        .submit(
            meta,
            Box::new(MemSource::new(Arc::clone(data))),
            Box::<CountingSink>::default(),
        )
        .wait()
}

fn proto_name(proto: Proto) -> &'static str {
    match proto {
        Proto::Chirp => "chirp",
        Proto::Http => "http",
    }
}

fn err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One op through the dispatcher (and, when `sample`, directly through
/// the storage manager and a bare engine).
fn inproc_op(
    ctx: &Ctx,
    client: &mut Client,
    op: Op,
    sample: bool,
    log: &mut SpanLog,
    id: u64,
) -> io::Result<()> {
    let (d, spec) = (ctx.d, ctx.spec);
    let sm = d.storage();
    let who = Principal::anonymous();
    let proto = proto_name(client.proto);
    let path = op.file.path();
    let len = spec.file_size as u64;
    let shift = ctx.pattern.shift(spec, op.file, op.version);
    let nest_err = |e| err(format!("{path}: {e:?}"));
    match op.kind {
        OpKind::Get => {
            let root = log.open(inproc_span(op.kind), None, id);
            let (vpath, size, cached) = log
                .time("dispatcher.admit_get", Some(root), id, || {
                    d.admit_get(&who, proto, &path)
                })
                .map_err(nest_err)?;
            let done = Arc::new(Mutex::new(None));
            let sink = CheckSink {
                check: ctx.pattern.checker(shift),
                done: Arc::clone(&done),
            };
            log.time("dispatcher.transfer_get", Some(root), id, || {
                d.transfer_get(&who, proto, &vpath, size, cached, Box::new(sink))
            })?;
            log.close(root);
            let got = *done.lock().expect("check slot poisoned");
            if size != len || got != Some((len, true)) {
                return Err(err(format!("{path}: size {size}, body check {got:?}")));
            }
            if sample {
                let direct = log.open(direct_span(op.kind), None, id);
                log.time("storage.begin_get", Some(direct), id, || {
                    sm.begin_get(&who, proto, &vpath)
                })
                .map_err(|e| err(e.to_string()))?;
                let mut check = ctx.pattern.checker(shift);
                let mut buf = vec![0u8; 64 << 10];
                let mut off = 0;
                while off < len {
                    let n = log
                        .time("storage.read_chunk", Some(direct), id, || {
                            sm.read_chunk(&vpath, off, &mut buf)
                        })
                        .map_err(|e| err(e.to_string()))?;
                    if n == 0 {
                        break;
                    }
                    check.feed(&buf[..n]);
                    off += n as u64;
                }
                log.time("transfer.engine", Some(direct), id, || {
                    engine_flow(ctx.engine, &ctx.zeros)
                })?;
                log.close(direct);
                if !check.complete(len) {
                    return Err(err(format!("{path}: direct read does not match")));
                }
            }
        }
        OpKind::Put => {
            let body = Arc::new(ctx.pattern.bytes(shift, spec.file_size));
            let root = log.open(inproc_span(op.kind), None, id);
            let vpath = log
                .time("dispatcher.admit_put", Some(root), id, || {
                    d.admit_put(&who, proto, &path, Some(len))
                })
                .map_err(nest_err)?;
            let moved = log.time("dispatcher.transfer_put", Some(root), id, || {
                d.transfer_put(
                    &who,
                    proto,
                    &vpath,
                    Box::new(MemSource::new(Arc::clone(&body))),
                    Some(len),
                )
            })?;
            log.close(root);
            if moved != len {
                return Err(err(format!("{path}: stored {moved} of {len} bytes")));
            }
            if sample {
                let direct = log.open(direct_span(op.kind), None, id);
                log.time("storage.begin_put", Some(direct), id, || {
                    sm.begin_put(&who, proto, &vpath, len)
                })
                .map_err(|e| err(e.to_string()))?;
                for (i, chunk) in body.chunks(64 << 10).enumerate() {
                    let off = (i * (64 << 10)) as u64;
                    log.time("storage.write_chunk", Some(direct), id, || {
                        sm.write_chunk(&who, &vpath, off, chunk)
                    })
                    .map_err(|e| err(e.to_string()))?;
                }
                let snap = log.time("storage.lot_snapshot", Some(direct), id, || {
                    sm.lot_manager().snapshot()
                });
                log.note("storage.lot_snapshot_bytes", snap.len() as f64);
                log.time("dispatcher.persist_lots", Some(direct), id, || {
                    d.persist_lots()
                });
                log.time("transfer.engine", Some(direct), id, || {
                    engine_flow(ctx.engine, &ctx.zeros)
                })?;
                log.close(direct);
            }
            if let FileRef::Output { index, .. } = op.file {
                client.written[index] = op.version;
            }
        }
        OpKind::Stat => {
            let req = NestRequest::Stat { path: path.clone() };
            let root = log.open(inproc_span(op.kind), None, id);
            let resp = log.time("dispatcher.stat", Some(root), id, || {
                d.execute_sync(&who, proto, &req)
            });
            log.close(root);
            if resp != NestResponse::OkSize(len) {
                return Err(err(format!("{path}: stat gave {resp:?}")));
            }
            if sample {
                let vpath = VPath::parse(&path).map_err(|e| err(e.to_string()))?;
                let direct = log.open(direct_span(op.kind), None, id);
                let st = log.time("storage.stat", Some(direct), id, || {
                    sm.stat(&who, proto, &vpath)
                });
                log.close(direct);
                if st.map(|s| s.size).ok() != Some(len) {
                    return Err(err(format!("{path}: direct stat mismatch")));
                }
            }
        }
    }
    Ok(())
}

/// Runs `MIN_SAMPLES` ops of `kind` over a socket and in-process, for a
/// kind the workload's stream lacks. PUT probes write a probe file no
/// client reads. Returns the ops sent and how many failed in-process
/// (socket records carry their own failures).
fn probe(
    app: &Appliance,
    spec: &Spec,
    pattern: &Arc<Pattern>,
    clients: &mut [Client],
    kind: OpKind,
    spans: &mut SpanLog,
    socket: &mut Vec<OpRecord>,
) -> (usize, u64) {
    let c = &mut clients[0];
    let target = match kind {
        OpKind::Put if spec.outputs_per_client == 0 => FileRef::Probe,
        OpKind::Put => FileRef::Output {
            client: 0,
            index: 0,
        },
        _ => staged_files(spec)[0],
    };
    let current = |c: &Client| match target {
        FileRef::Output { index, .. } => c.written[index],
        _ => 0,
    };
    let engine = engine();
    let ctx = Ctx {
        d: app.server.dispatcher(),
        engine: &engine,
        spec,
        pattern,
        zeros: Arc::new(vec![0; spec.file_size]),
    };
    let mut version = current(c) + 1_000_000;
    let (mut sent, mut bad) = (0, 0);
    for i in 0..MIN_SAMPLES as u64 {
        let mut op = Op {
            kind,
            file: target,
            version: current(c),
        };
        if kind == OpKind::Put {
            version += 1;
            op.version = version;
        }
        socket.push(c.run_op(app, spec, pattern, op));
        sent += 1;
        if kind == OpKind::Put {
            version += 1;
            op.version = version;
        }
        if let Err(e) = inproc_op(
            &ctx,
            c,
            op,
            i.is_multiple_of(SAMPLE_EVERY),
            spans,
            1 << 61 | i,
        ) {
            bad += 1;
            c.errors
                .push(format!("in-process probe {}: {e}", kind.name()));
        }
        sent += 1;
    }
    c.hang_up();
    engine.shutdown();
    (sent, bad)
}

/// Sequential in-process PUTs whose `wchar` is measured.
const AMP_PUTS: usize = 16;

/// Bytes the process wrote (`wchar`, pipes to a Processes-model child
/// included) per user byte, over `AMP_PUTS` sequential in-process PUTs
/// with the sockets idle. Writes client 0's outputs, or the probe file
/// when it has none. Returns the ratio and the PUTs that failed.
fn write_amp(app: &Appliance, spec: &Spec, pattern: &Arc<Pattern>, c: &mut Client) -> (f64, u64) {
    let d = app.server.dispatcher();
    let who = Principal::anonymous();
    let proto = proto_name(c.proto);
    let len = spec.file_size as u64;
    let (mut wrote, mut user, mut bad) = (0u64, 0u64, 0u64);
    for i in 0..AMP_PUTS {
        let (file, version) = match spec.outputs_per_client {
            0 => (FileRef::Probe, 2_000_000 + i as u32),
            n => {
                let index = i % n;
                (
                    FileRef::Output { client: 0, index },
                    c.written[index] + 1_000_000,
                )
            }
        };
        let body = Arc::new(pattern.bytes(pattern.shift(spec, file, version), spec.file_size));
        let path = file.path();
        let w0 = host::wchar();
        let stored = d
            .admit_put(&who, proto, &path, Some(len))
            .map_err(|e| err(format!("{path}: {e:?}")))
            .and_then(|vpath| {
                d.transfer_put(
                    &who,
                    proto,
                    &vpath,
                    Box::new(MemSource::new(body)),
                    Some(len),
                )
            });
        wrote += host::wchar() - w0;
        match stored {
            Ok(n) if n == len => {
                user += len;
                if let FileRef::Output { index, .. } = file {
                    c.written[index] = version;
                }
            }
            other => {
                bad += 1;
                c.errors.push(format!("write-amp PUT {path}: {other:?}"));
            }
        }
    }
    (wrote as f64 / user.max(1) as f64, bad)
}
