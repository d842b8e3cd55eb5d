//! One benchmark run: set up, warm up, measure, check, report.

use crate::appliance::Appliance;
use crate::drive::{run_window, sleep_until, verify_outputs, warmup, Client, OpRecord, Window};
use crate::gen::{OpKind, Pattern, Spec, Workload, CLIENTS};
use crate::host;
use crate::layers;
use crate::report::{result_line, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, sorted};
use crate::trace::SpanLog;
use nest_core::Dispatcher;
use nest_obs::MetricsSnapshot;
use parking_lot::lockstats::{self, LockStatSnapshot};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small staged sets and a short warm-up (self-tests); the run is
    /// otherwise the same.
    pub smoke: bool,
    /// The checkout the run belongs to (for the git rev).
    pub root: PathBuf,
    /// Where storage roots and span files go; removed storage included.
    pub data: PathBuf,
}

pub struct Outcome {
    /// The final JSON result line.
    pub line: String,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

pub(crate) const MIB: f64 = (1 << 20) as f64;
/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Counters read at the edges of a measured window.
pub(crate) struct Sample {
    at: Instant,
    cpu_s: f64,
    pub(crate) jiffies: (u64, u64),
    metrics: MetricsSnapshot,
    locks: Vec<LockStatSnapshot>,
    /// Finished flows per concurrency model.
    models: BTreeMap<String, u64>,
}

impl Sample {
    pub(crate) fn take(d: &Dispatcher) -> Self {
        Self {
            at: Instant::now(),
            cpu_s: host::process_cpu_s(),
            jiffies: host::cpu_jiffies(),
            metrics: d.metrics_snapshot(),
            locks: lockstats::snapshot(),
            models: d
                .transfer_stats()
                .per_model
                .into_iter()
                .map(|(m, n)| (format!("{m:?}"), n))
                .collect(),
        }
    }

    /// Each model's share of the flows finished since `before`.
    pub(crate) fn model_mix(&self, before: &Sample) -> String {
        let delta: Vec<(&String, u64)> = self
            .models
            .iter()
            .map(|(m, n)| (m, n - before.models.get(m).copied().unwrap_or(0)))
            .collect();
        let total = delta.iter().map(|d| d.1).sum::<u64>().max(1) as f64;
        let parts: Vec<String> = delta
            .iter()
            .map(|(m, n)| format!("{m} {:.3}", *n as f64 / total))
            .collect();
        parts.join(", ")
    }

    pub(crate) fn delta(&self, before: &Sample, name: &str) -> f64 {
        self.metrics
            .count(name)
            .saturating_sub(before.metrics.count(name)) as f64
    }

    /// Microseconds of lock wait per class over the window, largest first.
    pub(crate) fn lock_waits(&self, before: &Sample) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = self
            .locks
            .iter()
            .map(|a| {
                let b = before.locks.iter().find(|b| b.name == a.name);
                let wait = a.wait_ns - b.map_or(0, |b| b.wait_ns);
                (a.name, wait as f64 / 1e3)
            })
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// Runs clients through a warm-up of `warm` and a window of `secs`,
/// reading the counters at the edges of each of `slices` equal slices.
pub(crate) fn measure(
    app: &Appliance,
    spec: &Spec,
    pattern: &Arc<Pattern>,
    clients: &mut [Client],
    warm: Duration,
    (secs, slices): (f64, usize),
    spans: Option<Instant>,
) -> (Window, Vec<Sample>, Option<SpanLog>) {
    let start = Instant::now() + warm;
    let slice = Duration::from_secs_f64(secs / slices as f64);
    let end = start + slice * slices as u32;
    let d = Arc::clone(app.server.dispatcher());
    std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            (0..=slices as u32)
                .map(|i| {
                    sleep_until(start + slice * i);
                    Sample::take(&d)
                })
                .collect()
        });
        let (w, log) = run_window(app, spec, pattern, clients, start, end, spans);
        let samples = sampler.join().expect("sampler thread panicked");
        (w, samples, log)
    })
}

/// Steal share of busy CPU above which a window counts as disturbed.
/// Quiet stretches of the reference host stay below 2%; at 4% and more,
/// throughput visibly drops.
const STEAL_LIMIT: f64 = 0.03;
/// Extra windows an untraced run may measure in all, each replacing a
/// disturbed window of the same appliance.
const SPARE_WINDOWS: usize = 2;

/// Length of one slice of an untraced window.
const SLICE_S: f64 = 0.5;

/// One slice of a window, as read from its edge samples.
#[derive(Clone, Copy)]
struct Slice {
    secs: f64,
    ops: u64,
    bytes: u64,
    cpu_s: f64,
}

/// One appliance's untraced window, cut into slices.
struct Measured {
    records: Vec<OpRecord>,
    slices: Vec<Slice>,
}

/// Cuts a window into its slices (ops go to the slice they were sent
/// in) and prints each slice's rate and steal share. Steal is only a
/// diagnostic: every slice counts.
fn slice_window(w: Window, samples: &[Sample]) -> Measured {
    let k = samples.len() - 1;
    let mut slices: Vec<Slice> = (0..k)
        .map(|i| Slice {
            secs: (samples[i + 1].at - samples[i].at).as_secs_f64(),
            ops: 0,
            bytes: 0,
            cpu_s: samples[i + 1].cpu_s - samples[i].cpu_s,
        })
        .collect();
    for r in w.records.iter().filter(|r| r.us.is_finite()) {
        let s = &mut slices[((r.at / SLICE_S) as usize).min(k - 1)];
        s.ops += 1;
        s.bytes += r.bytes;
    }
    let rates: Vec<String> = (0..k)
        .map(|i| {
            let steal = host::steal_share(samples[i].jiffies, samples[i + 1].jiffies);
            format!(
                "{:.0}/{:.0}",
                slices[i].ops as f64 / slices[i].secs,
                steal * 100.0
            )
        })
        .collect();
    println!("# slice ops/s / steal % of busy CPU: {}", rates.join(" "));
    Measured {
        records: w.records,
        slices,
    }
}

/// The `q`-quantile latency of `kind`: the median of the windows' own
/// quantiles, so one window of a disturbed host counts once; pooled over
/// every window when a window has too few samples for it.
fn window_percentile(windows: &[Measured], kind: OpKind, q: f64) -> f64 {
    let each: Option<Vec<f64>> = windows
        .iter()
        .map(|w| percentile(&latencies(&w.records, Some(kind)), q))
        .collect();
    match each {
        Some(each) => median(&each),
        None => {
            let all: Vec<OpRecord> = windows.iter().flat_map(|w| w.records.clone()).collect();
            percentile(&latencies(&all, Some(kind)), q).unwrap_or(f64::NAN)
        }
    }
}

/// The end-to-end metrics over every slice of every window: rates are
/// medians over the slices, latencies medians over the windows.
fn end_to_end(spec: &Spec, windows: &[Measured]) -> BTreeMap<&'static str, f64> {
    let slices: Vec<Slice> = windows.iter().flat_map(|w| w.slices.clone()).collect();
    let over = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let mut out = BTreeMap::new();
    out.insert("ops_per_s", over(&|s| s.ops as f64 / s.secs));
    out.insert("mib_per_s", over(&|s| s.bytes as f64 / MIB / s.secs));
    out.insert(
        "cpu_us_per_op",
        over(&|s| s.cpu_s * 1e6 / (s.ops as f64).max(1.0)),
    );
    for (name, kind, q) in [
        ("lead_p50_us", spec.lead(), 0.5),
        ("lead_p99_us", spec.lead(), 0.99),
        ("slow_p50_us", spec.slow(), 0.5),
    ] {
        out.insert(name, window_percentile(windows, kind, q));
    }
    out
}

pub(crate) fn failed(records: &[OpRecord]) -> u64 {
    records.iter().filter(|r| !r.us.is_finite()).count() as u64
}

pub(crate) fn latencies(records: &[OpRecord], kind: Option<OpKind>) -> Vec<f64> {
    sorted(
        records
            .iter()
            .filter(|r| kind.is_none_or(|k| r.kind == k))
            .map(|r| r.us)
            .collect(),
    )
}

/// `# latency` lines: per op kind, count, p50 and the highest reportable
/// tail percentile.
pub(crate) fn print_latency(label: &str, records: &[OpRecord]) {
    for kind in OpKind::ALL {
        let l = latencies(records, Some(kind));
        if l.is_empty() {
            continue;
        }
        let p50 = percentile(&l, 0.5).unwrap_or(f64::NAN);
        let tail = [0.999, 0.99, 0.9]
            .into_iter()
            .find_map(|q| percentile(&l, q).map(|v| (q, v)));
        let tail = tail.map_or("-".to_owned(), |(q, v)| format!("p{} {v:.1} us", q * 100.0));
        println!(
            "# {label} {}: n {} p50 {p50:.1} us, {tail}",
            kind.name(),
            l.len()
        );
    }
}

pub fn run(args: &Args) -> io::Result<Outcome> {
    let spec = args.workload.spec(args.smoke);
    let pattern = Arc::new(Pattern::new(args.seed));
    std::fs::create_dir_all(&args.data)?;
    println!(
        "# e2ebench workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("# host {}", host::host_block(&args.root, &args.data));
    let mut values = BTreeMap::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failures) = (0, 0);
    // An untraced run sets up several appliances, each measured for an
    // equal share of the window: `setup_s` is the median setup, and the
    // metrics are medians over every appliance's slices or windows, so
    // one appliance's luck (page-cache placement, the adaptive selector's
    // early picks) counts once. A window the host disturbed is measured
    // again on the same appliance while spare windows last.
    let setups = if args.trace { 1 } else { SETUPS };
    let slices = ((args.seconds / SETUPS as f64 / SLICE_S).round() as usize).max(1);
    let mut spares = SPARE_WINDOWS;
    let mut setup_s = Vec::new();
    let mut windows = Vec::new();
    for i in 0..setups {
        let (app, secs) = Appliance::setup(&args.data.join(format!("root{i}")), &spec, &pattern)?;
        println!("# setup {i}: {secs:.3} s");
        setup_s.push(secs);
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|i| Client::new(i, &spec, args.seed))
            .collect();
        if args.trace {
            let (n, bad) = layers::traced(args, &app, &spec, &pattern, &mut clients, &mut values)?;
            attempted += n;
            failures += bad;
        } else {
            let mut warm = warmup(args.smoke);
            // (steal share, window) of the least disturbed window so far.
            let mut kept: Option<(f64, Measured)> = None;
            loop {
                let span = (slices as f64 * SLICE_S, slices);
                let (w, samples, _) =
                    measure(&app, &spec, &pattern, &mut clients, warm, span, None);
                warm = Duration::ZERO;
                attempted += w.records.len() as u64;
                failures += failed(&w.records);
                let (a, b) = (&samples[0], &samples[slices]);
                let steal = host::steal_share(a.jiffies, b.jiffies);
                let disturbed = steal > STEAL_LIMIT;
                print_latency("latency", &w.records);
                println!(
                    "# window: {} ops in {:.3} s, steal share of busy CPU {steal:.4}{}, model switches {}, flows by model: {}",
                    w.records.len(),
                    w.elapsed_s,
                    if disturbed { " (disturbed)" } else { "" },
                    b.delta(a, "transfer.model.switches"),
                    b.model_mix(a)
                );
                let m = slice_window(w, &samples);
                if kept.as_ref().is_none_or(|(s, _)| steal < *s) {
                    kept = Some((steal, m));
                }
                if !disturbed || spares == 0 {
                    break;
                }
                spares -= 1;
            }
            windows.extend(kept.map(|k| k.1));
        }
        problems.extend(verify_outputs(&app, &spec, &pattern, &mut clients));
        for c in &clients {
            problems.extend(c.errors.iter().cloned());
        }
        app.teardown();
    }
    if !args.trace {
        values = end_to_end(&spec, &windows);
        values.insert("setup_s", median(&setup_s));
    }
    for p in &problems {
        println!("# problem: {p}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let line = result_line(catalogue, &values, problems.is_empty(), attempted, failures);
    Ok(Outcome {
        line,
        attempted,
        failed: failures,
        values,
    })
}
