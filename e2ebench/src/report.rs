//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a self-test keeps the two in step.

/// (name, unit) of every end-to-end metric, reported by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("mib_per_s", "MiB/s"),
    ("lead_p50_us", "us"),
    ("lead_p99_us", "us"),
    ("slow_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
];

/// (name, unit) of every per-layer metric, reported by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session.first_op_extra_us", "us"),
    ("session.accepted", "count"),
    ("session.rejected", "count"),
    ("session.queued", "count"),
    ("front.get.residual_us", "us"),
    ("front.put.residual_us", "us"),
    ("front.stat.residual_us", "us"),
    ("proto.parse_us", "us"),
    ("proto.render_us", "us"),
    ("dispatcher.admit_get_us", "us"),
    ("dispatcher.transfer_get_us", "us"),
    ("dispatcher.admit_put_us", "us"),
    ("dispatcher.transfer_put_us", "us"),
    ("dispatcher.stat_us", "us"),
    ("dispatcher.persist_lots_us", "us"),
    ("dispatcher.transfer_put.unexplained_us", "us"),
    ("dispatch.errors", "count"),
    ("storage.begin_get_us", "us"),
    ("storage.begin_put_us", "us"),
    ("storage.read_chunk_us", "us"),
    ("storage.write_chunk_us", "us"),
    ("storage.lot_snapshot_us", "us"),
    ("storage.lot_snapshot_bytes", "bytes"),
    ("storage.write_amp", "ratio"),
    ("handlecache.hit_ratio", "ratio"),
    ("lock.storage.lot.wait_us", "us/op"),
    ("transfer.engine_us", "us"),
    ("transfer.engine.cpu_ns_per_mib", "ns/MiB"),
    ("transfer.sendfile_share", "ratio"),
    ("transfer.zerocopy.fallbacks", "count"),
    ("bufpool.reuse_share", "ratio"),
    ("transfer.model.switches_per_flow", "ratio"),
    ("transfer.retries", "count"),
    ("lock.transfer.cache.wait_us", "us/op"),
    ("lock.transfer.bufpool.free.wait_us", "us/op"),
    ("lock.top5.wait_us", "us/op"),
    ("trace.overhead_share", "ratio"),
];

/// A JSON number; non-finite values (an op that failed sits at +inf)
/// have no JSON form and render as `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `catalogue` names in order, each looked up in
/// `values`. A metric the run could not measure renders as `null` and
/// makes the run incorrect.
pub fn result_line(
    catalogue: &[(&str, &str)],
    values: &std::collections::BTreeMap<&str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut complete = true;
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            complete &= v.is_finite();
            format!("{name:?}: {{\"value\": {}, \"unit\": {unit:?}}}", num(v))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && complete && failed == 0,
        metrics.join(", ")
    )
}
