//! Every metric this binary can print, by name — the table `BENCHMARK.json`
//! must agree with (`fcbench --check-manifest` compares the two, both ways).

use crate::json::{self, Value};
use crate::workload;

/// An end-to-end metric: `(name, unit, better, bound)`. `bound` is the share
/// of the parent's median by which a later PR may worsen the metric.
///
/// The issue proposed 10 % (15 % for `setup_s`). On this shared 2-core box
/// the host drifts by 10–30 % over minutes; read from the quietest rounds
/// and corrected for the host's speed, ten runs spread (quartile distance ÷
/// median) by 2–6 % on the timing metrics when the box is calm — but the
/// driver's first check met a spell where the uncorrected medians spread by
/// 28 %, so every metric keeps the largest bound the contract allows.
/// README.md ("Noise and bounds") has the tables.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("first_paint_p50_ms", "ms", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("cpu_ms_per_req", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// A per-layer metric: `(name, unit, better)`. Every one is printed on every
/// workload by `--trace 1`; a layer the workload's requests never enter
/// reports 0.
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    ("pointcloud.generate.ms_per_frame", "ms", "lower"),
    ("pointcloud.kernels.fps_relax_ns_per_point", "ns", "lower"),
    ("pointcloud.kernels.ball_select_ns_per_pair", "ns", "lower"),
    ("pointcloud.kernels.segmented_max_ns_per_row", "ns", "lower"),
    ("pointcloud.ops.distance_evals", "count", "lower"),
    ("pointcloud.ops.coord_reads", "count", "lower"),
    ("pointcloud.ops.writes", "count", "lower"),
    ("pointcloud.ops.skipped", "count", "higher"),
    ("core.fractal.build_ms", "ms", "lower"),
    ("core.fractal.blocks", "count", "lower"),
    ("core.fractal.max_block_points", "count", "lower"),
    ("core.bppo.sample_ms", "ms", "lower"),
    ("core.bppo.group_ms", "ms", "lower"),
    ("core.lod.prefix_us", "us", "lower"),
    ("core.lod.slice_us_per_chunk", "us", "lower"),
    ("core.pipeline.run_ms", "ms", "lower"),
    ("core.pipeline.self_ms", "ms", "lower"),
    ("parallel.map_overhead_us", "us", "lower"),
    ("parallel.block_speedup", "x", "higher"),
    ("pnn.layers.linear_ms", "ms", "lower"),
    ("pnn.layers.linear_gflops", "GFLOP/s", "higher"),
    ("pnn.infer.delayed_ms", "ms", "lower"),
    ("pnn.infer.eager_ms", "ms", "lower"),
    ("pnn.infer.aggregate_ms", "ms", "lower"),
    ("pnn.infer.macs", "count", "lower"),
    ("pnn.infer.macs_saved", "count", "higher"),
    ("pnn.infer.gather_bytes", "count", "lower"),
    ("serve.protocol.encode_req_us", "us", "lower"),
    ("serve.protocol.decode_req_us", "us", "lower"),
    ("serve.protocol.encode_resp_us", "us", "lower"),
    ("serve.protocol.decode_resp_us", "us", "lower"),
    ("serve.protocol.chunk_codec_us", "us", "lower"),
    ("serve.protocol.req_bytes", "count", "lower"),
    ("serve.protocol.resp_bytes", "count", "lower"),
    ("serve.cache.frame_key_us", "us", "lower"),
    ("serve.cache.get_us", "us", "lower"),
    ("serve.cache.insert_us", "us", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.engine.inproc_ms", "ms", "lower"),
    ("serve.engine.overhead_us", "us", "lower"),
    ("serve.engine.queue_wait_p99_us", "us", "lower"),
    ("serve.engine.mean_batch", "count", "higher"),
    ("serve.engine.peak_queue_depth", "count", "lower"),
    ("serve.engine.allocs_per_req", "count", "lower"),
    ("serve.engine.high_p50_ms", "ms", "lower"),
    ("serve.engine.bulk_p50_ms", "ms", "lower"),
    ("serve.engine.shed_total", "count", "lower"),
    ("serve.engine.degraded_total", "count", "lower"),
    ("serve.engine.stage_queue_wait_us", "us", "lower"),
    ("serve.engine.stage_partition_us", "us", "lower"),
    ("serve.engine.stage_sample_us", "us", "lower"),
    ("serve.engine.stage_group_us", "us", "lower"),
    ("serve.engine.stage_mlp_us", "us", "lower"),
    ("serve.engine.stage_aggregate_us", "us", "lower"),
    ("serve.engine.stage_encode_us", "us", "lower"),
    ("serve.engine.stage_write_us", "us", "lower"),
    ("serve.engine.stage_chunk_emit_us", "us", "lower"),
    ("serve.engine.stage_unattributed_us", "us", "lower"),
    ("serve.net.wire_overhead_ms", "ms", "lower"),
    ("serve.net.chunks_per_stream", "count", "lower"),
    ("serve.net.credits_per_stream", "count", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.host_slowdown", "x", "lower"),
    ("client.latency_p90_ms", "ms", "lower"),
    ("client.latency_p99_ms", "ms", "lower"),
    ("client.latency_max_ms", "ms", "lower"),
    ("client.open_p50_ms", "ms", "lower"),
    ("client.open_p99_ms", "ms", "lower"),
    ("client.open_lag_p90_ms", "ms", "lower"),
    ("client.round_spread_pct", "%", "lower"),
];

/// The per-layer counts that must repeat exactly for a fixed seed (the ˣ
/// metrics): `check.sh` compares them between two traced runs.
/// `serve.engine.allocs_per_req` is deliberately absent: a warm INFER
/// request fans its stage-1 blocks out over spawned threads, and how many of
/// those spawns allocate depends on scheduling (143.05 vs 143.10 per request
/// in two runs of one seed).
pub const EXACT: [&str; 16] = [
    "pointcloud.ops.distance_evals",
    "pointcloud.ops.coord_reads",
    "pointcloud.ops.writes",
    "pointcloud.ops.skipped",
    "core.fractal.blocks",
    "core.fractal.max_block_points",
    "pnn.infer.macs",
    "pnn.infer.macs_saved",
    "pnn.infer.gather_bytes",
    "serve.protocol.req_bytes",
    "serve.protocol.resp_bytes",
    "serve.cache.hit_ratio",
    "serve.engine.shed_total",
    "serve.engine.degraded_total",
    "serve.net.chunks_per_stream",
    "serve.net.credits_per_stream",
];

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// `(name, unit, better)` triples of one manifest section.
fn section(doc: &Value, key: &str) -> Result<Vec<(String, String, String)>, String> {
    let items = doc.get(key).and_then(Value::as_arr).ok_or(format!("no `{key}` array"))?;
    let field =
        |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default().to_owned();
    Ok(items.iter().map(|m| (field(m, "name"), field(m, "unit"), field(m, "better"))).collect())
}

/// Compares the manifest at `path` with the tables above, both ways.
/// Returns every disagreement (empty = consistent).
pub fn check_manifest(path: &std::path::Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut problems = Vec::new();

    let mut compare = |what: &str,
                       file: &[(String, String, String)],
                       ours: Vec<(&str, &str, &str)>| {
        for (name, unit, better) in file {
            if !valid_name(name) {
                problems.push(format!("{what}: `{name}` is not a valid metric name"));
            }
            match ours.iter().find(|m| m.0 == name) {
                None => {
                    problems.push(format!("{what}: `{name}` is in the manifest but never printed"))
                }
                Some(m) if m.1 != unit || m.2 != better => problems.push(format!(
                    "{what}: `{name}` is {unit}/{better} in the manifest, {}/{} in the binary",
                    m.1, m.2
                )),
                Some(_) => {}
            }
        }
        for m in &ours {
            if !file.iter().any(|f| f.0 == m.0) {
                problems
                    .push(format!("{what}: `{}` is printed but missing from the manifest", m.0));
            }
        }
        if file.len() != ours.len() {
            problems.push(format!("{what}: manifest lists {}, binary {}", file.len(), ours.len()));
        }
    };

    // A workload's `why` rides in the unit slot: it must match word for word.
    let workloads: Vec<(String, String, String)> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("no `workloads` array")?
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Value::as_str).unwrap_or_default().to_owned();
            (field("name"), field("why"), String::new())
        })
        .collect();
    compare("workloads", &workloads, workload::SPECS.iter().map(|s| (s.name, s.why, "")).collect());
    compare(
        "end_to_end",
        &section(&doc, "end_to_end")?,
        END_TO_END.iter().map(|m| (m.0, m.1, m.2)).collect(),
    );
    compare("per_layer", &section(&doc, "per_layer")?, PER_LAYER.to_vec());

    let bounds = doc.get("end_to_end").and_then(Value::as_arr).unwrap_or_default();
    for (m, ours) in bounds.iter().zip(END_TO_END) {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(-1.0);
        if (bound - ours.3).abs() > 1e-12 || !(0.0..=0.25).contains(&bound) {
            problems.push(format!("end_to_end: `{}` bound {bound} ≠ {}", ours.0, ours.3));
        }
    }
    if PER_LAYER.len() > 128 {
        problems.push(format!("{} per-layer metrics exceed the 128 allowed", PER_LAYER.len()));
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0)).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "metric names are used once");
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        for e in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.0 == e), "{e} is not a per-layer metric");
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
    }
}
