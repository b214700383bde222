//! The benchmark's metric catalogue. `BENCHMARK.json` at the repository
//! root lists the same names, units and directions; a unit test keeps
//! them in step.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("slo_ok_frac", "frac", "higher"),
    ("quality", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`). A metric
/// of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("datasets.generate_s", "s", "lower"),
    ("dyngraph.get_graph_ms", "ms", "lower"),
    ("dyngraph.get_backward_graph_ms", "ms", "lower"),
    ("dyngraph.snapshot_calls", "count", "lower"),
    ("pma.rebalances", "count", "lower"),
    ("gpma.edges_updated", "count", "lower"),
    ("seastar.execute_fwd_ms", "ms", "lower"),
    ("seastar.execute_bwd_ms", "ms", "lower"),
    ("seastar.launches", "count", "lower"),
    ("core.step_self_ms", "ms", "lower"),
    ("core.edge_logits_ms", "ms", "lower"),
    ("tensor.loss_ms", "ms", "lower"),
    ("tensor.backward_self_ms", "ms", "lower"),
    ("tensor.optimizer_ms", "ms", "lower"),
    ("train.unattributed_ms", "ms", "lower"),
    ("tensor.pool_hit_frac", "frac", "higher"),
    ("tensor.peak_tracked_mb", "MB", "lower"),
    ("core.state_stack_peak_mb", "MB", "lower"),
    ("ctdg.ingest_events_per_s", "1/s", "higher"),
    ("ctdg.sample_queries_per_s", "1/s", "higher"),
    ("ctdg.samples", "count", "higher"),
    ("net.rtt_mean_us", "us", "lower"),
    ("net.self_us", "us", "lower"),
    ("net.http_parse_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("admission.self_us", "us", "lower"),
    ("engine.submit_wait_mean_us", "us", "lower"),
    ("engine.latency_p50_us", "us", "lower"),
    ("engine.latency_p99_us", "us", "lower"),
    ("engine.queries_per_batch", "count", "higher"),
    ("engine.forwards_per_ingest", "count", "lower"),
    ("engine.forward_ms", "ms", "lower"),
    ("serve.ingest_apply_us", "us", "lower"),
    ("engine.gens_per_ingest", "count", "higher"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
];
/// Values a workload measured, by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(n, _, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The measured value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly these metrics,
    /// with these units, in this order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("closing bracket")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let want = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(END_TO_END));
        assert_eq!(section("per_layer"), want(PER_LAYER));
    }
}
