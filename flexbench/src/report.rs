//! Metric names, units and the one-line JSON result.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_melem_s", "Melem/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("approx_mse", "mse"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.f64_linear_melem_s", "Melem/s"),
    ("core.f64_bucket_melem_s", "Melem/s"),
    ("core.f32_linear_melem_s", "Melem/s"),
    ("core.f32_bucket_melem_s", "Melem/s"),
    ("core.stream_gb_s", "GB/s"),
    ("core.scatter_melem_s", "Melem/s"),
    ("backend.native_melem_s", "Melem/s"),
    ("backend.sfu_emu_melem_s", "Melem/s"),
    ("serve.submit_us_p50", "us"),
    ("serve.wait_us_p50", "us"),
    ("serve.wait_us_p99", "us"),
    ("serve.elems_per_flush", "elems"),
    ("serve.queue_jobs_mean", "jobs"),
    ("serve.direct_window_melem_s", "Melem/s"),
    ("wire.ping_rtt_us_p50", "us"),
    ("wire.codec_ns_per_kelem", "ns/Kelem"),
    ("wire.overhead_us_p50", "us"),
    ("wire.refused_frac", "ratio"),
    ("nn.dense_ms", "ms"),
    ("nn.attention_ms", "ms"),
    ("nn.activation_ms", "ms"),
    ("optim.fit_s", "s"),
    ("tune.bind_s", "s"),
    ("traffic.simulate_s", "s"),
    ("traffic.gen_lag_us_p99", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The result line: every metric of `declared`, in declared order, with
/// its unit.
///
/// # Errors
///
/// Names a declared metric that is missing or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&'static str, &'static str)],
    values: &Metrics,
) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    Ok(line)
}

/// The unit `declared` gives `name`.
pub fn unit_of(declared: &[(&'static str, &'static str)], name: &str) -> &'static str {
    declared
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_declared_metric() {
        let values: Metrics = [("setup_s", 0.5), ("lat_p50_us", 12.25)].into();
        let decl = [("setup_s", "s"), ("lat_p50_us", "us")];
        let line = result_line(true, 3, 0, &decl, &values).expect("all present");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"lat_p50_us\": {\"value\": 12.25, \"unit\": \"us\"}}}"
        );
        assert!(result_line(true, 3, 0, &[("missing", "s")], &values).is_err());
        let nan: Metrics = [("setup_s", f64::NAN)].into();
        assert!(result_line(true, 1, 0, &[("setup_s", "s")], &nan).is_err());
    }

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// names with these units.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
