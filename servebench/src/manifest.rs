//! The metric and workload definitions `BENCHMARK.json` is generated from
//! (`--print-manifest`), so the manifest and the report cannot drift apart.

use crate::workloads::{Kind, Workload};

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

/// The upper percentile every per-request timing is quoted at: the highest
/// with ten samples beyond it in the 100 requests of a run.
pub const TAIL: f64 = 90.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric with its regression bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Timing bounds are at least 2.5 times the run-to-run spread
/// (interquartile range over median) of ten seeds on a 2-vCPU virtual
/// machine. The
/// workloads keep every timing mostly in the simulated GPU, because the
/// host's CPU speed drifts by a quarter over minutes and a timing spent on
/// the CPU spreads as much. Timings then spread 0.005-0.065, except
/// `schema_serve` TTFT p90 at 0.09: it falls on whole GPU steps, 19 or
/// 21 ms. Set-up is CPU time and spreads 0.11-0.24, so `setup_s` has the
/// largest bound. Peak RSS, with malloc's mmap threshold fixed, repeats
/// within 1%.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("ttft_p50_ms", "ms", Better::Lower, 0.24),
    e2e("ttft_p90_ms", "ms", Better::Lower, 0.24),
    e2e("tpot_p50_ms", "ms", Better::Lower, 0.24),
    e2e("tpot_p90_ms", "ms", Better::Lower, 0.24),
    e2e("tokens_per_s", "tok/s", Better::Higher, 0.24),
    e2e("slo_attainment", "fraction", Better::Higher, 0.2),
    e2e("turn_latency_p50_ms", "ms", Better::Lower, 0.24),
    e2e("turn_latency_p90_ms", "ms", Better::Lower, 0.24),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
    e2e("success_rate", "fraction", Better::Higher, 0.01),
];

/// A per-layer metric (no bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Grammar families that have a persistent-stack matcher (tag lanes run a
/// dispatch matcher with no stack count of its own).
pub const STACK_KINDS: [Kind; 4] = [Kind::JsonCfg, Kind::Xml, Kind::PyDsl, Kind::Schema];

pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(Layer { name, unit, better });
    };
    add("grammar.schema_convert_us_p50".into(), "us", Lower);
    add("grammar.apply_delta_us_p50".into(), "us", Lower);
    add("compiler.compile_ms_p50".into(), "ms", Lower);
    add("compiler.compile_ms_p90".into(), "ms", Lower);
    add("compiler.compiles".into(), "count", Lower);
    for kind in Kind::ALL {
        add(
            format!("compiler.ctx_dependent_tokens.{}", kind.name()),
            "count",
            Lower,
        );
    }
    for kind in Kind::ALL {
        add(
            format!("compiler.mask_cache_bytes.{}", kind.name()),
            "B",
            Lower,
        );
    }
    add("grammar_cache.hit_rate".into(), "fraction", Higher);
    add("grammar_cache.evictions".into(), "count", Lower);
    add("grammar_cache.bytes".into(), "B", Lower);
    for kind in Kind::ALL {
        add(format!("matcher.fill_us_p50.{}", kind.name()), "us", Lower);
    }
    for kind in Kind::ALL {
        add(format!("matcher.fill_us_p99.{}", kind.name()), "us", Lower);
    }
    add("matcher.accept_us_p50".into(), "us", Lower);
    add("matcher.jump_forward_us_p50".into(), "us", Lower);
    for kind in STACK_KINDS {
        add(
            format!("matcher.stack_count_p99.{}", kind.name()),
            "count",
            Lower,
        );
    }
    add("tag_dispatch.compile_ms".into(), "ms", Lower);
    add("tag_dispatch.update_ms_p50".into(), "ms", Lower);
    add("tag_dispatch.update_ms_p90".into(), "ms", Lower);
    add("tag_dispatch.free_fill_us_p50".into(), "us", Lower);
    add("tag_dispatch.segment_fill_us_p50".into(), "us", Lower);
    add("dispatch_cache.hit_rate".into(), "fraction", Higher);
    add("dispatch_cache.evictions".into(), "count", Lower);
    add("scheduler.queue_ms_p50".into(), "ms", Lower);
    add("scheduler.queue_ms_p90".into(), "ms", Lower);
    add("scheduler.admission_compile_ms_p90".into(), "ms", Lower);
    add("scheduler.mask_wait_frac".into(), "fraction", Lower);
    add("scheduler.mask_worker_util".into(), "fraction", Lower);
    add("scheduler.batch_lanes_mean".into(), "count", Higher);
    add("scheduler.batched_mask_lanes".into(), "count", Higher);
    add("scheduler.max_queue_depth".into(), "count", Lower);
    add("lane.forced_token_frac".into(), "fraction", Higher);
    add("lane.forced_ms".into(), "ms", Lower);
    add("llm.gpu_busy_frac".into(), "fraction", Higher);
    add("llm.gpu_idle_frac".into(), "fraction", Lower);
    add("loadgen.max_lateness_ms".into(), "ms", Lower);
    add("trace.spans".into(), "count", Lower);
    add("trace.overhead_ttft_p50_frac".into(), "fraction", Lower);
    add("trace.overhead_tpot_p50_frac".into(), "fraction", Lower);
    add("trace.overhead_tokens_per_s_frac".into(), "fraction", Lower);
    out
}

/// One line on why each workload is in the benchmark.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::SchemaServe => {
            "open loop, constant 4 req/s of JSON-Schema calls, 1 in 28 a never-seen schema: \
             schema conversion, grammar cache and admission queue do the work; masks hide under the GPU step"
        }
        Workload::CfgMix => {
            "closed loop, 4 clients alternating JSON and XML CFGs, Python DSL compiled in set-up: \
             the matcher fills masks, and the overlap must hide them under the 6.6 ms GPU step"
        }
        Workload::AgentTools => {
            "4 lockstep agent sessions of 16 tools whose catalogs change between turns: \
             tag dispatch, incremental compile and the dispatch cache; free-text masks are free"
        }
    }
}

fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// `BENCHMARK.json`, pretty-printed.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"servebench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"servebench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(why(*w))
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(&m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn manifest_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.name == "setup_s" || m.bound < setup.bound));
        assert!(Workload::ALL.iter().all(|w| why(*w).len() <= 200));
    }

    #[test]
    fn layer_map_names_only_manifest_metrics_and_covers_every_layer_metric() {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/layer_map.json"))
            .expect("layer_map.json sits beside the manifest");
        let map: serde_json::Value = serde_json::from_str(&text).expect("layer map parses");
        let strings = |v: &serde_json::Value| -> Vec<String> {
            v.as_array()
                .expect("a list")
                .iter()
                .map(|s| s.as_str().expect("a string").to_string())
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let mut mapped = Vec::new();
        for layer in map["layers"].as_array().expect("layers") {
            mapped.extend(strings(&layer["metrics"]));
            for moved in layer["moves"].as_array().expect("moves") {
                assert!(e2e.contains(&moved["metric"].as_str().unwrap()));
                assert!(workloads.contains(&moved["workload"].as_str().unwrap()));
            }
            for metric in strings(&layer["unchanged_metrics"]) {
                assert!(e2e.contains(&metric.as_str()), "{metric}");
            }
            for workload in strings(&layer["unchanged_on"]) {
                assert!(workloads.contains(&workload.as_str()), "{workload}");
            }
        }
        let layers: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(
            mapped, layers,
            "every per-layer metric in exactly one layer, in order"
        );
    }

    #[test]
    fn committed_manifest_matches_the_definitions() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        assert!(
            committed == manifest_json(),
            "regenerate with --print-manifest"
        );
    }
}
