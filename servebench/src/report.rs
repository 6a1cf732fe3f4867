//! End-to-end metrics and the printed result.

use std::time::Duration;

use crate::drive::Window;
use crate::manifest::TAIL;
use crate::stats;
use crate::workloads::CLIENTS;
use xg_engine::ModelProfile;

/// TTFT limit of the SLO.
pub const SLO_TTFT: Duration = Duration::from_millis(500);
/// TPOT limit of the SLO, as a multiple of the profile's decode step at the
/// workloads' lane count: 9.9 ms, about 100 tokens/s per stream.
pub const SLO_TPOT_STEPS: f64 = 1.5;

/// One reported metric: value, unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or a rate.
    pub samples: Option<usize>,
}

impl Reported {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Reported {
        Reported {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, samples: usize) -> Reported {
        self.samples = Some(samples);
        self
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median and tail percentile of `values` as two metrics `<base>_p50_<unit>`
/// and `<base>_p<TAIL>_<unit>`, each with its sample count (0 when empty).
pub fn percentiles(base: &str, unit: &'static str, values: &[f64]) -> [Reported; 2] {
    let n = values.len();
    let at = |p: f64| stats::percentile(values, p).unwrap_or(0.0);
    [
        Reported::new(format!("{base}_p50_{unit}"), at(50.0), unit).with_samples(n),
        Reported::new(format!("{base}_p{TAIL}_{unit}"), at(TAIL), unit).with_samples(n),
    ]
}

/// The TPOT limit of the SLO for `profile`.
pub fn slo_tpot(profile: &ModelProfile) -> Duration {
    profile.decode_step_time(CLIENTS).mul_f64(SLO_TPOT_STEPS)
}

/// The end-to-end metrics of one untraced window. `ok[i]` says whether
/// request `i` succeeded, output checks included.
pub fn end_to_end(
    window: &Window,
    ok: &[bool],
    setup_s: f64,
    setup_runs: usize,
    peak_rss_mb: f64,
    profile: &ModelProfile,
) -> Vec<Reported> {
    let mut ttft = Vec::new();
    let mut tpot = Vec::new();
    let mut turn = Vec::new();
    let mut met_slo = 0usize;
    let mut tokens = 0usize;
    let tpot_limit = slo_tpot(profile);
    for (outcome, &ok) in window.outcomes.iter().zip(ok) {
        if let Ok(done) = &outcome.result {
            tokens += done.result.tokens + done.result.jump_forward_tokens;
        }
        let Some(done) = outcome.finished().filter(|_| ok) else {
            continue;
        };
        let first = outcome.submitted.saturating_duration_since(outcome.origin) + done.timing.ttft;
        ttft.push(ms(first));
        if !done.timing.tpot.is_zero() {
            tpot.push(ms(done.timing.tpot));
        }
        // A turn ends with its last byte: an agent runs a tool call only
        // once the call is complete.
        turn.push(ms(outcome
            .submitted
            .saturating_duration_since(outcome.turn_start)
            + done.timing.total_time));
        if first <= SLO_TTFT && done.timing.tpot <= tpot_limit {
            met_slo += 1;
        }
    }
    let attempted = window.outcomes.len();
    let failed = ok.iter().filter(|ok| !**ok).count();
    let mut out = Vec::new();
    out.extend(percentiles("ttft", "ms", &ttft));
    out.extend(percentiles("tpot", "ms", &tpot));
    out.push(
        Reported::new(
            "tokens_per_s",
            tokens as f64 / window.wall().as_secs_f64().max(1e-9),
            "tok/s",
        )
        .with_samples(tokens),
    );
    out.push(
        Reported::new(
            "slo_attainment",
            met_slo as f64 / attempted.max(1) as f64,
            "fraction",
        )
        .with_samples(attempted),
    );
    out.extend(percentiles("turn_latency", "ms", &turn));
    out.push(Reported::new("setup_s", setup_s, "s").with_samples(setup_runs));
    out.push(Reported::new("peak_rss_mb", peak_rss_mb, "MB"));
    out.push(
        Reported::new(
            "success_rate",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "fraction",
        )
        .with_samples(attempted),
    );
    out
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints one line per metric: value, unit and sample count, with the
/// highest percentile the samples support.
pub fn print_lines(metrics: &[Reported]) {
    for m in metrics {
        let mut line = format!("  {:<40} {:>14.4} {:<9}", m.name, m.value, m.unit);
        if let Some(n) = m.samples {
            line.push_str(&format!(" n={n}"));
            if m.name.contains("_p") {
                match stats::highest_supported(n) {
                    Some(p) => line.push_str(&format!(" (supports p{p})")),
                    None => line.push_str(" (too few samples for any percentile)"),
                }
            }
        }
        println!("{line}");
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

pub fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}
