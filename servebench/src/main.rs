//! The repository's benchmark: serves one seeded workload through the
//! engine's public API, checks every output, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). The last line of standard output is the result object.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload schema_serve --seed 1 --seconds 25 --trace 0
//! cargo run --release --manifest-path servebench/Cargo.toml -- --print-manifest
//! ```

mod drive;
mod manifest;
mod oracle;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{set_up, Settings, Window};
use oracle::{Digest, Oracle};
use report::Reported;
use workloads::{Plan, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// An open-loop generator that starts a request later than this after its
/// due time has fallen behind its schedule, and the run is rejected.
const MAX_LATENESS: Duration = Duration::from_millis(50);
/// Where runs keep their digests and traces, relative to the working
/// directory.
const STATE_DIR: &str = ".servebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = manifest::RUN_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-manifest" {
            print!("{}", manifest::manifest_json());
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value}; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

/// Fixes glibc's mmap threshold at its initial 128 KiB. By default glibc
/// raises the threshold each time a large block is freed, after which large
/// blocks stay in the per-thread arenas; `schema_serve`'s peak RSS then
/// moved by up to a third between runs of one seed, with the arena a cold
/// compile happened to land in. With the threshold fixed, large blocks go
/// back to the system when freed and peak RSS repeats within 1%.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: mallopt only sets an allocator tunable, and no other thread
    // exists yet.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() -> ExitCode {
    fix_mmap_threshold();
    match parse_args().and_then(|args| args.map_or(Ok(true), |args| run(&args))) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Sets the plan up [`SETUP_RUNS`] - 1 more times after the measured
/// window, so the repeats neither warm the measured engine nor raise the
/// peak resident set it reports; returns the median over all set-ups, in
/// seconds.
fn median_setup(plan: &Plan, settings: &Settings, first: Duration) -> Result<f64, String> {
    let mut times = vec![first.as_secs_f64()];
    for _ in 1..SETUP_RUNS {
        let system = set_up(plan, settings)?;
        times.push(system.setup_time.as_secs_f64());
        system.scheduler.shutdown();
    }
    Ok(stats::median(&times).expect("at least one set-up"))
}

/// Checks every output of a window. Returns per-request success and the
/// digest; failures are printed.
fn check(plan: &Plan, window: &Window, oracle: &mut Oracle, label: &str) -> (Vec<bool>, Digest) {
    let mut digest = Digest::default();
    let mut ok = Vec::with_capacity(window.outcomes.len());
    for (i, (req, outcome)) in plan.requests.iter().zip(&window.outcomes).enumerate() {
        let verdict = match (outcome.failure(), outcome.finished()) {
            (Some(e), _) => Err(e),
            // The simulated model follows its reference exactly, so a
            // correct engine emits the reference byte for byte.
            (None, Some(done)) if done.result.output != req.reference => {
                Err("output differs from the reference the model followed".into())
            }
            (None, Some(done)) => oracle
                .check(plan, req, &done.result.output)
                .and_then(|()| digest.record(req.seed, &done.result.output)),
            (None, None) => Err("no result".into()),
        };
        if let Err(e) = &verdict {
            println!(
                "  FAILED {label} request {i} ({}): {e}",
                req.kind(plan).name()
            );
        }
        ok.push(verdict.is_ok());
    }
    (ok, digest)
}

/// Compares the digest with the one an earlier run of the same plan left,
/// or leaves it for the next run.
fn check_digest_history(args: &Args, plan: &Plan, digest: &Digest) -> Result<(), String> {
    let dir = Path::new(STATE_DIR).join("digests");
    let path = dir.join(format!(
        "{}-{}.txt",
        args.workload.name(),
        plan.fingerprint()
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == digest.hex() => Ok(()),
        Ok(earlier) => Err(format!(
            "output digest {} differs from {} of an earlier run with the same seed",
            digest.hex(),
            earlier.trim()
        )),
        Err(_) => {
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            std::fs::write(&path, digest.hex()).map_err(|e| e.to_string())
        }
    }
}

/// What one run measured, before it is printed.
struct Measured {
    /// End-to-end metrics of the untraced window.
    e2e: Vec<Reported>,
    /// End-to-end metrics of the traced window and the per-layer metrics.
    traced: Option<(Vec<Reported>, Vec<Reported>, trace::Tracer)>,
    attempted: usize,
    failed: usize,
    /// Failed checks that are not a single request's.
    problems: Vec<String>,
    digest: Digest,
    max_lateness: Duration,
}

/// Runs the untraced window and, with `trace`, the traced window and the
/// layer replay, checking every output.
fn measure(
    plan: &Plan,
    settings: &Settings,
    seconds: u64,
    trace: bool,
) -> Result<Measured, String> {
    let epoch = Instant::now();
    let deadline = || Instant::now() + Duration::from_secs(2 * seconds + 30);
    let system = set_up(plan, settings)?;
    let window = drive::run_window(plan, &system, false, deadline())?;
    let peak_rss_mb = report::peak_rss_mb();
    let first_setup = system.setup_time;
    system.scheduler.shutdown();
    let setup_s = median_setup(plan, settings, first_setup)?;
    let mut oracle = Oracle::default();
    let (ok, digest) = check(plan, &window, &mut oracle, "untraced");
    let mut measured = Measured {
        e2e: report::end_to_end(
            &window,
            &ok,
            setup_s,
            SETUP_RUNS,
            peak_rss_mb,
            &settings.profile(),
        ),
        traced: None,
        attempted: ok.len(),
        failed: ok.iter().filter(|ok| !**ok).count(),
        problems: Vec::new(),
        digest,
        max_lateness: window.max_lateness,
    };
    if window.max_lateness > MAX_LATENESS {
        measured.problems.push(format!(
            "the open-loop generator fell behind: {:.1} ms late (limit {} ms)",
            report::ms(window.max_lateness),
            MAX_LATENESS.as_millis()
        ));
    }
    if !trace {
        return Ok(measured);
    }

    let mut tracer = trace::Tracer::new(epoch);
    let setup_start = Instant::now();
    let traced = set_up(plan, settings)?;
    tracer.record_setup(&traced, setup_start);
    let window = drive::run_window(plan, &traced, true, deadline())?;
    let (ok, digest) = check(plan, &window, &mut oracle, "traced");
    measured.attempted += ok.len();
    measured.failed += ok.iter().filter(|ok| !**ok).count();
    if digest != measured.digest {
        measured
            .problems
            .push("the traced window's outputs differ from the untraced window's".into());
    }
    tracer.record_window(plan, &window);
    let replay = trace::replay(plan, &traced, &window, &mut tracer, &mut oracle)?;
    measured.attempted += replay.replayed;
    measured.failed += replay.mismatches.len();
    for i in &replay.mismatches {
        println!(
            "  FAILED replay of request {i}: output differs from the engine's or its reference"
        );
    }
    let traced_e2e = report::end_to_end(
        &window,
        &ok,
        traced.setup_time.as_secs_f64(),
        1,
        report::peak_rss_mb(),
        &settings.profile(),
    );
    let layers = trace::layer_metrics(
        plan,
        &traced,
        &window,
        &tracer,
        &replay,
        trace::Headline::from(&measured.e2e),
        trace::Headline::from(&traced_e2e),
    );
    traced.scheduler.shutdown();
    measured.traced = Some((traced_e2e, layers, tracer));
    Ok(measured)
}

fn run(args: &Args) -> Result<bool, String> {
    let settings = Settings::BENCH;
    let plan = Plan::new(args.workload, args.seed, args.seconds);
    println!(
        "# servebench {} seed={} seconds={} trace={} requests={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.requests.len()
    );
    let mut measured = measure(&plan, &settings, args.seconds, args.trace)?;
    if let Err(e) = check_digest_history(args, &plan, &measured.digest) {
        measured.problems.push(e);
    }
    let metrics = match &measured.traced {
        None => {
            report::print_lines(&measured.e2e);
            &measured.e2e
        }
        Some((traced_e2e, layers, tracer)) => {
            let path = PathBuf::from(STATE_DIR).join(format!(
                "trace-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            std::fs::create_dir_all(STATE_DIR)
                .and_then(|()| tracer.write(&path))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("# untraced end-to-end");
            report::print_lines(&measured.e2e);
            println!("# traced end-to-end");
            report::print_lines(traced_e2e);
            println!(
                "# per-layer ({} spans in {})",
                tracer.spans.len(),
                path.display()
            );
            report::print_lines(layers);
            layers
        }
    };
    if args.workload == Workload::SchemaServe {
        println!(
            "  open-loop generator max lateness {:.3} ms (limit {} ms)",
            report::ms(measured.max_lateness),
            MAX_LATENESS.as_millis()
        );
    }
    print_conditions(args, &settings, &measured, metrics);
    for problem in &measured.problems {
        println!("  FAILED check: {problem}");
    }
    let correct = measured.failed == 0 && measured.problems.is_empty();
    println!(
        "{}",
        report::result_line(correct, measured.attempted, measured.failed, metrics)
    );
    Ok(correct)
}

/// Prints the run conditions as one JSON line.
fn print_conditions(args: &Args, settings: &Settings, measured: &Measured, metrics: &[Reported]) {
    let profile = settings.profile();
    let samples: Vec<String> = metrics
        .iter()
        .filter_map(|m| {
            m.samples
                .map(|n| format!("{}: {n}", report::quote(&m.name)))
        })
        .collect();
    println!(
        "{{\"conditions\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": {}, \"source_hash\": {}, \"nproc\": {}, \"vocab_size\": {}, \"profile\": {}, \
         \"time_scale\": {}, \"decode_step_ms\": {}, \"setup_runs\": {SETUP_RUNS}, \
         \"max_lateness_ms\": {}, \"digest\": {}, \"outputs\": {}, \"samples\": {{{}}}}}}}",
        report::quote(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        report::quote(&git_rev()),
        report::quote(&source_hash()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        settings.vocab_size,
        report::quote(&profile.name),
        profile.time_scale,
        report::ms(profile.decode_step_time(workloads::CLIENTS)),
        report::ms(measured.max_lateness),
        report::quote(&measured.digest.hex()),
        measured.digest.len(),
        samples.join(", "),
    );
}

/// The checkout's git revision, or `none` outside a git work tree. Git is
/// not allowed to look above the working directory.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(Path::to_path_buf).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the sources the benchmark builds from, so a run outside git
/// still names the code it measured.
fn source_hash() -> String {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_dir() {
            if let Ok(entries) = std::fs::read_dir(path) {
                for entry in entries.flatten() {
                    walk(&entry.path(), files);
                }
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "servebench/src",
        "servebench/Cargo.toml",
    ] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// A small engine: the self-tests run in seconds, also unoptimized.
    const SMALL: Settings = Settings {
        vocab_size: 4_000,
        time_scale: 0.05,
    };

    #[test]
    fn traced_runs_report_every_manifest_metric_and_a_stable_digest() {
        for workload in [Workload::SchemaServe, Workload::AgentTools] {
            let plan = Plan::new(workload, 3, 1);
            let first = measure(&plan, &SMALL, 1, true).expect("tiny run");
            assert_eq!(first.failed, 0, "{}: {:?}", workload.name(), first.problems);
            assert!(first.problems.is_empty(), "{:?}", first.problems);
            let e2e: Vec<&str> = first.e2e.iter().map(|m| m.name.as_str()).collect();
            let expected: Vec<&str> = manifest::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(e2e, expected);
            let (_, layers, tracer) = first.traced.as_ref().expect("traced run");
            let layers: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
            let expected: Vec<String> = manifest::per_layer().into_iter().map(|m| m.name).collect();
            assert_eq!(
                layers,
                expected.iter().map(String::as_str).collect::<Vec<_>>()
            );
            assert!(!tracer.spans.is_empty());
            let second = measure(&plan, &SMALL, 1, false).expect("tiny run");
            assert_eq!(first.digest, second.digest, "{}", workload.name());
            assert_eq!(first.digest.len(), plan.requests.len());
        }
    }
}
