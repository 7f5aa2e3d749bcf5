//! Runs one workload of the benchmark and prints its metrics.
//!
//! ```text
//! perfbench --workload <typing|mixed|hosting> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Episodes (set up → timed edit loop → crash → recovery → verification)
//! repeat until `--seconds` have passed, each in a child process of its own
//! (the same binary with `--episode <seed>`, which prints the episode as
//! text), so every episode starts from a fresh heap. With `--trace 0`
//! the last line of standard output is a JSON object holding the
//! end-to-end metrics; with `--trace 1` every other episode records spans
//! and the line holds the per-layer metrics, and the spans of the first
//! traced episode go to
//! `<target dir>/perfbench-spans/<workload>-seed<n>.jsonl`, next to the
//! build (`<target dir>/release/perfbench`). The exit code is non-zero when
//! any operation or correctness check failed.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use treedoc_perfbench::episode::Episode;
use treedoc_perfbench::report::{self, Metric};
use treedoc_perfbench::rng::Rng;
use treedoc_perfbench::trace::{self, Aggregates};
use treedoc_perfbench::{reference, run_episode, WORKLOADS};

/// Episodes a run makes at least, so set-up time is a median of several.
const MIN_EPISODES: usize = 4;
/// A run stops starting episodes after this long, whatever the minimum.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: run one episode with this seed and print it as text.
    episode: Option<u64>,
    /// Child mode: write the episode's spans to the span file.
    write_spans: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&String>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?
        .ok_or("--workload is required")?
        .clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let number = |flag: &str, default: &str| -> Result<String, String> {
        Ok(value(flag)?.map_or(default.to_string(), String::clone))
    };
    let seed = number("--seed", "1")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = number("--seconds", "10")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match number("--trace", "0")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        episode: value("--episode")?
            .map(|v| v.parse().map_err(|e| format!("--episode: {e}")))
            .transpose()?,
        write_spans: argv.iter().any(|a| a == "--write-spans"),
    })
}

/// Where a traced run writes the spans of its first traced episode: `perfbench-spans` in the target
/// directory the binary was built into (`<target dir>/release/perfbench`).
fn spans_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."));
    target.join("perfbench-spans")
}

/// The process's resident-set high-water mark, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Child mode: runs one episode and prints it, with its span aggregates
/// when traced, as text.
fn run_child(args: &Args, episode_seed: u64) -> ExitCode {
    reference::time_in_parent();
    trace::set_enabled(args.trace);
    let mut episode = run_episode(&args.workload, episode_seed).expect("workload validated");
    trace::set_enabled(false);
    episode.peak_rss_mb = peak_rss_mb();
    if args.write_spans {
        let path = spans_dir().join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(spans_dir())
            .and_then(|()| std::fs::write(&path, trace::spans_jsonl()));
        if let Err(e) = written {
            episode
                .failures
                .push(format!("could not write {}: {e}", path.display()));
        }
    }
    print!("{}", episode.to_text());
    print!("{}", trace::aggregates_to_text(&trace::aggregates()));
    ExitCode::SUCCESS
}

/// Runs one episode in a child process and reads it back, adding its span
/// aggregates to `aggs`. A child that fails or prints something unreadable
/// gives an episode holding that failure.
fn spawn_episode(
    args: &Args,
    episode_seed: u64,
    tracing: bool,
    write_spans: bool,
    aggs: &mut Aggregates,
) -> Episode {
    let failed = |what: String| Episode {
        attempted: 1,
        failures: vec![what],
        ..Episode::default()
    };
    let mut command = Command::new(std::env::current_exe().unwrap_or_default());
    command
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--episode", &episode_seed.to_string()])
        .args(["--trace", if tracing { "1" } else { "0" }])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if write_spans {
        command.arg("--write-spans");
    }
    let mut child = match command.spawn() {
        Ok(child) => child,
        Err(e) => return failed(format!("episode process did not start: {e}")),
    };
    // Answer the child's reference requests until it closes its output.
    let (Some(mut to_child), Some(from_child)) = (child.stdin.take(), child.stdout.take()) else {
        let _ = child.kill();
        let _ = child.wait();
        return failed("episode process has no pipes".into());
    };
    let mut text = String::new();
    for line in BufReader::new(from_child).lines() {
        let Ok(line) = line else {
            break;
        };
        if line == reference::PROBE_REQUEST {
            if writeln!(to_child, "{}", reference::work()).is_err() {
                break;
            }
        } else {
            text.push_str(&line);
            text.push('\n');
        }
    }
    drop(to_child);
    match child.wait() {
        Ok(status) if status.success() => {}
        Ok(status) => return failed(format!("episode process failed: {status}")),
        Err(e) => return failed(format!("episode process was lost: {e}")),
    }
    match Episode::from_text(&text) {
        Some(episode) if trace::merge_aggregates_text(aggs, &text) => episode,
        _ => failed("episode process printed an unreadable episode".into()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(episode_seed) = args.episode {
        return run_child(&args, episode_seed);
    }
    let mut seeds = Rng::new(args.seed);
    let mut traced: Vec<Episode> = Vec::new();
    let mut untraced: Vec<Episode> = Vec::new();
    let mut aggregates = Aggregates::new();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    for i in 0.. {
        let tracing = args.trace && i % 2 == 1;
        let episode = spawn_episode(
            &args,
            seeds.next_u64(),
            tracing,
            tracing && i == 1,
            &mut aggregates,
        );
        if tracing {
            traced.push(episode);
        } else {
            untraced.push(episode);
        }
        let elapsed = started.elapsed();
        if (elapsed >= budget && i + 1 >= MIN_EPISODES) || elapsed >= HARD_STOP.max(budget) {
            break;
        }
    }
    let all: Vec<Episode> = untraced.iter().chain(traced.iter()).cloned().collect();
    let attempted: u64 = all.iter().map(|e| e.attempted).sum();
    let failures: Vec<&String> = all.iter().flat_map(|e| e.failures.iter()).collect();
    for f in failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }

    let metrics: Vec<Metric> = if args.trace {
        println!(
            "spans of the first traced episode: {}",
            spans_dir()
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
                .display()
        );
        report::per_layer(&all, &traced, &untraced, &aggregates)
    } else {
        report::end_to_end(&all)
    };

    let edits: u64 = all.iter().map(|e| e.counts.edits).sum();
    let samples: u64 = all.iter().map(|e| e.latency.count).sum();
    let reference_ms = report::median(
        &all.iter()
            .map(|e| e.reference_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    println!(
        "workload={} seed={} episodes={} traced={} edits={edits} latency_samples={samples} attempted={attempted} failed={} reference_ms={reference_ms:.3}",
        args.workload,
        args.seed,
        all.len(),
        traced.len(),
        failures.len()
    );
    for m in &metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::json_line(attempted, failures.len() as u64, &metrics)
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
