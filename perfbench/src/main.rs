//! `perfbench`: drives a QRIO deployment through its public API —
//! `enqueue`, then `tick()` over the in-process transport, then `watch` —
//! on seeded workloads, checks every output, and prints one JSON result.
//!
//! ```text
//! perfbench --workload <canary_rank|exec_unique|durable_retry>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics. See `perfbench/README.md`.

mod layers;
mod reference;
mod run;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use run::{Figures, Round, Spans};
use stats::Tail;
use workload::{Inputs, Workload};

/// Standalone set-ups made before the first round: they warm the code and
/// add samples to the median set-up time.
const EXTRA_SETUPS: usize = 32;

/// Traced runs pool tick samples until the 99th percentile has ten
/// samples beyond it.
const MIN_TICK_SAMPLES: usize = 1000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workload::workload(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(result) => {
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The final result line.
struct Output {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Everything one invocation needs: the workload, its inputs and the
/// journal location.
struct Bench {
    workload: Workload,
    inputs: Inputs,
    journal: Option<PathBuf>,
    failures: Vec<String>,
}

impl Bench {
    fn new(args: &Args) -> Result<Bench, String> {
        let workload = workload::workload(&args.workload).ok_or("unknown workload")?;
        let inputs = workload::generate(&workload, args.seed)?;
        let journal = if workload.durable {
            let dir = std::env::current_dir()
                .map_err(|e| format!("current dir: {e}"))?
                .join(".perfbench_work");
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
            Some(dir.join(format!("{}-{}.journal", workload.name, std::process::id())))
        } else {
            None
        };
        Ok(Bench {
            workload,
            inputs,
            journal,
            failures: Vec::new(),
        })
    }

    /// Standalone set-ups, timed.
    fn setups(&self) -> Result<Vec<f64>, String> {
        let mut samples = Vec::with_capacity(EXTRA_SETUPS);
        for _ in 0..EXTRA_SETUPS {
            let start = Instant::now();
            let qrio = run::setup(&self.inputs, self.journal.as_deref(), false)?;
            samples.push(start.elapsed().as_secs_f64());
            drop(qrio);
        }
        if let Some(path) = &self.journal {
            let _ = std::fs::remove_file(path);
        }
        Ok(samples)
    }

    fn round(&mut self, spans: Option<&mut Spans>) -> Result<Round, String> {
        let round = run::run_round(&self.workload, &self.inputs, self.journal.as_ref(), spans)?;
        self.failures.extend(round.check_failures.iter().cloned());
        Ok(round)
    }

    /// Checks that hold across rounds: every round of one seed gives the
    /// same simulated figures.
    fn check_rounds(&mut self, rounds: &[&Round]) -> Option<Figures> {
        let first = rounds.first()?.figures.clone();
        for round in rounds {
            if round.figures != first {
                self.failures.push(format!(
                    "simulated figures differ between rounds:\n  {}\n  {}",
                    first.line(),
                    round.figures.line()
                ));
            }
        }
        Some(first)
    }

    fn finish(
        &self,
        rounds: usize,
        figures: &Figures,
        metrics: Vec<(&'static str, f64, &'static str)>,
    ) -> Output {
        for failure in self.failures.iter().take(20) {
            eprintln!("check failed: {failure}");
        }
        if self.failures.len() > 20 {
            eprintln!("... and {} more failed checks", self.failures.len() - 20);
        }
        let mut correct = self.failures.is_empty();
        if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
            eprintln!("a metric is not a finite number");
            correct = false;
        }
        Output {
            correct,
            attempted: rounds * self.inputs.jobs.len(),
            failed: rounds * figures.failed,
            metrics,
        }
    }
}

fn bench(args: &Args) -> Result<Output, String> {
    let mut bench = Bench::new(args)?;
    println!(
        "workload={} seed={} jobs={} trace={}",
        bench.workload.name,
        args.seed,
        bench.inputs.jobs.len(),
        u8::from(args.trace)
    );
    if args.trace {
        traced(&mut bench, args)
    } else {
        untraced(&mut bench, args)
    }
}

fn median(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(f64::NAN)
}

/// Report a tail, saying so on standard output when it fell back to the
/// median.
fn tail_value(name: &str, samples: &[f64], q: f64) -> f64 {
    match stats::tail(samples, q) {
        Some(Tail::Percentile(v)) => v,
        Some(Tail::MedianOnly(v)) => {
            println!("note: {name} reports the median: {} samples", samples.len());
            v
        }
        None => f64::NAN,
    }
}

fn untraced(bench: &mut Bench, args: &Args) -> Result<Output, String> {
    let reference_start = reference::reading_ms();
    let mut setup_s = bench.setups()?;
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        rounds.push(bench.round(None)?);
    }
    let all: Vec<&Round> = rounds.iter().collect();
    let figures = bench.check_rounds(&all).ok_or("no rounds")?;
    setup_s.extend(rounds.iter().map(|r| r.setup_s));
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let jobs_per_s = per_round(&|r| r.succeeded as f64 / r.loop_s);
    let p50 = per_round(&|r| median(&r.latencies_ms));
    let p99 = per_round(&|r| tail_value("job_latency_p99_ms", &r.latencies_ms, 0.99));
    let reference_end = reference::reading_ms();
    println!("figures: {}", figures.line());
    println!(
        "rounds={} jobs_per_s_by_round={:?}",
        rounds.len(),
        jobs_per_s
            .iter()
            .map(|v| (v * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!("reference: slice_ms_start={reference_start:.4} slice_ms_end={reference_end:.4}");
    if bench.workload.durable {
        let recover: Vec<f64> = rounds.iter().filter_map(|r| r.recover_s).collect();
        println!(
            "durable: journal_mb={} recover_s={:.4}",
            figures.journal_bytes as f64 / 1e6,
            median(&recover)
        );
    }
    let metrics = vec![
        ("jobs_per_s", median(&jobs_per_s), "jobs/s"),
        ("job_latency_p50_ms", median(&p50), "ms"),
        ("job_latency_p99_ms", median(&p99), "ms"),
        ("wait_p50_cycles", figures.wait_p50, "cycles"),
        ("wait_p99_cycles", figures.wait_p99.value(), "cycles"),
        ("mean_fidelity", figures.mean_fidelity, "ratio"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    Ok(bench.finish(rounds.len(), &figures, metrics))
}

fn traced(bench: &mut Bench, args: &Args) -> Result<Output, String> {
    let mut spans = Spans::default();
    let mut traced_wall_s = 0.0;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut proto = layers::ProtoFigures::default();
    let reference_start = reference::reading_ms();
    let start = Instant::now();
    while traced.is_empty()
        || start.elapsed().as_secs_f64() < args.seconds
        || spans.get("core.tick").len() < MIN_TICK_SAMPLES
    {
        plain.push(bench.round(None)?);
        let round_start = Instant::now();
        let round = bench.round(Some(&mut spans))?;
        layers::replay_jobs(&bench.inputs, &round, &mut spans)?;
        let figures =
            layers::replay_control(&round.control_trace, bench.inputs.jobs.len(), &mut spans)?;
        if let Some(bytes) = &round.journal {
            spans
                .time("journal.scan", || qrio_journal::scan_bytes(bytes))
                .map_err(|e| format!("journal scan: {e}"))?;
        }
        traced_wall_s += round_start.elapsed().as_secs_f64();
        if figures.frames != round.figures.frames {
            bench.failures.push(format!(
                "control trace holds {} frames, the observed report counters imply {}",
                figures.frames, round.figures.frames
            ));
        }
        proto.frames += figures.frames;
        proto.bytes += figures.bytes;
        traced.push(round);
    }
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    let figures = bench.check_rounds(&all).ok_or("no rounds")?;
    println!("figures: {}", figures.line());

    let jobs = bench.inputs.jobs.len() as f64;
    let rounds_traced = traced.len() as f64;
    let us = |name: &str| stats::median(spans.get(name)).map_or(0.0, |s| s * 1e6);
    let loop_s = |rounds: &[Round]| median(&rounds.iter().map(|r| r.loop_s).collect::<Vec<_>>());
    let trace_cost = loop_s(&traced) / loop_s(&plain) - 1.0;
    let decode_s: f64 = spans.get("proto.decode_all").iter().sum();
    let journal_bytes = figures.journal_bytes as f64;
    let recover: Vec<f64> = traced.iter().filter_map(|r| r.recover_s).collect();
    let ticks_ms: Vec<f64> = spans.get("core.tick").iter().map(|s| s * 1e3).collect();
    println!(
        "traced_rounds={} plain_rounds={} tick_samples={} trace_cost_frac={trace_cost:.4}",
        traced.len(),
        plain.len(),
        ticks_ms.len()
    );
    let reference_end = reference::reading_ms();
    println!("reference: slice_ms_start={reference_start:.4} slice_ms_end={reference_end:.4}");
    let metrics = vec![
        ("core.enqueue_p50_us", us("core.enqueue"), "us"),
        ("core.tick_p50_ms", median(&ticks_ms), "ms"),
        (
            "core.tick_p99_ms",
            tail_value("core.tick_p99_ms", &ticks_ms, 0.99),
            "ms",
        ),
        (
            "core.covered_frac",
            spans.covered_s / traced_wall_s,
            "ratio",
        ),
        ("core.trace_cost_frac", trace_cost, "ratio"),
        ("meta.canary_evals", figures.canary_evals as f64, "count"),
        (
            "meta.cache_hit_ratio",
            figures.cache_hits as f64 / figures.cache_lookups.max(1) as f64,
            "ratio",
        ),
        ("meta.canary_us", us("meta.canary"), "us"),
        ("meta.topology_us", us("meta.topology"), "us"),
        ("transpiler.transpile_us", us("transpiler.transpile"), "us"),
        ("sim.noisy_us", us("sim.noisy"), "us"),
        ("sim.ideal_us", us("sim.ideal"), "us"),
        ("circuit.qasm_us", us("circuit.qasm"), "us"),
        ("agent.run_us", us("agent.run"), "us"),
        (
            "proto.frames_per_job",
            proto.frames as f64 / rounds_traced / jobs,
            "count",
        ),
        (
            "proto.bytes_per_job",
            proto.bytes as f64 / rounds_traced / jobs,
            "bytes",
        ),
        (
            "proto.decode_us",
            decode_s / proto.frames.max(1) as f64 * 1e6,
            "us",
        ),
        ("journal.bytes_per_job", journal_bytes / jobs, "bytes"),
        (
            "journal.snapshot_frac",
            figures.snapshot_bytes as f64 / journal_bytes.max(1.0),
            "ratio",
        ),
        (
            "journal.scan_ms",
            stats::median(spans.get("journal.scan")).map_or(0.0, |s| s * 1e3),
            "ms",
        ),
        ("journal_mb", journal_bytes / 1e6, "MB"),
        ("recover_s", stats::median(&recover).unwrap_or(0.0), "s"),
        (
            "cluster.attempts_per_job",
            figures.attempts as f64 / jobs,
            "ratio",
        ),
    ];
    let rounds = plain.len() + traced.len();
    Ok(bench.finish(rounds, &figures, metrics))
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}
