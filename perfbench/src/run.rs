//! One round of a workload: set up a fresh deployment, drive every job
//! through `enqueue` → `tick()` → `watch`, then check the outputs.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use qrio::{DurabilityConfig, JobId, JobState, Qrio};
use qrio_analyzer::{audit_watch_log, AuditOptions};
use qrio_cluster::Resources;

use crate::stats::{self, JobClocks, Tail};
use crate::workload::{self, CircuitKind, Inputs, Strategy, Workload, NODE_RESOURCES};

/// Host-time spans of calls into the program, kept in memory per name.
#[derive(Debug, Default)]
pub struct Spans {
    /// Durations in seconds, per span name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Total seconds spent inside timed calls.
    pub covered_s: f64,
}

impl Spans {
    /// Time one call, recording its duration under `name`.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let elapsed = start.elapsed().as_secs_f64();
        self.samples.entry(name).or_default().push(elapsed);
        self.covered_s += elapsed;
        out
    }

    /// Time one call that counts toward coverage but is not a metric.
    pub fn cover<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.covered_s += start.elapsed().as_secs_f64();
        out
    }

    /// The samples recorded under `name` (empty when none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Time `call` under `name` when tracing, or just run it.
fn timed<T>(spans: &mut Option<&mut Spans>, name: &'static str, call: impl FnOnce() -> T) -> T {
    match spans {
        Some(spans) => spans.time(name, call),
        None => call(),
    }
}

/// Run `call` inside coverage when tracing, or just run it.
fn covered<T>(spans: &mut Option<&mut Spans>, call: impl FnOnce() -> T) -> T {
    match spans {
        Some(spans) => spans.cover(call),
        None => call(),
    }
}

/// Figures that depend only on the inputs: identical in every round of one
/// seed, and printed so that two runs can be diffed.
#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    /// Service-loop cycles the round took.
    pub cycles: u64,
    /// Median wait in cycles.
    pub wait_p50: f64,
    /// 99th-percentile wait in cycles (or the median, see [`Tail`]).
    pub wait_p99: Tail,
    /// Mean achieved fidelity over succeeded jobs.
    pub mean_fidelity: f64,
    /// Jobs that did not end `Succeeded`.
    pub failed: usize,
    /// Execution attempts (transitions into `Running`).
    pub attempts: u64,
    /// Canary evaluations the meta server ran.
    pub canary_evals: u64,
    /// Score-cache hits and lookups.
    pub cache_hits: u64,
    /// Score-cache lookups.
    pub cache_lookups: u64,
    /// Control-plane frames, both directions.
    pub frames: u64,
    /// Journal file size in bytes (0 without durability).
    pub journal_bytes: u64,
    /// Bytes of snapshot records in the journal.
    pub snapshot_bytes: u64,
    /// Jobs bound to each device (final binding), per tenant, in fleet
    /// order.
    pub by_device: Vec<Vec<usize>>,
}

impl Figures {
    /// One line of `key=value` pairs.
    pub fn line(&self) -> String {
        format!(
            "cycles={} wait_p50_cycles={} wait_p99_cycles={} mean_fidelity={:.12} failed={} \
             attempts={} canary_evals={} cache_hits={} cache_lookups={} frames={} \
             journal_bytes={} snapshot_bytes={} by_device={:?}",
            self.cycles,
            self.wait_p50,
            self.wait_p99.value(),
            self.mean_fidelity,
            self.failed,
            self.attempts,
            self.canary_evals,
            self.cache_hits,
            self.cache_lookups,
            self.frames,
            self.journal_bytes,
            self.snapshot_bytes,
            self.by_device
        )
    }
}

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    /// Host seconds to build the deployment.
    pub setup_s: f64,
    /// Host seconds from the first enqueue to the end of the last tick.
    pub loop_s: f64,
    /// Jobs that ended `Succeeded`.
    pub succeeded: usize,
    /// Per-job host latency in ms.
    pub latencies_ms: Vec<f64>,
    /// Input-determined figures.
    pub figures: Figures,
    /// Host seconds of `Qrio::recover` (durable workloads only).
    pub recover_s: Option<f64>,
    /// The journal's bytes (durable, traced rounds only).
    pub journal: Option<Vec<u8>>,
    /// The control-plane trace (traced rounds only).
    pub control_trace: Vec<u8>,
    /// Bound device per job, for the layer replays.
    pub bound: Vec<String>,
    /// Output-check failures (empty when every check held).
    pub check_failures: Vec<String>,
}

/// Build a deployment: the orchestrator, the fleet with its agents bound,
/// the fault plan and breakers where used, and durability where used.
pub fn setup(inputs: &Inputs, journal: Option<&Path>, trace_frames: bool) -> Result<Qrio, String> {
    let mut qrio = Qrio::with_config(workload::canary_config(), workload::RUNNER_SEED);
    if trace_frames {
        qrio.enable_control_trace();
    }
    for backend in workload::fleet() {
        qrio.add_device_with_resources(backend, Resources::new(NODE_RESOURCES.0, NODE_RESOURCES.1))
            .map_err(|e| format!("add_device: {e}"))?;
    }
    if let Some(injector) = inputs.injector {
        qrio.configure_faults(Some(injector))
            .map_err(|e| format!("configure_faults: {e}"))?;
        qrio.configure_breakers(Some(workload::breaker_config()))
            .map_err(|e| format!("configure_breakers: {e}"))?;
    }
    if let Some(path) = journal {
        qrio.enable_durability(path, DurabilityConfig::default())
            .map_err(|e| format!("enable_durability: {e}"))?;
    }
    Ok(qrio)
}

/// Cap on service-loop cycles per round: far beyond any workload's length,
/// so hitting it means a job never reached a terminal state.
const MAX_CYCLES: u64 = 200_000;

/// Run one round. With `spans`, every call into the program is timed and
/// the control-plane trace and journal bytes are kept for the layer
/// replays.
pub fn run_round(
    workload: &Workload,
    inputs: &Inputs,
    journal: Option<&PathBuf>,
    mut spans: Option<&mut Spans>,
) -> Result<Round, String> {
    let traced = spans.is_some();
    let jobs = &inputs.jobs;
    let index: HashMap<&str, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| (job.request.job_name.as_str(), i))
        .collect();

    let setup_start = Instant::now();
    let mut qrio = covered(&mut spans, || {
        setup(inputs, journal.map(PathBuf::as_path), traced)
    })?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut clocks = JobClocks::new(jobs.len());
    let mut final_state = vec![None; jobs.len()];
    let mut terminal = 0;
    let mut next = 0;
    let mut cursor = 0u64;
    let mut cycle = 0u64;
    let mut first_enqueue = None;
    let mut last_tick_end = 0.0;
    let epoch = Instant::now();
    while next < jobs.len() || terminal < jobs.len() {
        cycle += 1;
        if cycle > MAX_CYCLES {
            return Err(format!(
                "{terminal} of {} jobs terminal after {MAX_CYCLES} cycles",
                jobs.len()
            ));
        }
        while next < jobs.len() && jobs[next].due_cycle <= cycle {
            let start = epoch.elapsed().as_secs_f64();
            first_enqueue.get_or_insert(start);
            let _job_id = timed(&mut spans, "core.enqueue", || {
                qrio.enqueue(&jobs[next].request)
            })
            .map_err(|e| format!("enqueue {}: {e}", jobs[next].request.job_name))?;
            clocks.enqueued(next, start, qrio.now() + 1);
            next += 1;
        }
        timed(&mut spans, "core.tick", || qrio.tick());
        let tick_end = epoch.elapsed().as_secs_f64();
        last_tick_end = tick_end;
        let tick = qrio.now();
        let events = covered(&mut spans, || qrio.watch(cursor));
        cursor += events.len() as u64;
        for event in events.iter().filter(|event| event.to.is_terminal()) {
            let job = *index
                .get(event.job.as_str())
                .ok_or_else(|| format!("watch log names unknown job {}", event.job))?;
            if final_state[job].is_none() {
                terminal += 1;
            }
            final_state[job] = Some(event.to);
            clocks.terminal(job, tick, tick_end);
        }
    }
    let loop_s = last_tick_end - first_enqueue.unwrap_or(0.0);

    // Everything below is checked and counted outside the timed loop.
    let mut failures = Vec::new();
    let mut bound = vec![String::new(); jobs.len()];
    let mut fidelities = Vec::new();
    let mut succeeded = 0;
    let fleet = workload::fleet();
    let events = qrio.watch(0).to_vec();
    let mut attempts = 0;
    let mut admissions = vec![0u64; jobs.len()];
    for event in &events {
        let job = index[event.job.as_str()];
        match event.to {
            JobState::Running => attempts += 1,
            JobState::Scheduled => admissions[job] += 1,
            _ => {}
        }
    }
    let mut weighted_scorings = 0;
    for (i, job) in jobs.iter().enumerate() {
        let name = &job.request.job_name;
        if final_state[i] != Some(JobState::Succeeded) {
            failures.push(format!("{name} ended {:?}", final_state[i]));
            continue;
        }
        succeeded += 1;
        let outcome = match covered(&mut spans, || qrio.outcome(&JobId::new(name.as_str()))) {
            Ok(outcome) => outcome,
            Err(e) => {
                failures.push(format!("{name}: outcome: {e}"));
                continue;
            }
        };
        check_outcome(job, &outcome, &fleet, &mut failures);
        if let Some(f) = outcome.achieved_fidelity {
            fidelities.push(f);
        } else {
            failures.push(format!("{name}: no achieved fidelity"));
        }
        if matches!(workload.tenants[job.tenant].strategy, Strategy::Weighted(_)) {
            weighted_scorings += admissions[i] * outcome.decision.candidates.len() as u64;
        }
        bound[i] = outcome.decision.node;
    }
    let diagnostics = covered(&mut spans, || {
        audit_watch_log(&events, AuditOptions::default())
    });
    for diagnostic in diagnostics {
        failures.push(format!("watch-log audit: {diagnostic}"));
    }

    let cache = qrio.meta().cache_stats();
    let has_fidelity = workload
        .tenants
        .iter()
        .any(|t| matches!(t.strategy, Strategy::Fidelity(_)));
    // No workload mixes fidelity and topology tenants (a unit test holds
    // this), so with fidelity tenants every score-cache miss is one canary
    // evaluation; weighted scores bypass the cache and run a canary for
    // every candidate at every admission.
    let canary_evals = if has_fidelity { cache.misses } else { 0 } + weighted_scorings;
    let frames = 2 * qrio
        .observed_nodes()
        .values()
        .map(|node| node.seq + 1)
        .sum::<u64>();
    let control_trace = if traced {
        qrio.take_control_trace()
    } else {
        Vec::new()
    };

    let mut recover_s = None;
    let mut journal_bytes = 0;
    let mut snapshot_bytes = 0;
    let mut journal_kept = None;
    if let Some(path) = journal {
        let live = covered(&mut spans, || qrio.describe_state());
        let start = Instant::now();
        let recovered = covered(&mut spans, || Qrio::recover(path));
        recover_s = Some(start.elapsed().as_secs_f64());
        match recovered {
            Ok((recovered, _report)) => {
                if covered(&mut spans, || recovered.describe_state()) != live {
                    failures.push("recovered state differs from the live state".into());
                }
            }
            Err(e) => failures.push(format!("recover: {e}")),
        }
        let bytes = std::fs::read(path).map_err(|e| format!("read journal: {e}"))?;
        journal_bytes = bytes.len() as u64;
        match qrio_journal::scan_bytes(&bytes) {
            Ok(scan) => {
                if let Some(torn) = scan.torn {
                    failures.push(format!("journal has a torn tail: {torn:?}"));
                }
                snapshot_bytes = scan
                    .records
                    .iter()
                    .filter(|r| r.kind == qrio::durability::RECORD_SNAPSHOT)
                    .map(|r| r.payload.len() as u64)
                    .sum();
            }
            Err(e) => failures.push(format!("journal scan: {e}")),
        }
        if traced {
            journal_kept = Some(bytes);
        }
    }
    drop(qrio);
    if let Some(path) = journal {
        let _ = std::fs::remove_file(path);
    }

    let waits = clocks.waits();
    let by_device = (0..workload.tenants.len())
        .map(|tenant| {
            fleet
                .iter()
                .map(|device| {
                    jobs.iter()
                        .zip(&bound)
                        .filter(|(job, b)| job.tenant == tenant && *b == device.name())
                        .count()
                })
                .collect()
        })
        .collect();
    let figures = Figures {
        cycles: cycle,
        wait_p50: stats::median(&waits).unwrap_or(0.0),
        wait_p99: stats::tail(&waits, 0.99).unwrap_or(Tail::MedianOnly(0.0)),
        mean_fidelity: fidelities.iter().sum::<f64>() / fidelities.len().max(1) as f64,
        failed: jobs.len() - succeeded,
        attempts,
        canary_evals,
        cache_hits: cache.hits,
        cache_lookups: cache.hits + cache.misses,
        frames,
        journal_bytes,
        snapshot_bytes,
        by_device,
    };
    Ok(Round {
        setup_s,
        loop_s,
        succeeded,
        latencies_ms: clocks.latencies_ms(),
        figures,
        recover_s,
        journal: journal_kept,
        control_trace,
        bound,
        check_failures: failures,
    })
}

/// The per-job output checks: properties the method must have, not copies
/// of an earlier output.
fn check_outcome(
    job: &workload::Job,
    outcome: &qrio::JobOutcome,
    fleet: &[qrio_backend::Backend],
    failures: &mut Vec<String>,
) {
    let name = &job.request.job_name;
    let shots = job.request.shots;
    let total: u64 = outcome.counts.iter().map(|(_, c)| c).sum();
    if total != shots {
        failures.push(format!("{name}: histogram sums to {total}, not {shots}"));
    }
    let n = job.circuit.num_qubits();
    match job.kind {
        CircuitKind::Bv(_) => {
            let secret = job.secret.unwrap_or_default();
            let expected = format!("{secret:0n$b}");
            let top = outcome
                .counts
                .iter()
                .max_by_key(|(_, c)| *c)
                .map(|(b, _)| b);
            if top != Some(&expected) {
                failures.push(format!("{name}: top outcome {top:?}, secret {expected}"));
            }
        }
        CircuitKind::Ghz(_) => {
            let zeros = "0".repeat(n);
            let ones = "1".repeat(n);
            let hits: u64 = outcome
                .counts
                .iter()
                .filter(|(b, _)| *b == zeros || *b == ones)
                .map(|(_, c)| c)
                .sum();
            if 2 * hits <= shots {
                failures.push(format!("{name}: GHZ hits {hits} of {shots} shots"));
            }
        }
        CircuitKind::RandomClifford => {}
    }
    let decision = &outcome.decision;
    match fleet.iter().find(|b| b.name() == decision.node) {
        Some(device) if device.num_qubits() >= n => {}
        Some(device) => failures.push(format!(
            "{name}: bound to {} with {} qubits for a {n}-qubit circuit",
            decision.node,
            device.num_qubits()
        )),
        None => failures.push(format!("{name}: bound to unknown device {}", decision.node)),
    }
    let best = decision
        .candidates
        .iter()
        .map(|(_, score)| *score)
        .fold(f64::INFINITY, f64::min);
    if decision.candidates.is_empty() || decision.score > best {
        failures.push(format!(
            "{name}: decision score {} is not the best of {:?}",
            decision.score, decision.candidates
        ));
    }
}
