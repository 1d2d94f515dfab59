//! Workload definitions: the fleet, the tenants of each workload, and the
//! seeded arrival stream. Every input is a pure function of the workload
//! name and the seed; the program under test only ever sees the generated
//! requests.

use qrio::{FidelityRankingConfig, JobRequest, JobRequestBuilder, TopologyDesigner};
use qrio_backend::{topology, Backend};
use qrio_circuit::{library, Circuit};
use qrio_cluster::{FaultInjector, RetryPolicy};

/// Per-job classical resources: small enough that the node's capacity never
/// binds, so device queues (not resource fit) decide where work waits.
pub const JOB_RESOURCES: (u64, u64) = (10, 16);
/// Per-node classical capacity (effectively unbounded, see above).
pub const NODE_RESOURCES: (u64, u64) = (1 << 30, 1 << 30);

/// SplitMix64: a small, fully specified generator, so the inputs do not
/// depend on any library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Arrivals of one tenant in one cycle: `ceil(rate)` independent
    /// submission slots, each used with probability `rate / ceil(rate)`.
    /// The mean is `rate`; the variance is lower than a Poisson stream's,
    /// which keeps the tenant mix, and so the simulated waits, steady
    /// across seeds.
    pub fn arrivals(&mut self, rate: f64) -> u64 {
        let slots = rate.ceil().max(1.0);
        let p = rate / slots;
        (0..slots as u64).filter(|_| self.unit() < p).count() as u64
    }

    /// A uniformly shuffled copy of `items` (Fisher–Yates).
    pub fn shuffled(&mut self, mut items: Vec<u64>) -> Vec<u64> {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
        items
    }
}

/// The six-device fleet of `scenarios/cloud.yaml`, built here so that the
/// benchmark's inputs do not change when that scenario file does.
pub fn fleet() -> Vec<Backend> {
    let device = |name: &str, map, e1: f64, e2: f64, ro: f64| {
        Backend::uniform(name, map, e1, e2).with_uniform_readout_error(ro)
    };
    vec![
        device("aspen", topology::grid(3, 4), 0.001, 0.008, 0.015),
        device("bonsai", topology::binary_tree(15), 0.001, 0.012, 0.02),
        device("cedar", topology::line(12), 0.002, 0.02, 0.03),
        device("dogwood", topology::ring(12), 0.002, 0.025, 0.03),
        device("elm", topology::star(10), 0.004, 0.04, 0.05),
        device("fir", topology::line(10), 0.006, 0.06, 0.08),
    ]
}

/// The canary configuration of `scenarios/cloud.yaml`: 32 shots per
/// evaluation, default seed and shortfall weight.
pub fn canary_config() -> FidelityRankingConfig {
    FidelityRankingConfig {
        shots: 32,
        ..FidelityRankingConfig::default()
    }
}

/// The orchestrator's runner seed (the value `Qrio::new` uses).
pub const RUNNER_SEED: u64 = 0x51D0;

/// What a tenant submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitKind {
    /// Bernstein–Vazirani over `n` qubits. Secrets are dealt from a
    /// shuffled deck of `1..2^n`, reshuffled when it runs out, so every
    /// secret recurs equally often.
    Bv(usize),
    /// GHZ over `n` qubits.
    Ghz(usize),
    /// A fresh random Clifford circuit of 5 or 6 qubits per job.
    RandomClifford,
}

/// How a tenant asks QRIO to rank devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Clifford-canary fidelity ranking with a target.
    Fidelity(f64),
    /// Canary fidelity blended with queue depth and utilization.
    Weighted(f64),
    /// The least-loaded device.
    MinQueue,
    /// The device that best hosts the circuit's own interaction graph.
    Topology,
}

/// One tenant: an independent stream of jobs of one kind.
#[derive(Debug, Clone, Copy)]
pub struct Tenant {
    /// Tenant name, the prefix of its job names.
    pub name: &'static str,
    /// Ranking strategy.
    pub strategy: Strategy,
    /// Circuit family.
    pub circuit: CircuitKind,
    /// Mean arrivals per service-loop cycle.
    pub rate: f64,
}

/// Depth of the random Clifford circuits.
pub const CLIFFORD_DEPTH: usize = 6;

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Jobs per round.
    pub jobs: usize,
    /// The tenants.
    pub tenants: Vec<Tenant>,
    /// Whether the round journals to disk.
    pub durable: bool,
    /// Fault rates (seeded per round from the workload seed), when faults
    /// are injected.
    pub faults: Option<FaultRates>,
}

/// Per-attempt fault probabilities.
#[derive(Debug, Clone, Copy)]
pub struct FaultRates {
    /// Transient execution errors.
    pub transient: f64,
    /// Calibration glitches.
    pub calibration: f64,
    /// Hung / slow jobs.
    pub slow: f64,
}

/// The retry policy of every job in a faulty workload: up to 10 attempts,
/// exponential backoff from 1 to 8 cycles with seeded jitter.
pub fn retry_policy() -> RetryPolicy {
    RetryPolicy::exponential(10, 1, 8)
}

/// The breaker thresholds of a faulty workload.
pub fn breaker_config() -> qrio::BreakerConfig {
    qrio::BreakerConfig {
        consecutive_failures: 3,
        failure_rate: 0.6,
        window: 8,
        open_ticks: 4,
        probe_jobs: 2,
    }
}

/// Shots per job. Executions above 64 shots spawn worker threads, whose
/// host time depends on the second vCPU being free; see the README.
pub const SHOTS: u64 = 64;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["canary_rank", "exec_unique", "durable_retry"];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    let tenant = |name, strategy, circuit, rate| Tenant {
        name,
        strategy,
        circuit,
        rate,
    };
    match name {
        "canary_rank" => Some(Workload {
            name: "canary_rank",
            jobs: 1200,
            tenants: vec![
                tenant("alice", Strategy::Fidelity(0.9), CircuitKind::Bv(5), 0.9),
                tenant("bob", Strategy::Fidelity(0.9), CircuitKind::Bv(6), 0.9),
                tenant("carol", Strategy::Fidelity(0.9), CircuitKind::Ghz(5), 0.9),
                tenant("dave", Strategy::Weighted(0.85), CircuitKind::Ghz(6), 0.45),
            ],
            durable: false,
            faults: None,
        }),
        "exec_unique" => Some(Workload {
            name: "exec_unique",
            jobs: 1000,
            tenants: vec![
                tenant("erin", Strategy::MinQueue, CircuitKind::RandomClifford, 3.3),
                tenant(
                    "frank",
                    Strategy::MinQueue,
                    CircuitKind::RandomClifford,
                    3.3,
                ),
                tenant(
                    "grace",
                    Strategy::MinQueue,
                    CircuitKind::RandomClifford,
                    3.3,
                ),
                tenant(
                    "heidi",
                    Strategy::Topology,
                    CircuitKind::RandomClifford,
                    1.8,
                ),
            ],
            durable: false,
            faults: None,
        }),
        "durable_retry" => Some(Workload {
            name: "durable_retry",
            jobs: 1000,
            tenants: vec![
                tenant("alice", Strategy::Fidelity(0.9), CircuitKind::Ghz(5), 0.9),
                tenant("dave", Strategy::Weighted(0.85), CircuitKind::Bv(6), 0.9),
                tenant("erin", Strategy::MinQueue, CircuitKind::RandomClifford, 3.3),
                tenant(
                    "grace",
                    Strategy::MinQueue,
                    CircuitKind::RandomClifford,
                    3.3,
                ),
            ],
            durable: true,
            faults: Some(FaultRates {
                transient: 0.05,
                calibration: 0.03,
                slow: 0.02,
            }),
        }),
        _ => None,
    }
}

/// One generated job: its request, the cycle it is due, and what the
/// output checks need to know about it.
#[derive(Debug, Clone)]
pub struct Job {
    /// The request, built (QASM included) before timing starts.
    pub request: JobRequest,
    /// The loop cycle (1-based) in which the job is enqueued.
    pub due_cycle: u64,
    /// Index of the tenant in the workload.
    pub tenant: usize,
    /// The circuit the request carries.
    pub circuit: Circuit,
    /// The circuit family, for the output checks.
    pub kind: CircuitKind,
    /// The BV secret, for BV jobs.
    pub secret: Option<u64>,
}

/// The generated inputs of one round.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Jobs in arrival order.
    pub jobs: Vec<Job>,
    /// The fault plan, when the workload injects faults.
    pub injector: Option<FaultInjector>,
}

/// Generate a workload's inputs from `seed`: for every cycle, each tenant
/// independently draws a Poisson number of arrivals, until the workload's
/// job count is reached.
pub fn generate(workload: &Workload, seed: u64) -> Result<Inputs, String> {
    let mut rng = SplitMix64::new(seed ^ 0x005E_ED0F_BE4C);
    let mut jobs = Vec::with_capacity(workload.jobs);
    let mut counters = vec![0usize; workload.tenants.len()];
    let mut decks: Vec<Vec<u64>> = vec![Vec::new(); workload.tenants.len()];
    let mut cycle = 0;
    while jobs.len() < workload.jobs {
        cycle += 1;
        for (index, tenant) in workload.tenants.iter().enumerate() {
            for _ in 0..rng.arrivals(tenant.rate) {
                if jobs.len() == workload.jobs {
                    break;
                }
                let name = format!("{}-{}", tenant.name, counters[index]);
                counters[index] += 1;
                let secret = match tenant.circuit {
                    CircuitKind::Bv(n) => {
                        if decks[index].is_empty() {
                            decks[index] = rng.shuffled((1..1u64 << n).collect());
                        }
                        decks[index].pop()
                    }
                    _ => None,
                };
                let retry = workload.faults.is_some();
                jobs.push(make_job(
                    tenant, index, name, cycle, secret, retry, &mut rng,
                )?);
            }
        }
    }
    let injector = workload.faults.map(|rates| FaultInjector {
        seed: rng.next_u64(),
        transient_rate: rates.transient,
        calibration_rate: rates.calibration,
        slow_rate: rates.slow,
        flap_rate: 0.0,
    });
    Ok(Inputs { jobs, injector })
}

fn make_job(
    tenant: &Tenant,
    index: usize,
    name: String,
    cycle: u64,
    secret: Option<u64>,
    retry: bool,
    rng: &mut SplitMix64,
) -> Result<Job, String> {
    let err = |e: &dyn std::fmt::Display| format!("job {name}: {e}");
    let (circuit, secret) = match tenant.circuit {
        CircuitKind::Bv(n) => {
            let secret = secret.ok_or_else(|| format!("job {name}: no BV secret dealt"))?;
            let circuit = library::bernstein_vazirani(n, secret).map_err(|e| err(&e))?;
            (circuit, Some(secret))
        }
        CircuitKind::Ghz(n) => (library::ghz(n).map_err(|e| err(&e))?, None),
        CircuitKind::RandomClifford => {
            let n = rng.range(5, 6) as usize;
            let circuit = library::random_clifford_circuit(n, CLIFFORD_DEPTH, rng.next_u64())
                .map_err(|e| err(&e))?;
            (circuit, None)
        }
    };
    let mut builder = JobRequestBuilder::new()
        .with_circuit(&circuit)
        .job_name(&name)
        .image_name(format!("qrio/{name}"))
        .shots(SHOTS)
        .resources(JOB_RESOURCES.0, JOB_RESOURCES.1);
    builder = match tenant.strategy {
        Strategy::Fidelity(target) => builder.fidelity_target(target),
        Strategy::Weighted(target) => builder.weighted(target, 1.0, 5.0, 1.0),
        Strategy::MinQueue => builder.min_queue(),
        Strategy::Topology => {
            let mut designer = TopologyDesigner::new(circuit.num_qubits());
            for (a, b) in circuit.interaction_graph() {
                designer.connect(a, b).map_err(|e| err(&e))?;
            }
            builder.topology(&designer)
        }
    };
    if retry {
        builder = builder.retry_policy(retry_policy());
    }
    let request = builder.build().map_err(|e| err(&e))?;
    Ok(Job {
        request,
        due_cycle: cycle,
        tenant: index,
        circuit,
        kind: tenant.circuit,
        secret,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let workload = workload("canary_rank").unwrap();
        let a = generate(&workload, 7).unwrap();
        let b = generate(&workload, 7).unwrap();
        let c = generate(&workload, 8).unwrap();
        let key = |inputs: &Inputs| -> Vec<(String, u64, String)> {
            inputs
                .jobs
                .iter()
                .map(|j| {
                    (
                        j.request.job_name.clone(),
                        j.due_cycle,
                        j.request.qasm.clone(),
                    )
                })
                .collect()
        };
        assert_eq!(a.jobs.len(), workload.jobs);
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn fidelity_and_topology_tenants_never_share_a_workload() {
        // The canary count reads every score-cache miss as one canary
        // evaluation, which holds only while topology scores (also cached)
        // never share a workload with fidelity scores.
        for name in NAMES {
            let tenants = workload(name).unwrap().tenants;
            let has = |f: fn(&Strategy) -> bool| tenants.iter().any(|t| f(&t.strategy));
            assert!(
                !(has(|s| matches!(s, Strategy::Fidelity(_)))
                    && has(|s| matches!(s, Strategy::Topology))),
                "{name}"
            );
        }
    }

    #[test]
    fn arrival_mean_is_close_to_the_rate() {
        let mut rng = SplitMix64::new(1);
        for rate in [0.45, 0.9, 3.3] {
            let draws: u64 = (0..20_000).map(|_| rng.arrivals(rate)).sum();
            let mean = draws as f64 / 20_000.0;
            assert!((mean - rate).abs() < 0.03, "rate {rate}: mean {mean}");
        }
    }

    #[test]
    fn bv_secrets_cover_the_deck_evenly() {
        let workload = workload("canary_rank").unwrap();
        let inputs = generate(&workload, 3).unwrap();
        let secrets: Vec<u64> = inputs
            .jobs
            .iter()
            .filter(|j| j.kind == CircuitKind::Bv(5))
            .filter_map(|j| j.secret)
            .take(62)
            .collect();
        for secret in 1..32 {
            assert_eq!(secrets.iter().filter(|&&s| s == secret).count(), 2);
        }
    }
}
