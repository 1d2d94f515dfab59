//! Per-layer replays for the traced mode: the benchmark calls each lower
//! module's public functions itself, on the round's own jobs and the
//! devices they were bound to, and times every call.

use std::collections::BTreeMap;

use qrio::SimJobRunner;
use qrio_agent::NodeAgent;
use qrio_circuit::qasm;
use qrio_meta::{evaluate_fidelity, evaluate_topology, topology_circuit};
use qrio_proto::{Envelope, FrameHeader, NodeCommand, Payload};
use qrio_sim::{executor, NoiseModel, ParallelConfig};
use qrio_transpiler::{deflate, transpile};

use crate::run::{Round, Spans};
use crate::workload::{self, Inputs};

/// Replays per traced round are capped at about this many jobs, so the
/// replays do not dwarf the round itself.
pub const SAMPLED_JOBS: usize = 100;

/// Control-plane figures of one traced round.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProtoFigures {
    /// Frames in the trace, both directions.
    pub frames: u64,
    /// Bytes in the trace.
    pub bytes: u64,
}

/// Time the lower layers on a sample of the round's jobs.
pub fn replay_jobs(inputs: &Inputs, round: &Round, spans: &mut Spans) -> Result<(), String> {
    let fleet = workload::fleet();
    let every = (inputs.jobs.len() / SAMPLED_JOBS).max(1);
    let config = workload::canary_config();
    let parallel = ParallelConfig::auto();
    for (i, job) in inputs.jobs.iter().enumerate().step_by(every) {
        let Some(backend) = fleet.iter().find(|b| b.name() == round.bound[i]) else {
            continue; // A job that failed was never bound; the checks report it.
        };
        let err = |layer: &str, e: &dyn std::fmt::Display| format!("{layer} replay: {e}");
        let circuit = &job.circuit;
        spans
            .time("circuit.qasm", || qasm::parse_qasm(&qasm::to_qasm(circuit)))
            .map_err(|e| err("qasm", &e))?;
        let transpiled = spans
            .time("transpiler.transpile", || transpile(circuit, backend))
            .map_err(|e| err("transpile", &e))?;
        let deflated = spans
            .cover(|| deflate(&transpiled.circuit, backend))
            .map_err(|e| err("deflate", &e))?;
        let noise = spans.cover(|| NoiseModel::from_backend(&deflated.backend));
        let shots = job.request.shots;
        let seed = workload::RUNNER_SEED ^ i as u64;
        spans
            .time("sim.noisy", || {
                executor::run_with_noise_parallel(&deflated.circuit, &noise, shots, seed, &parallel)
            })
            .map_err(|e| err("noisy simulation", &e))?;
        spans
            .time("sim.ideal", || {
                executor::run_ideal_parallel(&deflated.circuit, shots, seed, &parallel)
            })
            .map_err(|e| err("ideal simulation", &e))?;
        spans
            .time("meta.canary", || {
                evaluate_fidelity(circuit, 0.9, backend, &config)
            })
            .map_err(|e| err("canary", &e))?;
        let edges = circuit.interaction_graph();
        if !edges.is_empty() {
            let request = topology_circuit(circuit.num_qubits(), &edges)
                .map_err(|e| err("topology circuit", &e))?;
            // A device the request does not fit is a legitimate per-device
            // error; the call is timed either way.
            let _ = spans.time("meta.topology", || evaluate_topology(&request, backend));
        }
    }
    Ok(())
}

/// Decode the round's control-plane trace, then replay a sample of its
/// `Run` frames through fresh node agents.
pub fn replay_control(
    trace: &[u8],
    jobs: usize,
    spans: &mut Spans,
) -> Result<ProtoFigures, String> {
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < trace.len() {
        let header = FrameHeader::peek(&trace[offset..]).map_err(|e| format!("trace: {e}"))?;
        frames.push(&trace[offset..offset + header.frame_len]);
        offset += header.frame_len;
    }
    let envelopes = spans
        .time("proto.decode_all", || {
            frames
                .iter()
                .map(|frame| Envelope::decode(frame).map(|(envelope, _)| envelope))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("trace decode: {e}"))?;

    let every = (jobs / SAMPLED_JOBS).max(1);
    let mut agents: BTreeMap<String, NodeAgent> = BTreeMap::new();
    let mut runs = 0usize;
    for (frame, envelope) in frames.iter().zip(&envelopes) {
        let Payload::Command(command) = &envelope.payload else {
            continue;
        };
        let agent = agents.entry(envelope.node_id.clone()).or_insert_with(|| {
            NodeAgent::new(
                envelope.node_id.clone(),
                Box::new(SimJobRunner::new(workload::RUNNER_SEED)),
            )
        });
        let replies = if matches!(command, NodeCommand::Run { .. }) {
            runs += 1;
            if (runs - 1) % every != 0 {
                continue;
            }
            spans.time("agent.run", || agent.handle_frame(frame))
        } else {
            spans.cover(|| agent.handle_frame(frame))
        };
        replies.map_err(|e| format!("agent replay: {e}"))?;
    }
    Ok(ProtoFigures {
        frames: frames.len() as u64,
        bytes: trace.len() as u64,
    })
}
