//! The three workloads. Each round builds a fresh simulator from the
//! seeded inputs, drives it through the public API, and checks every
//! packet against the benchmark's own ledger.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::convert::Infallible;

use rtr_channels::control_plane::{DeferredPlane, SignalingEngine, TeardownStyle};
use rtr_channels::establish::{ChannelManager, EstablishError, EstablishedChannel};
use rtr_channels::sender::ChannelSender;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::{RealTimeRouter, RouterTemplate};
use rtr_mesh::{Simulator, Topology};
use rtr_types::config::RouterConfig;
use rtr_types::ids::{ports_in_mask, NodeId};
use rtr_types::packet::{BePacket, PacketTrace, TcPacket};
use rtr_workloads::replay::InjectionTrace;

use crate::inputs::{self, BeSend, ChurnArrival, Request, RequestShape, Rng};
use crate::ledger::{nearest_rank, Class, Ledger, Sent};
use crate::meter::{Mark, Span};

type Sim = Simulator<RealTimeRouter>;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DenseMixed,
    SparseLarge,
    LiveChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "dense_mixed" => Some(Workload::DenseMixed),
            "sparse_large" => Some(Workload::SparseLarge),
            "live_churn" => Some(Workload::LiveChurn),
            _ => None,
        }
    }
}

/// The simulated results of a round: a pure function of the seed, so every
/// round of a run, and the traced build, must reproduce them exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub tc_p50: u64,
    pub tc_p99: u64,
    pub be_p50: u64,
    pub be_p99: u64,
    pub channels_admitted: u64,
    pub tc_delivered: u64,
    pub be_delivered: u64,
    pub aborted: u64,
}

/// Per-layer measurements of one round.
#[derive(Debug, Default)]
pub struct Layers {
    pub build_s: f64,
    pub bytes_per_node_built: u64,
    pub bytes_per_node_end: u64,
    pub establish_us: Vec<f64>,
    pub admission_us: Vec<f64>,
    pub program_us: Vec<f64>,
    pub teardown_us: Vec<f64>,
    pub rejected: u64,
    pub table_writes: u64,
    pub reservations_per_link_max: u64,
    /// The largest packets-per-slot sum the benchmark saw on any link.
    pub reserved_share_max: f64,
    pub ticks: u64,
    pub sources_registered: u64,
    pub control_ops_applied: u64,
    pub key_computations: u64,
    pub tc_transmitted: u64,
    pub memory_high_water_max: u64,
    /// Event-core counters, summed over every core the run built.
    pub events: BTreeMap<&'static str, u64>,
    /// Counters from the metrics registry (traced build only).
    pub registry: BTreeMap<String, u64>,
}

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    pub setup: Span,
    pub drive: Span,
    pub node_cycles: u64,
    pub outcome: Outcome,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub layers: Layers,
}

/// Fixed shape of the two set-up-then-run workloads.
pub struct StaticShape {
    width: u16,
    height: u16,
    requests: usize,
    request: RequestShape,
    be_rate: f64,
    /// Cycles during which TC traffic is offered.
    span: u64,
    /// Cycles during which BE traffic is offered.
    be_span: u64,
    /// Cycles run after the last send, longer than any admitted deadline.
    tail: u64,
    leaping: bool,
}

const DENSE: StaticShape = StaticShape {
    width: 32,
    height: 32,
    requests: 320,
    request: RequestShape { max_hops: 7, i_min: (8, 32), per_hop_delay: 6, sinks: &[] },
    be_rate: 0.0015,
    span: 2_000,
    be_span: 2_000,
    tail: 1_600,
    leaping: false,
};

const SPARSE: StaticShape = StaticShape {
    width: 64,
    height: 64,
    requests: 600,
    request: RequestShape { max_hops: 7, i_min: (32, 64), per_hop_delay: 4, sinks: &[] },
    be_rate: 0.000_2,
    span: 2_000,
    be_span: 1_400,
    tail: 1_200,
    leaping: true,
};

/// Fixed shape of the churn workload.
struct ChurnShape {
    width: u16,
    height: u16,
    bystanders: usize,
    bystander: RequestShape,
    arrivals: usize,
    /// Mean cycles between establish requests.
    mean_gap: f64,
    mean_lifetime: f64,
    min_lifetime: u64,
    request: RequestShape,
    be_rate: f64,
    tail: u64,
}

const SINKS: [(u16, u16); 16] = [
    (2, 2),
    (6, 2),
    (10, 2),
    (14, 2),
    (2, 6),
    (6, 6),
    (10, 6),
    (14, 6),
    (2, 10),
    (6, 10),
    (10, 10),
    (14, 10),
    (2, 14),
    (6, 14),
    (10, 14),
    (14, 14),
];

const CHURN: ChurnShape = ChurnShape {
    width: 16,
    height: 16,
    bystanders: 8,
    bystander: RequestShape { max_hops: 7, i_min: (16, 16), per_hop_delay: 6, sinks: &[] },
    arrivals: 2_000,
    mean_gap: 18.0,
    mean_lifetime: 1_200.0,
    min_lifetime: 400,
    // Every churned channel ends at one of sixteen sinks on a 4×4 grid, so
    // the links into them fill to the demand test's limit and admission
    // refuses about a third of the requests.
    request: RequestShape { max_hops: 7, i_min: (8, 32), per_hop_delay: 6, sinks: &SINKS },
    be_rate: 0.000_2,
    tail: 2_000,
};

/// The seeded inputs of a workload, generated once per run.
pub enum Inputs {
    Static { shape: &'static StaticShape, requests: Vec<Request>, be: Vec<BeSend> },
    Churn { bystanders: Vec<Request>, arrivals: Vec<ChurnArrival>, be: Vec<BeSend> },
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        match workload {
            Workload::DenseMixed | Workload::SparseLarge => {
                let shape = if workload == Workload::DenseMixed { &DENSE } else { &SPARSE };
                let topo = Topology::mesh(shape.width, shape.height);
                let requests = (0..shape.requests)
                    .map(|k| inputs::request(&mut rng, &topo, shape.request, k))
                    .collect();
                let be = inputs::be_trace(&mut rng, &topo, shape.be_rate, shape.be_span);
                Inputs::Static { shape, requests, be }
            }
            Workload::LiveChurn => {
                let s = &CHURN;
                let topo = Topology::mesh(s.width, s.height);
                let bystanders = (0..s.bystanders)
                    .map(|k| inputs::request(&mut rng, &topo, s.bystander, k))
                    .collect();
                let arrivals = inputs::churn_schedule(
                    &mut rng,
                    &topo,
                    s.arrivals,
                    s.mean_gap,
                    s.mean_lifetime,
                    s.min_lifetime,
                    s.request,
                );
                let span = arrivals.last().map_or(0, |a| a.at);
                let be = inputs::be_trace(&mut rng, &topo, s.be_rate, span);
                Inputs::Churn { bystanders, arrivals, be }
            }
        }
    }

    /// Runs one round.
    pub fn round(&self, traced: bool) -> Round {
        match self {
            Inputs::Static { shape, requests, be } => static_round(shape, requests, be, traced),
            Inputs::Churn { bystanders, arrivals, be } => {
                churn_round(&CHURN, bystanders, arrivals, be, traced)
            }
        }
    }
}

fn channel_request(r: &Request) -> ChannelRequest {
    ChannelRequest::unicast(r.src, r.dst, TrafficSpec::periodic(r.i_min, 18), r.deadline)
}

/// Builds the mesh with one shared router template.
fn build(topo: &Topology, config: &RouterConfig) -> Sim {
    let template = RouterTemplate::new(config.clone()).expect("the default config is valid");
    let sim = Simulator::build(topo.clone(), |_| Ok::<_, Infallible>(template.build()))
        .expect("building from a template cannot fail");
    sim.phase_profiler().set_enabled(true);
    sim
}

/// A channel's packets as the benchmark plans them: one single-packet
/// message per period from `first_slot`, while the send cycle is before
/// `end`. Records each in the ledger and returns `(cycle, payload)`.
fn plan_train(
    ledger: &mut Ledger,
    r: &Request,
    first_slot: u64,
    end: u64,
    slot: u64,
) -> Vec<(u64, Vec<u8>)> {
    let mut train = Vec::new();
    let mut s = first_slot;
    while s * slot < end {
        let sent = Sent {
            class: Class::Tc,
            src: r.src,
            dst: r.dst,
            at: s * slot,
            deadline_slot: s + u64::from(r.deadline),
            len: 18,
            abortable: false,
        };
        train.push((s * slot, ledger.record(sent)));
        s += u64::from(r.i_min);
    }
    train
}

/// Turns a planned train into packets through the channel's sender.
fn make_train(
    channel: &EstablishedChannel,
    sim: &Sim,
    config: &RouterConfig,
    train: &[(u64, Vec<u8>)],
) -> Vec<(u64, TcPacket)> {
    let src = channel.request.source;
    let mut sender = ChannelSender::new(
        channel,
        sim.chip(src).clock(),
        config.slot_bytes,
        config.tc_data_bytes(),
    );
    let mut packets = Vec::with_capacity(train.len());
    for (at, payload) in train {
        packets.extend(sender.make_message(*at, payload).into_iter().map(|p| (*at, p)));
    }
    packets
}

fn be_packet(topo: &Topology, b: &BeSend, id: u64, payload: Vec<u8>) -> BePacket {
    let (x, y) = topo.be_offsets(b.src, b.dst);
    let trace = PacketTrace {
        source: b.src,
        destination: b.dst,
        sequence: id,
        injected_at: b.at,
        ..PacketTrace::default()
    };
    BePacket::new(x, y, payload, trace)
}

/// Per-node injection schedules, replayed through `InjectionTrace`.
struct NodeTraces {
    tc: Vec<Vec<(u64, TcPacket)>>,
    be: Vec<Vec<(u64, BePacket)>>,
}

impl NodeTraces {
    fn new(n: usize) -> Self {
        NodeTraces {
            tc: (0..n).map(|_| Vec::new()).collect(),
            be: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Attaches one replaying source per node that has traffic; returns
    /// the number of sources registered.
    fn attach(self, sim: &mut Sim) -> u64 {
        let mut sources = 0;
        for (node, (mut tc, be)) in self.tc.into_iter().zip(self.be).enumerate() {
            if tc.is_empty() && be.is_empty() {
                continue;
            }
            tc.sort_by_key(|(at, _)| *at);
            let mut trace = InjectionTrace::new();
            let mut be = be.into_iter().peekable();
            for (at, p) in tc {
                while let Some((_, b)) = be.next_if(|(b_at, _)| *b_at < at) {
                    trace.record_be(b.trace.injected_at, b);
                }
                trace.record_tc(at, p);
            }
            for (at, b) in be {
                trace.record_be(at, b);
            }
            sim.add_source(NodeId(node as u16), Box::new(trace.into_source()));
            sources += 1;
        }
        sources
    }
}

/// The benchmark's own check that admission never over-reserves a link:
/// for every link, the live channels' packets per period sum to at most 1.
#[derive(Default)]
struct Reservations {
    links: HashMap<(NodeId, usize), Vec<(u64, f64)>>,
    by_channel: HashMap<u64, Vec<(NodeId, usize)>>,
    max_channels: usize,
    max_sum: f64,
}

impl Reservations {
    fn admit(&mut self, channel: &EstablishedChannel, packets: u32) -> Result<(), String> {
        let share = f64::from(packets) / f64::from(channel.request.spec.i_min);
        let mut used = Vec::new();
        let mut result = Ok(());
        for hop in &channel.hops {
            for port in ports_in_mask(hop.out_mask) {
                let key = (hop.node, port.index());
                let live = self.links.entry(key).or_default();
                live.push((channel.id, share));
                self.max_channels = self.max_channels.max(live.len());
                let sum: f64 = live.iter().map(|(_, s)| s).sum();
                self.max_sum = self.max_sum.max(sum);
                if sum > 1.0 + 1e-9 && result.is_ok() {
                    result = Err(format!("link {key:?} reserved {sum:.4} packets per slot"));
                }
                used.push(key);
            }
        }
        self.by_channel.insert(channel.id, used);
        result
    }

    fn release(&mut self, id: u64) {
        for key in self.by_channel.remove(&id).unwrap_or_default() {
            if let Some(live) = self.links.get_mut(&key) {
                live.retain(|(c, _)| *c != id);
            }
        }
    }
}

/// One control call of a round, kept so the traced build can replay the
/// same decisions against `DeferredPlane` and time their parts.
enum Control {
    Establish(ChannelRequest, bool),
    Teardown(u64),
}

/// Replays `log` on a fresh manager and mesh: each establishment decided
/// against `DeferredPlane`, then its table writes applied through
/// `Simulator::chip_mut`. With `teardown_all`, then tears every channel
/// down through the simulator, timing each teardown.
fn probe(
    topo: &Topology,
    config: &RouterConfig,
    log: &[Control],
    teardown_all: bool,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut sim = build(topo, config);
    let mut manager = ChannelManager::new(config);
    for control in log {
        let mut plane = DeferredPlane::default();
        match control {
            Control::Establish(request, admitted) => {
                let mark = Mark::now();
                let decision = manager.establish(topo, request.clone(), &mut plane);
                layers.admission_us.push(Span::default().add(&mark) * 1e6);
                if decision.is_ok() != *admitted {
                    return Err("replayed admission decided differently".into());
                }
                let mark = Mark::now();
                for (node, cmd) in plane.commands {
                    sim.chip_mut(node).apply_control(cmd).map_err(|e| e.to_string())?;
                }
                if *admitted {
                    layers.program_us.push(Span::default().add(&mark) * 1e6);
                }
            }
            Control::Teardown(id) => {
                manager.teardown(*id, &mut plane).map_err(|e| e.to_string())?;
                for (node, cmd) in plane.commands {
                    sim.chip_mut(node).apply_control(cmd).map_err(|e| e.to_string())?;
                }
            }
        }
    }
    if teardown_all {
        let mut ids: Vec<u64> = manager.channels().keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let mark = Mark::now();
            manager.teardown(id, &mut sim).map_err(|e| e.to_string())?;
            layers.teardown_us.push(Span::default().add(&mark) * 1e6);
        }
    }
    Ok(())
}

/// Folds the event core's counters into `layers` (the core restarts its
/// counts whenever the simulator rebuilds it).
fn absorb_events(sim: &Sim, layers: &mut Layers) {
    if let Some(stats) = sim.event_core_stats() {
        stats.emit_counters(&mut |name, value| *layers.events.entry(name).or_insert(0) += value);
    }
}

/// Layer counters read from the finished simulator.
fn finish_layers(sim: &Sim, layers: &mut Layers, traced: bool) {
    absorb_events(sim, layers);
    layers.ticks = sim.ticks_executed();
    layers.control_ops_applied = sim.control_stats().ops_applied;
    for node in sim.topology().nodes() {
        let chip = sim.chip(node);
        layers.memory_high_water_max =
            layers.memory_high_water_max.max(chip.memory_high_water() as u64);
        rtr_types::chip::Chip::counters(chip, &mut |name, value| match name {
            "sched.key_computations" => layers.key_computations += value,
            "router.tc_transmitted" => layers.tc_transmitted += value,
            _ => {}
        });
    }
    if traced {
        layers.bytes_per_node_end = sim.bytes_per_node() as u64;
        for (name, value) in sim.metrics_snapshot().entries {
            if let rtr_metrics::MetricValue::Counter(v) = value {
                layers.registry.insert(name, v);
            }
        }
    }
}

fn outcome_of(verdict: &crate::ledger::Verdict, admitted: u64) -> Outcome {
    Outcome {
        tc_p50: nearest_rank(&verdict.tc_latencies, 0.50),
        tc_p99: nearest_rank(&verdict.tc_latencies, 0.99),
        be_p50: nearest_rank(&verdict.be_latencies, 0.50),
        be_p99: nearest_rank(&verdict.be_latencies, 0.99),
        channels_admitted: admitted,
        tc_delivered: verdict.tc_latencies.len() as u64,
        be_delivered: verdict.be_latencies.len() as u64,
        aborted: verdict.aborted,
    }
}

fn static_round(shape: &StaticShape, requests: &[Request], be: &[BeSend], traced: bool) -> Round {
    let config = RouterConfig::default();
    let slot = config.slot_bytes as u64;
    let topo = Topology::mesh(shape.width, shape.height);
    let mut layers = Layers::default();
    let mut failed = 0;
    let mut errors = Vec::new();

    // Set-up, part 1: build the mesh and admit the channels straight into it.
    let mut setup = Span::default();
    let mark = Mark::now();
    let mut sim = build(&topo, &config);
    layers.build_s = setup.add(&mark);
    if traced {
        layers.bytes_per_node_built = sim.bytes_per_node() as u64;
    }
    let mut manager = ChannelManager::new(&config);
    let mut admitted: Vec<(usize, EstablishedChannel)> = Vec::new();
    let mut log = Vec::new();
    for (k, r) in requests.iter().enumerate() {
        let request = channel_request(r);
        let copy = request.clone();
        let mark = Mark::now();
        let result = manager.establish(&topo, request, &mut sim);
        layers.establish_us.push(setup.add(&mark) * 1e6);
        log.push(Control::Establish(copy, result.is_ok()));
        match result {
            Ok(channel) => admitted.push((k, channel)),
            Err(EstablishError::Admission(_)) => layers.rejected += 1,
            Err(EstablishError::Control(_)) => failed += 1,
        }
    }

    // The benchmark's own plan of every packet (not timed).
    let mut ledger = Ledger::default();
    let mut reservations = Reservations::default();
    let mut trains = Vec::with_capacity(admitted.len());
    for (k, channel) in &admitted {
        let r = &requests[*k];
        let packets = channel.request.spec.packets_per_message(config.tc_data_bytes());
        if let Err(e) = reservations.admit(channel, packets) {
            errors.push(e);
        }
        let first_slot = 1 + inputs::mix(*k as u64) % u64::from(r.i_min);
        trains.push(plan_train(&mut ledger, r, first_slot, shape.span, slot));
    }
    let be_payloads: Vec<(usize, Vec<u8>)> = be
        .iter()
        .map(|b| {
            let sent = Sent {
                class: Class::Be,
                src: b.src,
                dst: b.dst,
                at: b.at,
                deadline_slot: 0,
                len: b.len,
                abortable: false,
            };
            (ledger.sent.len(), ledger.record(sent))
        })
        .collect();
    layers.reservations_per_link_max = reservations.max_channels as u64;
    layers.reserved_share_max = reservations.max_sum;

    // Set-up, part 2: make the packets and attach the sources.
    let mark = Mark::now();
    let mut traces = NodeTraces::new(topo.len());
    for ((_, channel), train) in admitted.iter().zip(&trains) {
        traces.tc[channel.request.source.index()].extend(make_train(channel, &sim, &config, train));
    }
    for (b, (id, payload)) in be.iter().zip(be_payloads) {
        traces.be[b.src.index()].push((b.at, be_packet(&topo, b, id as u64, payload)));
    }
    layers.sources_registered = traces.attach(&mut sim);
    setup.add(&mark);
    drop(trains);

    // Drive.
    let total = shape.span + shape.tail;
    let mut drive = Span::default();
    let mark = Mark::now();
    if shape.leaping {
        sim.run_leaping(total);
    } else {
        sim.run(total);
    }
    drive.add(&mark);

    let verdict = ledger.verify(&sim, slot);
    failed += verdict.failed + sim.control_stats().ops_rejected;
    errors.extend(verdict.errors.iter().cloned());
    finish_layers(&sim, &mut layers, traced);
    layers.table_writes = sim_table_writes(&admitted);
    let node_cycles = topo.len() as u64 * sim.now();
    drop(sim);
    if traced {
        if let Err(e) = probe(&topo, &config, &log, true, &mut layers) {
            errors.push(e);
        }
    }
    Round {
        setup,
        drive,
        node_cycles,
        outcome: outcome_of(&verdict, admitted.len() as u64),
        attempted: ledger.sent.len() as u64 + requests.len() as u64,
        failed,
        errors,
        layers,
    }
}

/// Table writes an offline establishment performs: one connection entry
/// per hop.
fn sim_table_writes(admitted: &[(usize, EstablishedChannel)]) -> u64 {
    admitted.iter().map(|(_, c)| c.hops.len() as u64).sum()
}

enum Action {
    Establish(usize),
    Teardown(u64, TeardownStyle),
}

fn churn_round(
    shape: &ChurnShape,
    bystanders: &[Request],
    arrivals: &[ChurnArrival],
    be: &[BeSend],
    traced: bool,
) -> Round {
    let config = RouterConfig::default();
    let slot = config.slot_bytes as u64;
    let topo = Topology::mesh(shape.width, shape.height);
    let span = arrivals.last().map_or(0, |a| a.at);
    let mut layers = Layers::default();
    let mut failed = 0;
    let mut errors = Vec::new();
    let mut ledger = Ledger::default();
    let mut reservations = Reservations::default();
    let mut log = Vec::new();
    let packets = TrafficSpec::periodic(8, 18).packets_per_message(config.tc_data_bytes());

    // Set-up: the mesh, the bystanders, and the BE trace.
    let mut setup = Span::default();
    let mark = Mark::now();
    let mut sim = build(&topo, &config);
    layers.build_s = setup.add(&mark);
    if traced {
        layers.bytes_per_node_built = sim.bytes_per_node() as u64;
    }
    let mut engine = SignalingEngine::new(&config);
    let mut traces = NodeTraces::new(topo.len());
    for r in bystanders {
        let request = channel_request(r);
        let copy = request.clone();
        let mark = Mark::now();
        let result = engine.request_establish(&topo, request, &mut sim);
        layers.establish_us.push(setup.add(&mark) * 1e6);
        log.push(Control::Establish(copy, result.is_ok()));
        let ticket = match result {
            Ok(ticket) => ticket,
            Err(EstablishError::Admission(_)) => {
                layers.rejected += 1;
                continue;
            }
            Err(EstablishError::Control(_)) => {
                failed += 1;
                continue;
            }
        };
        if let Err(e) = reservations.admit(&ticket.channel, packets) {
            errors.push(e);
        }
        let first_slot = ticket.ready_at / slot + 1;
        let train = plan_train(&mut ledger, r, first_slot, span, slot);
        let mark = Mark::now();
        traces.tc[r.src.index()].extend(make_train(&ticket.channel, &sim, &config, &train));
        setup.add(&mark);
    }
    let be_payloads: Vec<(usize, Vec<u8>)> = be
        .iter()
        .map(|b| {
            let sent = Sent {
                class: Class::Be,
                src: b.src,
                dst: b.dst,
                at: b.at,
                deadline_slot: 0,
                len: b.len,
                abortable: false,
            };
            (ledger.sent.len(), ledger.record(sent))
        })
        .collect();
    let mark = Mark::now();
    for (b, (id, payload)) in be.iter().zip(be_payloads) {
        traces.be[b.src.index()].push((b.at, be_packet(&topo, b, id as u64, payload)));
    }
    layers.sources_registered = traces.attach(&mut sim);
    setup.add(&mark);

    // Drive: establish and teardown requests at their scheduled cycles,
    // leaping in between.
    let mut drive = Span::default();
    let mut actions: Vec<Action> = Vec::new();
    let mut due: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, a) in arrivals.iter().enumerate() {
        due.push(Reverse((a.at, actions.len())));
        actions.push(Action::Establish(i));
    }
    let mut requests = bystanders.len() as u64;
    let mut last_clear = 0;
    while let Some(Reverse((at, index))) = due.pop() {
        let mark = Mark::now();
        if at > sim.now() {
            sim.run_leaping(at - sim.now());
        }
        drive.add(&mark);
        requests += 1;
        match actions[index] {
            Action::Establish(i) => {
                let a = &arrivals[i];
                let request = channel_request(&a.request);
                let copy = request.clone();
                let mark = Mark::now();
                let result = engine.request_establish(&topo, request, &mut sim);
                layers.establish_us.push(drive.add(&mark) * 1e6);
                log.push(Control::Establish(copy, result.is_ok()));
                let ticket = match result {
                    Ok(ticket) => ticket,
                    Err(EstablishError::Admission(_)) => {
                        layers.rejected += 1;
                        continue;
                    }
                    Err(EstablishError::Control(_)) => {
                        failed += 1;
                        continue;
                    }
                };
                if let Err(e) = reservations.admit(&ticket.channel, packets) {
                    errors.push(e);
                }
                let stop = (a.at + a.lifetime).max(ticket.ready_at + 1);
                let style = if i % 2 == 0 { TeardownStyle::Abort } else { TeardownStyle::Drain };
                due.push(Reverse((stop, actions.len())));
                actions.push(Action::Teardown(ticket.channel.id, style));
                // The last message leaves a full slot before the teardown
                // request.
                let first = ledger.sent.len();
                let train = plan_train(
                    &mut ledger,
                    &a.request,
                    ticket.ready_at / slot + 1,
                    stop - slot,
                    slot,
                );
                if style == TeardownStyle::Abort {
                    ledger.mark_abortable(first..ledger.sent.len());
                }
                if !train.is_empty() {
                    if traced {
                        absorb_events(&sim, &mut layers);
                    }
                    let mark = Mark::now();
                    let mut trace = InjectionTrace::new();
                    for (at, p) in make_train(&ticket.channel, &sim, &config, &train) {
                        trace.record_tc(at, p);
                    }
                    sim.add_source(a.request.src, Box::new(trace.into_source()));
                    drive.add(&mark);
                    layers.sources_registered += 1;
                }
            }
            Action::Teardown(id, style) => {
                let mark = Mark::now();
                let result = engine.request_teardown(id, style, &mut sim);
                layers.teardown_us.push(drive.add(&mark) * 1e6);
                log.push(Control::Teardown(id));
                reservations.release(id);
                match result {
                    Ok(ticket) => last_clear = last_clear.max(ticket.cleared_at),
                    Err(_) => failed += 1,
                }
            }
        }
    }
    let tail = last_clear.saturating_sub(sim.now()) + shape.tail;
    let mark = Mark::now();
    sim.run_leaping(tail);
    drive.add(&mark);

    let verdict = ledger.verify(&sim, slot);
    failed += verdict.failed + sim.control_stats().ops_rejected;
    errors.extend(verdict.errors.iter().cloned());
    finish_layers(&sim, &mut layers, traced);
    let stats = engine.stats();
    layers.table_writes = stats.table_writes;
    layers.reservations_per_link_max = reservations.max_channels as u64;
    layers.reserved_share_max = reservations.max_sum;
    let node_cycles = topo.len() as u64 * sim.now();
    drop(sim);
    if traced {
        if let Err(e) = probe(&topo, &config, &log, false, &mut layers) {
            errors.push(e);
        }
    }
    Round {
        setup,
        drive,
        node_cycles,
        outcome: outcome_of(&verdict, stats.establish_accepted),
        attempted: ledger.sent.len() as u64 + requests,
        failed,
        errors,
        layers,
    }
}
