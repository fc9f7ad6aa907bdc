//! Seeded input generation: channel requests, best-effort traces and the
//! churn schedule. Everything here is a pure function of the seed and the
//! workload's fixed shape; the simulator only ever sees these values.

use rtr_mesh::Topology;
use rtr_types::ids::NodeId;

/// SplitMix64: a small, well-mixed generator owned by the benchmark, so
/// the inputs for a seed never change with the repository's crates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_BE4C_4A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// The SplitMix64 finaliser, also used to derive payload bytes.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One time-constrained channel request: endpoints, period `I_min` and
/// end-to-end deadline `D`, both in slots.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub src: NodeId,
    pub dst: NodeId,
    pub i_min: u32,
    pub deadline: u32,
}

/// Shape of a batch of channel requests.
#[derive(Debug, Clone, Copy)]
pub struct RequestShape {
    /// Route lengths cycle through `1..=max_hops` over the batch.
    pub max_hops: u16,
    pub i_min: (u32, u32),
    /// The per-hop delay budget `d`, in slots.
    pub per_hop_delay: u32,
    /// Destinations to choose among, as mesh coordinates; empty for any
    /// node.
    pub sinks: &'static [(u16, u16)],
}

/// The `k`-th request of a batch: a destination exactly
/// `1 + k mod max_hops` hops from a uniformly chosen source (or a source
/// that far from a randomly chosen sink), a random period, and
/// `D = (hops + 1) · d`.
///
/// TC latency follows the route length (packets are held at each hop until
/// their local deadline), so cycling the route lengths and fixing `d` makes
/// the latency percentiles a property of the workload's shape rather than
/// of the seed; the seed still places every channel.
pub fn request(rng: &mut Rng, topo: &Topology, shape: RequestShape, k: usize) -> Request {
    let hops = 1 + (k % usize::from(shape.max_hops)) as i64;
    let (w, h) = (i64::from(topo.width()), i64::from(topo.height()));
    let (src, dst) = loop {
        let anchor = match shape.sinks.len() {
            0 => NodeId(rng.range(0, topo.len() as u64 - 1) as u16),
            n => {
                let (x, y) = shape.sinks[rng.range(0, n as u64 - 1) as usize];
                topo.node_at(x, y)
            }
        };
        let (ax, ay) = topo.coords(anchor);
        let dx = rng.range(0, 2 * hops as u64) as i64 - hops;
        let dy = (hops - dx.abs()) * if rng.next_u64() & 1 == 0 { 1 } else { -1 };
        let (x, y) = (i64::from(ax) + dx, i64::from(ay) + dy);
        if (0..w).contains(&x) && (0..h).contains(&y) {
            let other = topo.node_at(x as u16, y as u16);
            break if shape.sinks.is_empty() { (anchor, other) } else { (other, anchor) };
        }
    };
    let i_min = rng.range(u64::from(shape.i_min.0), u64::from(shape.i_min.1)) as u32;
    Request { src, dst, i_min, deadline: (hops as u32 + 1) * shape.per_hop_delay }
}

/// One best-effort packet of a trace.
#[derive(Debug, Clone, Copy)]
pub struct BeSend {
    pub at: u64,
    pub src: NodeId,
    pub dst: NodeId,
    pub len: u8,
}

/// A Poisson best-effort trace: each node injects at `rate` packets per
/// cycle during `0..span`, to uniformly chosen other nodes, with payloads
/// of 8 to 48 bytes. Sorted by cycle, then node.
pub fn be_trace(rng: &mut Rng, topo: &Topology, rate: f64, span: u64) -> Vec<BeSend> {
    let n = topo.len() as u64;
    let mut sends = Vec::new();
    for node in topo.nodes() {
        let mut t = rng.exp(1.0 / rate);
        while (t as u64) < span {
            let dst = loop {
                let d = NodeId(rng.range(0, n - 1) as u16);
                if d != node {
                    break d;
                }
            };
            let len = rng.range(8, 48) as u8;
            sends.push(BeSend { at: t as u64, src: node, dst, len });
            t += rng.exp(1.0 / rate);
        }
    }
    sends.sort_by_key(|s| (s.at, s.src.0));
    sends
}

/// One churned channel: its request, when it is asked for, and how long
/// after that its teardown is requested (both in cycles).
#[derive(Debug, Clone, Copy)]
pub struct ChurnArrival {
    pub at: u64,
    pub lifetime: u64,
    pub request: Request,
}

/// A Poisson churn schedule of `count` establish requests.
pub fn churn_schedule(
    rng: &mut Rng,
    topo: &Topology,
    count: usize,
    mean_gap: f64,
    mean_lifetime: f64,
    min_lifetime: u64,
    shape: RequestShape,
) -> Vec<ChurnArrival> {
    let mut t = 0.0;
    (0..count)
        .map(|k| {
            t += rng.exp(mean_gap);
            let lifetime = (rng.exp(mean_lifetime) as u64).max(min_lifetime);
            ChurnArrival { at: t as u64 + 1, lifetime, request: request(rng, topo, shape, k) }
        })
        .collect()
}
