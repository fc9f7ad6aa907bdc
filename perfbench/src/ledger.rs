//! The benchmark's own account of every packet it generated, and the
//! independent checks run against the simulator's delivery logs.
//!
//! Each payload encodes the packet's ledger index and its source, followed
//! by bytes derived from the index, so a delivery is matched to what was
//! sent without trusting any field the simulator writes.

use rtr_core::RealTimeRouter;
use rtr_mesh::Simulator;
use rtr_types::ids::NodeId;

use crate::inputs::mix;

/// Traffic class of a ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Tc,
    Be,
}

/// One generated packet.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub class: Class,
    pub src: NodeId,
    pub dst: NodeId,
    /// Injection cycle.
    pub at: u64,
    /// Last slot a TC packet may be delivered in: its send slot plus the
    /// request's `D`. Unused for BE.
    pub deadline_slot: u64,
    pub len: u8,
    /// Torn down by an `Abort` teardown: an undelivered packet is a
    /// ledgered loss, not a failure.
    pub abortable: bool,
}

/// Every generated packet, indexed by the id its payload carries.
#[derive(Debug, Default)]
pub struct Ledger {
    pub sent: Vec<Sent>,
}

/// What the checks found in one round.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Packets whose delivery failed: late, missing, misdelivered,
    /// corrupted or duplicated.
    pub failed: u64,
    /// Abortable TC packets never delivered.
    pub aborted: u64,
    /// Latencies (cycles, injection to delivery) of delivered packets.
    pub tc_latencies: Vec<u64>,
    pub be_latencies: Vec<u64>,
    /// Problems with the run as a whole (a broken ledger), not with single
    /// operations.
    pub errors: Vec<String>,
}

impl Ledger {
    /// Records a packet and returns its payload.
    pub fn record(&mut self, sent: Sent) -> Vec<u8> {
        let id = self.sent.len() as u32;
        self.sent.push(sent);
        payload(id, sent.src, sent.len)
    }

    /// Marks packets `range` as abortable.
    pub fn mark_abortable(&mut self, range: std::ops::Range<usize>) {
        for s in &mut self.sent[range] {
            s.abortable = true;
        }
    }

    /// Matches every delivery in `sim` against the ledger.
    pub fn verify(&self, sim: &Simulator<RealTimeRouter>, slot_bytes: u64) -> Verdict {
        let mut verdict = Verdict::default();
        let mut delivered = vec![false; self.sent.len()];
        for node in sim.topology().nodes() {
            let log = sim.log(node);
            let tc = log.tc.iter().map(|(c, p)| (Class::Tc, *c, p.payload.as_slice()));
            let be = log.be.iter().map(|(c, p)| (Class::Be, *c, p.payload.as_slice()));
            for (class, cycle, bytes) in tc.chain(be) {
                let Some(id) = decode(bytes) else {
                    verdict.failed += 1;
                    continue;
                };
                let Some(sent) = self.sent.get(id) else {
                    verdict.failed += 1;
                    continue;
                };
                let intact = sent.class == class
                    && sent.dst == node
                    && bytes == payload(id as u32, sent.src, sent.len).as_slice();
                if !intact || delivered[id] || cycle < sent.at {
                    verdict.failed += 1;
                    continue;
                }
                delivered[id] = true;
                let latency = cycle - sent.at;
                match class {
                    Class::Tc if cycle / slot_bytes > sent.deadline_slot => verdict.failed += 1,
                    Class::Tc => verdict.tc_latencies.push(latency),
                    Class::Be => verdict.be_latencies.push(latency),
                }
            }
        }
        for (sent, done) in self.sent.iter().zip(&delivered) {
            if !done {
                if sent.abortable {
                    verdict.aborted += 1;
                } else {
                    verdict.failed += 1;
                }
            }
        }
        let ledgered: u64 =
            sim.topology().nodes().map(|n| sim.chip(n).stats().tc_aborted_teardown).sum();
        if ledgered != verdict.aborted {
            verdict.errors.push(format!(
                "{} abortable packets undelivered, routers ledgered {ledgered} teardown aborts",
                verdict.aborted
            ));
        }
        if let Err(e) = sim.check_conservation() {
            verdict.errors.push(format!("conservation: {e}"));
        }
        verdict.tc_latencies.sort_unstable();
        verdict.be_latencies.sort_unstable();
        verdict
    }
}

/// The payload of packet `id`: the id and source, then bytes derived from
/// the id, `len` bytes in all (at least 6).
fn payload(id: u32, src: NodeId, len: u8) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(usize::from(len));
    bytes.extend_from_slice(&id.to_le_bytes());
    bytes.extend_from_slice(&src.0.to_le_bytes());
    let mut k = 0u64;
    while bytes.len() < usize::from(len) {
        let word = mix(u64::from(id) << 8 | k).to_le_bytes();
        let take = (usize::from(len) - bytes.len()).min(8);
        bytes.extend_from_slice(&word[..take]);
        k += 1;
    }
    bytes
}

fn decode(bytes: &[u8]) -> Option<usize> {
    let id = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
    Some(id as usize)
}

/// Nearest-rank percentile of sorted samples (`p` in `(0, 1]`); the
/// default value when there are none.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
