//! One benchmark run: `perfbench --workload <name> --seed <n> --seconds <s>`.
//!
//! Repeats whole rounds of the workload (set-up, drive, checks) until the
//! time is spent, then prints one JSON line: whether every check passed,
//! the operations attempted and failed, and every metric with its unit.
//! The untraced build prints the end-to-end metrics; the traced build
//! (`--features traced`) adds the per-layer ones.

mod inputs;
mod ledger;
mod meter;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use workloads::{Inputs, Round, Workload};

const TRACED: bool = cfg!(feature = "traced");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    })
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(mut values: Vec<f64>, p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    ledger::nearest_rank(&values, p)
}

/// The metrics of a finished run, in print order.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

fn end_to_end(rounds: &[Round], report: &mut Report) {
    let first = &rounds[0];
    report.put("setup_s", median(rounds.iter().map(|r| r.setup.secs).collect()), "s");
    let rates = rounds.iter().map(|r| r.node_cycles as f64 / r.drive.secs).collect();
    report.put("node_cycles_per_s", median(rates), "1/s");
    report.put("peak_rss_mib", meter::peak_rss_mib(), "MiB");
    let o = &first.outcome;
    report.put("tc_latency_p50_cycles", o.tc_p50 as f64, "cycles");
    report.put("tc_latency_p99_cycles", o.tc_p99 as f64, "cycles");
    report.put("be_latency_p50_cycles", o.be_p50 as f64, "cycles");
    report.put("be_latency_p99_cycles", o.be_p99 as f64, "cycles");
    report.put("channels_admitted", o.channels_admitted as f64, "count");
}

fn per_layer(rounds: &[Round], report: &mut Report) {
    let first = &rounds[0];
    let l = &first.layers;
    let med = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let registry = |name: &str| l.registry.get(name).copied().unwrap_or(0) as f64;
    let events = |name: &str| l.events.get(name).copied().unwrap_or(0) as f64;

    report.put("mesh.build_s", med(&|r| r.layers.build_s), "s");
    report.put("mesh.bytes_per_node_built", l.bytes_per_node_built as f64, "B");
    report.put("mesh.bytes_per_node_end", l.bytes_per_node_end as f64, "B");

    let establish = pooled(&|r| &r.layers.establish_us);
    report.put("channels.establish_us_p50", percentile(establish.clone(), 0.50), "us");
    report.put("channels.establish_us_p99", percentile(establish, 0.99), "us");
    report.put(
        "channels.admission_us_p50",
        percentile(pooled(&|r| &r.layers.admission_us), 0.5),
        "us",
    );
    report.put("channels.program_us_p50", percentile(pooled(&|r| &r.layers.program_us), 0.5), "us");
    report.put(
        "channels.teardown_us_p50",
        percentile(pooled(&|r| &r.layers.teardown_us), 0.5),
        "us",
    );
    report.put("channels.rejected", l.rejected as f64, "count");
    report.put("channels.table_writes", l.table_writes as f64, "count");
    report.put("channels.reservations_per_link_max", l.reservations_per_link_max as f64, "count");

    report.put("mesh.drive_s", med(&|r| r.drive.secs), "s");
    report.put("mesh.ticks_per_node_cycle", l.ticks as f64 / first.node_cycles as f64, "ratio");
    report.put(
        "mesh.host_ns_per_tick",
        med(&|r| r.drive.secs * 1e9 / r.layers.ticks.max(1) as f64),
        "ns",
    );
    report.put("mesh.leaps", registry("sim.leaps"), "count");
    report.put("mesh.stale_repolls", registry("sim.stale_repolls"), "count");
    report.put("mesh.control_ops_applied", l.control_ops_applied as f64, "count");
    report.put("mesh.sources_registered", l.sources_registered as f64, "count");
    for phase in
        ["link_pre", "serial_tick", "link_post", "wheel_pop", "repoll", "leap_plan", "leap_apply"]
    {
        let key = format!("profile.{phase}.ns");
        let secs = med(&|r| r.layers.registry.get(&key).copied().unwrap_or(0) as f64 / 1e9);
        report.put(&format!("phase.{phase}_s"), secs, "s");
    }

    for name in ["filed", "fired", "cascaded", "stale_discarded"] {
        report.put(&format!("events.{name}"), events(&format!("queue.{name}")), "count");
    }
    report.put("wake.polls", registry("wake.polls"), "count");
    report.put("wake.short_polls", registry("wake.short_polls"), "count");

    report.put("router.key_computations", l.key_computations as f64, "count");
    report.put("router.tc_transmitted", l.tc_transmitted as f64, "count");
    report.put("router.memory_high_water_max", l.memory_high_water_max as f64, "count");

    report.put("alloc.setup_count", med(&|r| r.setup.allocs as f64), "count");
    report.put(
        "alloc.drive_count_per_mnode_cycle",
        med(&|r| r.drive.allocs as f64 * 1e6 / r.node_cycles as f64),
        "count",
    );
    report.put("alloc.drive_bytes", med(&|r| r.drive.bytes as f64), "B");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload dense_mixed|sparse_large|live_churn \
                 --seed N --seconds S"
            );
            std::process::exit(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < budget {
        rounds.push(inputs.round(TRACED));
    }

    let mut correct = true;
    for (i, round) in rounds.iter().enumerate() {
        for e in &round.errors {
            eprintln!("perfbench: round {i}: {e}");
            correct = false;
        }
        if round.outcome != rounds[0].outcome {
            eprintln!(
                "perfbench: round {i} simulated {:?}, round 0 {:?}",
                round.outcome, rounds[0].outcome
            );
            correct = false;
        }
    }
    // At least 1 000 samples per class, so that p99 has ten beyond it.
    let o = &rounds[0].outcome;
    if o.tc_delivered < 1000 || o.be_delivered < 1000 {
        eprintln!("perfbench: too few deliveries for a p99: {o:?}");
        correct = false;
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    eprintln!(
        "perfbench: {} rounds, {} node-cycles each, outcome {:?}",
        rounds.len(),
        rounds[0].node_cycles,
        rounds[0].outcome
    );
    let rates: Vec<String> =
        rounds.iter().map(|r| format!("{:.4e}", r.node_cycles as f64 / r.drive.secs)).collect();
    let setups: Vec<String> = rounds.iter().map(|r| format!("{:.4e}", r.setup.secs)).collect();
    eprintln!(
        "perfbench: largest reserved packets per slot on a link {:.4}",
        rounds[0].layers.reserved_share_max
    );
    eprintln!("perfbench: node-cycles/s per round [{}]", rates.join(", "));
    eprintln!("perfbench: set-up s per round [{}]", setups.join(", "));

    let mut report = Report { metrics: Vec::new() };
    end_to_end(&rounds, &mut report);
    if TRACED {
        per_layer(&rounds, &mut report);
    }
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    println!("{line}");
}
