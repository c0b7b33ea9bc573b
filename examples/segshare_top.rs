//! `segshare_top`: a live text dashboard over the introspection
//! substrate.
//!
//! Drives a mixed workload (hot-path contention, membership churn,
//! disjoint traffic) against an in-memory server and, a few times per
//! second, prints windowed rates from `Snapshot::delta` — requests/s
//! and p95 per operation, lock wait attributed by key class — plus the
//! front end's gauges, and reads everything else from one
//! `introspect()` report: saturation, the health verdict, the heaviest
//! tenants, and the most contended lock stripes. Ends by checking that
//! report.
//!
//! Run with: `cargo run --release --example segshare_top`
//!
//! Everything printed crossed a sanctioned declassification point:
//! compiled-in metric names, aggregate values, keyed fingerprints.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use seg_obs::Snapshot;
use segshare::{EnclaveConfig, FsoSetup, HealthOptions};

/// Dashboard refresh interval.
const TICK: Duration = Duration::from_millis(450);
/// How long the demo runs.
const RUN_FOR: Duration = Duration::from_secs(3);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = EnclaveConfig {
        cache: true,
        // Fast enough that the dashboard sees whole scrub passes.
        scrub_interval_us: 100_000,
        ..EnclaveConfig::default()
    };
    let setup = FsoSetup::new_in_memory("top-ca", config);
    let server = setup.server()?;
    let alice = setup.enroll_user("alice", "a@x", "Alice")?;
    for i in 0..3 {
        setup.enroll_user(&format!("m{i}"), &format!("m{i}@x"), "M")?;
    }
    // The health plane runs alongside the workload: SLO rollups,
    // the integrity scrubber, and a loopback canary probe.
    let canary = setup.enroll_user("canary", "c@x", "Canary")?;
    server.start_health(HealthOptions {
        canary: Some(canary),
        tick_us: 10_000,
        canary_interval_us: 200_000,
    });
    {
        let mut c = server.connect_local(&alice)?;
        c.mkdir("/hot")?;
        c.mkdir("/cold")?;
        c.put("/hot/doc", b"seed")?;
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| -> Result<(), Box<dyn std::error::Error>> {
        // Two writers overwriting ONE file: path-class write contention.
        for t in 0..2usize {
            let mut c = server.connect_local(&alice)?;
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let _ = c.put("/hot/doc", format!("w{t}:{i}").as_bytes());
                    i += 1;
                }
            });
        }
        // Membership churn: group-list / member class traffic.
        {
            let mut c = server.connect_local(&alice)?;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..3 {
                        let name = format!("m{i}");
                        let _ = c.add_user(&name, "team");
                        let _ = c.remove_user(&name, "team");
                    }
                }
            });
        }
        // Disjoint reader/writer: the uncontended baseline.
        {
            let mut c = server.connect_local(&alice)?;
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let p = format!("/cold/f{}", i % 8);
                    let _ = c.put(&p, b"cold body");
                    let _ = c.get(&p);
                    i += 1;
                }
            });
        }

        let started = Instant::now();
        let mut prev = server.metrics_snapshot();
        while started.elapsed() < RUN_FOR {
            std::thread::sleep(TICK);
            let snap = server.metrics_snapshot();
            let win = snap.delta(&prev);
            print_window(&server, &snap, &win, TICK);
            prev = snap;
        }
        stop.store(true, Ordering::Relaxed);
        Ok(())
    })?;
    server.stop_health();

    // The final report: the same document the stall watchdog stores.
    // A clean mixed workload must scrub clean, every request must be
    // attributed, and no operand from the workload above may appear.
    let doc = server.introspect();
    let health = field(&doc, "health");
    let attributed = field(field(&doc, "attribution"), "samples");
    println!("--- introspection report ---");
    println!(
        "  {} bytes; stalls {}; health {}, scrub passes {}; {attributed} requests attributed",
        doc.len(),
        field(&doc, "stalls"),
        field(health, "state"),
        field(field(health, "scrub"), "passes"),
    );
    // `failing` latches exactly when the scrubber has a finding.
    assert_ne!(
        field(health, "state"),
        "\"failing\"",
        "clean workload scrubs clean"
    );
    assert_ne!(attributed, "0", "workload was attributed");
    for section in [
        "saturation",
        "stalls",
        "locks",
        "history",
        "attribution",
        "health",
        "trace_tail",
        "slow_requests",
        "profile",
    ] {
        assert!(!field(&doc, section).is_empty(), "report missing {section}");
    }
    for operand in ["hot", "cold", "alice", "team"] {
        assert!(
            !doc.contains(operand),
            "report carries the operand {operand:?}"
        );
    }
    println!("  (checked: report complete, clean scrub, requests attributed, no request content)");
    Ok(())
}

/// The raw JSON value of the first `"key":` in `doc` — a number, a
/// string (quotes kept), or a balanced object/array; empty if absent.
/// Enough to read the introspection report's fixed layout.
fn field<'a>(doc: &'a str, key: &str) -> &'a str {
    let Some(at) = doc.find(&format!("\"{key}\":")) else {
        return "";
    };
    let rest = &doc[at + key.len() + 3..];
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    for (i, c) in rest.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => in_str = !in_str,
            _ if in_str => {}
            '{' | '[' => depth += 1,
            '}' | ']' if depth <= 1 => return &rest[..i + depth],
            '}' | ']' => depth -= 1,
            ',' | '\n' if depth == 0 => return &rest[..i],
            _ => {}
        }
    }
    rest
}

/// Prints one dashboard frame: windowed rates from the snapshot delta,
/// front-end gauges from the snapshot, the rest from `introspect()`.
fn print_window(
    server: &segshare::SegShareServer,
    snap: &Snapshot,
    win: &Snapshot,
    tick: Duration,
) {
    let secs = tick.as_secs_f64();
    println!("── segshare top ─────────────────────────────────────────");

    // Request rates and windowed p95 per operation.
    println!("  {:<14} {:>8} {:>10}", "op", "req/s", "p95");
    for (id, count) in &win.counters {
        if id.name() != "seg_requests_total" || *count == 0 {
            continue;
        }
        let op = id.labels().first().map_or("?", |&(_, v)| v);
        let p95 = win
            .histogram(&format!("seg_request_latency_ns{{op=\"{op}\"}}"))
            .map_or(0, |h| h.p95);
        println!(
            "  {op:<14} {:>8.0} {:>8.2}ms",
            *count as f64 / secs,
            p95 as f64 / 1e6
        );
    }

    // Lock wait attributed by key class (window totals).
    println!("  lock wait (window):");
    for class in ["path", "group_root", "group_list", "member"] {
        let mut parts = Vec::new();
        for intent in ["read", "write"] {
            if let Some(h) = win.histogram(&format!(
                "seg_lock_wait_ns{{class=\"{class}\",intent=\"{intent}\"}}"
            )) {
                if h.count > 0 {
                    parts.push(format!("{intent} {:.2}ms/{}", h.sum as f64 / 1e6, h.count));
                }
            }
        }
        if !parts.is_empty() {
            println!("    {class:<11} {}", parts.join("  "));
        }
    }

    // Saturation levels, from the report.
    let doc = server.introspect();
    let sat = field(&doc, "saturation");
    let locks = field(&doc, "locks");
    println!(
        "  sessions {}  in-flight {}  backlog {}  queued {} B  global held {} µs",
        field(sat, "live_sessions"),
        field(sat, "in_flight"),
        field(sat, "accept_backlog"),
        field(sat, "queued_bytes"),
        field(locks, "global_held_us"),
    );

    // Front end: the reactor's per-state connection gauges, dispatch
    // queue depth, and the lifecycle counters operators alert on.
    // Absent under the threaded front end.
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0);
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    if snap.gauge("seg_net_dispatch_depth").is_some() {
        let conns = |state: &str| gauge(&format!("seg_net_conns{{state=\"{state}\"}}"));
        println!(
            "  front end: hs {}  streaming {}  draining {}  dispatch q {}",
            conns("handshaking"),
            conns("streaming"),
            conns("draining"),
            gauge("seg_net_dispatch_depth"),
        );
        println!(
            "  front end: accepted {}  closed {}  shed {}  idle-reaped {}  outq {} B",
            counter("seg_net_conns_accepted_total"),
            counter("seg_net_conns_closed_total"),
            counter("seg_net_sheds_total"),
            counter("seg_net_conns_reaped_idle_total"),
            gauge("seg_net_outq_bytes"),
        );
    }

    // Health verdict, scrub progress, canary round-trips, and firing
    // SLO burn-rate alerts.
    let health = field(&doc, "health");
    let canary = field(health, "canary");
    println!(
        "  health {}  scrub passes {}  canary {} probes / {} failed  slo active {}",
        field(health, "state").trim_matches('"'),
        field(field(health, "scrub"), "passes"),
        field(canary, "probes"),
        field(canary, "failures"),
        field(field(health, "alerts"), "active"),
    );

    // Tenants: the heaviest keys per attribution axis (op estimates;
    // keys are keyed fingerprints, `~err` marks a slot's SpaceSaving
    // over-count bound).
    let attribution = field(&doc, "attribution");
    println!(
        "  tenants ({} requests attributed):",
        field(attribution, "samples")
    );
    for (label, axis) in [
        ("talkers", "principals"),
        ("groups", "groups"),
        ("prefixes", "prefixes"),
        ("objects", "objects"),
    ] {
        let top: Vec<String> = field(field(attribution, axis), "top")
            .split("{\"fp\":")
            .skip(1)
            .take(3)
            .map(|slot| match field(slot, "err") {
                "0" => format!("{} {}op", &slot[1..17], field(slot, "ops_est")),
                err => format!("{} {}op~{err}", &slot[1..17], field(slot, "ops_est")),
            })
            .collect();
        if !top.is_empty() {
            println!("    {label:<9} {}", top.join("  "));
        }
    }

    // The most contended lock stripes since launch.
    let stripes: Vec<String> = field(locks, "top_stripes")
        .split("{\"stripe\":")
        .skip(1)
        .take(3)
        .map(|row| {
            let wait_ns: f64 = field(row, "wait_ns").parse().unwrap_or(0.0);
            let stripe = row.split(',').next().unwrap_or("?");
            format!("#{stripe} {:.2}ms/{}", wait_ns / 1e6, field(row, "waits"))
        })
        .collect();
    if !stripes.is_empty() {
        println!("  hot stripes: {}", stripes.join("  "));
    }
}
