//! Real networking: the SeGShare server listening on a TCP socket and a
//! client connecting over localhost — the same deployment shape as the
//! paper's WebDAV prototype, with the untrusted host accepting TCP and
//! the enclave terminating TLS (§IV-B).
//!
//! Run with: `cargo run --release --example tcp_server`
//!
//! Pass `--introspect` to run the background health runner (history
//! sampler, integrity scrubber, loopback canary) alongside the demo,
//! then print the Prometheus exposition, the audit-chain verification
//! result, and the one introspection report (saturation, stalls, lock
//! top-K, history, attribution, health verdict, trace tail, slow log,
//! profile), checking that every section is present, the server is
//! healthy, the demo principals are attributed, and no request operand
//! appears. Pass `--store wal:<dir>` to back the server with the
//! crash-consistent write-ahead-logged store (group commit on) instead
//! of in-memory stores — data in `<dir>` survives server restarts — and
//! `--threaded` to serve connections on the legacy thread-per-connection
//! front end instead of the event-driven reactor (`--reactor`, the
//! default: one epoll loop plus a bounded enclave worker pool; see
//! OPERATIONS.md for tuning and the `seg_net_conns` state gauges).

use std::net::TcpListener;
use std::sync::Arc;

use seg_net::TcpTransport;
use seg_obs::meter::Axis;
use segshare::{Client, EnclaveConfig, FsoSetup, HealthOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let introspect = std::env::args().any(|a| a == "--introspect");
    // Front end: the reactor is the default; `--threaded` (or
    // SEGSHARE_FRONTEND=threaded, which CI's matrix uses) selects the
    // seed-era thread-per-connection loop. `--reactor` forces the
    // default explicitly.
    let threaded = !std::env::args().any(|a| a == "--reactor")
        && (std::env::args().any(|a| a == "--threaded")
            || std::env::var("SEGSHARE_FRONTEND").as_deref() == Ok("threaded"));
    let store = std::env::args()
        .skip_while(|a| a != "--store")
        .nth(1)
        .unwrap_or_else(|| "mem".to_string());
    // Cache on: the Prometheus exposition below then includes the
    // seg_cache_* counter family alongside the request/store metrics.
    // An aggressive scrub cadence lets `--introspect` complete full
    // integrity passes within the demo's lifetime.
    let config = EnclaveConfig {
        cache: true,
        scrub_interval_us: if introspect { 10_000 } else { 1_000_000 },
        // Durable backend: batch requests so one client request is one
        // group-committed (singly-fsynced) WAL frame.
        batch: store.starts_with("wal:"),
        ..EnclaveConfig::default()
    };
    let setup = if let Some(dir) = store.strip_prefix("wal:") {
        println!("using WAL store in {dir} (group commit on)");
        // A fixed deployment seed stands in for persistent CA/machine
        // identity, so a later run over the same directory can unseal
        // this run's keys and recover its state.
        FsoSetup::new_wal_persistent("ca", config, dir, 42)?
    } else {
        FsoSetup::new_in_memory("ca", config)
    };
    let server = Arc::new(setup.server()?);
    let alice = setup.enroll_user("alice", "a@x", "Alice")?;
    if introspect {
        let canary = setup.enroll_user("canary", "canary@x", "Canary")?;
        server.start_health(HealthOptions {
            canary: Some(canary),
            tick_us: 5_000,
            canary_interval_us: 50_000,
        });
    }

    // The untrusted host terminates TCP. Default: the reactor front
    // end — one epoll event loop owns every socket and a bounded
    // worker pool pumps opaque TLS frames into the enclave. Legacy:
    // one session thread per accepted connection.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    println!(
        "segshare server listening on {addr} ({} front end)",
        if threaded { "threaded" } else { "reactor" }
    );
    if threaded {
        server.set_front_end(segshare::FrontEnd::Threaded);
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // The accept loop feeds the saturation backlog
                // gauge; the session's serve loop dequeues it.
                server.enclave().watch().accept_queued();
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let _ = server.handle_connection(TcpTransport::new(stream));
                });
            }
        });
    } else {
        server.set_front_end(segshare::FrontEnd::Reactor);
        server.serve_listener(listener)?;
    }

    // A client across the (local) network.
    let transport = TcpTransport::connect(&addr.to_string())?;
    let mut c = Client::connect(transport, &alice)?;
    if let Err(e) = c.mkdir("/over-tcp") {
        // A durable backend recovers earlier runs' state, so the
        // directory may already exist.
        if !store.starts_with("wal:") {
            return Err(e.into());
        }
        println!("recovered /over-tcp from a previous run");
    }
    let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 256) as u8).collect();
    let start = std::time::Instant::now();
    c.put("/over-tcp/megabyte.bin", &payload)?;
    let up = start.elapsed();
    let start = std::time::Instant::now();
    let downloaded = c.get("/over-tcp/megabyte.bin")?;
    let down = start.elapsed();
    assert_eq!(downloaded, payload);
    println!(
        "uploaded 1 MB in {up:?}, downloaded in {down:?} (localhost, full TLS + enclave path)"
    );

    for entry in c.list("/over-tcp")? {
        println!("  {} {}", if entry.is_dir { "d" } else { "-" }, entry.name);
    }

    if introspect {
        println!("\n--- metrics snapshot ---");
        print!("{}", server.metrics_snapshot().to_prometheus());
        match server.audit_verify() {
            Ok(n) => println!("audit chain verified: {n} records"),
            Err(e) => println!("audit chain FAILED verification: {e}"),
        }
        // Let the background runner finish at least one full scrub
        // pass and a few canary probes over the idle server.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let h = server.enclave().health();
            if h.scrub_passes() >= 1 && h.canary_probes() >= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "health runner made no progress"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        server.stop_health();
        let report = server.introspect();
        println!("\n--- introspection report ---");
        println!("{report}");
        // The report is the widest export the server offers; check it
        // is complete and honors the trust boundary: compiled-in names,
        // counters and fingerprints — never request operands.
        for section in [
            "\"saturation\"",
            "\"stalls\"",
            "\"locks\"",
            "\"history\"",
            "\"attribution\"",
            "\"health\"",
            "\"trace_tail\"",
            "\"slow_requests\"",
            "\"profile\"",
        ] {
            assert!(report.contains(section), "report missing {section}");
        }
        assert!(
            !report.contains("over-tcp") && !report.contains("alice"),
            "the introspection report must never carry request operands"
        );
        assert!(
            report.contains("\"state\":\"healthy\""),
            "an untampered demo server is healthy"
        );
        // The demo traffic ran as one principal plus the canary; the
        // sketch must have attributed exactly those talkers.
        let talkers = server.enclave().meter().stats(Axis::Principal).tracked;
        assert_eq!(
            talkers, 2,
            "the demo principals must be tracked, nothing else"
        );
        println!("  (checked: report complete, server healthy, principals attributed, no request content)");
    }
    Ok(())
}
