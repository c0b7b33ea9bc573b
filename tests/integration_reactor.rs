//! Connection-lifecycle edges of the event-driven reactor front end.
//!
//! The reactor replaces the thread-per-connection loop, so these tests
//! pin down exactly the behaviors that differ structurally between the
//! two front ends: partial frames dribbling in (slowloris), peers
//! vanishing mid-handshake, idle connections being reaped by the timer
//! wheel, bounded outbound queues under streaming downloads, accept
//! shedding at the connection cap — and, above all, that a client
//! cannot tell the front ends apart (the equivalence test runs one
//! workload against both and compares every observable outcome).
//!
//! The rest of the integration suite runs against the reactor too: it
//! is the default front end, and CI's matrix re-runs the same suites
//! with `SEGSHARE_FRONTEND=threaded` to hold the seed-era path green.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use seg_fs::Perm;
use seg_net::reactor::{ConnId, FrameHandler, FrameOutcome, ReactorConfig, ReactorHandle};
use seg_net::FrameTransport;
use seg_store::{MemStore, ObjectStore};
use segshare::{Client, EnclaveConfig, EnrolledUser, FrontEnd, FsoSetup, SegShareServer};

fn rig(seed: u64) -> (FsoSetup, SegShareServer, EnrolledUser) {
    let setup = FsoSetup::with_stores(
        "ca",
        EnclaveConfig {
            cache: true,
            ..EnclaveConfig::paper_prototype()
        },
        seg_sgx::Platform::new_with_seed(seed),
        Arc::new(MemStore::new()) as Arc<dyn ObjectStore>,
        Arc::new(MemStore::new()) as Arc<dyn ObjectStore>,
        Arc::new(MemStore::new()) as Arc<dyn ObjectStore>,
    );
    let server = setup.server().unwrap();
    server.set_front_end(FrontEnd::Reactor);
    let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
    (setup, server, alice)
}

/// Polls `cond` until it holds or the deadline passes.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------- edges

/// A slowloris peer dribbles a frame in one-byte pieces with long
/// pauses. The reactor must keep serving other clients at full speed —
/// the partial frame pins a read buffer, never a worker thread — and
/// must tear the connection down cleanly when the slow peer gives up.
#[test]
fn slowloris_partial_frames_do_not_starve_other_clients() {
    let (_setup, server, alice) = rig(1);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.serve_listener(listener).unwrap();

    // The slow peer: claims a 4 KiB frame, delivers 3 bytes of it.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(&4096u32.to_le_bytes()).unwrap();
    for b in [1u8, 2, 3] {
        slow.write_all(&[b]).unwrap();
        slow.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = Arc::clone(server.reactor().stats());
    eventually("slow conn accepted", || stats.accepted_total() >= 1);

    // Meanwhile a real client handshakes and works, over the same
    // reactor, without waiting on the slowloris.
    let mut c = server
        .connect_local(&alice)
        .expect("full client connects while slowloris holds a socket");
    c.mkdir("/fast").unwrap();
    c.put("/fast/doc", b"served").unwrap();
    assert_eq!(c.get("/fast/doc").unwrap(), b"served");

    // The dribbled bytes never formed a frame: no enclave work ran for
    // the slow connection (the real client's frames are the only ones).
    assert_eq!(stats.protocol_errors_total(), 0);

    // The slow peer gives up; its connection (which never completed a
    // single frame) is torn down and the session slot released.
    let live_before = server.enclave().watch().live_sessions();
    drop(slow);
    eventually("slowloris torn down", || {
        server.enclave().watch().live_sessions() < live_before
    });
}

/// A peer that vanishes mid-handshake (partial frame on the wire, then
/// RST/FIN) must not leak the session slot, the connection, or the
/// live-session gauge.
#[test]
fn mid_handshake_disconnect_releases_everything() {
    let (_setup, server, alice) = rig(2);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.serve_listener(listener).unwrap();
    let stats = Arc::clone(server.reactor().stats());

    // One full client before, to prove the server state is live.
    let mut c = server.connect_local(&alice).unwrap();
    c.mkdir("/pre").unwrap();
    let baseline = server.enclave().watch().live_sessions();

    for round in 0u32..3 {
        let mut doomed = TcpStream::connect(addr).unwrap();
        // A length prefix and half a "handshake" frame, never finished.
        doomed.write_all(&64u32.to_le_bytes()).unwrap();
        doomed.write_all(&round.to_le_bytes()).unwrap();
        doomed.flush().unwrap();
        eventually("doomed conn accepted", || {
            stats.accepted_total() >= 2 + u64::from(round)
        });
        drop(doomed);
        eventually("doomed conn cleaned", || {
            server.enclave().watch().live_sessions() == baseline
        });
    }
    // The surviving session still works — no collateral damage.
    c.put("/pre/doc", b"still here").unwrap();
    assert_eq!(c.get("/pre/doc").unwrap(), b"still here");
    assert_eq!(stats.live_conns(), 1, "only the real client remains");
}

/// A complete-but-garbage first frame is a failed TLS handshake:
/// session-fatal, counted, connection closed, gauge released.
#[test]
fn garbage_handshake_frame_closes_the_connection() {
    let (_setup, server, alice) = rig(3);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.serve_listener(listener).unwrap();

    let mut evil = TcpStream::connect(addr).unwrap();
    let garbage = [0xAAu8; 32];
    evil.write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    evil.write_all(&garbage).unwrap();
    evil.flush().unwrap();

    eventually("garbage conn closed", || {
        server.reactor().stats().closed_total() >= 1
    });
    eventually("session slot released", || {
        server.enclave().watch().live_sessions() == 0
    });
    // The enclave is unharmed.
    let mut c = server.connect_local(&alice).unwrap();
    c.mkdir("/after").unwrap();
}

/// Idle connections are reaped by the timer wheel: after the idle
/// timeout the client's transport reads closed, the reap counter
/// ticks, and the gauges return to zero. An *active* client must not
/// be reaped.
#[test]
fn idle_timeout_reaps_only_idle_connections() {
    let (_setup, server, alice) = rig(4);
    server.set_reactor_config(ReactorConfig {
        idle_timeout: Duration::from_millis(200),
        ..ReactorConfig::default()
    });

    let mut idle = server.connect_local(&alice).unwrap();
    idle.mkdir("/was-here").unwrap();

    // The busy client keeps issuing requests across several timeout
    // periods — activity must keep resetting its reap deadline.
    let mut busy = server.connect_local(&alice).unwrap();
    for i in 0..8 {
        busy.put("/busy", format!("beat {i}").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }

    let stats = Arc::clone(server.reactor().stats());
    eventually("idle conn reaped", || stats.reaped_idle_total() >= 1);
    // The idle client's next request fails: its connection is gone.
    assert!(idle.get("/was-here").is_err(), "reaped transport is dead");
    // The busy client outlived every timeout period.
    assert_eq!(busy.get("/busy").unwrap(), b"beat 7");
    eventually("gauges settle to the busy conn", || stats.live_conns() == 1);
    assert_eq!(stats.reaped_idle_total(), 1, "only the idle conn reaped");
}

/// Streaming downloads stay constant-memory end to end (§VI): the
/// outbound queue's high-water mark must stay near its configured cap
/// no matter how large the file is, because chunks are produced lazily
/// and only below the low-water mark.
#[test]
fn download_backpressure_keeps_outbound_bounded() {
    let (_setup, server, alice) = rig(5);
    let cap = 256 * 1024;
    server.set_reactor_config(ReactorConfig {
        outbound_bytes: cap,
        ..ReactorConfig::default()
    });
    let mut c = server.connect_local(&alice).unwrap();
    let payload: Vec<u8> = (0..6_000_000u32).map(|i| (i ^ (i >> 11)) as u8).collect();
    c.put("/big", &payload).unwrap();
    assert_eq!(c.get("/big").unwrap(), payload);

    let high = server.reactor().stats().outq_highwater_bytes();
    assert!(high > 0, "the download actually queued frames");
    // One dispatcher turn may overshoot the cap by its drain budget
    // plus a frame; far below the 6 MB file proves streaming.
    assert!(
        high <= (cap + 700 * 1024) as u64,
        "outbound high-water {high} B must stay near the {cap} B cap"
    );
}

/// At the connection cap the reactor sheds new connections instead of
/// queueing them, and the shed is visible on the watch plane.
#[test]
fn accept_shedding_at_the_connection_cap() {
    let (_setup, server, alice) = rig(6);
    server.set_reactor_config(ReactorConfig {
        max_conns: 2,
        ..ReactorConfig::default()
    });
    let _a = server.connect_local(&alice).unwrap();
    let _b = server.connect_local(&alice).unwrap();
    let shed = server.connect_local(&alice);
    assert!(shed.is_err(), "third connection is shed at the cap");
    assert_eq!(server.enclave().watch().sheds(), 1);
    assert_eq!(server.reactor().stats().shed_total(), 1);

    // Dropping one admits the next.
    drop(_a);
    eventually("slot freed", || server.reactor().stats().live_conns() < 2);
    let _c = server.connect_local(&alice).unwrap();
}

/// Many concurrent sessions on one reactor: far more connections than
/// worker threads, all making progress, gauges exact at both ends.
#[test]
fn many_concurrent_sessions_share_the_worker_pool() {
    let (_setup, server, alice) = rig(7);
    server.set_reactor_config(ReactorConfig {
        workers: 2,
        ..ReactorConfig::default()
    });
    let mut clients: Vec<Client<seg_net::ChannelTransport>> = (0..24)
        .map(|_| server.connect_local(&alice).unwrap())
        .collect();
    assert_eq!(server.reactor().stats().live_conns(), 24);
    assert_eq!(server.enclave().watch().live_sessions(), 24);
    clients[0].mkdir("/shared").unwrap();
    for (i, c) in clients.iter_mut().enumerate() {
        c.put(&format!("/shared/f{i}"), format!("body {i}").as_bytes())
            .unwrap();
    }
    for (i, c) in clients.iter_mut().enumerate() {
        assert_eq!(
            c.get(&format!("/shared/f{i}")).unwrap(),
            format!("body {i}").as_bytes()
        );
    }
    drop(clients);
    eventually("all sessions released", || {
        server.enclave().watch().live_sessions() == 0 && server.reactor().stats().live_conns() == 0
    });
}

// ----------------------------------------------------------- equivalence

/// Runs one observable workload and returns every outcome a client can
/// see: directory listings, file bytes, and whether the revoked user's
/// access actually failed.
fn observable_workload(setup: &FsoSetup, server: &SegShareServer) -> (Vec<String>, Vec<u8>, bool) {
    let alice = setup.enroll_user("wl-alice", "wa@x", "Alice").unwrap();
    let bob = setup.enroll_user("wl-bob", "wb@x", "Bob").unwrap();
    let mut a = server.connect_local(&alice).unwrap();
    a.mkdir("/w").unwrap();
    a.put("/w/one", b"first body").unwrap();
    a.put("/w/two", &vec![7u8; 300_000]).unwrap();
    a.add_user("wl-alice", "readers").unwrap(); // creates group, alice owner
    a.add_user("wl-bob", "readers").unwrap();
    a.set_perm("/w/one", "readers", Perm::Read).unwrap();

    let mut b = server.connect_local(&bob).unwrap();
    let readable = b.get("/w/one").is_ok();
    assert!(readable, "shared read works on both front ends");
    a.remove_user("wl-bob", "readers").unwrap();
    let revoked = b.get("/w/one").is_err();

    let listing: Vec<String> = a
        .list("/w")
        .unwrap()
        .into_iter()
        .map(|e| format!("{}{}", if e.is_dir { "d:" } else { "f:" }, e.name))
        .collect();
    let bytes = a.get("/w/two").unwrap();
    (listing, bytes, revoked)
}

/// The same workload through both front ends produces byte-identical
/// observable results — the enclave cannot tell who is feeding it.
#[test]
fn reactor_and_threaded_front_ends_are_equivalent() {
    let (setup_r, server_r, _alice) = rig(8);
    server_r.set_front_end(FrontEnd::Reactor);
    let reactor_out = observable_workload(&setup_r, &server_r);

    let (setup_t, server_t, _alice) = rig(8);
    server_t.set_front_end(FrontEnd::Threaded);
    let threaded_out = observable_workload(&setup_t, &server_t);

    assert_eq!(reactor_out.0, threaded_out.0, "identical listings");
    assert_eq!(reactor_out.1, threaded_out.1, "identical file bytes");
    assert_eq!(reactor_out.2, threaded_out.2, "identical revocation");
    assert!(reactor_out.2, "revocation enforced on both");
}

// ------------------------------------------------------------- liveness

/// Streams lazily (`more!N` queues N chunks through `on_drain`) and
/// closes in drain mode on `close!`.
#[derive(Default)]
struct LazyEcho {
    lazy_left: std::sync::Mutex<std::collections::HashMap<ConnId, u32>>,
}

impl FrameHandler for LazyEcho {
    fn on_frame(&self, conn: ConnId, frame: Vec<u8>) -> FrameOutcome {
        if frame == b"close!" {
            return FrameOutcome {
                frames: vec![b"bye".to_vec()],
                close: true,
                ..Default::default()
            };
        }
        if let Some(n) = frame
            .strip_prefix(b"more!")
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|s| s.parse::<u32>().ok())
        {
            self.lazy_left.lock().unwrap().insert(conn, n);
            return FrameOutcome {
                more: true,
                established: true,
                ..Default::default()
            };
        }
        FrameOutcome {
            frames: vec![frame],
            established: true,
            ..Default::default()
        }
    }

    fn on_drain(&self, conn: ConnId) -> FrameOutcome {
        let mut lazy = self.lazy_left.lock().unwrap();
        match lazy.get_mut(&conn) {
            Some(0) | None => FrameOutcome::default(),
            Some(n) => {
                *n -= 1;
                FrameOutcome {
                    frames: vec![format!("chunk{n}").into_bytes()],
                    more: true,
                    ..Default::default()
                }
            }
        }
    }
}

/// User + system CPU ticks (10 ms each) this process has burned.
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

const SPIN_PROBE_CHILD: &str = "SEG_REACTOR_SPIN_PROBE_CHILD";

/// A drain-mode close whose peer has stopped reading must park until
/// the peer drains — not bounce between the workers. The peer here
/// never reads, so the outbound queue stays full for good; a 500 ms
/// idle wait must then cost well under 10 CPU ticks (a requeue spin
/// across two workers burns 50–100).
///
/// Process CPU is the measure, so the probe re-runs itself as the only
/// test in a child process: the rest of this suite runs in parallel
/// threads and would otherwise be charged to it.
#[test]
fn blocked_drain_close_burns_no_cpu() {
    if std::env::var_os(SPIN_PROBE_CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["blocked_drain_close_burns_no_cpu", "--exact", "--nocapture"])
            .env(SPIN_PROBE_CHILD, "1")
            .output()
            .unwrap();
        let log = String::from_utf8_lossy(&out.stdout).into_owned()
            + &String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "spin probe failed:\n{log}");
        assert!(log.contains("1 passed"), "spin probe did not run:\n{log}");
        return;
    }
    let reactor = ReactorHandle::start(
        ReactorConfig {
            workers: 2,
            idle_timeout: Duration::ZERO,
            ..ReactorConfig::default()
        },
        Arc::new(LazyEcho::default()),
    );
    let mut peer = reactor.connect_virtual().unwrap();
    peer.send_frame(b"more!500").unwrap();
    eventually("the peer queue to fill", || {
        reactor.stats().outq_bytes() > 0
    });
    peer.send_frame(b"close!").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let before = process_cpu_ticks();
    std::thread::sleep(Duration::from_millis(500));
    let burned = process_cpu_ticks() - before;
    assert!(
        burned < 10,
        "blocked drain-close spun: {burned} ticks in 500 ms"
    );
}
