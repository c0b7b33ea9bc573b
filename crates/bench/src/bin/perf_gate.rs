//! Machine-readable performance gate.
//!
//! Runs a fixed operation mix (uploads/downloads across sizes, a group
//! membership update, a revocation) through the full enclave stack,
//! emits `BENCH_perf.json` (per-workload stats, per-op latency
//! quantiles, and the phase profiler's per-phase self-times), and
//! compares the per-workload wall-clock means against the committed
//! `results/bench_baseline.json`.
//!
//! Calibration: each run times the frozen host reference kernel
//! ([`seg_bench::refkernel`]), which depends on no workspace crate, and
//! scales its means by `baseline ref_kernel_ms / current ref_kernel_ms`
//! before comparing. Host drift cancels; a change to the code under
//! test does not. The GCM-normalized column (`norm_mean_s`) is kept in
//! the report only as the projection onto the paper's hardware.
//!
//! The gate is noise-aware: a workload fails only if its calibrated
//! regression exceeds `max(15 %, 3 × CI95, 50 µs)` of the baseline mean,
//! so run-to-run jitter cannot fail CI while a real slowdown still
//! trips it.
//!
//! Usage: `perf_gate [--quick] [--update-baseline]`
//!   --quick            fewer runs per workload (CI setting)
//!   --update-baseline  rewrite results/bench_baseline.json from this run

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use seg_bench::harness::{
    arg_flag, fmt_s, local_gcm_mbps, measure, normalize_processing, Measured, Rig, HW_GCM_MBPS,
};
use seg_bench::json::{self, Json};
use seg_bench::refkernel::ref_kernel_ms;
use seg_fs::Perm;
use seg_obs::meter::Axis;
use segshare::EnclaveConfig;

/// Regressions below this fraction of the baseline never fail the gate.
const MIN_THRESHOLD: f64 = 0.15;
/// Noise guard: regressions under `CI_MULTIPLIER × CI95 / baseline`
/// don't fail either.
const CI_MULTIPLIER: f64 = 3.0;
/// Absolute slack in calibrated seconds. Sub-millisecond admin ops
/// (membership update, revocation) drift between processes from
/// scheduler/frequency noise that within-run CI95 cannot see; 50 µs of
/// slack absorbs part of that without weakening the gate where it
/// matters.
const ABS_SLACK_S: f64 = 50e-6;

struct WorkloadResult {
    name: &'static str,
    measured: Measured,
    /// Projection onto the paper's AES-NI hardware (report only).
    norm_mean_s: f64,
}

/// Declassified evidence from one metadata-hot run: how much work the
/// in-enclave object cache removed (or didn't, for the off variant).
struct CacheEvidence {
    name: &'static str,
    cache: bool,
    pfs_decrypts: u64,
    store_gets: u64,
    hits: u64,
    misses: u64,
    fills: u64,
}

impl CacheEvidence {
    fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Simulated store round-trip latency for the concurrency workloads.
/// In-memory stores answer in nanoseconds, which makes every request
/// CPU-bound and hides what per-object locking buys; real deployments
/// (§VI: cross-region blob storage) spend most of a request blocked on
/// the store. 800 µs is far below the paper's WAN latencies but enough
/// that store wait dominates the locked section.
const CONC_STORE_DELAY: Duration = Duration::from_micros(800);
/// Minimum aggregate-throughput ratio (per-object locks vs the coarse
/// global lock) at 8 threads on the disjoint-directory mix.
const CONC_MIN_SPEEDUP: f64 = 3.0;

/// One measured point of the thread-scaling curve.
struct ConcurrencyPoint {
    mix: &'static str,
    mode: &'static str,
    threads: usize,
    ops_per_s: f64,
}

/// Floor for attributable lock wait on the contended mix: below this
/// the watch plane failed to see contention that demonstrably exists.
const CONTENTION_MIN_WAIT_NS: u64 = 10_000_000;
/// The overlapping mix must wait at least this many times longer on the
/// path key class than the disjoint mix (same op count, same rig).
const CONTENTION_MIN_RATIO: f64 = 5.0;
/// Maximum fractional slowdown introspection may cost on the standard
/// small-op mix: every part on (per-request attribution, history
/// sampling, watchdog, background scrubber and canary) versus the one
/// switch off.
const INTROSPECTION_MAX_OVERHEAD: f64 = 0.02;
/// Minimum true-top-8 principals the meter sketch must recall on the
/// Zipf-skewed multi-principal workload (more principals than slots).
const METER_MIN_RECALL: usize = 7;

/// Simulated fsync latency for the durability workloads. In-memory and
/// tmpfs-backed files "sync" in microseconds, which hides what group
/// commit buys; real deployments pay hundreds of microseconds to
/// milliseconds per fsync (§VI runs against remote storage). 800 µs is
/// a modest local-SSD figure and is charged identically to both modes.
const DUR_FSYNC_US: u64 = 800;
/// Concurrent client sessions in the durability comparison.
const DUR_SESSIONS: usize = 8;
/// Minimum aggregate-throughput ratio (request-batched group commit vs
/// naive per-operation fsync) at [`DUR_SESSIONS`] sessions.
const DUR_MIN_SPEEDUP: f64 = 5.0;

/// One measured point of the durability comparison.
struct DurabilityPoint {
    mode: &'static str,
    ops_per_s: f64,
    fsyncs: u64,
    batches: u64,
}

/// Idle connections held concurrently in the c10k workload (the
/// paper's §VI serves many tenants from one enclave; the reactor must
/// hold a five-digit connection count without a five-digit thread
/// count). `--quick` scales this down.
const C10K_IDLE_CONNS: usize = 10_000;
/// Memory budget per held idle connection (resident-set growth divided
/// by connections). A reactor connection is a state-machine entry, two
/// bounded queues, and a pre-handshake session slot — tens of KiB, not
/// a thread stack (8 MiB default): the gate fails if idle connections
/// cost even 1 % of what threads would.
const C10K_MAX_IDLE_KIB_PER_CONN: f64 = 64.0;
/// Hard floor on reactor/threaded aggregate throughput at the
/// saturating session count. Both front ends drive the same enclave on
/// the same cores, so the ratio prices only the dispatch layer;
/// parity (~1.0x) is the measured norm and 0.90 is the scheduler-noise
/// guard band (same convention as the other throughput gates), still
/// low enough to fail any real dispatch-layer regression.
const C10K_MIN_SATURATION_RATIO: f64 = 0.90;
/// Session counts for the front-end scaling curve.
const C10K_CURVE: [usize; 4] = [1, 2, 4, 8];

/// One measured point of the front-end scaling curve.
struct C10kPoint {
    mode: &'static str,
    sessions: usize,
    ops_per_s: f64,
}

/// Evidence from the c10k workload: idle-connection memory footprint,
/// service quality at scale, and the saturation throughput comparison.
struct C10kEvidence {
    idle_conns: usize,
    /// Resident-set growth per held idle connection, in KiB
    /// (negative if `/proc/self/status` is unavailable).
    idle_kib_per_conn: f64,
    /// All held connections were simultaneously live on the reactor's
    /// own gauges (not just created).
    idle_all_live: bool,
    /// A full TLS session handshaked and served requests while the
    /// idle mass was held.
    responsive_at_scale: bool,
    curve: Vec<C10kPoint>,
}

/// Resident set size in KiB from `/proc/self/status` (Linux), or
/// `None` where the file is absent.
fn rss_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse::<f64>().ok()
}

/// Runs `DUR_SESSIONS` concurrent sessions of 4 KiB uploads against a
/// WAL-backed rig and returns aggregate throughput plus the backend's
/// fsync/batch tallies. `batch` selects request batching + the group
/// commit thread (one sealed frame per request, fsyncs coalesced
/// across sessions) versus the naive durable baseline (every store
/// operation is its own synchronous commit frame and fsync).
fn run_durability_point(batch: bool, ops: usize, tag: &str) -> DurabilityPoint {
    let dir = std::env::temp_dir().join(format!("seg-bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("wal dir");
    let wal = seg_store::WalConfig {
        group_commit: batch,
        sim_fsync_us: DUR_FSYNC_US,
        ..seg_store::WalConfig::default()
    };
    // Paper-prototype feature set; whole-FS rollback stays off so the
    // comparison prices the durability plane, not counter batching.
    let rig = Rig::with_wal(
        EnclaveConfig {
            batch,
            ..EnclaveConfig::paper_prototype()
        },
        &dir,
        wal,
    );
    let clients = session_dirs(&rig, DUR_SESSIONS, |t| format!("/s{t}"));
    let base = rig.server.metrics_snapshot();
    let ops_per_s = timed_sessions(clients, ops, false);
    let delta = rig.server.metrics_snapshot().delta(&base);
    let counter = |rendered: &str| delta.counter(rendered).unwrap_or(0);
    let point = DurabilityPoint {
        mode: if batch { "group_commit" } else { "naive_fsync" },
        ops_per_s,
        fsyncs: counter("seg_store_fsyncs_total{store=\"content\"}"),
        batches: counter("seg_store_batches_total{store=\"content\"}"),
    };
    drop(rig);
    let _ = std::fs::remove_dir_all(&dir);
    point
}

/// The durability acceptance check: request batching plus group commit
/// must deliver at least [`DUR_MIN_SPEEDUP`]× the naive per-operation
/// fsync baseline's aggregate throughput at [`DUR_SESSIONS`] sessions.
/// Fsync-latency-bound by construction, so the bar holds on any host.
fn check_durability(points: &[DurabilityPoint]) -> Vec<String> {
    println!(
        "== durability (WAL backend, {DUR_SESSIONS} sessions, simulated fsync {DUR_FSYNC_US} µs) =="
    );
    for p in points {
        println!(
            "  {:<13} {:>7.1} ops/s  fsyncs={:<6} batches={}",
            p.mode, p.ops_per_s, p.fsyncs, p.batches,
        );
    }
    let find = |mode: &str| {
        points
            .iter()
            .find(|p| p.mode == mode)
            .expect("durability comparison covers this mode")
    };
    let naive = find("naive_fsync");
    let group = find("group_commit");
    let speedup = group.ops_per_s / naive.ops_per_s;
    println!(
        "  -> group commit vs per-op fsync at {DUR_SESSIONS} sessions: {speedup:.2}x \
         (gate: >= {DUR_MIN_SPEEDUP:.1}x)"
    );
    let mut failures = Vec::new();
    if speedup < DUR_MIN_SPEEDUP {
        failures.push(format!(
            "durability: group-commit/naive speedup at {DUR_SESSIONS} sessions is \
             {speedup:.2}x, below the {DUR_MIN_SPEEDUP:.1}x floor"
        ));
    }
    if group.batches == 0 {
        failures.push(
            "durability: the group-commit run sealed no batches — request batching \
             never engaged"
                .to_string(),
        );
    }
    failures
}

/// Opens `sessions` client sessions against `rig`, each creating its
/// directory `dir(t)` (a directory shared by several sessions is
/// created once).
fn session_dirs(
    rig: &Rig,
    sessions: usize,
    dir: impl Fn(usize) -> String,
) -> Vec<(segshare::Client<seg_net::ChannelTransport>, String)> {
    (0..sessions)
        .map(|t| {
            let mut client = rig.client();
            let path = dir(t);
            if t == 0 || dir(t - 1) != path {
                client.mkdir(&path).expect("mkdir");
            }
            (client, path)
        })
        .collect()
}

/// Runs every session on its own thread, released together by a
/// barrier, each performing `ops` operations on 4 KiB files in its
/// directory — uploads only, or (with `reads`) a 3:1 upload:download
/// mix that re-reads a file the session just wrote — and returns the
/// aggregate operations per second. Only the released work is timed.
fn timed_sessions(
    clients: Vec<(segshare::Client<seg_net::ChannelTransport>, String)>,
    ops: usize,
    reads: bool,
) -> f64 {
    let payload: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let sessions = clients.len();
    let barrier = Barrier::new(sessions + 1);
    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, (mut client, dir))| {
                let (barrier, payload) = (&barrier, &payload);
                scope.spawn(move || {
                    barrier.wait();
                    for j in 0..ops {
                        if reads && j % 4 == 3 {
                            let back = format!("{dir}/t{t}f{}", j - 1);
                            let got = client.get(&back).expect("download");
                            assert_eq!(got.len(), payload.len());
                        } else {
                            let path = format!("{dir}/t{t}f{j}");
                            client.put(&path, payload).expect("upload");
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().expect("worker thread");
        }
        start.elapsed().as_secs_f64()
    });
    (sessions * ops) as f64 / elapsed
}

/// The c10k workload, in two acts.
///
/// **Idle hold**: open [`C10K_IDLE_CONNS`] reactor connections (each a
/// registered state machine with a live pre-handshake session slot —
/// exactly what a slow or momentarily quiet tenant costs) and keep
/// them all open at once, measuring resident-set growth per
/// connection. While the mass is held, one full TLS session must
/// handshake and serve requests — C10K means *service* at scale, not
/// just accepted sockets.
///
/// **Saturation**: the same 4 KiB put/get mix through full TLS
/// sessions under the reactor and under the thread-per-connection
/// front end, across [`C10K_CURVE`] session counts (best-of-`reps`
/// per point). The reactor replaces two threads per connection with a
/// fixed pool, and the gate demands it gives up none of the
/// throughput that simplicity bought.
fn run_c10k(quick: bool) -> C10kEvidence {
    let idle_conns = if quick {
        C10K_IDLE_CONNS / 5
    } else {
        C10K_IDLE_CONNS
    };
    let rig = Rig::new(EnclaveConfig {
        cache: true,
        ..EnclaveConfig::paper_prototype()
    });
    let reactor = rig.server.reactor();
    let stats = std::sync::Arc::clone(reactor.stats());

    // -- act 1: hold the idle mass --------------------------------
    let rss_before = rss_kib();
    let mut held = Vec::with_capacity(idle_conns);
    for _ in 0..idle_conns {
        held.push(reactor.connect_virtual().expect("idle connect"));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while (stats.live_conns() as usize) < idle_conns && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let idle_all_live = stats.live_conns() as usize >= idle_conns;
    let idle_kib_per_conn = match (rss_before, rss_kib()) {
        (Some(before), Some(after)) => ((after - before) / idle_conns as f64).max(0.0),
        _ => -1.0,
    };
    // Service at scale: a fresh session handshakes and works while
    // every idle connection stays open.
    let responsive_at_scale = {
        let mut probe = rig.client();
        probe.mkdir("/c10k").is_ok()
            && probe.put("/c10k/probe", b"served at 10k").is_ok()
            && probe
                .get("/c10k/probe")
                .map(|b| b == b"served at 10k")
                .unwrap_or(false)
    };
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(60);
    while stats.live_conns() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }

    // -- act 2: saturation curve, reactor vs thread-per-conn ------
    let reps = if quick { 2 } else { 3 };
    let ops = if quick { 16 } else { 32 };
    let mut curve = Vec::new();
    let mut round = 0u32;
    for (mode, front) in [
        ("reactor", segshare::FrontEnd::Reactor),
        ("threaded", segshare::FrontEnd::Threaded),
    ] {
        let rig = Rig::new(EnclaveConfig {
            cache: true,
            ..EnclaveConfig::paper_prototype()
        });
        rig.server.set_front_end(front);
        // Match the worker pool to the curve's session fan-out: the
        // threaded front end gets one thread per session for free, so
        // a core-count-sized pool would measure pool starvation, not
        // front-end overhead (the 1-core CI box defaults to 2).
        rig.server
            .set_reactor_config(seg_net::reactor::ReactorConfig {
                workers: *C10K_CURVE.last().expect("curve is non-empty"),
                ..seg_net::reactor::ReactorConfig::default()
            });
        for &sessions in &C10K_CURVE {
            // Best-of-reps: scheduler noise is one-sided (see
            // `run_concurrency`).
            let mut top = 0f64;
            for _ in 0..reps {
                round += 1;
                let clients = session_dirs(&rig, sessions, |t| format!("/fe{round}x{t}"));
                top = top.max(timed_sessions(clients, ops, true));
            }
            curve.push(C10kPoint {
                mode,
                sessions,
                ops_per_s: top,
            });
        }
    }
    C10kEvidence {
        idle_conns,
        idle_kib_per_conn,
        idle_all_live,
        responsive_at_scale,
        curve,
    }
}

impl C10kEvidence {
    /// Throughput of one front end at one curve point.
    fn at(&self, mode: &str, sessions: usize) -> f64 {
        self.curve
            .iter()
            .find(|p| p.mode == mode && p.sessions == sessions)
            .map_or(0.0, |p| p.ops_per_s)
    }

    /// Reactor over thread-per-connection throughput at the curve's
    /// largest session count.
    fn saturation_ratio(&self) -> f64 {
        let saturate = *C10K_CURVE.last().expect("curve is non-empty");
        self.at("reactor", saturate) / self.at("threaded", saturate).max(f64::MIN_POSITIVE)
    }
}

/// The c10k acceptance checks: every idle connection live at once
/// within the per-connection memory budget, service during the hold,
/// and no throughput given up versus thread-per-connection.
fn check_c10k(e: &C10kEvidence) -> Vec<String> {
    println!("== c10k (reactor front end) ==");
    if e.idle_kib_per_conn >= 0.0 {
        println!(
            "  idle hold: {} conns live={} rss/conn={:.1} KiB (gate: <= {C10K_MAX_IDLE_KIB_PER_CONN:.0} KiB) responsive={}",
            e.idle_conns, e.idle_all_live, e.idle_kib_per_conn, e.responsive_at_scale,
        );
    } else {
        println!(
            "  idle hold: {} conns live={} rss/conn=n/a responsive={}",
            e.idle_conns, e.idle_all_live, e.responsive_at_scale,
        );
    }
    for &sessions in &C10K_CURVE {
        let (reactor, threaded) = (e.at("reactor", sessions), e.at("threaded", sessions));
        println!(
            "  sessions={sessions} reactor={reactor:7.1} ops/s  threaded={threaded:7.1} ops/s  ({:.2}x)",
            reactor / threaded.max(f64::MIN_POSITIVE),
        );
    }
    println!(
        "  -> reactor vs thread-per-conn at saturation: {:.2}x (gate: >= {C10K_MIN_SATURATION_RATIO:.2}x)",
        e.saturation_ratio(),
    );
    let mut failures = Vec::new();
    if !e.idle_all_live {
        failures.push(format!(
            "c10k: fewer than {} idle connections were simultaneously live",
            e.idle_conns
        ));
    }
    if e.idle_kib_per_conn > C10K_MAX_IDLE_KIB_PER_CONN {
        failures.push(format!(
            "c10k: idle connections cost {:.1} KiB RSS each, above the \
             {C10K_MAX_IDLE_KIB_PER_CONN:.0} KiB budget",
            e.idle_kib_per_conn
        ));
    }
    if !e.responsive_at_scale {
        failures.push(format!(
            "c10k: a fresh TLS session failed to handshake and serve while \
             {} idle connections were held",
            e.idle_conns
        ));
    }
    if e.saturation_ratio() < C10K_MIN_SATURATION_RATIO {
        failures.push(format!(
            "c10k: reactor throughput at saturation is {:.2}x the \
             thread-per-connection baseline, below the {C10K_MIN_SATURATION_RATIO:.2}x floor",
            e.saturation_ratio()
        ));
    }
    failures
}

/// Windowed lock-wait attribution from one 8-thread fine-mode run:
/// the seg-watch evidence that overlapping scopes (and only they) pay
/// for the parent directory's write lock. This is the instrumented
/// answer to why the overlapping mix scales ~1.0× in the matrix above.
struct ContentionEvidence {
    mix: &'static str,
    /// Per (class, intent): windowed wait sum (ns) and acquisitions.
    waits: Vec<(String, String, u64, u64)>,
    /// Most-contended stripes during this run alone.
    top: Vec<segshare::enclave::locks::StripeContention>,
}

/// Median wall-clock of the standard small-op probe with introspection
/// on versus off (adjacent order-alternated pairs, so clock and
/// scheduler drift charge both variants equally), plus the background
/// work that demonstrably ran while the "on" probes were being timed
/// and the final introspection report (the CI artifact).
struct IntrospectionOverheadEvidence {
    on_s: f64,
    off_s: f64,
    scrub_passes: u64,
    canary_probes: u64,
    report: String,
}

impl IntrospectionOverheadEvidence {
    fn overhead(&self) -> f64 {
        self.on_s / self.off_s - 1.0
    }
}

/// Attribution evidence from the Zipf-skewed multi-principal run: how
/// well the bounded sketch recovered the true heaviest talkers while
/// tracking fewer slots than principals, plus the declassified report
/// (the CI artifact).
struct MeterAttributionEvidence {
    principals: usize,
    ops: u64,
    recalled_top8: usize,
    tracked: u64,
    evictions: u64,
    report: String,
}

/// The enclave configuration for the scaling workloads: audit off
/// (the hash-chained trail is inherently serial — every record extends
/// one chain head) and the per-file rollback tree off (each commit
/// updates shared ancestor records under the store-wide tree lock).
/// Both serializations are honest properties of those features, and
/// both are reported separately; this config isolates the dispatch
/// layer the [`segshare::enclave::locks::LockManager`] parallelized.
fn concurrency_config() -> EnclaveConfig {
    EnclaveConfig {
        audit: false,
        cache: true,
        rollback_individual: false,
        rollback_whole_fs: false,
        ..EnclaveConfig::paper_prototype()
    }
}

/// Runs `threads` client sessions against `rig`, each performing
/// `ops` operations (3:1 upload:download of 4 KiB files), and returns
/// aggregate operations per second. `shared_dir` selects the
/// overlapping mix (every session writes into one directory, so all
/// scopes collide on the parent's write lock) versus the disjoint mix
/// (a private directory per session). Sessions, handshakes, and
/// directory creation happen outside the timed window; `round` keeps
/// object names unique across repetitions.
fn run_concurrency_point(
    rig: &Rig,
    coarse: bool,
    threads: usize,
    ops: usize,
    shared_dir: bool,
    round: u32,
) -> f64 {
    rig.server.enclave().locks().set_coarse(coarse);
    let clients = session_dirs(rig, threads, |t| {
        if shared_dir {
            format!("/shared{round}")
        } else {
            format!("/c{round}x{t}")
        }
    });
    timed_sessions(clients, ops, true)
}

/// Measures the full scaling matrix: disjoint-directory mix at 1/2/4/8
/// threads under both lock modes, the overlapping mix at 8 threads, and
/// (on a separate rig) the rollback-tree-enabled mix at 8 threads so
/// the tree's commit serialization is quantified rather than hidden.
fn run_concurrency(reps: usize, ops: usize) -> Vec<ConcurrencyPoint> {
    let mut points = Vec::new();
    let mut round = 0u32;
    let mut best = |rig: &Rig,
                    mix: &'static str,
                    mode: &'static str,
                    coarse: bool,
                    threads: usize,
                    round: &mut u32| {
        // Best-of-reps: throughput noise is one-sided (scheduler stalls
        // only ever slow a run down), so the max is the stable estimate.
        let mut top = 0f64;
        for _ in 0..reps {
            *round += 1;
            top = top.max(run_concurrency_point(
                rig,
                coarse,
                threads,
                ops,
                mix == "overlapping",
                *round,
            ));
        }
        points.push(ConcurrencyPoint {
            mix,
            mode,
            threads,
            ops_per_s: top,
        });
    };

    let rig = Rig::with_store_latency(concurrency_config(), CONC_STORE_DELAY);
    for threads in [1usize, 2, 4, 8] {
        best(&rig, "disjoint", "coarse", true, threads, &mut round);
        best(&rig, "disjoint", "fine", false, threads, &mut round);
    }
    best(&rig, "overlapping", "coarse", true, 8, &mut round);
    best(&rig, "overlapping", "fine", false, 8, &mut round);

    // Same mix with the per-file rollback tree on: commits serialize on
    // the content store's tree lock (ancestor hash-record RMW), so this
    // bounds what dispatch-level parallelism is worth under §V-D.
    let tree_rig = Rig::with_store_latency(
        EnclaveConfig {
            rollback_individual: true,
            ..concurrency_config()
        },
        CONC_STORE_DELAY,
    );
    best(&tree_rig, "disjoint_tree", "coarse", true, 8, &mut round);
    best(&tree_rig, "disjoint_tree", "fine", false, 8, &mut round);

    points
}

/// Finds one measured point (panics if the matrix is missing it).
fn conc_point<'a>(
    points: &'a [ConcurrencyPoint],
    mix: &str,
    mode: &str,
    threads: usize,
) -> &'a ConcurrencyPoint {
    points
        .iter()
        .find(|p| p.mix == mix && p.mode == mode && p.threads == threads)
        .expect("concurrency matrix covers this point")
}

/// The concurrency acceptance check: per-object locking must deliver at
/// least [`CONC_MIN_SPEEDUP`]× the coarse global lock's aggregate
/// throughput at 8 threads on the disjoint mix. Store-latency-bound by
/// construction, so the bar holds on any host core count.
fn check_concurrency(points: &[ConcurrencyPoint]) -> Vec<String> {
    println!(
        "== concurrency (store round-trip {} µs, 3:1 put:get of 4 KiB) ==",
        CONC_STORE_DELAY.as_micros()
    );
    let rows = [1, 2, 4, 8].map(|threads| ("disjoint", threads));
    for (mix, threads) in rows
        .into_iter()
        .chain([("overlapping", 8), ("disjoint_tree", 8)])
    {
        let coarse = conc_point(points, mix, "coarse", threads);
        let fine = conc_point(points, mix, "fine", threads);
        println!(
            "  {mix:<13} threads={threads} coarse={:7.1} ops/s  fine={:7.1} ops/s  ({:.2}x)",
            coarse.ops_per_s,
            fine.ops_per_s,
            fine.ops_per_s / coarse.ops_per_s,
        );
    }
    let coarse = conc_point(points, "disjoint", "coarse", 8);
    let fine = conc_point(points, "disjoint", "fine", 8);
    let speedup = fine.ops_per_s / coarse.ops_per_s;
    println!(
        "  -> per-object locks vs global lock at 8 threads (disjoint): {speedup:.2}x (gate: >= {CONC_MIN_SPEEDUP:.1}x)"
    );
    if speedup >= CONC_MIN_SPEEDUP {
        Vec::new()
    } else {
        vec![format!(
            "concurrency: fine/coarse speedup at 8 threads is {speedup:.2}x, below the {CONC_MIN_SPEEDUP:.1}x floor"
        )]
    }
}

/// Runs the overlapping and disjoint mixes once each (8 threads, fine
/// locks) with a metrics-snapshot delta around every run, and extracts
/// the `seg_lock_wait_ns` series from each window.
fn run_contention_evidence(rig: &Rig, ops: usize, round: &mut u32) -> Vec<ContentionEvidence> {
    let mut evidence = Vec::new();
    for (mix, shared_dir) in [("overlapping", true), ("disjoint", false)] {
        let base = rig.server.metrics_snapshot();
        let stripes = rig.server.enclave().locks().stripe_tally();
        *round += 1;
        run_concurrency_point(rig, false, 8, ops, shared_dir, *round);
        let delta = rig.server.metrics_snapshot().delta(&base);
        let mut waits: Vec<(String, String, u64, u64)> = delta
            .histograms
            .iter()
            .filter(|(id, s)| id.name() == "seg_lock_wait_ns" && s.count > 0)
            .map(|(id, s)| {
                let label = |key: &str| {
                    id.labels()
                        .iter()
                        .find(|&&(k, _)| k == key)
                        .map_or("?", |&(_, v)| v)
                        .to_string()
                };
                (label("class"), label("intent"), s.sum, s.count)
            })
            .collect();
        waits.sort_by_key(|w| std::cmp::Reverse(w.2));
        evidence.push(ContentionEvidence {
            mix,
            waits,
            top: rig.server.enclave().locks().top_since(&stripes, 8),
        });
    }
    evidence
}

/// The contention acceptance check: the overlapping mix must show
/// substantial, attributable wait on the path key class while the
/// disjoint mix (same op count) stays far below it.
fn check_contention(evidence: &[ContentionEvidence]) -> Vec<String> {
    println!("== contention attribution (8 threads, fine locks) ==");
    for e in evidence {
        println!("  {} mix:", e.mix);
        for (class, intent, sum, count) in &e.waits {
            println!(
                "    wait {class:<11} {intent:<5} {:>9.2} ms over {count} acquisitions",
                *sum as f64 / 1e6
            );
        }
        if let Some(top) = e.top.first() {
            println!(
                "    hottest stripe #{} with {:.2} ms wait in this run",
                top.stripe,
                top.wait_ns as f64 / 1e6
            );
        }
    }
    let wait = |mix: &str| {
        let e = evidence.iter().find(|e| e.mix == mix);
        e.and_then(|e| {
            e.waits
                .iter()
                .find(|(c, i, _, _)| c == "path" && i == "write")
        })
        .map_or(0, |&(_, _, sum, _)| sum)
    };
    let overlapping = wait("overlapping");
    let disjoint = wait("disjoint");
    let ratio = overlapping as f64 / disjoint.max(1) as f64;
    println!(
        "  -> path-class write wait: overlapping {:.2} ms vs disjoint {:.2} ms ({ratio:.1}x; \
         gate: >= {:.0} ms and >= {CONTENTION_MIN_RATIO:.0}x)",
        overlapping as f64 / 1e6,
        disjoint as f64 / 1e6,
        CONTENTION_MIN_WAIT_NS as f64 / 1e6,
    );
    let mut failures = Vec::new();
    if overlapping < CONTENTION_MIN_WAIT_NS {
        failures.push(format!(
            "contention: overlapping path-write wait {:.2} ms is below the {:.0} ms floor",
            overlapping as f64 / 1e6,
            CONTENTION_MIN_WAIT_NS as f64 / 1e6,
        ));
    }
    if ratio < CONTENTION_MIN_RATIO {
        failures.push(format!(
            "contention: overlapping/disjoint path-write wait ratio {ratio:.1}x is below \
             {CONTENTION_MIN_RATIO:.0}x — lock wait is not attributed to the contended class"
        ));
    }
    failures
}

/// Measures introspection's whole cost on the standard small-op mix.
///
/// The effect is far smaller than coarse-batch jitter, so the
/// measurement is paired at the *operation* level: each probe runs the
/// same stationary op (overwrite-put + get of fixed 4 KiB files —
/// creating files would grow the directory and skew later probes) once
/// with introspection on and once off, adjacent in time and with the
/// order alternating, so frequency and scheduler drift charge both
/// variants equally. Medians over all pairs make single stalled ops
/// irrelevant.
///
/// A dedicated rig prices the *whole* substrate: the background runner
/// ticks every 5 ms against a 50 ms scrub cadence with the loopback
/// canary firing every 100 ms, all live while the "on" probes are
/// timed. That is still 20× the default 1 s scrub cadence, so the
/// measurement bounds any production setting without letting the
/// background duty cycle drown the paired probes on a single-core
/// runner. `set_introspection(false)` turns off the per-request hook
/// and makes the runner's ticks, samples, and canary no-ops without
/// stopping the thread.
fn run_introspection_overhead(pairs: usize) -> IntrospectionOverheadEvidence {
    let rig = Rig::new(EnclaveConfig {
        scrub_interval_us: 50_000,
        ..EnclaveConfig::paper_prototype()
    });
    let canary = rig
        .setup
        .enroll_user("canary", "canary@bench", "Canary")
        .expect("enroll canary");
    rig.server.start_health(segshare::HealthOptions {
        canary: Some(canary),
        tick_us: 5_000,
        canary_interval_us: 100_000,
    });
    let mut client = rig.client();
    let p4k: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    client.put("/probe", &p4k).expect("prefill");
    client.put("/probe-w", &p4k).expect("prefill");
    let probe = |client: &mut segshare::Client<seg_net::ChannelTransport>| {
        let start = Instant::now();
        client.put("/probe-w", &p4k).expect("upload");
        let got = client.get("/probe").expect("download");
        assert_eq!(got.len(), p4k.len());
        start.elapsed().as_secs_f64()
    };
    for _ in 0..16 {
        probe(&mut client); // warmup, untimed
    }
    let mut on_times = Vec::with_capacity(pairs);
    let mut off_times = Vec::with_capacity(pairs);
    for i in 0..pairs {
        for flip in [false, true] {
            let on = (i % 2 == 0) ^ flip;
            rig.server.set_introspection(on);
            let elapsed = probe(&mut client);
            if on {
                on_times.push(elapsed);
            } else {
                off_times.push(elapsed);
            }
        }
    }
    rig.server.set_introspection(true);
    // The report artifact should carry at least one completed pass over
    // the probe namespace; the aggressive cadence makes this quick.
    let deadline = Instant::now() + Duration::from_secs(30);
    while rig.server.enclave().health().scrub_passes() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    rig.server.stop_health();
    let health = rig.server.enclave().health();
    assert_eq!(
        health.findings_total(),
        0,
        "the gate's untampered rig must scrub clean"
    );
    let median = |times: &mut Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    IntrospectionOverheadEvidence {
        on_s: median(&mut on_times),
        off_s: median(&mut off_times),
        scrub_passes: health.scrub_passes(),
        canary_probes: health.canary_probes(),
        report: rig.server.introspect(),
    }
}

/// Runs a Zipf(1.0)-skewed multi-principal workload — more enrolled
/// principals than the sketch has slots — and checks the meter's
/// recall of the true heaviest talkers. Op budgets are deterministic
/// (rank r gets a share ∝ 1/r), so the true top-8 is principals 0–7 by
/// construction and recall needs no reference sketch.
fn run_meter_attribution(quick: bool) -> MeterAttributionEvidence {
    let rig = Rig::new(EnclaveConfig::paper_prototype());
    let principals = if quick { 80 } else { 96 };
    let total_ops = if quick { 800 } else { 1600 };
    let weights: Vec<f64> = (1..=principals).map(|r| 1.0 / r as f64).collect();
    let wsum: f64 = weights.iter().sum();
    let p4k: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let mut expected_top8 = Vec::new();
    let mut total = 0u64;
    for (i, w) in weights.iter().enumerate() {
        let ops = ((total_ops as f64 * w / wsum).round() as usize).max(1);
        let name = format!("tenant{i:03}");
        let user = rig
            .setup
            .enroll_user(&name, &format!("{name}@bench"), &name)
            .expect("enroll tenant");
        let mut client = rig.server.connect_local(&user).expect("connect tenant");
        let dir = format!("/t{i:03}");
        client.mkdir(&dir).expect("mkdir");
        for j in 0..ops {
            if j % 3 == 2 {
                let back = format!("{dir}/f{}", j - 1);
                let got = client.get(&back).expect("download");
                assert_eq!(got.len(), p4k.len());
            } else {
                client.put(&format!("{dir}/f{j}"), &p4k).expect("upload");
            }
        }
        total += ops as u64 + 1; // +1 for the mkdir
        if i < 8 {
            let uid = seg_fs::UserId::new(&name).expect("valid id");
            expected_top8.push(rig.server.enclave().fingerprint_user(&uid));
        }
    }
    let meter = rig.server.enclave().meter();
    let reported: Vec<u64> = meter.top(Axis::Principal, 8).iter().map(|s| s.fp).collect();
    let recalled = expected_top8
        .iter()
        .filter(|fp| reported.contains(fp))
        .count();
    let stats = meter.stats(Axis::Principal);
    MeterAttributionEvidence {
        principals,
        ops: total,
        recalled_top8: recalled,
        tracked: stats.tracked,
        evictions: stats.evictions,
        report: rig.server.introspect(),
    }
}

fn check_introspection_overhead(e: &IntrospectionOverheadEvidence) -> Vec<String> {
    let overhead = e.overhead();
    println!(
        "== introspection overhead (all on vs all off) == on={} off={} ({:+.2}%; \
         gate: <= {:.0}%) [{} scrub passes, {} canary probes during run]",
        fmt_s(e.on_s),
        fmt_s(e.off_s),
        overhead * 100.0,
        INTROSPECTION_MAX_OVERHEAD * 100.0,
        e.scrub_passes,
        e.canary_probes,
    );
    if overhead <= INTROSPECTION_MAX_OVERHEAD {
        Vec::new()
    } else {
        vec![format!(
            "introspection: overhead {:.2}% exceeds the {:.0}% budget",
            overhead * 100.0,
            INTROSPECTION_MAX_OVERHEAD * 100.0,
        )]
    }
}

fn check_meter_attribution(attr: &MeterAttributionEvidence) -> Vec<String> {
    println!(
        "== meter attribution == {} principals, {} ops (Zipf 1.0): \
         recalled {}/8 true top talkers, {} tracked slots, {} evictions \
         (gate: >= {METER_MIN_RECALL}/8, tracked <= {})",
        attr.principals,
        attr.ops,
        attr.recalled_top8,
        attr.tracked,
        attr.evictions,
        seg_obs::METER_SLOTS,
    );
    let mut failures = Vec::new();
    if attr.recalled_top8 < METER_MIN_RECALL {
        failures.push(format!(
            "meter: sketch recalled only {}/8 true top talkers (floor {METER_MIN_RECALL})",
            attr.recalled_top8,
        ));
    }
    if attr.tracked > seg_obs::METER_SLOTS as u64 {
        failures.push(format!(
            "meter: {} tracked slots exceed the {} cardinality bound",
            attr.tracked,
            seg_obs::METER_SLOTS,
        ));
    }
    if attr.evictions == 0 {
        failures.push(format!(
            "meter: no evictions despite {} principals over {} slots — the workload \
             never exercised the bounded-memory path",
            attr.principals,
            seg_obs::METER_SLOTS,
        ));
    }
    failures
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    let quick = arg_flag("--quick");
    let update_baseline = arg_flag("--update-baseline");
    let runs = if quick { 3 } else { 10 };

    let ref_ms = ref_kernel_ms();
    let local_mbps = local_gcm_mbps();
    println!("== perf gate ==");
    println!("host reference kernel: {ref_ms:.2} ms (the gate's calibration)");
    println!(
        "local GCM ({}): {local_mbps:.0} MB/s (paper projection scales to {HW_GCM_MBPS:.0} MB/s)",
        seg_crypto::gcm::Gcm::new(&[0u8; 16])
            .expect("valid key")
            .backend_name()
    );

    let rig = Rig::new(EnclaveConfig::paper_prototype());
    rig.setup
        .enroll_user("bob", "bob@bench", "Bob")
        .expect("enroll succeeds");
    let mut client = rig.client();

    let payload = |bytes: usize| -> Vec<u8> { (0..bytes).map(|i| (i % 251) as u8).collect() };
    let p10k = payload(10_000);
    let p100k = payload(100_000);
    let p1m = payload(1_000_000);

    // Download probes are prefilled outside the measured window.
    client.put("/dl100k", &p100k).expect("prefill succeeds");
    client.put("/dl1m", &p1m).expect("prefill succeeds");

    let mut results: Vec<WorkloadResult> = Vec::new();
    let mut push = |name: &'static str, measured: Measured| {
        let norm_mean_s = normalize_processing(measured.mean_s, local_mbps);
        println!(
            "  {name:<18} mean={:<10} ci95={:<10} warmup={:<10} paper-proj={}",
            fmt_s(measured.mean_s),
            fmt_s(measured.ci95_s()),
            fmt_s(measured.warmup_s),
            fmt_s(norm_mean_s),
        );
        results.push(WorkloadResult {
            name,
            measured,
            norm_mean_s,
        });
    };

    let mut i = 0u32;
    push(
        "upload_10k",
        measure(runs, || {
            i += 1;
            client.put(&format!("/u10k-{i}"), &p10k).expect("upload");
        }),
    );
    push(
        "upload_100k",
        measure(runs, || {
            i += 1;
            client.put(&format!("/u100k-{i}"), &p100k).expect("upload");
        }),
    );
    push(
        "upload_1m",
        measure(runs, || {
            i += 1;
            client.put(&format!("/u1m-{i}"), &p1m).expect("upload");
        }),
    );
    push(
        "download_100k",
        measure(runs, || {
            let got = client.get("/dl100k").expect("download");
            assert_eq!(got.len(), p100k.len());
        }),
    );
    push(
        "download_1m",
        measure(runs, || {
            let got = client.get("/dl1m").expect("download");
            assert_eq!(got.len(), p1m.len());
        }),
    );
    // Group membership update (add_u) and immediate revocation (rmv_u):
    // each iteration rewrites the member list through the full
    // Protected-FS + rollback-tree path. The group is seeded with a
    // file permission so revocation exercises a real sharing state.
    client.add_user("bob", "gm").expect("seed group");
    client
        .set_perm("/dl100k", "gm", Perm::Read)
        .expect("seed perm");
    push(
        "membership_update",
        measure(runs, || {
            client.add_user("bob", "gm").expect("add_user");
        }),
    );
    push(
        "revocation",
        measure(runs, || {
            client.remove_user("bob", "gm").expect("remove_user");
        }),
    );

    // Metadata-hot mix, run with the object cache off and on: each
    // iteration downloads a small file at the bottom of a deep
    // directory path (every level contributes hash-record reads to
    // tree validation, plus ACL and member-list fetches) interleaved
    // with fig4-style membership churn. Both variants are gated
    // workloads; the decrypt/store-read reductions are reported in the
    // "cache" section of BENCH_perf.json.
    let mut cache_evidence: Vec<CacheEvidence> = Vec::new();
    for (name, cache) in [
        ("metadata_hot_nocache", false),
        ("metadata_hot_cached", true),
    ] {
        let rig = Rig::new(EnclaveConfig {
            cache,
            ..EnclaveConfig::paper_prototype()
        });
        rig.setup
            .enroll_user("bob", "bob@bench", "Bob")
            .expect("enroll succeeds");
        let mut client = rig.client();
        for dir in ["/deep", "/deep/a", "/deep/a/b", "/deep/a/b/c"] {
            client.mkdir(dir).expect("mkdir");
        }
        client.put("/deep/a/b/c/hot", &p10k).expect("prefill");
        client.add_user("bob", "churn").expect("seed group");
        client
            .set_perm("/deep/a/b/c/hot", "churn", Perm::Read)
            .expect("seed perm");

        let base = rig.server.metrics_snapshot();
        let measured = measure(runs, || {
            for _ in 0..8 {
                let got = client.get("/deep/a/b/c/hot").expect("download");
                assert_eq!(got.len(), p10k.len());
            }
            client.add_user("bob", "churn").expect("add_user");
            client.remove_user("bob", "churn").expect("remove_user");
        });
        let delta = rig.server.metrics_snapshot().delta(&base);
        let counter = |rendered: &str| delta.counter(rendered).unwrap_or(0);
        cache_evidence.push(CacheEvidence {
            name,
            cache,
            pfs_decrypts: delta.histogram("seg_pfs_decrypt_ns").map_or(0, |h| h.count),
            store_gets: counter("seg_store_ops_total{op=\"get\",store=\"content\"}")
                + counter("seg_store_ops_total{op=\"get\",store=\"group\"}")
                + counter("seg_store_ops_total{op=\"get\",store=\"dedup\"}"),
            hits: counter("seg_cache_hits_total"),
            misses: counter("seg_cache_misses_total"),
            fills: counter("seg_cache_fills_total"),
        });
        push(name, measured);
    }
    print_cache_evidence(&cache_evidence);

    // Introspection overhead: the one switch, all on vs all off, on a
    // dedicated rig with the scrubber, history sampler, and canary all
    // running (see `run_introspection_overhead`). Then the Zipf-skewed
    // multi-principal attribution run (see `run_meter_attribution`).
    let introspection = run_introspection_overhead(if quick { 300 } else { 800 });
    let mut failures = check_introspection_overhead(&introspection);
    let meter_attr = run_meter_attribution(quick);
    failures.extend(check_meter_attribution(&meter_attr));

    // Durability comparison: request-batched group commit vs naive
    // per-operation fsync, both on WAL-backed rigs with the same
    // simulated fsync cost (see `run_durability_point`).
    let dur_ops = if quick { 8 } else { 16 };
    let dur_points = vec![
        run_durability_point(false, dur_ops, "naive"),
        run_durability_point(true, dur_ops, "group"),
    ];
    failures.extend(check_durability(&dur_points));

    // The c10k workload: 10k held idle reactor connections with
    // bounded memory and live service, then the reactor-vs-threaded
    // saturation curve (see `run_c10k`).
    let c10k = run_c10k(quick);
    failures.extend(check_c10k(&c10k));

    // Thread-scaling matrix: per-object locks vs the coarse global
    // lock, on a store-latency-bound rig (see `run_concurrency`).
    let conc_points = run_concurrency(if quick { 2 } else { 3 }, if quick { 8 } else { 12 });
    failures.extend(check_concurrency(&conc_points));

    // Lock-wait attribution on a fresh store-latency-bound rig: the
    // seg-watch explanation for the overlapping mix's flat scaling.
    let conc_rig = Rig::with_store_latency(concurrency_config(), CONC_STORE_DELAY);
    let mut round = 0u32;
    let contention = run_contention_evidence(&conc_rig, if quick { 8 } else { 12 }, &mut round);
    failures.extend(check_contention(&contention));

    // Declassified aggregates for the report (explicit enclave exits).
    let snapshot = rig.server.metrics_snapshot();
    let profile = rig.server.enclave().profile_snapshot();

    let root = repo_root();
    let report = build_report(
        &results,
        ref_ms,
        local_mbps,
        &snapshot,
        &profile,
        &cache_evidence,
        &conc_points,
        &contention,
        &dur_points,
        &c10k,
        &introspection,
        &meter_attr,
    );
    let report_path = root.join("BENCH_perf.json");
    std::fs::write(&report_path, &report).expect("write BENCH_perf.json");
    println!("wrote {}", report_path.display());

    std::fs::create_dir_all(root.join("results")).expect("results dir");
    let collapsed_path = root.join("results/flame_perf.txt");
    std::fs::write(&collapsed_path, profile.to_collapsed()).expect("write collapsed flamegraph");
    println!(
        "wrote {} (flamegraph-collapsed; render with flamegraph.pl)",
        collapsed_path.display()
    );

    // The introspection reports CI uploads next to BENCH_perf.json:
    // the contention rig (history over the contended runs, stripe
    // top-K, trace tail, profile), the overhead rig (scrub, canary,
    // and SLO verdict after a full pass), and the Zipf attribution rig
    // (top-K talkers, fairness split).
    for (name, report) in [
        ("introspect_contention", conc_rig.server.introspect()),
        ("introspect_overhead", introspection.report),
        ("introspect_attribution", meter_attr.report),
    ] {
        let path = root.join(format!("results/{name}.json"));
        std::fs::write(&path, report).expect("write introspection report");
        println!("wrote {}", path.display());
    }

    let baseline_path = root.join("results/bench_baseline.json");
    if update_baseline {
        std::fs::write(&baseline_path, build_baseline(&results, ref_ms, local_mbps))
            .expect("write baseline");
        println!("wrote {} (baseline refreshed)", baseline_path.display());
    } else if let Ok(baseline_text) = std::fs::read_to_string(&baseline_path) {
        let baseline = json::parse(&baseline_text).expect("baseline parses");
        failures.extend(check_gate(&results, &baseline, ref_ms));
    } else {
        println!(
            "no baseline at {} — run with --update-baseline to create one (regression gate passes vacuously)",
            baseline_path.display()
        );
    }
    if failures.is_empty() {
        println!(
            "perf gate PASSED ({} workloads + concurrency)",
            results.len()
        );
    } else {
        for f in &failures {
            println!("perf gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// Prints the off/on comparison of the metadata-hot runs: the cache's
/// acceptance evidence is a measurable drop in GCM invocations and
/// untrusted-store reads, not just wall-clock.
fn print_cache_evidence(evidence: &[CacheEvidence]) {
    for e in evidence {
        if e.cache {
            println!(
                "  {:<22} pfs_decrypts={:<6} store_gets={:<6} hits={} misses={} fills={} hit_ratio={:.1}%",
                e.name,
                e.pfs_decrypts,
                e.store_gets,
                e.hits,
                e.misses,
                e.fills,
                e.hit_ratio() * 100.0,
            );
        } else {
            println!(
                "  {:<22} pfs_decrypts={:<6} store_gets={:<6}",
                e.name, e.pfs_decrypts, e.store_gets,
            );
        }
    }
    let (Some(off), Some(on)) = (
        evidence.iter().find(|e| !e.cache),
        evidence.iter().find(|e| e.cache),
    ) else {
        return;
    };
    let drop_pct = |off: u64, on: u64| {
        if off == 0 {
            0.0
        } else {
            (1.0 - on as f64 / off as f64) * 100.0
        }
    };
    println!(
        "  -> cache removes {:.1}% of GCM invocations and {:.1}% of store reads on the metadata-hot mix",
        drop_pct(off.pfs_decrypts, on.pfs_decrypts),
        drop_pct(off.store_gets, on.store_gets),
    );
}

/// Compares each workload's calibrated wall-clock mean against the
/// baseline. Returns human-readable failure lines (empty = pass).
fn check_gate(results: &[WorkloadResult], baseline: &Json, ref_ms: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(ops) = baseline.get("ops").and_then(Json::as_obj) else {
        return vec!["baseline has no \"ops\" object".to_string()];
    };
    let Some(base_ref_ms) = baseline.get("ref_kernel_ms").and_then(Json::as_f64) else {
        return vec![
            "baseline has no \"ref_kernel_ms\" (written before the reference-kernel \
             calibration): re-run with --update-baseline"
                .to_string(),
        ];
    };
    // Host drift since the baseline: >1 when this host runs the frozen
    // kernel faster than the baseline's did.
    let host_scale = base_ref_ms / ref_ms;
    println!(
        "  calibration: reference kernel {ref_ms:.2} ms now vs {base_ref_ms:.2} ms at baseline \
         (means scaled by {host_scale:.3})"
    );
    for r in results {
        let Some(base) = ops.get(r.name) else {
            println!(
                "  {:<18} new workload (no baseline entry) — skipped",
                r.name
            );
            continue;
        };
        let base_mean = base.get("mean_s").and_then(Json::as_f64).unwrap_or(0.0);
        let base_ci = base.get("ci95_s").and_then(Json::as_f64).unwrap_or(0.0);
        if base_mean <= 0.0 {
            continue;
        }
        let now_mean = r.measured.mean_s * host_scale;
        let regression = (now_mean - base_mean) / base_mean;
        // Noise-aware threshold: whichever is largest of the fixed 15 %
        // floor, 3× the wider of the two runs' confidence intervals,
        // and the absolute slack — all relative to the baseline mean.
        let ci = (r.measured.ci95_s() * host_scale).max(base_ci);
        let threshold = MIN_THRESHOLD
            .max(CI_MULTIPLIER * ci / base_mean)
            .max(ABS_SLACK_S / base_mean);
        let failed = regression > threshold;
        println!(
            "  {:<18} base={:<10} now={:<10} change={:+6.1}% threshold={:5.1}% {}",
            r.name,
            fmt_s(base_mean),
            fmt_s(now_mean),
            regression * 100.0,
            threshold * 100.0,
            if failed { "FAIL" } else { "ok" },
        );
        if failed {
            failures.push(format!(
                "{}: calibrated mean {} vs baseline {} ({:+.1}% > {:.1}% threshold)",
                r.name,
                fmt_s(now_mean),
                fmt_s(base_mean),
                regression * 100.0,
                threshold * 100.0,
            ));
        }
    }
    failures
}

/// Writes `rows` as the body of a JSON object or array: one row per
/// line at `indent`, comma-separated.
fn push_rows(out: &mut String, indent: &str, rows: impl Iterator<Item = String>) {
    let rows: Vec<String> = rows.collect();
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "{indent}{row}{comma}");
    }
}

/// The committed baseline: the reference-kernel time it was taken at
/// plus per-workload wall-clock mean + CI95 (what the gate compares).
/// The GCM throughput and the paper projection are recorded for
/// context only.
fn build_baseline(results: &[WorkloadResult], ref_ms: f64, local_mbps: f64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"ref_kernel_ms\": {ref_ms:.3},");
    let _ = writeln!(out, "  \"gcm_mbps\": {local_mbps:.1},");
    out.push_str("  \"ops\": {\n");
    push_rows(
        &mut out,
        "    ",
        results.iter().map(|r| {
            format!(
                "\"{}\": {{\"mean_s\": {:.9}, \"ci95_s\": {:.9}, \"norm_mean_s\": {:.9}}}",
                r.name,
                r.measured.mean_s,
                r.measured.ci95_s(),
                r.norm_mean_s
            )
        }),
    );
    out.push_str("  }\n}\n");
    out
}

/// The full machine-readable report: per-workload wall-clock and
/// normalized stats, protocol-op latency quantiles from the metrics
/// snapshot, and per-phase self-times from the profiler.
#[allow(clippy::too_many_arguments)]
fn build_report(
    results: &[WorkloadResult],
    ref_ms: f64,
    local_mbps: f64,
    snapshot: &seg_obs::Snapshot,
    profile: &seg_obs::ProfSnapshot,
    cache_evidence: &[CacheEvidence],
    conc_points: &[ConcurrencyPoint],
    contention: &[ContentionEvidence],
    dur_points: &[DurabilityPoint],
    c10k: &C10kEvidence,
    introspection: &IntrospectionOverheadEvidence,
    meter_attr: &MeterAttributionEvidence,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"ref_kernel_ms\": {ref_ms:.3},");
    let _ = writeln!(out, "  \"gcm_mbps\": {local_mbps:.1},");

    out.push_str("  \"workloads\": {\n");
    push_rows(
        &mut out,
        "    ",
        results.iter().map(|r| {
            format!(
                "\"{}\": {{\"mean_s\": {:.9}, \"sd_s\": {:.9}, \"ci95_s\": {:.9}, \
                 \"warmup_s\": {:.9}, \"runs\": {}, \"norm_mean_s\": {:.9}}}",
                r.name,
                r.measured.mean_s,
                r.measured.sd_s,
                r.measured.ci95_s(),
                r.measured.warmup_s,
                r.measured.runs,
                r.norm_mean_s,
            )
        }),
    );
    out.push_str("  },\n");

    // Per-protocol-op latency quantiles (wall-clock nanoseconds).
    out.push_str("  \"ops\": {\n");
    let op_rows = snapshot
        .histograms
        .iter()
        .filter(|(id, s)| id.name() == "seg_request_latency_ns" && s.count > 0)
        .map(|(id, s)| {
            let op = id.labels().first().map(|&(_, v)| v).unwrap_or("?");
            format!(
                "\"{op}\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}}}",
                s.count, s.p50, s.p95
            )
        });
    push_rows(&mut out, "    ", op_rows);
    out.push_str("  },\n");

    // Per-phase self time across all operations, grouped by leaf phase
    // (simulated time folded in), with a normalized-seconds column.
    let all_ops: Vec<&str> = profile
        .entries
        .iter()
        .map(seg_obs::ProfEntry::op)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let breakdown = profile.phase_breakdown(&all_ops);
    out.push_str("  \"phases\": {\n");
    push_rows(
        &mut out,
        "    ",
        breakdown.iter().map(|(leaf, ns)| {
            let norm_s = normalize_processing(*ns as f64 * 1e-9, local_mbps);
            format!("\"{leaf}\": {{\"self_ns\": {ns}, \"norm_self_s\": {norm_s:.9}}}")
        }),
    );
    out.push_str("  },\n");

    // Object-cache ablation evidence from the metadata-hot runs: the
    // work the cache removes, in units the gate's normalization can't
    // blur (GCM invocations and untrusted-store reads are counts).
    out.push_str("  \"cache\": {\n");
    push_rows(
        &mut out,
        "    ",
        cache_evidence.iter().map(|e| {
            format!(
                "\"{}\": {{\"cache\": {}, \"pfs_decrypts\": {}, \"store_gets\": {}, \
                 \"hits\": {}, \"misses\": {}, \"fills\": {}, \"hit_ratio\": {:.4}}}",
                e.name,
                e.cache,
                e.pfs_decrypts,
                e.store_gets,
                e.hits,
                e.misses,
                e.fills,
                e.hit_ratio(),
            )
        }),
    );
    out.push_str("  },\n");

    // The thread-scaling matrix: aggregate throughput per (mix, lock
    // mode, thread count) on the store-latency-bound rig, plus the
    // derived 8-thread speedup the gate enforces.
    out.push_str("  \"concurrency\": {\n");
    let _ = writeln!(
        out,
        "    \"store_delay_us\": {},",
        CONC_STORE_DELAY.as_micros()
    );
    out.push_str("    \"points\": [\n");
    push_rows(
        &mut out,
        "      ",
        conc_points.iter().map(|p| {
            format!(
                "{{\"mix\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \"ops_per_s\": {:.3}}}",
                p.mix, p.mode, p.threads, p.ops_per_s
            )
        }),
    );
    out.push_str("    ],\n");
    let speedup = conc_point(conc_points, "disjoint", "fine", 8).ops_per_s
        / conc_point(conc_points, "disjoint", "coarse", 8).ops_per_s;
    let _ = writeln!(out, "    \"speedup_8t_disjoint\": {speedup:.3}");
    out.push_str("  },\n");

    // Lock-wait attribution from the seg-watch plane: windowed
    // `seg_lock_wait_ns` per key class and intent for the overlapping
    // vs disjoint 8-thread runs, plus the hottest stripes. This is the
    // measured explanation for the overlapping mix's ~1x scaling.
    out.push_str("  \"contention\": {\n");
    let mixes = contention.iter().map(|e| {
        let mut mix = format!("\"{}\": {{\n      \"lock_wait\": [\n", e.mix);
        let waits = e.waits.iter().map(|(class, intent, sum, count)| {
            format!(
                "{{\"class\": \"{class}\", \"intent\": \"{intent}\", \
                 \"wait_ns\": {sum}, \"acquisitions\": {count}}}"
            )
        });
        push_rows(&mut mix, "        ", waits);
        mix.push_str("      ],\n      \"top_stripes\": [\n");
        let stripes = e.top.iter().map(|s| {
            format!(
                "{{\"stripe\": {}, \"wait_ns\": {}, \"waits\": {}}}",
                s.stripe, s.wait_ns, s.waits
            )
        });
        push_rows(&mut mix, "        ", stripes);
        mix.push_str("      ]\n    }");
        mix
    });
    push_rows(&mut out, "    ", mixes);
    out.push_str("  },\n");

    // The durability comparison: aggregate throughput and backend
    // fsync/batch tallies for group commit vs per-operation fsync on
    // identical WAL rigs, plus the derived speedup the gate enforces.
    out.push_str("  \"durability\": {\n");
    let _ = writeln!(out, "    \"fsync_us\": {DUR_FSYNC_US},");
    let _ = writeln!(out, "    \"sessions\": {DUR_SESSIONS},");
    out.push_str("    \"points\": [\n");
    push_rows(
        &mut out,
        "      ",
        dur_points.iter().map(|p| {
            format!(
                "{{\"mode\": \"{}\", \"ops_per_s\": {:.3}, \"fsyncs\": {}, \"batches\": {}}}",
                p.mode, p.ops_per_s, p.fsyncs, p.batches
            )
        }),
    );
    out.push_str("    ],\n");
    let speedup = |mode: &str| {
        dur_points
            .iter()
            .find(|p| p.mode == mode)
            .map_or(0.0, |p| p.ops_per_s)
    };
    let _ = writeln!(
        out,
        "    \"speedup_group_commit\": {:.3}",
        speedup("group_commit") / speedup("naive_fsync").max(f64::MIN_POSITIVE),
    );
    out.push_str("  },\n");

    // The c10k section: idle-hold footprint and service evidence, the
    // reactor-vs-threaded scaling curve, and the saturation ratio the
    // gate enforces.
    out.push_str("  \"c10k\": {\n");
    let _ = writeln!(out, "    \"idle_conns\": {},", c10k.idle_conns);
    let _ = writeln!(
        out,
        "    \"idle_kib_per_conn\": {:.2},",
        c10k.idle_kib_per_conn
    );
    let _ = writeln!(
        out,
        "    \"idle_budget_kib_per_conn\": {C10K_MAX_IDLE_KIB_PER_CONN},"
    );
    let _ = writeln!(out, "    \"idle_all_live\": {},", c10k.idle_all_live);
    let _ = writeln!(
        out,
        "    \"responsive_at_scale\": {},",
        c10k.responsive_at_scale
    );
    out.push_str("    \"curve\": [\n");
    push_rows(
        &mut out,
        "      ",
        c10k.curve.iter().map(|p| {
            format!(
                "{{\"mode\": \"{}\", \"sessions\": {}, \"ops_per_s\": {:.3}}}",
                p.mode, p.sessions, p.ops_per_s
            )
        }),
    );
    out.push_str("    ],\n");
    let _ = writeln!(
        out,
        "    \"saturation_ratio\": {:.3},",
        c10k.saturation_ratio()
    );
    let _ = writeln!(
        out,
        "    \"saturation_ratio_floor\": {C10K_MIN_SATURATION_RATIO}"
    );
    out.push_str("  },\n");

    // Introspection's measured cost (all on vs all off), with the
    // background work that ran during the measurement so "cheap because
    // idle" is ruled out, and the Zipf attribution evidence (recall of
    // true top talkers under bounded cardinality).
    let _ = writeln!(
        out,
        "  \"introspection\": {{\"on_s\": {:.9}, \"off_s\": {:.9}, \"overhead\": {:.6}, \
         \"budget\": {INTROSPECTION_MAX_OVERHEAD}, \"scrub_passes\": {}, \"canary_probes\": {}}},",
        introspection.on_s,
        introspection.off_s,
        introspection.overhead(),
        introspection.scrub_passes,
        introspection.canary_probes,
    );
    let _ = writeln!(
        out,
        "  \"attribution\": {{\"principals\": {}, \"ops\": {}, \"recalled_top8\": {}, \
         \"tracked\": {}, \"evictions\": {}}},",
        meter_attr.principals,
        meter_attr.ops,
        meter_attr.recalled_top8,
        meter_attr.tracked,
        meter_attr.evictions,
    );

    let _ = writeln!(out, "  \"unbalanced_phases\": {}", profile.unbalanced);
    out.push_str("}\n");
    out
}
