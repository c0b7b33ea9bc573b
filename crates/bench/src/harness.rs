//! Shared plumbing for the table/figure regenerators.

use std::sync::Arc;
use std::time::{Duration, Instant};

use seg_net::simwan::WanProfile;
use seg_store::{MemStore, ObjectStore, StoreError};
use segshare::{Client, EnclaveConfig, EnrolledUser, FsoSetup, SegShareServer};

/// The AES-GCM throughput the paper's server hardware sustains
/// (AES-NI + PCLMUL on a Xeon E-2176G, conservatively 2 GB/s). Used to
/// produce the hardware-projected latency column, for comparison with
/// the paper's figures only. On hosts with AES-NI, `seg_crypto`'s GCM
/// runs its hardware backend and the projection is roughly 1×; on
/// hosts that fall back to the portable backend (~10–20× slower) it
/// removes that gap, since at 100 MB+ sizes crypto is the dominant
/// processing term. No gate uses it: it scales by the code under test.
pub const HW_GCM_MBPS: f64 = 2000.0;

/// Mean and spread of repeated measurements.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Mean seconds (warm-up excluded).
    pub mean_s: f64,
    /// Sample standard deviation in seconds.
    pub sd_s: f64,
    /// Number of runs (excluding warm-up).
    pub runs: usize,
    /// The discarded warm-up iteration's own time in seconds —
    /// reported separately so it can be inspected, never mixed into
    /// `mean_s`/`sd_s`.
    pub warmup_s: f64,
}

impl Measured {
    /// Half-width of the 95 % confidence interval (normal
    /// approximation, matching the paper's error bars).
    #[must_use]
    pub fn ci95_s(&self) -> f64 {
        if self.runs < 2 {
            return 0.0;
        }
        1.96 * self.sd_s / (self.runs as f64).sqrt()
    }
}

/// Times `runs` executions of `f`, after one warm-up iteration that is
/// timed but *discarded* (reported as [`Measured::warmup_s`]) — cold
/// caches, lazy initialization, and first-touch page faults land there
/// instead of skewing the mean.
pub fn measure<F: FnMut()>(runs: usize, mut f: F) -> Measured {
    let warmup_start = Instant::now();
    f(); // warm-up: timed, excluded from the samples
    let warmup_s = warmup_start.elapsed().as_secs_f64();
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = if samples.len() > 1 {
        samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
    } else {
        0.0
    };
    Measured {
        mean_s: mean,
        sd_s: var.sqrt(),
        runs,
        warmup_s,
    }
}

/// Measures the local GCM throughput (MB/s), on whichever backend
/// `Gcm::new` picks here, for the hardware-projected column.
///
/// Seals a warm 1 MiB buffer in place 32 times, so page faults on a
/// fresh 32 MiB output do not count as crypto time.
#[must_use]
pub fn local_gcm_mbps() -> f64 {
    let gcm = seg_crypto::gcm::Gcm::new(&[7u8; 16]).expect("valid key");
    let mut data = vec![0u8; 1 << 20];
    let iv = [1u8; 12];
    gcm.seal_in_place(&iv, b"", &mut data); // warm-up: touches every page
    let start = Instant::now();
    for _ in 0..32 {
        std::hint::black_box(gcm.seal_in_place(&iv, b"", &mut data));
    }
    32.0 / start.elapsed().as_secs_f64()
}

/// Scales a measured processing time to what the paper's AES-NI-class
/// hardware would take, assuming the processing is crypto-dominated
/// (true for multi-megabyte transfers). A projection for comparing
/// with the paper, never a gate input.
#[must_use]
pub fn normalize_processing(measured_s: f64, local_mbps: f64) -> f64 {
    measured_s * (local_mbps / HW_GCM_MBPS)
}

/// An [`ObjectStore`] wrapper that sleeps before every backend
/// round-trip, modeling the paper's deployment where the enclave talks
/// to a *remote* store (§VI runs against Azure blob storage across
/// regions). In-memory stores answer in nanoseconds, which hides the
/// one effect fine-grained locking exists to exploit: store latency
/// under one object's lock can overlap store latency under another's.
/// The concurrency workloads in `perf_gate` use this wrapper so the
/// scaling curve measures lock overlap, not host core count — threads
/// blocked in simulated store I/O release the CPU, so the curve is
/// meaningful even on a single-core CI runner.
pub struct LatencyStore {
    inner: MemStore,
    delay: Duration,
}

impl LatencyStore {
    /// Wraps a fresh [`MemStore`] adding `delay` per get/put/delete/
    /// exists round-trip. Listing (used by restart recovery, not the
    /// request path) is left fast so setup stays cheap.
    #[must_use]
    pub fn new(delay: Duration) -> LatencyStore {
        LatencyStore {
            inner: MemStore::new(),
            delay,
        }
    }

    fn roundtrip(&self) {
        std::thread::sleep(self.delay);
    }
}

impl ObjectStore for LatencyStore {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.roundtrip();
        self.inner.get(key)
    }
    fn get_arc(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.roundtrip();
        self.inner.get_arc(key)
    }
    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.roundtrip();
        self.inner.put(key, value)
    }
    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        self.roundtrip();
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        self.roundtrip();
        self.inner.exists(key)
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }
}

/// Reactor sizing for latency-bound rigs: the [`LatencyStore`] /
/// simulated-fsync workloads spend their time waiting on the store,
/// not on enclave CPU, so the worker pool must cover the benchmark's
/// session fan-out (up to 8 concurrent sessions) or the pool itself
/// becomes the bottleneck under measurement. The threaded front end
/// gets this for free (one thread per session); this keeps the two
/// front ends comparable. Operational deployments with slow backends
/// should size `workers` the same way (see OPERATIONS.md).
fn latency_bound_reactor() -> seg_net::reactor::ReactorConfig {
    seg_net::reactor::ReactorConfig {
        workers: 16,
        ..seg_net::reactor::ReactorConfig::default()
    }
}

/// A ready-to-use deployment: server plus an enrolled user.
pub struct Rig {
    /// The setup context (CA, stores, platform).
    pub setup: FsoSetup,
    /// The running server.
    pub server: SegShareServer,
    /// An enrolled user.
    pub alice: EnrolledUser,
}

impl Rig {
    /// Builds an in-memory deployment with `config`.
    #[must_use]
    pub fn new(config: EnclaveConfig) -> Rig {
        let setup = FsoSetup::new_in_memory("bench-ca", config);
        let server = setup.server().expect("setup succeeds");
        let alice = setup
            .enroll_user("alice", "alice@bench", "Alice")
            .expect("enroll succeeds");
        Rig {
            setup,
            server,
            alice,
        }
    }

    /// Builds a deployment over a fresh write-ahead-logged store in
    /// `dir` with `wal` tuning — the rig for the durability workloads
    /// (group commit vs per-operation fsync).
    #[must_use]
    pub fn with_wal(
        config: EnclaveConfig,
        dir: impl AsRef<std::path::Path>,
        wal: seg_store::WalConfig,
    ) -> Rig {
        let setup = FsoSetup::new_wal_with("bench-ca", config, seg_sgx::Platform::new(), dir, wal)
            .expect("wal store opens");
        let server = setup.server().expect("setup succeeds");
        server.set_reactor_config(latency_bound_reactor());
        let alice = setup
            .enroll_user("alice", "alice@bench", "Alice")
            .expect("enroll succeeds");
        Rig {
            setup,
            server,
            alice,
        }
    }

    /// Builds a deployment whose three stores each add `delay` per
    /// round-trip (see [`LatencyStore`]) — the rig for the concurrency
    /// scaling workloads.
    #[must_use]
    pub fn with_store_latency(config: EnclaveConfig, delay: Duration) -> Rig {
        let setup = FsoSetup::with_stores(
            "bench-ca",
            config,
            seg_sgx::Platform::new(),
            Arc::new(LatencyStore::new(delay)),
            Arc::new(LatencyStore::new(delay)),
            Arc::new(LatencyStore::new(delay)),
        );
        let server = setup.server().expect("setup succeeds");
        server.set_reactor_config(latency_bound_reactor());
        let alice = setup
            .enroll_user("alice", "alice@bench", "Alice")
            .expect("enroll succeeds");
        Rig {
            setup,
            server,
            alice,
        }
    }

    /// Connects a fresh client session for `alice`.
    #[must_use]
    pub fn client(&self) -> Client<seg_net::ChannelTransport> {
        self.server
            .connect_local(&self.alice)
            .expect("local connect succeeds")
    }
}

/// Prints the telemetry sidecar for a server run: per-operation latency
/// quantiles, enclave-boundary crossings, and per-store byte totals
/// from the server's [`SegShareServer::metrics_snapshot`].
///
/// Cumulative since boot — prefer [`print_metrics_sidecar_since`] with
/// a baseline snapshot taken after warmup/prefill, so the sidecar
/// describes only the measured window.
pub fn print_metrics_sidecar(server: &SegShareServer) {
    print_metrics_sidecar_since(server, None);
}

/// Like [`print_metrics_sidecar`], but windowed: when `since` is given,
/// every counter and histogram is differenced against it
/// ([`seg_obs::Snapshot::delta`]), so warmup and prefill traffic done
/// before the baseline snapshot does not pollute the reported
/// quantiles or byte totals.
pub fn print_metrics_sidecar_since(server: &SegShareServer, since: Option<&seg_obs::Snapshot>) {
    let now = server.metrics_snapshot();
    let (snap, label) = match since {
        Some(base) => (now.delta(base), "windowed"),
        None => (now, "cumulative"),
    };
    println!("  -- metrics sidecar ({label}) --");
    for (id, h) in &snap.histograms {
        if id.name() != "seg_request_latency_ns" || h.count == 0 {
            continue;
        }
        let op = id.labels().first().map(|&(_, v)| v).unwrap_or("?");
        println!(
            "  {:<14} n={:<7} p50={:<12} p95={:<12} p99={}",
            op,
            h.count,
            fmt_s(h.p50 as f64 * 1e-9),
            fmt_s(h.p95 as f64 * 1e-9),
            fmt_s(h.p99 as f64 * 1e-9),
        );
    }
    println!(
        "  boundary: {} ecalls, {} ocalls",
        snap.counter("seg_boundary_ecalls_total").unwrap_or(0),
        snap.counter("seg_boundary_ocalls_total").unwrap_or(0),
    );
    for store in ["content", "group", "dedup"] {
        let read = snap
            .counter(&format!("seg_store_bytes_read_total{{store=\"{store}\"}}"))
            .unwrap_or(0);
        let written = snap
            .counter(&format!(
                "seg_store_bytes_written_total{{store=\"{store}\"}}"
            ))
            .unwrap_or(0);
        if read > 0 || written > 0 {
            println!("  store {store}: {read} B read, {written} B written");
        }
    }
    let emitted = snap.counter("seg_trace_events_total").unwrap_or(0);
    let dropped = snap.counter("seg_trace_dropped_total").unwrap_or(0);
    let audited = snap.counter("seg_audit_records_total").unwrap_or(0);
    let audit_bytes = snap.counter("seg_audit_bytes_total").unwrap_or(0);
    println!(
        "  trace: {emitted} events ({dropped} dropped), {} slow; audit: {audited} records, {audit_bytes} B",
        server.slow_requests(usize::MAX).len(),
    );
}

/// The WAN used by every figure (the paper's two-region testbed).
#[must_use]
pub fn wan() -> WanProfile {
    WanProfile::azure_two_region()
}

/// Formats seconds as the paper does (s with two decimals, or ms).
#[must_use]
pub fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.2} ms", s * 1000.0)
    }
}

/// Simple `--flag value` argument lookup.
#[must_use]
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare `--flag` is present.
#[must_use]
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}
