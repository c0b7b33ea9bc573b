//! Deployment plumbing: the file-system owner's setup (CA, attestation,
//! enrollment) and the running server.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use seg_crypto::ed25519::{PublicKey, SecretKey, Signature};
use seg_crypto::rng::{DeterministicRng, SystemRng};
use seg_crypto::sha256::Sha256;
use seg_fs::UserId;
use seg_net::reactor::{ReactorConfig, ReactorHandle};
use seg_net::{duplex, ChannelTransport, FrameTransport};
use seg_pki::{Certificate, CertificateAuthority, Identity};
use seg_sgx::Platform;
use seg_store::{MemStore, ObjectStore, PrefixStore, WalConfig, WalStore};

use crate::client::Client;
use crate::config::EnclaveConfig;
use crate::enclave::SegShareEnclave;
use crate::error::SegShareError;
use crate::untrusted::reactor::ReactorDispatcher;
use crate::untrusted::serve_connection;

/// Certificate validity horizon used by [`FsoSetup`] (logical seconds).
const VALIDITY_END: u64 = 1 << 40;

/// The domain-separated message the CA signs to authorize a backup
/// restoration (§V-G "the CA can send a signed reset message").
pub const RESET_MESSAGE: &[u8] = b"segshare-backup-reset-v1";

/// A user's enrollment material: everything the user application stores
/// (P1 — constant client storage).
#[derive(Clone)]
pub struct EnrolledUser {
    /// The user's identity.
    pub user_id: UserId,
    /// The CA-issued client certificate.
    pub certificate: Certificate,
    /// The matching secret key.
    pub secret_key: SecretKey,
    /// The CA's verification key (pre-distributed trust anchor).
    pub ca_key: PublicKey,
    /// The user's clock (logical unix seconds) for validity checks.
    pub now: u64,
}

impl std::fmt::Debug for EnrolledUser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EnrolledUser({})", self.user_id)
    }
}

/// The file-system owner's setup context: CA, platform, and stores.
pub struct FsoSetup {
    ca: CertificateAuthority,
    config: EnclaveConfig,
    platform: Platform,
    content: Arc<dyn ObjectStore>,
    group: Arc<dyn ObjectStore>,
    dedup: Arc<dyn ObjectStore>,
}

impl std::fmt::Debug for FsoSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsoSetup").field("ca", &self.ca).finish()
    }
}

impl FsoSetup {
    /// A setup with in-memory stores and a fresh simulated platform —
    /// the default for tests, examples, and benchmarks.
    #[must_use]
    pub fn new_in_memory(ca_name: &str, config: EnclaveConfig) -> FsoSetup {
        FsoSetup::with_stores(
            ca_name,
            config,
            Platform::new(),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        )
    }

    /// A setup over one shared write-ahead-logged store rooted at
    /// `dir`: the three logical stores become prefixed views of a
    /// single log, so one request's writes across all of them commit
    /// as one atomic, singly-fsynced frame. Pairs with
    /// [`EnclaveConfig::batch`]. Reopening the same directory recovers
    /// the committed state.
    ///
    /// # Errors
    ///
    /// Propagates log-recovery failures from [`WalStore::open_with`].
    pub fn new_wal(
        ca_name: &str,
        config: EnclaveConfig,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<FsoSetup, SegShareError> {
        FsoSetup::new_wal_with(ca_name, config, Platform::new(), dir, WalConfig::default())
    }

    /// [`FsoSetup::new_wal`] with a deployment identity derived from
    /// `seed`: the CA key pair and the platform's sealing identity are
    /// both deterministic, so a *second process* reopening the same
    /// directory with the same seed can unseal the first process's
    /// root and server keys. This is the simulated stand-in for "the
    /// FSO keeps its CA key and the server restarts on the same
    /// machine" — real deployments load those identities from key
    /// storage instead of deriving them.
    ///
    /// # Errors
    ///
    /// Propagates log-recovery failures from [`WalStore::open_with`].
    pub fn new_wal_persistent(
        ca_name: &str,
        config: EnclaveConfig,
        dir: impl AsRef<std::path::Path>,
        seed: u64,
    ) -> Result<FsoSetup, SegShareError> {
        let mut setup = FsoSetup::new_wal_with(
            ca_name,
            config,
            Platform::new_with_seed(seed),
            dir,
            WalConfig::default(),
        )?;
        setup.ca = CertificateAuthority::new(ca_name, &mut DeterministicRng::seeded(seed));
        Ok(setup)
    }

    /// [`FsoSetup::new_wal`] with a caller-provided platform and WAL
    /// tuning — crash tests reuse one platform (its monotonic counters
    /// survive the "crash") and script failpoints via
    /// [`WalConfig::fault`].
    ///
    /// # Errors
    ///
    /// Propagates log-recovery failures from [`WalStore::open_with`].
    pub fn new_wal_with(
        ca_name: &str,
        config: EnclaveConfig,
        platform: Platform,
        dir: impl AsRef<std::path::Path>,
        wal: WalConfig,
    ) -> Result<FsoSetup, SegShareError> {
        let wal = Arc::new(WalStore::open_with(dir, wal)?);
        let (content, group, dedup) = wal_views(&wal);
        Ok(FsoSetup::with_stores(
            ca_name, config, platform, content, group, dedup,
        ))
    }

    /// A setup over caller-provided stores and platform (on-disk
    /// deployments, adversarial wrappers, instrumentation).
    #[must_use]
    pub fn with_stores(
        ca_name: &str,
        config: EnclaveConfig,
        platform: Platform,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
    ) -> FsoSetup {
        FsoSetup {
            ca: CertificateAuthority::new(ca_name, &mut SystemRng::new()),
            config,
            platform,
            content,
            group,
            dedup,
        }
    }

    /// The CA (its public key is the system's trust anchor).
    #[must_use]
    pub fn ca(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// Rebinds this setup to new stores while keeping its CA and
    /// platform. Crash tests use this to model a reboot: re-open the
    /// WAL directory after a simulated crash and relaunch the enclave
    /// with the same identity (sealed keys bind to the CA-dependent
    /// measurement, so a fresh setup could not unseal them).
    pub fn set_stores(
        &mut self,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
    ) {
        self.content = content;
        self.group = group;
        self.dedup = dedup;
    }

    /// The simulated SGX platform the server runs on.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Launches the enclave and performs the §IV-A setup phase: remote
    /// attestation (quote verification against the *expected*
    /// measurement for this CA and configuration), CSR exchange, and
    /// server-certificate installation.
    ///
    /// # Errors
    ///
    /// Fails if attestation or certification fails.
    pub fn server(&self) -> Result<SegShareServer, SegShareError> {
        let enclave = SegShareEnclave::launch(
            &self.platform,
            self.config,
            self.ca.public_key(),
            Arc::clone(&self.content),
            Arc::clone(&self.group),
            Arc::clone(&self.dedup),
        )?;
        self.certify(&enclave, &self.platform)?;
        Ok(SegShareServer::new(enclave))
    }

    fn certify(
        &self,
        enclave: &Arc<SegShareEnclave>,
        platform: &Platform,
    ) -> Result<(), SegShareError> {
        let (csr, quote) = enclave.certification_request("segshare");
        // "if the CA receives the expected measurement, it is assured to
        // communicate with an enclave that was built specifically for
        // this CA" (§IV-A).
        let measurement = quote.verify(&platform.attestation_public_key())?;
        let expected = SegShareEnclave::image(&self.config, &self.ca.public_key()).measurement();
        if measurement != expected {
            return Err(SegShareError::Protocol(
                "enclave measurement does not match the expected image".to_string(),
            ));
        }
        // The quote binds this CSR: report data is its hash.
        let csr_hash = Sha256::digest(&csr.encode());
        if quote.report_data()[..32] != csr_hash {
            return Err(SegShareError::Protocol(
                "attestation quote does not bind the CSR".to_string(),
            ));
        }
        let cert = self.ca.issue_server_from_csr(&csr, 0, VALIDITY_END)?;
        enclave.install_certificate(cert)
    }

    /// Launches a *replica* server on `replica_platform` against the
    /// same central data repository (§V-F): the replica attests to the
    /// root enclave (equal measurements), receives `SK_r`, and is then
    /// certified like any server.
    ///
    /// # Errors
    ///
    /// Fails if mutual attestation or certification fails.
    pub fn replica(
        &self,
        source: &SegShareServer,
        replica_platform: &Platform,
    ) -> Result<SegShareServer, SegShareError> {
        // The replica enclave proves its identity with a quote...
        let image = SegShareEnclave::image(&self.config, &self.ca.public_key());
        let probe = replica_platform.launch(&image);
        let quote = probe.quote(b"segshare-replication");
        // ...and the root enclave releases SK_r only to an identical
        // enclave on a genuine platform.
        let root_key = source
            .enclave
            .export_root_key(&quote, &replica_platform.attestation_public_key())?;
        let enclave = SegShareEnclave::launch_with_root_key(
            replica_platform,
            self.config,
            self.ca.public_key(),
            Arc::clone(&self.content),
            Arc::clone(&self.group),
            Arc::clone(&self.dedup),
            root_key,
        )?;
        self.certify(&enclave, replica_platform)?;
        Ok(SegShareServer::new(enclave))
    }

    /// Enrolls a user: the CA validates the identity out of band and
    /// issues a client certificate (§IV-A "Establish enclave trust in
    /// users").
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Pki`] for malformed identities.
    pub fn enroll_user(
        &self,
        user_id: &str,
        email: &str,
        full_name: &str,
    ) -> Result<EnrolledUser, SegShareError> {
        let identity = Identity::user(user_id, email, full_name)?;
        let (certificate, secret_key) =
            self.ca
                .issue_user(identity, 0, VALIDITY_END, &mut SystemRng::new());
        Ok(EnrolledUser {
            user_id: UserId::new(user_id)?,
            certificate,
            secret_key,
            ca_key: self.ca.public_key(),
            now: 1_000,
        })
    }

    /// Produces the CA-signed reset message authorizing a backup
    /// restoration (§V-G).
    #[must_use]
    pub fn signed_reset(&self) -> Signature {
        // The CA's long-term key doubles as the reset authority; a real
        // deployment would use a dedicated key, but the trust root is
        // the same.
        self.ca.sign_message(RESET_MESSAGE)
    }
}

/// Options for the background health runner
/// ([`SegShareServer::start_health`]).
#[derive(Clone)]
pub struct HealthOptions {
    /// An enrolled user reserved for the synthetic canary. When set,
    /// the runner probes the full loopback request path (TLS
    /// handshake, dispatch, store round-trip) against the canary's
    /// reserved `/canary` namespace on every canary interval.
    pub canary: Option<EnrolledUser>,
    /// The runner's sleep quantum (µs) between health ticks.
    pub tick_us: u64,
    /// Minimum microseconds between two canary probes.
    pub canary_interval_us: u64,
}

impl Default for HealthOptions {
    fn default() -> HealthOptions {
        HealthOptions {
            canary: None,
            tick_us: 20_000,
            canary_interval_us: 1_000_000,
        }
    }
}

impl std::fmt::Debug for HealthOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthOptions")
            .field("canary", &self.canary.is_some())
            .field("tick_us", &self.tick_us)
            .field("canary_interval_us", &self.canary_interval_us)
            .finish()
    }
}

/// The background health thread: stop flag plus join handle.
struct HealthRunner {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// Which connection front end serves local (and TCP) clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// The event-driven reactor: one epoll loop plus a bounded enclave
    /// worker pool (the default; connection count is O(fds)).
    Reactor,
    /// The seed-era thread-per-connection loop (kept for comparison
    /// benchmarks and as the CI equivalence baseline).
    Threaded,
}

/// Lazily started reactor front end plus its mode/config overrides.
struct FrontEndState {
    mode: Option<FrontEnd>,
    cfg: Option<ReactorConfig>,
    reactor: Option<Arc<ReactorHandle>>,
}

/// A running SeGShare server: the enclave plus its untrusted host.
pub struct SegShareServer {
    enclave: Arc<SegShareEnclave>,
    health_runner: Mutex<Option<HealthRunner>>,
    front_end: Mutex<FrontEndState>,
}

impl std::fmt::Debug for SegShareServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegShareServer")
            .field("enclave", &self.enclave)
            .finish()
    }
}

impl SegShareServer {
    fn new(enclave: Arc<SegShareEnclave>) -> SegShareServer {
        SegShareServer {
            enclave,
            health_runner: Mutex::new(None),
            front_end: Mutex::new(FrontEndState {
                mode: None,
                cfg: None,
                reactor: None,
            }),
        }
    }

    /// The enclave (statistics, configuration, counters).
    #[must_use]
    pub fn enclave(&self) -> &Arc<SegShareEnclave> {
        &self.enclave
    }

    /// A unified telemetry snapshot: per-operation request counts and
    /// latency quantiles, boundary crossings, EPC usage, and per-store
    /// I/O — the enclave's declassification point for aggregates (see
    /// [`SegShareEnclave::metrics_snapshot`]).
    #[must_use]
    pub fn metrics_snapshot(&self) -> seg_obs::Snapshot {
        self.enclave.metrics_snapshot()
    }

    /// The one introspection report — saturation, stalls, lock
    /// contention, windowed history, per-key attribution, health
    /// verdict, trace tail, slow log, and profile — as one JSON document
    /// (see [`SegShareEnclave::introspect`]). The same document the
    /// stall watchdog captures automatically (see
    /// [`WatchStats::last_dump`](crate::enclave::watch::WatchStats::last_dump)).
    ///
    /// Assembled exclusively from sanctioned declassification points;
    /// carries aggregate numbers and keyed fingerprints only.
    #[must_use]
    pub fn introspect(&self) -> String {
        self.enclave.introspect()
    }

    /// Turns introspection on or off — the one switch. Off means no
    /// per-request work (attribution, history sampling, watchdog, and
    /// the group/prefix HMACs), and an inert background sampler,
    /// scrubber, and canary. Lock and net accounting stay on either
    /// way, and accumulated state survives. On by default; benchmarks
    /// toggle this to measure the substrate's overhead.
    pub fn set_introspection(&self, on: bool) {
        self.enclave.set_introspection(on);
    }

    /// Starts the background health runner: a thread that samples the
    /// history and SLO state even while the server is idle, drives the integrity scrubber on
    /// [`EnclaveConfig::scrub_interval_us`], and (when
    /// [`HealthOptions::canary`] is set) issues synthetic loopback
    /// probes through the full request path. Idempotent — a second
    /// call while a runner lives is a no-op.
    pub fn start_health(&self, opts: HealthOptions) {
        let mut slot = self.health_runner.lock();
        if slot.is_some() {
            return;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let enclave = Arc::clone(&self.enclave);
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || run_health_loop(&enclave, &opts, &flag));
        *slot = Some(HealthRunner { stop, handle });
    }

    /// Stops and joins the background health runner (no-op if none is
    /// running). Also invoked on drop.
    pub fn stop_health(&self) {
        let runner = self.health_runner.lock().take();
        if let Some(runner) = runner {
            runner.stop.store(true, Ordering::Relaxed);
            let _ = runner.handle.join();
        }
    }

    /// Verifies the tamper-evident audit chain end to end, returning
    /// the record count (0 when auditing is disabled).
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] naming the detected tamper
    /// class (truncation, reorder/substitution, bit-flip, head
    /// rollback).
    pub fn audit_verify(&self) -> Result<u64, SegShareError> {
        self.enclave.audit_verify()
    }

    /// Decrypts and returns the verified audit chain — the audit
    /// trail's declassification point. Records carry stable keyed
    /// fingerprints instead of principal identities.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`SegShareServer::audit_verify`] fails.
    pub fn audit_export(&self) -> Result<Vec<crate::enclave::audit::AuditRecord>, SegShareError> {
        self.enclave.audit_export()
    }

    /// Runs one dedup-blob garbage-collection pass (see
    /// [`SegShareEnclave::blob_gc`]): reclaims blobs whose reference
    /// count dropped to zero, returning how many were deleted.
    ///
    /// # Errors
    ///
    /// Propagates storage and integrity failures.
    pub fn blob_gc(&self) -> Result<u64, SegShareError> {
        self.enclave.blob_gc()
    }

    /// Serves one connection to completion (run this per accepted
    /// transport, typically on its own thread).
    ///
    /// # Errors
    ///
    /// Returns session-fatal errors; clean disconnects are `Ok`.
    pub fn handle_connection<T: FrameTransport>(&self, transport: T) -> Result<(), SegShareError> {
        serve_connection(&self.enclave, transport)
    }

    /// The front end [`SegShareServer::connect_local`] and
    /// [`SegShareServer::serve_listener`] use: an explicit
    /// [`SegShareServer::set_front_end`] override wins, then the
    /// `SEGSHARE_FRONTEND` environment variable (`reactor` or
    /// `threaded` — how CI runs the same suites against both), then
    /// the default, [`FrontEnd::Reactor`].
    #[must_use]
    pub fn front_end(&self) -> FrontEnd {
        if let Some(mode) = self.front_end.lock().mode {
            return mode;
        }
        match std::env::var("SEGSHARE_FRONTEND").as_deref() {
            Ok("threaded") => FrontEnd::Threaded,
            _ => FrontEnd::Reactor,
        }
    }

    /// Overrides the front end used by subsequent connections
    /// (benchmarks compare modes; tests pin one).
    pub fn set_front_end(&self, mode: FrontEnd) {
        self.front_end.lock().mode = Some(mode);
    }

    /// Overrides the reactor's tuning. Takes effect when the reactor
    /// starts, i.e. before the first reactor-served connection.
    pub fn set_reactor_config(&self, cfg: ReactorConfig) {
        self.front_end.lock().cfg = Some(cfg);
    }

    /// The running reactor front end, started on first use: the
    /// dispatcher is wired to this enclave, the net meter is shared
    /// with the watch plane, and the reactor's gauges are published to
    /// the metrics exporter.
    pub fn reactor(&self) -> Arc<ReactorHandle> {
        let mut fe = self.front_end.lock();
        if let Some(handle) = &fe.reactor {
            return Arc::clone(handle);
        }
        let mut cfg = fe.cfg.clone().unwrap_or_default();
        cfg.net_meter = Some(Arc::clone(self.enclave.watch().net_meter()));
        let dispatcher = Arc::new(ReactorDispatcher::new(Arc::clone(&self.enclave)));
        let handle = Arc::new(ReactorHandle::start(cfg, dispatcher));
        self.enclave
            .watch()
            .set_reactor_stats(Arc::clone(handle.stats()));
        fe.reactor = Some(Arc::clone(&handle));
        handle
    }

    /// Serves a TCP listener through the reactor front end: accepts,
    /// backpressure, idle reaping, and shedding all happen on the
    /// event loop; enclave work runs on the reactor's worker pool.
    ///
    /// # Errors
    ///
    /// Fails on platforms without the epoll driver (TCP then requires
    /// the threaded front end via [`SegShareServer::handle_connection`]).
    pub fn serve_listener(&self, listener: std::net::TcpListener) -> Result<(), SegShareError> {
        self.reactor()
            .serve_listener(listener)
            .map_err(SegShareError::from)
    }

    /// Connects an in-process client and completes the handshake. With
    /// the reactor front end (default) the server side is a virtual
    /// reactor connection; with [`FrontEnd::Threaded`] it is the
    /// seed-era duplex pair served by a dedicated thread. Either way
    /// the client sees the same blocking [`ChannelTransport`].
    ///
    /// # Errors
    ///
    /// Returns TLS/PKI errors if authentication fails, and transport
    /// errors if the reactor sheds the connection at its cap.
    pub fn connect_local(
        &self,
        user: &EnrolledUser,
    ) -> Result<Client<ChannelTransport>, SegShareError> {
        match self.front_end() {
            FrontEnd::Reactor => {
                let transport = self.reactor().connect_virtual()?;
                Client::connect(transport, user)
            }
            FrontEnd::Threaded => {
                let (client_t, server_t) = duplex();
                let enclave = Arc::clone(&self.enclave);
                std::thread::spawn(move || {
                    // Session errors surface as closed transports.
                    let _ = serve_connection(&enclave, server_t);
                });
                Client::connect(client_t, user)
            }
        }
    }

    /// Verifies a CA-signed reset message and rebuilds integrity state
    /// from a restored backup (§V-G): recompute all tree hashes, compare
    /// root hashes, re-anchor monotonic counters.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Pki`] for invalid signatures and
    /// integrity errors if the restored data is unreadable.
    pub fn restore_with_reset(
        &self,
        ca_key: &PublicKey,
        signature: &Signature,
    ) -> Result<(), SegShareError> {
        ca_key
            .verify(RESET_MESSAGE, signature)
            .map_err(|_| SegShareError::Pki(seg_pki::PkiError::BadSignature))?;
        self.enclave.rebuild_after_restore()
    }
}

impl Drop for SegShareServer {
    fn drop(&mut self) {
        self.stop_health();
    }
}

/// The three logical store views (content, group, dedup) over one
/// shared WAL backend. Sharing one log is what makes a request's
/// cross-store writes a single atomic commit frame.
#[must_use]
pub fn wal_views(
    wal: &Arc<WalStore>,
) -> (
    Arc<dyn ObjectStore>,
    Arc<dyn ObjectStore>,
    Arc<dyn ObjectStore>,
) {
    (
        Arc::new(PrefixStore::new(Arc::clone(wal), "c/")),
        Arc::new(PrefixStore::new(Arc::clone(wal), "g/")),
        Arc::new(PrefixStore::new(Arc::clone(wal), "d/")),
    )
}

/// The health runner's thread body: tick, scrub, probe, sleep.
fn run_health_loop(enclave: &Arc<SegShareEnclave>, opts: &HealthOptions, stop: &AtomicBool) {
    let mut canary: Option<Client<ChannelTransport>> = None;
    let mut last_probe = 0u64;
    let mut seq = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let _ = enclave.health_tick();
        if let Some(user) = &opts.canary {
            let now = enclave.health().monitor().now_us();
            if enclave.introspection_enabled()
                && (last_probe == 0 || now.saturating_sub(last_probe) >= opts.canary_interval_us)
            {
                last_probe = now;
                seq += 1;
                let started = std::time::Instant::now();
                let ok = canary_probe(&mut canary, enclave, user, seq);
                let latency_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
                enclave.health().canary_result(ok, latency_us);
                if !ok {
                    // Reconnect from scratch on the next probe: a dead
                    // transport never heals.
                    canary = None;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(opts.tick_us.max(1)));
    }
}

/// One canary probe: (re)connect if needed, then a put+get round-trip
/// against the canary's reserved namespace, verifying the read-back.
fn canary_probe(
    slot: &mut Option<Client<ChannelTransport>>,
    enclave: &Arc<SegShareEnclave>,
    user: &EnrolledUser,
    seq: u64,
) -> bool {
    if slot.is_none() {
        let (client_t, server_t) = duplex();
        let serve = Arc::clone(enclave);
        std::thread::spawn(move || {
            // Session errors surface to the client as closed transports.
            let _ = serve_connection(&serve, server_t);
        });
        match Client::connect(client_t, user) {
            Ok(mut client) => {
                // The reserved canary directory; `AlreadyExists` after
                // the first connect is the expected steady state.
                let _ = client.mkdir("/canary");
                *slot = Some(client);
            }
            Err(_) => return false,
        }
    }
    let Some(client) = slot.as_mut() else {
        return false;
    };
    let body = seq.to_le_bytes();
    if client.put("/canary/probe", &body).is_err() {
        return false;
    }
    matches!(client.get("/canary/probe"), Ok(got) if got == body)
}
