//! The SeGShare enclave: everything inside the trusted boundary.
//!
//! Composition (paper Fig. 1, right side): the trusted TLS interface
//! terminates the secure channel ([`session`]), the request handler
//! dispatches Algorithm 1, the [`access_control`] component enforces
//! Table I/IV, and the trusted [`file_manager`] encrypts and decrypts
//! everything through [`trusted_store`] on its way to the untrusted
//! stores.

pub mod access_control;
pub mod audit;
pub mod file_manager;
pub mod health;
pub mod keys;
pub mod locks;
pub mod names;
pub mod session;
pub mod trusted_store;
pub mod watch;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use seg_crypto::ed25519::{PublicKey, SecretKey};
use seg_crypto::rng::{SecureRandom, SystemRng};
use seg_crypto::sha256::Sha256;
use seg_obs::meter::Axis;
use seg_obs::{Meter, Registry, TraceEvent, TraceRing};
use seg_pki::{Certificate, Csr, Identity};
use seg_sgx::{Enclave, EnclaveImage, Platform, Quote};
use seg_store::{CommitTicket, CountingStore, ObjectStore};

use crate::config::EnclaveConfig;
use crate::error::SegShareError;

use access_control::AccessControl;
use audit::{AuditLog, AuditRecord};
use file_manager::FileManager;
use health::HealthState;
use keys::KeyHierarchy;
use locks::LockManager;
use session::EnclaveSession;
use trusted_store::TrustedStore;
use watch::WatchStats;

/// Untrusted-store keys for the enclave's sealed state (sealed blobs are
/// self-protecting, so these names are not hidden). They carry the
/// platform id so replicas sharing one central data repository (§V-F)
/// keep separate sealed blobs — sealing is platform-bound.
fn sealed_root_key_name(platform: &Platform) -> String {
    format!("!sealed-root-key-{}", keys::hex(&platform.id()))
}

fn sealed_server_key_name(platform: &Platform) -> String {
    format!("!sealed-server-key-{}", keys::hex(&platform.id()))
}

/// The SeGShare enclave.
///
/// Shared (via `Arc`) between all connection-handling threads of the
/// untrusted host. Concurrency control is per-object: the [`locks`]
/// module's striped [`LockManager`] lets requests touching disjoint
/// objects proceed in parallel, while operations with an unbounded
/// object set (recursive moves, group deletion, tree rebuilds) fall
/// back to its exclusive global mode.
pub struct SegShareEnclave {
    sgx: Arc<Enclave>,
    config: EnclaveConfig,
    ca_key: PublicKey,
    server_key: SecretKey,
    server_cert: RwLock<Option<Arc<Certificate>>>,
    store: Arc<TrustedStore>,
    access: AccessControl,
    files: FileManager,
    locks: LockManager,
    clock: AtomicU64,
    obs: Arc<Registry>,
    audit: Option<Arc<AuditLog>>,
    /// Introspection state: the one switch, saturation gauges, stall
    /// counters, and the automatic-dump slot (shared with the untrusted
    /// serve loop).
    watch: Arc<WatchStats>,
    /// Health state: the windowed history and SLO monitor, integrity-
    /// scrubber progress, canary counters, and the verdict.
    health: Arc<HealthState>,
    /// Attribution (`seg-meter`): per-request cost vectors attributed
    /// to principal/group/prefix/object fingerprints in cardinality-
    /// bounded top-K sketches.
    meter: Arc<Meter>,
    /// Next request correlation id (shared by every session thread).
    request_ids: AtomicU64,
    /// The counting wrappers around the untrusted stores, kept for
    /// per-store attribution in [`SegShareEnclave::metrics_snapshot`].
    counted_stores: Vec<(&'static str, CountedStore)>,
    /// Serializes batch commit windows (batch mode, the durability
    /// plane). Held from [`SegShareEnclave::batch_begin`] through the
    /// seal — and, with whole-FS rollback protection, through the
    /// deferred counter increments in [`SegShareEnclave::batch_wait`] —
    /// so frame order in the shared log equals dependency order on the
    /// shared root hash records, and a root record is never more than
    /// one ahead of its hardware counter. Always the *outermost* lock:
    /// taken before any [`LockManager`] scope, tree lock, or audit
    /// state lock.
    batch_commit: Mutex<()>,
}

/// A counting wrapper around one of the untrusted object stores.
type CountedStore = Arc<CountingStore<Arc<dyn ObjectStore>>>;

impl std::fmt::Debug for SegShareEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegShareEnclave")
            .field("config", &self.config)
            .field("measurement", &keys::hex(&self.sgx.measurement()[..4]))
            .finish()
    }
}

impl SegShareEnclave {
    /// The enclave image for a given configuration and CA key. The
    /// measurement binds both — "it contains a hard-coded copy of the
    /// CA's public key" (§III-B) — so the CA's attestation check pins
    /// the exact configuration it expects.
    #[must_use]
    pub fn image(config: &EnclaveConfig, ca_key: &PublicKey) -> EnclaveImage {
        let mut code = config.image_bytes();
        code.extend_from_slice(b";ca=");
        code.extend_from_slice(&ca_key.to_bytes());
        EnclaveImage::from_code(&code)
    }

    /// Launches (or restarts) the enclave on `platform` against the
    /// given untrusted stores.
    ///
    /// On first start the enclave generates and seals the root key
    /// `SK_r` and a server key pair; on restarts it unseals them
    /// (§IV-B "File Managers", §IV-A).
    ///
    /// # Errors
    ///
    /// Fails if sealed state exists but cannot be unsealed (wrong
    /// platform/enclave) or storage fails.
    pub fn launch(
        platform: &Platform,
        config: EnclaveConfig,
        ca_key: PublicKey,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
    ) -> Result<Arc<SegShareEnclave>, SegShareError> {
        Self::launch_inner(platform, config, ca_key, content, group, dedup, None)
    }

    /// Launches a *replica* enclave around a root key obtained from a
    /// root enclave via [`SegShareEnclave::export_root_key`] (§V-F).
    ///
    /// # Errors
    ///
    /// Propagates sealing and storage failures.
    pub fn launch_with_root_key(
        platform: &Platform,
        config: EnclaveConfig,
        ca_key: PublicKey,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
        root_key: [u8; 32],
    ) -> Result<Arc<SegShareEnclave>, SegShareError> {
        Self::launch_inner(
            platform,
            config,
            ca_key,
            content,
            group,
            dedup,
            Some(root_key),
        )
    }

    fn launch_inner(
        platform: &Platform,
        config: EnclaveConfig,
        ca_key: PublicKey,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
        root_key_override: Option<[u8; 32]>,
    ) -> Result<Arc<SegShareEnclave>, SegShareError> {
        config.assert_valid();
        let sgx = Arc::new(platform.launch(&Self::image(&config, &ca_key)));
        let obs = Arc::new(Registry::new());

        // Trace ring: fixed-capacity, lock-free, enclave-resident. It
        // is attached to the registry so every span finished against
        // the registry also lands one structured event here.
        let ring = Arc::new(TraceRing::default());
        // One source of truth: the watch deadline is also the slow-log
        // threshold, so the slow ring and the stall watchdog agree.
        ring.set_slow_threshold_us(config.watch_deadline_us);
        obs.attach_trace(ring);

        // Phase profiler: always attached — inactive threads (no root)
        // make every phase call a no-op, so the cost off the request
        // path is a thread-local check.
        obs.attach_profiler(Arc::new(seg_obs::Profiler::new()));

        // Every untrusted store is wrapped in a counting layer so the
        // telemetry snapshot can attribute I/O per store (including the
        // sealed-key traffic below).
        let content_counted = Arc::new(CountingStore::new(content));
        let group_counted = Arc::new(CountingStore::new(group));
        let dedup_counted = Arc::new(CountingStore::new(dedup));
        let content: Arc<dyn ObjectStore> = Arc::clone(&content_counted) as Arc<dyn ObjectStore>;
        let group: Arc<dyn ObjectStore> = Arc::clone(&group_counted) as Arc<dyn ObjectStore>;
        let dedup: Arc<dyn ObjectStore> = Arc::clone(&dedup_counted) as Arc<dyn ObjectStore>;

        // Root key: imported (replication), unsealed (restart), or
        // generated-and-sealed (first start).
        let root_name = sealed_root_key_name(platform);
        let root_key: [u8; 32] = match root_key_override {
            Some(key) => {
                let sealed = sgx.seal(&key)?;
                sgx.boundary().ocall(|| content.put(&root_name, &sealed))?;
                key
            }
            None => match sgx.boundary().ocall(|| content.get(&root_name))? {
                Some(blob) => sgx.unseal(&blob)?.try_into().map_err(|_| {
                    SegShareError::Integrity("sealed root key has wrong size".into())
                })?,
                None => {
                    let key: [u8; 32] = SystemRng::new().array();
                    let sealed = sgx.seal(&key)?;
                    sgx.boundary().ocall(|| content.put(&root_name, &sealed))?;
                    key
                }
            },
        };

        // Server key pair: "the enclave generates a temporary key pair"
        // (§IV-A), sealed so restarts keep serving the same certificate.
        let server_name = sealed_server_key_name(platform);
        let server_key = match sgx.boundary().ocall(|| content.get(&server_name))? {
            Some(blob) => {
                let seed: [u8; 32] = sgx.unseal(&blob)?.try_into().map_err(|_| {
                    SegShareError::Integrity("sealed server key has wrong size".into())
                })?;
                SecretKey::from_seed(&seed)
            }
            None => {
                let mut rng = SystemRng::new();
                let seed: [u8; 32] = rng.array();
                let sealed = sgx.seal(&seed)?;
                sgx.boundary()
                    .ocall(|| content.put(&server_name, &sealed))?;
                SecretKey::from_seed(&seed)
            }
        };

        let keys = KeyHierarchy::new(root_key);
        // The audit trail persists through the (counted) content store
        // like the sealed keys do; sealed blobs are self-protecting,
        // so the `!audit-*` names are not hidden.
        let audit = if config.audit {
            Some(Arc::new(AuditLog::load(
                keys.audit_key(),
                Arc::clone(&content),
                Arc::clone(&sgx),
                config.rollback_whole_fs,
                config.batch,
                &obs,
            )?))
        } else {
            None
        };
        let store = Arc::new(TrustedStore::new(
            keys,
            config,
            Arc::clone(&sgx),
            content,
            group,
            dedup,
            Arc::clone(&obs),
        ));
        let enclave = Arc::new(SegShareEnclave {
            sgx,
            config,
            ca_key,
            server_key,
            server_cert: RwLock::new(None),
            access: AccessControl::new(Arc::clone(&store)),
            files: FileManager::new(Arc::clone(&store)),
            locks: LockManager::with_registry(&obs),
            store,
            clock: AtomicU64::new(1_000),
            obs,
            audit,
            watch: Arc::new(WatchStats::new()),
            health: Arc::new(HealthState::new(&config)),
            meter: Arc::new(Meter::default()),
            request_ids: AtomicU64::new(0),
            counted_stores: vec![
                ("content", content_counted),
                ("group", group_counted),
                ("dedup", dedup_counted),
            ],
            batch_commit: Mutex::new(()),
        });
        // Batch-mode crash recovery: a root hash record one ahead of
        // its hardware counter is the previous process's durable-but-
        // unacknowledged batch; catch the counter up before the first
        // verified read could mistake it for a rollback.
        //
        // First-boot initialization writes several coupled objects
        // (directory bodies plus their hash records); in batch mode
        // they must land in one commit frame, or a crash mid-launch
        // recovers a root directory without its hash record and every
        // later request fails verification.
        {
            let guard = enclave.batch_begin(true);
            enclave.store.adopt_root_counters()?;
            enclave.files.init_file_system()?;
            if guard.is_some() {
                let tickets = enclave.batch_seal()?;
                enclave.batch_wait(tickets)?;
            }
        }
        Ok(enclave)
    }

    // ----------------------------------------------- setup/certification

    /// Produces the CSR plus an attestation quote binding it (§IV-A
    /// messages 1–2): the quote's report data is the hash of the CSR, so
    /// the CA knows this exact key pair lives in an attested enclave.
    #[must_use]
    pub fn certification_request(&self, server_name: &str) -> (Csr, Quote) {
        let csr = Csr::new(Identity::server(server_name), &self.server_key);
        let quote = self.sgx.quote(&Sha256::digest(&csr.encode()));
        (csr, quote)
    }

    /// Installs the CA-signed server certificate (§IV-A message 3). "The
    /// enclave checks the certificate's validity."
    ///
    /// # Errors
    ///
    /// Rejects certificates that do not verify under the hard-coded CA
    /// key or that certify a different public key.
    pub fn install_certificate(&self, cert: Certificate) -> Result<(), SegShareError> {
        cert.validate(&self.ca_key, self.now())?;
        if cert.public_key() != self.server_key.public_key() {
            return Err(SegShareError::Protocol(
                "server certificate does not match the enclave key pair".to_string(),
            ));
        }
        *self.server_cert.write() = Some(Arc::new(cert));
        Ok(())
    }

    /// The installed server certificate, if certification completed.
    /// Returned via `Arc` so each session handshake serves the same
    /// installed certificate without deep-copying it.
    #[must_use]
    pub fn server_certificate(&self) -> Option<Arc<Certificate>> {
        self.server_cert.read().clone()
    }

    /// The enclave's logical clock (unix seconds) used for certificate
    /// validation.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the logical clock.
    pub fn set_now(&self, now: u64) {
        self.clock.store(now, Ordering::Relaxed);
    }

    // ------------------------------------------------------- connections

    /// Starts a new connection session (trusted TLS interface).
    ///
    /// # Errors
    ///
    /// Fails if certification has not completed yet.
    pub fn new_session(&self) -> Result<EnclaveSession, SegShareError> {
        let cert = self.server_certificate().ok_or_else(|| {
            SegShareError::Protocol("enclave has no server certificate yet".to_string())
        })?;
        Ok(EnclaveSession::new(
            cert,
            self.server_key.clone(),
            self.ca_key,
            self.now(),
        ))
    }

    // ---------------------------------------------------------- plumbing

    /// The trusted persistence layer (exposed for benchmarks and
    /// white-box tests).
    #[must_use]
    pub fn store(&self) -> &Arc<TrustedStore> {
        &self.store
    }

    pub(crate) fn access(&self) -> &AccessControl {
        &self.access
    }

    pub(crate) fn files(&self) -> &FileManager {
        &self.files
    }

    /// The per-object lock manager. Public so benchmarks can flip its
    /// coarse global-lock mode and measure the scaling difference; the
    /// request path acquires scopes through it in `session.rs`.
    #[must_use]
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The underlying simulated-SGX enclave (stats, counters, EPC).
    #[must_use]
    pub fn sgx(&self) -> &Arc<Enclave> {
        &self.sgx
    }

    /// The telemetry registry. Labels are compiled-in operation names
    /// and error codes only; request content (paths, user ids, key
    /// material) is unrepresentable by construction (`seg-obs` charset
    /// checks).
    #[must_use]
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Opens a profiler root for `op` on the current thread (inert when
    /// a root is already active, or no profiler attached). Session code
    /// opens this *before* TLS record decryption so the whole request —
    /// including `tls_record` — is attributed.
    pub(crate) fn profile_root(&self, op: &'static str) -> Option<seg_obs::prof::OpGuard> {
        self.obs
            .profiler()
            .map(|p| seg_obs::prof::OpGuard::begin(p, op))
    }

    /// Captures the per-(op, phase-path) profile — like
    /// [`metrics_snapshot`](Self::metrics_snapshot), an explicit
    /// declassification point: phase paths are compiled-in names, values
    /// are aggregate times. Empty if no profiler is attached.
    #[must_use]
    pub fn profile_snapshot(&self) -> seg_obs::ProfSnapshot {
        self.obs
            .profiler()
            .map(|p| p.snapshot())
            .unwrap_or_default()
    }

    // ------------------------------------------------- tracing & audit

    /// Allocates the next request correlation id (1-based; 0 means
    /// "outside any request" throughout the trace machinery).
    pub(crate) fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Keyed fingerprint of a user id for trace/audit events.
    #[must_use]
    pub fn fingerprint_user(&self, user: &seg_fs::UserId) -> u64 {
        self.store
            .keys()
            .fingerprint("user", user.as_str().as_bytes())
    }

    /// Keyed fingerprint of an object name (path, group, ...) for
    /// trace/audit events.
    #[must_use]
    pub fn fingerprint_name(&self, name: &str) -> u64 {
        self.store.keys().fingerprint("object", name.as_bytes())
    }

    /// Copies out up to `n` of the newest trace events, oldest first —
    /// the trace ring's declassification point. Events carry interned
    /// operation/code labels and keyed fingerprints only.
    #[must_use]
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        self.obs.trace().map_or_else(Vec::new, |r| r.tail(n))
    }

    /// Copies out up to `n` of the newest slow-request events (latency
    /// at or above `EnclaveConfig::watch_deadline_us`), oldest first.
    #[must_use]
    pub fn slow_requests(&self, n: usize) -> Vec<TraceEvent> {
        self.obs.trace().map_or_else(Vec::new, |r| r.slow_tail(n))
    }

    // ----------------------------------------------------- introspection

    /// The introspection state: the one switch, saturation gauges, and
    /// the stall watchdog's counters/dump slot. The untrusted serve
    /// loop feeds the session/in-flight/backlog gauges through this
    /// handle — they are load numbers, not request content.
    #[must_use]
    pub fn watch(&self) -> &Arc<WatchStats> {
        &self.watch
    }

    /// The attribution sketch (per-principal/group/prefix/object cost
    /// and SLO attribution).
    #[must_use]
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    // ------------------------------------------------------------ audit

    /// The audit log, when `EnclaveConfig::audit` is enabled.
    #[must_use]
    pub fn audit(&self) -> Option<&Arc<AuditLog>> {
        self.audit.as_ref()
    }

    /// Verifies the persisted audit chain end to end, returning the
    /// record count (0 when auditing is disabled).
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] naming the detected tamper
    /// class (truncation, reorder/substitution, bit-flip, head
    /// rollback).
    pub fn audit_verify(&self) -> Result<u64, SegShareError> {
        self.audit.as_ref().map_or(Ok(0), |log| log.verify())
    }

    /// Decrypts and returns the verified audit chain. Records carry
    /// stable keyed fingerprints instead of principal identities —
    /// this is the audit trail's declassification point.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`SegShareEnclave::audit_verify`] fails.
    pub fn audit_export(&self) -> Result<Vec<AuditRecord>, SegShareError> {
        self.audit
            .as_ref()
            .map_or_else(|| Ok(Vec::new()), |log| log.export())
    }

    // -------------------------------------------- durability plane (batch)

    /// Opens one request's batch commit window (batch mode): acquires
    /// the commit mutex and begins a thread transaction on every store
    /// handle, so the request's puts and deletes accumulate into one
    /// atomic commit unit. Returns `None` (and does nothing) when batch
    /// mode is off, or for read-only requests outside whole-FS rollback
    /// mode (with the §V-E counters on, even reads append counted audit
    /// records, so every request commits through the window). Must be
    /// called *before* any dispatch lock scope — the commit mutex is
    /// the outermost lock.
    pub(crate) fn batch_begin(&self, mutates: bool) -> Option<MutexGuard<'_, ()>> {
        if !self.config.batch || !(mutates || self.config.rollback_whole_fs) {
            return None;
        }
        let guard = self.batch_commit.lock();
        for (_, counted) in &self.counted_stores {
            counted.tx_begin();
        }
        Some(guard)
    }

    /// Seals the current thread's transaction on every store handle,
    /// collecting the commit tickets to wait on. Idempotent: sealing on
    /// shared-backend views seals the one underlying transaction once,
    /// and a thread with no open transaction collects nothing.
    pub(crate) fn batch_seal(&self) -> Result<Vec<CommitTicket>, SegShareError> {
        let mut tickets = Vec::new();
        if !self.config.batch {
            return Ok(tickets);
        }
        for (_, counted) in &self.counted_stores {
            if let Some(ticket) = self.sgx.boundary().ocall(|| counted.tx_seal())? {
                tickets.push(ticket);
            }
        }
        Ok(tickets)
    }

    /// [`SegShareEnclave::audit_request`] with the batch seal run
    /// inside the audit chain's state lock, right after the head write
    /// — so the frame boundary falls between appends and audit chain
    /// order equals log order. Returns the append result and the seal
    /// result separately; the seal runs even when the append fails
    /// (fail-closed: whatever the batch holds is still made durable).
    /// With auditing disabled the seal simply runs directly.
    #[allow(clippy::type_complexity)]
    pub(crate) fn audit_request_sealed(
        &self,
        request_id: u64,
        op: &'static str,
        principal: u64,
        object: u64,
        decision: seg_obs::TraceDecision,
        code: &'static str,
    ) -> (
        Result<(), SegShareError>,
        Result<Vec<CommitTicket>, SegShareError>,
    ) {
        let Some(log) = self.audit.as_ref() else {
            return (Ok(()), self.batch_seal());
        };
        let mut sealed: Result<Vec<CommitTicket>, SegShareError> = Ok(Vec::new());
        let appended = log.append_sealing(
            &audit::AuditEvent {
                time: self.now(),
                request_id,
                op,
                principal,
                object,
                decision,
                code,
            },
            || sealed = self.batch_seal(),
        );
        (appended, sealed)
    }

    /// The request's durability point: waits for the group commit to
    /// fsync the sealed batch, then performs the deferred §V-E counter
    /// increments (rollback-tree roots and audit anchor). In whole-FS
    /// mode the caller still holds the commit guard here, so no later
    /// batch can write records more than one ahead of the hardware.
    pub(crate) fn batch_wait(&self, tickets: Vec<CommitTicket>) -> Result<(), SegShareError> {
        for ticket in tickets {
            self.sgx.boundary().ocall(|| ticket.wait())?;
        }
        self.store.commit_pending_counters()?;
        if let Some(log) = self.audit.as_ref() {
            log.commit_pending_anchor()?;
        }
        Ok(())
    }

    /// Reclaims dedup blobs whose reference count dropped to zero,
    /// returning how many were deleted. GC mutates an unbounded object
    /// set (the refcount index plus any number of blobs), so it runs
    /// under the exclusive global scope, inside its own batch commit
    /// window — a crash mid-GC either keeps or drops the whole pass.
    pub fn blob_gc(&self) -> Result<u64, SegShareError> {
        let guard = self.batch_begin(true);
        let reclaimed = {
            let _scope = self.locks.acquire_global();
            self.files.blob_gc()
        };
        let sealed = self.batch_seal();
        let durable = match (guard, sealed) {
            (None, sealed) => sealed.map(|_| ()),
            (Some(guard), Err(seal_err)) => {
                drop(guard);
                Err(seal_err)
            }
            (Some(guard), Ok(tickets)) => {
                if self.config.rollback_whole_fs {
                    let wait = self.batch_wait(tickets);
                    drop(guard);
                    wait
                } else {
                    drop(guard);
                    self.batch_wait(tickets)
                }
            }
        };
        match durable {
            Ok(()) => reclaimed,
            Err(err) => reclaimed.and(Err(err)),
        }
    }

    /// Captures a telemetry snapshot after folding in the externally
    /// sourced totals: boundary crossings, EPC usage, and the per-store
    /// I/O counters.
    ///
    /// This is the system's **declassification point** (paper §III):
    /// the only way aggregate telemetry leaves the trusted boundary.
    /// Everything in the snapshot is an aggregate keyed by compiled-in
    /// names — nothing request-derived crosses here.
    #[must_use]
    pub fn metrics_snapshot(&self) -> seg_obs::Snapshot {
        let sync = |name: &'static str, labels: Vec<(&'static str, &'static str)>, total: u64| {
            // External counters are monotonic; advance ours to match so
            // repeated snapshots never double-count.
            let c = self.obs.counter_with(name, labels);
            c.add(total.saturating_sub(c.get()));
        };

        let b = self.sgx.boundary().stats();
        sync("seg_boundary_ecalls_total", vec![], b.ecalls);
        sync("seg_boundary_ocalls_total", vec![], b.ocalls);
        self.obs
            .gauge("seg_boundary_simulated_ns")
            .set(b.simulated_ns);

        if let Some(ring) = self.obs.trace() {
            sync("seg_trace_events_total", vec![], ring.emitted());
            sync("seg_trace_dropped_total", vec![], ring.dropped());
        }

        let epc = self.sgx.epc();
        self.obs.gauge("seg_epc_bytes").set(epc.current_bytes());
        self.obs.gauge("seg_epc_peak_bytes").set(epc.peak_bytes());
        self.obs.gauge("seg_epc_paged_pages").set(epc.paged_pages());

        for (store, counted) in &self.counted_stores {
            let s = counted.stats();
            for (op, total) in [
                ("get", s.gets),
                ("put", s.puts),
                ("delete", s.deletes),
                ("exists", s.exists),
                ("rename", s.renames),
                ("list", s.lists),
            ] {
                sync(
                    "seg_store_ops_total",
                    vec![("store", store), ("op", op)],
                    total,
                );
            }
            // The durability families always export (zero on in-memory
            // backends) so they are stable across store choices. Views
            // sharing one WAL backend each report the shared log's
            // totals.
            let io = counted.io_stats();
            for (name, total) in [
                ("seg_store_bytes_read_total", s.bytes_read),
                ("seg_store_bytes_written_total", s.bytes_written),
                ("seg_store_batches_total", s.batches),
                ("seg_store_batch_ops_total", s.batch_ops),
                ("seg_store_fsyncs_total", io.fsyncs),
                ("seg_store_fsync_bytes_total", io.fsync_bytes),
            ] {
                sync(name, vec![("store", store)], total);
            }
        }

        // Object-cache *counters* exist only when the cache is enabled,
        // keeping cache-off snapshots identical to pre-cache builds.
        let cache = self.store.cache_stats();
        if let Some(c) = &cache {
            for (name, total) in [
                ("seg_cache_hits_total", c.hits),
                ("seg_cache_misses_total", c.misses),
                ("seg_cache_fills_total", c.fills),
                ("seg_cache_stale_fills_total", c.stale_fills),
                ("seg_cache_evictions_total", c.evictions),
                ("seg_cache_invalidations_total", c.invalidations),
            ] {
                sync(name, vec![], total);
            }
        }

        // Reactor front end: per-state connection gauges plus lifecycle
        // counters. Exported whenever a reactor has ever started (the
        // stable-family rule: 0 beats a disappearing series) — under
        // the threaded front end the family is absent entirely, which
        // is itself the "which front end?" signal.
        let w = &self.watch;
        if let Some(reactor) = w.reactor_stats() {
            for state in seg_net::reactor::ConnState::ALL {
                if state == seg_net::reactor::ConnState::Closed {
                    continue; // terminal: the gauge is definitionally 0
                }
                self.obs
                    .gauge_with("seg_net_conns", vec![("state", state.label())])
                    .set(reactor.conns_in(state));
            }
            self.obs
                .gauge("seg_net_dispatch_depth")
                .set(reactor.dispatch_depth());
            self.obs
                .gauge("seg_net_outq_bytes")
                .set(reactor.outq_bytes());
            for (name, total) in [
                ("seg_net_conns_accepted_total", reactor.accepted_total()),
                (
                    "seg_net_conns_reaped_idle_total",
                    reactor.reaped_idle_total(),
                ),
                ("seg_net_conns_closed_total", reactor.closed_total()),
                (
                    "seg_net_protocol_errors_total",
                    reactor.protocol_errors_total(),
                ),
            ] {
                sync(name, vec![], total);
            }
        }

        // Gauge families, by contrast, always export: a disabled or
        // idle subsystem reads 0 rather than its series disappearing
        // between snapshots (dashboards need stable families). So do
        // the introspection families — lock, net, and session
        // saturation, the history sampler, scrubber, canary, SLO
        // alerts, and attribution.
        let net = w.net_meter();
        let health = &self.health;
        let monitor = health.monitor();
        for (name, value) in [
            ("seg_cache_entries", cache.as_ref().map_or(0, |c| c.entries)),
            ("seg_cache_bytes", cache.as_ref().map_or(0, |c| c.bytes)),
            ("seg_lock_global_held_us", self.locks.global_held_us()),
            ("seg_net_live_sessions", w.live_sessions()),
            ("seg_net_inflight_requests", w.in_flight()),
            ("seg_net_accept_backlog", w.accept_backlog()),
            ("seg_net_queued_bytes", net.queued_bytes()),
            ("seg_introspection_enabled", u64::from(w.enabled())),
            ("seg_health_state", health.state_code()),
            ("seg_slo_alerts_active", monitor.active_alerts()),
            ("seg_health_rollup_slots", monitor.rollup_slots()),
            (
                "seg_health_canary_latency_us",
                health.canary_last_latency_us(),
            ),
        ] {
            self.obs.gauge(name).set(value);
        }
        for (name, labels, total) in [
            ("seg_net_send_stalls_total", vec![], net.send_stalls()),
            ("seg_net_send_stall_ns_total", vec![], net.send_stall_ns()),
            ("seg_net_sheds_total", vec![], w.sheds()),
            (
                "seg_watch_stalls_total",
                vec![("kind", "request")],
                w.stalls_request(),
            ),
            (
                "seg_watch_stalls_total",
                vec![("kind", "global_lock")],
                w.stalls_global(),
            ),
            ("seg_watch_dumps_total", vec![], w.dumps()),
            ("seg_health_samples_total", vec![], monitor.samples()),
            (
                "seg_health_canary_probes_total",
                vec![],
                health.canary_probes(),
            ),
            (
                "seg_health_canary_failures_total",
                vec![],
                health.canary_failures(),
            ),
            ("seg_slo_alerts_total", vec![], monitor.alerts().total()),
            (
                "seg_slo_alerts_suppressed_total",
                vec![],
                monitor.alerts().suppressed(),
            ),
            ("seg_scrub_passes_total", vec![], health.scrub_passes()),
            ("seg_meter_samples_total", vec![], self.meter.samples()),
        ] {
            sync(name, labels, total);
        }
        for check in health::ScrubCheck::ALL {
            let labels = || vec![("check", check.label())];
            sync("seg_scrub_items_total", labels(), health.items(check));
            sync("seg_scrub_findings_total", labels(), health.findings(check));
        }
        for axis in Axis::ALL {
            let s = self.meter.stats(axis);
            let labels = || vec![("axis", axis.label())];
            self.obs
                .gauge_with("seg_meter_tracked", labels())
                .set(s.tracked);
            self.obs
                .gauge_with("seg_meter_min_tracked_ops", labels())
                .set(s.min_est);
            sync("seg_meter_evictions_total", labels(), s.evictions);
            sync("seg_meter_overflow_ops_total", labels(), s.overflow_ops);
        }

        self.obs.snapshot()
    }

    /// The enclave configuration.
    #[must_use]
    pub fn config(&self) -> &EnclaveConfig {
        &self.config
    }

    // -------------------------------------------------- replication (§V-F)

    /// Exports the root key to a peer enclave after mutual attestation:
    /// both quotes must verify under the respective platforms'
    /// attestation keys and carry the *same measurement* — "if the
    /// measurements of both enclaves are equal, the non-root enclave is
    /// assured to communicate with another enclave that was compiled for
    /// the same CA" (§V-F).
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Sgx`] if either quote fails or the
    /// measurements differ.
    pub fn export_root_key(
        &self,
        peer_quote: &Quote,
        peer_attestation_key: &PublicKey,
    ) -> Result<[u8; 32], SegShareError> {
        let peer_measurement = peer_quote.verify(peer_attestation_key)?;
        if peer_measurement != self.sgx.measurement() {
            return Err(SegShareError::Protocol(
                "peer enclave measurement differs; refusing root key export".to_string(),
            ));
        }
        Ok(*self.store.keys().root())
    }

    /// Recomputes the rollback tree from the stored objects and
    /// re-anchors counters — backup restoration (§V-G). The caller is
    /// the CA-signed reset path in [`crate::server::SegShareServer`].
    pub(crate) fn rebuild_after_restore(&self) -> Result<(), SegShareError> {
        let _scope = self.locks.acquire_global();
        self.store.rebuild_tree()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared white-box fixtures for the enclave component tests.

    use std::sync::Arc;

    use seg_sgx::{EnclaveImage, Platform};
    use seg_store::MemStore;

    use super::access_control::AccessControl;
    use super::file_manager::FileManager;
    use super::keys::KeyHierarchy;
    use super::trusted_store::TrustedStore;
    use crate::config::EnclaveConfig;

    pub(crate) struct ComponentFixture {
        pub access: AccessControl,
        pub files: FileManager,
    }

    pub(crate) fn components(config: EnclaveConfig) -> ComponentFixture {
        let platform = Platform::new_with_seed(99);
        let sgx = Arc::new(platform.launch(&EnclaveImage::from_code(b"component-test")));
        let store = Arc::new(TrustedStore::new(
            KeyHierarchy::new([5u8; 32]),
            config,
            sgx,
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(seg_obs::Registry::new()),
        ));
        let access = AccessControl::new(Arc::clone(&store));
        let files = FileManager::new(Arc::clone(&store));
        files.init_file_system().expect("init");
        ComponentFixture { access, files }
    }
}
