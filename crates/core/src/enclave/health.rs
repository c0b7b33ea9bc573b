//! The health plane: SLO monitoring, the background integrity
//! scrubber, the synthetic canary's bookkeeping, and the
//! `healthy/degraded/failing` state machine.
//!
//! Metrics, traces, and attribution *observe* the request path; the
//! health plane *judges* it. A [`seg_obs::HealthMonitor`] rolls the
//! registry into the enclave's one windowed history and evaluates
//! burn-rate SLO rules;
//! the scrubber re-verifies persisted state (audit chain, rollback
//! tree, cache coherence, store orphans) on a cadence so silent
//! corruption is found within one pass instead of on the next
//! unlucky request; and a canary probe exercises the full request
//! path even when no client is connected. All three fold into one
//! state machine exported as the `health` section of
//! [`SegShareEnclave::introspect`] — compiled-in names, aggregate
//! numbers, and keyed fingerprints only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use seg_fs::{DirFile, SegPath, UserId};
use seg_obs::{HealthConfig, HealthMonitor};

use crate::config::EnclaveConfig;

use super::audit::AuditScrubCursor;
use super::locks::{LockIntent, LockKey};
use super::names::{ObjectId, StoreKind};
use super::trusted_store::GroupRootFile;
use super::SegShareEnclave;

/// Audit records re-verified per scrub step.
const AUDIT_RECORDS_PER_STEP: u64 = 512;
/// Namespace objects re-verified per scrub step.
const WALK_OBJECTS_PER_STEP: usize = 64;
/// Cache-resident bodies probed for coherence per pass.
const CACHE_PROBES_PER_PASS: usize = 16;
/// Consecutive canary failures before the canary degrades the state.
const CANARY_FAIL_LIMIT: u64 = 3;

/// The scrubber's check classes — also the `check` label values of the
/// `seg_scrub_*` metric families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubCheck {
    /// Incremental audit-chain re-verification.
    Audit,
    /// Namespace walk through the verified read path (rollback tree,
    /// AEAD, decode).
    Tree,
    /// Cache-generation coherence probe.
    Cache,
    /// Untrusted-store orphan/refcount scan.
    Orphan,
}

impl ScrubCheck {
    /// All checks, in scrub order.
    pub const ALL: [ScrubCheck; 4] = [
        ScrubCheck::Audit,
        ScrubCheck::Tree,
        ScrubCheck::Cache,
        ScrubCheck::Orphan,
    ];

    /// The compiled-in `check` label value.
    #[must_use]
    pub fn label(self) -> &'static str {
        ["audit", "tree", "cache", "orphan"][self.index()]
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One unit of namespace-walk work.
enum ScrubItem {
    Dir(SegPath),
    File(SegPath),
    GroupRoot,
    GroupList,
    Member(UserId),
}

/// Resumable scrub-pass state. A pass re-verifies the audit chain and
/// the whole namespace in budgeted steps, then runs the cache probe
/// and the orphan scan once both walks complete.
#[derive(Default)]
struct ScrubProgress {
    /// `Some` while a pass is running; holds the store listing taken at
    /// pass start (the orphan scan's first witness).
    start_keys: Option<Vec<(StoreKind, String)>>,
    audit_cursor: Option<AuditScrubCursor>,
    audit_done: bool,
    pending: Vec<ScrubItem>,
    walk_done: bool,
    /// Keys the namespace walk proved are legitimately occupied.
    expected: Vec<(StoreKind, String)>,
}

/// Outcome of one [`SegShareEnclave::scrub_step`] call, so tests and
/// the runner can drive passes deterministically.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScrubReport {
    /// Objects/records examined in this step.
    pub items: u64,
    /// Integrity findings raised in this step.
    pub findings: u64,
    /// Whether this step completed a full pass (all four checks ran).
    pub pass_completed: bool,
}

/// Shared health-plane state hanging off the enclave. Counters are
/// plain atomics (read lock-free by `metrics_snapshot`); the resumable
/// scrub position sits behind its own mutex, touched only by whoever
/// drives [`SegShareEnclave::scrub_step`].
pub struct HealthState {
    monitor: HealthMonitor,
    scrub_passes: AtomicU64,
    scrub_last_pass_us: AtomicU64,
    last_scrub_us: AtomicU64,
    items: [AtomicU64; 4],
    findings: [AtomicU64; 4],
    canary_probes: AtomicU64,
    canary_failures: AtomicU64,
    canary_consecutive: AtomicU64,
    canary_last_latency_us: AtomicU64,
    progress: Mutex<ScrubProgress>,
}

impl std::fmt::Debug for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthState")
            .field("state", &self.state_label())
            .field("passes", &self.scrub_passes())
            .finish()
    }
}

impl HealthState {
    /// Builds the health state for one enclave. The latency objective
    /// reuses the watch plane's deadline — one source of truth for what
    /// "too slow" means — while availability targets 99.9 %.
    #[must_use]
    pub fn new(config: &EnclaveConfig) -> HealthState {
        let mut health = HealthConfig::default();
        for objective in &mut health.objectives {
            if objective.latency_threshold_ns.is_some() && config.watch_deadline_us > 0 {
                objective.latency_threshold_ns =
                    Some(config.watch_deadline_us.saturating_mul(1_000));
            }
        }
        let monitor = HealthMonitor::new(health);
        HealthState {
            monitor,
            scrub_passes: AtomicU64::new(0),
            scrub_last_pass_us: AtomicU64::new(0),
            last_scrub_us: AtomicU64::new(0),
            items: Default::default(),
            findings: Default::default(),
            canary_probes: AtomicU64::new(0),
            canary_failures: AtomicU64::new(0),
            canary_consecutive: AtomicU64::new(0),
            canary_last_latency_us: AtomicU64::new(0),
            progress: Mutex::new(ScrubProgress::default()),
        }
    }

    /// The SLO monitor (rollups, burn-rate evaluation, alert ring).
    #[must_use]
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// Completed scrub passes.
    #[must_use]
    pub fn scrub_passes(&self) -> u64 {
        self.scrub_passes.load(Ordering::Relaxed)
    }

    /// Monitor-epoch time (µs) the last pass completed, 0 if none.
    #[must_use]
    pub fn scrub_last_pass_us(&self) -> u64 {
        self.scrub_last_pass_us.load(Ordering::Relaxed)
    }

    /// Objects examined by `check` over the scrubber's lifetime.
    #[must_use]
    pub fn items(&self, check: ScrubCheck) -> u64 {
        self.items[check.index()].load(Ordering::Relaxed)
    }

    /// Integrity findings from `check` over the scrubber's lifetime.
    #[must_use]
    pub fn findings(&self, check: ScrubCheck) -> u64 {
        self.findings[check.index()].load(Ordering::Relaxed)
    }

    /// Total findings across all checks.
    #[must_use]
    pub fn findings_total(&self) -> u64 {
        ScrubCheck::ALL.iter().map(|c| self.findings(*c)).sum()
    }

    /// Canary probes issued.
    #[must_use]
    pub fn canary_probes(&self) -> u64 {
        self.canary_probes.load(Ordering::Relaxed)
    }

    /// Canary probes that failed.
    #[must_use]
    pub fn canary_failures(&self) -> u64 {
        self.canary_failures.load(Ordering::Relaxed)
    }

    /// Current run of consecutive canary failures.
    #[must_use]
    pub fn canary_consecutive_failures(&self) -> u64 {
        self.canary_consecutive.load(Ordering::Relaxed)
    }

    /// Latency (µs) of the last successful canary probe.
    #[must_use]
    pub fn canary_last_latency_us(&self) -> u64 {
        self.canary_last_latency_us.load(Ordering::Relaxed)
    }

    /// Records one canary probe outcome. A run of three consecutive
    /// failures raises a `canary` alert and degrades the health state
    /// until a probe succeeds again.
    pub fn canary_result(&self, ok: bool, latency_us: u64) {
        self.canary_probes.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.canary_consecutive.store(0, Ordering::Relaxed);
            self.canary_last_latency_us
                .store(latency_us, Ordering::Relaxed);
        } else {
            self.canary_failures.fetch_add(1, Ordering::Relaxed);
            let run = self.canary_consecutive.fetch_add(1, Ordering::Relaxed) + 1;
            if run >= CANARY_FAIL_LIMIT {
                self.monitor.alerts().raise(
                    self.monitor.now_us(),
                    "canary",
                    "probe",
                    0,
                    run,
                    CANARY_FAIL_LIMIT,
                );
            }
        }
    }

    /// The state machine: `2` (failing) while any integrity finding is
    /// latched — corruption never heals by itself, so neither does this
    /// state; `1` (degraded) while an SLO objective is burning budget
    /// or the canary is in a failure run; `0` (healthy) otherwise.
    #[must_use]
    pub fn state_code(&self) -> u64 {
        if self.findings_total() > 0 {
            return 2;
        }
        if self.monitor.active_alerts() > 0
            || self.canary_consecutive.load(Ordering::Relaxed) >= CANARY_FAIL_LIMIT
        {
            return 1;
        }
        0
    }

    /// The state as a compiled-in label.
    #[must_use]
    pub fn state_label(&self) -> &'static str {
        match self.state_code() {
            0 => "healthy",
            1 => "degraded",
            _ => "failing",
        }
    }

    /// Claims one scrub-cadence slot: true at most once per
    /// `interval_us` (CAS, first call always wins). `interval_us == 0`
    /// never claims — the scrubber is disabled.
    fn scrub_due(&self, now_us: u64, interval_us: u64) -> bool {
        if interval_us == 0 {
            return false;
        }
        let last = self.last_scrub_us.load(Ordering::Relaxed);
        if last != 0 && now_us.saturating_sub(last) < interval_us {
            return false;
        }
        self.last_scrub_us
            .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    fn note_finding(&self, check: ScrubCheck, fingerprint: u64, value: u64) {
        self.findings[check.index()].fetch_add(1, Ordering::Relaxed);
        self.monitor.alerts().raise(
            self.monitor.now_us(),
            "scrub_integrity",
            check.label(),
            fingerprint,
            value,
            0,
        );
    }

    fn note_items(&self, check: ScrubCheck, n: u64) {
        self.items[check.index()].fetch_add(n, Ordering::Relaxed);
    }
}

impl SegShareEnclave {
    /// The health plane's shared state.
    #[must_use]
    pub fn health(&self) -> &Arc<HealthState> {
        &self.health
    }

    /// One background health tick, driven by the server's health
    /// runner (and harmless to call from anywhere else): samples the
    /// history even on an idle server (which gets no request-completion
    /// samples) and — when the scrub cadence elapsed — runs one
    /// budgeted scrub step. A no-op while introspection is off.
    pub fn health_tick(&self) -> Option<ScrubReport> {
        if !self.introspection_enabled() {
            return None;
        }
        self.health.monitor().sample_if_due(&self.obs);
        let now = self.health.monitor().now_us();
        if self.health.scrub_due(now, self.config.scrub_interval_us) {
            return Some(self.scrub_step());
        }
        None
    }

    /// Runs one budgeted integrity-scrub step, resuming the current
    /// pass. Each pass re-verifies the audit chain incrementally,
    /// walks the whole namespace through the verified (cache-
    /// bypassing) read path, probes cache coherence, and finishes with
    /// an orphan scan of the content and group stores. Findings are
    /// latched into the `failing` state and raised as fingerprint-only
    /// alerts. Scrub time is charged to the `scrub` profiler phase.
    pub fn scrub_step(&self) -> ScrubReport {
        let _prof = self.profile_root("scrub");
        let mut progress = self.health.progress.lock();
        let mut report = ScrubReport::default();

        if progress.start_keys.is_none() {
            let mut start = Vec::new();
            for kind in [StoreKind::Content, StoreKind::Group] {
                match self.store().list_store(kind) {
                    Ok(keys) => start.extend(keys.into_iter().map(|k| (kind, k))),
                    Err(_) => {
                        self.health.note_finding(ScrubCheck::Orphan, 0, 0);
                        report.findings += 1;
                    }
                }
            }
            *progress = ScrubProgress {
                start_keys: Some(start),
                audit_done: self.audit.is_none(),
                pending: vec![
                    ScrubItem::GroupRoot,
                    ScrubItem::GroupList,
                    ScrubItem::Dir(SegPath::root()),
                ],
                ..ScrubProgress::default()
            };
        }

        if !progress.audit_done {
            if let Some(log) = self.audit.as_ref() {
                let mut cursor = progress.audit_cursor.take();
                match log.verify_window(&mut cursor, AUDIT_RECORDS_PER_STEP) {
                    Ok(step) => {
                        self.health.note_items(ScrubCheck::Audit, step.checked);
                        report.items += step.checked;
                        progress.audit_done = step.complete;
                    }
                    Err(_) => {
                        self.health.note_finding(ScrubCheck::Audit, 0, 0);
                        report.findings += 1;
                        // The chain is bad; re-walking it each step
                        // would only repeat the finding this pass.
                        progress.audit_done = true;
                    }
                }
                progress.audit_cursor = cursor;
            }
        }

        let mut walked = 0usize;
        while walked < WALK_OBJECTS_PER_STEP {
            let Some(item) = progress.pending.pop() else {
                progress.walk_done = true;
                break;
            };
            walked += 1;
            self.scrub_walk_item(&item, &mut progress, &mut report);
        }
        self.health.note_items(ScrubCheck::Tree, walked as u64);
        report.items += walked as u64;

        if progress.walk_done && progress.audit_done {
            self.scrub_finish_pass(&mut progress, &mut report);
        }
        report
    }

    /// Verifies one namespace object (and discovers its children).
    /// Takes the object's read lock so a concurrent writer's multi-key
    /// update (tree record + body + directory entry) is never observed
    /// half-done.
    fn scrub_walk_item(
        &self,
        item: &ScrubItem,
        progress: &mut ScrubProgress,
        report: &mut ScrubReport,
    ) {
        let keys = self.store().keys();
        let mut finding = |fp: u64| {
            self.health.note_finding(ScrubCheck::Tree, fp, 0);
            report.findings += 1;
        };
        match item {
            ScrubItem::Dir(path) | ScrubItem::File(path) => {
                let _scope = self
                    .locks
                    .acquire(&[(LockKey::path(path), LockIntent::Read)]);
                let fp = || keys.fingerprint("object", path.as_str().as_bytes());
                let is_dir = matches!(item, ScrubItem::Dir(_));
                let data = if is_dir {
                    ObjectId::DirData(path.clone())
                } else {
                    ObjectId::FileData(path.clone())
                };
                let acl = ObjectId::Acl(path.clone());
                self.store().expected_keys(&data, &mut progress.expected);
                self.store().expected_keys(&acl, &mut progress.expected);
                // Objects are discovered from their parent directory (or
                // are the root, created at init): absence is loss.
                match self.store().scrub_read(&data) {
                    Ok(Some(body)) if is_dir => match DirFile::decode(&body) {
                        Ok(dir) => {
                            for (name, kind) in dir.children() {
                                if let Ok(child) = dir.child_path(name, kind) {
                                    progress.pending.push(match kind {
                                        seg_fs::ChildKind::Directory => ScrubItem::Dir(child),
                                        seg_fs::ChildKind::File => ScrubItem::File(child),
                                    });
                                }
                            }
                        }
                        Err(_) => finding(fp()),
                    },
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => finding(fp()),
                }
                if !matches!(self.store().scrub_read(&acl), Ok(Some(_))) {
                    finding(fp());
                }
            }
            ScrubItem::GroupRoot => {
                let _scope = self
                    .locks
                    .acquire(&[(LockKey::GroupRoot, LockIntent::Read)]);
                self.store()
                    .expected_keys(&ObjectId::GroupRoot, &mut progress.expected);
                match self.store().scrub_read(&ObjectId::GroupRoot) {
                    Ok(Some(body)) => match GroupRootFile::decode(&body) {
                        Ok(root) => {
                            for user in root.users() {
                                progress.pending.push(ScrubItem::Member(user.clone()));
                            }
                        }
                        Err(_) => finding(keys.fingerprint("object", b"group-root")),
                    },
                    // No groups were ever created: legitimately absent.
                    Ok(None) => {}
                    Err(_) => finding(keys.fingerprint("object", b"group-root")),
                }
            }
            ScrubItem::GroupList => {
                let _scope = self
                    .locks
                    .acquire(&[(LockKey::GroupList, LockIntent::Read)]);
                self.store()
                    .expected_keys(&ObjectId::GroupList, &mut progress.expected);
                if self.store().scrub_read(&ObjectId::GroupList).is_err() {
                    finding(keys.fingerprint("object", b"group-list"));
                }
            }
            ScrubItem::Member(user) => {
                let _scope = self
                    .locks
                    .acquire(&[(LockKey::member(user), LockIntent::Read)]);
                self.store()
                    .expected_keys(&ObjectId::MemberList(user.clone()), &mut progress.expected);
                if self
                    .store()
                    .scrub_read(&ObjectId::MemberList(user.clone()))
                    .is_err()
                {
                    finding(keys.fingerprint("user", user.as_str().as_bytes()));
                }
            }
        }
    }

    /// End-of-pass checks: the cache coherence probe, then the orphan
    /// scan — a key is an orphan only if it was present in *both* the
    /// pass-start and pass-end listings (a key seen once may be a
    /// legitimately created-then-deleted object mid-pass) and the walk
    /// never claimed it. Sealed-state and audit blobs (`!`-prefixed)
    /// are the host runtime's, and the dedup store is content-
    /// addressed with blobs intentionally retained forever — neither
    /// is scanned.
    fn scrub_finish_pass(&self, progress: &mut ScrubProgress, report: &mut ScrubReport) {
        let keys = self.store().keys();
        let (probed, mismatched) = self.store().scrub_cache_probe(CACHE_PROBES_PER_PASS);
        self.health.note_items(ScrubCheck::Cache, probed);
        report.items += probed;
        for id in mismatched {
            self.health.note_finding(
                ScrubCheck::Cache,
                keys.fingerprint("object", id.canonical().as_bytes()),
                0,
            );
            report.findings += 1;
        }

        let start: std::collections::HashSet<(StoreKind, String)> = progress
            .start_keys
            .take()
            .unwrap_or_default()
            .into_iter()
            .collect();
        let expected: std::collections::HashSet<(StoreKind, String)> =
            progress.expected.drain(..).collect();
        for kind in [StoreKind::Content, StoreKind::Group] {
            let end = match self.store().list_store(kind) {
                Ok(keys) => keys,
                Err(_) => {
                    self.health.note_finding(ScrubCheck::Orphan, 0, 0);
                    report.findings += 1;
                    continue;
                }
            };
            self.health.note_items(ScrubCheck::Orphan, end.len() as u64);
            report.items += end.len() as u64;
            for key in end {
                if key.starts_with('!') {
                    continue;
                }
                let entry = (kind, key);
                if start.contains(&entry) && !expected.contains(&entry) {
                    self.health.note_finding(
                        ScrubCheck::Orphan,
                        keys.fingerprint("orphan", entry.1.as_bytes()),
                        0,
                    );
                    report.findings += 1;
                }
            }
        }

        *progress = ScrubProgress::default();
        self.health.scrub_passes.fetch_add(1, Ordering::Relaxed);
        self.health
            .scrub_last_pass_us
            .store(self.health.monitor().now_us(), Ordering::Relaxed);
        report.pass_completed = true;
    }

    /// The `health` section of [`SegShareEnclave::introspect`]: the
    /// state machine's verdict, scrubber and canary counters, the
    /// alert-ring tail, and per-objective burn rates.
    pub(crate) fn health_json(&self) -> String {
        let h = &self.health;
        let mut out = format!(
            "{{\"state\":\"{}\",\"state_code\":{},\n\"scrub\":{{\"passes\":{},\
             \"last_pass_us\":{},\"interval_us\":{}",
            h.state_label(),
            h.state_code(),
            h.scrub_passes(),
            h.scrub_last_pass_us(),
            self.config.scrub_interval_us,
        );
        for check in ScrubCheck::ALL {
            out.push_str(&format!(
                ",\"{}\":{{\"items\":{},\"findings\":{}}}",
                check.label(),
                h.items(check),
                h.findings(check),
            ));
        }
        let alerts = h.monitor().alerts();
        out.push_str(&format!(
            "}},\n\"canary\":{{\"probes\":{},\"failures\":{},\"consecutive_failures\":{},\
             \"last_latency_us\":{}}},\n\"alerts\":{{\"total\":{},\"suppressed\":{},\
             \"active\":{},\"recent\":{}}},\n\"slo\":{}}}",
            h.canary_probes(),
            h.canary_failures(),
            h.canary_consecutive_failures(),
            h.canary_last_latency_us(),
            alerts.total(),
            alerts.suppressed(),
            h.monitor().active_alerts(),
            alerts.to_json(32),
            h.monitor().slo_json(),
        ));
        out
    }
}
