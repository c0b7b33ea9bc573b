//! The health plane end to end: a clean workload stays `healthy` with
//! zero alerts; every corruption class the §III-B attacker can inject
//! (content bit-flips, audit-trail truncation, stale rollback-tree
//! state, store orphans, cache incoherence) is caught by the
//! background scrubber within one pass and latches the `failing`
//! state with a correlated, fingerprint-only alert.

use std::sync::Arc;

use seg_store::{AdversaryStore, MemStore, ObjectStore};
use segshare::{EnclaveConfig, FsoSetup, HealthOptions, ScrubCheck, SegShareServer};

struct Rig {
    setup: FsoSetup,
    server: SegShareServer,
    content: Arc<AdversaryStore<MemStore>>,
}

fn rig(config: EnclaveConfig, seed: u64) -> Rig {
    let content = Arc::new(AdversaryStore::new(MemStore::new()));
    let group: Arc<dyn ObjectStore> = Arc::new(AdversaryStore::new(MemStore::new()));
    let dedup: Arc<dyn ObjectStore> = Arc::new(AdversaryStore::new(MemStore::new()));
    let setup = FsoSetup::with_stores(
        "ca",
        config,
        seg_sgx::Platform::new_with_seed(seed),
        Arc::clone(&content) as Arc<dyn ObjectStore>,
        group,
        dedup,
    );
    let server = setup.server().unwrap();
    Rig {
        setup,
        server,
        content,
    }
}

/// Drives budgeted scrub steps until one full pass completes,
/// returning the findings raised during it.
fn run_scrub_pass(server: &SegShareServer) -> u64 {
    let mut findings = 0;
    for _ in 0..10_000 {
        let report = server.enclave().scrub_step();
        findings += report.findings;
        if report.pass_completed {
            return findings;
        }
    }
    panic!("scrub pass did not complete within budget");
}

#[test]
fn clean_stationary_workload_stays_healthy_with_zero_alerts() {
    let config = EnclaveConfig {
        cache: true,
        ..EnclaveConfig::default()
    };
    let r = rig(config, 700);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.mkdir("/docs").unwrap();
    for i in 0..8 {
        let path = format!("/docs/f{i}");
        a.put(&path, &vec![i as u8; 2_000]).unwrap();
        assert_eq!(a.get(&path).unwrap().len(), 2_000);
    }

    // Two full scrub passes over the live namespace: nothing to find.
    for _ in 0..2 {
        assert_eq!(run_scrub_pass(&r.server), 0, "clean data must not alert");
    }
    let health = r.server.enclave().health();
    assert_eq!(health.state_code(), 0);
    assert_eq!(health.state_label(), "healthy");
    assert_eq!(health.findings_total(), 0);
    assert_eq!(health.monitor().alerts().total(), 0);
    assert_eq!(health.scrub_passes(), 2);
    assert!(
        health.items(ScrubCheck::Tree) > 10,
        "the walk visited the namespace"
    );
    assert!(
        health.items(ScrubCheck::Audit) > 0,
        "the audit chain was re-verified"
    );
    let report = r.server.introspect();
    assert!(report.contains("\"state\":\"healthy\""));
    assert!(report.contains("\"history\""));
}

#[test]
fn content_bitflip_latches_failing_with_fingerprint_only_alert() {
    let r = rig(EnclaveConfig::default(), 701);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.mkdir("/payroll").unwrap();
    a.put("/payroll/salaries", &vec![0x5au8; 40_000]).unwrap();

    // Flip one bit in some non-special content object: the walk's
    // verified read (AEAD + rollback tree) must refuse it.
    let key = r
        .content
        .inner()
        .list()
        .unwrap()
        .into_iter()
        .find(|k| !k.starts_with('!'))
        .expect("an encrypted object exists");
    r.content.tamper(&key, 13, 4).unwrap();

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0, "one pass must catch the bit-flip");
    let health = r.server.enclave().health();
    assert_eq!(health.state_code(), 2);
    assert_eq!(health.state_label(), "failing");
    assert!(health.monitor().alerts().total() > 0);

    // The alert and report are correlated but leak nothing: compiled-in
    // names and keyed fingerprints only — never paths or user ids.
    let report = r.server.introspect();
    assert!(report.contains("scrub_integrity"));
    assert!(!report.contains("payroll"), "no plaintext paths");
    assert!(!report.contains("salaries"), "no plaintext names");
    assert!(!report.contains("alice"), "no principal identities");
}

#[test]
fn audit_trail_truncation_is_an_audit_finding() {
    let r = rig(EnclaveConfig::default(), 702);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    for i in 0..5 {
        a.put(&format!("/f{i}"), b"body").unwrap();
    }

    // Delete one hash-chained audit record: the incremental window
    // verification must report the hole within the pass.
    let victim = r
        .content
        .inner()
        .list()
        .unwrap()
        .into_iter()
        .find(|k| k.starts_with("!audit-rec-"))
        .expect("audit records exist");
    r.content.inner().delete(&victim).unwrap();

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0);
    let health = r.server.enclave().health();
    assert!(
        health.findings(ScrubCheck::Audit) > 0,
        "the finding is attributed to the audit check"
    );
    assert_eq!(health.state_code(), 2);
}

#[test]
fn stale_tree_state_rollback_is_detected_by_the_walk() {
    let r = rig(EnclaveConfig::default(), 703);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();

    let before = r.content.inner().list().unwrap();
    a.put("/target", b"version 1").unwrap();
    let touched: Vec<String> = r
        .content
        .inner()
        .list()
        .unwrap()
        .into_iter()
        .filter(|k| !before.contains(k))
        .collect();
    for key in &touched {
        r.content.snapshot_object(key).unwrap();
    }
    a.put("/target", b"version 2 - revoked").unwrap();
    // Consistent rollback of the file's data *and* hash record: only
    // the parent tree comparison can catch it — exactly what the
    // scrubber's verified read performs.
    for key in &touched {
        r.content.rollback_object(key).unwrap();
    }

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0, "stale tree state must be caught in one pass");
    let health = r.server.enclave().health();
    assert!(health.findings(ScrubCheck::Tree) > 0);
    assert_eq!(health.state_code(), 2);
}

#[test]
fn orphaned_store_key_is_an_orphan_finding() {
    let r = rig(EnclaveConfig::default(), 704);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();
    a.put("/real", b"legitimate").unwrap();

    // A key the enclave never wrote (attacker garbage, or a refcount
    // leak from a buggy host): present across a whole pass and never
    // claimed by the walk.
    r.content
        .inner()
        .put("deadbeef-not-an-enclave-object", b"junk")
        .unwrap();

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0);
    let health = r.server.enclave().health();
    assert!(health.findings(ScrubCheck::Orphan) > 0);
    assert_eq!(
        health.findings(ScrubCheck::Tree),
        0,
        "the walk itself saw nothing wrong"
    );
    assert_eq!(health.state_code(), 2);
}

#[test]
fn cache_coherence_probe_catches_tampering_under_a_live_entry() {
    let config = EnclaveConfig {
        cache: true,
        ..EnclaveConfig::default()
    };
    let r = rig(config, 705);
    let alice = r.setup.enroll_user("alice", "a@x", "Alice").unwrap();
    let mut a = r.server.connect_local(&alice).unwrap();

    let before = r.content.inner().list().unwrap();
    a.put("/hot", &vec![7u8; 1_000]).unwrap();
    let touched: Vec<String> = r
        .content
        .inner()
        .list()
        .unwrap()
        .into_iter()
        .filter(|k| !before.contains(k))
        .collect();
    // Warm the cache: the download path fills the body entry.
    assert_eq!(a.get("/hot").unwrap().len(), 1_000);
    assert_eq!(a.get("/hot").unwrap().len(), 1_000);

    // Tamper the backing store *under* the live cache entry. Requests
    // served from cache would keep succeeding — only the coherence
    // probe's cache-vs-verified-reread comparison sees the divergence.
    for key in &touched {
        let _ = r.content.tamper(key, 13, 1);
    }

    let findings = run_scrub_pass(&r.server);
    assert!(findings > 0);
    let health = r.server.enclave().health();
    assert!(
        health.findings(ScrubCheck::Cache) + health.findings(ScrubCheck::Tree) > 0,
        "divergence caught by the cache probe and/or the walk"
    );
    assert_eq!(health.state_code(), 2);
}

#[test]
fn health_runner_scrubs_probes_and_samples_an_idle_server() {
    let config = EnclaveConfig {
        // Aggressive cadence so the test observes full passes quickly.
        scrub_interval_us: 5_000,
        ..EnclaveConfig::default()
    };
    let r = rig(config, 706);
    let canary = r.setup.enroll_user("canary", "c@x", "Canary").unwrap();
    r.server.start_health(HealthOptions {
        canary: Some(canary),
        tick_us: 2_000,
        canary_interval_us: 10_000,
    });

    // The server is otherwise idle: every signal below is produced by
    // the background runner alone.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let health = r.server.enclave().health();
        if health.scrub_passes() >= 2 && health.canary_probes() >= 3 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "runner made no progress: passes={} probes={}",
            health.scrub_passes(),
            health.canary_probes()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    r.server.stop_health();

    let health = r.server.enclave().health();
    assert_eq!(health.canary_failures(), 0, "loopback probes succeed");
    assert!(health.canary_last_latency_us() > 0);
    assert_eq!(
        health.findings_total(),
        0,
        "an untampered server scrubs clean (canary objects included)"
    );
    assert_eq!(health.state_code(), 0);

    let snapshot = r.server.metrics_snapshot();
    assert!(snapshot.counter("seg_scrub_passes_total").unwrap_or(0) >= 2);
    assert!(
        snapshot
            .counter("seg_health_canary_probes_total")
            .unwrap_or(0)
            >= 3
    );
    let report = r.server.introspect();
    assert!(report.contains("\"state\":\"healthy\""));
    assert!(report.contains("\"canary\""));
}

#[test]
fn disabled_health_plane_is_inert() {
    let r = rig(EnclaveConfig::default(), 707);
    r.server.set_introspection(false);
    assert!(r.server.enclave().health_tick().is_none());
    let health = r.server.enclave().health();
    assert!(!r.server.enclave().introspection_enabled());
    assert_eq!(health.scrub_passes(), 0);
    // The report still renders (state machine reads, no scrub work).
    let report = r.server.introspect();
    assert!(report.contains("\"enabled\":false"));
    r.server.set_introspection(true);
    assert!(r.server.enclave().introspection_enabled());
}
