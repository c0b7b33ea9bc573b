//! Attribution integration: the seg-meter sketch's accuracy,
//! cardinality bound, and trust-boundary behaviour over a real server.
//!
//! Four contract points:
//!
//! 1. heavy-hitter recall — a Zipf(1.0) workload over 1,000 principals
//!    squeezed into 64 slots still surfaces ≥ 9 of the true top-10 in
//!    the report; and a heavy hitter that arrives after every slot is
//!    taken is still attributed exactly;
//! 2. fixed memory — tracked keys never exceed [`METER_SLOTS`] per
//!    axis no matter how many principals appear, and the report stays
//!    bounded in size;
//! 3. no operand leak — neither `introspect()` nor the Prometheus
//!    export carries a raw principal, group, or path operand (paper
//!    §III: everything leaving the enclave is adversary-visible).
//!
//! Plus property tests over the SpaceSaving sketch invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;
use seg_obs::meter::Axis;
use seg_obs::{CostVector, Meter, MeterAxis, METER_SLOTS};
use segshare::{EnclaveConfig, FsoSetup};

/// One-op cost vector used by the sketch-level tests.
fn unit_cost(bytes: u64) -> CostVector {
    CostVector {
        ops: 1,
        req_bytes: bytes,
        ..CostVector::default()
    }
}

/// Extracts every `"fp":"<16 hex>"` fingerprint from the `section`
/// object of a meter report (hand-rolled like the report itself).
fn report_fps(report: &str, section: &str) -> Vec<u64> {
    let start = report
        .find(&format!("\"{section}\":{{"))
        .unwrap_or_else(|| panic!("report has a {section} section"));
    // The per-axis sections are emitted in order; cut at the next
    // top-level axis (or fairness) key to scope the scan.
    let rest = &report[start + section.len() + 4..];
    let end = [
        "\"groups\":{",
        "\"prefixes\":{",
        "\"objects\":{",
        "\"fairness\":{",
    ]
    .iter()
    .filter_map(|k| rest.find(k))
    .min()
    .unwrap_or(rest.len());
    let scoped = &rest[..end];
    let mut fps = Vec::new();
    let mut at = 0;
    while let Some(pos) = scoped[at..].find("\"fp\":\"") {
        let hex = &scoped[at + pos + 6..at + pos + 22];
        fps.push(u64::from_str_radix(hex, 16).expect("16-hex fingerprint"));
        at += pos + 22;
    }
    // The `top_by` per-dimension lists repeat keys from `top`; the
    // caller wants the distinct attributed fingerprints.
    fps.sort_unstable();
    fps.dedup();
    fps
}

#[test]
fn zipf_thousand_principals_recovered_from_report() {
    // The tentpole acceptance bar, end to end through the report:
    // Zipf(1.0), 1,000 principals, 64 slots — `report_json()` (the
    // producer of `SegShareServer::introspect`'s attribution) must name
    // at least 9 of the true top-10 principals by op count.
    let n = 1_000usize;
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    // Deterministic xorshift (different seed than the unit test, same
    // distribution) so the test cannot flake.
    let mut state = 0x517c_c1b7_2722_0a95u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let meter = Meter::default();
    let mut truth = vec![0u64; n + 1];
    for _ in 0..60_000 {
        let u = next();
        let rank = cdf.partition_point(|&c| c < u).min(n - 1);
        let fp = (rank as u64 + 1).wrapping_mul(0x0101_0101_0101_0101);
        truth[rank + 1] += 1;
        meter.record([fp, 0, 0, 0], &unit_cost(32));
    }

    let mut ranked: Vec<(u64, u64)> = (1..=n as u64).map(|r| (truth[r as usize], r)).collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    let reported = report_fps(&meter.report_json(), "principals");
    let recalled = ranked[..10]
        .iter()
        .filter(|&&(_, r)| reported.contains(&r.wrapping_mul(0x0101_0101_0101_0101)))
        .count();
    assert!(
        recalled >= 9,
        "report recovered only {recalled}/10 true heavy hitters"
    );

    // Memory stays fixed: 1,000 distinct principals, ≤ 64 tracked.
    let stats = meter.stats(Axis::Principal);
    assert!(stats.tracked <= METER_SLOTS as u64);
    assert!(stats.evictions > 0, "sketch was under pressure");
}

#[test]
fn metering_memory_is_fixed_as_principals_grow() {
    // Grow the principal population 50x past capacity: tracked slots
    // and the report's size must not grow with it.
    let meter = Meter::default();
    for i in 1..=200u64 {
        meter.record([i, i, i, i], &unit_cost(16));
    }
    let small_report_len = meter.report_json().len();
    for i in 1..=10_000u64 {
        meter.record([i, i % 97 + 1, i % 31 + 1, i], &unit_cost(16));
    }
    for axis in Axis::ALL {
        let s = meter.stats(axis);
        assert!(
            s.tracked <= METER_SLOTS as u64,
            "{axis:?} axis tracks {} > {METER_SLOTS} keys",
            s.tracked
        );
    }
    // The report is top-K over fixed slots: its size is bounded by the
    // slot count, not the key population (allow slack for wider
    // numbers at higher counts).
    let big_report_len = meter.report_json().len();
    assert!(
        big_report_len < small_report_len * 2,
        "report grew with population: {small_report_len} -> {big_report_len}"
    );
    // Nothing was lost to the bound: overflow conserves evicted ops.
    assert_eq!(meter.totals().ops, 10_200);
}

#[test]
fn meter_exports_carry_no_request_operands() {
    // Distinctive operands on every axis the meter attributes: the
    // principal (user id), the group name, and the path prefix. None
    // may appear in the report or the Prometheus export.
    const SECRETS: &[&str] = &[
        "meterprincipal",
        "meterfriend",
        "metergroup",
        "tenant-prefix",
        "billing-doc",
        "acme.example",
    ];
    let setup = FsoSetup::new_in_memory("meter-ca", EnclaveConfig::default());
    let server = setup.server().expect("setup");
    let alice = setup
        .enroll_user("meterprincipal", "meterprincipal@acme.example", "A")
        .expect("enroll");
    let bob = setup
        .enroll_user("meterfriend", "meterfriend@acme.example", "B")
        .expect("enroll");

    let mut a = server.connect_local(&alice).expect("connect");
    a.mkdir("/tenant-prefix/").expect("mkdir");
    a.put("/tenant-prefix/billing-doc", b"invoice body")
        .expect("upload");
    a.add_user("meterprincipal", "metergroup").expect("group");
    a.add_user("meterfriend", "metergroup").expect("share");
    a.set_perm(
        "/tenant-prefix/billing-doc",
        "metergroup",
        seg_fs::Perm::Read,
    )
    .expect("grant");
    let mut b = server.connect_local(&bob).expect("connect");
    assert_eq!(
        b.get("/tenant-prefix/billing-doc").expect("download"),
        b"invoice body"
    );
    drop(a);
    drop(b);
    std::thread::sleep(std::time::Duration::from_millis(100));

    let report = server.introspect();
    let prometheus = server.metrics_snapshot().to_prometheus();
    for (name, text) in [("introspect", &report), ("prometheus", &prometheus)] {
        for secret in SECRETS {
            assert!(!text.contains(secret), "{name} leaks {secret:?}");
        }
        assert!(!text.contains('/'), "{name} carries a path separator");
        assert!(!text.contains('@'), "{name} carries an email-like token");
    }

    // Both principals, the group, and the prefix were still attributed
    // — as fingerprints.
    // mkdir + upload + 2 membership updates + grant + download: at
    // least six dispatched requests were attributed.
    assert!(server.enclave().meter().samples() >= 6, "flow was metered");
    let principals = report_fps(&report, "principals");
    assert_eq!(principals.len(), 2, "two tracked talkers: {report}");
    assert!(
        !report_fps(&report, "groups").is_empty(),
        "group attributed"
    );
    assert!(
        !report_fps(&report, "prefixes").is_empty(),
        "prefix attributed"
    );
}

#[test]
fn late_heavy_hitter_is_attributed_exactly() {
    // 64 principals take every principal slot with one request each;
    // then a 65th makes 100 failing requests. A first-come table would
    // pin the early 64 and fold the late heavy hitter into overflow —
    // the sketch must report its requests and errors exactly.
    let setup = FsoSetup::new_in_memory("late-ca", EnclaveConfig::default());
    let server = setup.server().expect("setup");
    for i in 0..64 {
        let name = format!("early{i:02}");
        let user = setup
            .enroll_user(&name, &format!("{name}@x"), &name)
            .expect("enroll");
        let mut c = server.connect_local(&user).expect("connect");
        c.mkdir(&format!("/{name}")).expect("mkdir");
    }
    let late = setup.enroll_user("late", "late@x", "Late").expect("enroll");
    let mut c = server.connect_local(&late).expect("connect");
    for _ in 0..100 {
        assert!(c.get("/absent").is_err(), "the request fails");
    }
    drop(c);

    let fp = server
        .enclave()
        .fingerprint_user(&seg_fs::UserId::new("late").expect("valid id"));
    let report = server.introspect();
    assert!(report_fps(&report, "principals").contains(&fp), "{report}");
    let slot = &report[report.find(&format!("\"fp\":\"{fp:016x}\"")).unwrap()..];
    let costs = &slot[slot.find("\"costs\":").unwrap()..slot.find('}').unwrap()];
    let dim = |name: &str| -> u64 {
        let at = costs.find(&format!("\"{name}\":")).unwrap() + name.len() + 3;
        costs[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!((dim("ops"), dim("errors")), (100, 100), "{costs}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// SpaceSaving invariants under arbitrary key streams squeezed
    /// into a tiny axis: for every tracked key,
    /// `true ≤ est` and `est − err ≤ true`; every slot's error stays
    /// at or below the tracked minimum estimate; and the op rollups
    /// (tracked + overflow) conserve the update count exactly.
    #[test]
    fn spacesaving_bounds_hold(keys in proptest::collection::vec(1..24u64, 1..600)) {
        let mut axis = MeterAxis::new(8);
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in &keys {
            axis.record(k, &unit_cost(k));
            *truth.entry(k).or_insert(0) += 1;
            // Invariants hold at every step, not just at the end.
            let min = axis.min_est();
            for s in axis.top(0, usize::MAX) {
                let t = truth.get(&s.fp).copied().unwrap_or(0);
                prop_assert!(s.est >= t, "fp {} est {} under-counts {t}", s.fp, s.est);
                prop_assert!(s.est - s.err <= t, "fp {} lower bound {} above {t}", s.fp, s.est - s.err);
                prop_assert!(s.err <= min, "fp {} err {} above minimum {min}", s.fp, s.err);
            }
        }
        prop_assert!(axis.tracked() <= 8);
        prop_assert_eq!(axis.updates(), keys.len() as u64);
        prop_assert_eq!(axis.tracked_ops() + axis.overflow().ops, axis.updates());
        // Cost conservation beyond ops: per-request req_bytes survive
        // eviction via the overflow rollup.
        let fed: u64 = keys.iter().sum();
        let tracked: u64 = axis.top(0, usize::MAX).iter().map(|s| s.costs.req_bytes).sum();
        prop_assert_eq!(tracked + axis.overflow().req_bytes, fed);
    }

    /// A key hot enough to exceed the sketch's noise floor is always
    /// tracked at the end of the stream (the SpaceSaving guarantee:
    /// any key with true count > updates / capacity survives).
    #[test]
    fn heavy_keys_are_never_lost(noise in proptest::collection::vec(2..100u64, 64..256)) {
        let mut axis = MeterAxis::new(8);
        // Interleave one heavy key so it always exceeds updates/8.
        for chunk in noise.chunks(4) {
            for &k in chunk {
                axis.record(k, &unit_cost(1));
            }
            for _ in 0..chunk.len() {
                axis.record(1, &unit_cost(1));
            }
        }
        let slot = axis.slot(1);
        prop_assert!(slot.is_some(), "majority key evicted: {axis:?}");
        let heavy_true = noise.chunks(4).map(|c| c.len() as u64).sum::<u64>();
        let s = slot.unwrap();
        prop_assert!(s.est >= heavy_true);
        prop_assert!(s.est - s.err <= heavy_true);
    }
}
