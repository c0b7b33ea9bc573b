//! `seg-meter`: cardinality-bounded per-key resource and SLO
//! attribution.
//!
//! Metrics say *what* the system is doing, traces *what one request
//! did*, the profiler *where the time went*, and the health monitor
//! *whether the system is keeping up*. This module answers **who is
//! costing what, and who is being served badly**: each completed
//! request's cost vector — ops, bytes moved, crypto and lock-wait
//! nanoseconds, cache and store activity, audit bytes, plus its
//! outcome (error, slow) and latency — is attributed to the requesting
//! principal, the touched group, the touched path prefix, and the
//! touched object.
//!
//! # Bounded memory under adversarial cardinality
//!
//! Principals, groups, prefixes, and objects are client-controlled in
//! number, so exact per-key tables would let an adversary grow enclave
//! memory without bound. Each attribution [`Axis`] therefore keeps a
//! **SpaceSaving top-K sketch** ([`MeterAxis`]) of at most
//! [`METER_SLOTS`] tracked keys — the only bounded-cardinality
//! structure in `seg-obs`:
//!
//! - a tracked key's op **estimate** only over-counts, never under:
//!   `true ≤ est ≤ true + err`, with the per-slot error bound `err`
//!   inherited from the evicted minimum at takeover;
//! - `err` never exceeds the smallest tracked estimate, so heavy
//!   hitters are provably separated from the noise floor, and a key
//!   that turns heavy late still takes over a slot;
//! - the full cost vector is an **exact rollup while tracked**; evicted
//!   rollups fold into the axis's overflow bucket, so cost totals are
//!   conserved: `Σ tracked + overflow = everything attributed`.
//!
//! # Trust boundary
//!
//! Keys are keyed fingerprints (the same HMAC outputs trace and audit
//! carry), rendered as 16 hex digits; cost values are aggregate counts
//! and durations. [`Meter::report_json`] is a declassification point:
//! deliberate, explicit, and content-free by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hard cap on tracked keys per attribution axis. Memory per axis is
/// `METER_SLOTS × sizeof(slot)` regardless of how many distinct keys
/// ever appear.
pub const METER_SLOTS: usize = 64;

/// Dimension names of a [`CostVector`], in field order. Compiled-in
/// strings, valid as metric label values (`[a-z0-9_.]`).
pub const COST_DIMS: [&str; 14] = [
    "ops",
    "req_bytes",
    "resp_bytes",
    "crypto_ns",
    "lock_wait_ns",
    "cache_hits",
    "cache_misses",
    "store_reads",
    "store_writes",
    "audit_bytes",
    "errors",
    "slow",
    "latency_us",
    "latency_max_us",
];

/// The per-request cost vector: what one request (or an aggregate of
/// requests) cost the system and how it was served, in every dimension
/// the existing instrumentation already measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostVector {
    /// Completed requests.
    pub ops: u64,
    /// Decrypted request bytes entering dispatch.
    pub req_bytes: u64,
    /// Payload bytes handed back (announced download sizes included).
    pub resp_bytes: u64,
    /// Wall-clock nanoseconds inside AES-GCM phases.
    pub crypto_ns: u64,
    /// Nanoseconds spent waiting for object locks.
    pub lock_wait_ns: u64,
    /// Object-cache hits consumed.
    pub cache_hits: u64,
    /// Object-cache misses caused.
    pub cache_misses: u64,
    /// Untrusted-store read-side operations (get/exists/list).
    pub store_reads: u64,
    /// Untrusted-store write-side operations (put/delete/rename).
    pub store_writes: u64,
    /// Sealed audit-trail bytes appended on this principal's behalf.
    pub audit_bytes: u64,
    /// Requests that finished with a client-visible error.
    pub errors: u64,
    /// Requests at or above the stall deadline.
    pub slow: u64,
    /// Sum of request latencies in microseconds.
    pub latency_us: u64,
    /// Largest single request latency in microseconds (merged by max,
    /// not summed).
    pub latency_max_us: u64,
}

impl CostVector {
    /// Adds `other` into `self`: saturating per dimension, except
    /// `latency_max_us`, which keeps the larger value.
    pub fn add(&mut self, other: &CostVector) {
        self.ops = self.ops.saturating_add(other.ops);
        self.req_bytes = self.req_bytes.saturating_add(other.req_bytes);
        self.resp_bytes = self.resp_bytes.saturating_add(other.resp_bytes);
        self.crypto_ns = self.crypto_ns.saturating_add(other.crypto_ns);
        self.lock_wait_ns = self.lock_wait_ns.saturating_add(other.lock_wait_ns);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.store_reads = self.store_reads.saturating_add(other.store_reads);
        self.store_writes = self.store_writes.saturating_add(other.store_writes);
        self.audit_bytes = self.audit_bytes.saturating_add(other.audit_bytes);
        self.errors = self.errors.saturating_add(other.errors);
        self.slow = self.slow.saturating_add(other.slow);
        self.latency_us = self.latency_us.saturating_add(other.latency_us);
        self.latency_max_us = self.latency_max_us.max(other.latency_max_us);
    }

    /// The value of dimension `i` (index into [`COST_DIMS`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= COST_DIMS.len()`.
    #[must_use]
    pub fn dim(&self, i: usize) -> u64 {
        [
            self.ops,
            self.req_bytes,
            self.resp_bytes,
            self.crypto_ns,
            self.lock_wait_ns,
            self.cache_hits,
            self.cache_misses,
            self.store_reads,
            self.store_writes,
            self.audit_bytes,
            self.errors,
            self.slow,
            self.latency_us,
            self.latency_max_us,
        ][i]
    }

    fn push_json(&self, out: &mut String) {
        out.push('{');
        for (i, name) in COST_DIMS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", self.dim(i)));
        }
        out.push('}');
    }
}

/// An attribution axis of the [`Meter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The requesting principal (the "talkers" list).
    Principal,
    /// The group a request touches.
    Group,
    /// The top-level path component a request touches.
    Prefix,
    /// The object (path or group name) a request touches.
    Object,
}

impl Axis {
    /// Every axis, in the order [`Meter::record`] takes its keys.
    pub const ALL: [Axis; 4] = [Axis::Principal, Axis::Group, Axis::Prefix, Axis::Object];

    /// The compiled-in `axis` label value of the `seg_meter_*` families.
    #[must_use]
    pub fn label(self) -> &'static str {
        ["principal", "group", "prefix", "object"][self as usize]
    }

    fn section(self) -> &'static str {
        ["principals", "groups", "prefixes", "objects"][self as usize]
    }
}

/// One tracked key of a [`MeterAxis`]: the SpaceSaving counter pair
/// plus the exact cost rollup accumulated while the key was tracked.
#[derive(Debug, Clone, Copy)]
pub struct MeterSlot {
    /// Keyed fingerprint of the principal / group / prefix.
    pub fp: u64,
    /// SpaceSaving op-count estimate: `true ≤ est ≤ true + err`.
    pub est: u64,
    /// Over-count bound inherited from the evicted minimum.
    pub err: u64,
    /// Exact cost rollup since this key was (last) admitted.
    pub costs: CostVector,
}

/// One attribution axis: a SpaceSaving top-K sketch over keyed
/// fingerprints with exact cost rollups for tracked slots and an
/// overflow rollup conserving everything evicted.
#[derive(Debug)]
pub struct MeterAxis {
    slots: Vec<MeterSlot>,
    capacity: usize,
    overflow: CostVector,
    evictions: u64,
    updates: u64,
}

impl Default for MeterAxis {
    fn default() -> MeterAxis {
        MeterAxis::new(METER_SLOTS)
    }
}

impl MeterAxis {
    /// An empty axis tracking at most `capacity` keys.
    #[must_use]
    pub fn new(capacity: usize) -> MeterAxis {
        MeterAxis {
            slots: Vec::new(),
            capacity: capacity.max(1),
            overflow: CostVector::default(),
            evictions: 0,
            updates: 0,
        }
    }

    /// Attributes one request's costs to `fp` (0 = "no operand of this
    /// kind", skipped). The SpaceSaving update: tracked keys increment
    /// in place; new keys fill free slots; once full, the minimum
    /// estimate is evicted (its exact rollup folds into the overflow
    /// bucket) and the newcomer inherits `est = min + 1, err = min`.
    pub fn record(&mut self, fp: u64, cost: &CostVector) {
        if fp == 0 {
            return;
        }
        self.updates += 1;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.fp == fp) {
            slot.est += 1;
            slot.costs.add(cost);
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(MeterSlot {
                fp,
                est: 1,
                err: 0,
                costs: *cost,
            });
            return;
        }
        let (min_idx, min_est) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.est)
            .map(|(i, s)| (i, s.est))
            .expect("a full axis has slots");
        self.overflow.add(&self.slots[min_idx].costs);
        self.evictions += 1;
        self.slots[min_idx] = MeterSlot {
            fp,
            est: min_est + 1,
            err: min_est,
            costs: *cost,
        };
    }

    /// Number of currently tracked keys (≤ capacity).
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.slots.len()
    }

    /// Keys evicted from the sketch so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Attribution updates recorded (nonzero fingerprints only).
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The smallest tracked estimate — the noise floor every slot's
    /// error bound stays at or below. 0 while the axis has free slots.
    #[must_use]
    pub fn min_est(&self) -> u64 {
        if self.slots.len() < self.capacity {
            return 0;
        }
        self.slots.iter().map(|s| s.est).min().unwrap_or(0)
    }

    /// The overflow rollup: exact costs of every evicted key.
    #[must_use]
    pub fn overflow(&self) -> &CostVector {
        &self.overflow
    }

    /// A slot by fingerprint, if tracked.
    #[must_use]
    pub fn slot(&self, fp: u64) -> Option<&MeterSlot> {
        self.slots.iter().find(|s| s.fp == fp)
    }

    /// The top `k` tracked slots by dimension `dim` (index into
    /// [`COST_DIMS`]; 0 ranks by the op estimate, other dimensions by
    /// their exact rollup value), descending, ties broken by
    /// fingerprint for determinism.
    #[must_use]
    pub fn top(&self, dim: usize, k: usize) -> Vec<MeterSlot> {
        let mut sorted: Vec<MeterSlot> = self.slots.clone();
        sorted.sort_by_key(|s| {
            let v = if dim == 0 { s.est } else { s.costs.dim(dim) };
            (std::cmp::Reverse(v), s.fp)
        });
        sorted.truncate(k);
        sorted
    }

    /// Sum of the exact op rollups across tracked slots.
    #[must_use]
    pub fn tracked_ops(&self) -> u64 {
        self.slots.iter().map(|s| s.costs.ops).sum()
    }
}

/// Per-axis summary for the metric families (`seg_meter_*`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AxisStats {
    /// Currently tracked keys.
    pub tracked: u64,
    /// Keys evicted so far.
    pub evictions: u64,
    /// Ops attributed to evicted keys (the overflow bucket).
    pub overflow_ops: u64,
    /// The sketch's current noise floor (smallest tracked estimate).
    pub min_est: u64,
}

#[derive(Debug, Default)]
struct MeterInner {
    totals: CostVector,
    axes: [MeterAxis; 4],
}

/// The attribution sketch: one bounded [`MeterAxis`] (of
/// [`METER_SLOTS`] slots) per [`Axis`]
/// behind one lock, fed once per completed request. All methods take
/// `&self`; safe to share via `Arc` across session threads. Whether
/// requests are fed at all is the caller's switch.
#[derive(Debug, Default)]
pub struct Meter {
    samples: AtomicU64,
    inner: Mutex<MeterInner>,
}

impl Meter {
    /// Requests attributed so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Attributes one request's cost vector to its keys, one keyed
    /// fingerprint per axis in [`Axis::ALL`] order (0 = the request
    /// touches no operand of that kind).
    pub fn record(&self, keys: [u64; 4], cost: &CostVector) {
        self.samples.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        inner.totals.add(cost);
        for (axis, fp) in inner.axes.iter_mut().zip(keys) {
            axis.record(fp, cost);
        }
    }

    /// Grand totals across every attributed request (including ones
    /// whose operands carried no key on some axis).
    #[must_use]
    pub fn totals(&self) -> CostVector {
        self.inner.lock().unwrap().totals
    }

    /// One axis's summary for the `seg_meter_*` metric families.
    #[must_use]
    pub fn stats(&self, axis: Axis) -> AxisStats {
        let inner = self.inner.lock().unwrap();
        let a = &inner.axes[axis as usize];
        AxisStats {
            tracked: a.tracked() as u64,
            evictions: a.evictions(),
            overflow_ops: a.overflow().ops,
            min_est: a.min_est(),
        }
    }

    /// The top `k` keys of `axis` by op estimate.
    #[must_use]
    pub fn top(&self, axis: Axis, k: usize) -> Vec<MeterSlot> {
        self.inner.lock().unwrap().axes[axis as usize].top(0, k)
    }

    /// Hand-rolled JSON report: per-axis top-K with estimates, error
    /// bounds, and exact cost rollups; per-dimension leader boards; and
    /// a fairness summary (tracked vs overflow share per axis).
    ///
    /// Declassification point: fingerprints render as 16 hex digits
    /// (the trace idiom), dimension names are compiled in, values are
    /// aggregates.
    #[must_use]
    pub fn report_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = format!(
            "{{\n\"samples\":{},\n\"slots\":{METER_SLOTS},\n\"totals\":",
            self.samples()
        );
        inner.totals.push_json(&mut out);
        out.push_str(",\n");
        for (axis, a) in Axis::ALL.iter().zip(&inner.axes) {
            out.push_str(&format!(
                "\"{}\":{{\"tracked\":{},\"evictions\":{},\"min_tracked_ops\":{},\"overflow\":",
                axis.section(),
                a.tracked(),
                a.evictions(),
                a.min_est(),
            ));
            a.overflow().push_json(&mut out);
            out.push_str(",\n\"top\":[");
            for (i, s) in a.top(0, 16).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n{{\"fp\":\"{:016x}\",\"ops_est\":{},\"err\":{},\"costs\":",
                    s.fp, s.est, s.err
                ));
                s.costs.push_json(&mut out);
                out.push('}');
            }
            out.push_str("\n],\n\"top_by\":{");
            for (d, dim) in COST_DIMS.iter().enumerate().skip(1) {
                if d > 1 {
                    out.push(',');
                }
                out.push_str(&format!("\n\"{dim}\":["));
                for (i, s) in a.top(d, 5).iter().enumerate() {
                    if s.costs.dim(d) == 0 {
                        break;
                    }
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"fp\":\"{:016x}\",\"value\":{}}}",
                        s.fp,
                        s.costs.dim(d)
                    ));
                }
                out.push(']');
            }
            out.push_str("\n}},\n");
        }
        out.push_str("\"fairness\":{");
        for (i, (axis, a)) in Axis::ALL.iter().zip(&inner.axes).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tracked = a.tracked_ops();
            let overflow = a.overflow().ops;
            let total = (tracked + overflow).max(1);
            let top8: u64 = a.top(0, 8).iter().map(|s| s.costs.ops).sum();
            out.push_str(&format!(
                "\n\"{}\":{{\"attributed_ops\":{},\"tracked_share_milli\":{},\
                 \"overflow_share_milli\":{},\"top8_share_milli\":{}}}",
                axis.section(),
                tracked + overflow,
                tracked * 1000 / total,
                overflow * 1000 / total,
                top8 * 1000 / total,
            ));
        }
        out.push_str("\n}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cost() -> CostVector {
        CostVector {
            ops: 1,
            req_bytes: 10,
            ..CostVector::default()
        }
    }

    #[test]
    fn tracked_keys_roll_up_exactly() {
        let mut axis = MeterAxis::new(4);
        for _ in 0..5 {
            axis.record(7, &unit_cost());
        }
        let s = axis.slot(7).unwrap();
        assert_eq!((s.est, s.err), (5, 0));
        assert_eq!(s.costs.ops, 5);
        assert_eq!(s.costs.req_bytes, 50);
        assert_eq!(axis.overflow().ops, 0);
    }

    #[test]
    fn eviction_inherits_min_and_conserves_costs() {
        let mut axis = MeterAxis::new(2);
        for _ in 0..3 {
            axis.record(1, &unit_cost());
        }
        axis.record(2, &unit_cost());
        // Axis full; key 3 evicts the minimum (key 2, est 1).
        axis.record(3, &unit_cost());
        assert!(axis.slot(2).is_none());
        let s = axis.slot(3).unwrap();
        assert_eq!((s.est, s.err), (2, 1));
        assert_eq!(s.costs.ops, 1, "rollup is exact since admission");
        assert_eq!(axis.overflow().ops, 1, "evicted rollup folds into overflow");
        assert_eq!(axis.evictions(), 1);
        // Conservation: tracked + overflow == updates.
        assert_eq!(axis.tracked_ops() + axis.overflow().ops, axis.updates());
    }

    #[test]
    fn estimates_upper_bound_true_counts() {
        let mut axis = MeterAxis::new(4);
        let mut truth = std::collections::BTreeMap::new();
        // Adversarial rotation: more keys than slots, skewed counts.
        for round in 0..200u64 {
            let fp = 1 + (round % 9);
            let reps = if fp <= 2 { 3 } else { 1 };
            for _ in 0..reps {
                axis.record(fp, &unit_cost());
                *truth.entry(fp).or_insert(0u64) += 1;
            }
        }
        let min = axis.min_est();
        for fp in 1..=9u64 {
            if let Some(s) = axis.slot(fp) {
                let t = truth[&fp];
                assert!(s.est >= t, "estimate {} under-counts true {}", s.est, t);
                assert!(
                    s.est - s.err <= t,
                    "lower bound {} exceeds true {t}",
                    s.est - s.err
                );
                assert!(s.err <= min, "error {} above noise floor {min}", s.err);
            }
        }
        assert_eq!(axis.tracked(), 4, "memory stays at capacity");
        assert_eq!(axis.tracked_ops() + axis.overflow().ops, axis.updates());
    }

    #[test]
    fn zero_fingerprints_are_skipped() {
        let mut axis = MeterAxis::new(2);
        axis.record(0, &unit_cost());
        assert_eq!(axis.tracked(), 0);
        assert_eq!(axis.updates(), 0);
        let meter = Meter::default();
        meter.record([0; 4], &unit_cost());
        // The request still counts toward samples and grand totals.
        assert_eq!(meter.samples(), 1);
        assert_eq!(meter.totals().ops, 1);
        for axis in Axis::ALL {
            assert_eq!(meter.stats(axis).tracked, 0);
        }
    }

    #[test]
    fn rollup_tracks_errors_and_slow_requests() {
        let meter = Meter::default();
        let request = |ok: bool, us: u64| CostVector {
            ops: 1,
            errors: u64::from(!ok),
            slow: u64::from(us >= 100),
            latency_us: us,
            latency_max_us: us,
            ..CostVector::default()
        };
        meter.record([7, 0, 0, 9], &request(true, 50));
        meter.record([7, 0, 0, 9], &request(false, 200));
        let p = meter.top(Axis::Principal, 1)[0].costs;
        assert_eq!(
            (p.ops, p.errors, p.slow, p.latency_us, p.latency_max_us),
            (2, 1, 1, 250, 200)
        );
        assert_eq!(meter.top(Axis::Object, 1)[0].fp, 9);
        assert_eq!(meter.top(Axis::Object, 1)[0].costs.ops, 2);
        assert_eq!(meter.totals().latency_max_us, 200, "max merges by max");
    }

    #[test]
    fn object_axis_is_cardinality_bounded() {
        // 3 × METER_SLOTS distinct objects: only METER_SLOTS are
        // tracked, the rest fold into the overflow bucket, nothing is
        // lost.
        let meter = Meter::default();
        let n = (METER_SLOTS * 3) as u64;
        for fp in 1..=n {
            meter.record([0, 0, 0, fp], &unit_cost());
        }
        let stats = meter.stats(Axis::Object);
        assert_eq!(stats.tracked, METER_SLOTS as u64);
        assert_eq!(stats.overflow_ops, n - METER_SLOTS as u64);
        let kept: u64 = meter
            .top(Axis::Object, usize::MAX)
            .iter()
            .map(|s| s.costs.ops)
            .sum();
        assert_eq!(kept + stats.overflow_ops, n);
    }

    #[test]
    fn disabled_meter_records_nothing() {
        // The meter has no switch of its own: with introspection off the
        // request hook never reaches it. A meter nothing has reached must
        // read zero on every surface the exported families and the
        // report draw from, and the first request must register.
        let meter = Meter::default();
        assert_eq!(meter.samples(), 0);
        assert_eq!(meter.totals(), CostVector::default());
        for axis in Axis::ALL {
            let s = meter.stats(axis);
            assert_eq!(
                (s.tracked, s.evictions, s.overflow_ops, s.min_est),
                (0, 0, 0, 0)
            );
            assert!(meter.top(axis, 16).is_empty());
        }
        let json = meter.report_json();
        assert!(json.contains("\"samples\":0"), "{json}");
        assert!(!json.contains("\"fp\""), "{json}");
        meter.record([1, 2, 3, 4], &unit_cost());
        assert_eq!(meter.samples(), 1);
        assert_eq!(meter.stats(Axis::Group).tracked, 1);
    }

    #[test]
    fn zipf_workload_recovers_true_top_ten() {
        // Zipf(1.0) over 1,000 principals, 64 slots: the sketch must
        // recover at least 9 of the true top-10 by op count — the
        // tentpole's acceptance bar, at the sketch level.
        let n = 1_000usize;
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Deterministic xorshift so the test cannot flake.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
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
            let rank = cdf.partition_point(|&c| c < u) + 1;
            let fp = rank as u64; // rank doubles as fingerprint
            truth[rank.min(n)] += 1;
            meter.record([fp, 0, 0, 0], &unit_cost());
        }
        let mut by_truth: Vec<usize> = (1..=n).collect();
        by_truth.sort_by_key(|&r| std::cmp::Reverse(truth[r]));
        let true_top: Vec<u64> = by_truth[..10].iter().map(|&r| r as u64).collect();
        let reported: Vec<u64> = meter
            .top(Axis::Principal, 10)
            .iter()
            .map(|s| s.fp)
            .collect();
        let recalled = true_top.iter().filter(|fp| reported.contains(fp)).count();
        assert!(
            recalled >= 9,
            "recovered {recalled}/10 true heavy hitters: {reported:?} vs {true_top:?}"
        );
        // The heavy hitters' estimates are near-exact under this skew.
        for &fp in &true_top[..3] {
            let s = meter.inner.lock().unwrap().axes[Axis::Principal as usize]
                .slot(fp)
                .copied()
                .unwrap();
            assert!(s.est - s.err <= truth[fp as usize] && truth[fp as usize] <= s.est);
        }
    }

    #[test]
    fn report_json_is_balanced_and_fingerprints_are_hex() {
        let meter = Meter::default();
        for i in 1..=100u64 {
            meter.record(
                [i, i % 7, i % 3, i % 5],
                &CostVector {
                    ops: 1,
                    req_bytes: i,
                    crypto_ns: 10 * i,
                    ..CostVector::default()
                },
            );
        }
        let json = meter.report_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        for section in [
            "\"samples\":100",
            "\"totals\"",
            "\"principals\"",
            "\"groups\"",
            "\"prefixes\"",
            "\"objects\"",
            "\"top_by\"",
            "\"fairness\"",
            "\"overflow\"",
            "\"min_tracked_ops\"",
        ] {
            assert!(json.contains(section), "missing {section} in {json}");
        }
        assert!(json.contains("\"0000000000000001\""), "{json}");
        assert!(!json.contains('/'), "no path separators in a report");
        assert!(!json.contains('@'), "no email-like tokens in a report");
    }

    #[test]
    fn empty_report_encodes_cleanly() {
        let json = Meter::default().report_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"samples\":0"), "{json}");
    }

    #[test]
    fn fairness_shares_sum_to_whole() {
        let meter = Meter::default();
        for i in 1..=300u64 {
            meter.record([i, 0, 0, 0], &unit_cost());
        }
        let json = meter.report_json();
        // 300 distinct principals over 64 slots: both buckets nonzero.
        let stats = meter.stats(Axis::Principal);
        assert_eq!(stats.tracked, METER_SLOTS as u64);
        assert!(stats.evictions > 0);
        assert!(json.contains("\"tracked_share_milli\""), "{json}");
        assert!(json.contains("\"overflow_share_milli\""), "{json}");
    }
}
