//! seg-health: the one windowed history of the registry, SLO
//! burn-rate evaluation, and the rate-limited alert ring.
//!
//! [`HealthMonitor`] is the only consumer of windowed [`Registry`]
//! deltas. It rolls [`Snapshot::delta`] samples into a ring-of-rings:
//! one ring of 1 s slots (10 minutes), one of 1 min slots (2 hours),
//! one of 1 h slots (2 days). Each closed slot stores per-series
//! summaries — counter deltas, last gauge values, histogram digests —
//! never raw samples or bucket arrays.
//!
//! The tracked series set is not capped: metric names and label values
//! are `&'static str` (see the crate docs' trust-boundary rule), so the
//! code, not the traffic, fixes how many series exist. Retention cost is
//! therefore `slots × series`, both fixed at compile time, and a series
//! registered late is retained like any other.
//!
//! On top of the 1 s feed sits an **SLO engine**: declarative
//! objectives (availability, or latency-under-threshold) per operation
//! class, evaluated with the standard multi-window multi-burn-rate
//! rule — an alert fires only when both a fast window (default 5 min)
//! and a slow window (default 1 h) burn error budget faster than the
//! configured multiple. Alerts land in a bounded, per-source
//! rate-limited [`AlertRing`] that the integrity scrubber and canary
//! prober (in `segshare`) also raise into.
//!
//! # Trust boundary
//!
//! Everything retained here is derived from [`Registry`] snapshots
//! (compiled-in names, charset-checked label values) plus caller-
//! provided keyed fingerprints — the same declassification rules as
//! every other seg-obs surface. No request content can enter.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::hist::{self, BUCKETS};
use crate::{HistogramSummary, MetricId, Registry, Snapshot};

/// Per-level retention: (slot length in µs, slots kept).
const LEVELS: [(u64, usize); 3] = [
    (1_000_000, 600),    // 1 s × 600 → 10 minutes
    (60_000_000, 120),   // 1 min × 120 → 2 hours
    (3_600_000_000, 48), // 1 h × 48 → 2 days
];

/// Alerts retained in the ring.
const ALERT_CAP: usize = 64;

/// A declarative service-level objective over one operation class.
#[derive(Debug, Clone, Copy)]
pub struct SloObjective {
    /// Compiled-in objective name (appears in alerts and exports).
    pub name: &'static str,
    /// Restrict to one `op` label value, or `None` for all operations.
    pub op: Option<&'static str>,
    /// Target good-fraction in parts per million (e.g. `999_000` for
    /// 99.9 %). The error budget is `1 - target`.
    pub target_ppm: u64,
    /// `None`: an availability objective (bad = request errors).
    /// `Some(t)`: a latency objective — a request is bad when its
    /// latency exceeds `t` nanoseconds.
    pub latency_threshold_ns: Option<u64>,
}

/// The multi-window burn-rate rule shared by all objectives.
#[derive(Debug, Clone, Copy)]
pub struct BurnRule {
    /// Fast window length in seconds (default 300).
    pub fast_secs: u64,
    /// Slow window length in seconds (default 3600).
    pub slow_secs: u64,
    /// Minimum burn rate ×1000 that must hold in *both* windows
    /// (default 14_400 = 14.4×, the classic page-worthy threshold).
    pub burn_threshold_milli: u64,
    /// Minimum bad events in the fast window (shields near-zero-traffic
    /// windows from division noise).
    pub min_bad_fast: u64,
}

impl Default for BurnRule {
    fn default() -> BurnRule {
        BurnRule {
            fast_secs: 300,
            slow_secs: 3600,
            burn_threshold_milli: 14_400,
            min_bad_fast: 5,
        }
    }
}

/// Configuration for a [`HealthMonitor`].
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Minimum microseconds between two rollup samples (default 1 s).
    pub sample_interval_us: u64,
    /// The SLO objectives to evaluate each sample.
    pub objectives: Vec<SloObjective>,
    /// The burn-rate rule applied to every objective.
    pub burn: BurnRule,
    /// Minimum microseconds between two alerts of the same
    /// (kind, source) pair (default 60 s).
    pub alert_min_interval_us: u64,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            sample_interval_us: 1_000_000,
            objectives: vec![
                SloObjective {
                    name: "availability",
                    op: None,
                    target_ppm: 999_000,
                    latency_threshold_ns: None,
                },
                SloObjective {
                    name: "latency_p95",
                    op: None,
                    target_ppm: 950_000,
                    latency_threshold_ns: Some(100_000_000),
                },
            ],
            burn: BurnRule::default(),
            alert_min_interval_us: 60_000_000,
        }
    }
}

/// One alert raised into the [`AlertRing`]. Carries compiled-in kind
/// and source names, a keyed fingerprint (0 for none), and two
/// numbers — no request content can be represented.
#[derive(Debug, Clone, Copy)]
pub struct Alert {
    /// Monotonic sequence number (1-based, across the monitor's life).
    pub seq: u64,
    /// Raise time, microseconds since the monitor's epoch.
    pub at_us: u64,
    /// Alert class, e.g. `slo_burn`, `scrub_integrity`, `canary`.
    pub kind: &'static str,
    /// Alert source: objective name or scrubber check name.
    pub source: &'static str,
    /// Keyed fingerprint of the affected object/principal (0 if none).
    pub fingerprint: u64,
    /// Observed value (burn rate ×1000, findings count, latency µs...).
    pub value: u64,
    /// The limit the value violated.
    pub limit: u64,
}

/// Bounded, per-(kind, source) rate-limited alert ring.
#[derive(Debug)]
pub struct AlertRing {
    inner: Mutex<AlertInner>,
    total: AtomicU64,
    suppressed: AtomicU64,
    min_interval_us: u64,
}

#[derive(Debug, Default)]
struct AlertInner {
    ring: VecDeque<Alert>,
    /// Last raise time per (kind, source); both are compiled-in strings
    /// so the table is bounded by the set of alert sites.
    last: Vec<((&'static str, &'static str), u64)>,
    next_seq: u64,
}

impl AlertRing {
    fn new(min_interval_us: u64) -> AlertRing {
        AlertRing {
            inner: Mutex::new(AlertInner::default()),
            total: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            min_interval_us,
        }
    }

    /// Raises an alert at `now_us`, unless the same (kind, source) pair
    /// fired within the rate-limit interval. Returns whether it landed.
    pub fn raise(
        &self,
        now_us: u64,
        kind: &'static str,
        source: &'static str,
        fingerprint: u64,
        value: u64,
        limit: u64,
    ) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let key = (kind, source);
        match inner.last.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) if now_us.saturating_sub(*last) < self.min_interval_us => {
                drop(inner);
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Some((_, last)) => *last = now_us,
            None => inner.last.push((key, now_us)),
        }
        inner.next_seq += 1;
        let seq = inner.next_seq;
        inner.ring.push_back(Alert {
            seq,
            at_us: now_us,
            kind,
            source,
            fingerprint,
            value,
            limit,
        });
        while inner.ring.len() > ALERT_CAP {
            inner.ring.pop_front();
        }
        drop(inner);
        self.total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Alerts raised over the ring's lifetime (landed, not suppressed).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Alerts dropped by the per-source rate limit.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Copies out up to `n` of the newest alerts, oldest first.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<Alert> {
        let inner = self.inner.lock().unwrap();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).copied().collect()
    }

    /// Hand-rolled JSON array of the newest `n` alerts. Fingerprints
    /// render as fixed-width hex, matching the trace exports.
    #[must_use]
    pub fn to_json(&self, n: usize) -> String {
        let mut out = String::from("[");
        for (i, a) in self.tail(n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"at_us\":{},\"kind\":\"{}\",\"source\":\"{}\",\
                 \"fingerprint\":\"{:016x}\",\"value\":{},\"limit\":{}}}",
                a.seq, a.at_us, a.kind, a.source, a.fingerprint, a.value, a.limit
            ));
        }
        out.push(']');
        out
    }
}

/// Every series the registry has reported, in discovery order. Slots
/// store values parallel to these ids.
#[derive(Debug, Default)]
struct SeriesSet {
    counters: Vec<MetricId>,
    gauges: Vec<MetricId>,
    hists: Vec<MetricId>,
}

fn series_index(ids: &mut Vec<MetricId>, id: &MetricId) -> usize {
    ids.iter().position(|x| x == id).unwrap_or_else(|| {
        ids.push(id.clone());
        ids.len() - 1
    })
}

/// Fixed-size digest of one closed rollup slot.
#[derive(Debug, Clone)]
struct Slot {
    seq: u64,
    at_us: u64,
    /// Headline: total requests / errors across all ops in the slot,
    /// and the merged latency digest.
    requests: u64,
    errors: u64,
    latency: HistogramSummary,
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hists: Vec<HistogramSummary>,
}

/// The open (accumulating) slot of one level.
#[derive(Debug)]
struct Accum {
    opened_at_us: u64,
    requests: u64,
    errors: u64,
    lat_counts: Vec<u64>,
    lat_sum: u64,
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hist_counts: Vec<Vec<u64>>,
    hist_sums: Vec<u64>,
}

impl Accum {
    fn new(at_us: u64) -> Accum {
        Accum {
            opened_at_us: at_us,
            requests: 0,
            errors: 0,
            lat_counts: vec![0; BUCKETS],
            lat_sum: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            hist_counts: Vec::new(),
            hist_sums: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct Level {
    slot_us: u64,
    capacity: usize,
    next_seq: u64,
    accum: Accum,
    slots: VecDeque<Slot>,
}

/// Per-objective burn-rate evaluation state.
#[derive(Debug)]
struct SloState {
    /// One (total, bad) pair per 1 s sample; capped at the slow window.
    window: VecDeque<(u64, u64)>,
    firing: bool,
    /// Latest burn rates ×1000 (fast, slow), for export.
    burn_fast_milli: u64,
    burn_slow_milli: u64,
}

#[derive(Debug)]
struct MonitorInner {
    /// The cumulative snapshot of the last sample: the baseline the
    /// next sample (and [`HealthMonitor::open_window_json`]) differences
    /// against.
    prev: Option<Snapshot>,
    series: SeriesSet,
    levels: Vec<Level>,
    slo: Vec<SloState>,
}

/// The health plane's in-enclave retention and evaluation engine:
/// rollup levels, SLO burn-rate states, and the alert ring.
///
/// One instance per enclave; [`HealthMonitor::sample_if_due`] is safe
/// to call opportunistically from request paths (a relaxed-load time
/// check when not due) and from a background runner.
#[derive(Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    inner: Mutex<MonitorInner>,
    alerts: AlertRing,
    last_sample_us: AtomicU64,
    samples: AtomicU64,
    active_alerts: AtomicU64,
    epoch: Instant,
}

impl HealthMonitor {
    /// Creates a monitor with the given configuration.
    #[must_use]
    pub fn new(config: HealthConfig) -> HealthMonitor {
        let levels = LEVELS
            .iter()
            .map(|&(slot_us, capacity)| Level {
                slot_us,
                capacity,
                next_seq: 0,
                accum: Accum::new(0),
                slots: VecDeque::new(),
            })
            .collect();
        let slo = config
            .objectives
            .iter()
            .map(|_| SloState {
                window: VecDeque::new(),
                firing: false,
                burn_fast_milli: 0,
                burn_slow_milli: 0,
            })
            .collect();
        HealthMonitor {
            alerts: AlertRing::new(config.alert_min_interval_us),
            config,
            inner: Mutex::new(MonitorInner {
                prev: None,
                series: SeriesSet::default(),
                levels,
                slo,
            }),
            last_sample_us: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            active_alerts: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Microseconds since this monitor's epoch (≥ 1).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.epoch
            .elapsed()
            .as_micros()
            .min(u64::MAX as u128)
            .max(1) as u64
    }

    /// The alert ring (scrubber and canary findings are raised here
    /// alongside SLO burn alerts).
    #[must_use]
    pub fn alerts(&self) -> &AlertRing {
        &self.alerts
    }

    /// Rollup samples taken so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Objectives currently in the firing state.
    #[must_use]
    pub fn active_alerts(&self) -> u64 {
        self.active_alerts.load(Ordering::Relaxed)
    }

    /// Closed slots currently retained across all levels.
    #[must_use]
    pub fn rollup_slots(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.levels.iter().map(|l| l.slots.len() as u64).sum()
    }

    /// Takes a rollup sample if the sampling interval elapsed. Exactly
    /// one caller wins per interval (compare-and-swap claim); losers
    /// return immediately. Returns whether this call sampled.
    pub fn sample_if_due(&self, registry: &Registry) -> bool {
        let now = self.now_us();
        let last = self.last_sample_us.load(Ordering::Relaxed);
        // `last == 0` means never sampled: the first call always wins
        // so the delta baseline is established promptly.
        if last != 0 && now.saturating_sub(last) < self.config.sample_interval_us {
            return false;
        }
        if self
            .last_sample_us
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.sample_now(registry, now);
        true
    }

    /// Takes a sample unconditionally at an explicit timestamp
    /// (microseconds since the monitor's epoch). Lets tests and
    /// deterministic replays drive virtual time through slot
    /// boundaries without sleeping.
    pub fn force_sample_at(&self, registry: &Registry, now_us: u64) {
        self.last_sample_us.store(now_us.max(1), Ordering::Relaxed);
        self.sample_now(registry, now_us.max(1));
    }

    fn sample_now(&self, registry: &Registry, now_us: u64) {
        let snap = registry.snapshot();
        let mut inner = self.inner.lock().unwrap();
        let delta = inner.prev.as_ref().map(|prev| snap.delta(prev));
        inner.prev = Some(snap);
        match delta {
            Some(delta) => {
                self.feed_levels(&mut inner, &delta, now_us);
                self.evaluate_slo(&mut inner, &delta, now_us);
            }
            // The first sample is baseline-only: retention windows
            // start here rather than attributing all of boot-to-now to
            // one slot.
            None => {
                for level in &mut inner.levels {
                    level.accum.opened_at_us = now_us;
                }
            }
        }
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    fn feed_levels(&self, inner: &mut MonitorInner, delta: &Snapshot, now_us: u64) {
        // Headline extraction from the windowed delta.
        let mut requests = 0u64;
        let mut errors = 0u64;
        for (id, v) in &delta.counters {
            match id.name() {
                "seg_requests_total" => requests += v,
                "seg_request_errors_total" => errors += v,
                _ => {}
            }
        }
        let mut lat_counts = vec![0u64; BUCKETS];
        let mut lat_sum = 0u64;
        for (id, counts) in &delta.buckets {
            if id.name() != "seg_request_latency_ns" {
                continue;
            }
            for (acc, c) in lat_counts.iter_mut().zip(counts) {
                *acc += c;
            }
            lat_sum += delta.histogram(&id.render()).map_or(0, |s| s.sum);
        }

        // Series-indexed accumulation (shared discovery across levels).
        let series = &mut inner.series;
        let counter_upd: Vec<(usize, u64)> = delta
            .counters
            .iter()
            .map(|(id, v)| (series_index(&mut series.counters, id), *v))
            .collect();
        let gauge_upd: Vec<(usize, u64)> = delta
            .gauges
            .iter()
            .map(|(id, v)| (series_index(&mut series.gauges, id), *v))
            .collect();
        // `Snapshot::delta` builds `buckets` and `histograms` in step.
        let hist_upd: Vec<(usize, &Vec<u64>, u64)> = delta
            .buckets
            .iter()
            .zip(&delta.histograms)
            .map(|((id, counts), (_, s))| (series_index(&mut series.hists, id), counts, s.sum))
            .collect();
        let n_counters = series.counters.len();
        let n_gauges = series.gauges.len();
        let n_hists = series.hists.len();

        for level in &mut inner.levels {
            let accum = &mut level.accum;
            accum.counters.resize(n_counters, 0);
            accum.gauges.resize(n_gauges, 0);
            accum.hist_counts.resize_with(n_hists, || vec![0; BUCKETS]);
            accum.hist_sums.resize(n_hists, 0);
            accum.requests += requests;
            accum.errors += errors;
            for (acc, c) in accum.lat_counts.iter_mut().zip(&lat_counts) {
                *acc += c;
            }
            accum.lat_sum += lat_sum;
            for &(i, v) in &counter_upd {
                accum.counters[i] += v;
            }
            for &(i, v) in &gauge_upd {
                accum.gauges[i] = v;
            }
            for (i, counts, sum) in &hist_upd {
                for (acc, c) in accum.hist_counts[*i].iter_mut().zip(counts.iter()) {
                    *acc += c;
                }
                accum.hist_sums[*i] += sum;
            }
            if now_us.saturating_sub(accum.opened_at_us) >= level.slot_us {
                let closed = std::mem::replace(accum, Accum::new(now_us));
                level.next_seq += 1;
                let slot = Slot {
                    seq: level.next_seq,
                    at_us: now_us,
                    requests: closed.requests,
                    errors: closed.errors,
                    latency: summarize(&closed.lat_counts, closed.lat_sum),
                    counters: closed.counters,
                    gauges: closed.gauges,
                    hists: closed
                        .hist_counts
                        .iter()
                        .zip(&closed.hist_sums)
                        .map(|(c, &s)| summarize(c, s))
                        .collect(),
                };
                level.slots.push_back(slot);
                while level.slots.len() > level.capacity {
                    level.slots.pop_front();
                }
            }
        }
    }

    fn evaluate_slo(&self, inner: &mut MonitorInner, delta: &Snapshot, now_us: u64) {
        // Window sizing assumes the configured cadence; an interval of
        // 0 (sample on every call) is treated as the default 1 s so
        // window lengths stay meaningful.
        let interval_us = match self.config.sample_interval_us {
            0 => 1_000_000,
            us => us,
        };
        let interval_s = interval_us as f64 / 1e6;
        let fast_n = ((self.config.burn.fast_secs as f64 / interval_s).round() as usize).max(1);
        let slow_n = ((self.config.burn.slow_secs as f64 / interval_s).round() as usize).max(1);
        let mut firing_now = 0u64;
        for (obj, state) in self.config.objectives.iter().zip(&mut inner.slo) {
            let (total, bad) = objective_window(obj, delta);
            state.window.push_back((total, bad));
            while state.window.len() > slow_n {
                state.window.pop_front();
            }
            let budget = (1_000_000u64.saturating_sub(obj.target_ppm)) as f64 / 1e6;
            let sum = |n: usize| -> (u64, u64) {
                state
                    .window
                    .iter()
                    .rev()
                    .take(n)
                    .fold((0, 0), |(t, b), &(wt, wb)| (t + wt, b + wb))
            };
            let burn = |t: u64, b: u64| -> f64 {
                if t == 0 || budget <= 0.0 {
                    0.0
                } else {
                    (b as f64 / t as f64) / budget
                }
            };
            let (t_fast, b_fast) = sum(fast_n);
            let (t_slow, b_slow) = sum(slow_n);
            let burn_fast = burn(t_fast, b_fast);
            let burn_slow = burn(t_slow, b_slow);
            state.burn_fast_milli = (burn_fast * 1000.0).min(u64::MAX as f64) as u64;
            state.burn_slow_milli = (burn_slow * 1000.0).min(u64::MAX as f64) as u64;
            let threshold = self.config.burn.burn_threshold_milli as f64 / 1000.0;
            let firing = burn_fast >= threshold
                && burn_slow >= threshold
                && b_fast >= self.config.burn.min_bad_fast;
            if firing {
                firing_now += 1;
                // Raise on entry and on rate-limited repeats.
                self.alerts.raise(
                    now_us,
                    "slo_burn",
                    obj.name,
                    0,
                    state.burn_fast_milli,
                    self.config.burn.burn_threshold_milli,
                );
            }
            state.firing = firing;
        }
        self.active_alerts.store(firing_now, Ordering::Relaxed);
    }

    /// The retained history as JSON: per level, every closed slot's
    /// headline (requests, errors, latency digest). Bounded by the
    /// level capacities — ~770 rows at full retention.
    #[must_use]
    pub fn history_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("{\"levels\":[");
        for (li, level) in inner.levels.iter().enumerate() {
            if li > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"slot_s\":{},\"capacity\":{},\"slots\":[",
                level.slot_us / 1_000_000,
                level.capacity
            ));
            for (i, s) in level.slots.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"seq\":{},\"at_us\":{},\"requests\":{},\"errors\":{},\
                     \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                    s.seq,
                    s.at_us,
                    s.requests,
                    s.errors,
                    s.latency.p50,
                    s.latency.p95,
                    s.latency.p99
                ));
            }
            out.push_str("]}");
        }
        let series = &inner.series;
        out.push_str(&format!(
            "],\"tracked_series\":{}}}",
            series.counters.len() + series.gauges.len() + series.hists.len()
        ));
        out
    }

    /// The newest `n` closed 1 s slots, oldest first, each as a full
    /// per-series map (counter deltas, gauge values, histogram digests)
    /// — the "what changed in the last seconds" export.
    #[must_use]
    pub fn recent_slots_json(&self, n: usize) -> String {
        let inner = self.inner.lock().unwrap();
        let slots = inner.levels.first().map(|l| &l.slots);
        let skip = slots.map_or(0, |s| s.len().saturating_sub(n));
        let mut out = String::from("[");
        for (i, slot) in slots.into_iter().flatten().skip(skip).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let series = &inner.series;
            push_series_json(
                &mut out,
                slot.seq,
                slot.at_us,
                series.counters.iter().zip(slot.counters.iter().copied()),
                series.gauges.iter().zip(slot.gauges.iter().copied()),
                series.hists.iter().zip(&slot.hists),
            );
        }
        out.push(']');
        out
    }

    /// The window since the last sample, in the
    /// [`recent_slots_json`](Self::recent_slots_json) format, read
    /// without advancing the baseline or feeding SLO burn state (so a
    /// report can include the newest activity without disturbing the
    /// sampling cadence). Before the first sample it is cumulative.
    #[must_use]
    pub fn open_window_json(&self, registry: &Registry) -> String {
        let snap = registry.snapshot();
        let window = match &self.inner.lock().unwrap().prev {
            Some(prev) => snap.delta(prev),
            None => snap,
        };
        let mut out = String::new();
        push_series_json(
            &mut out,
            0,
            self.now_us(),
            window.counters.iter().map(|(id, v)| (id, *v)),
            window.gauges.iter().map(|(id, v)| (id, *v)),
            window.histograms.iter().map(|(id, s)| (id, s)),
        );
        out
    }

    /// The SLO engine's state as JSON: per objective, the window burn
    /// rates and firing flag.
    #[must_use]
    pub fn slo_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("[");
        for (i, (obj, state)) in self.config.objectives.iter().zip(&inner.slo).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"op\":\"{}\",\"target_ppm\":{},\
                 \"latency_threshold_ns\":{},\"burn_fast_milli\":{},\
                 \"burn_slow_milli\":{},\"firing\":{}}}",
                obj.name,
                obj.op.unwrap_or("all"),
                obj.target_ppm,
                obj.latency_threshold_ns.unwrap_or(0),
                state.burn_fast_milli,
                state.burn_slow_milli,
                state.firing
            ));
        }
        out.push(']');
        out
    }
}

/// Extracts one (total, bad) sample for an objective from a windowed
/// delta snapshot.
fn objective_window(obj: &SloObjective, delta: &Snapshot) -> (u64, u64) {
    let op_matches = |id: &MetricId| -> bool {
        match obj.op {
            None => true,
            Some(op) => id.labels().iter().any(|&(k, v)| k == "op" && v == op),
        }
    };
    let (mut total, mut bad) = (0, 0);
    match obj.latency_threshold_ns {
        None => {
            for (id, v) in &delta.counters {
                if id.name() == "seg_requests_total" && op_matches(id) {
                    total += v;
                } else if id.name() == "seg_request_errors_total" && op_matches(id) {
                    bad += v;
                }
            }
        }
        Some(threshold) => {
            for (id, counts) in &delta.buckets {
                if id.name() != "seg_request_latency_ns" || !op_matches(id) {
                    continue;
                }
                for (idx, &c) in counts.iter().enumerate() {
                    total += c;
                    if hist::bucket_mid(idx) > threshold {
                        bad += c;
                    }
                }
            }
        }
    }
    (total, bad)
}

/// Summarizes accumulated bucket counts (min/max approximated by the
/// first/last non-empty bucket midpoint, as in [`Snapshot::delta`]).
fn summarize(counts: &[u64], sum: u64) -> HistogramSummary {
    let first = counts.iter().position(|&c| c > 0);
    let last = counts.iter().rposition(|&c| c > 0);
    hist::summarize_counts(
        counts,
        sum,
        first.map_or(0, hist::bucket_mid),
        last.map_or(0, hist::bucket_mid),
    )
}

/// One window as a JSON object of per-series maps. Zero counter
/// deltas, zero gauges, and empty histograms are omitted: in a window
/// they mean "nothing happened", and the full series list is the
/// code's metric set.
fn push_series_json<'a>(
    out: &mut String,
    seq: u64,
    at_us: u64,
    counters: impl Iterator<Item = (&'a MetricId, u64)>,
    gauges: impl Iterator<Item = (&'a MetricId, u64)>,
    hists: impl Iterator<Item = (&'a MetricId, &'a HistogramSummary)>,
) {
    let key = |id: &MetricId| id.render().replace('"', "\\\"");
    out.push_str(&format!("{{\"seq\":{seq},\"at_us\":{at_us}"));
    for (name, series) in [
        ("counters", counters.collect::<Vec<_>>()),
        ("gauges", gauges.collect()),
    ] {
        out.push_str(&format!(",\"{name}\":{{"));
        for (i, (id, v)) in series.iter().filter(|(_, v)| *v > 0).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", key(id)));
        }
        out.push('}');
    }
    out.push_str(",\"histograms\":{");
    for (i, (id, s)) in hists.filter(|(_, s)| s.count > 0).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
            key(id),
            s.count,
            s.p50,
            s.p95,
            s.p99
        ));
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Advances virtual time by 1 s per call (for `force_sample_at`).
    struct Clock(u64);

    impl Clock {
        fn tick(&mut self) -> u64 {
            self.0 += 1_000_000;
            self.0
        }
    }

    fn quick_config() -> HealthConfig {
        HealthConfig {
            sample_interval_us: 1_000_000,
            objectives: vec![
                SloObjective {
                    name: "availability",
                    op: None,
                    target_ppm: 999_000,
                    latency_threshold_ns: None,
                },
                SloObjective {
                    name: "latency",
                    op: Some("get"),
                    target_ppm: 950_000,
                    latency_threshold_ns: Some(1_000_000),
                },
            ],
            burn: BurnRule {
                fast_secs: 1,
                slow_secs: 2,
                burn_threshold_milli: 10_000,
                min_bad_fast: 1,
            },
            alert_min_interval_us: 0,
        }
    }

    #[test]
    fn rollups_fill_and_stay_bounded() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        let c = r.counter_with("seg_requests_total", vec![("op", "get")]);
        // 700 one-second samples: the 1 s level must cap at 600.
        for _ in 0..700 {
            c.inc();
            m.force_sample_at(&r, clock.tick());
        }
        assert!(m.samples() >= 700);
        let slots = m.rollup_slots();
        assert!(slots > 0, "slots closed");
        assert!(slots <= 600 + 120 + 48, "retention bounded, got {slots}");
        let json = m.history_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"slot_s\":1"), "{json}");
        assert!(json.contains("\"requests\":1"), "{json}");
    }

    #[test]
    fn headline_counts_requests_and_errors() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        m.force_sample_at(&r, clock.tick()); // baseline
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .add(10);
        r.counter_with(
            "seg_request_errors_total",
            vec![("op", "get"), ("code", "denied")],
        )
        .add(3);
        r.histogram_with("seg_request_latency_ns", vec![("op", "get")])
            .record(5_000);
        m.force_sample_at(&r, clock.tick());
        let json = m.history_json();
        assert!(json.contains("\"requests\":10"), "{json}");
        assert!(json.contains("\"errors\":3"), "{json}");
    }

    #[test]
    fn availability_burn_fires_and_clears() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        m.force_sample_at(&r, clock.tick());
        // 50% errors against a 0.1% budget: burn 500× in both windows.
        let req = r.counter_with("seg_requests_total", vec![("op", "put_file")]);
        let err = r.counter_with(
            "seg_request_errors_total",
            vec![("op", "put_file"), ("code", "integrity")],
        );
        for _ in 0..3 {
            req.add(10);
            err.add(5);
            m.force_sample_at(&r, clock.tick());
        }
        assert!(m.active_alerts() >= 1, "burn alert fires");
        assert!(m.alerts().total() >= 1);
        let alert = m.alerts().tail(8)[0];
        assert_eq!(alert.kind, "slo_burn");
        assert_eq!(alert.source, "availability");
        // Healthy traffic flushes the (2-sample) slow window: clears.
        for _ in 0..4 {
            req.add(10);
            m.force_sample_at(&r, clock.tick());
        }
        assert_eq!(m.active_alerts(), 0, "burn clears after recovery");
    }

    #[test]
    fn latency_objective_counts_threshold_exceeds() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        m.force_sample_at(&r, clock.tick());
        let h = r.histogram_with("seg_request_latency_ns", vec![("op", "get")]);
        // Sustained slow traffic: both windows must see threshold
        // exceeds (an idle fast window correctly clears the alert).
        for _ in 0..2 {
            for _ in 0..10 {
                h.record(50_000_000); // 50 ms >> 1 ms threshold
            }
            m.force_sample_at(&r, clock.tick());
        }
        assert!(
            m.active_alerts() >= 1,
            "latency burn fires: {}",
            m.slo_json()
        );
        let json = m.slo_json();
        assert!(json.contains("\"name\":\"latency\""), "{json}");
        assert!(json.contains("\"firing\":true"), "{json}");
    }

    #[test]
    fn quiet_registry_raises_nothing() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        for _ in 0..20 {
            m.force_sample_at(&r, clock.tick());
        }
        assert_eq!(m.active_alerts(), 0);
        assert_eq!(m.alerts().total(), 0);
    }

    #[test]
    fn alert_ring_rate_limits_per_source() {
        let ring = AlertRing::new(1_000_000);
        assert!(ring.raise(1, "scrub_integrity", "tree", 7, 1, 0));
        assert!(
            !ring.raise(2, "scrub_integrity", "tree", 7, 2, 0),
            "same source within the interval is suppressed"
        );
        assert!(
            ring.raise(3, "scrub_integrity", "audit", 7, 1, 0),
            "different source is independent"
        );
        assert!(ring.raise(1_000_002, "scrub_integrity", "tree", 7, 3, 0));
        assert_eq!(ring.total(), 3);
        assert_eq!(ring.suppressed(), 1);
        let json = ring.to_json(8);
        assert!(
            json.contains("\"fingerprint\":\"0000000000000007\""),
            "{json}"
        );
        assert!(!json.contains('/'), "no path-like content: {json}");
        assert!(!json.contains('@'), "no email-like content: {json}");
    }

    #[test]
    fn alert_ring_is_bounded() {
        let ring = AlertRing::new(0);
        for i in 0..200 {
            ring.raise(i, "canary", "probe", 0, i, 0);
        }
        assert_eq!(ring.total(), 200);
        assert_eq!(ring.tail(1000).len(), ALERT_CAP);
        // Oldest retained is the 136th raise (200 - 64).
        assert_eq!(ring.tail(1000)[0].seq, 137);
    }

    #[test]
    fn sample_if_due_claims_once_per_interval() {
        let r = Registry::new();
        let m = HealthMonitor::new(HealthConfig {
            sample_interval_us: 60_000_000,
            ..HealthConfig::default()
        });
        assert!(m.sample_if_due(&r), "first call wins");
        assert!(!m.sample_if_due(&r), "second call inside interval loses");
        assert_eq!(m.samples(), 1);
    }

    #[test]
    fn latest_slot_exports_tracked_series() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        m.force_sample_at(&r, clock.tick());
        r.counter_with("seg_requests_total", vec![("op", "get")])
            .add(4);
        r.gauge("seg_epc_bytes").set(4096);
        m.force_sample_at(&r, clock.tick());
        let json = m.recent_slots_json(1);
        assert!(
            json.contains("\"seg_requests_total{op=\\\"get\\\"}\":4"),
            "{json}"
        );
        assert!(json.contains("\"seg_epc_bytes\":4096"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn slots_are_windowed_deltas() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        r.counter("seg_frames_total").add(2);
        m.force_sample_at(&r, clock.tick()); // baseline
        r.counter("seg_frames_total").add(5);
        m.force_sample_at(&r, clock.tick());
        r.counter("seg_frames_total").add(3);
        m.force_sample_at(&r, clock.tick());
        // Each slot covers only its own window, oldest first.
        let json = m.recent_slots_json(2);
        let five = json.find("\"seg_frames_total\":5").expect(&json);
        let three = json.find("\"seg_frames_total\":3").expect(&json);
        assert!(five < three, "{json}");
        assert!(json.starts_with("[{\"seq\":1,"), "{json}");
        assert!(json.contains("{\"seq\":2,"), "{json}");
    }

    #[test]
    fn slot_ring_evicts_oldest_but_keeps_total() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        for _ in 0..700 {
            r.counter("seg_frames_total").inc();
            m.force_sample_at(&r, clock.tick());
        }
        // 699 one-second slots closed after the baseline; the ring keeps
        // the newest 600 and their sequence numbers keep counting.
        let json = m.recent_slots_json(usize::MAX);
        assert_eq!(json.matches("\"seq\":").count(), 600);
        assert!(json.starts_with("[{\"seq\":100,"), "oldest retained");
        assert!(json.contains("{\"seq\":699,"), "newest retained");
        assert_eq!(m.recent_slots_json(3).matches("\"seq\":").count(), 3);
    }

    #[test]
    fn late_series_is_retained_past_sixty_four_others() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        for i in 0..70 {
            let label: &'static str = Box::leak(format!("s{i}").into_boxed_str());
            r.counter_with("seg_early_total", vec![("n", label)]).inc();
        }
        m.force_sample_at(&r, clock.tick()); // baseline
        m.force_sample_at(&r, clock.tick()); // 70 series discovered
        r.counter("seg_late_total").add(7);
        m.force_sample_at(&r, clock.tick());
        let json = m.recent_slots_json(1);
        assert!(json.contains("\"seg_late_total\":7"), "{json}");
        assert!(m.history_json().contains("\"tracked_series\":71"));
    }

    #[test]
    fn open_window_does_not_advance_the_baseline() {
        let r = Registry::new();
        let m = HealthMonitor::new(quick_config());
        let mut clock = Clock(0);
        m.force_sample_at(&r, clock.tick());
        r.counter("seg_frames_total").add(4);
        for _ in 0..2 {
            let open = m.open_window_json(&r);
            assert!(open.contains("\"seg_frames_total\":4"), "{open}");
        }
        assert_eq!(m.samples(), 1, "reading the open window is not a sample");
        m.force_sample_at(&r, clock.tick());
        assert!(m.recent_slots_json(1).contains("\"seg_frames_total\":4"));
    }

    #[test]
    fn empty_history_encodes_cleanly() {
        let m = HealthMonitor::new(quick_config());
        assert_eq!(m.recent_slots_json(16), "[]");
        for json in [m.history_json(), m.open_window_json(&Registry::new())] {
            assert_eq!(json.matches('{').count(), json.matches('}').count());
        }
    }
}
