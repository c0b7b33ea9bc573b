//! The introspection substrate's enclave glue: saturation accounting,
//! the one introspection switch, the per-request hook, the stall
//! watchdog, and the one [`SegShareEnclave::introspect`] report.
//!
//! Each job has one owner: lock telemetry lives in
//! [`locks`](super::locks), windowed history in the health monitor
//! ([`seg_obs::HealthMonitor`]), bounded per-key attribution in the
//! meter ([`seg_obs::Meter`]), and this module holds the glue state —
//! live-session / in-flight / accept-backlog gauges fed by the
//! untrusted host, the shared [`seg_net::NetMeter`], stall counters,
//! and the rate-limited automatic dump slot the watchdog writes its
//! report into.
//!
//! Everything here is aggregate numbers or already-declassified JSON
//! (the report is assembled from snapshot/trace/profile/meter exports,
//! each of which is itself a sanctioned declassification point); no
//! request content enters this module.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use seg_net::NetMeter;
use seg_obs::{events_json, CostVector};

use super::locks::StripeTally;
use super::SegShareEnclave;

/// Minimum microseconds between two automatic watchdog dumps. A
/// pathological workload where every request stalls must not turn the
/// request path into a dump generator.
const DUMP_MIN_INTERVAL_US: u64 = 1_000_000;

/// Shared mutable state of the introspection substrate. One instance
/// per enclave, shared with the untrusted connection loop (which feeds
/// the saturation gauges — they are load numbers, not secrets).
#[derive(Debug)]
pub struct WatchStats {
    enabled: AtomicBool,
    live_sessions: AtomicU64,
    in_flight: AtomicU64,
    accept_backlog: AtomicU64,
    sheds: AtomicU64,
    stalls_request: AtomicU64,
    stalls_global: AtomicU64,
    dumps: AtomicU64,
    last_dump_at_us: AtomicU64,
    last_dump: Mutex<Option<String>>,
    net: Arc<NetMeter>,
    /// The reactor front end's per-state gauges, once one is running
    /// (the metrics exporter reads them alongside the watch gauges).
    reactor: Mutex<Option<Arc<seg_net::reactor::ReactorStats>>>,
    epoch: Instant,
}

impl Default for WatchStats {
    fn default() -> WatchStats {
        WatchStats::new()
    }
}

impl WatchStats {
    /// Creates watch state with introspection enabled (it is always-on
    /// by default; [`WatchStats::set_enabled`] exists so benchmarks can
    /// measure its cost).
    #[must_use]
    pub fn new() -> WatchStats {
        WatchStats {
            enabled: AtomicBool::new(true),
            live_sessions: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            accept_backlog: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            stalls_request: AtomicU64::new(0),
            stalls_global: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            last_dump_at_us: AtomicU64::new(0),
            last_dump: Mutex::new(None),
            net: Arc::new(NetMeter::new()),
            reactor: Mutex::new(None),
            epoch: Instant::now(),
        }
    }

    /// The one introspection switch: whether the per-request hook
    /// (attribution, history sampling, watchdog) and the background
    /// sampler, scrubber, and canary run.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips the introspection switch. Lock and net accounting stay on
    /// either way — they are passive counters; accumulated history and
    /// attribution survive a disable.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The byte-level saturation meter shared by all connections.
    #[must_use]
    pub fn net_meter(&self) -> &Arc<NetMeter> {
        &self.net
    }

    /// A connection's session thread started serving.
    pub fn session_started(&self) {
        self.live_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection's session thread exited.
    pub fn session_ended(&self) {
        self.live_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently live session threads.
    #[must_use]
    pub fn live_sessions(&self) -> u64 {
        self.live_sessions.load(Ordering::Relaxed)
    }

    /// A frame entered the enclave (ecall in progress).
    pub fn request_started(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// The frame's ecall returned.
    pub fn request_ended(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Frames currently inside the enclave across all sessions.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// A connection was accepted but no session thread serves it yet.
    pub fn accept_queued(&self) {
        self.accept_backlog.fetch_add(1, Ordering::Relaxed);
    }

    /// An accepted connection was picked up by a session thread.
    pub fn accept_dequeued(&self) {
        // Saturating: the serve loop also calls this for connections
        // whose accept path never queued (e.g. in-process transports).
        let _ = self
            .accept_backlog
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Accepted-but-unserved connections.
    #[must_use]
    pub fn accept_backlog(&self) -> u64 {
        self.accept_backlog.load(Ordering::Relaxed)
    }

    /// A connection was refused at the front end's connection cap
    /// (reactor accept shedding).
    pub fn connection_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed at the front end's cap since start.
    #[must_use]
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Publishes the running reactor's statistics so the metrics
    /// exporter can fold them into the `seg_net_*` families.
    pub fn set_reactor_stats(&self, stats: Arc<seg_net::reactor::ReactorStats>) {
        *self.reactor.lock().unwrap() = Some(stats);
    }

    /// The reactor's statistics, when a reactor front end is running.
    #[must_use]
    pub fn reactor_stats(&self) -> Option<Arc<seg_net::reactor::ReactorStats>> {
        self.reactor.lock().unwrap().clone()
    }

    /// Records a watchdog stall of the given kind and reports whether
    /// the caller should capture an automatic dump (rate-limited to one
    /// per `DUMP_MIN_INTERVAL_US`).
    pub fn note_stall(&self, kind: StallKind) -> bool {
        match kind {
            StallKind::Request => self.stalls_request.fetch_add(1, Ordering::Relaxed),
            StallKind::GlobalLock => self.stalls_global.fetch_add(1, Ordering::Relaxed),
        };
        let now = self
            .epoch
            .elapsed()
            .as_micros()
            .min(u64::MAX as u128)
            .max(1) as u64;
        let last = self.last_dump_at_us.load(Ordering::Relaxed);
        if last != 0 && now.saturating_sub(last) < DUMP_MIN_INTERVAL_US {
            return false;
        }
        self.last_dump_at_us
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Stores the watchdog's report (latest wins).
    pub fn store_dump(&self, bundle: String) {
        self.dumps.fetch_add(1, Ordering::Relaxed);
        *self.last_dump.lock().unwrap() = Some(bundle);
    }

    /// The most recent automatic dump, if the watchdog fired.
    #[must_use]
    pub fn last_dump(&self) -> Option<String> {
        self.last_dump.lock().unwrap().clone()
    }

    /// Request-deadline stalls observed.
    #[must_use]
    pub fn stalls_request(&self) -> u64 {
        self.stalls_request.load(Ordering::Relaxed)
    }

    /// Global-lock-budget stalls observed.
    #[must_use]
    pub fn stalls_global(&self) -> u64 {
        self.stalls_global.load(Ordering::Relaxed)
    }

    /// Automatic dumps captured.
    #[must_use]
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }
}

/// What tripped the stall watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// A request exceeded the watch deadline.
    Request,
    /// The exclusive global lock was held past its budget.
    GlobalLock,
}

/// Dispatch-entry baseline of the global counters the per-request hook
/// differences to assemble one request's cost vector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestProbe {
    started: Instant,
    cache_hits: u64,
    cache_misses: u64,
    store_reads: u64,
    store_writes: u64,
    audit_bytes: u64,
}

impl SegShareEnclave {
    /// Whether the introspection switch is on.
    #[must_use]
    pub fn introspection_enabled(&self) -> bool {
        self.watch.enabled()
    }

    /// Flips the one introspection switch (see [`WatchStats::enabled`]).
    pub fn set_introspection(&self, on: bool) {
        self.watch.set_enabled(on);
    }

    /// Captures the dispatch-entry baseline for one request. `None`
    /// when introspection is off — the request then pays exactly one
    /// relaxed atomic load.
    pub(crate) fn request_probe(&self) -> Option<RequestProbe> {
        self.watch
            .enabled()
            .then(|| self.request_counters(Instant::now()))
    }

    /// Reads the global counters the hook differences per request:
    /// cache hits/misses, store read/write op counts, and sealed audit
    /// bytes. One cheap atomic-load sweep, no ocalls.
    fn request_counters(&self, started: Instant) -> RequestProbe {
        let (cache_hits, cache_misses) = self.store.cache_hits_misses();
        let (mut reads, mut writes) = (0u64, 0u64);
        for (_, counted) in &self.counted_stores {
            let s = counted.stats();
            reads = reads.saturating_add(s.gets + s.exists + s.lists);
            writes = writes.saturating_add(s.puts + s.deletes + s.renames);
        }
        RequestProbe {
            started,
            cache_hits,
            cache_misses,
            store_reads: reads,
            store_writes: writes,
            audit_bytes: self.audit.as_ref().map_or(0, |log| log.bytes_appended()),
        }
    }

    /// The per-request hook, called by the session layer after a
    /// request finishes with its keyed fingerprints (in
    /// [`seg_obs::meter::Axis::ALL`] order, 0 = no operand of that
    /// kind), outcome, and payload sizes. Closes the request's cost
    /// vector — counters differenced against the probe, crypto and
    /// lock-wait time read back from the profiler's per-request
    /// accumulator, outcome and latency — and attributes it to every
    /// axis of the meter (one lock). Then opportunistically samples the
    /// history and fires the stall watchdog when the request blew the
    /// deadline or the exclusive global lock is held past its budget.
    ///
    /// Counter deltas are per-thread reads of global counters, so
    /// concurrent requests can shift a few units of cache/store/audit
    /// activity between each other; totals stay conserved, and the
    /// sketches only need ranks, not exact per-key I/O.
    pub(crate) fn request_done(
        &self,
        probe: RequestProbe,
        keys: [u64; 4],
        ok: bool,
        req_bytes: u64,
        resp_bytes: u64,
    ) {
        let elapsed_us = probe.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let deadline = self.config.watch_deadline_us;
        let slow = deadline > 0 && elapsed_us >= deadline;
        let now = self.request_counters(probe.started);
        let (crypto_ns, _) = seg_obs::prof::request_phase_totals("crypto_gcm");
        let (_, lock_wait_ns) = seg_obs::prof::request_phase_totals("lock_wait");
        let cost = CostVector {
            ops: 1,
            req_bytes,
            resp_bytes,
            crypto_ns,
            lock_wait_ns,
            cache_hits: now.cache_hits.saturating_sub(probe.cache_hits),
            cache_misses: now.cache_misses.saturating_sub(probe.cache_misses),
            store_reads: now.store_reads.saturating_sub(probe.store_reads),
            store_writes: now.store_writes.saturating_sub(probe.store_writes),
            audit_bytes: now.audit_bytes.saturating_sub(probe.audit_bytes),
            errors: u64::from(!ok),
            slow: u64::from(slow),
            latency_us: elapsed_us,
            latency_max_us: elapsed_us,
        };
        self.meter.record(keys, &cost);
        // Opportunistic history sample: a registry read, no ocalls,
        // rate-limited inside the monitor to once per interval.
        self.health.monitor().sample_if_due(&self.obs);
        let stall = if slow {
            Some(StallKind::Request)
        } else if self.config.watch_global_budget_us > 0
            && self.locks.global_held_us() >= self.config.watch_global_budget_us
        {
            Some(StallKind::GlobalLock)
        } else {
            None
        };
        if stall.is_some_and(|kind| self.watch.note_stall(kind)) {
            self.watch.store_dump(self.introspect());
        }
    }

    /// The one introspection report, as a JSON document with sections
    /// `saturation`, `stalls`, `locks` (global-hold clock and the
    /// most contended stripes), `history` (retention headlines, the
    /// newest 16 closed 1 s slots, and the still-open window),
    /// `attribution` (the meter's per-axis top-K), `health` (verdict,
    /// scrubber, canary, alerts, burn rates), `trace_tail`,
    /// `slow_requests`, and `profile`. The stall watchdog stores this
    /// same document.
    ///
    /// Every section is an existing declassification surface (snapshot
    /// encodings, trace exports, profile and meter exports): compiled-in
    /// names, aggregate numbers, and keyed fingerprints only.
    #[must_use]
    pub fn introspect(&self) -> String {
        let w = &self.watch;
        let net = w.net_meter();
        let monitor = self.health.monitor();
        let stripes: Vec<String> = self
            .locks
            .top_since(&StripeTally::default(), 8)
            .iter()
            .map(|r| {
                format!(
                    "{{\"stripe\":{},\"wait_ns\":{},\"waits\":{}}}",
                    r.stripe, r.wait_ns, r.waits
                )
            })
            .collect();
        let history = monitor.history_json();
        format!(
            "{{\n\"enabled\":{},\n\"saturation\":{{\"live_sessions\":{},\"in_flight\":{},\
             \"accept_backlog\":{},\"queued_bytes\":{},\"send_stalls\":{},\"send_stall_ns\":{},\
             \"idle_us\":{}}},\n\"stalls\":{{\"request\":{},\"global_lock\":{},\"dumps\":{}}},\n\
             \"locks\":{{\"global_held_us\":{},\"top_stripes\":[{}]}},\n\
             \"history\":{},\"recent\":{},\"open\":{}}},\n\"attribution\":{},\n\
             \"health\":{},\n\"trace_tail\":{},\n\"slow_requests\":{},\n\"profile\":{}\n}}\n",
            w.enabled(),
            w.live_sessions(),
            w.in_flight(),
            w.accept_backlog(),
            net.queued_bytes(),
            net.send_stalls(),
            net.send_stall_ns(),
            net.idle_us(),
            w.stalls_request(),
            w.stalls_global(),
            w.dumps(),
            self.locks.global_held_us(),
            stripes.join(","),
            history.strip_suffix('}').unwrap_or(&history),
            monitor.recent_slots_json(16),
            monitor.open_window_json(&self.obs),
            self.meter.report_json().trim_end(),
            self.health_json(),
            events_json(&self.trace_tail(64)).trim_end(),
            events_json(&self.slow_requests(32)).trim_end(),
            self.profile_snapshot().to_json().trim_end(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_track_begin_end_pairs() {
        let w = WatchStats::new();
        w.session_started();
        w.session_started();
        w.request_started();
        assert_eq!((w.live_sessions(), w.in_flight()), (2, 1));
        w.request_ended();
        w.session_ended();
        assert_eq!((w.live_sessions(), w.in_flight()), (1, 0));
        w.accept_queued();
        assert_eq!(w.accept_backlog(), 1);
        w.accept_dequeued();
        w.accept_dequeued(); // extra dequeue saturates at zero
        assert_eq!(w.accept_backlog(), 0);
    }

    #[test]
    fn stall_dumps_are_rate_limited() {
        let w = WatchStats::new();
        assert!(w.note_stall(StallKind::Request), "first stall dumps");
        assert!(
            !w.note_stall(StallKind::Request),
            "second stall within the interval does not"
        );
        assert_eq!(w.stalls_request(), 2, "but both stalls are counted");
        w.store_dump("{}".to_string());
        assert_eq!(w.dumps(), 1);
        assert_eq!(w.last_dump().as_deref(), Some("{}"));
    }

    #[test]
    fn watch_plane_toggles() {
        let w = WatchStats::new();
        assert!(w.enabled(), "always-on by default");
        w.set_enabled(false);
        assert!(!w.enabled());
    }
}
