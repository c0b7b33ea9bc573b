//! Spans recorded from the benchmark's own files: a root `op` span per
//! client call, `client.send` / `client.recv_wait` spans from a
//! [`FrameTransport`] wrapper, and `store.<method>` spans from the
//! store wrapper in `store.rs`. Spans stay in memory until the traced
//! window ends; [`analyze`] then parents each span to the op whose
//! interval contains it (unambiguous, as the traced run sends one
//! request at a time) and derives
//! layer self-times.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use seg_net::{FrameTransport, NetError};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client call; the label is its op class.
    Op(&'static str),
    Send,
    RecvWait,
    /// One `ObjectStore` call; the label is the method name.
    Store(&'static str),
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span sink. Recording is off until [`Tracer::set`].
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `kind` as having run from `start_ns` until now.
    pub fn record(&self, kind: Kind, start_ns: u64) {
        if self.on.load(Ordering::Relaxed) {
            let end_ns = self.now_ns();
            self.spans
                .lock()
                .expect("no thread panics while holding the span list")
                .push(Span {
                    kind,
                    start_ns,
                    end_ns,
                });
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

/// A transport that records how long the client spends handing a
/// frame to the socket and waiting for the next one.
pub struct TracedTransport<T> {
    inner: T,
    tracer: std::sync::Arc<Tracer>,
}

impl<T> TracedTransport<T> {
    pub fn new(inner: T, tracer: std::sync::Arc<Tracer>) -> Self {
        TracedTransport { inner, tracer }
    }
}

impl<T: FrameTransport> FrameTransport for TracedTransport<T> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let t0 = self.tracer.now_ns();
        let r = self.inner.send_frame(frame);
        self.tracer.record(Kind::Send, t0);
        r
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let t0 = self.tracer.now_ns();
        let r = self.inner.recv_frame();
        self.tracer.record(Kind::RecvWait, t0);
        r
    }
}

/// Per-op-class totals, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct ClassTotals {
    pub ops: u64,
    pub latency: u64,
    pub send: u64,
    pub recv_wait: u64,
    /// Op time not covered by `send` or `recv_wait`: request encoding,
    /// the TLS client half, response decoding.
    pub client_self: u64,
    /// Union of store spans inside the op.
    pub store_busy: u64,
    /// Part of `recv_wait` during which a store call was running.
    pub store_in_wait: u64,
    pub store_seal: u64,
    pub store_calls: u64,
}

#[derive(Debug, Default)]
pub struct Analysis {
    pub classes: BTreeMap<&'static str, ClassTotals>,
    /// Store spans no op interval contains (work done after a reply).
    pub orphans: u64,
}

impl Analysis {
    /// Totals over the request classes (every class but `connect`).
    pub fn requests(&self) -> ClassTotals {
        let mut t = ClassTotals::default();
        for (_, c) in self.classes.iter().filter(|(k, _)| **k != "connect") {
            t.ops += c.ops;
            t.latency += c.latency;
            t.send += c.send;
            t.recv_wait += c.recv_wait;
            t.client_self += c.client_self;
            t.store_busy += c.store_busy;
            t.store_in_wait += c.store_in_wait;
            t.store_seal += c.store_seal;
            t.store_calls += c.store_calls;
        }
        t
    }

    /// Relative gap between the op latencies and the sum of their
    /// layer parts (`client.self + send + recv_wait`), in percent.
    pub fn closure_gap_pct(&self) -> f64 {
        let (mut lat, mut parts) = (0u64, 0u64);
        for c in self.classes.values() {
            lat += c.latency;
            parts += c.client_self + c.send + c.recv_wait;
        }
        if lat == 0 {
            return 100.0;
        }
        (lat as f64 - parts as f64).abs() * 100.0 / lat as f64
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_end) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur_end).max(lo), e.min(hi));
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

/// Parents every span to its op and sums layer times per op class.
/// Ops must not overlap: the traced run sends them from one thread.
pub fn analyze(mut spans: Vec<Span>) -> Analysis {
    spans.sort_by_key(|s| s.start_ns);
    let ops: Vec<Span> = spans
        .iter()
        .copied()
        .filter(|s| matches!(s.kind, Kind::Op(_)))
        .collect();
    let mut children: Vec<Vec<Span>> = vec![Vec::new(); ops.len()];
    let mut out = Analysis::default();
    for s in spans.iter().filter(|s| !matches!(s.kind, Kind::Op(_))) {
        // The last op starting at or before this span.
        let at = ops.partition_point(|o| o.start_ns <= s.start_ns);
        match at.checked_sub(1) {
            Some(i) if s.end_ns <= ops[i].end_ns => children[i].push(*s),
            _ => out.orphans += u64::from(matches!(s.kind, Kind::Store(_))),
        }
    }
    for (op, kids) in ops.iter().zip(children) {
        let Kind::Op(class) = op.kind else {
            unreachable!("filtered to op spans")
        };
        let c = out.classes.entry(class).or_default();
        let dur = op.end_ns - op.start_ns;
        c.ops += 1;
        c.latency += dur;
        let mut client_io = Vec::new();
        let mut waits = Vec::new();
        let mut stores = Vec::new();
        for k in &kids {
            let len = k.end_ns - k.start_ns;
            match k.kind {
                Kind::Send => {
                    c.send += len;
                    client_io.push((k.start_ns, k.end_ns));
                }
                Kind::RecvWait => {
                    c.recv_wait += len;
                    client_io.push((k.start_ns, k.end_ns));
                    waits.push((k.start_ns, k.end_ns));
                }
                Kind::Store(method) => {
                    c.store_calls += 1;
                    if method == "tx_seal" {
                        c.store_seal += len;
                    }
                    stores.push((k.start_ns, k.end_ns));
                }
                Kind::Op(_) => unreachable!("ops do not nest"),
            }
        }
        c.client_self += dur - covered(&mut client_io, op.start_ns, op.end_ns);
        c.store_busy += covered(&mut stores, op.start_ns, op.end_ns);
        for &(ws, we) in &waits {
            c.store_in_wait += covered(&mut stores, ws, we);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn parents_spans_and_closes() {
        let a = analyze(vec![
            span(Kind::Op("read"), 0, 100),
            span(Kind::Send, 10, 20),
            span(Kind::RecvWait, 30, 90),
            span(Kind::Store("get"), 40, 60),
            span(Kind::Store("tx_seal"), 50, 70),
            span(Kind::Op("write"), 200, 300),
            span(Kind::Store("put"), 310, 320),
        ]);
        let r = &a.classes["read"];
        assert_eq!((r.send, r.recv_wait, r.client_self), (10, 60, 30));
        assert_eq!((r.store_busy, r.store_in_wait, r.store_seal), (30, 30, 20));
        assert_eq!(a.orphans, 1);
        assert!(a.closure_gap_pct() < 1e-9);
    }
}
