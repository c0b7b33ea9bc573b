//! The traced run: per-layer metrics. One client thread alternates the
//! workload's two sessions, so ops never overlap and every store span
//! has one op to belong to. The first half of the window runs with
//! recording off (the baseline for tracing overhead), the second half
//! with recording on; every per-op figure comes from the second half.
//!
//! Counts and program-reported times are deltas of the counters the
//! program already exports (`metrics_snapshot()`, the reactor's
//! `stats()`, the WAL's `io_stats()`); `client.*` and `store.*_us`
//! come from the benchmark's own spans.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use seg_obs::Snapshot;
use seg_store::{IoStats, ObjectStore};

use crate::stats::percentile_ms;
use crate::trace::{analyze, Tracer};
use crate::workload::{deploy, Deployment, Session, Shared, Tally, Traced, Workload};
use crate::{line, prims, refkernel, Metric, Outcome};

fn counter(d: &Snapshot, name: &str) -> f64 {
    d.counters
        .iter()
        .filter(|(id, _)| id.name() == name)
        .map(|&(_, v)| v as f64)
        .sum()
}

/// `(count, sum in µs)` of a histogram family, over all label sets.
fn hist_us(d: &Snapshot, name: &str) -> (f64, f64) {
    d.histograms
        .iter()
        .filter(|(id, _)| id.name() == name)
        .fold((0.0, 0.0), |(n, s), (_, h)| {
            (n + h.count as f64, s + h.sum as f64 / 1e3)
        })
}

/// Counter readings bracketing the traced window.
struct Readings {
    snap: Snapshot,
    frames: u64,
    bytes: u64,
    outq_highwater: u64,
    io: IoStats,
}

fn read_counters(dep: &Deployment) -> Readings {
    let r = Arc::clone(dep.server.reactor().stats());
    Readings {
        snap: dep.server.metrics_snapshot(),
        frames: r.frames_in_total() + r.frames_out_total(),
        bytes: r.bytes_in_total() + r.bytes_out_total(),
        outq_highwater: r.outq_highwater_bytes(),
        io: dep.wal.as_ref().map(|w| w.io_stats()).unwrap_or_default(),
    }
}

/// Steps the sessions round-robin until `dur` has passed.
fn drive(sessions: &mut [Session<'_, Traced<'_>>], dur: Duration) {
    let end = Instant::now() + dur;
    let mut k = 0;
    while Instant::now() < end {
        sessions[k % sessions.len()].step();
        k += 1;
    }
}

/// Moves every session's samples out, leaving empty tallies.
fn collect(sessions: &mut [Session<'_, Traced<'_>>]) -> Tally {
    let mut t = Tally::default();
    for s in sessions {
        t.merge(std::mem::take(&mut s.tally));
    }
    t
}

pub fn traced_run(
    w: Workload,
    seed: u64,
    seconds: u64,
    work_root: &Path,
) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::new());
    let dep = deploy(w, seed, work_root, Some(&tracer)).map_err(|e| e.to_string())?;
    let conn = Traced(&dep.addr, &tracer);
    let shared = Shared::default();
    let mut sessions: Vec<_> = (0..dep.users.len())
        .map(|i| Session::new(w, i, &dep, &conn, &shared, seed))
        .collect();
    for s in &mut sessions {
        s.warm_up();
    }
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);

    drive(&mut sessions, half);
    let plain = collect(&mut sessions);

    let before = read_counters(&dep);
    tracer.set(true);
    drive(&mut sessions, half);
    tracer.set(false);
    let after = read_counters(&dep);
    let traced = collect(&mut sessions);
    let a = analyze(tracer.take());
    let poisoned = dep.wal.as_ref().is_some_and(|l| l.poisoned());
    let n_sessions = dep.users.len();
    drop(sessions);
    drop(dep);

    let d = after.snap.delta(&before.snap);
    let req = a.requests();
    let ops = req.ops.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / ops;
    let per_op = |name: &str| counter(&d, name) / ops;
    let (pfs_enc, _) = hist_us(&d, "seg_pfs_encrypt_ns");
    let (pfs_dec, _) = hist_us(&d, "seg_pfs_decrypt_ns");
    let (tree_v, tree_v_us) = hist_us(&d, "seg_rollback_tree_verify_ns");
    let (tree_u, tree_u_us) = hist_us(&d, "seg_rollback_tree_update_ns");
    let (_, audit_us) = hist_us(&d, "seg_audit_append_ns");
    let (_, lock_us) = hist_us(&d, "seg_lock_wait_ns");
    let hits = counter(&d, "seg_cache_hits_total");
    let misses = counter(&d, "seg_cache_misses_total");
    let epc_peak = after.snap.gauge("seg_epc_peak_bytes").unwrap_or_default() as f64;
    let io = IoStats {
        batches: after.io.batches - before.io.batches,
        batch_ops: after.io.batch_ops - before.io.batch_ops,
        fsyncs: after.io.fsyncs - before.io.fsyncs,
        fsync_bytes: after.io.fsync_bytes - before.io.fsync_bytes,
    };
    let store_spans: u64 = a.classes.values().map(|c| c.store_calls).sum::<u64>() + a.orphans;
    let latencies = |t: &Tally| -> Vec<Duration> { t.reads.iter().map(|&(_, d)| d).collect() };
    let untraced_p50 = percentile_ms(&mut latencies(&plain), 0.5);
    let mut traced_reads = latencies(&traced);
    let traced_p50 = percentile_ms(&mut traced_reads, 0.5);
    let traced_p99 = percentile_ms(&mut traced_reads, 0.99);
    let closure = a.closure_gap_pct();

    println!(
        "traced run: one client thread alternating {} sessions; {:.1} s untraced, then {:.1} s traced",
        n_sessions,
        half.as_secs_f64(),
        half.as_secs_f64()
    );
    println!(
        "  {:<8} {:>7} {:>10} {:>11} {:>9} {:>10} {:>10} {:>11} {:>11} {:>9}",
        "class",
        "ops",
        "lat_us",
        "client_self",
        "send",
        "recv_wait",
        "store",
        "store_wait",
        "enclave",
        "seal"
    );
    for (class, c) in &a.classes {
        let n = c.ops.max(1) as f64;
        let f = |ns: u64| ns as f64 / 1e3 / n;
        println!(
            "  {class:<8} {:>7} {:>10.1} {:>11.1} {:>9.1} {:>10.1} {:>10.1} {:>11.1} {:>11.1} {:>9.1}",
            c.ops,
            f(c.latency),
            f(c.client_self),
            f(c.send),
            f(c.recv_wait),
            f(c.store_busy),
            f(c.store_in_wait),
            f(c.recv_wait - c.store_in_wait),
            f(c.store_seal),
        );
    }
    println!(
        "  (per op, µs; client_self + send + recv_wait = lat within {closure:.4}%; \
         enclave = recv_wait - store_wait)"
    );
    println!(
        "  program-reported (metrics_snapshot deltas): tree.*_us, audit.append_us, lock.wait_us"
    );

    let mut metrics: Vec<Metric> = vec![
        (
            "net.frames_per_op",
            (after.frames - before.frames) as f64 / ops,
            "count",
        ),
        (
            "net.bytes_per_op",
            (after.bytes - before.bytes) as f64 / ops,
            "B",
        ),
        ("net.outq_highwater_bytes", after.outq_highwater as f64, "B"),
        ("client.self_us_per_op", us(req.client_self), "us"),
        ("client.recv_wait_us_per_op", us(req.recv_wait), "us"),
    ];
    metrics.extend(prims::table().into_iter().map(|(name, value)| {
        let unit = if name.ends_with("_mib_s") {
            "MiB/s"
        } else {
            "us"
        };
        (name, value, unit)
    }));
    metrics.extend([
        ("pfs.encrypts_per_op", pfs_enc / ops, "count"),
        ("pfs.decrypts_per_op", pfs_dec / ops, "count"),
        (
            "sgx.ecalls_per_op",
            per_op("seg_boundary_ecalls_total"),
            "count",
        ),
        (
            "sgx.ocalls_per_op",
            per_op("seg_boundary_ocalls_total"),
            "count",
        ),
        ("sgx.epc_peak_mib", epc_peak / (1 << 20) as f64, "MiB"),
        ("tree.verifies_per_op", tree_v / ops, "count"),
        ("tree.updates_per_op", tree_u / ops, "count"),
        ("tree.verify_us_per_op", tree_v_us / ops, "us"),
        ("tree.update_us_per_op", tree_u_us / ops, "us"),
        (
            "audit.records_per_op",
            per_op("seg_audit_records_total"),
            "count",
        ),
        ("audit.bytes_per_op", per_op("seg_audit_bytes_total"), "B"),
        ("audit.append_us_per_op", audit_us / ops, "us"),
        ("lock.wait_us_per_op", lock_us / ops, "us"),
        ("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        ("cache.misses_per_op", misses / ops, "count"),
        (
            "cache.evictions_per_op",
            per_op("seg_cache_evictions_total"),
            "count",
        ),
        (
            "cache.invalidations_per_op",
            per_op("seg_cache_invalidations_total"),
            "count",
        ),
        ("store.calls_per_op", store_spans as f64 / ops, "count"),
        (
            "store.read_bytes_per_op",
            per_op("seg_store_bytes_read_total"),
            "B",
        ),
        (
            "store.write_bytes_per_op",
            per_op("seg_store_bytes_written_total"),
            "B",
        ),
        ("store.busy_us_per_op", us(req.store_busy), "us"),
        ("store.seal_us_per_op", us(req.store_seal), "us"),
        ("wal.fsyncs_per_op", io.fsyncs as f64 / ops, "count"),
        ("wal.batches_per_op", io.batches as f64 / ops, "count"),
        (
            "wal.ops_per_batch",
            io.batch_ops as f64 / io.batches.max(1) as f64,
            "count",
        ),
        ("wal.fsync_bytes_per_op", io.fsync_bytes as f64 / ops, "B"),
        ("host.ref_kernel_ms", refkernel::ref_kernel_ms(), "ms"),
        (
            "trace.enclave_us_per_op",
            us(req.recv_wait - req.store_in_wait),
            "us",
        ),
        ("trace.store_wait_us_per_op", us(req.store_in_wait), "us"),
        ("trace.closure_gap_pct", closure, "%"),
        (
            "trace.overhead_read_p50_ms",
            traced_p50 - untraced_p50,
            "ms",
        ),
        ("trace.read_p99_ms", traced_p99, "ms"),
        ("trace.orphan_store_spans", a.orphans as f64, "count"),
    ]);
    for (name, value, unit) in &metrics {
        line(name, *value, unit, "");
    }
    println!(
        "  (per op = per request over {} traced requests; connects excluded from the count)",
        req.ops
    );

    let mut all = plain;
    all.merge(traced);
    if poisoned {
        all.attempted += 1;
        all.failed += 1;
        all.errors.push("the WAL store poisoned itself".to_string());
    }
    for e in &all.errors {
        println!("  failure: {e}");
    }
    let closes = closure < 1.0;
    if !closes {
        println!("  failure: layer times do not add up to the op latency");
    }
    Ok(Outcome {
        correct: all.failed == 0 && closes,
        attempted: all.attempted,
        failed: all.failed,
        metrics,
    })
}
