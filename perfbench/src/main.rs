//! SeGShare benchmark: drives one workload against the server as
//! `examples/tcp_server.rs` deploys it, checks every reply, and prints
//! each metric by name with its unit. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload team_share --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` is the end-to-end run: two client threads, tracing off.
//! `--trace 1` is the traced run: one client thread alternating the two
//! sessions, spans recorded around each layer call, per-layer metrics.

mod body;
mod layers;
mod prims;
mod refkernel;
mod stats;
mod store;
mod trace;
mod workload;

use std::path::PathBuf;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use stats::{median, percentile_ms, process_cpu, rss_peak_mib};
use workload::{deploy, Connector, Deployment, Plain, Sample, Session, Shared, Tally, Workload};

/// Deployments built per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or(format!("missing {flag} <value>"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name}"))?,
        name,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: match get("--seconds")?.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err("--seconds takes a whole number of at least 1".to_string()),
        },
        trace: match get("--trace").as_deref() {
            Ok("1") => true,
            Ok("0") | Err(_) => false,
            Ok(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

/// One named result: `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <team_share|bulk_sync|durable_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // WAL directories live in the checkout, next to the build output.
    let work_root = PathBuf::from(".perfbench_tmp");
    std::fs::create_dir_all(&work_root).expect("create the benchmark's work directory");
    println!(
        "workload {}  seed {}  seconds {}  trace {}  store {}  available_parallelism {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.store_label(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let result = if args.trace {
        layers::traced_run(args.workload, args.seed, args.seconds, &work_root)
    } else {
        end_to_end_run(&args, &work_root)
    };
    let _ = std::fs::remove_dir(&work_root);
    match result {
        Ok(o) => print_outcome(&o),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn print_outcome(o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

pub fn line(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<28} {value:>14.4} {unit:<6} {note}");
}

/// Sub-windows per end-to-end window. Rates, latency percentiles and
/// CPU per op are computed per sub-window and reported as the median
/// over sub-windows, so a burst of host contention moves a minority of
/// them and not the result.
const SUBWINDOWS: usize = 20;

/// Sub-window boundaries: `(instant, process CPU time)`.
type Marks = Vec<(Instant, Duration)>;

/// Warms up, then runs every session on its own thread for `seconds`,
/// marking `SUBWINDOWS` equal sub-windows. Returns the merged tally.
fn run_window<C: Connector>(args: &Args, dep: &Deployment, conn: &C) -> (Tally, Marks) {
    let shared = Shared::default();
    let ready = Barrier::new(dep.users.len() + 1);
    let go = Barrier::new(dep.users.len() + 1);
    let deadline = OnceLock::new();
    let sub = Duration::from_secs(args.seconds) / SUBWINDOWS as u32;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..dep.users.len())
            .map(|idx| {
                let (shared, ready, go, deadline) = (&shared, &ready, &go, &deadline);
                s.spawn(move || {
                    let mut sess = Session::new(args.workload, idx, dep, conn, shared, args.seed);
                    sess.warm_up();
                    ready.wait();
                    go.wait();
                    let end = *deadline.get().expect("deadline set before go");
                    while Instant::now() < end {
                        sess.step();
                    }
                    sess.tally
                })
            })
            .collect();
        ready.wait();
        let t0 = Instant::now();
        let mut marks = vec![(t0, process_cpu())];
        deadline
            .set(t0 + sub * SUBWINDOWS as u32)
            .expect("deadline set once");
        go.wait();
        for k in 1..=SUBWINDOWS {
            std::thread::sleep((t0 + sub * k as u32).saturating_duration_since(Instant::now()));
            marks.push((Instant::now(), process_cpu()));
        }
        let mut tally = Tally::default();
        for h in handles {
            tally.merge(h.join().expect("session thread panicked"));
        }
        (tally, marks)
    })
}

/// Latencies of the samples that completed in `[from, to)`.
fn in_window(samples: &[Sample], from: Instant, to: Instant) -> Vec<Duration> {
    samples
        .iter()
        .filter(|(at, _)| *at >= from && *at < to)
        .map(|&(_, d)| d)
        .collect()
}

/// Per-sub-window figures, each reduced to its median over sub-windows.
struct Windowed {
    ops: u64,
    rates: Vec<f64>,
    ops_per_s: f64,
    cpu_ms_per_op: f64,
    /// `(p50, p90)` in ms per op class: read, write, admin.
    lat: [(f64, f64); 3],
    counts: [usize; 3],
}

fn windowed(t: &Tally, marks: &Marks) -> Windowed {
    let classes = [&t.reads, &t.writes, &t.admins];
    let mut rates = Vec::new();
    let mut cpus = Vec::new();
    let mut pct: [(Vec<f64>, Vec<f64>); 3] = Default::default();
    let mut ops = 0;
    let mut counts = [0; 3];
    for w in marks.windows(2) {
        let ((from, cpu0), (to, cpu1)) = (w[0], w[1]);
        let mut n = 0;
        for (c, samples) in classes.iter().enumerate() {
            let mut lat = in_window(samples, from, to);
            n += lat.len();
            counts[c] += lat.len();
            if !lat.is_empty() {
                pct[c].0.push(percentile_ms(&mut lat, 0.5));
                pct[c].1.push(percentile_ms(&mut lat, 0.9));
            }
        }
        ops += n as u64;
        rates.push(n as f64 / (to - from).as_secs_f64());
        cpus.push((cpu1 - cpu0).as_secs_f64() * 1e3 / n.max(1) as f64);
    }
    Windowed {
        ops,
        ops_per_s: median(&rates),
        rates,
        cpu_ms_per_op: median(&cpus),
        lat: pct.map(|(p50, p90)| (median(&p50), median(&p90))),
        counts,
    }
}

fn end_to_end_run(args: &Args, work_root: &std::path::Path) -> Result<Outcome, String> {
    let timed_deploy = || {
        let t0 = Instant::now();
        deploy(args.workload, args.seed, work_root, None)
            .map(|d| (d, t0.elapsed().as_secs_f64()))
            .map_err(|e| e.to_string())
    };
    // The measured deployment is the process's first, so the memory
    // peak is one server's; the extra set-ups only time `setup_s`.
    let (dep, first) = timed_deploy()?;
    let mut setup_times = vec![first];
    let host_ms = refkernel::ref_kernel_ms();
    let (mut t, marks) = run_window(args, &dep, &Plain(&dep.addr));
    let rss = rss_peak_mib();
    if dep.wal.as_ref().is_some_and(|w| w.poisoned()) {
        t.attempted += 1;
        t.failed += 1;
        t.errors.push("the WAL store poisoned itself".to_string());
    }
    let stored = dep.stored_bytes as f64 / dep.user_bytes as f64;
    let sessions = dep.users.len();
    drop(dep);
    for _ in 1..SETUPS {
        setup_times.push(timed_deploy()?.1);
    }

    let setup_s = median(&setup_times);
    let win = windowed(&t, &marks);
    let [read, write, admin] = win.lat;
    let [nr, nw, na] = win.counts;
    let mut connects: Vec<Duration> = t.connects.iter().map(|&(_, d)| d).collect();
    let nc = connects.len();
    let connect_p50 = percentile_ms(&mut connects, 0.5);
    let wall = marks[SUBWINDOWS].0 - marks[0].0;

    println!(
        "end-to-end: {sessions} sessions on {sessions} client threads, closed loop, loopback \
         TLS, reactor front end; window {:.3} s in {SUBWINDOWS} sub-windows; rates, \
         percentiles and CPU per op are medians over sub-windows",
        wall.as_secs_f64()
    );
    line(
        "host.ref_kernel_ms",
        host_ms,
        "ms",
        "diagnostic: host speed before the window",
    );
    println!("  ops_per_s by sub-window: {:.0?}", win.rates);
    // `write_*` is the latency of the workload's mutating requests:
    // `put`, or on `durable_churn`, which sends none, the admin ops.
    let (mutate, nm) = if args.workload == Workload::DurableChurn {
        line(
            "admin_p50_ms",
            admin.0,
            "ms",
            &format!("n={na}; reported as write_p50_ms"),
        );
        line(
            "admin_p90_ms",
            admin.1,
            "ms",
            &format!("n={na}; reported as write_p90_ms"),
        );
        let note = "reads refused while bob was out of the group";
        line("denied_reads", t.denied_ok as f64, "count", note);
        (admin, na)
    } else {
        (write, nw)
    };
    let error_ratio = t.failed as f64 / t.attempted.max(1) as f64;
    line(
        "error_ratio",
        error_ratio,
        "ratio",
        &format!("{} of {} failed", t.failed, t.attempted),
    );
    for e in &t.errors {
        println!("  failure: {e}");
    }
    let report = [
        (
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUPS} set-ups {setup_times:.3?}"),
        ),
        (
            "ops_per_s",
            win.ops_per_s,
            "1/s",
            format!("{} ops", win.ops),
        ),
        ("read_p50_ms", read.0, "ms", format!("n={nr}")),
        ("read_p90_ms", read.1, "ms", format!("n={nr}")),
        ("write_p50_ms", mutate.0, "ms", format!("n={nm}")),
        ("write_p90_ms", mutate.1, "ms", format!("n={nm}")),
        ("connect_p50_ms", connect_p50, "ms", format!("n={nc}")),
        (
            "cpu_ms_per_op",
            win.cpu_ms_per_op,
            "ms",
            "user+sys".to_string(),
        ),
        ("rss_peak_mib", rss, "MiB", String::new()),
        (
            "stored_bytes_per_user_byte",
            stored,
            "ratio",
            "at end of set-up".to_string(),
        ),
    ];
    for (name, value, unit, note) in &report {
        line(name, *value, unit, note);
    }
    let metrics = report.into_iter().map(|(n, v, u, _)| (n, v, u)).collect();
    Ok(Outcome {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
    })
}
