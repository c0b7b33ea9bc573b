//! The workloads, the deployment they run against, and the client
//! sessions that drive them.
//!
//! The deployment is the one `examples/tcp_server.rs` builds without
//! flags: `EnclaveConfig { cache: true, .. }` (plus `batch` on the WAL
//! store, as `--store wal:` sets it), the reactor front end serving a
//! 127.0.0.1 listener, and clients that connect over TCP and TLS.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seg_fs::Perm;
use seg_net::{FrameTransport, TcpTransport};
use seg_proto::ErrorCode;
use seg_store::{MemStore, ObjectStore, WalConfig, WalStore};
use segshare::{
    wal_views, Client, EnclaveConfig, EnrolledUser, FrontEnd, FsoSetup, SegShareError,
    SegShareServer,
};

use crate::body;
use crate::stats::Rng;
use crate::store::TracedStore;
use crate::trace::{Kind, TracedTransport, Tracer};

/// Simulated per-fsync latency of the WAL workload. A shared VM disk's
/// real `fdatasync` varies too much to measure against, so the log
/// sleeps this long per flush (on top of the real, cheap flush).
pub const SIM_FSYNC_US: u64 = 200;
/// Members of the group `durable_churn` churns.
const CHURN_MEMBERS: usize = 1000;
const KIB: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TeamShare,
    BulkSync,
    DurableChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "team_share" => Some(Workload::TeamShare),
            "bulk_sync" => Some(Workload::BulkSync),
            "durable_churn" => Some(Workload::DurableChurn),
            _ => None,
        }
    }

    pub fn store_label(self) -> &'static str {
        match self {
            Workload::DurableChurn => "wal (group commit, batch)",
            _ => "mem",
        }
    }

    /// Requests a session sends between two logins.
    fn relogin_every(self) -> u64 {
        match self {
            Workload::TeamShare => 250,
            Workload::BulkSync => 10,
            Workload::DurableChurn => 100,
        }
    }
}

/// One file of the prefilled namespace.
#[derive(Debug, Clone)]
pub struct FileSpec {
    pub path: String,
    pub size: usize,
    /// The only session that overwrites this file, so versions per path
    /// increase in commit order.
    pub writer: Option<usize>,
}

/// Removes a working directory when the deployment using it is gone.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A launched, prefilled server. Field order is drop order: the server
/// and stores go before the WAL directory is removed.
pub struct Deployment {
    pub server: Arc<SegShareServer>,
    pub addr: String,
    /// The session users, one per session.
    pub users: Vec<EnrolledUser>,
    pub files: Vec<FileSpec>,
    pub wal: Option<Arc<WalStore>>,
    /// `Σ total_bytes()` over the three stores when set-up ended.
    pub stored_bytes: u64,
    /// User payload bytes the prefill wrote.
    pub user_bytes: u64,
    _dir: Option<WorkDir>,
}

/// Launches, attests, enrolls and prefills a deployment for `w`.
/// `work_root` holds the WAL directory; `tracer` wraps every store.
pub fn deploy(
    w: Workload,
    seed: u64,
    work_root: &std::path::Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Deployment, SegShareError> {
    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
    let mut dir = None;
    let mut wal = None;
    let (mut stores, batch): ([Arc<dyn ObjectStore>; 3], bool) = if w == Workload::DurableChurn {
        let path = work_root.join(format!(
            "wal-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        dir = Some(WorkDir(path.clone()));
        let log = Arc::new(WalStore::open_with(
            &path,
            WalConfig {
                sim_fsync_us: SIM_FSYNC_US,
                ..WalConfig::default()
            },
        )?);
        let (c, g, d) = wal_views(&log);
        wal = Some(log);
        ([c, g, d], true)
    } else {
        (
            [
                Arc::new(MemStore::new()),
                Arc::new(MemStore::new()),
                Arc::new(MemStore::new()),
            ],
            false,
        )
    };
    if let Some(t) = tracer {
        stores = stores.map(|s| TracedStore::wrap(s, t));
    }
    let config = EnclaveConfig {
        cache: true,
        batch,
        ..EnclaveConfig::default()
    };
    let [c, g, d] = stores.clone();
    let setup = FsoSetup::with_stores("ca", config, seg_sgx::Platform::new(), c, g, d);
    let server = Arc::new(setup.server()?);
    server.set_front_end(FrontEnd::Reactor);
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| SegShareError::Net(e.into()))?;
    let addr = listener
        .local_addr()
        .map_err(|e| SegShareError::Net(e.into()))?
        .to_string();
    server.serve_listener(listener)?;

    let names: &[&str] = match w {
        Workload::DurableChurn => &["alice", "bob"],
        _ => &["fso", "m0", "m1"],
    };
    let mut enrolled = names
        .iter()
        .map(|n| setup.enroll_user(n, &format!("{n}@x"), n))
        .collect::<Result<Vec<_>, _>>()?;
    let mut owner = Client::connect(TcpTransport::connect(&addr)?, &enrolled[0])?;
    let mut rng = Rng::new(seed).fork(1);
    let files = match w {
        Workload::TeamShare => prefill_team(&mut owner, &mut rng)?,
        Workload::BulkSync => prefill_bulk(&mut owner, &mut rng)?,
        Workload::DurableChurn => prefill_churn(&mut owner, &mut rng)?,
    };
    drop(owner);
    if w != Workload::DurableChurn {
        // The owner only sets up; the two members run the sessions.
        enrolled.remove(0);
    }
    let mut stored_bytes = 0;
    for s in &stores {
        stored_bytes += s.total_bytes()?;
    }
    Ok(Deployment {
        server,
        addr,
        users: enrolled,
        user_bytes: files.iter().map(|f| f.size as u64).sum(),
        files,
        wal,
        stored_bytes,
        _dir: dir,
    })
}

/// A size drawn log-uniformly from `[lo, hi]`.
fn log_uniform(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    ((l + (h - l) * rng.unit()).exp() as usize).clamp(lo, hi)
}

/// ~500 files of 1–16 KiB at depth 4 under `/team/`, which grants the
/// group `team` read-write; every node below inherits it.
fn prefill_team<T: FrameTransport>(
    c: &mut Client<T>,
    rng: &mut Rng,
) -> Result<Vec<FileSpec>, SegShareError> {
    c.mkdir("/team")?;
    c.set_perm("/team/", "team", Perm::ReadWrite)?;
    for a in 0..4 {
        c.mkdir(&format!("/team/a{a}"))?;
        c.set_inherit(&format!("/team/a{a}/"), true)?;
        for b in 0..4 {
            c.mkdir(&format!("/team/a{a}/b{b}"))?;
            c.set_inherit(&format!("/team/a{a}/b{b}/"), true)?;
        }
    }
    c.add_user("m0", "team")?;
    c.add_user("m1", "team")?;
    let mut files = Vec::new();
    for i in 0..500 {
        let f = FileSpec {
            path: format!("/team/a{}/b{}/f{i:03}", i % 4, (i / 4) % 4),
            size: log_uniform(rng, KIB, 16 * KIB),
            writer: Some(i % 2),
        };
        c.put(&f.path, &body::make(&f.path, 1, f.size, rng))?;
        c.set_inherit(&f.path, true)?;
        files.push(f);
    }
    Ok(files)
}

/// 16 files of exactly 1 MiB under `/bulk/`, shared read-write.
fn prefill_bulk<T: FrameTransport>(
    c: &mut Client<T>,
    rng: &mut Rng,
) -> Result<Vec<FileSpec>, SegShareError> {
    c.mkdir("/bulk")?;
    c.set_perm("/bulk/", "team", Perm::ReadWrite)?;
    c.add_user("m0", "team")?;
    c.add_user("m1", "team")?;
    let mut files = Vec::new();
    for i in 0..16 {
        let f = FileSpec {
            path: format!("/bulk/f{i:02}"),
            size: 1 << 20,
            writer: Some(i % 2),
        };
        c.put(&f.path, &body::make(&f.path, 1, f.size, rng))?;
        c.set_inherit(&f.path, true)?;
        files.push(f);
    }
    Ok(files)
}

/// A 1000-member group `crowd` (999 fillers plus bob) that may read
/// the 64 files under `/shared/`, and alice's 8 files under `/churn/`
/// whose permissions alice toggles.
fn prefill_churn<T: FrameTransport>(
    c: &mut Client<T>,
    rng: &mut Rng,
) -> Result<Vec<FileSpec>, SegShareError> {
    for i in 0..CHURN_MEMBERS - 1 {
        c.add_user(&format!("u{i:04}"), "crowd")?;
    }
    c.add_user("bob", "crowd")?;
    c.mkdir("/shared")?;
    c.set_perm("/shared/", "crowd", Perm::Read)?;
    c.mkdir("/churn")?;
    let mut files = Vec::new();
    for i in 0..64 {
        let f = FileSpec {
            path: format!("/shared/f{i:02}"),
            size: log_uniform(rng, KIB, 16 * KIB),
            writer: None,
        };
        c.put(&f.path, &body::make(&f.path, 1, f.size, rng))?;
        c.set_inherit(&f.path, true)?;
        files.push(f);
    }
    for k in 0..8 {
        let path = format!("/churn/x{k}");
        c.put(&path, &body::make(&path, 1, 2 * KIB, rng))?;
    }
    Ok(files)
}

/// One completed op: when it completed and how long it took.
pub type Sample = (Instant, Duration);

/// Latency samples and outcome counts of one or more sessions.
#[derive(Debug, Default)]
pub struct Tally {
    pub reads: Vec<Sample>,
    pub writes: Vec<Sample>,
    pub admins: Vec<Sample>,
    pub connects: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Reads that the revocation state allowed to be refused and were.
    pub denied_ok: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.admins.extend(other.admins);
        self.connects.extend(other.connects);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.denied_ok += other.denied_ok;
        for e in other.errors {
            self.fail_note(e);
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.fail_note(what);
    }

    fn fail_note(&mut self, what: String) {
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// `durable_churn`'s membership state, advanced by alice and read by
/// bob around each of his reads. `seq % 4`: 0 bob is a member (add
/// acknowledged), 1 remove sent, 2 remove acknowledged, 3 add sent.
#[derive(Debug, Default)]
pub struct Shared {
    phase: AtomicU64,
}

/// How a session reaches the server: plain TCP, or TCP wrapped in the
/// span-recording transport.
pub trait Connector: Sync {
    type T: FrameTransport;
    fn connect(&self, user: &EnrolledUser) -> Result<Client<Self::T>, SegShareError>;

    /// The span sink op spans go to, when tracing.
    fn tracer(&self) -> Option<&Arc<Tracer>> {
        None
    }
}

pub struct Plain<'a>(pub &'a str);

impl Connector for Plain<'_> {
    type T = TcpTransport;
    fn connect(&self, user: &EnrolledUser) -> Result<Client<TcpTransport>, SegShareError> {
        Client::connect(TcpTransport::connect(self.0)?, user)
    }
}

pub struct Traced<'a>(pub &'a str, pub &'a Arc<Tracer>);

impl Connector for Traced<'_> {
    type T = TracedTransport<TcpTransport>;
    fn connect(
        &self,
        user: &EnrolledUser,
    ) -> Result<Client<TracedTransport<TcpTransport>>, SegShareError> {
        let transport = TracedTransport::new(TcpTransport::connect(self.0)?, Arc::clone(self.1));
        Client::connect(transport, user)
    }

    fn tracer(&self) -> Option<&Arc<Tracer>> {
        Some(self.1)
    }
}

/// One SeGShare session: one user, one TLS channel at a time, a
/// blocking client, and the per-path version bookkeeping its checks
/// need.
pub struct Session<'d, C: Connector> {
    w: Workload,
    idx: usize,
    dep: &'d Deployment,
    conn: &'d C,
    shared: &'d Shared,
    client: Option<Client<C::T>>,
    rng: Rng,
    /// Highest version seen (or written) per file.
    seen: Vec<u64>,
    /// The files this session overwrites.
    mine: Vec<usize>,
    /// Set when a failed admin op left the membership state unknown.
    halted: bool,
    since_login: u64,
    pub tally: Tally,
}

impl<'d, C: Connector> Session<'d, C> {
    pub fn new(
        w: Workload,
        idx: usize,
        dep: &'d Deployment,
        conn: &'d C,
        shared: &'d Shared,
        seed: u64,
    ) -> Self {
        Session {
            w,
            idx,
            dep,
            conn,
            shared,
            client: None,
            rng: Rng::new(seed).fork(100 + idx as u64),
            seen: vec![1; dep.files.len()],
            mine: (0..dep.files.len())
                .filter(|&i| dep.files[i].writer == Some(idx))
                .collect(),
            halted: false,
            since_login: 0,
            tally: Tally::default(),
        }
    }

    /// Reads every file once without recording anything (cache fill).
    pub fn warm_up(&mut self) {
        if self.w == Workload::DurableChurn && self.idx == 0 {
            return;
        }
        for i in 0..self.dep.files.len() {
            self.read(i);
        }
        self.tally = Tally::default();
    }

    /// Times `call` as one op of `class`, recording its root span.
    fn timed<R>(&mut self, class: &'static str, call: impl FnOnce(&mut Self) -> R) -> (R, Sample) {
        let tracer = self.conn.tracer();
        let span_start = tracer.map(|t| t.now_ns());
        let t0 = Instant::now();
        let r = call(self);
        let end = Instant::now();
        if let (Some(t), Some(s)) = (tracer, span_start) {
            t.record(Kind::Op(class), s);
        }
        (r, (end, end - t0))
    }

    /// Logs in when the session has no channel or is due to log in
    /// again; false when the login failed.
    fn connected(&mut self) -> bool {
        if self.client.is_none() || self.since_login >= self.w.relogin_every() {
            self.client = None;
            self.since_login = 0;
            self.tally.attempted += 1;
            let user = &self.dep.users[self.idx];
            let conn = self.conn;
            let (r, sample) = self.timed("connect", |_| conn.connect(user));
            match r {
                Ok(c) => {
                    self.tally.connects.push(sample);
                    self.client = Some(c);
                }
                Err(e) => self.tally.fail(format!("connect: {e}")),
            }
        }
        self.since_login += 1;
        self.client.is_some()
    }

    /// Sends one request of the workload's mix.
    pub fn step(&mut self) {
        match self.w {
            Workload::TeamShare | Workload::BulkSync => {
                let write_share = if self.w == Workload::TeamShare {
                    0.1
                } else {
                    0.5
                };
                if self.rng.unit() < write_share {
                    let i = self.mine[self.rng.below(self.mine.len() as u64) as usize];
                    self.write(i);
                } else {
                    let i = self.rng.below(self.dep.files.len() as u64) as usize;
                    self.read(i);
                }
            }
            Workload::DurableChurn if self.idx == 0 => self.churn(),
            Workload::DurableChurn => {
                let i = self.rng.below(self.dep.files.len() as u64) as usize;
                self.read(i);
            }
        }
    }

    fn read(&mut self, i: usize) {
        let before = self.shared.phase.load(Ordering::SeqCst);
        let path = self.dep.files[i].path.clone();
        if !self.connected() {
            return;
        }
        self.tally.attempted += 1;
        let (r, sample) = self.timed("read", |s| s.client.as_mut().expect("connected").get(&path));
        let after = self.shared.phase.load(Ordering::SeqCst);
        // Revocation immediacy: sent after the remove was acknowledged
        // and completed before the next add was sent.
        let must_deny = self.w == Workload::DurableChurn && before == after && before % 4 == 2;
        let must_allow =
            self.w != Workload::DurableChurn || (before == after && before.is_multiple_of(4));
        match r {
            Ok(got) => {
                self.tally.reads.push(sample);
                if must_deny {
                    self.tally
                        .fail(format!("{path}: read allowed after revocation"));
                } else {
                    self.check_body(i, &path, &got);
                }
            }
            Err(SegShareError::Request {
                code: ErrorCode::Denied,
                ..
            }) if !must_allow => {
                self.tally.reads.push(sample);
                self.tally.denied_ok += 1;
            }
            Err(e) => self.op_error(&path, e),
        }
    }

    fn check_body(&mut self, i: usize, path: &str, got: &[u8]) {
        let f = &self.dep.files[i];
        match body::verify(path, got) {
            Err(e) => self.tally.fail(e),
            Ok(_) if got.len() != f.size => {
                self.tally
                    .fail(format!("{path}: {} bytes, expected {}", got.len(), f.size))
            }
            Ok(v) if f.writer == Some(self.idx) && v != self.seen[i] => self.tally.fail(format!(
                "{path}: read version {v} after writing {}",
                self.seen[i]
            )),
            Ok(v) if v < self.seen[i] => self.tally.fail(format!(
                "{path}: version went back from {} to {v}",
                self.seen[i]
            )),
            Ok(v) => self.seen[i] = v,
        }
    }

    fn write(&mut self, i: usize) {
        let f = &self.dep.files[i];
        let version = self.seen[i] + 1;
        let content = body::make(&f.path, version, f.size, &mut self.rng);
        let path = f.path.clone();
        if !self.connected() {
            return;
        }
        self.tally.attempted += 1;
        let (r, sample) = self.timed("write", |s| {
            s.client.as_mut().expect("connected").put(&path, &content)
        });
        match r {
            Ok(()) => {
                self.tally.writes.push(sample);
                self.seen[i] = version;
            }
            Err(e) => self.op_error(&path, e),
        }
    }

    /// Alice's cycle: revoke bob, grant and revoke the group on one of
    /// her files, re-admit bob.
    fn churn(&mut self) {
        if self.halted {
            std::thread::sleep(Duration::from_millis(1));
            return;
        }
        let k = self.rng.below(8);
        let path = format!("/churn/x{k}");
        for stage in 0..4u64 {
            if !self.connected() {
                return;
            }
            self.tally.attempted += 1;
            if stage == 0 || stage == 3 {
                // Announce the membership change before sending it.
                self.shared.phase.fetch_add(1, Ordering::SeqCst);
            }
            let (r, sample) = self.timed("admin", |s| {
                let c = s.client.as_mut().expect("connected");
                match stage {
                    0 => c.remove_user("bob", "crowd"),
                    1 => c.set_perm(&path, "crowd", Perm::Read),
                    2 => c.remove_perm(&path, "crowd"),
                    _ => c.add_user("bob", "crowd"),
                }
            });
            match r {
                Ok(()) => {
                    self.tally.admins.push(sample);
                    if stage == 0 || stage == 3 {
                        self.shared.phase.fetch_add(1, Ordering::SeqCst);
                    }
                }
                Err(e) => {
                    // The membership state is unknown now: freeze it in
                    // a transitional phase, under which bob's reads are
                    // not judged, and stop churning.
                    self.op_error(&path, e);
                    self.shared.phase.store(1, Ordering::SeqCst);
                    self.halted = true;
                    return;
                }
            }
        }
    }

    fn op_error(&mut self, path: &str, e: SegShareError) {
        if matches!(e, SegShareError::Net(_) | SegShareError::Tls(_)) {
            self.client = None;
        }
        self.tally.fail(format!("{path}: {e}"));
    }
}
