//! The traced run's `ObjectStore` wrapper. It forwards **every** trait
//! method, because several defaults change behaviour: the default
//! `tx_begin`/`tx_seal` are no-ops, so a wrapper that relied on them
//! would silently turn off request batching on a WAL deployment.

use std::sync::Arc;

use seg_store::{CommitTicket, IoStats, ObjectStore, StoreError, WriteBatch};

use crate::trace::{Kind, Tracer};

pub struct TracedStore {
    inner: Arc<dyn ObjectStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    pub fn wrap(inner: Arc<dyn ObjectStore>, tracer: &Arc<Tracer>) -> Arc<dyn ObjectStore> {
        Arc::new(TracedStore {
            inner,
            tracer: Arc::clone(tracer),
        })
    }

    fn timed<R>(&self, method: &'static str, call: impl FnOnce(&dyn ObjectStore) -> R) -> R {
        let t0 = self.tracer.now_ns();
        let r = call(&*self.inner);
        self.tracer.record(Kind::Store(method), t0);
        r
    }
}

impl ObjectStore for TracedStore {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.timed("get", |s| s.get(key))
    }
    fn get_arc(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.timed("get_arc", |s| s.get_arc(key))
    }
    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.timed("put", |s| s.put(key, value))
    }
    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        self.timed("delete", |s| s.delete(key))
    }
    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        self.timed("exists", |s| s.exists(key))
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        self.timed("rename", |s| s.rename(from, to))
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.timed("list", |s| s.list())
    }
    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.timed("list_prefix", |s| s.list_prefix(prefix))
    }
    fn len(&self) -> Result<usize, StoreError> {
        self.timed("len", |s| s.len())
    }
    fn is_empty(&self) -> Result<bool, StoreError> {
        self.timed("is_empty", |s| s.is_empty())
    }
    fn total_bytes(&self) -> Result<u64, StoreError> {
        self.timed("total_bytes", |s| s.total_bytes())
    }
    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        self.timed("apply_batch", |s| s.apply_batch(batch))
    }
    fn submit_batch(&self, batch: WriteBatch) -> Result<CommitTicket, StoreError> {
        self.timed("submit_batch", |s| s.submit_batch(batch))
    }
    fn tx_begin(&self) {
        self.timed("tx_begin", |s| s.tx_begin());
    }
    fn tx_seal(&self) -> Result<Option<CommitTicket>, StoreError> {
        self.timed("tx_seal", |s| s.tx_seal())
    }
    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_fs::Perm;
    use seg_store::{WalConfig, WalStore};
    use segshare::{wal_views, EnclaveConfig, FsoSetup};

    /// Runs one fixed sequential script against a WAL deployment, the
    /// stores optionally wrapped, and returns the log's I/O counters.
    fn scripted_io(wrapped: bool) -> IoStats {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../.perfbench_tmp/wrap-{}-{}",
            std::process::id(),
            u8::from(wrapped)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(WalStore::open_with(&dir, WalConfig::default()).unwrap());
        let (mut c, mut g, mut d) = wal_views(&wal);
        let tracer = Arc::new(Tracer::new());
        tracer.set(true);
        if wrapped {
            c = TracedStore::wrap(c, &tracer);
            g = TracedStore::wrap(g, &tracer);
            d = TracedStore::wrap(d, &tracer);
        }
        let config = EnclaveConfig {
            cache: true,
            batch: true,
            ..EnclaveConfig::default()
        };
        let setup = FsoSetup::with_stores("ca", config, seg_sgx::Platform::new(), c, g, d);
        let server = setup.server().unwrap();
        let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
        let mut a = server.connect_local(&alice).unwrap();
        a.mkdir("/s").unwrap();
        for i in 0..8 {
            a.put(&format!("/s/f{i}"), &vec![i as u8; 3000 + i * 700])
                .unwrap();
        }
        for i in 0..8 {
            a.get(&format!("/s/f{i}")).unwrap();
        }
        a.add_user("bob", "team").unwrap();
        a.set_perm("/s/f1", "team", Perm::Read).unwrap();
        a.remove_perm("/s/f1", "team").unwrap();
        a.remove_user("bob", "team").unwrap();
        drop(a);
        let io = wal.io_stats();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        if wrapped {
            assert!(
                !tracer.take().is_empty(),
                "the wrapper recorded store spans"
            );
        }
        io
    }

    #[test]
    fn wrapper_keeps_wal_batching_identical() {
        let plain = scripted_io(false);
        let wrapped = scripted_io(true);
        assert!(plain.batches > 0 && plain.fsyncs > 0, "{plain:?}");
        assert_eq!(
            (plain.batches, plain.batch_ops, plain.fsyncs),
            (wrapped.batches, wrapped.batch_ops, wrapped.fsyncs)
        );
    }
}
