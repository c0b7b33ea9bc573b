//! In-memory object store.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockWriteGuard};

use crate::{BatchOp, ObjectStore, StoreError, WriteBatch};

/// Independent maps a key is spread over by hash. Shard `i` takes a
/// share of the keys proportional to 2^(i/SHARDS), so the shares span
/// exactly a factor of two: the shards' tables cross their resize
/// thresholds at different store sizes, and memory grows in sixteen
/// small steps per doubling instead of one step of 2× the whole table
/// (a single map briefly holds old and new tables, 3× its size, at
/// every resize). Readers of different shards never share a lock.
const SHARDS: usize = 16;

type Shard = HashMap<Key, Arc<[u8]>>;

/// Longest key kept inline.
const INLINE_KEY: usize = 30;

/// A key, held inline in the table slot when short. The audit trail
/// stores one ~60-byte record per request under a 27-byte name, so a
/// separate heap allocation per key would cost a large share of it.
enum Key {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Heap(Box<str>),
}

impl Key {
    fn new(key: &str) -> Key {
        if key.len() <= INLINE_KEY {
            let mut bytes = [0u8; INLINE_KEY];
            bytes[..key.len()].copy_from_slice(key.as_bytes());
            Key::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            Key::Heap(key.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Key::Heap(s) => s.as_bytes(),
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("keys are built from str")
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// Hash and equality are those of the key bytes, so the maps can be
// queried with `key.as_bytes()`.
impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

/// A thread-safe in-memory object store, the default substrate for tests
/// and benchmarks.
///
/// Bodies are held as `Arc<[u8]>` so reads ([`ObjectStore::get_arc`]) and
/// whole-store snapshots share buffers instead of deep-copying them.
/// Keys are spread over sixteen maps; operations that span keys
/// (batches, snapshots) lock every shard in index order, so they stay
/// atomic with respect to single-key readers.
#[derive(Debug, Default)]
pub struct MemStore {
    shards: [RwLock<Shard>; SHARDS],
}

/// Picks a key's shard: a word-at-a-time multiply-rotate hash with a
/// murmur3 finalizer, mapped through the inverse of the geometric share
/// distribution (see [`SHARDS`]). Each shard's map keeps its own
/// randomly keyed hasher, so this choice only affects balance.
fn shard_index(key: &str) -> usize {
    let mut h = key.len() as u64;
    for chunk in key.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    // u uniform in [0, 1); P(shard <= i) = 2^((i + 1) / SHARDS) - 1.
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    ((1.0 + u).log2() * SHARDS as f64).min((SHARDS - 1) as f64) as usize
}

impl MemStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        MemStore::default()
    }

    fn shard(&self, key: &str) -> &RwLock<Shard> {
        &self.shards[shard_index(key)]
    }

    /// Write-locks every shard in index order (the only multi-shard
    /// lock order, so it cannot deadlock).
    fn lock_all(&self) -> Vec<RwLockWriteGuard<'_, Shard>> {
        self.shards.iter().map(RwLock::write).collect()
    }

    /// Captures the entire store (used by whole-file-system rollback
    /// attacks in tests, §V-E). Bodies are shared by reference count, so
    /// this copies keys and pointers, not object contents.
    #[must_use]
    pub fn snapshot(&self) -> HashMap<String, Arc<[u8]>> {
        let guards: Vec<_> = self.shards.iter().map(RwLock::read).collect();
        guards
            .iter()
            .flat_map(|shard| shard.iter())
            .map(|(k, v)| (k.as_str().to_string(), Arc::clone(v)))
            .collect()
    }

    /// Replaces the entire contents with `snapshot`.
    pub fn restore(&self, snapshot: HashMap<String, Arc<[u8]>>) {
        let mut guards = self.lock_all();
        for shard in &mut guards {
            shard.clear();
        }
        for (k, v) in snapshot {
            guards[shard_index(&k)].insert(Key::new(&k), v);
        }
    }
}

/// Inserts or replaces; replacing reuses the stored key allocation.
fn put_into(shard: &mut Shard, key: &str, value: Arc<[u8]>) {
    match shard.get_mut(key.as_bytes()) {
        Some(slot) => *slot = value,
        None => {
            shard.insert(Key::new(key), value);
        }
    }
}

impl ObjectStore for MemStore {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self
            .shard(key)
            .read()
            .get(key.as_bytes())
            .map(|v| v.to_vec()))
    }

    fn get_arc(&self, key: &str) -> Result<Option<Arc<[u8]>>, StoreError> {
        Ok(self.shard(key).read().get(key.as_bytes()).map(Arc::clone))
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        put_into(&mut self.shard(key).write(), key, Arc::from(value));
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        Ok(self.shard(key).write().remove(key.as_bytes()).is_some())
    }

    fn exists(&self, key: &str) -> Result<bool, StoreError> {
        Ok(self.shard(key).read().contains_key(key.as_bytes()))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        let mut guards = self.lock_all();
        match guards[shard_index(from)].remove(from.as_bytes()) {
            Some(v) => {
                put_into(&mut guards[shard_index(to)], to, v);
                Ok(())
            }
            None => Err(StoreError::NotFound(from.to_string())),
        }
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut keys = Vec::new();
        for shard in &self.shards {
            keys.extend(shard.read().keys().map(|k| k.as_str().to_string()));
        }
        Ok(keys)
    }

    fn len(&self) -> Result<usize, StoreError> {
        Ok(self.shards.iter().map(|s| s.read().len()).sum())
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        Ok(self
            .shards
            .iter()
            .map(|s| s.read().values().map(|v| v.len() as u64).sum::<u64>())
            .sum())
    }

    fn apply_batch(&self, batch: &WriteBatch) -> Result<(), StoreError> {
        // Holding every shard's write lock makes the whole batch atomic
        // with respect to concurrent readers, matching WalStore's frame
        // semantics.
        let mut guards = self.lock_all();
        for op in &batch.ops {
            match op {
                BatchOp::Put { key, value } => {
                    put_into(
                        &mut guards[shard_index(key)],
                        key,
                        Arc::from(value.as_slice()),
                    );
                }
                BatchOp::Delete { key } => {
                    guards[shard_index(key)].remove(key.as_bytes());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let s = MemStore::new();
        assert_eq!(s.get("a").unwrap(), None);
        s.put("a", b"1").unwrap();
        assert_eq!(s.get("a").unwrap(), Some(b"1".to_vec()));
        assert!(s.exists("a").unwrap());
        assert!(s.delete("a").unwrap());
        assert!(!s.delete("a").unwrap());
        assert!(!s.exists("a").unwrap());
    }

    #[test]
    fn put_overwrites() {
        let s = MemStore::new();
        s.put("k", b"old").unwrap();
        s.put("k", b"new").unwrap();
        assert_eq!(s.get("k").unwrap(), Some(b"new".to_vec()));
        assert_eq!(s.len().unwrap(), 1);
    }

    #[test]
    fn rename_moves_value() {
        let s = MemStore::new();
        s.put("from", b"v").unwrap();
        s.rename("from", "to").unwrap();
        assert_eq!(s.get("from").unwrap(), None);
        assert_eq!(s.get("to").unwrap(), Some(b"v".to_vec()));
        assert_eq!(
            s.rename("missing", "x").unwrap_err(),
            StoreError::NotFound("missing".to_string())
        );
    }

    #[test]
    fn list_and_prefix() {
        let s = MemStore::new();
        s.put("content/a", b"").unwrap();
        s.put("content/b", b"").unwrap();
        s.put("group/g", b"").unwrap();
        let mut all = s.list().unwrap();
        all.sort();
        assert_eq!(all, vec!["content/a", "content/b", "group/g"]);
        let mut content = s.list_prefix("content/").unwrap();
        content.sort();
        assert_eq!(content, vec!["content/a", "content/b"]);
    }

    #[test]
    fn total_bytes_counts_values() {
        let s = MemStore::new();
        s.put("a", &[0u8; 10]).unwrap();
        s.put("b", &[0u8; 32]).unwrap();
        assert_eq!(s.total_bytes().unwrap(), 42);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let s = MemStore::new();
        s.put("a", b"1").unwrap();
        let snap = s.snapshot();
        s.put("a", b"2").unwrap();
        s.put("b", b"3").unwrap();
        s.restore(snap);
        assert_eq!(s.get("a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get("b").unwrap(), None);
    }

    #[test]
    fn get_arc_and_snapshot_share_bodies() {
        let s = MemStore::new();
        s.put("a", &[7u8; 64]).unwrap();
        let a1 = s.get_arc("a").unwrap().unwrap();
        let a2 = s.get_arc("a").unwrap().unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "reads share one buffer");
        let snap = s.snapshot();
        assert!(
            Arc::ptr_eq(&a1, snap.get("a").unwrap()),
            "snapshot shares bodies with the live store"
        );
        assert_eq!(&a1[..], &[7u8; 64]);
    }

    #[test]
    fn keys_spread_over_shards_and_batches_span_them() {
        let s = MemStore::new();
        let mut batch = WriteBatch::new();
        for i in 0..200 {
            batch.put(format!("k{i}"), vec![i as u8]);
        }
        s.apply_batch(&batch).unwrap();
        let sizes: Vec<usize> = s.shards.iter().map(|sh| sh.read().len()).collect();
        assert!(sizes.iter().all(|&n| n > 0), "every shard used: {sizes:?}");
        assert!(
            sizes.iter().all(|&n| n < 30),
            "no shard hoards keys: {sizes:?}"
        );
        assert_eq!(s.len().unwrap(), 200);
        for i in 0..200 {
            s.rename(&format!("k{i}"), &format!("r{i}")).unwrap();
        }
        assert_eq!(s.get("r7").unwrap(), Some(vec![7]));
        assert_eq!(s.get("k7").unwrap(), None);
        let mut del = WriteBatch::new();
        for i in 0..200 {
            del.delete(format!("r{i}"));
        }
        s.apply_batch(&del).unwrap();
        assert!(s.is_empty().unwrap());
    }

    #[test]
    fn short_and_long_keys_roundtrip() {
        let s = MemStore::new();
        let long = "x".repeat(INLINE_KEY + 1);
        let edge = "y".repeat(INLINE_KEY);
        for key in ["", "a", edge.as_str(), long.as_str()] {
            s.put(key, key.as_bytes()).unwrap();
        }
        for key in ["", "a", edge.as_str(), long.as_str()] {
            assert_eq!(s.get(key).unwrap().unwrap(), key.as_bytes());
        }
        let mut keys = s.list().unwrap();
        keys.sort();
        assert_eq!(keys, vec!["", "a", &long, &edge]);
        assert!(s.snapshot().contains_key(&long));
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let s = Arc::new(MemStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    s.put(&format!("t{t}/k{i}"), &[t as u8; 16]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len().unwrap(), 800);
    }
}
