//! The trusted file manager's persistence layer.
//!
//! Every logical object (content file, directory file, ACL, group list,
//! member list, dedup blob) is stored in the untrusted object store as a
//! Protected-FS blob (4 KiB nodes, per-node AES-GCM, per-file tag tree —
//! [`seg_sgx::pfs`]) under a per-object key derived from `SK_r`. All
//! actual store accesses go through the enclave boundary as ocalls, so
//! the switchless-call cost model sees them (§II-A/§VI).
//!
//! # Rollback protection (§V-D)
//!
//! With `rollback_individual` enabled, each object additionally has an
//! encrypted *hash record* holding its tree node hash: an incremental
//! multiset hash over its path and the object's PFS header (the header
//! authenticates the whole blob through the tag tree, so binding it
//! pins the exact stored version without rehashing file contents).
//! Directory nodes also hold *bucket hashes*: children are assigned to
//! buckets by path hash, each bucket accumulating its children's node
//! hashes, and the node hash folds the buckets in. The two §V-D
//! optimizations fall out:
//!
//! * **updates** touch one hash record per ancestor — the multiset
//!   `replace` subtracts the stale child hash and adds the new one
//!   *without reading any sibling*;
//! * **leaf validation** recomputes one bucket per level, reading only
//!   the hash records of the (few) same-bucket siblings.
//!
//! The root node's hash record anchors the store; with
//! `rollback_whole_fs` (§V-E) it also carries the value of a TEE
//! monotonic counter, incremented on every update, so rolling back the
//! entire store (root included) is detected on the next read.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use seg_crypto::mset::{MsetHash, MSET_HASH_LEN};
use seg_crypto::pae::{pae_dec, pae_enc};
use seg_crypto::rng::SystemRng;
use seg_crypto::sha256::Sha256;
use seg_fs::codec::{Decoder, Encoder};
use seg_fs::{DirFile, UserId};
use seg_sgx::pfs::{pfs_decrypt, pfs_encrypt, PfsFile, NODE_LEN};
use seg_sgx::Enclave;
use seg_store::ObjectStore;

use crate::config::EnclaveConfig;
use crate::error::SegShareError;

use super::keys::KeyHierarchy;
use super::names::{ObjectId, StoreKind};

/// Monotonic-counter ids per store (whole-FS rollback protection).
fn counter_id(store: StoreKind) -> u64 {
    match store {
        StoreKind::Content => 1,
        StoreKind::Group => 2,
        StoreKind::Dedup => 3,
    }
}

/// The group store's root file: the list of users with member-list
/// files ("a root directory file stores a list of all contained files",
/// §IV-B).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroupRootFile {
    users: BTreeSet<UserId>,
}

impl GroupRootFile {
    /// An empty root file.
    #[must_use]
    pub fn new() -> GroupRootFile {
        GroupRootFile::default()
    }

    /// Registers a user's member-list file; returns whether it was new.
    pub fn add_user(&mut self, user: UserId) -> bool {
        self.users.insert(user)
    }

    /// Whether `user` has a member-list file.
    #[must_use]
    pub fn contains(&self, user: &UserId) -> bool {
        self.users.contains(user)
    }

    /// Iterates over registered users.
    pub fn users(&self) -> impl Iterator<Item = &UserId> {
        self.users.iter()
    }

    /// Serializes the root file.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(b"GRT1");
        e.u32(self.users.len() as u32);
        for u in &self.users {
            e.str(u.as_str());
        }
        e.finish()
    }

    /// Parses a [`GroupRootFile::encode`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`seg_fs::FsError`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<GroupRootFile, seg_fs::FsError> {
        let mut d = Decoder::new(data);
        d.tag(b"GRT1")?;
        let count = d.u32()?;
        let mut users = BTreeSet::new();
        for _ in 0..count {
            users.insert(UserId::new(d.str()?)?);
        }
        d.finish()?;
        Ok(GroupRootFile { users })
    }
}

/// One object's rollback-tree hash record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRecord {
    /// The node's main hash.
    pub main: MsetHash,
    /// Bucket hashes (inner nodes only).
    pub buckets: Vec<MsetHash>,
    /// Monotonic-counter value (tree roots with whole-FS protection).
    pub counter: u64,
}

impl HashRecord {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(b"HRC1");
        e.raw(&self.main.to_bytes());
        e.u64(self.counter);
        e.u32(self.buckets.len() as u32);
        for b in &self.buckets {
            e.raw(&b.to_bytes());
        }
        e.finish()
    }

    fn decode(data: &[u8]) -> Result<HashRecord, SegShareError> {
        let mut d = Decoder::new(data);
        d.tag(b"HRC1")?;
        let main_bytes: [u8; MSET_HASH_LEN] =
            d.raw(MSET_HASH_LEN)?.try_into().expect("fixed length");
        let counter = d.u64()?;
        let count = d.u32()?;
        let mut buckets = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let b: [u8; MSET_HASH_LEN] = d.raw(MSET_HASH_LEN)?.try_into().expect("fixed length");
            buckets.push(MsetHash::from_bytes(&b));
        }
        d.finish()?;
        Ok(HashRecord {
            main: MsetHash::from_bytes(&main_bytes),
            buckets,
            counter,
        })
    }
}

/// How an update changes a node's hash in its parent's bucket.
enum TreeChange {
    Insert { new: MsetHash },
    Replace { old: MsetHash, new: MsetHash },
    Remove { old: MsetHash },
}

// ------------------------------------------------------ object cache

/// Content bodies above this size never enter the cache: large files
/// stream chunk-at-a-time and must not pin whole plaintexts in EPC.
const HOT_BODY_MAX: usize = 64 * 1024;

/// Namespaced cache key: one logical object may be cached in more than
/// one representation, and each is invalidated independently.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    /// Verified, decrypted object body ([`TrustedStore::read`]).
    Body(ObjectId),
    /// Decoded in-enclave object ([`TrustedStore::read_decoded`]).
    Decoded(ObjectId),
    /// Rollback-tree hash record.
    Record(ObjectId),
}

#[derive(Clone)]
pub(crate) enum CachedValue {
    Body(Arc<[u8]>),
    Decoded(Arc<dyn std::any::Any + Send + Sync>),
    Record(Arc<HashRecord>),
}

type MetaCache = seg_cache::ObjectCache<CacheKey, CachedValue>;

/// The encrypted persistence layer shared by the access-control and
/// file-manager components.
pub struct TrustedStore {
    keys: KeyHierarchy,
    config: EnclaveConfig,
    sgx: Arc<Enclave>,
    content: Arc<dyn ObjectStore>,
    group: Arc<dyn ObjectStore>,
    dedup: Arc<dyn ObjectStore>,
    obs: Arc<seg_obs::Registry>,
    /// In-enclave cache of verified plaintext (decoded metadata, hash
    /// records, small hot content bodies), charged against the EPC
    /// tracker. `None` means byte-identical behavior to a build
    /// without the cache.
    cache: Option<MetaCache>,
    /// Per-store rollback-tree locks. A commit/delete rewrites shared
    /// ancestor hash records (and, with whole-FS protection, the root
    /// counter) in several non-atomic steps; a concurrent verifier
    /// observing the half-applied walk would report a false rollback.
    /// Mutators hold the store's tree lock exclusively for that short
    /// record-update section, verified reads hold it shared — so reads
    /// scale, and per-object dispatch locks stay correct without
    /// knowing tree internals. Never held across stores (except
    /// `rebuild_tree`, which takes content before group), never nested.
    content_tree: RwLock<()>,
    group_tree: RwLock<()>,
    /// Deferred monotonic-counter increments (batch mode, §V-E): maps a
    /// counter id to the value its root hash record already names. The
    /// hardware increment happens at the group-commit durability point
    /// ([`TrustedStore::commit_pending_counters`]), so a crash before
    /// the batch is durable leaves hardware matching the old on-disk
    /// state, and a crash after leaves a record exactly one ahead —
    /// adopted once at the next launch. The dispatch layer's commit
    /// serialization keeps the record-vs-hardware gap at most one.
    pending_counters: Mutex<HashMap<u64, u64>>,
    /// Serializes read-modify-write cycles on the dedup refcount index.
    dedup_index: Mutex<()>,
    // Cached telemetry handles (hot path: one atomic add per record).
    pfs_encrypt_ns: Arc<seg_obs::Histogram>,
    pfs_decrypt_ns: Arc<seg_obs::Histogram>,
    tree_update_ns: Arc<seg_obs::Histogram>,
    tree_verify_ns: Arc<seg_obs::Histogram>,
    cache_hit_ns: Arc<seg_obs::Histogram>,
}

impl std::fmt::Debug for TrustedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedStore")
            .field("config", &self.config)
            .finish()
    }
}

impl TrustedStore {
    /// Assembles the layer.
    pub(crate) fn new(
        keys: KeyHierarchy,
        config: EnclaveConfig,
        sgx: Arc<Enclave>,
        content: Arc<dyn ObjectStore>,
        group: Arc<dyn ObjectStore>,
        dedup: Arc<dyn ObjectStore>,
        obs: Arc<seg_obs::Registry>,
    ) -> TrustedStore {
        let cache = config
            .cache
            .then(|| MetaCache::new(seg_cache::CacheConfig::default(), sgx.epc().clone()));
        TrustedStore {
            keys,
            config,
            sgx,
            content,
            group,
            dedup,
            cache,
            content_tree: RwLock::new(()),
            group_tree: RwLock::new(()),
            pending_counters: Mutex::new(HashMap::new()),
            dedup_index: Mutex::new(()),
            pfs_encrypt_ns: obs.histogram("seg_pfs_encrypt_ns"),
            pfs_decrypt_ns: obs.histogram("seg_pfs_decrypt_ns"),
            tree_update_ns: obs.histogram("seg_rollback_tree_update_ns"),
            tree_verify_ns: obs.histogram("seg_rollback_tree_verify_ns"),
            cache_hit_ns: obs.histogram("seg_cache_hit_ns"),
            obs,
        }
    }

    // ------------------------------------------------------ object cache

    /// Cache counters, or `None` when the cache is disabled.
    #[must_use]
    pub fn cache_stats(&self) -> Option<seg_cache::CacheStats> {
        self.cache.as_ref().map(MetaCache::stats)
    }

    /// Lifetime cache (hits, misses) without taking shard locks; zero
    /// when the cache is disabled.
    pub(crate) fn cache_hits_misses(&self) -> (u64, u64) {
        self.cache.as_ref().map_or((0, 0), MetaCache::hits_misses)
    }

    /// Looks `key` up in the cache, recording the hit-path latency.
    fn cache_lookup(&self, key: &CacheKey) -> Option<CachedValue> {
        let cache = self.cache.as_ref()?;
        let start = std::time::Instant::now();
        let hit = {
            let _prof = seg_obs::prof::phase("cache_lookup");
            cache.get(key)
        };
        if hit.is_some() {
            self.cache_hit_ns.record_duration(start.elapsed());
        }
        hit
    }

    /// Snapshots `key`'s generation *before* the store read backing a
    /// miss-fill; [`TrustedStore::cache_fill`] discards the fill if a
    /// mutation bumped the generation in between.
    fn cache_gen(&self, key: &CacheKey) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.generation(key))
    }

    fn cache_fill(&self, key: CacheKey, gen: u64, value: CachedValue, bytes: usize) {
        if let Some(cache) = &self.cache {
            cache.insert_if_current(key, gen, value, bytes as u64);
        }
    }

    /// Write-through invalidation: drops every cached representation of
    /// `id`'s body. Must run *before* the mutation's store write lands
    /// so that no concurrent miss-fill can publish the old value.
    fn cache_invalidate_object(&self, id: &ObjectId) {
        if let Some(cache) = &self.cache {
            cache.invalidate(&CacheKey::Body(id.clone()));
            cache.invalidate(&CacheKey::Decoded(id.clone()));
        }
    }

    fn cache_invalidate_record(&self, id: &ObjectId) {
        if let Some(cache) = &self.cache {
            cache.invalidate(&CacheKey::Record(id.clone()));
        }
    }

    /// Whether a verified body of `id` may be retained in the cache.
    fn body_cacheable(&self, id: &ObjectId, len: usize) -> bool {
        match id {
            // Content bodies only within the small hot-object budget.
            ObjectId::FileData(_) => len <= HOT_BODY_MAX,
            // Dedup blobs are content-addressed bulk data; never cached.
            ObjectId::DedupBlob(_) => false,
            // Metadata (dirfiles, ACLs, group/member lists) always.
            _ => true,
        }
    }

    /// Serves `id`'s verified body straight from the cache, without any
    /// store access. `None` on miss (or with the cache disabled) — the
    /// caller falls back to the verified store path.
    pub(crate) fn cached_body(&self, id: &ObjectId) -> Option<Arc<[u8]>> {
        match self.cache_lookup(&CacheKey::Body(id.clone())) {
            Some(CachedValue::Body(body)) => Some(body),
            _ => None,
        }
    }

    /// The key hierarchy (for dedup-name computation upstream).
    #[must_use]
    pub fn keys(&self) -> &KeyHierarchy {
        &self.keys
    }

    /// The telemetry registry this layer reports into.
    pub(crate) fn obs(&self) -> &Arc<seg_obs::Registry> {
        &self.obs
    }

    /// Emits one store-I/O event into the trace ring (if attached),
    /// correlated to the dispatching request via the thread-local
    /// request id. Objects appear as keyed fingerprints only.
    fn trace_store(&self, op: &'static str, id: &ObjectId, ok: bool, start: std::time::Instant) {
        if let Some(ring) = self.obs.trace() {
            ring.emit(
                seg_obs::current_request_id(),
                op,
                0,
                self.keys.fingerprint("object", id.canonical().as_bytes()),
                if ok {
                    seg_obs::TraceDecision::Event
                } else {
                    seg_obs::TraceDecision::Error
                },
                if ok { "ok" } else { "err" },
                start.elapsed().as_micros().min(u64::MAX as u128) as u64,
            );
        }
    }

    /// The enclave configuration.
    #[must_use]
    pub fn config(&self) -> &EnclaveConfig {
        &self.config
    }

    fn store_for(&self, kind: StoreKind) -> &Arc<dyn ObjectStore> {
        match kind {
            StoreKind::Content => &self.content,
            StoreKind::Group => &self.group,
            StoreKind::Dedup => &self.dedup,
        }
    }

    // ------------------------------------------------------- tree locks

    fn tree_lock_for(&self, id: &ObjectId) -> Option<&RwLock<()>> {
        if !self.tree_enabled_for(id) {
            return None;
        }
        match id.store() {
            StoreKind::Content => Some(&self.content_tree),
            StoreKind::Group => Some(&self.group_tree),
            StoreKind::Dedup => None,
        }
    }

    /// Shared tree hold for a verified read of `id`; `None` (no lock)
    /// when the rollback tree does not cover `id`.
    fn tree_shared(&self, id: &ObjectId) -> Option<std::sync::RwLockReadGuard<'_, ()>> {
        self.tree_lock_for(id).map(RwLock::read)
    }

    /// Exclusive tree hold for a mutation of `id`; `None` when the
    /// rollback tree does not cover `id` (a bare `raw_put`/`raw_delete`
    /// is already atomic at the store layer).
    fn tree_exclusive(&self, id: &ObjectId) -> Option<std::sync::RwLockWriteGuard<'_, ()>> {
        self.tree_lock_for(id).map(RwLock::write)
    }

    /// The per-object AEAD key (dedup blobs use content-derived keys).
    fn data_key(&self, id: &ObjectId) -> [u8; 16] {
        match id {
            ObjectId::DedupBlob(name) => self.keys.dedup_blob_key(name),
            other => self.keys.file_key(other),
        }
    }

    // -------------------------------------------------- raw (ocall) io

    fn raw_get(&self, id: &ObjectId) -> Result<Option<Vec<u8>>, SegShareError> {
        let key = self.keys.storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        Ok(self.sgx.boundary().ocall(|| store.get(&key))?)
    }

    fn raw_put(&self, id: &ObjectId, blob: &[u8]) -> Result<(), SegShareError> {
        let key = self.keys.storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        Ok(self.sgx.boundary().ocall(|| store.put(&key, blob))?)
    }

    fn raw_delete(&self, id: &ObjectId) -> Result<bool, SegShareError> {
        let key = self.keys.storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        Ok(self.sgx.boundary().ocall(|| store.delete(&key))?)
    }

    /// Whether an object exists (Table IV `exists_f` / `exists_g`
    /// support).
    pub fn exists(&self, id: &ObjectId) -> Result<bool, SegShareError> {
        let key = self.keys.storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        Ok(self.sgx.boundary().ocall(|| store.exists(&key))?)
    }

    // -------------------------------------------------------- scrubbing

    /// A fully verified read that **bypasses the cache** on both lookup
    /// and fill — the integrity scrubber's read path. A cached body
    /// would mask store-side tampering exactly where the scrubber must
    /// detect it, so this always walks raw-get → rollback-tree verify →
    /// PFS decrypt.
    pub(crate) fn scrub_read(&self, id: &ObjectId) -> Result<Option<Vec<u8>>, SegShareError> {
        let _tree = self.tree_shared(id);
        self.read_verified(id)
    }

    /// Appends the untrusted-store keys `id` legitimately occupies (the
    /// body key, plus the hash-record key when the rollback tree covers
    /// it) — the expected-key side of the scrubber's orphan scan.
    pub(crate) fn expected_keys(&self, id: &ObjectId, out: &mut Vec<(StoreKind, String)>) {
        out.push((
            id.store(),
            self.keys.storage_key(id, self.config.hide_names),
        ));
        if self.tree_enabled_for(id) {
            out.push((
                id.store(),
                self.keys
                    .hash_record_storage_key(id, self.config.hide_names),
            ));
        }
    }

    /// Lists every key currently in one backing store (one ocall) —
    /// the observed-key side of the orphan scan.
    pub(crate) fn list_store(&self, kind: StoreKind) -> Result<Vec<String>, SegShareError> {
        let store = self.store_for(kind);
        Ok(self.sgx.boundary().ocall(|| store.list())?)
    }

    /// Samples up to `max` cache-resident content bodies and re-derives
    /// each from the backing store through the full verified path: the
    /// cache-generation coherence probe. A divergence with an unchanged
    /// generation means either the store was tampered under a live
    /// cache entry or the write-through invalidation protocol was
    /// violated — both scrub findings. Probes that race a legitimate
    /// writer (generation moved) are discarded, not reported.
    ///
    /// Returns `(bodies probed, ids that failed coherence)`; empty when
    /// the cache is disabled.
    pub(crate) fn scrub_cache_probe(&self, max: usize) -> (u64, Vec<ObjectId>) {
        let Some(cache) = &self.cache else {
            return (0, Vec::new());
        };
        let mut probed = 0u64;
        let mut mismatched = Vec::new();
        for key in cache.sample_keys(max) {
            let CacheKey::Body(id) = key else {
                continue;
            };
            let cache_key = CacheKey::Body(id.clone());
            let gen_before = cache.generation(&cache_key);
            let Some(CachedValue::Body(cached)) = cache.get(&cache_key) else {
                continue;
            };
            probed += 1;
            let fresh = self.scrub_read(&id);
            if cache.generation(&cache_key) != gen_before {
                continue;
            }
            match fresh {
                Ok(Some(body)) if body.as_slice() == &cached[..] => {}
                _ => mismatched.push(id),
            }
        }
        (probed, mismatched)
    }

    // ------------------------------------------------------ hash records

    fn read_hash_record(&self, id: &ObjectId) -> Result<Option<HashRecord>, SegShareError> {
        let cache_key = CacheKey::Record(id.clone());
        if let Some(CachedValue::Record(rec)) = self.cache_lookup(&cache_key) {
            // Cached records are the latest authentic values this
            // enclave wrote; an externally rolled-back store blob then
            // *mismatches* them, so caching records can only improve
            // detection, never mask a rollback.
            return Ok(Some((*rec).clone()));
        }
        let gen = self.cache_gen(&cache_key);
        let key = self
            .keys
            .hash_record_storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        let Some(blob) = self.sgx.boundary().ocall(|| store.get(&key))? else {
            return Ok(None);
        };
        let pae_key = self.keys.hash_record_key(id);
        let body = pae_dec(&pae_key, &blob, id.canonical().as_bytes())
            .map_err(|_| integrity(id, "hash record authentication failed"))?;
        let rec = HashRecord::decode(&body)?;
        self.cache_fill(
            cache_key,
            gen,
            CachedValue::Record(Arc::new(rec.clone())),
            body.len(),
        );
        Ok(Some(rec))
    }

    fn write_hash_record(&self, id: &ObjectId, rec: &HashRecord) -> Result<(), SegShareError> {
        self.cache_invalidate_record(id);
        let key = self
            .keys
            .hash_record_storage_key(id, self.config.hide_names);
        let pae_key = self.keys.hash_record_key(id);
        let blob = pae_enc(
            &pae_key,
            &rec.encode(),
            id.canonical().as_bytes(),
            &mut SystemRng::new(),
        );
        let store = self.store_for(id.store());
        self.sgx.boundary().ocall(|| store.put(&key, &blob))?;
        // Second bump — same fill-vs-landing race as `commit_blob`.
        self.cache_invalidate_record(id);
        Ok(())
    }

    fn delete_hash_record(&self, id: &ObjectId) -> Result<(), SegShareError> {
        self.cache_invalidate_record(id);
        let key = self
            .keys
            .hash_record_storage_key(id, self.config.hide_names);
        let store = self.store_for(id.store());
        self.sgx.boundary().ocall(|| store.delete(&key))?;
        self.cache_invalidate_record(id);
        Ok(())
    }

    // ---------------------------------------------------- tree hashing

    fn tree_enabled_for(&self, id: &ObjectId) -> bool {
        // Dedup blobs are content-addressed (name = HMAC(SK_r, content),
        // key derived from the name), so a "rolled back" blob that still
        // decrypts necessarily has the same content — they need no tree.
        self.config.rollback_individual && id.store() != StoreKind::Dedup
    }

    fn bucket_count(&self) -> usize {
        self.config.rollback_buckets as usize
    }

    fn bucket_index(&self, id: &ObjectId) -> usize {
        let digest = Sha256::digest(id.canonical().as_bytes());
        let v = u16::from_le_bytes([digest[0], digest[1]]) as usize;
        v % self.bucket_count()
    }

    fn elem_path(id: &ObjectId) -> Vec<u8> {
        let mut e = b"path:".to_vec();
        e.extend_from_slice(id.canonical().as_bytes());
        e
    }

    fn elem_head(header: &[u8]) -> Vec<u8> {
        let mut e = b"head:".to_vec();
        e.extend_from_slice(header);
        e
    }

    fn elem_bucket(index: usize, bucket: &MsetHash) -> Vec<u8> {
        let mut e = b"bucket:".to_vec();
        e.extend_from_slice(&(index as u32).to_le_bytes());
        e.extend_from_slice(&bucket.to_bytes());
        e
    }

    fn elem_child(id: &ObjectId, main: &MsetHash) -> Vec<u8> {
        let mut e = b"child:".to_vec();
        e.extend_from_slice(id.canonical().as_bytes());
        e.push(0);
        e.extend_from_slice(&main.to_bytes());
        e
    }

    /// Computes a node's main hash from its PFS header and buckets.
    fn node_main(&self, id: &ObjectId, header: &[u8], buckets: &[MsetHash]) -> MsetHash {
        let key = self.keys.mset_key(id.store());
        let mut main = MsetHash::empty();
        main.add(&key, &Self::elem_path(id));
        main.add(&key, &Self::elem_head(header));
        for (i, b) in buckets.iter().enumerate() {
            main.add(&key, &Self::elem_bucket(i, b));
        }
        main
    }

    /// Walks ancestors applying an incremental child-hash change —
    /// O(depth) hash-record updates, no sibling reads (§V-D).
    fn apply_tree_change(&self, id: &ObjectId, change: TreeChange) -> Result<(), SegShareError> {
        let _prof = seg_obs::prof::phase("rollback_tree");
        let start = std::time::Instant::now();
        let result = self.apply_tree_change_inner(id, change);
        self.tree_update_ns.record_duration(start.elapsed());
        result
    }

    fn apply_tree_change_inner(
        &self,
        id: &ObjectId,
        change: TreeChange,
    ) -> Result<(), SegShareError> {
        let mut cur = id.clone();
        let mut cur_change = change;
        while let Some(parent) = cur.tree_parent() {
            let mut rec = self
                .read_hash_record(&parent)?
                .ok_or_else(|| integrity(&parent, "missing ancestor hash record"))?;
            let key = self.keys.mset_key(parent.store());
            let b = self.bucket_index(&cur);
            if rec.buckets.len() != self.bucket_count() {
                return Err(integrity(&parent, "bucket count mismatch"));
            }
            let old_bucket = rec.buckets[b];
            match &cur_change {
                TreeChange::Insert { new } => {
                    rec.buckets[b].add(&key, &Self::elem_child(&cur, new));
                }
                TreeChange::Replace { old, new } => {
                    rec.buckets[b].remove(&key, &Self::elem_child(&cur, old));
                    rec.buckets[b].add(&key, &Self::elem_child(&cur, new));
                }
                TreeChange::Remove { old } => {
                    rec.buckets[b].remove(&key, &Self::elem_child(&cur, old));
                }
            }
            let old_main = rec.main;
            rec.main.replace(
                &key,
                &Self::elem_bucket(b, &old_bucket),
                &Self::elem_bucket(b, &rec.buckets[b]),
            );
            self.write_hash_record(&parent, &rec)?;
            cur_change = TreeChange::Replace {
                old: old_main,
                new: rec.main,
            };
            cur = parent;
        }
        // `cur` is now the store's tree root.
        if self.config.rollback_whole_fs {
            self.bump_root_counter(&cur)?;
        }
        Ok(())
    }

    /// Increments the store's monotonic counter and records the value in
    /// the root hash record (§V-E).
    ///
    /// In batch mode the record names the post-commit value (`hw + 1`)
    /// but the hardware increment is *deferred* to
    /// [`TrustedStore::commit_pending_counters`], run once the batch is
    /// durable — so the counter can never run ahead of what the store
    /// actually holds across a crash.
    fn bump_root_counter(&self, root: &ObjectId) -> Result<(), SegShareError> {
        let ctr = self.sgx.counter(counter_id(root.store()));
        let value = if self.config.batch {
            let cid = counter_id(root.store());
            let mut pending = self.pending_counters.lock();
            let target = pending.get(&cid).copied().unwrap_or_else(|| ctr.read() + 1);
            pending.insert(cid, target);
            target
        } else {
            let value = ctr.increment()?;
            // Real counter increments cost tens of milliseconds; charge it.
            self.sgx.boundary().charge(ctr.increment_latency_ns());
            value
        };
        let mut rec = self
            .read_hash_record(root)?
            .ok_or_else(|| integrity(root, "missing root hash record"))?;
        rec.counter = value;
        self.write_hash_record(root, &rec)
    }

    /// Performs the deferred monotonic-counter increments registered by
    /// batch-mode [`bump_root_counter`](Self::bump_root_counter) calls.
    /// Runs at the durability point, *after* the group commit's fsync
    /// acknowledged the batch. Each counter is incremented to its
    /// target before its map entry is removed, so a concurrent verifier
    /// always sees either the pending target or matching hardware.
    pub(crate) fn commit_pending_counters(&self) -> Result<(), SegShareError> {
        loop {
            let entry = self
                .pending_counters
                .lock()
                .iter()
                .next()
                .map(|(k, v)| (*k, *v));
            let Some((cid, target)) = entry else {
                return Ok(());
            };
            let ctr = self.sgx.counter(cid);
            while ctr.read() < target {
                ctr.increment()?;
                self.sgx.boundary().charge(ctr.increment_latency_ns());
            }
            self.pending_counters.lock().remove(&cid);
        }
    }

    /// Whether `value` is a registered pending target for `cid` — the
    /// one-ahead window a batch-mode root record legitimately occupies
    /// between its write and the post-durability increment.
    fn counter_pending(&self, cid: u64, value: u64) -> bool {
        self.config.batch && self.pending_counters.lock().get(&cid) == Some(&value)
    }

    /// Launch-time adoption of a root record whose deferred increment
    /// was lost to a crash: the record naming exactly `hw + 1` is the
    /// batch the previous process made durable but never acknowledged
    /// with an increment, so the counter catches up by one. Any larger
    /// gap stays — and reads then fail §V-E verification, exactly as a
    /// rollback must. Mirrors the audit trail's orphan adoption.
    pub(crate) fn adopt_root_counters(&self) -> Result<(), SegShareError> {
        if !(self.config.batch && self.config.rollback_whole_fs) {
            return Ok(());
        }
        for root in [
            ObjectId::DirData(seg_fs::SegPath::root()),
            ObjectId::GroupRoot,
        ] {
            let Some(rec) = self.read_hash_record(&root)? else {
                continue;
            };
            let ctr = self.sgx.counter(counter_id(root.store()));
            if rec.counter == ctr.read() + 1 {
                ctr.increment()?;
                self.sgx.boundary().charge(ctr.increment_latency_ns());
            }
        }
        Ok(())
    }

    /// Enumerates a directory node's tree children from its decoded body.
    fn tree_children(
        &self,
        parent: &ObjectId,
        parent_body: &[u8],
    ) -> Result<Vec<ObjectId>, SegShareError> {
        match parent {
            ObjectId::DirData(dir) => {
                let df = DirFile::decode(parent_body)?;
                let mut children = Vec::with_capacity(2 * df.len() + 1);
                for (name, kind) in df.children() {
                    let child_path = df.child_path(name, kind)?;
                    children.push(match kind {
                        seg_fs::ChildKind::Directory => ObjectId::DirData(child_path.clone()),
                        seg_fs::ChildKind::File => ObjectId::FileData(child_path.clone()),
                    });
                    children.push(ObjectId::Acl(child_path));
                }
                if dir.is_root() {
                    children.push(ObjectId::Acl(seg_fs::SegPath::root()));
                }
                Ok(children)
            }
            ObjectId::GroupRoot => {
                let root = GroupRootFile::decode(parent_body)?;
                let mut children = vec![ObjectId::GroupList];
                for user in root.users() {
                    children.push(ObjectId::MemberList(user.clone()));
                }
                Ok(children)
            }
            other => Err(integrity(other, "node cannot have children")),
        }
    }

    /// Full §V-D validation of `id` (whose PFS header is `header`):
    /// check its own hash record, then one bucket per ancestor level,
    /// then the root counter.
    fn verify_tree(&self, id: &ObjectId, header: &[u8]) -> Result<(), SegShareError> {
        let _prof = seg_obs::prof::phase("rollback_tree");
        let start = std::time::Instant::now();
        let result = self.verify_tree_inner(id, header);
        self.tree_verify_ns.record_duration(start.elapsed());
        result
    }

    fn verify_tree_inner(&self, id: &ObjectId, header: &[u8]) -> Result<(), SegShareError> {
        let rec = self
            .read_hash_record(id)?
            .ok_or_else(|| integrity(id, "missing hash record (rollback or tamper)"))?;
        let expected = self.node_main(id, header, &rec.buckets);
        if expected != rec.main {
            return Err(integrity(id, "node hash mismatch (rollback or tamper)"));
        }

        let mut cur = id.clone();
        let mut cur_main = rec.main;
        let mut root = cur.clone();
        while let Some(parent) = cur.tree_parent() {
            let parent_blob = self
                .raw_get(&parent)?
                .ok_or_else(|| integrity(&parent, "missing ancestor"))?;
            if parent_blob.len() < NODE_LEN {
                return Err(integrity(&parent, "truncated ancestor blob"));
            }
            let parent_rec = self
                .read_hash_record(&parent)?
                .ok_or_else(|| integrity(&parent, "missing ancestor hash record"))?;
            let parent_expect =
                self.node_main(&parent, &parent_blob[..NODE_LEN], &parent_rec.buckets);
            if parent_expect != parent_rec.main {
                return Err(integrity(&parent, "ancestor hash mismatch"));
            }
            // Recompute the single bucket containing `cur` from the
            // same-bucket siblings' hash records.
            let parent_body = pfs_decrypt(&self.data_key(&parent), &parent_blob)?;
            let children = self.tree_children(&parent, &parent_body)?;
            let b = self.bucket_index(&cur);
            let key = self.keys.mset_key(parent.store());
            let mut recomputed = MsetHash::empty();
            let mut cur_listed = false;
            for child in children {
                if self.bucket_index(&child) != b {
                    continue;
                }
                let child_main = if child == cur {
                    cur_listed = true;
                    cur_main
                } else {
                    self.read_hash_record(&child)?
                        .ok_or_else(|| integrity(&child, "missing sibling hash record"))?
                        .main
                };
                recomputed.add(&key, &Self::elem_child(&child, &child_main));
            }
            if !cur_listed {
                return Err(integrity(&cur, "not listed in parent (rollback or tamper)"));
            }
            if recomputed != parent_rec.buckets[b] {
                return Err(integrity(
                    &parent,
                    "bucket hash mismatch (rollback or tamper)",
                ));
            }
            cur_main = parent_rec.main;
            cur = parent;
            root = cur.clone();
        }
        if self.config.rollback_whole_fs {
            let rec = self
                .read_hash_record(&root)?
                .ok_or_else(|| integrity(&root, "missing root hash record"))?;
            let cid = counter_id(root.store());
            let hw = self.sgx.counter(cid).read();
            // A record exactly one ahead is legitimate while its batch's
            // deferred increment is pending (batch mode only).
            if rec.counter != hw && !self.counter_pending(cid, rec.counter) {
                return Err(integrity(
                    &root,
                    "monotonic counter mismatch (whole file system rollback)",
                ));
            }
        }
        Ok(())
    }

    // --------------------------------------------------------- object io

    /// Writes an object body (non-streaming path).
    ///
    /// # Errors
    ///
    /// Propagates storage, crypto, and tree failures.
    pub fn write(&self, id: &ObjectId, body: &[u8]) -> Result<(), SegShareError> {
        let start = std::time::Instant::now();
        let blob = pfs_encrypt(&self.data_key(id), body, &mut SystemRng::new())?;
        self.pfs_encrypt_ns.record_duration(start.elapsed());
        self.commit_blob(id, &blob)
    }

    /// Commits an already-encrypted PFS blob (the streaming upload path
    /// finishes here).
    ///
    /// # Errors
    ///
    /// Propagates storage, crypto, and tree failures.
    pub fn commit_blob(&self, id: &ObjectId, blob: &[u8]) -> Result<(), SegShareError> {
        let start = std::time::Instant::now();
        let _tree = self.tree_exclusive(id);
        let result = self.commit_blob_inner(id, blob);
        // Second bump: a miss-fill that snapshotted its generation after
        // the pre-write bump but read the store before the put landed
        // would otherwise survive with the old body.
        self.cache_invalidate_object(id);
        self.trace_store("store_write", id, result.is_ok(), start);
        result
    }

    fn commit_blob_inner(&self, id: &ObjectId, blob: &[u8]) -> Result<(), SegShareError> {
        self.cache_invalidate_object(id);
        if !self.tree_enabled_for(id) {
            return self.raw_put(id, blob);
        }
        let old = self.read_hash_record(id)?;
        let buckets = match (&old, id.is_tree_inner()) {
            (Some(rec), true) => rec.buckets.clone(),
            (None, true) => vec![MsetHash::empty(); self.bucket_count()],
            (_, false) => Vec::new(),
        };
        let new_main = self.node_main(id, &blob[..NODE_LEN], &buckets);
        self.raw_put(id, blob)?;
        self.write_hash_record(
            id,
            &HashRecord {
                main: new_main,
                buckets,
                counter: old.as_ref().map(|r| r.counter).unwrap_or(0),
            },
        )?;
        match old {
            Some(rec) => self.apply_tree_change(
                id,
                TreeChange::Replace {
                    old: rec.main,
                    new: new_main,
                },
            ),
            None => self.apply_tree_change(id, TreeChange::Insert { new: new_main }),
        }
    }

    /// Reads and fully verifies an object body.
    ///
    /// A cache hit serves the verified plaintext of the latest body
    /// this enclave wrote without touching the store (and without a
    /// `store_read` trace event — no store access happened).
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] on any tamper or rollback.
    pub fn read(&self, id: &ObjectId) -> Result<Option<Vec<u8>>, SegShareError> {
        if let Some(body) = self.cached_body(id) {
            return Ok(Some(body.to_vec()));
        }
        let gen = self.cache_gen(&CacheKey::Body(id.clone()));
        let start = std::time::Instant::now();
        let result = {
            let _tree = self.tree_shared(id);
            self.read_verified(id)
        };
        self.trace_store("store_read", id, result.is_ok(), start);
        let body = result?;
        if let Some(body) = &body {
            if self.body_cacheable(id, body.len()) {
                self.cache_fill(
                    CacheKey::Body(id.clone()),
                    gen,
                    CachedValue::Body(Arc::from(body.as_slice())),
                    body.len(),
                );
            }
        }
        Ok(body)
    }

    /// Reads, verifies, and decodes an object, caching the *decoded*
    /// form so repeat readers skip both the GCM decrypt and the decode.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] on any tamper or rollback,
    /// and propagates `decode` failures.
    pub(crate) fn read_decoded<T, F>(
        &self,
        id: &ObjectId,
        decode: F,
    ) -> Result<Option<Arc<T>>, SegShareError>
    where
        T: Send + Sync + 'static,
        F: FnOnce(&[u8]) -> Result<T, SegShareError>,
    {
        let cache_key = CacheKey::Decoded(id.clone());
        if let Some(CachedValue::Decoded(any)) = self.cache_lookup(&cache_key) {
            if let Ok(value) = any.downcast::<T>() {
                return Ok(Some(value));
            }
        }
        let gen = self.cache_gen(&cache_key);
        let start = std::time::Instant::now();
        let result = {
            let _tree = self.tree_shared(id);
            self.read_verified(id)
        };
        self.trace_store("store_read", id, result.is_ok(), start);
        let Some(body) = result? else {
            return Ok(None);
        };
        let value = Arc::new(decode(&body)?);
        self.cache_fill(
            cache_key,
            gen,
            CachedValue::Decoded(value.clone()),
            body.len(),
        );
        Ok(Some(value))
    }

    fn read_verified(&self, id: &ObjectId) -> Result<Option<Vec<u8>>, SegShareError> {
        let Some(blob) = self.raw_get(id)? else {
            return Ok(None);
        };
        if blob.len() < NODE_LEN {
            return Err(integrity(id, "truncated blob"));
        }
        if self.tree_enabled_for(id) {
            self.verify_tree(id, &blob[..NODE_LEN])?;
        }
        let start = std::time::Instant::now();
        let body = pfs_decrypt(&self.data_key(id), &blob)?;
        self.pfs_decrypt_ns.record_duration(start.elapsed());
        Ok(Some(body))
    }

    /// Opens an object for streamed (chunk-at-a-time) reading, verifying
    /// the rollback tree up front.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] on any tamper or rollback.
    pub fn open_stream(&self, id: &ObjectId) -> Result<Option<PfsFile>, SegShareError> {
        let start = std::time::Instant::now();
        let _tree = self.tree_shared(id);
        let result = self.open_stream_inner(id);
        self.trace_store("store_read", id, result.is_ok(), start);
        result
    }

    fn open_stream_inner(&self, id: &ObjectId) -> Result<Option<PfsFile>, SegShareError> {
        let gen = self.cache_gen(&CacheKey::Body(id.clone()));
        let Some(blob) = self.raw_get(id)? else {
            return Ok(None);
        };
        if blob.len() < NODE_LEN {
            return Err(integrity(id, "truncated blob"));
        }
        if self.tree_enabled_for(id) {
            self.verify_tree(id, &blob[..NODE_LEN])?;
        }
        let file = PfsFile::open(&self.data_key(id), blob)?;
        // Hot-object fill: remember small verified bodies so the next
        // download is served from [`TrustedStore::cached_body`] with no
        // store access at all. Large files only ever stream.
        if self.cache.is_some()
            && file.data_len() <= HOT_BODY_MAX as u64
            && self.body_cacheable(id, file.data_len() as usize)
        {
            if let Ok(body) = file.read_all() {
                let len = body.len();
                self.cache_fill(
                    CacheKey::Body(id.clone()),
                    gen,
                    CachedValue::Body(Arc::from(body)),
                    len,
                );
            }
        }
        Ok(Some(file))
    }

    /// Deletes an object (and its tree node).
    ///
    /// # Errors
    ///
    /// Propagates storage and tree failures.
    pub fn delete(&self, id: &ObjectId) -> Result<bool, SegShareError> {
        let start = std::time::Instant::now();
        let _tree = self.tree_exclusive(id);
        let result = self.delete_inner(id);
        self.cache_invalidate_object(id);
        self.trace_store("store_delete", id, result.is_ok(), start);
        result
    }

    fn delete_inner(&self, id: &ObjectId) -> Result<bool, SegShareError> {
        self.cache_invalidate_object(id);
        let existed = self.raw_delete(id)?;
        if self.tree_enabled_for(id) {
            if let Some(rec) = self.read_hash_record(id)? {
                self.delete_hash_record(id)?;
                self.apply_tree_change(id, TreeChange::Remove { old: rec.main })?;
            }
        }
        Ok(existed)
    }

    /// Rebuilds every hash record bottom-up from the stored objects and
    /// re-anchors the root counter — backup restoration (§V-G).
    ///
    /// # Errors
    ///
    /// Fails if any stored object is unreadable.
    pub fn rebuild_tree(&self) -> Result<(), SegShareError> {
        // Both trees rebuild under exclusive holds (content before
        // group — the one sanctioned two-lock ordering). The dispatch
        // layer additionally runs this in global lock mode, but direct
        // callers (benchmarks, white-box tests) get the same exclusion.
        let _content = self.content_tree.write();
        let _group = self.group_tree.write();
        // Restoration replaces store contents without going through the
        // write-through mutators, so nothing cached is trustworthy.
        if let Some(cache) = &self.cache {
            cache.clear();
        }
        if !self.config.rollback_individual {
            return Ok(());
        }
        self.rebuild_node(&ObjectId::DirData(seg_fs::SegPath::root()))?;
        self.rebuild_node(&ObjectId::GroupRoot)?;
        if self.config.rollback_whole_fs {
            self.bump_root_counter(&ObjectId::DirData(seg_fs::SegPath::root()))?;
            self.bump_root_counter(&ObjectId::GroupRoot)?;
        }
        // Restoration runs outside any request batch; perform the
        // deferred increments right away.
        if self.config.batch {
            self.commit_pending_counters()?;
        }
        Ok(())
    }

    fn rebuild_node(&self, id: &ObjectId) -> Result<MsetHash, SegShareError> {
        let blob = self
            .raw_get(id)?
            .ok_or_else(|| integrity(id, "missing object during rebuild"))?;
        if blob.len() < NODE_LEN {
            return Err(integrity(id, "truncated blob during rebuild"));
        }
        let mut buckets = Vec::new();
        if id.is_tree_inner() {
            buckets = vec![MsetHash::empty(); self.bucket_count()];
            let body = pfs_decrypt(&self.data_key(id), &blob)?;
            let key = self.keys.mset_key(id.store());
            for child in self.tree_children(id, &body)? {
                let child_main = self.rebuild_node(&child)?;
                let b = self.bucket_index(&child);
                buckets[b].add(&key, &Self::elem_child(&child, &child_main));
            }
        }
        let main = self.node_main(id, &blob[..NODE_LEN], &buckets);
        self.write_hash_record(
            id,
            &HashRecord {
                main,
                buckets,
                counter: 0,
            },
        )?;
        Ok(main)
    }

    // ---------------------------------------------- dedup refcount index

    /// Loads the dedup refcount index (blob HMAC-name → number of
    /// content files whose indirection references it). Absent means
    /// empty — stores predating the index simply never collect their
    /// orphan blobs.
    fn dedup_index_load(&self) -> Result<HashMap<String, u64>, SegShareError> {
        let Some(body) = self.read(&ObjectId::DedupIndex)? else {
            return Ok(HashMap::new());
        };
        let mut d = Decoder::new(&body);
        d.tag(b"DIX1")?;
        let count = d.u32()?;
        let mut index = HashMap::with_capacity(count as usize);
        for _ in 0..count {
            let name = d.str()?.to_string();
            let refs = d.u64()?;
            index.insert(name, refs);
        }
        d.finish()?;
        Ok(index)
    }

    fn dedup_index_save(&self, index: &HashMap<String, u64>) -> Result<(), SegShareError> {
        let mut e = Encoder::new();
        e.tag(b"DIX1");
        e.u32(index.len() as u32);
        let mut names: Vec<&String> = index.keys().collect();
        names.sort();
        for name in names {
            e.str(name);
            e.u64(index[name]);
        }
        self.write(&ObjectId::DedupIndex, &e.finish())
    }

    /// Adjusts dedup blob reference counts in one atomic index update:
    /// `inc` gains a reference, `dec` loses one. Counts saturate at
    /// zero — a decrement for a name the index never tracked (uploads
    /// predating the index) is a no-op, never a collection trigger.
    pub(crate) fn dedup_ref_update(
        &self,
        inc: Option<&str>,
        dec: Option<&str>,
    ) -> Result<(), SegShareError> {
        if inc.is_none() && dec.is_none() {
            return Ok(());
        }
        let _lock = self.dedup_index.lock();
        let mut index = self.dedup_index_load()?;
        if let Some(name) = inc {
            *index.entry(name.to_string()).or_insert(0) += 1;
        }
        if let Some(name) = dec {
            if let Some(refs) = index.get_mut(name) {
                *refs = refs.saturating_sub(1);
            }
        }
        self.dedup_index_save(&index)
    }

    /// Collects dedup blobs whose reference count reached zero,
    /// deleting both the blob and its index entry. The caller holds the
    /// global dispatch lock, so no upload can re-reference a blob
    /// mid-collection; the index mutex additionally serializes against
    /// direct white-box callers. Returns the number of blobs reclaimed.
    pub(crate) fn blob_gc(&self) -> Result<u64, SegShareError> {
        let _lock = self.dedup_index.lock();
        let mut index = self.dedup_index_load()?;
        let dead: Vec<String> = index
            .iter()
            .filter(|&(_, &refs)| refs == 0)
            .map(|(name, _)| name.clone())
            .collect();
        if dead.is_empty() {
            return Ok(0);
        }
        let mut reclaimed = 0u64;
        for name in dead {
            self.delete(&ObjectId::DedupBlob(name.clone()))?;
            index.remove(&name);
            reclaimed += 1;
        }
        self.dedup_index_save(&index)?;
        Ok(reclaimed)
    }
}

fn integrity(id: &ObjectId, what: &str) -> SegShareError {
    SegShareError::Integrity(format!("{}: {what}", id.canonical()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::keys::KeyHierarchy;
    use seg_fs::SegPath;
    use seg_sgx::{EnclaveImage, Platform};
    use seg_store::MemStore;

    struct Fixture {
        store: TrustedStore,
        content: Arc<MemStore>,
    }

    fn fixture(config: EnclaveConfig) -> Fixture {
        let platform = Platform::new_with_seed(1);
        let sgx = Arc::new(platform.launch(&EnclaveImage::from_code(b"test-enclave")));
        let content = Arc::new(MemStore::new());
        let group = Arc::new(MemStore::new());
        let dedup = Arc::new(MemStore::new());
        let store = TrustedStore::new(
            KeyHierarchy::new([7u8; 32]),
            config,
            sgx,
            Arc::clone(&content) as Arc<dyn ObjectStore>,
            group,
            dedup,
            Arc::new(seg_obs::Registry::new()),
        );
        Fixture { store, content }
    }

    fn root_id() -> ObjectId {
        ObjectId::DirData(SegPath::root())
    }

    fn file_id(path: &str) -> ObjectId {
        ObjectId::FileData(SegPath::parse(path).unwrap())
    }

    /// Initializes both store roots so leaves can hang off them (and
    /// `rebuild_tree`, which walks both, has roots to start from).
    fn init_root(f: &Fixture) {
        f.store
            .write(&root_id(), &DirFile::new(SegPath::root()).encode())
            .unwrap();
        f.store
            .write(&ObjectId::GroupRoot, &GroupRootFile::new().encode())
            .unwrap();
        f.store
            .write(&ObjectId::GroupList, &seg_fs::GroupListFile::new().encode())
            .unwrap();
        f.store
            .write(
                &ObjectId::Acl(SegPath::root()),
                &seg_fs::AclFile::new().encode(),
            )
            .unwrap();
    }

    /// Registers a root child in the root directory file (the tree
    /// verifier reads the children list during bucket recompute) and
    /// gives it the ACL object every file-system entry carries.
    fn register_child(f: &Fixture, name: &str, kind: seg_fs::ChildKind) {
        let body = f.store.read(&root_id()).unwrap().unwrap();
        let mut dir = DirFile::decode(&body).unwrap();
        dir.add_child(name, kind);
        f.store.write(&root_id(), &dir.encode()).unwrap();
        let child_path = dir.child_path(name, kind).unwrap();
        f.store
            .write(&ObjectId::Acl(child_path), &seg_fs::AclFile::new().encode())
            .unwrap();
    }

    #[test]
    fn write_read_roundtrip_with_tree() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"hello tree").unwrap();
        assert_eq!(
            f.store.read(&file_id("/a")).unwrap().unwrap(),
            b"hello tree"
        );
        assert!(f.store.read(&file_id("/missing")).unwrap().is_none());
    }

    #[test]
    fn whole_store_rollback_undetected_without_counter() {
        // The §V-D boundary: a *complete, consistent* old state (root
        // included) verifies when the counter extension is off.
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"version 1").unwrap();
        let snapshot = f.content.snapshot();
        f.store.write(&file_id("/a"), b"version 2").unwrap();
        f.content.restore(snapshot);
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 1");
    }

    #[test]
    fn leaf_rollback_detected_via_parent_bucket() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);

        f.store.write(&file_id("/a"), b"version 1").unwrap();
        // Capture exactly the leaf's two objects.
        let data_key = f.store.keys.storage_key(&file_id("/a"), true);
        let hrec_key = f.store.keys.hash_record_storage_key(&file_id("/a"), true);
        let old_data = f.content.get(&data_key).unwrap().unwrap();
        let old_hrec = f.content.get(&hrec_key).unwrap().unwrap();

        f.store.write(&file_id("/a"), b"version 2").unwrap();
        f.content.put(&data_key, &old_data).unwrap();
        f.content.put(&hrec_key, &old_hrec).unwrap();

        assert!(matches!(
            f.store.read(&file_id("/a")),
            Err(SegShareError::Integrity(_))
        ));
    }

    #[test]
    fn delete_unlinks_from_tree() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        register_child(&f, "b", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"A").unwrap();
        f.store.write(&file_id("/b"), b"B").unwrap();

        assert!(f.store.delete(&file_id("/a")).unwrap());
        // Unregister from the directory body too.
        let body = f.store.read(&root_id()).unwrap().unwrap();
        let mut dir = DirFile::decode(&body).unwrap();
        dir.remove_child("a");
        f.store.write(&root_id(), &dir.encode()).unwrap();

        // The sibling still verifies.
        assert_eq!(f.store.read(&file_id("/b")).unwrap().unwrap(), b"B");
        assert!(f.store.read(&file_id("/a")).unwrap().is_none());
    }

    #[test]
    fn rebuild_tree_recovers_corrupted_hash_records() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"content").unwrap();

        // Destroy the leaf's hash record (simulating a backup restored
        // onto a fresh platform, §V-G).
        let hrec_key = f.store.keys.hash_record_storage_key(&file_id("/a"), true);
        f.content.delete(&hrec_key).unwrap();
        assert!(f.store.read(&file_id("/a")).is_err());

        f.store.rebuild_tree().unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"content");
    }

    #[test]
    fn no_tree_mode_skips_hash_records() {
        let f = fixture(EnclaveConfig::minimal());
        init_root(&f);
        f.store.write(&file_id("/a"), b"plain mode").unwrap();
        assert_eq!(
            f.store.read(&file_id("/a")).unwrap().unwrap(),
            b"plain mode"
        );
        // Only data objects, no hash records: root dir, root ACL, and
        // the file itself.
        assert_eq!(f.content.len().unwrap(), 3);
    }

    #[test]
    fn hidden_names_are_opaque() {
        let f = fixture(EnclaveConfig::default());
        init_root(&f);
        register_child(&f, "secret-name", seg_fs::ChildKind::File);
        f.store
            .write(&file_id("/secret-name"), b"secret-content")
            .unwrap();
        for key in f.content.list().unwrap() {
            assert!(!key.contains("secret"), "key {key} leaks the path");
            assert_eq!(key.len(), 64, "hidden keys are HMAC hex strings");
        }
    }

    #[test]
    fn group_root_file_roundtrip() {
        let mut root = GroupRootFile::new();
        assert!(root.add_user(UserId::new("alice").unwrap()));
        assert!(!root.add_user(UserId::new("alice").unwrap()));
        assert!(root.contains(&UserId::new("alice").unwrap()));
        let decoded = GroupRootFile::decode(&root.encode()).unwrap();
        assert_eq!(decoded, root);
        assert!(GroupRootFile::decode(b"junk").is_err());
    }

    #[test]
    fn hash_record_codec_roundtrip() {
        let key = seg_crypto::mset::MsetKey::from_bytes([1u8; 32]);
        let mut main = MsetHash::empty();
        main.add(&key, b"x");
        let rec = HashRecord {
            main,
            buckets: vec![MsetHash::empty(), MsetHash::of(&key, b"c")],
            counter: 42,
        };
        let decoded = HashRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        for cut in 0..rec.encode().len() {
            assert!(
                HashRecord::decode(&rec.encode()[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    fn cached_config() -> EnclaveConfig {
        EnclaveConfig {
            cache: true,
            ..EnclaveConfig::default()
        }
    }

    #[test]
    fn cache_stats_absent_when_disabled() {
        let f = fixture(EnclaveConfig::default());
        assert!(f.store.cache_stats().is_none());
        assert!(fixture(cached_config()).store.cache_stats().is_some());
    }

    #[test]
    fn warm_read_is_served_without_any_store_access() {
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"hot body").unwrap();
        // Miss-fill.
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"hot body");
        // Destroy the backing object outright: a warm read still serves
        // the verified body, proving the hit path does zero store I/O.
        let data_key = f.store.keys.storage_key(&file_id("/a"), true);
        f.content.delete(&data_key).unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"hot body");
        let stats = f.store.cache_stats().unwrap();
        assert!(stats.hits >= 1, "expected a cache hit, got {stats:?}");
    }

    #[test]
    fn write_through_invalidation_supersedes_cached_body() {
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"version 1").unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 1");
        f.store.write(&file_id("/a"), b"version 2").unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 2");
        assert!(f.store.cache_stats().unwrap().invalidations >= 1);
    }

    #[test]
    fn delete_drops_cached_body() {
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"doomed").unwrap();
        assert!(f.store.read(&file_id("/a")).unwrap().is_some());
        assert!(f.store.delete(&file_id("/a")).unwrap());
        assert!(f.store.read(&file_id("/a")).unwrap().is_none());
    }

    #[test]
    fn rebuild_tree_clears_cache_after_external_restore() {
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"version 1").unwrap();
        let snapshot = f.content.snapshot();
        f.store.write(&file_id("/a"), b"version 2").unwrap();
        // Warm the cache with version 2, then restore the version-1
        // backup out from under the enclave (§V-G).
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 2");
        f.content.restore(snapshot);
        f.store.rebuild_tree().unwrap();
        // The restoration path cleared the cache: the read reflects the
        // restored store, not the stale cached version 2.
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 1");
    }

    #[test]
    fn rolled_back_store_never_yields_stale_reads_warm_or_cold() {
        // With the cache on, an external whole-store rollback must
        // produce fresh data or an integrity error — never a stale body
        // accepted because of (or despite) cached state.
        let f = fixture(cached_config());
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"version 1").unwrap();
        let snapshot = f.content.snapshot();
        f.store.write(&file_id("/a"), b"version 2").unwrap();
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 2");
        f.content.restore(snapshot);
        // Warm: the hit serves the latest enclave-written body.
        assert_eq!(f.store.read(&file_id("/a")).unwrap().unwrap(), b"version 2");
        // Body evicted (e.g. by pressure) while the authentic hash
        // records stay cached: the refetch reads the rolled-back blob,
        // which *mismatches* the cached latest records — detected, not
        // served.
        let cache = f.store.cache.as_ref().unwrap();
        cache.invalidate(&CacheKey::Body(file_id("/a")));
        let data_key = f.store.keys.storage_key(&file_id("/a"), true);
        assert!(f.content.get(&data_key).unwrap().is_some());
        assert!(matches!(
            f.store.read(&file_id("/a")),
            Err(SegShareError::Integrity(_))
        ));
    }

    #[test]
    fn whole_fs_counter_anchors_root() {
        let f = fixture(EnclaveConfig {
            rollback_whole_fs: true,
            ..EnclaveConfig::default()
        });
        init_root(&f);
        register_child(&f, "a", seg_fs::ChildKind::File);
        f.store.write(&file_id("/a"), b"state 1").unwrap();
        let snapshot = f.content.snapshot();
        f.store.write(&file_id("/a"), b"state 2").unwrap();
        // Whole-store rollback (root included).
        f.content.restore(snapshot);
        assert!(matches!(
            f.store.read(&file_id("/a")),
            Err(SegShareError::Integrity(msg)) if msg.contains("counter")
        ));
    }
}
