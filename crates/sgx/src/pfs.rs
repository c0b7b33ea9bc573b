//! Reimplementation of the Intel SGX Protected File System Library
//! (§II-A "Protected File System Library").
//!
//! The library stores a byte stream as uniform 4 KiB nodes: on write,
//! "data is separated into 4kB chunks, the data's integrity is ensured
//! with a Merkle hash tree variant, and each chunk is encrypted with
//! AES-GCM". This module reproduces that design:
//!
//! * **Node format** — every node is exactly [`NODE_LEN`] bytes:
//!   `IV (12) || ciphertext || tag (16) || zero padding`. Data nodes
//!   carry up to [`DATA_PER_NODE`] plaintext bytes.
//! * **Tag tree** — the GCM tag of each node is authenticated data for
//!   its parent: *meta* nodes hold the concatenated tags of up to
//!   [`TAGS_PER_NODE`] children, themselves encrypted and tagged, up to a
//!   single top node whose tag lives in the encrypted header. Any
//!   modification, truncation, or node swap breaks a tag somewhere on the
//!   path to the root.
//! * **IV discipline** — per-file random nonce XOR (level, index), so IVs
//!   never repeat within a file; rewriting draws a fresh nonce.
//! * **Space overhead** — 28 bytes of framing per 4,068 data bytes plus
//!   one meta node per 254 children plus one header node: ~1.1 % for
//!   large files, matching the paper's measured 1.05–1.48 % storage
//!   overheads (§VII-B).
//!
//! Writing is streaming: [`PfsWriter`] buffers only the current node plus
//! 16 bytes per finished node (the tag list), which is what lets the
//! enclave re-encrypt arbitrarily large uploads with a small, constant
//! data buffer (§VI).

use seg_crypto::gcm::{Gcm, IV_LEN, TAG_LEN};
use seg_crypto::rng::SecureRandom;

use crate::SgxError;

/// Size of every stored node.
pub const NODE_LEN: usize = 4096;
/// Framing per node: IV plus GCM tag.
pub const NODE_OVERHEAD: usize = IV_LEN + TAG_LEN;
/// Plaintext data capacity of a data node.
pub const DATA_PER_NODE: usize = NODE_LEN - NODE_OVERHEAD;
/// Child tags per meta node.
pub const TAGS_PER_NODE: usize = DATA_PER_NODE / TAG_LEN;

const MAGIC: &[u8; 8] = b"SEGPFS1\0";
/// Encrypted header payload: magic 8 | version 2 | levels 2 | data_len 8 |
/// nonce 12 | top tag 16.
const HEADER_PT_LEN: usize = 8 + 2 + 2 + 8 + IV_LEN + TAG_LEN;

fn node_iv(nonce: &[u8; IV_LEN], level: u8, index: u64) -> [u8; IV_LEN] {
    let mut iv = *nonce;
    for (slot, b) in iv.iter_mut().zip(index.to_le_bytes()) {
        *slot ^= b;
    }
    iv[8] ^= level;
    iv
}

fn node_aad(level: u8, index: u64) -> [u8; 9] {
    let mut aad = [0u8; 9];
    aad[0] = level;
    aad[1..].copy_from_slice(&index.to_le_bytes());
    aad
}

/// Seals node (`level`, `index`) in place. `node` is one zeroed
/// [`NODE_LEN`] slot of the blob holding `len` plaintext bytes at
/// `IV_LEN..`; the IV goes in front, the tag right after the
/// ciphertext, and the padding stays zero.
fn seal_node(
    gcm: &Gcm,
    nonce: &[u8; IV_LEN],
    level: u8,
    index: u64,
    node: &mut [u8],
    len: usize,
) -> [u8; TAG_LEN] {
    debug_assert!(node.len() == NODE_LEN && len <= DATA_PER_NODE);
    let iv = node_iv(nonce, level, index);
    node[..IV_LEN].copy_from_slice(&iv);
    let (body, rest) = node[IV_LEN..].split_at_mut(len);
    let tag = gcm.seal_in_place(&iv, &node_aad(level, index), body);
    rest[..TAG_LEN].copy_from_slice(&tag);
    tag
}

/// Whether every byte is zero. An OR-fold without early exit, which
/// vectorizes (node padding is up to 4 KiB).
fn is_zero(bytes: &[u8]) -> bool {
    bytes.iter().fold(0u8, |acc, &b| acc | b) == 0
}

/// Appends a fresh zeroed node slot to `out` and returns it.
fn push_slot(out: &mut Vec<u8>) -> &mut [u8] {
    let start = out.len();
    out.resize(start + NODE_LEN, 0);
    &mut out[start..]
}

/// Decrypts a node, checking its tag against `expected_tag`, and
/// appends its `plaintext_len` bytes to `out`.
fn open_node_into(
    gcm: &Gcm,
    node: &[u8],
    level: u8,
    index: u64,
    plaintext_len: usize,
    expected_tag: &[u8; TAG_LEN],
    out: &mut Vec<u8>,
) -> Result<(), SgxError> {
    if node.len() != NODE_LEN || plaintext_len > DATA_PER_NODE {
        return Err(SgxError::ProtectedFileCorrupted(format!(
            "bad node length at level {level} index {index}"
        )));
    }
    let iv: [u8; IV_LEN] = node[..IV_LEN].try_into().expect("12 bytes");
    let ct = &node[IV_LEN..IV_LEN + plaintext_len];
    let stored_tag = &node[IV_LEN + plaintext_len..IV_LEN + plaintext_len + TAG_LEN];
    // Padding is structurally zero; reject any modification so every
    // stored byte is covered by some check.
    if !is_zero(&node[IV_LEN + plaintext_len + TAG_LEN..]) {
        return Err(SgxError::ProtectedFileCorrupted(format!(
            "nonzero padding at level {level} index {index}"
        )));
    }
    if !seg_crypto::ct::ct_eq(stored_tag, expected_tag) {
        return Err(SgxError::ProtectedFileCorrupted(format!(
            "tag mismatch at level {level} index {index} (rollback or tamper)"
        )));
    }
    let start = out.len();
    out.extend_from_slice(ct);
    gcm.open_in_place(&iv, &node_aad(level, index), &mut out[start..], stored_tag)
        .map_err(|_| {
            out.truncate(start);
            SgxError::ProtectedFileCorrupted(format!(
                "authentication failed at level {level} index {index}"
            ))
        })
}

/// [`open_node_into`] a new buffer.
fn open_node(
    gcm: &Gcm,
    node: &[u8],
    level: u8,
    index: u64,
    plaintext_len: usize,
    expected_tag: &[u8; TAG_LEN],
) -> Result<Vec<u8>, SgxError> {
    let mut out = Vec::with_capacity(plaintext_len);
    open_node_into(
        gcm,
        node,
        level,
        index,
        plaintext_len,
        expected_tag,
        &mut out,
    )?;
    Ok(out)
}

/// Number of data nodes for a given plaintext length.
fn data_node_count(data_len: u64) -> u64 {
    data_len.div_ceil(DATA_PER_NODE as u64)
}

/// Node counts per level: `counts[0]` is the data level.
fn level_counts(data_len: u64) -> Vec<u64> {
    let mut counts = vec![data_node_count(data_len)];
    while *counts.last().expect("non-empty") > 1 {
        let next = counts
            .last()
            .expect("non-empty")
            .div_ceil(TAGS_PER_NODE as u64);
        counts.push(next);
    }
    counts
}

/// Total stored size (bytes) for a plaintext of `data_len` bytes —
/// the quantity the paper's storage-overhead table reports.
#[must_use]
pub fn encrypted_size(data_len: u64) -> u64 {
    let counts = level_counts(data_len);
    let data_nodes = counts[0];
    let meta_nodes: u64 = if counts.len() > 1 {
        counts[1..].iter().sum()
    } else {
        0
    };
    (1 + data_nodes + meta_nodes) * NODE_LEN as u64
}

/// Streaming writer producing a protected-file blob.
pub struct PfsWriter {
    gcm: Gcm,
    nonce: [u8; IV_LEN],
    /// Plaintext bytes staged in the open data node, which is the last
    /// slot of `out`; 0 means no node is open.
    filled: usize,
    tags: Vec<[u8; TAG_LEN]>,
    /// Blob under construction; node 0 (header) is sealed in `finish`.
    out: Vec<u8>,
    data_len: u64,
}

impl std::fmt::Debug for PfsWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfsWriter")
            .field("data_len", &self.data_len)
            .finish()
    }
}

/// The most [`PfsWriter::reserve`] pre-allocates: an upload's announced
/// size comes from the client, so it must not allocate ahead of the
/// bytes beyond this.
const MAX_RESERVE: u64 = 16 << 20;

impl PfsWriter {
    /// Starts a protected file under `key` (16, 24, or 32 bytes — the
    /// caller provides the file key, as the paper's trusted file manager
    /// does; deriving from the sealing key is the caller's choice).
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Crypto`] for invalid key lengths.
    pub fn new<R: SecureRandom>(key: &[u8], rng: &mut R) -> Result<PfsWriter, SgxError> {
        Ok(PfsWriter {
            gcm: Gcm::new(key)?,
            nonce: rng.array(),
            filled: 0,
            tags: Vec::new(),
            out: vec![0u8; NODE_LEN], // header slot
            data_len: 0,
        })
    }

    /// Pre-sizes the blob for a file of `data_len` plaintext bytes in
    /// all (capped at 16 MiB of blob), so nodes are sealed into place
    /// without the buffer being regrown and copied.
    pub fn reserve(&mut self, data_len: u64) {
        let total = encrypted_size(data_len.min(MAX_RESERVE)).min(MAX_RESERVE);
        self.out
            .reserve((total as usize).saturating_sub(self.out.len()));
    }

    /// Appends plaintext; full nodes are encrypted in place as soon as
    /// they fill (constant data buffering).
    pub fn write(&mut self, mut data: &[u8]) {
        let _prof = seg_obs::prof::phase("pfs");
        self.data_len += data.len() as u64;
        while !data.is_empty() {
            if self.filled == 0 {
                push_slot(&mut self.out);
            }
            let take = (DATA_PER_NODE - self.filled).min(data.len());
            let at = self.out.len() - NODE_LEN + IV_LEN + self.filled;
            self.out[at..at + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled == DATA_PER_NODE {
                self.seal_open_node();
            }
        }
    }

    fn seal_open_node(&mut self) {
        let index = self.tags.len() as u64;
        let slot = self.out.len() - NODE_LEN;
        let tag = seal_node(
            &self.gcm,
            &self.nonce,
            0,
            index,
            &mut self.out[slot..],
            self.filled,
        );
        self.tags.push(tag);
        self.filled = 0;
    }

    /// Finishes the file and returns the complete blob.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let _prof = seg_obs::prof::phase("pfs");
        if self.filled > 0 {
            self.seal_open_node();
        }
        // Build meta levels bottom-up until a single node remains.
        let mut level_tags = std::mem::take(&mut self.tags);
        let mut level = 1u8;
        let mut levels = 0u16;
        while level_tags.len() > 1 {
            let mut next_tags = Vec::with_capacity(level_tags.len().div_ceil(TAGS_PER_NODE));
            for (idx, group) in level_tags.chunks(TAGS_PER_NODE).enumerate() {
                let node = push_slot(&mut self.out);
                for (slot, tag) in node[IV_LEN..].chunks_exact_mut(TAG_LEN).zip(group) {
                    slot.copy_from_slice(tag);
                }
                let len = group.len() * TAG_LEN;
                next_tags.push(seal_node(
                    &self.gcm,
                    &self.nonce,
                    level,
                    idx as u64,
                    node,
                    len,
                ));
            }
            level_tags = next_tags;
            level += 1;
            levels += 1;
        }
        let top_tag = level_tags.first().copied().unwrap_or([0u8; TAG_LEN]);

        // Header.
        let mut header_pt = Vec::with_capacity(HEADER_PT_LEN);
        header_pt.extend_from_slice(MAGIC);
        header_pt.extend_from_slice(&1u16.to_le_bytes()); // version
        header_pt.extend_from_slice(&levels.to_le_bytes());
        header_pt.extend_from_slice(&self.data_len.to_le_bytes());
        header_pt.extend_from_slice(&self.nonce);
        header_pt.extend_from_slice(&top_tag);
        debug_assert_eq!(header_pt.len(), HEADER_PT_LEN);
        // The header uses a fixed distinct level (0xff) at index 0; its IV
        // is still nonce-derived, which is safe because no other node uses
        // level 0xff.
        let header = &mut self.out[..NODE_LEN];
        header[IV_LEN..IV_LEN + HEADER_PT_LEN].copy_from_slice(&header_pt);
        seal_node(&self.gcm, &self.nonce, 0xff, 0, header, HEADER_PT_LEN);
        self.out
    }
}

/// A verified reader over a protected-file blob.
///
/// Opening verifies the meta-node path from the header's top tag down to
/// the per-data-node tags; [`read_node`](Self::read_node) then serves
/// random-access decryption of individual 4 KiB chunks.
pub struct PfsReader<'a> {
    gcm: Gcm,
    blob: &'a [u8],
    data_len: u64,
    data_tags: Vec<[u8; TAG_LEN]>,
}

impl std::fmt::Debug for PfsReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfsReader")
            .field("data_len", &self.data_len)
            .finish()
    }
}

impl<'a> PfsReader<'a> {
    /// Opens and integrity-verifies the blob's meta structure.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] for any structural,
    /// cryptographic, or rollback problem.
    pub fn open(key: &[u8], blob: &'a [u8]) -> Result<PfsReader<'a>, SgxError> {
        let _prof = seg_obs::prof::phase("pfs");
        let gcm = Gcm::new(key)?;
        if blob.len() < NODE_LEN || !blob.len().is_multiple_of(NODE_LEN) {
            return Err(SgxError::ProtectedFileCorrupted(
                "blob is not a whole number of nodes".to_string(),
            ));
        }
        // The header authenticates itself via GCM (we do not know its tag
        // in advance, so open it directly from its stored IV and tag).
        let header_node = &blob[..NODE_LEN];
        let iv: [u8; IV_LEN] = header_node[..IV_LEN].try_into().expect("12 bytes");
        if !is_zero(&header_node[IV_LEN + HEADER_PT_LEN + TAG_LEN..]) {
            return Err(SgxError::ProtectedFileCorrupted(
                "nonzero header padding".to_string(),
            ));
        }
        let mut header_pt = [0u8; HEADER_PT_LEN];
        header_pt.copy_from_slice(&header_node[IV_LEN..IV_LEN + HEADER_PT_LEN]);
        let header_tag = &header_node[IV_LEN + HEADER_PT_LEN..IV_LEN + HEADER_PT_LEN + TAG_LEN];
        gcm.open_in_place(&iv, &node_aad(0xff, 0), &mut header_pt, header_tag)
            .map_err(|_| {
                SgxError::ProtectedFileCorrupted("header authentication failed".to_string())
            })?;
        if &header_pt[..8] != MAGIC {
            return Err(SgxError::ProtectedFileCorrupted("bad magic".to_string()));
        }
        let version = u16::from_le_bytes(header_pt[8..10].try_into().expect("2 bytes"));
        if version != 1 {
            return Err(SgxError::ProtectedFileCorrupted(format!(
                "unsupported version {version}"
            )));
        }
        let levels = u16::from_le_bytes(header_pt[10..12].try_into().expect("2 bytes")) as usize;
        let data_len = u64::from_le_bytes(header_pt[12..20].try_into().expect("8 bytes"));
        // Per-node IVs are read from the nodes themselves; the header's
        // nonce field exists so a future in-place updater can derive them.
        let _nonce: [u8; IV_LEN] = header_pt[20..32].try_into().expect("12 bytes");
        let top_tag: [u8; TAG_LEN] = header_pt[32..48].try_into().expect("16 bytes");

        let counts = level_counts(data_len);
        if counts.len() != levels + 1 {
            return Err(SgxError::ProtectedFileCorrupted(
                "level count inconsistent with data length".to_string(),
            ));
        }
        let total_nodes: u64 = 1 + counts.iter().sum::<u64>();
        if blob.len() as u64 != total_nodes * NODE_LEN as u64 {
            return Err(SgxError::ProtectedFileCorrupted(
                "blob size inconsistent with header (truncation or extension)".to_string(),
            ));
        }

        // Node offsets: header, data level, then meta levels ascending.
        let mut level_offsets = Vec::with_capacity(counts.len());
        let mut offset = 1u64;
        for &c in &counts {
            level_offsets.push(offset);
            offset += c;
        }

        // Walk meta levels top-down, verifying tags and collecting the
        // level below's expected tags.
        let mut expected: Vec<[u8; TAG_LEN]> = vec![top_tag];
        for level in (1..=levels).rev() {
            let count = counts[level];
            debug_assert_eq!(expected.len() as u64, count);
            let child_count = counts[level - 1];
            let mut child_tags = Vec::with_capacity(child_count as usize);
            for idx in 0..count {
                let node_start = ((level_offsets[level] + idx) as usize) * NODE_LEN;
                let node = &blob[node_start..node_start + NODE_LEN];
                let children_here =
                    (child_count - idx * TAGS_PER_NODE as u64).min(TAGS_PER_NODE as u64) as usize;
                let pt = open_node(
                    &gcm,
                    node,
                    level as u8,
                    idx,
                    children_here * TAG_LEN,
                    &expected[idx as usize],
                )?;
                for chunk in pt.chunks_exact(TAG_LEN) {
                    child_tags.push(chunk.try_into().expect("16 bytes"));
                }
            }
            expected = child_tags;
        }
        // `expected` now holds the data-node tags (or the single data
        // node's tag when levels == 0, or nothing for an empty file).
        if data_len > 0 && expected.len() as u64 != counts[0] {
            return Err(SgxError::ProtectedFileCorrupted(
                "data tag count mismatch".to_string(),
            ));
        }
        Ok(PfsReader {
            gcm,
            blob,
            data_len,
            data_tags: if data_len == 0 { Vec::new() } else { expected },
        })
    }

    /// Plaintext length of the protected file.
    #[must_use]
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Number of data nodes.
    #[must_use]
    pub fn node_count(&self) -> u64 {
        data_node_count(self.data_len)
    }

    /// Decrypts and verifies data node `index`.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] on tamper/rollback or
    /// out-of-range index.
    pub fn read_node(&self, index: u64) -> Result<Vec<u8>, SgxError> {
        let _prof = seg_obs::prof::phase("pfs");
        let mut out = Vec::new();
        read_data_node(
            &self.gcm,
            self.blob,
            self.data_len,
            &self.data_tags,
            index,
            &mut out,
        )?;
        Ok(out)
    }

    /// Decrypts the whole file.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] on any integrity
    /// failure.
    pub fn read_all(&self) -> Result<Vec<u8>, SgxError> {
        let _prof = seg_obs::prof::phase("pfs");
        read_all_nodes(&self.gcm, self.blob, self.data_len, &self.data_tags)
    }
}

/// Decrypts data node `index`, appending its plaintext to `out`.
fn read_data_node(
    gcm: &Gcm,
    blob: &[u8],
    data_len: u64,
    data_tags: &[[u8; TAG_LEN]],
    index: u64,
    out: &mut Vec<u8>,
) -> Result<(), SgxError> {
    let n = data_node_count(data_len);
    if index >= n {
        return Err(SgxError::ProtectedFileCorrupted(format!(
            "node index {index} out of range ({n} nodes)"
        )));
    }
    let len = if index == n - 1 {
        (data_len - index * DATA_PER_NODE as u64) as usize
    } else {
        DATA_PER_NODE
    };
    let start = ((1 + index) as usize) * NODE_LEN;
    let node = &blob[start..start + NODE_LEN];
    open_node_into(gcm, node, 0, index, len, &data_tags[index as usize], out)
}

/// Decrypts every data node straight into one buffer.
fn read_all_nodes(
    gcm: &Gcm,
    blob: &[u8],
    data_len: u64,
    data_tags: &[[u8; TAG_LEN]],
) -> Result<Vec<u8>, SgxError> {
    let mut out = Vec::with_capacity(data_len as usize);
    for i in 0..data_node_count(data_len) {
        read_data_node(gcm, blob, data_len, data_tags, i, &mut out)?;
    }
    Ok(out)
}

/// An owning variant of [`PfsReader`], for callers that stream a file's
/// chunks across multiple turns (the enclave's download sessions): the
/// encrypted blob stays in (conceptually untrusted) memory inside this
/// struct while the enclave holds only the current decrypted chunk.
pub struct PfsFile {
    gcm: Gcm,
    blob: Vec<u8>,
    data_len: u64,
    data_tags: Vec<[u8; TAG_LEN]>,
}

impl std::fmt::Debug for PfsFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfsFile")
            .field("data_len", &self.data_len)
            .finish()
    }
}

impl PfsFile {
    /// Opens and integrity-verifies `blob`, taking ownership.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] for any structural,
    /// cryptographic, or rollback problem.
    pub fn open(key: &[u8], blob: Vec<u8>) -> Result<PfsFile, SgxError> {
        let _prof = seg_obs::prof::phase("pfs");
        let reader = PfsReader::open(key, &blob)?;
        let data_len = reader.data_len;
        let data_tags = reader.data_tags;
        let gcm = reader.gcm;
        Ok(PfsFile {
            gcm,
            blob,
            data_len,
            data_tags,
        })
    }

    /// Plaintext length.
    #[must_use]
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Number of data nodes.
    #[must_use]
    pub fn node_count(&self) -> u64 {
        data_node_count(self.data_len)
    }

    /// Decrypts and verifies data node `index`.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] on tamper/rollback or
    /// out-of-range index.
    pub fn read_node(&self, index: u64) -> Result<Vec<u8>, SgxError> {
        let _prof = seg_obs::prof::phase("pfs");
        let mut out = Vec::new();
        read_data_node(
            &self.gcm,
            &self.blob,
            self.data_len,
            &self.data_tags,
            index,
            &mut out,
        )?;
        Ok(out)
    }

    /// Decrypts the whole file.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ProtectedFileCorrupted`] on any integrity
    /// failure.
    pub fn read_all(&self) -> Result<Vec<u8>, SgxError> {
        let _prof = seg_obs::prof::phase("pfs");
        read_all_nodes(&self.gcm, &self.blob, self.data_len, &self.data_tags)
    }
}

/// One-shot encryption of `plaintext` into a protected-file blob.
///
/// # Errors
///
/// Returns [`SgxError::Crypto`] for invalid key lengths.
pub fn pfs_encrypt<R: SecureRandom>(
    key: &[u8],
    plaintext: &[u8],
    rng: &mut R,
) -> Result<Vec<u8>, SgxError> {
    let _prof = seg_obs::prof::phase("pfs");
    let mut w = PfsWriter::new(key, rng)?;
    w.reserve(plaintext.len() as u64);
    w.write(plaintext);
    Ok(w.finish())
}

/// One-shot verification and decryption of a protected-file blob.
///
/// # Errors
///
/// Returns [`SgxError::ProtectedFileCorrupted`] on any integrity failure.
pub fn pfs_decrypt(key: &[u8], blob: &[u8]) -> Result<Vec<u8>, SgxError> {
    let _prof = seg_obs::prof::phase("pfs");
    PfsReader::open(key, blob)?.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_crypto::rng::DeterministicRng;

    const KEY: [u8; 16] = [7u8; 16];

    fn rng() -> DeterministicRng {
        DeterministicRng::seeded(99)
    }

    #[test]
    fn roundtrip_various_sizes() {
        for len in [
            0usize,
            1,
            100,
            DATA_PER_NODE - 1,
            DATA_PER_NODE,
            DATA_PER_NODE + 1,
            3 * DATA_PER_NODE + 17,
            255 * DATA_PER_NODE, // forces two meta levels
        ] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
            assert_eq!(blob.len() as u64, encrypted_size(len as u64), "len {len}");
            assert_eq!(pfs_decrypt(&KEY, &blob).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn streaming_write_matches_one_shot_semantics() {
        let pt: Vec<u8> = (0..3 * DATA_PER_NODE + 100)
            .map(|i| (i % 256) as u8)
            .collect();
        let mut w = PfsWriter::new(&KEY, &mut rng()).unwrap();
        for chunk in pt.chunks(1000) {
            w.write(chunk);
        }
        let blob = w.finish();
        assert_eq!(pfs_decrypt(&KEY, &blob).unwrap(), pt);
    }

    #[test]
    fn random_access_reads() {
        let pt: Vec<u8> = (0..5 * DATA_PER_NODE + 123)
            .map(|i| (i % 201) as u8)
            .collect();
        let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
        let r = PfsReader::open(&KEY, &blob).unwrap();
        assert_eq!(r.node_count(), 6);
        // Middle node.
        assert_eq!(
            r.read_node(2).unwrap(),
            &pt[2 * DATA_PER_NODE..3 * DATA_PER_NODE]
        );
        // Short last node.
        assert_eq!(r.read_node(5).unwrap(), &pt[5 * DATA_PER_NODE..]);
        assert!(r.read_node(6).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let blob = pfs_encrypt(&KEY, b"secret contents", &mut rng()).unwrap();
        assert!(matches!(
            pfs_decrypt(&[8u8; 16], &blob),
            Err(SgxError::ProtectedFileCorrupted(_))
        ));
    }

    #[test]
    fn every_node_tamper_detected() {
        let pt: Vec<u8> = (0..2 * DATA_PER_NODE + 50)
            .map(|i| (i % 256) as u8)
            .collect();
        let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
        let nodes = blob.len() / NODE_LEN;
        assert_eq!(nodes, 5); // header + 3 data + 1 meta
        for node in 0..nodes {
            // Flip a byte inside each node's ciphertext region.
            let mut bad = blob.clone();
            bad[node * NODE_LEN + IV_LEN + 3] ^= 1;
            assert!(
                pfs_decrypt(&KEY, &bad).is_err(),
                "tamper in node {node} undetected"
            );
        }
    }

    #[test]
    fn node_swap_detected() {
        let pt: Vec<u8> = (0..3 * DATA_PER_NODE).map(|i| (i % 256) as u8).collect();
        let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
        let mut swapped = blob.clone();
        // Swap data nodes 0 and 1 (blob nodes 1 and 2).
        let (a, b) = (NODE_LEN, 2 * NODE_LEN);
        let tmp = swapped[a..a + NODE_LEN].to_vec();
        swapped.copy_within(b..b + NODE_LEN, a);
        swapped[b..b + NODE_LEN].copy_from_slice(&tmp);
        assert!(pfs_decrypt(&KEY, &swapped).is_err());
    }

    #[test]
    fn truncation_and_extension_detected() {
        let pt = vec![1u8; 2 * DATA_PER_NODE];
        let blob = pfs_encrypt(&KEY, &pt, &mut rng()).unwrap();
        assert!(pfs_decrypt(&KEY, &blob[..blob.len() - NODE_LEN]).is_err());
        let mut extended = blob.clone();
        extended.extend_from_slice(&vec![0u8; NODE_LEN]);
        assert!(pfs_decrypt(&KEY, &extended).is_err());
        assert!(pfs_decrypt(&KEY, &blob[..100]).is_err());
        assert!(pfs_decrypt(&KEY, &[]).is_err());
    }

    #[test]
    fn cross_file_node_replay_detected() {
        // Two files under the same key: nodes cannot be transplanted
        // because tags are checked against each file's own tag tree.
        let blob_a = pfs_encrypt(&KEY, &vec![0xaa; DATA_PER_NODE * 2], &mut rng()).unwrap();
        let blob_b = pfs_encrypt(&KEY, &vec![0xbb; DATA_PER_NODE * 2], &mut rng()).unwrap();
        let mut franken = blob_a.clone();
        franken[NODE_LEN..2 * NODE_LEN].copy_from_slice(&blob_b[NODE_LEN..2 * NODE_LEN]);
        assert!(pfs_decrypt(&KEY, &franken).is_err());
    }

    #[test]
    fn encrypted_size_matches_paper_scale() {
        // ~1.1 % overhead for 10 MB and 200 MB files, matching §VII-B.
        for (plain, lo, hi) in [(10_000_000u64, 1.0, 1.25), (200_000_000u64, 1.0, 1.15)] {
            let enc = encrypted_size(plain) as f64;
            let overhead = (enc - plain as f64) / plain as f64 * 100.0;
            assert!(
                overhead > lo && overhead < hi,
                "overhead {overhead:.2}% for {plain} bytes outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn reserve_is_capped_for_any_announced_size() {
        let mut w = PfsWriter::new(&KEY, &mut rng()).unwrap();
        w.reserve(u64::MAX);
        assert!(w.out.capacity() <= MAX_RESERVE as usize);
        w.write(b"still a normal file");
        assert_eq!(
            pfs_decrypt(&KEY, &w.finish()).unwrap(),
            b"still a normal file"
        );
    }

    #[test]
    fn rewrites_use_fresh_nonces() {
        let mut rng = rng();
        let b1 = pfs_encrypt(&KEY, b"same content", &mut rng).unwrap();
        let b2 = pfs_encrypt(&KEY, b"same content", &mut rng).unwrap();
        assert_ne!(b1, b2, "re-encryption must be probabilistic");
    }
}
