//! Tamper-evident audit trail: sealed, hash-chained records of every
//! authorization decision and mutation the enclave makes.
//!
//! # Record format and chain construction
//!
//! Each record is a small codec payload (logical time, request id,
//! operation label, principal/object fingerprints, decision, error
//! code) encrypted with AES-128-GCM ([`seg_crypto::pae`]) under an
//! HKDF-derived audit key ([`super::keys::KeyHierarchy::audit_key`]).
//! The record's **AAD binds its position in history**: a domain tag,
//! the record's monotonic sequence number, and the SHA-256 chain hash
//! of the *previous* record. The chain hash itself evolves as
//!
//! ```text
//! H_0       = SHA-256("segshare-audit-genesis")
//! H_{n+1}   = SHA-256(H_n || le64(n) || ciphertext_n)
//! ```
//!
//! so every ciphertext is pinned to an exact predecessor. A separate
//! sealed *head* record stores `(count, H_count, counter-anchor)` and
//! is rewritten on every append. With whole-file-system rollback
//! protection enabled, each append also increments a dedicated TEE
//! monotonic counter and anchors its value in the head; the anchor is
//! compared against the hardware counter both in [`AuditLog::verify`]
//! and — critically — at `AuditLog::load`, before the first new
//! append could re-anchor a rolled-back head. That closes the
//! remaining gap (replaying an old-but-valid head plus chain prefix
//! against a freshly restarted enclave). `load` also completes an
//! append interrupted by a crash between its two store writes, so a
//! benign crash never reads as tampering.
//!
//! All blobs live in the untrusted content store under `!audit-*`
//! names (like the sealed keys, they are self-protecting, so the
//! names are not hidden). What the untrusted host can do — and what
//! [`AuditLog::verify`] detects — maps exactly to the tamper classes:
//!
//! * **truncate**: a record named below `count` is gone;
//! * **reorder / substitute**: AAD binds seq + predecessor hash, so a
//!   record decrypts only in its original position;
//! * **bit-flip**: AES-GCM authentication fails;
//! * **head rewrite / stale head**: the head is sealed, cross-checked
//!   against the live in-memory chain, and (optionally) against the
//!   monotonic counter.
//!
//! # Declassification
//!
//! [`AuditLog::export`] is the audit trail's declassification point:
//! records decrypt only inside the enclave, and what leaves carries
//! stable keyed *fingerprints* of principals and objects (see
//! [`super::keys::KeyHierarchy::fingerprint`]) — never raw user ids,
//! paths, or key bytes.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use seg_crypto::pae::{pae_dec, pae_enc, PaeKey};
use seg_crypto::rng::SystemRng;
use seg_crypto::sha256::Sha256;
use seg_fs::codec::{Decoder, Encoder};
use seg_obs::TraceDecision;
use seg_sgx::Enclave;
use seg_store::ObjectStore;

use crate::error::SegShareError;

/// Monotonic-counter id anchoring the audit head (content/group/dedup
/// stores use 1–3).
const AUDIT_COUNTER_ID: u64 = 4;

/// Untrusted-store name of the sealed chain head.
const HEAD_NAME: &str = "!audit-head";

/// AAD domain tag for records (completed with seq + previous hash).
const RECORD_AAD_TAG: &[u8] = b"segshare-audit-v1";

/// AAD for the head record.
const HEAD_AAD: &[u8] = b"segshare-audit-head-v1";

fn record_name(seq: u64) -> String {
    format!("!audit-rec-{seq:016x}")
}

fn genesis() -> [u8; 32] {
    Sha256::digest(b"segshare-audit-genesis")
}

fn chain_hash(prev: &[u8; 32], seq: u64, ciphertext: &[u8]) -> [u8; 32] {
    let mut buf = Vec::with_capacity(32 + 8 + ciphertext.len());
    buf.extend_from_slice(prev);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(ciphertext);
    Sha256::digest(&buf)
}

fn record_aad(seq: u64, prev: &[u8; 32]) -> Vec<u8> {
    let mut aad = RECORD_AAD_TAG.to_vec();
    aad.extend_from_slice(&seq.to_le_bytes());
    aad.extend_from_slice(prev);
    aad
}

/// One decrypted audit record, as returned by [`AuditLog::export`].
///
/// `principal` and `object` are keyed fingerprints, not identities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Position in the chain.
    pub seq: u64,
    /// Enclave logical clock at append time.
    pub time: u64,
    /// Request correlation id (matches the trace ring).
    pub request_id: u64,
    /// Operation label (`put_file`, `add_user`, ...).
    pub op: String,
    /// Keyed principal fingerprint (0 = none).
    pub principal: u64,
    /// Keyed object name-hash (0 = none).
    pub object: u64,
    /// Outcome class.
    pub decision: TraceDecision,
    /// Error-code label (`ok` on success).
    pub code: String,
}

/// Borrowed event handed to `AuditLog::append` by the dispatcher.
#[derive(Debug, Clone, Copy)]
pub struct AuditEvent {
    /// Enclave logical clock.
    pub time: u64,
    /// Request correlation id.
    pub request_id: u64,
    /// Operation label.
    pub op: &'static str,
    /// Keyed principal fingerprint.
    pub principal: u64,
    /// Keyed object name-hash.
    pub object: u64,
    /// Outcome class.
    pub decision: TraceDecision,
    /// Error-code label (`ok` on success).
    pub code: &'static str,
}

/// Record payload formats. `AUD2` is written: LEB128 clock and request
/// id, one-byte label lengths and decision. The trail stores one record
/// per request, so this payload is its per-request footprint. `AUD1`
/// (fixed-width fields, `u32` lengths) is still read, for trails
/// written before `AUD2`.
fn encode_record(ev: &AuditEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    out.extend_from_slice(b"AUD2");
    put_varint(&mut out, ev.time);
    put_varint(&mut out, ev.request_id);
    put_label(&mut out, ev.op);
    out.extend_from_slice(&ev.principal.to_le_bytes());
    out.extend_from_slice(&ev.object.to_le_bytes());
    out.push(match ev.decision {
        TraceDecision::Allow => 0,
        TraceDecision::Deny => 1,
        TraceDecision::Error => 2,
        TraceDecision::Event => 3,
    });
    put_label(&mut out, ev.code);
    out
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_label(out: &mut Vec<u8>, label: &str) {
    out.push(u8::try_from(label.len()).expect("labels are compiled-in short names"));
    out.extend_from_slice(label.as_bytes());
}

fn get_varint(d: &mut Decoder<'_>) -> Result<u64, SegShareError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = d.u8()?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(tamper("audit record varint overflows"))
}

fn get_label(d: &mut Decoder<'_>) -> Result<String, SegShareError> {
    let len = usize::from(d.u8()?);
    String::from_utf8(d.raw(len)?.to_vec()).map_err(|_| tamper("audit label is not UTF-8"))
}

fn decode_record(seq: u64, data: &[u8]) -> Result<AuditRecord, SegShareError> {
    let mut d = Decoder::new(data);
    let v2 = data.starts_with(b"AUD2");
    d.tag(if v2 { b"AUD2" } else { b"AUD1" })?;
    let (time, request_id, op) = if v2 {
        (get_varint(&mut d)?, get_varint(&mut d)?, get_label(&mut d)?)
    } else {
        (d.u64()?, d.u64()?, d.str()?)
    };
    let principal = d.u64()?;
    let object = d.u64()?;
    let decision = match if v2 { u32::from(d.u8()?) } else { d.u32()? } {
        0 => TraceDecision::Allow,
        1 => TraceDecision::Deny,
        2 => TraceDecision::Error,
        _ => TraceDecision::Event,
    };
    let code = if v2 { get_label(&mut d)? } else { d.str()? };
    d.finish()?;
    Ok(AuditRecord {
        seq,
        time,
        request_id,
        op,
        principal,
        object,
        decision,
        code,
    })
}

fn encode_head(count: u64, head: &[u8; 32], anchor: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.tag(b"AUH1");
    e.u64(count);
    e.raw(head);
    e.u64(anchor);
    e.finish()
}

fn decode_head(data: &[u8]) -> Result<(u64, [u8; 32], u64), SegShareError> {
    let mut d = Decoder::new(data);
    d.tag(b"AUH1")?;
    let count = d.u64()?;
    let head: [u8; 32] = d.raw(32)?.try_into().expect("fixed length");
    let anchor = d.u64()?;
    d.finish()?;
    Ok((count, head, anchor))
}

/// Live chain state: how many records exist and the hash they chain to.
#[derive(Debug, Clone, Copy)]
struct ChainState {
    count: u64,
    head: [u8; 32],
}

/// Resumable position inside an incremental chain verification — the
/// running hash after `seq` records. Opaque to callers; hand it back
/// to [`AuditLog::verify_window`] unchanged.
#[derive(Debug, Clone, Copy)]
pub struct AuditScrubCursor {
    seq: u64,
    prev: [u8; 32],
}

impl AuditScrubCursor {
    /// Records verified so far in the current pass.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.seq
    }
}

/// Outcome of one [`AuditLog::verify_window`] call.
#[derive(Debug, Clone, Copy)]
pub struct AuditScrubStep {
    /// Records re-verified in this window.
    pub checked: u64,
    /// Whether this window completed a full pass (head, beyond-head,
    /// and counter-anchor checks all ran).
    pub complete: bool,
    /// Chain length observed during the window.
    pub chain_len: u64,
}

/// The enclave-resident audit log. `append` is serialized by an
/// internal mutex; `verify`/`export` walk the persisted chain.
pub struct AuditLog {
    key: PaeKey,
    store: Arc<dyn ObjectStore>,
    sgx: Arc<Enclave>,
    use_counter: bool,
    /// Batch (group-commit) mode: the head anchors `hw + 1` and the
    /// hardware increment is deferred to the durability point
    /// ([`AuditLog::commit_pending_anchor`]), mirroring the rollback
    /// tree's deferred root counters.
    batch: bool,
    state: Mutex<ChainState>,
    /// The anchor value the latest batch-mode head names while its
    /// deferred increment is outstanding.
    pending_anchor: Mutex<Option<u64>>,
    records_total: seg_obs::Counter,
    bytes_total: seg_obs::Counter,
    append_ns: Arc<seg_obs::Histogram>,
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("AuditLog")
            .field("count", &st.count)
            .field("use_counter", &self.use_counter)
            .finish()
    }
}

impl AuditLog {
    /// Opens (or initializes) the audit log: a fresh store starts the
    /// chain at genesis; on restart the sealed head restores the chain
    /// position so the enclave keeps extending the same history.
    ///
    /// Two launch-time checks close the restart window:
    ///
    /// * **Counter anchor** (with whole-FS rollback protection): the
    ///   sealed head's counter anchor must match the hardware counter
    ///   *now*, before any new append re-anchors the head — a
    ///   stale-but-authentic head (or a fully deleted trail against a
    ///   nonzero counter) is rejected here, so a restart cannot erase
    ///   the evidence of whole-trail rollback.
    /// * **Crash recovery**: [`AuditLog::append`] writes the record
    ///   before the head, so a crash in between leaves exactly one
    ///   record at position `count` that authenticates against the
    ///   sealed head's chain state. Such a record is *adopted* (the
    ///   interrupted append is completed, head rewritten); a record
    ///   there that does not authenticate is a forged append.
    ///
    /// # Errors
    ///
    /// Fails if a persisted head exists but does not authenticate, if
    /// the counter anchor mismatches, or if an unauthenticatable record
    /// sits beyond the head — tampering is detected at launch, not
    /// silently rebuilt.
    pub(crate) fn load(
        key: PaeKey,
        store: Arc<dyn ObjectStore>,
        sgx: Arc<Enclave>,
        use_counter: bool,
        batch: bool,
        obs: &seg_obs::Registry,
    ) -> Result<AuditLog, SegShareError> {
        let (mut state, anchor, had_head) = match sgx.boundary().ocall(|| store.get(HEAD_NAME))? {
            None => (
                ChainState {
                    count: 0,
                    head: genesis(),
                },
                0,
                false,
            ),
            Some(blob) => {
                let body = pae_dec(&key, &blob, HEAD_AAD)
                    .map_err(|_| tamper("audit head failed authentication"))?;
                let (count, head, anchor) = decode_head(&body)?;
                (ChainState { count, head }, anchor, true)
            }
        };
        let ctr = sgx.counter(AUDIT_COUNTER_ID);
        let mut hw = if use_counter { ctr.read() } else { 0 };
        if batch && use_counter && anchor == hw + 1 {
            // Batch-mode crash window: the head (and its record) became
            // durable but the deferred increment was lost. The head
            // anchors exactly one ahead — a position only the genuinely
            // newest head can occupy, since every older head's anchor is
            // already covered by the counter. Catch up by one; any
            // larger gap still reads as rollback below.
            ctr.increment()?;
            sgx.boundary().charge(ctr.increment_latency_ns());
            hw = anchor;
        }
        let orphan_name = record_name(state.count);
        match sgx.boundary().ocall(|| store.get(&orphan_name))? {
            Some(blob) => {
                pae_dec(&key, &blob, &record_aad(state.count, &state.head)).map_err(|_| {
                    tamper("audit record beyond sealed head does not authenticate (forged append)")
                })?;
                // A genuine record the enclave sealed at this exact
                // position: a crash interrupted the append between the
                // record write and the head write. Complete it.
                let new_anchor = if !use_counter {
                    0
                } else if hw == anchor {
                    // The crash hit before the counter increment.
                    let value = ctr.increment()?;
                    sgx.boundary().charge(ctr.increment_latency_ns());
                    value
                } else if hw == anchor + 1 {
                    // The crash hit between the increment and the head
                    // write; the counter already covers this record.
                    hw
                } else {
                    return Err(tamper(
                        "audit counter anchor mismatch at launch (whole-trail rollback)",
                    ));
                };
                let new_head = chain_hash(&state.head, state.count, &blob);
                let head_blob = pae_enc(
                    &key,
                    &encode_head(state.count + 1, &new_head, new_anchor),
                    HEAD_AAD,
                    &mut SystemRng::new(),
                );
                sgx.boundary().ocall(|| store.put(HEAD_NAME, &head_blob))?;
                state = ChainState {
                    count: state.count + 1,
                    head: new_head,
                };
            }
            None if use_counter && hw != anchor => {
                return Err(tamper(if had_head {
                    "audit counter anchor mismatch at launch (whole-trail rollback)"
                } else {
                    "audit head missing but counter nonzero (whole-trail deletion)"
                }));
            }
            None => {}
        }
        Ok(AuditLog {
            key,
            store,
            sgx,
            use_counter,
            batch,
            state: Mutex::new(state),
            pending_anchor: Mutex::new(None),
            records_total: obs.counter("seg_audit_records_total"),
            bytes_total: obs.counter("seg_audit_bytes_total"),
            append_ns: obs.histogram("seg_audit_append_ns"),
        })
    }

    /// Cumulative sealed bytes appended (record + head blobs). Read by
    /// the metering plane to attribute audit I/O per principal.
    #[must_use]
    pub(crate) fn bytes_appended(&self) -> u64 {
        self.bytes_total.get()
    }

    /// Number of records in the live chain.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.state.lock().count
    }

    /// Whether the chain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one sealed record and advances the sealed head.
    /// Production callers go through [`AuditLog::append_sealing`]; this
    /// shorthand exists for the chain tests below.
    ///
    /// # Errors
    ///
    /// Propagates storage and counter failures; on error the in-memory
    /// chain state is left unchanged, so a retry re-seals the same
    /// position.
    #[cfg(test)]
    pub(crate) fn append(&self, ev: &AuditEvent) -> Result<(), SegShareError> {
        self.append_sealing(ev, || {})
    }

    /// [`AuditLog::append`] with a batch-boundary hook: `seal_batch`
    /// runs *inside the chain state lock*, after the head write — so
    /// the group-commit frame boundary always falls between appends and
    /// chain order equals log order. The hook runs even when the append
    /// fails (fail-closed: whatever the request's batch already holds
    /// is still sealed and made durable).
    pub(crate) fn append_sealing(
        &self,
        ev: &AuditEvent,
        seal_batch: impl FnOnce(),
    ) -> Result<(), SegShareError> {
        let start = Instant::now();
        let mut st = self.state.lock();
        let result = self.append_locked(&mut st, ev);
        seal_batch();
        drop(st);
        let bytes = result?;
        self.records_total.inc();
        self.bytes_total.add(bytes);
        self.append_ns.record_duration(start.elapsed());
        Ok(())
    }

    fn append_locked(&self, st: &mut ChainState, ev: &AuditEvent) -> Result<u64, SegShareError> {
        let seq = st.count;
        let blob = pae_enc(
            &self.key,
            &encode_record(ev),
            &record_aad(seq, &st.head),
            &mut SystemRng::new(),
        );
        let name = record_name(seq);
        self.sgx.boundary().ocall(|| self.store.put(&name, &blob))?;
        let new_head = chain_hash(&st.head, seq, &blob);
        let anchor = if !self.use_counter {
            0
        } else if self.batch {
            // Deferred anchor: the head names the post-commit value; the
            // hardware increment happens once the batch is durable
            // (`commit_pending_anchor`), so a crash beforehand leaves
            // the counter matching the last durable head.
            let mut pending = self.pending_anchor.lock();
            let target = pending.unwrap_or_else(|| self.sgx.counter(AUDIT_COUNTER_ID).read() + 1);
            *pending = Some(target);
            target
        } else {
            let ctr = self.sgx.counter(AUDIT_COUNTER_ID);
            let value = ctr.increment()?;
            // Real counter increments cost tens of milliseconds; charge
            // them like the rollback root counter does.
            self.sgx.boundary().charge(ctr.increment_latency_ns());
            value
        };
        let head_blob = pae_enc(
            &self.key,
            &encode_head(seq + 1, &new_head, anchor),
            HEAD_AAD,
            &mut SystemRng::new(),
        );
        self.sgx
            .boundary()
            .ocall(|| self.store.put(HEAD_NAME, &head_blob))?;
        st.count = seq + 1;
        st.head = new_head;
        Ok((blob.len() + head_blob.len()) as u64)
    }

    /// Performs the deferred counter increment for the latest batch-mode
    /// head. Runs at the durability point, after the group commit's
    /// fsync acknowledged the batch; the increment lands before the
    /// pending marker clears, so a concurrent verifier always sees
    /// either the pending target or matching hardware.
    pub(crate) fn commit_pending_anchor(&self) -> Result<(), SegShareError> {
        let target = *self.pending_anchor.lock();
        let Some(target) = target else {
            return Ok(());
        };
        let ctr = self.sgx.counter(AUDIT_COUNTER_ID);
        while ctr.read() < target {
            ctr.increment()?;
            self.sgx.boundary().charge(ctr.increment_latency_ns());
        }
        *self.pending_anchor.lock() = None;
        Ok(())
    }

    /// Whether `anchor` is the registered pending target — the
    /// one-ahead window a batch-mode head legitimately occupies between
    /// its write and the post-durability increment.
    fn anchor_pending(&self, anchor: u64) -> bool {
        self.batch && *self.pending_anchor.lock() == Some(anchor)
    }

    /// Walks the persisted chain and proves it intact, returning the
    /// record count. Detects truncation, reordering, substitution,
    /// bit-flips, head rewrites, divergence from the live in-memory
    /// chain, and (with the counter anchor) whole-trail rollback.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] naming the tamper class.
    pub fn verify(&self) -> Result<u64, SegShareError> {
        self.walk(false).map(|(count, _)| count)
    }

    /// Decrypts the full verified chain for declassification. Records
    /// carry fingerprints only; raw identities were never stored.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`AuditLog::verify`] fails.
    pub fn export(&self) -> Result<Vec<AuditRecord>, SegShareError> {
        self.walk(true).map(|(_, records)| records)
    }

    /// Advances an incremental chain verification by at most `budget`
    /// records — the scrubber's entry point. Pass the same cursor back
    /// on every call; `None` starts a fresh pass from genesis.
    ///
    /// Records are immutable once appended and the running hash after
    /// `seq` records depends only on records `0..seq`, so a cursor
    /// stays valid across windows even while appends extend the chain.
    /// When the cursor catches up with the live chain the pass
    /// completes: the persisted head must authenticate and match the
    /// re-derived hash *and* the live in-memory state, no record may
    /// sit beyond the head, and (with whole-FS rollback protection)
    /// the counter anchor must match the hardware counter — the same
    /// end-of-chain checks as [`AuditLog::verify`], paid once per pass
    /// instead of once per call. On completion the cursor resets to
    /// `None` so the next call starts the next pass.
    ///
    /// # Errors
    ///
    /// Returns [`SegShareError::Integrity`] naming the tamper class,
    /// exactly as [`AuditLog::verify`] would. The cursor is reset on
    /// error so a subsequent call re-checks from genesis.
    pub fn verify_window(
        &self,
        cursor: &mut Option<AuditScrubCursor>,
        budget: u64,
    ) -> Result<AuditScrubStep, SegShareError> {
        // The state lock keeps appends out of this window; the window
        // is budgeted, so the hold time is bounded by the caller.
        let st = self.state.lock();
        let mut cur = match cursor.take() {
            // A restore/reset can shrink the chain under a live cursor;
            // a stale position simply restarts the pass.
            Some(c) if c.seq <= st.count => c,
            _ => AuditScrubCursor {
                seq: 0,
                prev: genesis(),
            },
        };
        let mut checked = 0u64;
        let result = (|| -> Result<bool, SegShareError> {
            while checked < budget && cur.seq < st.count {
                let name = record_name(cur.seq);
                let blob = self
                    .sgx
                    .boundary()
                    .ocall(|| self.store.get(&name))?
                    .ok_or_else(|| {
                        tamper(&format!("audit record {} missing (truncation)", cur.seq))
                    })?;
                pae_dec(&self.key, &blob, &record_aad(cur.seq, &cur.prev)).map_err(|_| {
                    tamper(&format!(
                        "audit record {} failed authentication (bit-flip, reorder, or \
                         substitution)",
                        cur.seq
                    ))
                })?;
                cur.prev = chain_hash(&cur.prev, cur.seq, &blob);
                cur.seq += 1;
                checked += 1;
            }
            if cur.seq < st.count {
                return Ok(false);
            }
            // Caught up: close the pass with the full head checks.
            let (count, head, anchor) =
                match self.sgx.boundary().ocall(|| self.store.get(HEAD_NAME))? {
                    Some(blob) => {
                        let body = pae_dec(&self.key, &blob, HEAD_AAD)
                            .map_err(|_| tamper("audit head failed authentication"))?;
                        decode_head(&body)?
                    }
                    None if st.count == 0 => (0, genesis(), 0),
                    None => return Err(tamper("audit head missing (truncation)")),
                };
            if count != st.count || head != st.head {
                return Err(tamper(
                    "persisted audit head diverges from live chain (rollback or stale head)",
                ));
            }
            if cur.prev != head {
                return Err(tamper("audit chain head mismatch"));
            }
            let next = record_name(count);
            if self.sgx.boundary().ocall(|| self.store.exists(&next))? {
                return Err(tamper(
                    "audit record beyond sealed head (forged append or rolled-back head)",
                ));
            }
            if self.use_counter {
                let hw = self.sgx.counter(AUDIT_COUNTER_ID).read();
                if hw != anchor && !self.anchor_pending(anchor) {
                    return Err(tamper(
                        "audit counter anchor mismatch (whole-trail rollback)",
                    ));
                }
            }
            Ok(true)
        })();
        let chain_len = st.count;
        drop(st);
        match result {
            Ok(complete) => {
                if !complete {
                    *cursor = Some(cur);
                }
                Ok(AuditScrubStep {
                    checked,
                    complete,
                    chain_len,
                })
            }
            Err(e) => Err(e),
        }
    }

    fn walk(&self, collect: bool) -> Result<(u64, Vec<AuditRecord>), SegShareError> {
        // Holding the state lock keeps appends out while we compare the
        // persisted chain against the live one.
        let st = self.state.lock();
        let (count, head, anchor) = match self.sgx.boundary().ocall(|| self.store.get(HEAD_NAME))? {
            Some(blob) => {
                let body = pae_dec(&self.key, &blob, HEAD_AAD)
                    .map_err(|_| tamper("audit head failed authentication"))?;
                decode_head(&body)?
            }
            None if st.count == 0 => (0, genesis(), 0),
            None => return Err(tamper("audit head missing (truncation)")),
        };
        if count != st.count || head != st.head {
            return Err(tamper(
                "persisted audit head diverges from live chain (rollback or stale head)",
            ));
        }
        let mut prev = genesis();
        let mut records = Vec::new();
        for seq in 0..count {
            let name = record_name(seq);
            let blob = self
                .sgx
                .boundary()
                .ocall(|| self.store.get(&name))?
                .ok_or_else(|| tamper(&format!("audit record {seq} missing (truncation)")))?;
            let body = pae_dec(&self.key, &blob, &record_aad(seq, &prev)).map_err(|_| {
                tamper(&format!(
                    "audit record {seq} failed authentication (bit-flip, reorder, or substitution)"
                ))
            })?;
            if collect {
                records.push(decode_record(seq, &body)?);
            }
            prev = chain_hash(&prev, seq, &blob);
        }
        if prev != head {
            return Err(tamper("audit chain head mismatch"));
        }
        let next = record_name(count);
        if self.sgx.boundary().ocall(|| self.store.exists(&next))? {
            return Err(tamper(
                "audit record beyond sealed head (forged append or rolled-back head)",
            ));
        }
        if self.use_counter {
            let hw = self.sgx.counter(AUDIT_COUNTER_ID).read();
            if hw != anchor && !self.anchor_pending(anchor) {
                return Err(tamper(
                    "audit counter anchor mismatch (whole-trail rollback)",
                ));
            }
        }
        Ok((count, records))
    }
}

fn tamper(what: &str) -> SegShareError {
    SegShareError::Integrity(format!("audit: {what}"))
}

/// JSON array rendering of exported audit records. Labels are
/// compiled-in operation/code names; principals and objects are hex
/// fingerprints — nothing here needs escaping.
#[must_use]
pub fn records_json(records: &[AuditRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"seq\": {}, \"time\": {}, \"request_id\": {}, \"op\": \"{}\", \
             \"principal\": \"{:016x}\", \"object\": \"{:016x}\", \"decision\": \"{}\", \
             \"code\": \"{}\"}}",
            r.seq,
            r.time,
            r.request_id,
            r.op,
            r.principal,
            r.object,
            r.decision.label(),
            r.code
        ));
    }
    if !records.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_sgx::{EnclaveImage, Platform};
    use seg_store::MemStore;

    /// Loads a log against `store` on `platform` — counters are scoped
    /// per platform, so restart tests must reuse one platform.
    fn load_log(
        platform: &Platform,
        store: &Arc<MemStore>,
        use_counter: bool,
    ) -> Result<AuditLog, SegShareError> {
        let sgx = Arc::new(platform.launch(&EnclaveImage::from_code(b"audit-test")));
        AuditLog::load(
            PaeKey::from_bytes(&[9u8; 16]),
            Arc::clone(store) as Arc<dyn ObjectStore>,
            sgx,
            use_counter,
            false,
            &seg_obs::Registry::new(),
        )
    }

    fn audit_log(store: Arc<MemStore>, use_counter: bool) -> AuditLog {
        load_log(&Platform::new_with_seed(7), &store, use_counter).expect("load")
    }

    fn event(i: u64) -> AuditEvent {
        AuditEvent {
            time: 1_000 + i,
            request_id: i,
            op: "put_file",
            principal: 0xaa00 + i,
            object: 0xbb00 + i,
            decision: TraceDecision::Allow,
            code: "ok",
        }
    }

    #[test]
    fn append_verify_export_roundtrip() {
        let store = Arc::new(MemStore::new());
        let log = audit_log(Arc::clone(&store), false);
        assert_eq!(log.verify().unwrap(), 0);
        for i in 0..5 {
            log.append(&event(i)).unwrap();
        }
        assert_eq!(log.verify().unwrap(), 5);
        let records = log.export().unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[3].request_id, 3);
        assert_eq!(records[3].op, "put_file");
        assert_eq!(records[3].decision, TraceDecision::Allow);
        let json = records_json(&records);
        assert!(json.contains("\"op\": \"put_file\""), "{json}");
        assert_eq!(records_json(&[]), "[]\n");
    }

    #[test]
    fn verify_window_walks_chain_incrementally() {
        let store = Arc::new(MemStore::new());
        let log = audit_log(Arc::clone(&store), false);
        for i in 0..7 {
            log.append(&event(i)).unwrap();
        }
        let mut cursor = None;
        let step = log.verify_window(&mut cursor, 3).unwrap();
        assert_eq!((step.checked, step.complete), (3, false));
        assert_eq!(cursor.unwrap().position(), 3);
        // Appends between windows extend the chain without
        // invalidating the cursor.
        log.append(&event(7)).unwrap();
        let step = log.verify_window(&mut cursor, 3).unwrap();
        assert_eq!((step.checked, step.complete), (3, false));
        let step = log.verify_window(&mut cursor, 100).unwrap();
        assert_eq!((step.checked, step.complete), (2, true));
        assert_eq!(step.chain_len, 8);
        assert!(cursor.is_none(), "completed pass resets the cursor");
        // An empty chain completes immediately.
        let empty = audit_log(Arc::new(MemStore::new()), false);
        let step = empty.verify_window(&mut None, 10).unwrap();
        assert_eq!((step.checked, step.complete), (0, true));
    }

    #[test]
    fn verify_window_detects_midchain_tamper() {
        let store = Arc::new(MemStore::new());
        let log = audit_log(Arc::clone(&store), false);
        for i in 0..6 {
            log.append(&event(i)).unwrap();
        }
        // Flip a bit in record 4.
        let name = record_name(4);
        let mut blob = store.get(&name).unwrap().unwrap();
        blob[10] ^= 1;
        store.put(&name, &blob).unwrap();
        let mut cursor = None;
        let step = log.verify_window(&mut cursor, 4).unwrap();
        assert!(!step.complete);
        let err = log.verify_window(&mut cursor, 4).unwrap_err();
        assert!(err.to_string().contains("failed authentication"), "{err}");
        assert!(cursor.is_none(), "error resets the pass");
        // Truncation of the head is caught at pass completion.
        let store2 = Arc::new(MemStore::new());
        let log2 = audit_log(Arc::clone(&store2), false);
        log2.append(&event(0)).unwrap();
        store2.delete(&record_name(0)).unwrap();
        let err = log2.verify_window(&mut None, 10).unwrap_err();
        assert!(err.to_string().contains("missing (truncation)"), "{err}");
    }

    #[test]
    fn restart_resumes_the_same_chain() {
        let store = Arc::new(MemStore::new());
        let log = audit_log(Arc::clone(&store), false);
        log.append(&event(0)).unwrap();
        log.append(&event(1)).unwrap();
        drop(log);
        let log = audit_log(Arc::clone(&store), false);
        assert_eq!(log.len(), 2);
        log.append(&event(2)).unwrap();
        assert_eq!(log.verify().unwrap(), 3);
    }

    /// `append` writes the record, then the head; simulate a crash in
    /// between by rolling back only the head and restarting. The
    /// orphaned-but-genuine record must be adopted, not reported as a
    /// forged append.
    #[test]
    fn interrupted_append_is_adopted_on_restart() {
        for use_counter in [false, true] {
            let platform = Platform::new_with_seed(40 + use_counter as u64);
            let store = Arc::new(MemStore::new());
            let log = load_log(&platform, &store, use_counter).expect("fresh load");
            log.append(&event(0)).unwrap();
            log.append(&event(1)).unwrap();
            let stale_head = store.get(HEAD_NAME).unwrap().unwrap();
            log.append(&event(2)).unwrap();
            drop(log);
            // Crash state: record 2 persisted (and, with the counter on,
            // the counter incremented) but the head write "was lost".
            store.put(HEAD_NAME, &stale_head).unwrap();
            let log = load_log(&platform, &store, use_counter).expect("recovery");
            assert_eq!(log.len(), 3, "use_counter={use_counter}");
            assert_eq!(log.verify().unwrap(), 3);
            assert_eq!(log.export().unwrap().len(), 3);
            // The chain keeps extending normally after adoption.
            log.append(&event(3)).unwrap();
            assert_eq!(log.verify().unwrap(), 4);
        }
    }

    /// The pre-increment crash window: the record is persisted but the
    /// counter was never bumped (here: the trail was written before the
    /// counter guard was enabled). Adoption must increment the counter
    /// itself so the rewritten head anchors correctly.
    #[test]
    fn adoption_increments_counter_when_crash_preceded_increment() {
        let platform = Platform::new_with_seed(42);
        let store = Arc::new(MemStore::new());
        let log = load_log(&platform, &store, false).expect("fresh load");
        log.append(&event(0)).unwrap();
        let stale_head = store.get(HEAD_NAME).unwrap().unwrap();
        log.append(&event(1)).unwrap();
        drop(log);
        store.put(HEAD_NAME, &stale_head).unwrap();
        // Counter is still 0 (= the stale head's anchor): hw == anchor.
        let log = load_log(&platform, &store, true).expect("recovery");
        assert_eq!(log.len(), 2);
        assert_eq!(log.verify().unwrap(), 2);
    }

    /// Loads a batch-mode (deferred-anchor) log on `platform`.
    fn load_batch_log(
        platform: &Platform,
        store: &Arc<MemStore>,
    ) -> Result<AuditLog, SegShareError> {
        let sgx = Arc::new(platform.launch(&EnclaveImage::from_code(b"audit-test")));
        AuditLog::load(
            PaeKey::from_bytes(&[9u8; 16]),
            Arc::clone(store) as Arc<dyn ObjectStore>,
            sgx,
            true,
            true,
            &seg_obs::Registry::new(),
        )
    }

    /// Batch mode defers the anchor increment to the durability point:
    /// verification accepts the one-ahead window while the increment is
    /// pending, and a crash inside the window is adopted (counter
    /// caught up by one) at the next load — while a genuine rollback
    /// past that window still fails.
    #[test]
    fn batch_pending_anchor_window_and_adoption() {
        let platform = Platform::new_with_seed(46);
        let store = Arc::new(MemStore::new());
        let log = load_batch_log(&platform, &store).expect("fresh load");
        log.append(&event(0)).unwrap();
        // Pending window: head anchors hw + 1, verify accepts.
        assert_eq!(log.verify().unwrap(), 1);
        log.commit_pending_anchor().unwrap();
        assert_eq!(log.verify().unwrap(), 1);
        // Crash with the increment outstanding.
        log.append(&event(1)).unwrap();
        drop(log);
        let log = load_batch_log(&platform, &store).expect("adoption");
        assert_eq!(log.len(), 2);
        assert_eq!(log.verify().unwrap(), 2);
        // A rollback of head + records past the adopted state fails.
        let old = store.snapshot();
        log.append(&event(2)).unwrap();
        log.commit_pending_anchor().unwrap();
        log.append(&event(3)).unwrap();
        log.commit_pending_anchor().unwrap();
        drop(log);
        store.restore(old);
        let err = load_batch_log(&platform, &store).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("rollback")),
            "{err:?}"
        );
    }

    /// §V-E across restart: rolling the trail back to an old-but-valid
    /// consistent prefix must fail at *load*, before any new append
    /// could re-anchor the head and erase the evidence.
    #[test]
    fn whole_trail_rollback_is_detected_at_load() {
        let platform = Platform::new_with_seed(43);
        let store = Arc::new(MemStore::new());
        let log = load_log(&platform, &store, true).expect("fresh load");
        log.append(&event(0)).unwrap();
        let old_head = store.get(HEAD_NAME).unwrap().unwrap();
        log.append(&event(1)).unwrap();
        log.append(&event(2)).unwrap();
        drop(log);
        // Variant A: roll back to a head-plus-one-record state that
        // mimics an interrupted append — record 1 still present and
        // authentic at its position — but the counter is two ahead, so
        // adoption must refuse.
        store.put(HEAD_NAME, &old_head).unwrap();
        store.delete(&record_name(2)).unwrap();
        let err = load_log(&platform, &store, true).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("rollback")),
            "{err:?}"
        );
        // Variant B: a fully consistent prefix (no trailing record).
        store.delete(&record_name(1)).unwrap();
        let err = load_log(&platform, &store, true).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("rollback")),
            "{err:?}"
        );
    }

    /// Deleting the whole trail (head included) against a nonzero
    /// counter is whole-trail deletion, detected at load.
    #[test]
    fn deleted_trail_with_nonzero_counter_is_detected_at_load() {
        let platform = Platform::new_with_seed(44);
        let store = Arc::new(MemStore::new());
        let log = load_log(&platform, &store, true).expect("fresh load");
        log.append(&event(0)).unwrap();
        log.append(&event(1)).unwrap();
        drop(log);
        for key in store.list().unwrap() {
            store.delete(&key).unwrap();
        }
        let err = load_log(&platform, &store, true).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("deletion")),
            "{err:?}"
        );
    }

    /// A record beyond the head that does NOT authenticate in that
    /// position is a forged append, rejected at load (a genuine crash
    /// remnant authenticates and is adopted instead).
    #[test]
    fn forged_record_beyond_head_is_rejected_at_load() {
        let platform = Platform::new_with_seed(45);
        let store = Arc::new(MemStore::new());
        let log = load_log(&platform, &store, false).expect("fresh load");
        log.append(&event(0)).unwrap();
        log.append(&event(1)).unwrap();
        drop(log);
        let donor = store.get(&record_name(0)).unwrap().unwrap();
        store.put(&record_name(2), &donor).unwrap();
        let err = load_log(&platform, &store, false).unwrap_err();
        assert!(
            matches!(&err, SegShareError::Integrity(m) if m.contains("forged")),
            "{err:?}"
        );
    }

    #[test]
    fn aud1_records_still_decode() {
        let ev = event(1);
        let mut e = Encoder::new();
        e.tag(b"AUD1");
        e.u64(ev.time);
        e.u64(ev.request_id);
        e.str(ev.op);
        e.u64(ev.principal);
        e.u64(ev.object);
        e.u32(0);
        e.str(ev.code);
        let old = decode_record(7, &e.finish()).unwrap();
        let new = decode_record(7, &encode_record(&ev)).unwrap();
        assert_eq!(old, new);
        assert!(encode_record(&ev).len() < 48, "AUD2 stays compact");
    }

    #[test]
    fn record_codec_rejects_truncation() {
        let ev = event(1);
        let encoded = encode_record(&ev);
        let decoded = decode_record(1, &encoded).unwrap();
        assert_eq!(decoded.op, "put_file");
        assert_eq!(decoded.code, "ok");
        for cut in 0..encoded.len() {
            assert!(decode_record(1, &encoded[..cut]).is_err(), "cut {cut}");
        }
    }
}
