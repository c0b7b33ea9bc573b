//! Per-connection session state: the trusted TLS interface plus the
//! request handler (§IV-B, Algorithm 1).
//!
//! The untrusted host owns the socket and shuttles opaque frames; this
//! module terminates the handshake, decrypts requests, authorizes them
//! with the identity from the client certificate (separation of
//! authentication and authorization, F8), executes them, and encrypts
//! responses. Uploads and downloads are chunked so the enclave holds
//! only one chunk at a time (§VI).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::MutexGuard;
use seg_crypto::ed25519::{PublicKey, SecretKey};
use seg_crypto::rng::SystemRng;
use seg_fs::{Access, ChildKind, GroupId, Perm, SegPath, UserId};
use seg_obs::TraceDecision;
use seg_pki::Certificate;
use seg_proto::{ErrorCode, Request, Response, CHUNK_LEN};
use seg_store::CommitTicket;
use seg_tls::{ServerHandshake, TlsChannel};

use crate::error::SegShareError;

use super::file_manager::{DownloadContext, UploadContext};
use super::locks::{LockIntent, LockKey, LockRequest};
use super::SegShareEnclave;

// The established variant is naturally the big one (channel state plus
// certificate); sessions are few and long-lived, so the size skew is fine.
#[allow(clippy::large_enum_variant)]
enum SessionState {
    Handshaking(Box<ServerHandshake>),
    Established {
        channel: TlsChannel,
        user: UserId,
        certificate: Certificate,
    },
    Failed,
}

/// One client connection's trusted-side state.
pub struct EnclaveSession {
    state: SessionState,
    upload: Option<UploadContext>,
    /// Bytes of a rejected upload still to swallow silently (the error
    /// response was already queued; the client learns of it after
    /// streaming).
    discard: u64,
    download: Option<DownloadContext>,
    out: VecDeque<Vec<u8>>,
    rng: SystemRng,
}

impl std::fmt::Debug for EnclaveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            SessionState::Handshaking(_) => "handshaking",
            SessionState::Established { .. } => "established",
            SessionState::Failed => "failed",
        };
        f.debug_struct("EnclaveSession")
            .field("state", &state)
            .finish()
    }
}

fn deny(msg: impl Into<String>) -> SegShareError {
    SegShareError::request(ErrorCode::Denied, msg)
}

fn not_found(msg: impl Into<String>) -> SegShareError {
    SegShareError::request(ErrorCode::NotFound, msg)
}

fn bad_request(msg: impl Into<String>) -> SegShareError {
    SegShareError::request(ErrorCode::BadRequest, msg)
}

/// Parses a group operand that may be a regular group or a user's
/// default group (`~user`) — "permission requests also apply for
/// individual users" via their default groups (§IV-B).
fn parse_perm_group(s: &str) -> Result<GroupId, SegShareError> {
    if let Some(user) = s.strip_prefix('~') {
        Ok(UserId::new(user)
            .map_err(|e| bad_request(e.to_string()))?
            .default_group())
    } else {
        GroupId::new(s).map_err(|e| bad_request(e.to_string()))
    }
}

impl EnclaveSession {
    pub(crate) fn new(
        server_cert: Arc<Certificate>,
        server_key: SecretKey,
        ca_key: PublicKey,
        now: u64,
    ) -> EnclaveSession {
        let mut rng = SystemRng::new();
        let hs = ServerHandshake::new(server_cert, server_key, ca_key, now, &mut rng);
        EnclaveSession {
            state: SessionState::Handshaking(Box::new(hs)),
            upload: None,
            discard: 0,
            download: None,
            out: VecDeque::new(),
            rng,
        }
    }

    /// The authenticated user, once the handshake completed.
    #[must_use]
    pub fn user(&self) -> Option<&UserId> {
        match &self.state {
            SessionState::Established { user, .. } => Some(user),
            _ => None,
        }
    }

    /// The client certificate presented on this session.
    #[must_use]
    pub fn client_certificate(&self) -> Option<&Certificate> {
        match &self.state {
            SessionState::Established { certificate, .. } => Some(certificate),
            _ => None,
        }
    }

    /// Feeds one wire frame from the untrusted host into the enclave.
    ///
    /// # Errors
    ///
    /// An error is *fatal to the session* (handshake failure, record
    /// forgery, protocol violation); request-level failures are reported
    /// to the client as [`Response::Error`] instead.
    pub fn handle_frame(
        &mut self,
        enclave: &SegShareEnclave,
        frame: &[u8],
    ) -> Result<(), SegShareError> {
        match std::mem::replace(&mut self.state, SessionState::Failed) {
            SessionState::Handshaking(mut hs) => {
                // Profiler root: handshake frames never reach the
                // request dispatcher, so they get their own root op.
                let _prof = enclave.profile_root("handshake");
                let step = {
                    let _authn = seg_obs::prof::phase("authn");
                    hs.process(frame, &mut self.rng)?
                };
                for reply in step.replies {
                    self.out.push_back(reply);
                }
                if step.done {
                    let (channel, cert) = hs.into_established().expect("handshake reported done");
                    let user = cert
                        .subject()
                        .user_id()
                        .expect("server handshake only accepts user certificates")
                        .clone();
                    self.state = SessionState::Established {
                        channel,
                        user,
                        certificate: cert,
                    };
                } else {
                    self.state = SessionState::Handshaking(hs);
                }
                Ok(())
            }
            SessionState::Established {
                mut channel,
                user,
                certificate,
            } => {
                // Profiler root opens before the record is even
                // decrypted (so tls_record time is attributed) under a
                // placeholder op; once the request is decoded the root
                // is renamed to the real operation.
                let _prof = enclave.profile_root("request");
                let plaintext = channel.open(frame)?;
                let request = {
                    let _ser = seg_obs::prof::phase("serialize");
                    Request::decode(&plaintext)?
                };
                seg_obs::prof::set_root_op(request.op_name());
                let wire_len = plaintext.len() as u64;
                let responses = self.handle_request(enclave, &user, request, wire_len)?;
                for response in responses {
                    let encoded = {
                        let _ser = seg_obs::prof::phase("serialize");
                        response.encode()
                    };
                    let record = channel.seal(&encoded);
                    self.out.push_back(record);
                }
                self.state = SessionState::Established {
                    channel,
                    user,
                    certificate,
                };
                Ok(())
            }
            SessionState::Failed => Err(SegShareError::Protocol(
                "frame after session failure".to_string(),
            )),
        }
    }

    /// Pops the next wire frame for the untrusted host to send; lazily
    /// materializes download chunks so only one chunk is ever buffered.
    ///
    /// # Errors
    ///
    /// Fails on storage/crypto failures while producing download chunks.
    pub fn next_outgoing(
        &mut self,
        enclave: &SegShareEnclave,
    ) -> Result<Option<Vec<u8>>, SegShareError> {
        if let Some(frame) = self.out.pop_front() {
            return Ok(Some(frame));
        }
        if let Some(download) = self.download.as_mut() {
            // Streamed download chunks are produced outside any request
            // frame, so they carry their own profiler root.
            let _prof = enclave.profile_root("get_stream");
            // Register the chunk as enclave memory while it exists.
            let chunk = download.next_chunk()?;
            match chunk {
                Some(bytes) => {
                    let _epc = enclave.sgx().epc().alloc(bytes.len() as u64);
                    let response = Response::Data { bytes };
                    let record = match &mut self.state {
                        SessionState::Established { channel, .. } => {
                            channel.seal(&response.encode())
                        }
                        _ => {
                            return Err(SegShareError::Protocol(
                                "download outside established session".to_string(),
                            ))
                        }
                    };
                    Ok(Some(record))
                }
                None => {
                    self.download = None;
                    Ok(None)
                }
            }
        } else {
            Ok(None)
        }
    }

    /// Whether a download is still streaming.
    #[must_use]
    pub fn download_active(&self) -> bool {
        self.download.is_some() || !self.out.is_empty()
    }

    // ------------------------------------------------------- dispatching

    fn handle_request(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        request: Request,
        wire_len: u64,
    ) -> Result<Vec<Response>, SegShareError> {
        // The span label is the compiled-in operation name — never the
        // request's operands (seg-obs trust-boundary rule); operands are
        // carried only as keyed fingerprints.
        let probe = enclave.request_probe();
        let request_id = enclave.next_request_id();
        let principal = enclave.fingerprint_user(user);
        let object = request_object(&request).map_or(0, |name| enclave.fingerprint_name(name));
        // Attribution operands resolve before the request is consumed:
        // the touched group and the top-level path component, each
        // reduced to the same keyed fingerprints the span carries (0 =
        // the request touches no operand of that kind). Skipped
        // entirely — including the HMACs — while introspection is off.
        let (group, prefix) = if probe.is_some() {
            (
                request_group(&request).map_or(0, |g| enclave.fingerprint_name(g)),
                self.request_prefix(&request)
                    .map_or(0, |p| enclave.fingerprint_name(&p)),
            )
        } else {
            (0, 0)
        };
        let result =
            self.handle_request_inner(enclave, user, request, request_id, principal, object);
        if let Some(probe) = probe {
            let ok = matches!(
                &result,
                Ok(responses) if !responses.iter().any(|r| matches!(r, Response::Error { .. }))
            );
            let resp_bytes = result.as_deref().map_or(0, response_bytes);
            let keys = [principal, group, prefix, object];
            enclave.request_done(probe, keys, ok, wire_len, resp_bytes);
        }
        result
    }

    /// The top-level path component a request touches (the attribution
    /// sketch's prefix axis), e.g. `"/docs"` for `/docs/a/b.txt`. `Data`
    /// chunks attribute to the active upload's target.
    fn request_prefix(&self, request: &Request) -> Option<String> {
        match request {
            Request::Data { .. } => self.upload.as_ref().map(|u| path_prefix(u.path().as_str())),
            _ => request_path(request).map(path_prefix),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_request_inner(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        request: Request,
        request_id: u64,
        principal: u64,
        object: u64,
    ) -> Result<Vec<Response>, SegShareError> {
        let span = enclave
            .obs()
            .start_op(request.op_name())
            .with_ids(request_id, principal, object);
        // Data chunks are the streaming fast path.
        if let Request::Data { bytes } = request {
            let result = self.handle_data(enclave, request_id, principal, bytes);
            match &result {
                Ok(_) => span.finish_ok(),
                Err(err) => span.finish_err(error_code(err).name()),
            }
            return result;
        }
        if self.upload.is_some() {
            // A non-Data request aborts an in-flight upload.
            self.upload = None;
            span.finish_err(ErrorCode::BadRequest.name());
            return Ok(vec![error_response(bad_request(
                "upload interrupted by another request",
            ))]);
        }
        // The batch commit window (batch mode only) opens before any
        // dispatch lock scope — the commit mutex is the outermost lock.
        let guard = enclave.batch_begin(request_mutates(&request));
        let result = self.dispatch(enclave, user, &request);
        // Record the decision before the response leaves the enclave; an
        // audit-append failure outranks the operation's own outcome so
        // the trail never silently misses a decision (fail closed). In
        // batch mode the request's writes are sealed into their commit
        // frame inside the audit append, so audit chain order equals
        // log order.
        let (decision, code) = audit_outcome(&result);
        let (appended, sealed) = enclave.audit_request_sealed(
            request_id,
            request.op_name(),
            principal,
            object,
            decision,
            code,
        );
        let result = match appended {
            Ok(()) => result,
            Err(audit_err) => Err(audit_err),
        };
        let result = finish_batch(enclave, guard, sealed, result);
        match result {
            Ok(responses) => {
                span.finish_ok();
                Ok(responses)
            }
            Err(err) => {
                span.finish_err(error_code(&err).name());
                if is_fatal(&err) {
                    Err(err)
                } else {
                    // If a PutFile was refused, swallow its announced
                    // bytes so the client sees exactly one response.
                    if let Request::PutFile { size, .. } = request {
                        self.discard = size;
                    }
                    Ok(vec![error_response(err)])
                }
            }
        }
    }

    fn handle_data(
        &mut self,
        enclave: &SegShareEnclave,
        request_id: u64,
        principal: u64,
        bytes: Vec<u8>,
    ) -> Result<Vec<Response>, SegShareError> {
        if self.discard > 0 {
            self.discard = self.discard.saturating_sub(bytes.len() as u64);
            return Ok(Vec::new());
        }
        let Some(upload) = self.upload.as_mut() else {
            return Ok(vec![error_response(bad_request(
                "data chunk without an active upload",
            ))]);
        };
        let _epc = enclave.sgx().epc().alloc(bytes.len() as u64);
        if let Err(err) = enclave.files().upload_chunk(upload, &bytes) {
            self.upload = None;
            return Ok(vec![error_response(err)]);
        }
        if enclave.files().upload_complete(upload) {
            let upload = self.upload.take().expect("upload checked above");
            // The PutFile header was audited when it was authorized; the
            // commit is the actual mutation, so it gets its own record
            // bound to the same upload target.
            let object = enclave.fingerprint_name(upload.path().as_str());
            // The staged chunks never touched the store, so the commit
            // is the upload's only mutation — it gets its own batch
            // window, opened before the lock scope.
            let guard = enclave.batch_begin(true);
            // The commit links the file into its parent directory, so
            // the scope covers both the file's objects and the parent
            // dirfile (same scope shape as the PutFile header).
            let _scope =
                enclave
                    .locks()
                    .acquire(&object_locks(upload.path(), LockIntent::Write, true));
            let result = match enclave.files().commit_upload(upload) {
                Ok(()) => Ok(vec![Response::Ok]),
                Err(err) => Err(err),
            };
            let (decision, code) = audit_outcome(&result);
            let (appended, sealed) = enclave.audit_request_sealed(
                request_id,
                "put_commit",
                principal,
                object,
                decision,
                code,
            );
            let result = match appended {
                Ok(()) => result,
                Err(audit_err) => Err(audit_err),
            };
            let result = finish_batch(enclave, guard, sealed, result);
            match result {
                Ok(responses) => Ok(responses),
                Err(err) if !is_fatal(&err) => Ok(vec![error_response(err)]),
                Err(err) => Err(err),
            }
        } else {
            Ok(Vec::new())
        }
    }

    fn dispatch(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        request: &Request,
    ) -> Result<Vec<Response>, SegShareError> {
        // Each arm computes its lock scope from the raw operands before
        // entering the handler: path keys cover the dirfile/content/ACL
        // at that path (trailing-slash insensitive, so WebDAV-style
        // resolution inside the handler stays under the same key), and
        // handlers that link or unlink a child also take the parent.
        // Operations whose object set is unbounded (recursive Move,
        // DeleteGroup's member-list sweep) use the exclusive global
        // mode instead. Scope acquisition order is documented in
        // `enclave::locks`.
        match request {
            Request::MkDir { path } => {
                let _scope = enclave
                    .locks()
                    .acquire(&named_locks(path, LockIntent::Write, true));
                self.do_mkdir(enclave, user, path)
            }
            Request::PutFile { path, size } => {
                let _scope = enclave
                    .locks()
                    .acquire(&named_locks(path, LockIntent::Write, true));
                self.do_put_file(enclave, user, path, *size)
            }
            Request::Get { path } => {
                let _scope = enclave
                    .locks()
                    .acquire(&named_locks(path, LockIntent::Read, false));
                self.do_get(enclave, user, path)
            }
            Request::Remove { path } => {
                let _scope = enclave
                    .locks()
                    .acquire(&named_locks(path, LockIntent::Write, true));
                self.do_remove(enclave, user, path)
            }
            Request::Move { from, to } => {
                // Moving a directory re-encrypts the whole subtree —
                // an unbounded object set, so global mode.
                let _scope = enclave.locks().acquire_global();
                self.do_move(enclave, user, from, to)
            }
            Request::SetPerm {
                path,
                group,
                perm,
                remove,
            } => {
                let _scope = enclave
                    .locks()
                    .acquire(&named_locks(path, LockIntent::Write, false));
                self.do_set_perm(enclave, user, path, group, *perm, *remove)
            }
            Request::SetInherit { path, inherit } => {
                let _scope = enclave
                    .locks()
                    .acquire(&named_locks(path, LockIntent::Write, false));
                self.do_set_inherit(enclave, user, path, *inherit)
            }
            Request::AddOwner { path, group } => {
                let _scope = enclave
                    .locks()
                    .acquire(&named_locks(path, LockIntent::Write, false));
                self.do_add_owner(enclave, user, path, group)
            }
            Request::AddUser {
                user: member,
                group,
            } => {
                let member = UserId::new(member.clone()).map_err(|e| bad_request(e.to_string()))?;
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                // add_user may create the group (group-list and
                // group-root writes) and joins both the requester and
                // the member, so all four objects are exclusive.
                let _scope = enclave.locks().acquire(&[
                    (LockKey::GroupList, LockIntent::Write),
                    (LockKey::GroupRoot, LockIntent::Write),
                    (LockKey::member(user), LockIntent::Write),
                    (LockKey::member(&member), LockIntent::Write),
                ]);
                enclave.access().add_user(user, &member, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::RemoveUser {
                user: member,
                group,
            } => {
                let member = UserId::new(member.clone()).map_err(|e| bad_request(e.to_string()))?;
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                // Revocation mutates only the member's list; the
                // requester's list and the group list are read for the
                // ownership check, shared so concurrent revocations of
                // different members proceed in parallel.
                let _scope = enclave.locks().acquire(&[
                    (LockKey::member(&member), LockIntent::Write),
                    (LockKey::member(user), LockIntent::Read),
                    (LockKey::GroupList, LockIntent::Read),
                ]);
                enclave.access().remove_user(user, &member, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::AddGroupOwner { owner_group, group } => {
                let owner_group = parse_perm_group(owner_group)?;
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                let _scope = enclave.locks().acquire(&[
                    (LockKey::GroupList, LockIntent::Write),
                    (LockKey::member(user), LockIntent::Read),
                ]);
                enclave
                    .access()
                    .add_group_owner(user, &owner_group, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::DeleteGroup { group } => {
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                // Deleting a group sweeps every member list — an
                // unbounded object set, so global mode.
                let _scope = enclave.locks().acquire_global();
                enclave.access().delete_group(user, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::RemoveOwner { path, group } => {
                let _scope = enclave
                    .locks()
                    .acquire(&named_locks(path, LockIntent::Write, false));
                self.do_remove_owner(enclave, user, path, group)
            }
            Request::RemoveGroupOwner { owner_group, group } => {
                let owner_group = parse_perm_group(owner_group)?;
                let group = GroupId::new(group.clone()).map_err(|e| bad_request(e.to_string()))?;
                let _scope = enclave.locks().acquire(&[
                    (LockKey::GroupList, LockIntent::Write),
                    (LockKey::member(user), LockIntent::Read),
                ]);
                enclave
                    .access()
                    .remove_group_owner(user, &owner_group, &group)?;
                Ok(vec![Response::Ok])
            }
            Request::Data { .. } => unreachable!("handled in handle_request"),
            _ => Err(bad_request("unsupported request")),
        }
    }

    /// Algorithm 1 `put_fD`.
    fn do_mkdir(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = parse_path(path)?;
        if !path.is_dir() || path.is_root() {
            return Err(bad_request("mkdir requires a non-root directory path"));
        }
        let parent = path.parent().expect("non-root");
        if !enclave.files().dir_exists(&parent)? {
            return Err(not_found(format!("parent directory {parent} missing")));
        }
        check_sibling_collision(enclave, &path)?;
        if enclave.files().dir_exists(&path)? {
            return Err(SegShareError::request(
                ErrorCode::AlreadyExists,
                format!("{path} already exists"),
            ));
        }
        if !(parent.is_root() || enclave.access().auth_file(user, Access::Write, &parent)?) {
            return Err(deny(format!("no write permission on {parent}")));
        }
        enclave.files().create_dir(&path, user.default_group())?;
        Ok(vec![Response::Ok])
    }

    /// Algorithm 1 `put_fC` (header part; content arrives in chunks).
    fn do_put_file(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
        size: u64,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = parse_path(path)?;
        if path.is_dir() {
            return Err(bad_request("put requires a content-file path"));
        }
        let parent = path.parent().expect("files are never the root");
        let exists = enclave.files().file_exists(&path)?;
        if !exists {
            check_sibling_collision(enclave, &path)?;
        }
        if !parent.is_root() && !enclave.files().dir_exists(&parent)? {
            return Err(not_found(format!("parent directory {parent} missing")));
        }
        // Algorithm 1's `put_fC` lets anyone create below the root; we
        // additionally require write permission (or ownership) on an
        // *existing* file even in the root, so the world-creatable root
        // cannot be abused to clobber other users' files.
        let allowed = if exists {
            enclave.access().auth_file(user, Access::Write, &path)?
                || enclave.access().auth_file(user, Access::Write, &parent)?
        } else {
            parent.is_root() || enclave.access().auth_file(user, Access::Write, &parent)?
        };
        if !allowed {
            return Err(deny(format!("no write permission for {path}")));
        }
        let owner = if exists {
            None
        } else {
            Some(user.default_group())
        };
        let upload = enclave.files().begin_upload(&path, size, owner)?;
        if size == 0 {
            enclave.files().commit_upload(upload)?;
            Ok(vec![Response::Ok])
        } else {
            self.upload = Some(upload);
            Ok(Vec::new())
        }
    }

    /// Algorithm 1 `get`: file content or directory listing.
    fn do_get(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = resolve_path(enclave, path)?;
        if path.is_dir() {
            if !enclave.files().dir_exists(&path)? {
                return Err(not_found(format!("no directory at {path}")));
            }
            // The root is listable by any authenticated user, matching
            // Algorithm 1's world-creatable root; all other directories
            // require read permission.
            if !path.is_root() && !enclave.access().auth_file(user, Access::Read, &path)? {
                return Err(deny(format!("no read permission on {path}")));
            }
            let entries = enclave.files().list_dir(&path)?;
            Ok(vec![Response::Listing { entries }])
        } else {
            if !enclave.files().file_exists(&path)? {
                return Err(not_found(format!("no file at {path}")));
            }
            if !enclave.access().auth_file(user, Access::Read, &path)? {
                return Err(deny(format!("no read permission on {path}")));
            }
            // Hot-object fast path: a small cached body is served in
            // full — same wire sequence as streaming, no store access.
            // Authorization above ran against live metadata, so a warm
            // cache can never outlive a revocation.
            if let Some(body) = enclave.files().cached_small_file(&path) {
                let _epc = enclave.sgx().epc().alloc(body.len() as u64);
                let mut responses = vec![Response::FileStart {
                    size: body.len() as u64,
                }];
                responses.extend(body.chunks(CHUNK_LEN).map(|chunk| Response::Data {
                    bytes: chunk.to_vec(),
                }));
                return Ok(responses);
            }
            let download = enclave.files().open_download(&path)?;
            let size = download.total_len();
            self.download = Some(download);
            Ok(vec![Response::FileStart { size }])
        }
    }

    fn do_remove(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = resolve_path(enclave, path)?;
        let exists = if path.is_dir() {
            enclave.files().dir_exists(&path)?
        } else {
            enclave.files().file_exists(&path)?
        };
        if !exists {
            return Err(not_found(format!("nothing at {path}")));
        }
        if !(enclave.access().auth_file(user, Access::Write, &path)?
            || enclave.access().is_file_owner(user, &path)?)
        {
            return Err(deny(format!("no write permission on {path}")));
        }
        enclave.files().remove(&path)?;
        Ok(vec![Response::Ok])
    }

    fn do_move(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        from: &str,
        to: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let from = resolve_path(enclave, from)?;
        let mut to = parse_path(to)?;
        if from.is_dir() && !to.is_dir() {
            to = parse_path(&format!("{}/", to.as_str()))?;
        }
        let exists = if from.is_dir() {
            enclave.files().dir_exists(&from)?
        } else {
            enclave.files().file_exists(&from)?
        };
        if !exists {
            return Err(not_found(format!("nothing at {from}")));
        }
        if !(enclave.access().auth_file(user, Access::Write, &from)?
            || enclave.access().is_file_owner(user, &from)?)
        {
            return Err(deny(format!("no write permission on {from}")));
        }
        let to_parent = to
            .parent()
            .ok_or_else(|| bad_request("cannot move to root"))?;
        if !to_parent.is_root() {
            if !enclave.files().dir_exists(&to_parent)? {
                return Err(not_found(format!(
                    "destination directory {to_parent} missing"
                )));
            }
            if !enclave
                .access()
                .auth_file(user, Access::Write, &to_parent)?
            {
                return Err(deny(format!("no write permission on {to_parent}")));
            }
        }
        let dest_exists = if to.is_dir() {
            enclave.files().dir_exists(&to)?
        } else {
            enclave.files().file_exists(&to)?
        };
        if dest_exists {
            return Err(SegShareError::request(
                ErrorCode::AlreadyExists,
                format!("{to} already exists"),
            ));
        }
        check_sibling_collision(enclave, &to)?;
        enclave.files().rename(&from, &to)?;
        Ok(vec![Response::Ok])
    }

    /// Algorithm 1 `set_p` — file owners only (Table IV `auth_f` with
    /// the empty permission).
    fn do_set_perm(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
        group: &str,
        perm: u8,
        remove: bool,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = resolve_path(enclave, path)?;
        let group = parse_perm_group(group)?;
        if !enclave.access().is_file_owner(user, &path)? {
            return Err(deny(format!(
                "only file owners may change permissions on {path}"
            )));
        }
        let mut acl = enclave
            .access()
            .acl(&path)?
            .ok_or_else(|| not_found(format!("nothing at {path}")))?;
        if remove {
            acl.remove_perm(&group);
        } else {
            let perm = Perm::decode(perm).map_err(|e| bad_request(e.to_string()))?;
            acl.set_perm(group, perm);
        }
        enclave.access().save_acl(&path, &acl)?;
        Ok(vec![Response::Ok])
    }

    /// §V-B: add/remove the inherit flag (file owners only).
    fn do_set_inherit(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
        inherit: bool,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = resolve_path(enclave, path)?;
        if !enclave.access().is_file_owner(user, &path)? {
            return Err(deny(format!(
                "only file owners may change inheritance on {path}"
            )));
        }
        let mut acl = enclave
            .access()
            .acl(&path)?
            .ok_or_else(|| not_found(format!("nothing at {path}")))?;
        acl.set_inherit(inherit);
        enclave.access().save_acl(&path, &acl)?;
        Ok(vec![Response::Ok])
    }

    /// `r_FO` shrink — file owners only; the last owner is protected.
    fn do_remove_owner(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
        group: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = resolve_path(enclave, path)?;
        let group = parse_perm_group(group)?;
        if !enclave.access().is_file_owner(user, &path)? {
            return Err(deny(format!(
                "only file owners may shrink ownership of {path}"
            )));
        }
        let mut acl = enclave
            .access()
            .acl(&path)?
            .ok_or_else(|| not_found(format!("nothing at {path}")))?;
        if !acl.remove_owner(&group) {
            return Err(bad_request(format!(
                "cannot remove {group}: files keep at least one owner"
            )));
        }
        enclave.access().save_acl(&path, &acl)?;
        Ok(vec![Response::Ok])
    }

    /// `r_FO` extension (F7) — file owners only.
    fn do_add_owner(
        &mut self,
        enclave: &SegShareEnclave,
        user: &UserId,
        path: &str,
        group: &str,
    ) -> Result<Vec<Response>, SegShareError> {
        let path = resolve_path(enclave, path)?;
        let group = parse_perm_group(group)?;
        if !enclave.access().is_file_owner(user, &path)? {
            return Err(deny(format!(
                "only file owners may extend ownership of {path}"
            )));
        }
        let mut acl = enclave
            .access()
            .acl(&path)?
            .ok_or_else(|| not_found(format!("nothing at {path}")))?;
        acl.add_owner(group);
        enclave.access().save_acl(&path, &acl)?;
        Ok(vec![Response::Ok])
    }
}

fn parse_path(s: &str) -> Result<SegPath, SegShareError> {
    SegPath::parse(s).map_err(|e| bad_request(e.to_string()))
}

/// Whether a request can write to the store. Only `Get` is read-only;
/// anything unknown is treated as mutating (fail safe).
fn request_mutates(request: &Request) -> bool {
    !matches!(request, Request::Get { .. })
}

/// Completes a request's batch commit window: waits for the group
/// commit to make the sealed frame durable, then releases the commit
/// mutex. In whole-FS rollback mode the wait (and the deferred §V-E
/// counter increments inside it) happens *under* the guard, so the
/// counters can never run more than one batch ahead of the durable
/// records; otherwise the guard drops first so concurrent sessions'
/// seals coalesce into shared group-commit fsyncs. A durability error
/// outranks a successful dispatch but never masks an earlier error.
fn finish_batch(
    enclave: &SegShareEnclave,
    guard: Option<MutexGuard<'_, ()>>,
    sealed: Result<Vec<CommitTicket>, SegShareError>,
    result: Result<Vec<Response>, SegShareError>,
) -> Result<Vec<Response>, SegShareError> {
    let durable = match (guard, sealed) {
        // No window was opened: nothing was sealed, nothing to wait for
        // (but a seal error still fails the request).
        (None, sealed) => sealed.map(|_| ()),
        (Some(guard), Err(seal_err)) => {
            drop(guard);
            Err(seal_err)
        }
        (Some(guard), Ok(tickets)) => {
            if enclave.config().rollback_whole_fs {
                let wait = enclave.batch_wait(tickets);
                drop(guard);
                wait
            } else {
                drop(guard);
                enclave.batch_wait(tickets)
            }
        }
    };
    match durable {
        Ok(()) => result,
        Err(err) => result.and(Err(err)),
    }
}

/// Lock requests for everything stored at `path` (dirfile or content
/// file plus its ACL — one key covers all three) and, when
/// `with_parent`, the parent directory whose dirfile the operation
/// links or unlinks.
fn object_locks(path: &SegPath, intent: LockIntent, with_parent: bool) -> Vec<LockRequest> {
    let mut requests = vec![(LockKey::path(path), intent)];
    if with_parent {
        if let Some(parent) = path.parent() {
            requests.push((LockKey::path(&parent), intent));
        }
    }
    requests
}

/// [`object_locks`] from a raw request operand. An unparsable path
/// yields the empty scope — the handler re-parses the operand and
/// reports the error, touching nothing.
fn named_locks(path: &str, intent: LockIntent, with_parent: bool) -> Vec<LockRequest> {
    match SegPath::parse(path) {
        Ok(path) => object_locks(&path, intent, with_parent),
        Err(_) => Vec::new(),
    }
}

/// Resolves a client-supplied path against the file system: a path
/// without a trailing slash that names no content file but does name a
/// directory resolves to that directory (WebDAV-style convenience).
fn resolve_path(enclave: &SegShareEnclave, s: &str) -> Result<SegPath, SegShareError> {
    let path = parse_path(s)?;
    if path.is_dir() || enclave.files().file_exists(&path)? {
        return Ok(path);
    }
    let as_dir = parse_path(&format!("{s}/"))?;
    if enclave.files().dir_exists(&as_dir)? {
        Ok(as_dir)
    } else {
        Ok(path)
    }
}

/// Rejects creating `path` when a sibling of the other kind (file vs.
/// directory) already holds the same name.
fn check_sibling_collision(enclave: &SegShareEnclave, path: &SegPath) -> Result<(), SegShareError> {
    let parent = path.parent().expect("non-root");
    if let Some(dir) = enclave.files().dir_file(&parent)? {
        if let Some(kind) = dir.child(path.name()) {
            let requested = if path.is_dir() {
                ChildKind::Directory
            } else {
                ChildKind::File
            };
            if kind != requested {
                return Err(SegShareError::request(
                    ErrorCode::AlreadyExists,
                    format!("{} exists with a different kind", path.name()),
                ));
            }
        }
    }
    Ok(())
}

/// The request operand that identifies what the request acts on — the
/// value fingerprinted into trace and audit events (never carried raw).
fn request_object(request: &Request) -> Option<&str> {
    match request {
        Request::MkDir { path }
        | Request::PutFile { path, .. }
        | Request::Get { path }
        | Request::Remove { path }
        | Request::SetPerm { path, .. }
        | Request::SetInherit { path, .. }
        | Request::AddOwner { path, .. }
        | Request::RemoveOwner { path, .. } => Some(path),
        Request::Move { from, .. } => Some(from),
        Request::AddUser { group, .. }
        | Request::RemoveUser { group, .. }
        | Request::AddGroupOwner { group, .. }
        | Request::DeleteGroup { group }
        | Request::RemoveGroupOwner { group, .. } => Some(group),
        _ => None,
    }
}

/// The path operand a request carries, if any (`Move` attributes to its
/// source, like [`request_object`]).
fn request_path(request: &Request) -> Option<&str> {
    match request {
        Request::MkDir { path }
        | Request::PutFile { path, .. }
        | Request::Get { path }
        | Request::Remove { path }
        | Request::SetPerm { path, .. }
        | Request::SetInherit { path, .. }
        | Request::AddOwner { path, .. }
        | Request::RemoveOwner { path, .. } => Some(path),
        Request::Move { from, .. } => Some(from),
        _ => None,
    }
}

/// The group operand a request touches, if any — the attribution
/// sketch's per-group axis. Group-membership operations name the
/// target group; ACL operations name the group being granted/revoked.
fn request_group(request: &Request) -> Option<&str> {
    match request {
        Request::SetPerm { group, .. }
        | Request::AddOwner { group, .. }
        | Request::RemoveOwner { group, .. }
        | Request::AddUser { group, .. }
        | Request::RemoveUser { group, .. }
        | Request::AddGroupOwner { group, .. }
        | Request::DeleteGroup { group }
        | Request::RemoveGroupOwner { group, .. } => Some(group),
        _ => None,
    }
}

/// Reduces a path to its top-level component (`/docs/a/b.txt` →
/// `/docs`); the root itself stays `/`. Only the fingerprint of the
/// result ever leaves the enclave.
fn path_prefix(path: &str) -> String {
    let first = path.trim_start_matches('/').split('/').next().unwrap_or("");
    format!("/{first}")
}

/// Payload bytes a response hands back to the client: announced
/// download sizes, inline chunk/listing content, and error detail.
fn response_bytes(responses: &[Response]) -> u64 {
    responses
        .iter()
        .map(|r| match r {
            Response::Ok => 0,
            Response::FileStart { size } => *size,
            Response::Data { bytes } => bytes.len() as u64,
            Response::Listing { entries } => entries.iter().map(|e| e.name.len() as u64 + 1).sum(),
            Response::Error { message, .. } => message.len() as u64,
            // `Response` is non_exhaustive; unknown payloads count 0.
            _ => 0,
        })
        .sum()
}

/// Maps a dispatch outcome onto the audit decision taxonomy: granted,
/// explicitly denied, or failed for another reason.
fn audit_outcome(result: &Result<Vec<Response>, SegShareError>) -> (TraceDecision, &'static str) {
    match result {
        Ok(_) => (TraceDecision::Allow, "ok"),
        Err(err) => {
            let code = error_code(err);
            if matches!(code, ErrorCode::Denied) {
                (TraceDecision::Deny, code.name())
            } else {
                (TraceDecision::Error, code.name())
            }
        }
    }
}

/// The wire error code an error maps to (also its telemetry label).
fn error_code(err: &SegShareError) -> ErrorCode {
    match err {
        SegShareError::Request { code, .. } => *code,
        SegShareError::Integrity(_)
        | SegShareError::Sgx(seg_sgx::SgxError::ProtectedFileCorrupted(_)) => {
            ErrorCode::IntegrityViolation
        }
        _ => ErrorCode::Internal,
    }
}

fn error_response(err: SegShareError) -> Response {
    let code = error_code(&err);
    let message = match err {
        SegShareError::Request { message, .. } => message,
        SegShareError::Integrity(message)
        | SegShareError::Sgx(seg_sgx::SgxError::ProtectedFileCorrupted(message)) => message,
        other => other.to_string(),
    };
    Response::Error { code, message }
}

/// Whether an error must tear down the session rather than being
/// reported as a response.
fn is_fatal(err: &SegShareError) -> bool {
    matches!(
        err,
        SegShareError::Tls(_) | SegShareError::Net(_) | SegShareError::Protocol(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FsoSetup;
    use crate::EnclaveConfig;

    #[test]
    fn parse_perm_group_handles_default_groups() {
        assert_eq!(
            parse_perm_group("~bob").unwrap(),
            UserId::new("bob").unwrap().default_group()
        );
        assert_eq!(
            parse_perm_group("eng").unwrap(),
            GroupId::new("eng").unwrap()
        );
        assert!(parse_perm_group("~").is_err());
        assert!(parse_perm_group("").is_err());
        assert!(parse_perm_group("bad\nname").is_err());
    }

    #[test]
    fn session_rejects_frames_before_certification() {
        let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
        // Launch the enclave directly, skipping certification.
        let enclave = crate::enclave::SegShareEnclave::launch(
            setup.platform(),
            EnclaveConfig::default(),
            setup.ca().public_key(),
            std::sync::Arc::new(seg_store::MemStore::new()),
            std::sync::Arc::new(seg_store::MemStore::new()),
            std::sync::Arc::new(seg_store::MemStore::new()),
        )
        .unwrap();
        assert!(enclave.new_session().is_err(), "no server certificate yet");
    }

    #[test]
    fn garbage_handshake_frame_is_fatal() {
        let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
        let server = setup.server().unwrap();
        let enclave = server.enclave();
        let mut session = enclave.new_session().unwrap();
        assert!(session.user().is_none());
        assert!(session.handle_frame(enclave, b"not a tls frame").is_err());
        // The session is poisoned afterwards.
        assert!(session.handle_frame(enclave, b"anything").is_err());
        assert!(session.client_certificate().is_none());
    }

    #[test]
    fn session_identifies_user_after_handshake() {
        let setup = FsoSetup::new_in_memory("ca", EnclaveConfig::default());
        let server = setup.server().unwrap();
        let alice = setup.enroll_user("alice", "a@x", "Alice").unwrap();
        let _client = server.connect_local(&alice).unwrap();
        // Drive a second session by hand to observe the state.
        let enclave = server.enclave();
        let mut session = enclave.new_session().unwrap();
        let mut rng = seg_crypto::rng::SystemRng::new();
        let (mut hs, m1) = seg_tls::ClientHandshake::start(
            alice.certificate.clone(),
            alice.secret_key.clone(),
            alice.ca_key,
            alice.now,
            &mut rng,
        );
        session.handle_frame(enclave, &m1).unwrap();
        let m2 = session.next_outgoing(enclave).unwrap().unwrap();
        let step = hs.process(&m2).unwrap();
        for frame in &step.replies {
            session.handle_frame(enclave, frame).unwrap();
        }
        let f2 = session.next_outgoing(enclave).unwrap().unwrap();
        let step = hs.process(&f2).unwrap();
        assert!(step.done);
        assert_eq!(session.user().unwrap().as_str(), "alice");
        assert!(session.client_certificate().is_some());
        assert!(!session.download_active());
    }
}
