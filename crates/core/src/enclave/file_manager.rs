//! The trusted file manager (§IV-B): content and directory file
//! operations, streaming uploads/downloads with constant enclave
//! buffers (§VI), and the deduplication extension (§V-A).

use std::sync::Arc;

use seg_crypto::hmac::Hmac;
use seg_crypto::rng::{SecureRandom, SystemRng};
use seg_crypto::sha256::Sha256;
use seg_fs::{AclFile, ChildKind, DirFile, GroupId, SegPath};
use seg_proto::{ErrorCode, ListingEntry, CHUNK_LEN};
use seg_sgx::pfs::{PfsFile, PfsWriter, DATA_PER_NODE};

use crate::error::SegShareError;

use super::keys::hex;
use super::names::ObjectId;
use super::trusted_store::TrustedStore;

/// Content-file body marker: inline content follows.
const MARKER_INLINE: u8 = 0;
/// Content-file body marker: a dedup-store name follows (§V-A,
/// "comparable to symbolic links in file systems").
const MARKER_DEDUP: u8 = 1;

/// File and directory operations bound to the trusted store.
#[derive(Clone)]
pub struct FileManager {
    store: Arc<TrustedStore>,
}

impl std::fmt::Debug for FileManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FileManager(..)")
    }
}

fn bad(code: ErrorCode, msg: impl Into<String>) -> SegShareError {
    SegShareError::request(code, msg)
}

impl FileManager {
    pub(crate) fn new(store: Arc<TrustedStore>) -> FileManager {
        FileManager { store }
    }

    /// Initializes an empty file system on first enclave start: root
    /// directory file, root ACL, group-store root, and group list.
    pub fn init_file_system(&self) -> Result<(), SegShareError> {
        let root = SegPath::root();
        if !self.store.exists(&ObjectId::DirData(root.clone()))? {
            self.store.write(
                &ObjectId::DirData(root.clone()),
                &DirFile::new(root.clone()).encode(),
            )?;
            self.store
                .write(&ObjectId::Acl(root), &AclFile::new().encode())?;
        }
        if !self.store.exists(&ObjectId::GroupRoot)? {
            self.store.write(
                &ObjectId::GroupRoot,
                &super::trusted_store::GroupRootFile::new().encode(),
            )?;
            self.store
                .write(&ObjectId::GroupList, &seg_fs::GroupListFile::new().encode())?;
        }
        Ok(())
    }

    /// Loads a directory file.
    pub fn dir_file(&self, path: &SegPath) -> Result<Option<DirFile>, SegShareError> {
        let id = ObjectId::DirData(path.clone());
        Ok(self
            .store
            .read_decoded(&id, |body| Ok(DirFile::decode(body)?))?
            .map(|dir| (*dir).clone()))
    }

    /// Whether a directory exists at `path`.
    pub fn dir_exists(&self, path: &SegPath) -> Result<bool, SegShareError> {
        Ok(path.is_dir() && self.store.exists(&ObjectId::DirData(path.clone()))?)
    }

    /// Whether a content file exists at `path`.
    pub fn file_exists(&self, path: &SegPath) -> Result<bool, SegShareError> {
        Ok(!path.is_dir() && self.store.exists(&ObjectId::FileData(path.clone()))?)
    }

    fn save_dir_file(&self, dir: &DirFile) -> Result<(), SegShareError> {
        self.store
            .write(&ObjectId::DirData(dir.path().clone()), &dir.encode())
    }

    /// Registers `child` in its parent directory file (Algorithm 1's
    /// `write(path2, PAE_Enc(SK_f2, IV, con + path1))`).
    fn add_child_to_parent(&self, child: &SegPath, kind: ChildKind) -> Result<(), SegShareError> {
        let parent = child.parent().expect("children are never the root");
        let mut dir = self
            .dir_file(&parent)?
            .ok_or_else(|| bad(ErrorCode::NotFound, format!("missing directory {parent}")))?;
        dir.add_child(child.name(), kind);
        self.save_dir_file(&dir)
    }

    fn remove_child_from_parent(&self, child: &SegPath) -> Result<(), SegShareError> {
        let parent = child.parent().expect("children are never the root");
        let mut dir = self
            .dir_file(&parent)?
            .ok_or_else(|| bad(ErrorCode::NotFound, format!("missing directory {parent}")))?;
        dir.remove_child(child.name());
        self.save_dir_file(&dir)
    }

    /// Creates a directory owned by `owner` (Algorithm 1 `put_fD`; the
    /// caller has already authorized the request).
    pub fn create_dir(&self, path: &SegPath, owner: GroupId) -> Result<(), SegShareError> {
        self.store.write(
            &ObjectId::Acl(path.clone()),
            &AclFile::with_owner(owner).encode(),
        )?;
        self.store.write(
            &ObjectId::DirData(path.clone()),
            &DirFile::new(path.clone()).encode(),
        )?;
        self.add_child_to_parent(path, ChildKind::Directory)
    }

    /// Lists a directory.
    pub fn list_dir(&self, path: &SegPath) -> Result<Vec<ListingEntry>, SegShareError> {
        let dir = self
            .dir_file(path)?
            .ok_or_else(|| bad(ErrorCode::NotFound, format!("no directory at {path}")))?;
        Ok(dir
            .children()
            .map(|(name, kind)| ListingEntry {
                name: name.to_string(),
                is_dir: matches!(kind, ChildKind::Directory),
            })
            .collect())
    }

    // ------------------------------------------------------------ upload

    /// Starts a streaming upload to `path`. `new_owner` is `Some(g_u)`
    /// when the file does not exist yet and an ACL must be created on
    /// commit.
    pub fn begin_upload(
        &self,
        path: &SegPath,
        size: u64,
        new_owner: Option<GroupId>,
    ) -> Result<UploadContext, SegShareError> {
        let dedup = self.store.config().dedup;
        let (key, hmac) = if dedup {
            // §V-A: stage under a temporary key; the real (content-
            // derived) key is only known once the content HMAC is.
            let temp_key: [u8; 16] = SystemRng::new().array();
            let hmac = Hmac::<Sha256>::new(&self.store.keys().dedup_name_key());
            (temp_key, Some(hmac))
        } else {
            (
                self.store
                    .keys()
                    .file_key(&ObjectId::FileData(path.clone())),
                None,
            )
        };
        let mut writer = PfsWriter::new(&key, &mut SystemRng::new())?;
        writer.reserve(size.saturating_add(u64::from(!dedup)));
        if !dedup {
            writer.write(&[MARKER_INLINE]);
        }
        Ok(UploadContext {
            path: path.clone(),
            writer: Some(writer),
            temp_key: key,
            remaining: size,
            hmac,
            new_owner,
        })
    }

    /// Appends one chunk to an upload.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::BadRequest`] if the chunk overruns the
    /// announced size.
    pub fn upload_chunk(
        &self,
        upload: &mut UploadContext,
        chunk: &[u8],
    ) -> Result<(), SegShareError> {
        if chunk.len() as u64 > upload.remaining {
            return Err(bad(ErrorCode::BadRequest, "upload exceeds announced size"));
        }
        upload.remaining -= chunk.len() as u64;
        if let Some(hmac) = upload.hmac.as_mut() {
            hmac.update(chunk);
        }
        upload
            .writer
            .as_mut()
            .expect("writer present until commit")
            .write(chunk);
        Ok(())
    }

    /// Whether all announced bytes have arrived.
    #[must_use]
    pub fn upload_complete(&self, upload: &UploadContext) -> bool {
        upload.remaining == 0
    }

    /// Commits a finished upload: stores the blob (or dedup blob plus
    /// indirection), creates the ACL for new files, and links the file
    /// into its parent directory.
    pub fn commit_upload(&self, upload: UploadContext) -> Result<(), SegShareError> {
        let UploadContext {
            path,
            writer,
            temp_key,
            remaining,
            hmac,
            new_owner,
        } = upload;
        debug_assert_eq!(remaining, 0, "commit of incomplete upload");
        let blob = writer.expect("writer present until commit").finish();
        let file_id = ObjectId::FileData(path.clone());

        match hmac {
            None => {
                self.store.commit_blob(&file_id, &blob)?;
            }
            Some(hmac) => {
                // §V-A deduplication: name the blob by its content HMAC.
                let hname = hex(&hmac.finalize());
                // An overwrite drops the old content's reference; read
                // the old indirection before it is replaced.
                let old_hname = self.dedup_hname(&path)?;
                let blob_id = ObjectId::DedupBlob(hname.clone());
                if !self.store.exists(&blob_id)? {
                    // First copy: re-encrypt the staged blob under the
                    // content-derived key, one node at a time.
                    let staged = PfsFile::open(&temp_key, blob)?;
                    let mut final_writer = PfsWriter::new(
                        &self.store.keys().dedup_blob_key(&hname),
                        &mut SystemRng::new(),
                    )?;
                    final_writer.reserve(staged.data_len());
                    for i in 0..staged.node_count() {
                        final_writer.write(&staged.read_node(i)?);
                    }
                    self.store.commit_blob(&blob_id, &final_writer.finish())?;
                }
                // The content file holds only the indirection.
                let mut body = Vec::with_capacity(1 + hname.len());
                body.push(MARKER_DEDUP);
                body.extend_from_slice(hname.as_bytes());
                self.store.write(&file_id, &body)?;
                self.store
                    .dedup_ref_update(Some(&hname), old_hname.as_deref())?;
            }
        }

        if let Some(owner) = new_owner {
            self.store.write(
                &ObjectId::Acl(path.clone()),
                &AclFile::with_owner(owner).encode(),
            )?;
            self.add_child_to_parent(&path, ChildKind::File)?;
        }
        Ok(())
    }

    // ---------------------------------------------------------- download

    /// Hot-object fast path: the whole content of `path` if its verified
    /// body is in the enclave cache. `None` (miss, dedup indirection, or
    /// cache disabled) falls back to the streaming download, whose
    /// `open_stream` fill makes the *next* download of a small file hit
    /// here.
    pub fn cached_small_file(&self, path: &SegPath) -> Option<Vec<u8>> {
        match self.store.cached_body(&ObjectId::FileData(path.clone())) {
            Some(body) if body.first() == Some(&MARKER_INLINE) => Some(body[1..].to_vec()),
            _ => None,
        }
    }

    /// Opens a streaming download of the content file at `path`.
    pub fn open_download(&self, path: &SegPath) -> Result<DownloadContext, SegShareError> {
        let file = self
            .store
            .open_stream(&ObjectId::FileData(path.clone()))?
            .ok_or_else(|| bad(ErrorCode::NotFound, format!("no file at {path}")))?;
        if file.data_len() == 0 {
            return Err(SegShareError::Integrity(format!(
                "{path}: empty content record"
            )));
        }
        // The first body byte is the inline/dedup marker.
        let first = file.read_node(0)?;
        match first[0] {
            MARKER_INLINE => Ok(DownloadContext {
                file,
                skip: 1,
                emitted: 0,
            }),
            MARKER_DEDUP => {
                let body = file.read_all()?;
                let hname = String::from_utf8(body[1..].to_vec()).map_err(|_| {
                    SegShareError::Integrity(format!("{path}: malformed dedup indirection"))
                })?;
                let blob = self
                    .store
                    .open_stream(&ObjectId::DedupBlob(hname.clone()))?
                    .ok_or_else(|| {
                        SegShareError::Integrity(format!(
                            "{path}: dangling dedup indirection {hname}"
                        ))
                    })?;
                Ok(DownloadContext {
                    file: blob,
                    skip: 0,
                    emitted: 0,
                })
            }
            other => Err(SegShareError::Integrity(format!(
                "{path}: unknown content marker {other}"
            ))),
        }
    }

    /// Reads the whole content of a file (small-file convenience; the
    /// request path streams instead).
    pub fn read_file(&self, path: &SegPath) -> Result<Vec<u8>, SegShareError> {
        let mut download = self.open_download(path)?;
        let mut out = Vec::with_capacity(download.total_len() as usize);
        while let Some(chunk) = download.next_chunk()? {
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// The dedup blob name referenced by the indirection at `path`, or
    /// `None` when no file exists there or its body is inline. Only
    /// meaningful with dedup on, where indirections are one small record.
    fn dedup_hname(&self, path: &SegPath) -> Result<Option<String>, SegShareError> {
        let Some(body) = self.store.read(&ObjectId::FileData(path.clone()))? else {
            return Ok(None);
        };
        if body.first() != Some(&MARKER_DEDUP) {
            return Ok(None);
        }
        String::from_utf8(body[1..].to_vec())
            .map(Some)
            .map_err(|_| SegShareError::Integrity(format!("{path}: malformed dedup indirection")))
    }

    /// §V-A extension: reclaims dedup blobs whose reference count has
    /// dropped to zero. Returns the number of blobs deleted. Callers
    /// serialize this against request dispatch (the global lock scope).
    pub fn blob_gc(&self) -> Result<u64, SegShareError> {
        self.store.blob_gc()
    }

    // ---------------------------------------------------------- removal

    /// Removes a content file or an *empty* directory.
    pub fn remove(&self, path: &SegPath) -> Result<(), SegShareError> {
        if path.is_root() {
            return Err(bad(ErrorCode::BadRequest, "cannot remove the root"));
        }
        if path.is_dir() {
            let dir = self
                .dir_file(path)?
                .ok_or_else(|| bad(ErrorCode::NotFound, format!("no directory at {path}")))?;
            if !dir.is_empty() {
                return Err(bad(
                    ErrorCode::BadRequest,
                    format!("directory {path} is not empty"),
                ));
            }
            self.remove_child_from_parent(path)?;
            self.store.delete(&ObjectId::DirData(path.clone()))?;
        } else {
            if !self.file_exists(path)? {
                return Err(bad(ErrorCode::NotFound, format!("no file at {path}")));
            }
            // Other files may reference the same dedup blob, so removal
            // only drops this file's reference; blobs whose count
            // reaches zero are reclaimed later by [`FileManager::blob_gc`].
            let dedup = if self.store.config().dedup {
                self.dedup_hname(path)?
            } else {
                None
            };
            self.remove_child_from_parent(path)?;
            self.store.delete(&ObjectId::FileData(path.clone()))?;
            self.store.dedup_ref_update(None, dedup.as_deref())?;
        }
        self.store.delete(&ObjectId::Acl(path.clone()))?;
        Ok(())
    }

    // -------------------------------------------------------------- move

    /// Moves a content file or directory (recursively). Per-file keys
    /// are path-bound, so moving re-encrypts file bodies under the new
    /// path's key — except dedup indirections, which stay one small
    /// record.
    pub fn rename(&self, from: &SegPath, to: &SegPath) -> Result<(), SegShareError> {
        if from.is_root() || to.is_root() {
            return Err(bad(ErrorCode::BadRequest, "cannot move the root"));
        }
        if from.is_dir() != to.is_dir() {
            return Err(bad(
                ErrorCode::BadRequest,
                "source and destination must both be directories or both files",
            ));
        }
        if to.starts_with(from) {
            return Err(bad(
                ErrorCode::BadRequest,
                "cannot move a directory into itself",
            ));
        }
        if from.is_dir() {
            self.rename_dir(from, to)?;
        } else {
            self.rename_file(from, to)?;
        }
        Ok(())
    }

    fn rename_file(&self, from: &SegPath, to: &SegPath) -> Result<(), SegShareError> {
        let body = self
            .store
            .read(&ObjectId::FileData(from.clone()))?
            .ok_or_else(|| bad(ErrorCode::NotFound, format!("no file at {from}")))?;
        let acl = self
            .acl_bytes(from)?
            .ok_or_else(|| bad(ErrorCode::NotFound, format!("no acl for {from}")))?;
        self.store.write(&ObjectId::FileData(to.clone()), &body)?;
        self.store.write(&ObjectId::Acl(to.clone()), &acl)?;
        self.add_child_to_parent(to, ChildKind::File)?;
        self.remove_child_from_parent(from)?;
        self.store.delete(&ObjectId::FileData(from.clone()))?;
        self.store.delete(&ObjectId::Acl(from.clone()))?;
        Ok(())
    }

    fn rename_dir(&self, from: &SegPath, to: &SegPath) -> Result<(), SegShareError> {
        let dir = self
            .dir_file(from)?
            .ok_or_else(|| bad(ErrorCode::NotFound, format!("no directory at {from}")))?;
        let acl = self
            .acl_bytes(from)?
            .ok_or_else(|| bad(ErrorCode::NotFound, format!("no acl for {from}")))?;
        // Create the destination, then move children depth-first.
        let mut new_dir = DirFile::new(to.clone());
        for (name, kind) in dir.children() {
            new_dir.add_child(name, kind);
        }
        self.store.write(&ObjectId::Acl(to.clone()), &acl)?;
        self.store
            .write(&ObjectId::DirData(to.clone()), &new_dir.encode())?;
        self.add_child_to_parent(to, ChildKind::Directory)?;
        let children: Vec<(String, ChildKind)> =
            dir.children().map(|(n, k)| (n.to_string(), k)).collect();
        for (name, kind) in children {
            let from_child = dir.child_path(&name, kind)?;
            let to_child = new_dir.child_path(&name, kind)?;
            match kind {
                ChildKind::Directory => self.rename_dir(&from_child, &to_child)?,
                ChildKind::File => {
                    // Direct body move without touching parents (they are
                    // handled by the dir-file copies above).
                    let body = self
                        .store
                        .read(&ObjectId::FileData(from_child.clone()))?
                        .ok_or_else(|| {
                            bad(ErrorCode::NotFound, format!("no file at {from_child}"))
                        })?;
                    let acl = self.acl_bytes(&from_child)?.ok_or_else(|| {
                        bad(ErrorCode::NotFound, format!("no acl for {from_child}"))
                    })?;
                    self.store
                        .write(&ObjectId::FileData(to_child.clone()), &body)?;
                    self.store.write(&ObjectId::Acl(to_child.clone()), &acl)?;
                    self.store.delete(&ObjectId::FileData(from_child.clone()))?;
                    self.store.delete(&ObjectId::Acl(from_child.clone()))?;
                }
            }
        }
        self.remove_child_from_parent(from)?;
        self.store.delete(&ObjectId::DirData(from.clone()))?;
        self.store.delete(&ObjectId::Acl(from.clone()))?;
        Ok(())
    }

    fn acl_bytes(&self, path: &SegPath) -> Result<Option<Vec<u8>>, SegShareError> {
        self.store.read(&ObjectId::Acl(path.clone()))
    }
}

/// State of one in-flight streaming upload.
pub struct UploadContext {
    path: SegPath,
    writer: Option<PfsWriter>,
    temp_key: [u8; 16],
    remaining: u64,
    hmac: Option<Hmac<Sha256>>,
    new_owner: Option<GroupId>,
}

impl std::fmt::Debug for UploadContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UploadContext")
            .field("path", &self.path)
            .field("remaining", &self.remaining)
            .finish()
    }
}

impl UploadContext {
    /// The target path.
    #[must_use]
    pub fn path(&self) -> &SegPath {
        &self.path
    }
}

/// State of one in-flight streaming download.
pub struct DownloadContext {
    file: PfsFile,
    /// Bytes to skip at the start (the inline marker byte).
    skip: u64,
    /// Plaintext bytes already emitted (after `skip`).
    emitted: u64,
}

impl std::fmt::Debug for DownloadContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DownloadContext")
            .field("total", &self.total_len())
            .field("emitted", &self.emitted)
            .finish()
    }
}

impl DownloadContext {
    /// Total plaintext length of the download.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.file.data_len() - self.skip
    }

    /// Produces the next chunk (up to [`CHUNK_LEN`] bytes), or `None`
    /// when the download is complete.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, SegShareError> {
        let total = self.total_len();
        if self.emitted >= total {
            return Ok(None);
        }
        let want = ((total - self.emitted).min(CHUNK_LEN as u64)) as usize;
        let mut out = Vec::with_capacity(want);
        while out.len() < want {
            let absolute = self.skip + self.emitted + out.len() as u64;
            let node_index = absolute / DATA_PER_NODE as u64;
            let offset = (absolute % DATA_PER_NODE as u64) as usize;
            let node = self.file.read_node(node_index)?;
            let take = (want - out.len()).min(node.len() - offset);
            out.extend_from_slice(&node[offset..offset + take]);
        }
        self.emitted += out.len() as u64;
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnclaveConfig;
    use crate::enclave::testutil::components;
    use seg_fs::UserId;

    fn p(path: &str) -> SegPath {
        SegPath::parse(path).unwrap()
    }

    fn owner() -> GroupId {
        UserId::new("alice").unwrap().default_group()
    }

    /// Upload helper pushing `content` through the streaming path in
    /// odd-sized chunks.
    fn upload(f: &crate::enclave::testutil::ComponentFixture, path: &str, content: &[u8]) {
        let new_owner = if f.files.file_exists(&p(path)).unwrap() {
            None
        } else {
            Some(owner())
        };
        let mut ctx = f
            .files
            .begin_upload(&p(path), content.len() as u64, new_owner)
            .unwrap();
        for chunk in content.chunks(1013) {
            f.files.upload_chunk(&mut ctx, chunk).unwrap();
        }
        assert!(f.files.upload_complete(&ctx));
        f.files.commit_upload(ctx).unwrap();
    }

    #[test]
    fn init_is_idempotent() {
        let f = components(EnclaveConfig::default());
        f.files.init_file_system().unwrap();
        f.files.init_file_system().unwrap();
        assert!(f.files.dir_exists(&p("/")).unwrap());
    }

    #[test]
    fn create_list_remove_dirs() {
        let f = components(EnclaveConfig::default());
        f.files.create_dir(&p("/a/"), owner()).unwrap();
        f.files.create_dir(&p("/a/b/"), owner()).unwrap();
        let listing = f.files.list_dir(&p("/a/")).unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].name, "b");
        assert!(listing[0].is_dir);
        // Non-empty dirs refuse removal.
        assert!(f.files.remove(&p("/a/")).is_err());
        f.files.remove(&p("/a/b/")).unwrap();
        f.files.remove(&p("/a/")).unwrap();
        assert!(!f.files.dir_exists(&p("/a/")).unwrap());
        // Root is protected.
        assert!(f.files.remove(&p("/")).is_err());
    }

    #[test]
    fn streaming_upload_download_chunk_boundaries() {
        let f = components(EnclaveConfig::default());
        // Sizes straddling PFS node and protocol chunk boundaries.
        for (i, size) in [0usize, 1, 4067, 4068, 4069, 300_000].iter().enumerate() {
            let path = format!("/f{i}");
            let content: Vec<u8> = (0..*size).map(|b| (b % 251) as u8).collect();
            upload(&f, &path, &content);
            assert_eq!(
                f.files.read_file(&p(&path)).unwrap(),
                content,
                "size {size}"
            );
            // Download context reports the exact size.
            if *size > 0 {
                let dl = f.files.open_download(&p(&path)).unwrap();
                assert_eq!(dl.total_len(), *size as u64);
            }
        }
    }

    #[test]
    fn oversized_chunk_rejected() {
        let f = components(EnclaveConfig::default());
        let mut ctx = f.files.begin_upload(&p("/f"), 10, Some(owner())).unwrap();
        assert!(f.files.upload_chunk(&mut ctx, &[0u8; 11]).is_err());
    }

    #[test]
    fn rename_file_and_directory_tree() {
        let f = components(EnclaveConfig::default());
        f.files.create_dir(&p("/src/"), owner()).unwrap();
        f.files.create_dir(&p("/src/sub/"), owner()).unwrap();
        upload(&f, "/src/a", b"file a");
        upload(&f, "/src/sub/b", b"file b");
        f.files.create_dir(&p("/dst/"), owner()).unwrap();

        f.files.rename(&p("/src/"), &p("/dst/moved/")).unwrap();
        assert_eq!(f.files.read_file(&p("/dst/moved/a")).unwrap(), b"file a");
        assert_eq!(
            f.files.read_file(&p("/dst/moved/sub/b")).unwrap(),
            b"file b"
        );
        assert!(!f.files.dir_exists(&p("/src/")).unwrap());
        // Moving a directory into itself is refused.
        assert!(f
            .files
            .rename(&p("/dst/"), &p("/dst/moved/inner/"))
            .is_err());
        // Kind mismatch is refused.
        assert!(f.files.rename(&p("/dst/moved/a"), &p("/x/")).is_err());
    }

    #[test]
    fn dedup_upload_creates_indirection() {
        let f = components(EnclaveConfig {
            dedup: true,
            ..EnclaveConfig::default()
        });
        let content = vec![0x77u8; 50_000];
        upload(&f, "/one", &content);
        upload(&f, "/two", &content);
        assert_eq!(f.files.read_file(&p("/one")).unwrap(), content);
        assert_eq!(f.files.read_file(&p("/two")).unwrap(), content);
        // Removing one copy leaves the other intact (blob remains).
        f.files.remove(&p("/one")).unwrap();
        assert_eq!(f.files.read_file(&p("/two")).unwrap(), content);
    }

    #[test]
    fn remove_missing_file_errors() {
        let f = components(EnclaveConfig::default());
        assert!(f.files.remove(&p("/ghost")).is_err());
        assert!(f.files.open_download(&p("/ghost")).is_err());
    }

    #[test]
    fn blob_gc_reclaims_only_unreferenced_blobs() {
        let f = components(EnclaveConfig {
            dedup: true,
            ..EnclaveConfig::default()
        });
        let shared = vec![0x42u8; 30_000];
        let lonely = vec![0x43u8; 30_000];
        upload(&f, "/one", &shared);
        upload(&f, "/two", &shared);
        upload(&f, "/three", &lonely);
        // Everything still referenced: GC finds nothing.
        assert_eq!(f.files.blob_gc().unwrap(), 0);
        // One of two references gone: the shared blob survives.
        f.files.remove(&p("/one")).unwrap();
        assert_eq!(f.files.blob_gc().unwrap(), 0);
        assert_eq!(f.files.read_file(&p("/two")).unwrap(), shared);
        // Last references gone: both blobs are reclaimed, exactly once.
        f.files.remove(&p("/two")).unwrap();
        f.files.remove(&p("/three")).unwrap();
        assert_eq!(f.files.blob_gc().unwrap(), 2);
        assert_eq!(f.files.blob_gc().unwrap(), 0);
    }

    #[test]
    fn overwrite_moves_dedup_reference() {
        let f = components(EnclaveConfig {
            dedup: true,
            ..EnclaveConfig::default()
        });
        let old = vec![0x11u8; 20_000];
        let new = vec![0x22u8; 20_000];
        upload(&f, "/doc", &old);
        // Overwriting releases the old content's reference...
        upload(&f, "/doc", &new);
        assert_eq!(f.files.blob_gc().unwrap(), 1);
        assert_eq!(f.files.read_file(&p("/doc")).unwrap(), new);
        // ...and re-uploading identical content is refcount-neutral.
        upload(&f, "/doc", &new);
        assert_eq!(f.files.blob_gc().unwrap(), 0);
        assert_eq!(f.files.read_file(&p("/doc")).unwrap(), new);
    }

    #[test]
    fn rename_keeps_dedup_reference_alive() {
        let f = components(EnclaveConfig {
            dedup: true,
            ..EnclaveConfig::default()
        });
        let content = vec![0x55u8; 20_000];
        upload(&f, "/before", &content);
        f.files.rename(&p("/before"), &p("/after")).unwrap();
        // The indirection moved verbatim: net-zero refcount change.
        assert_eq!(f.files.blob_gc().unwrap(), 0);
        assert_eq!(f.files.read_file(&p("/after")).unwrap(), content);
        f.files.remove(&p("/after")).unwrap();
        assert_eq!(f.files.blob_gc().unwrap(), 1);
    }
}
