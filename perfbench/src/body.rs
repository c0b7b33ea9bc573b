//! Self-verifying file bodies. Each body starts with a header naming
//! its path, its version, its payload length and a digest of the
//! payload, so every read can be checked without a copy of what was
//! written.

use crate::stats::Rng;

const MAGIC: &[u8; 4] = b"SGB1";
const FIXED: usize = 4 + 8 + 8 + 8 + 2;

/// Builds a body of exactly `total` bytes (or the header alone when
/// `total` is smaller) for `path` at `version`.
pub fn make(path: &str, version: u64, total: usize, rng: &mut Rng) -> Vec<u8> {
    let header = FIXED + path.len();
    let payload_len = total.saturating_sub(header);
    let mut out = Vec::with_capacity(header + payload_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload_len as u64).to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&(path.len() as u16).to_le_bytes());
    out.extend_from_slice(path.as_bytes());
    let start = out.len();
    out.resize(header + payload_len, 0);
    for chunk in out[start..].chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    let digest = digest(&out[start..]);
    out[20..28].copy_from_slice(&digest.to_le_bytes());
    out
}

/// Checks `body` as the content of `path` and returns its version.
pub fn verify(path: &str, body: &[u8]) -> Result<u64, String> {
    if body.len() < FIXED || &body[..4] != MAGIC {
        return Err(format!("{path}: body has no header"));
    }
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
    let version = word(4);
    let payload_len = word(12);
    let digest_stored = word(20);
    let path_len = usize::from(u16::from_le_bytes([body[28], body[29]]));
    let start = FIXED + path_len;
    if body.len() < start || &body[FIXED..start] != path.as_bytes() {
        return Err(format!("{path}: body belongs to another path"));
    }
    if (body.len() - start) as u64 != payload_len {
        return Err(format!(
            "{path}: length {} but header says {}",
            body.len() - start,
            payload_len
        ));
    }
    if digest(&body[start..]) != digest_stored {
        return Err(format!("{path}: payload digest mismatch"));
    }
    Ok(version)
}

/// A word-at-a-time 64-bit digest: cheap enough that checking a 1 MiB
/// body costs far less than the request that fetched it.
fn digest(data: &[u8]) -> u64 {
    let mut h = 0x6A09_E667_F3BC_C908u64 ^ data.len() as u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_tamper_detection() {
        let mut rng = Rng::new(7);
        let body = make("/a/b", 3, 5000, &mut rng);
        assert_eq!(body.len(), 5000);
        assert_eq!(verify("/a/b", &body), Ok(3));
        assert!(verify("/a/c", &body).is_err());
        let mut flipped = body.clone();
        flipped[4000] ^= 1;
        assert!(verify("/a/b", &flipped).is_err());
        assert!(verify("/a/b", &body[..4999]).is_err());
    }
}
