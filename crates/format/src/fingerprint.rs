//! Content fingerprints over the canonical v2 wire stream.
//!
//! A [`MatrixFingerprint`] identifies a matrix by *content*, not by
//! identity: it combines the CRC-32 of the full canonical byte stream
//! (the same [`crate::crc32`] that guards the wire checksum) with the
//! stream length and the shape fields a serving front-end routes on
//! (rows, cols, tile size, instance count). Two matrices share a
//! fingerprint exactly when their canonical v2 serialisations are
//! byte-for-byte equal — matrices that differ only in their values
//! produce different streams and therefore different fingerprints.
//!
//! The extra length/shape fields make accidental collisions require a
//! simultaneous CRC-32 collision *and* identical length and shape, so
//! false sharing between distinct catalog entries is negligible in
//! practice (and impossible between matrices of different sizes).
//!
//! # The cached CRC
//!
//! The definition above is the whole contract; how
//! [`SpasmMatrix::fingerprint`] computes it is not. Each matrix carries a
//! private cache of its payload CRC, and the invariant is that the cache,
//! when populated, always equals a full recompute over the canonical
//! bytes. It is invisible except in speed: not part of equality, not
//! printed by `Debug`, and a clone copies it by value, never sharing it.
//! Each constructor and mutator keeps the invariant:
//!
//! * [`SpasmMatrix::encode`] and [`SpasmMatrix::spliced`] start empty;
//! * [`SpasmMatrix::from_bytes`] of a v2 stream seeds it with the CRC it
//!   has just verified, which covers exactly the canonical payload
//!   (unless the stream's alignment pad is nonzero, the one field a
//!   re-serialisation does not reproduce — then it stays empty); v1
//!   streams carry no CRC and stay empty;
//! * [`SpasmMatrix::to_bytes`] neither reads nor fills it, so
//!   `MatrixFingerprint::of_wire_bytes(&m.to_bytes())` is always a
//!   from-scratch reference to check the cache against;
//! * [`SpasmMatrix::patch_values`] updates a populated cache exactly with
//!   [`crate::crc32_patch`] per rewritten 4-byte slot — `O(ops · log len)`
//!   — and leaves an empty one empty;
//! * on a miss, `fingerprint` streams the sections through
//!   [`crate::crc32_update`] with the same section writer `to_bytes`
//!   uses, without allocating the stream, and fills the cache.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::crc::crc32;
use crate::matrix::SpasmMatrix;
use crate::serialize::{WireError, CHECKSUM_BYTES, HEADER_BYTES, MAGIC, VERSION};

/// A content fingerprint of a matrix's canonical v2 wire stream.
///
/// Cheap to copy, hash and order — suitable as a catalog key. Construct
/// one with [`SpasmMatrix::fingerprint`] (the canonical v2 stream's
/// fingerprint, without materialising it) or
/// [`MatrixFingerprint::of_wire_bytes`] when the v2 stream is already in
/// hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixFingerprint {
    /// CRC-32 (IEEE) over the canonical stream's payload — everything up
    /// to the trailing wire checksum. The checksum itself is excluded
    /// because a CRC computed over a message followed by its own CRC
    /// collapses to a content-independent residue.
    crc: u32,
    /// Length of the canonical stream in bytes.
    len: u64,
    /// Dense row count.
    rows: u32,
    /// Dense column count.
    cols: u32,
    /// Tile edge length.
    tile_size: u32,
    /// Template-pattern instances in the stream.
    n_instances: u64,
}

impl MatrixFingerprint {
    /// Fingerprints an in-memory v2 wire stream without decoding it.
    ///
    /// Only the fixed-size header is parsed (magic, version and the shape
    /// fields); the CRC runs over the whole buffer. The stream must be a
    /// version-2 stream — the canonical serialisation — because the
    /// fingerprint is defined over canonical bytes; decode legacy v1
    /// streams first and fingerprint via [`SpasmMatrix::fingerprint`].
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when shorter than a header,
    /// [`WireError::BadMagic`] / [`WireError::BadVersion`] when the
    /// stream is not a v2 SPASM stream.
    pub fn of_wire_bytes(data: &[u8]) -> Result<Self, WireError> {
        if data.len() < HEADER_BYTES {
            return Err(WireError::Truncated { reading: "header" });
        }
        let word =
            |at: usize| u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
        if data[0..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = word(4);
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let mut wide = [0u8; 8];
        wide.copy_from_slice(&data[44..52]);
        let payload = data.len().saturating_sub(CHECKSUM_BYTES);
        Ok(MatrixFingerprint {
            crc: crc32(&data[..payload]),
            len: data.len() as u64,
            rows: word(8),
            cols: word(12),
            tile_size: word(16),
            n_instances: u64::from_le_bytes(wide),
        })
    }

    /// Dense row count recorded in the fingerprint.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Dense column count recorded in the fingerprint.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Canonical stream length in bytes.
    pub fn stream_len(&self) -> u64 {
        self.len
    }

    /// CRC-32 of the canonical stream — handy for log lines.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// A compact `crc:len` display token for logs and reports.
    pub fn token(&self) -> String {
        format!("{:08x}:{}", self.crc, self.len)
    }
}

impl SpasmMatrix {
    /// Computes the content fingerprint of this matrix's canonical v2
    /// serialisation (see [`MatrixFingerprint`]).
    ///
    /// Equal to `MatrixFingerprint::of_wire_bytes(&self.to_bytes())` but
    /// infallible and without materialising the stream; `O(1)` once the
    /// matrix's CRC cache is populated (see the module docs).
    pub fn fingerprint(&self) -> MatrixFingerprint {
        MatrixFingerprint {
            crc: self.payload_crc(),
            len: (self.payload_len() + CHECKSUM_BYTES) as u64,
            rows: self.rows(),
            cols: self.cols(),
            tile_size: self.tile_size(),
            n_instances: self.n_instances() as u64,
        }
    }
}

/// A matrix's cached payload CRC: empty, or the CRC-32 in the low 32 bits
/// with bit 32 set. Atomic so [`SpasmMatrix::fingerprint`] can fill it
/// through `&self`; the value publishes no other data (it is a pure
/// function of content the caller already reads), so `Relaxed` suffices.
#[derive(Default)]
pub(crate) struct CrcCache(AtomicU64);

impl CrcCache {
    const KNOWN: u64 = 1 << 32;

    pub(crate) fn seeded(crc: Option<u32>) -> Self {
        CrcCache(AtomicU64::new(
            crc.map_or(0, |c| Self::KNOWN | u64::from(c)),
        ))
    }

    pub(crate) fn get(&self) -> Option<u32> {
        let v = self.0.load(Ordering::Relaxed);
        (v & Self::KNOWN != 0).then_some(v as u32)
    }

    pub(crate) fn set(&self, crc: u32) {
        self.0
            .store(Self::KNOWN | u64::from(crc), Ordering::Relaxed);
    }
}

/// A clone copies the value: the two caches evolve independently.
impl Clone for CrcCache {
    fn clone(&self) -> Self {
        CrcCache::seeded(self.get())
    }
}

/// Not part of a matrix's identity: two matrices are equal by content
/// whether or not either has computed its CRC yet.
impl PartialEq for CrcCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submatrix::SubmatrixMap;
    use spasm_patterns::{DecompositionTable, GridSize, Template, TemplateSet};
    use spasm_sparse::Coo;

    fn encode(triplets: Vec<(u32, u32, f32)>) -> SpasmMatrix {
        let coo = Coo::from_triplets(16, 16, triplets).unwrap();
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 16).unwrap()
    }

    #[test]
    fn fingerprint_matches_wire_bytes() {
        let m = encode(vec![(0, 0, 1.0), (3, 7, 2.0), (15, 15, -0.5)]);
        let direct = m.fingerprint();
        let from_wire = MatrixFingerprint::of_wire_bytes(&m.to_bytes()).unwrap();
        assert_eq!(direct, from_wire);
        assert_eq!(direct.rows(), 16);
        assert_eq!(direct.cols(), 16);
        assert_eq!(direct.stream_len(), m.to_bytes().len() as u64);
    }

    #[test]
    fn value_only_differences_change_the_fingerprint() {
        let a = encode(vec![(0, 0, 1.0), (3, 7, 2.0)]);
        let b = encode(vec![(0, 0, 1.0), (3, 7, 2.5)]);
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn identical_content_shares_a_fingerprint() {
        let a = encode(vec![(1, 2, 3.0), (9, 4, -1.0)]);
        let b = encode(vec![(1, 2, 3.0), (9, 4, -1.0)]);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn rejects_foreign_and_legacy_streams() {
        let m = encode(vec![(0, 0, 1.0)]);
        assert_eq!(
            MatrixFingerprint::of_wire_bytes(&[0u8; 8]),
            Err(WireError::Truncated { reading: "header" })
        );
        let mut bad = m.to_bytes().to_vec();
        bad[0] = b'X';
        assert_eq!(
            MatrixFingerprint::of_wire_bytes(&bad),
            Err(WireError::BadMagic)
        );
        assert_eq!(
            MatrixFingerprint::of_wire_bytes(&m.to_bytes_v1()),
            Err(WireError::BadVersion(1))
        );
    }

    /// The from-scratch reference: `to_bytes` never consults the cache.
    fn scratch(m: &SpasmMatrix) -> MatrixFingerprint {
        MatrixFingerprint::of_wire_bytes(&m.to_bytes()).unwrap()
    }

    fn dense_ish() -> SpasmMatrix {
        let mut t = vec![];
        for r in 0..16u32 {
            for c in (r % 3..16).step_by(3) {
                t.push((r, c, (r * 16 + c + 1) as f32 * 0.25));
            }
        }
        encode(t)
    }

    #[test]
    fn cache_states_follow_constructors() {
        let m = dense_ish();
        assert_eq!(m.payload_crc.get(), None, "encode starts empty");
        let _ = m.to_bytes();
        assert_eq!(m.payload_crc.get(), None, "to_bytes leaves the cache alone");
        let fp = m.fingerprint();
        assert_eq!(
            m.payload_crc.get(),
            Some(fp.crc()),
            "a miss fills the cache"
        );
        assert_eq!(fp, scratch(&m));

        let v2 = SpasmMatrix::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(v2.payload_crc.get(), Some(fp.crc()), "v2 decode seeds");
        let v1 = SpasmMatrix::from_bytes(&m.to_bytes_v1()).unwrap();
        assert_eq!(v1.payload_crc.get(), None, "v1 carries no CRC");
        assert_eq!(v1.fingerprint(), fp);
    }

    #[test]
    fn nonzero_alignment_pad_does_not_seed() {
        // An odd template count gives the stream a pad word; a stream
        // with a nonzero pad decodes to the same matrix, whose canonical
        // bytes differ from the ones received.
        let s = GridSize::S4;
        let mut templates: Vec<Template> = (0..4).map(|r| Template::row(s, r)).collect();
        templates.extend((0..4).map(|c| Template::col(s, c)));
        templates.push(Template::block2(0, 0));
        let table = DecompositionTable::build(&TemplateSet::new(s, "odd", templates));
        let coo = Coo::from_triplets(16, 16, vec![(0, 0, 1.0), (1, 1, 2.0), (9, 3, 3.0)]).unwrap();
        let m = SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 8).unwrap();
        assert_eq!(m.template_masks().len() % 2, 1);
        let mut b = m.to_bytes().to_vec();
        let pad = HEADER_BYTES + m.template_masks().len() * 2;
        b[pad] = 0x5A;
        let payload = b.len() - CHECKSUM_BYTES;
        let crc = crc32(&b[..payload]).to_le_bytes();
        b[payload..].copy_from_slice(&crc);
        let back = SpasmMatrix::from_bytes(&b).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.payload_crc.get(), None);
        assert_eq!(back.fingerprint(), scratch(&m));
    }

    #[test]
    fn patches_carry_the_cache_exactly() {
        let mut m = dense_ish();
        // Empty cache: patching computes nothing.
        m.patch_values(&[(0, 0, 9.0)]).unwrap();
        assert_eq!(m.payload_crc.get(), None);
        m.fingerprint();
        let cells: Vec<(u32, u32)> = m.to_coo().iter().map(|(r, c, _)| (r, c)).collect();
        for (step, chunk) in cells.chunks(5).enumerate() {
            // Repeat a cell within one batch: the later write wins.
            let mut entries: Vec<(u32, u32, f32)> = chunk
                .iter()
                .map(|&(r, c)| (r, c, step as f32 + 0.5 + r as f32))
                .collect();
            entries.push((chunk[0].0, chunk[0].1, -3.0 - step as f32));
            m.patch_values(&entries).unwrap();
            assert!(m.payload_crc.get().is_some());
            assert_eq!(m.fingerprint(), scratch(&m), "step {step}");
        }
        // A rejected patch leaves the cache as it was.
        let before = m.fingerprint();
        assert!(m.patch_values(&[(0, 0, 1.0), (15, 14, 0.0)]).is_err());
        assert_eq!(m.fingerprint(), before);
    }

    #[test]
    fn clones_do_not_share_the_cache() {
        let mut a = dense_ish();
        a.fingerprint();
        let mut b = a.clone();
        a.patch_values(&[(0, 0, 7.0)]).unwrap();
        assert_eq!(b.fingerprint(), scratch(&b));
        b.patch_values(&[(1, 1, -7.0)]).unwrap();
        assert_eq!(a.fingerprint(), scratch(&a));
        assert_eq!(b.fingerprint(), scratch(&b));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(!format!("{a:?}").contains("crc"));
    }

    #[test]
    fn token_is_stable_per_content() {
        let m = encode(vec![(2, 2, 4.0)]);
        assert_eq!(m.fingerprint().token(), m.fingerprint().token());
        assert!(m.fingerprint().token().contains(':'));
    }
}
