//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) for wire-format
//! integrity.
//!
//! Version-2 SPASM streams carry a trailing CRC-32 over the header,
//! template, tile-directory and instance-stream sections, and every wire-v3
//! container section is CRC'd individually, so in-flight or at-rest
//! corruption is detected before any structural parsing trusts the bytes.
//!
//! The implementation is slicing-by-8: eight 256-entry tables built in a
//! `const` context (no runtime init), folding eight input bytes per step.
//! Cold-start latency is bounded by how fast a mapped container can be
//! checksummed, so this path is worth keeping at memory-bandwidth-ish
//! speed rather than the classic one-byte-per-step loop.
//!
//! Two derived forms avoid re-reading bytes that did not change:
//!
//! * [`crc32_update`] continues a CRC across consecutive chunks, so a
//!   stream can be checksummed as it is produced, never materialised;
//! * [`crc32_patch`] re-derives the CRC of an equal-length message with
//!   a few bytes rewritten. CRC-32 is affine over GF(2), so for messages
//!   `M` and `M'` of equal length `crc(M') = crc(M) ⊕ raw(M ⊕ M')`, where
//!   `raw` is the CRC without pre- and post-conditioning. `M ⊕ M'` is
//!   zero outside the rewritten bytes, so `raw` reduces to the rewritten
//!   bytes' `raw` CRC followed by `n` zero bytes — a multiplication by
//!   `x^(8n)` mod P, as in zlib's `crc32_combine`.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[t][b] extends tables[t-1][b] by one zero byte: table t gives
    // the contribution of a byte seen t positions before the current one.
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `x^(2^k)` mod P for `k` in `0..32`, in the reflected bit order
/// (`1 << 31` is `x^0`). Squaring walks the table; because the
/// multiplicative order of `x` divides `2^32 − 1`, `x^(2^32) = x`, so
/// exponents with more than 32 bits wrap round the table.
static X2N: [u32; 32] = build_x2n();

const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p: u32 = 1 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    table
}

/// `a · b` mod P, both operands in the reflected bit order.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut m: u32 = 1 << 31;
    let mut p: u32 = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `x^(8n)` mod P: the operator that appends `n` zero bytes to a raw
/// CRC state.
fn x8n_mod_p(mut n: u64) -> u32 {
    let mut p: u32 = 1 << 31; // x^0
    let mut k = 3; // 8n = n · 2^3
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The unconditioned CRC recurrence, slicing-by-8: folds `data` into the
/// register `crc` (no initial or final inversion).
fn raw_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// The CRC-32 (IEEE) of `data`.
///
/// # Examples
///
/// ```
/// // The standard check vector.
/// assert_eq!(spasm_format::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues the CRC-32 `crc` of some prefix over the next chunk `data`:
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)`, and `crc32_update(0, b)`
/// is `crc32(b)`.
///
/// # Examples
///
/// ```
/// use spasm_format::{crc32, crc32_update};
/// assert_eq!(crc32_update(crc32(b"1234"), b"56789"), crc32(b"123456789"));
/// ```
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    !raw_update(!crc, data)
}

/// Re-derives the CRC-32 of a `len`-byte message whose bytes at
/// `offset..offset + old.len()` changed from `old` to `new`, given the
/// message's CRC-32 `crc` before the change — without reading the rest
/// of the message. Costs `O(old.len() + log len)`.
///
/// # Panics
///
/// When `old` and `new` differ in length, or the rewritten range does
/// not lie inside the message.
///
/// # Examples
///
/// ```
/// use spasm_format::{crc32, crc32_patch};
/// let mut msg = *b"123456789";
/// let before = crc32(&msg);
/// msg[3..5].copy_from_slice(b"xy");
/// assert_eq!(crc32_patch(before, 9, 3, b"45", b"xy"), crc32(&msg));
/// ```
pub fn crc32_patch(crc: u32, len: u64, offset: u64, old: &[u8], new: &[u8]) -> u32 {
    assert_eq!(old.len(), new.len(), "a patch rewrites bytes in place");
    let end = offset
        .checked_add(old.len() as u64)
        .filter(|&end| end <= len)
        .expect("patched range lies inside the message");
    let mut diff = 0u32;
    for (&o, &n) in old.iter().zip(new) {
        diff = (diff >> 8) ^ TABLES[0][((diff ^ u32::from(o ^ n)) & 0xFF) as usize];
    }
    crc ^ mul_mod_p(x8n_mod_p(len - end), diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_sensitivity() {
        let base = vec![0u8; 64];
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i * 131 + 7) as u8).collect()
    }

    /// Continuing across any split point — including every split inside
    /// and around the 8-byte chunk boundary — equals the one-shot CRC.
    #[test]
    fn update_matches_one_shot_at_every_split() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200] {
            let data = sample(len);
            let whole = crc32(&data);
            for split in 0..=len {
                let (a, b) = data.split_at(split);
                assert_eq!(crc32_update(crc32(a), b), whole, "len {len} split {split}");
            }
            // Three pieces, the middle one straddling a chunk boundary.
            if len >= 12 {
                let c = crc32_update(crc32_update(crc32(&data[..5]), &data[5..11]), &data[11..]);
                assert_eq!(c, whole, "len {len} three-way");
            }
        }
    }

    /// Patching equals recomputing at the first and last word, and at
    /// every offset that straddles an 8-byte chunk.
    #[test]
    fn patch_matches_recompute() {
        for len in [4usize, 5, 8, 12, 20, 64, 257, 4096 + 3] {
            let base = sample(len);
            let crc = crc32(&base);
            let mut offsets: Vec<usize> = vec![0, len - 4];
            offsets.extend((1..len.saturating_sub(4)).filter(|o| o % 8 > 4 || o % 8 == 0));
            for off in offsets {
                let mut next = base.clone();
                let old = [base[off], base[off + 1], base[off + 2], base[off + 3]];
                let new = [old[0] ^ 0xA5, old[1], old[2].wrapping_add(1), !old[3]];
                next[off..off + 4].copy_from_slice(&new);
                assert_eq!(
                    crc32_patch(crc, len as u64, off as u64, &old, &new),
                    crc32(&next),
                    "len {len} offset {off}"
                );
            }
        }
    }

    /// A sequence of patches folds exactly, and a no-op patch is free.
    #[test]
    fn patch_sequences_fold() {
        let mut data = sample(1 << 16);
        let len = data.len() as u64;
        let mut crc = crc32(&data);
        assert_eq!(
            crc32_patch(crc, len, 100, &data[100..104], &data[100..104]),
            crc
        );
        let mut state = 0x9E37_79B9u32;
        for _ in 0..64 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let off = (state as usize >> 4) % (data.len() - 4);
            let old: Vec<u8> = data[off..off + 4].to_vec();
            let new = state.to_le_bytes();
            data[off..off + 4].copy_from_slice(&new);
            crc = crc32_patch(crc, len, off as u64, &old, &new);
        }
        assert_eq!(crc, crc32(&data));
    }

    #[test]
    fn x2n_table_squares() {
        // x^(2^32) wraps back to x, which is what lets exponents with more
        // than 32 bits index the table modulo 32.
        assert_eq!(mul_mod_p(X2N[31], X2N[31]), X2N[0]);
        assert_eq!(x8n_mod_p(0), 1 << 31);
    }

    /// The sliced fast path and the classic byte-at-a-time recurrence
    /// agree on every length around the 8-byte chunk boundary.
    #[test]
    fn sliced_path_matches_bytewise_reference() {
        fn reference(data: &[u8]) -> u32 {
            let mut crc = u32::MAX;
            for &b in data {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            !crc
        }
        let data: Vec<u8> = (0..257u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }
}
