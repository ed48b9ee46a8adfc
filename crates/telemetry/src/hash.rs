//! The workspace's one content hash: FNV-1a 64-bit. Ledger entry keys,
//! cell-store keys and journal checksums, cell trace ids and guard
//! budget jitter all use it, so it lives in this leaf crate.

/// FNV-1a 64-bit over `bytes`. Chosen because it is tiny, dependency
/// free, and byte-stable across platforms; collision resistance at
/// ledger scale (hundreds of entries) is not a concern, and the
/// `(kind, source)` replace policy in the ledger index disambiguates
/// the pathological case.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A content key: 16 lowercase hex digits of [`fnv1a64`] over the
/// canonical identity string.
pub fn content_key(identity: &str) -> String {
    format!("{:016x}", fnv1a64(identity.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(content_key("foobar"), "85944171f73967e8");
    }
}
