//! File contents and fingerprints derived from (seed, file, generation).
//!
//! Nothing the benchmark writes is kept in memory: every expected byte is
//! regenerated from the triple that named it, so a 48 MB population costs
//! no more to check than a 1 KB one.

/// SplitMix64's finalizer: a cheap, well-mixed 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The key all of one file generation's bytes derive from.
pub fn file_key(seed: u64, file: usize, generation: u32) -> u64 {
    mix(seed ^ mix(((file as u64) << 32) | generation as u64))
}

/// The exact bytes of generation `generation` of `file`.
pub fn contents(key: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut i = 0u64;
    while out.len() < len {
        out.extend_from_slice(&mix(key.wrapping_add(i)).to_le_bytes());
        i += 1;
    }
    out.truncate(len);
    out
}

/// A 64-bit fingerprint of `data` (length-seeded multiply-xor over
/// little-endian words); one changed byte changes it.
pub fn fingerprint(data: &[u8]) -> u64 {
    const K: u64 = 0x9fb2_1c65_1e98_df25;
    let mut h = (data.len() as u64).wrapping_mul(K);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("eight-byte chunk"));
        h = (h ^ v).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    mix(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contents_are_a_pure_function_of_key_and_length() {
        let k = file_key(7, 3, 1);
        assert_eq!(contents(k, 1000), contents(k, 1000));
        assert_eq!(&contents(k, 1000)[..13], &contents(k, 13)[..]);
        assert_ne!(contents(k, 64), contents(file_key(7, 3, 2), 64));
    }

    #[test]
    fn fingerprint_sees_every_byte() {
        let mut d = contents(file_key(1, 2, 3), 4099);
        let f = fingerprint(&d);
        for i in [0, 7, 8, 4095, 4098] {
            d[i] ^= 1;
            assert_ne!(fingerprint(&d), f, "flip at {i}");
            d[i] ^= 1;
        }
        assert_ne!(fingerprint(&d[..4098]), f);
    }
}
