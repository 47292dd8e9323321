//! A deterministic, non-cryptographic hasher for the simulator's hot-path
//! maps (line addresses, request tokens, row coordinates).
//!
//! Each written word is folded into the state with a 64×64→128-bit
//! multiply whose halves are XORed together, so the low bits a hash table
//! indexes by depend on every input bit — line addresses, whose low six
//! bits are always zero, still spread over all buckets. There is no random
//! seed: use these maps only where iteration order never reaches the
//! output (lookups, inserts, removals and `len`). Without a seed there is
//! also no protection against keys crafted to collide, so key them only by
//! values the simulator derives itself, never by input read from a client.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the folded multiply (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher: one word of state, one folded multiply per written word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        let p = u128::from(self.0 ^ i) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed through [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash(0x1234_5678u64), hash(0x1234_5678u64));
        assert_eq!(hash((3u8, 7u32)), hash((3u8, 7u32)));
        assert_ne!(hash((3u8, 7u32)), hash((7u8, 3u32)));
    }

    #[test]
    fn line_addresses_spread_over_low_bits() {
        // 4096 consecutive 64-byte lines must fill most of 4096 buckets
        // when indexed by the low 12 bits.
        let buckets: FastSet<u64> = (0..4096u64).map(|i| hash(i * 64) & 0xfff).collect();
        assert!(buckets.len() > 2400, "only {} buckets used", buckets.len());
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.remove(&(500 * 64)), Some(500));
        assert_eq!(m.get(&(501 * 64)), Some(&501));
        assert!(!m.contains_key(&(500 * 64)));
    }
}
