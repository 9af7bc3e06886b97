//! Fixed-seed fast hashing for maps keyed by simulator-minted ids.
//!
//! Every map on the packet path is keyed by an address or id the simulator
//! minted itself, so SipHash's flooding resistance buys nothing there.
//! [`FastMap`] and [`FastSet`] are the std collections over [`FastHasher`]:
//! the rustc "Fx" multiply-rotate fold with no per-process seed, so a map
//! also iterates in the same order in every process. Never use them for
//! keys that come from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` over [`FastHasher`]; build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// `HashSet` over [`FastHasher`]; build with `FastSet::default()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

const K: u64 = 0x517c_c1b7_2722_0a95;

/// The Fx fold: `state = (state.rotl(5) ^ word) * K` per 8-byte word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Words are read big-endian: an address is a big-endian number whose
    /// entropy (subnet, interface id) sits in each word's low-order bytes,
    /// and the multiply only carries entropy upwards.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_be_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[8 - rest.len()..].copy_from_slice(rest);
            self.fold(u64::from_be_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    /// The multiply leaves its entropy in the high bits, and hashbrown
    /// takes the bucket index from the low ones: rotate the former down.
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(key: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    /// Largest number of keys sharing one of 2^12 low-bit buckets.
    fn max_load<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let mut load = [0usize; 1 << 12];
        for k in keys {
            load[(hash_of(&k) & 0xfff) as usize] += 1;
        }
        load.into_iter().max().unwrap()
    }

    #[test]
    fn independently_built_maps_iterate_in_the_same_order() {
        let build = || {
            let mut m: FastMap<u64, u64> = FastMap::default();
            for k in 0..500 {
                m.insert(k * 7919, k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn dense_ids_spread_over_the_low_bits() {
        assert!(max_load(0u32..4096) <= 8);
        assert!(max_load(0usize..4096) <= 8);
    }

    #[test]
    fn sixteen_byte_addresses_spread_over_the_low_bits() {
        // The shape of `doc_subnet(n).host(i)`: 2001:db8:n::i.
        let addrs = (0u16..64).flat_map(|n| {
            (0u16..64).map(move |i| std::net::Ipv6Addr::new(0x2001, 0xdb8, n, 0, 0, 0, 0, i))
        });
        assert!(max_load(addrs) <= 8);
    }

    #[test]
    fn byte_slices_hash_by_content_including_the_tail() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        let (mut a, mut b) = ([7u8; 11], [7u8; 11]);
        (a[10], b[10]) = (1, 2);
        assert_ne!(hash_of(&a[..]), hash_of(&b[..]));
    }
}
