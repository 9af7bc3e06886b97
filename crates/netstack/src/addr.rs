//! IPv6-style addressing for the simulated network.
//!
//! The simulator reuses [`std::net::Ipv6Addr`] as its address type and adds a
//! [`Prefix`] (address + prefix length) for subnet ownership and longest
//! prefix matching, plus small helpers for deriving host addresses inside a
//! prefix — the way an access router hands out on-link care-of-addresses.
//!
//! # Examples
//!
//! ```
//! use fh_net::Prefix;
//!
//! let subnet = Prefix::new("2001:db8:1::".parse().unwrap(), 48);
//! let coa = subnet.host(0x42);
//! assert!(subnet.contains(coa));
//! assert_eq!(coa.to_string(), "2001:db8:1::42");
//! ```

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

/// An IPv6 network prefix: a base address and a prefix length in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prefix {
    addr: Ipv6Addr,
    len: u8,
}

impl Prefix {
    /// Creates a prefix from a base address and a length in bits.
    ///
    /// The base address is masked down to the prefix, so
    /// `Prefix::new(2001:db8::1, 32)` and `Prefix::new(2001:db8::, 32)` are
    /// equal.
    ///
    /// # Panics
    ///
    /// Panics if `len > 128`.
    #[must_use]
    pub fn new(addr: Ipv6Addr, len: u8) -> Self {
        assert!(len <= 128, "prefix length must be at most 128");
        Prefix {
            addr: mask(addr, len),
            len,
        }
    }

    /// The (masked) base address.
    #[must_use]
    pub fn base(&self) -> Ipv6Addr {
        self.addr
    }

    /// The prefix length in bits.
    ///
    /// (Not a container length — there is deliberately no `is_empty`.)
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// `true` if `addr` falls inside this prefix.
    #[must_use]
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        mask(addr, self.len) == self.addr
    }

    /// Derives the host address with interface identifier `iid` inside this
    /// prefix (stateless address autoconfiguration in miniature).
    #[must_use]
    pub fn host(&self, iid: u64) -> Ipv6Addr {
        let base = u128::from(self.addr);
        Ipv6Addr::from(base | u128::from(iid))
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

fn mask(addr: Ipv6Addr, len: u8) -> Ipv6Addr {
    if len == 0 {
        return Ipv6Addr::UNSPECIFIED;
    }
    let bits = u128::from(addr);
    let m = u128::MAX << (128 - u32::from(len));
    Ipv6Addr::from(bits & m)
}

/// Builds the `n`-th documentation subnet `2001:db8:n::/48`.
///
/// Convenient for laying out simulated topologies.
///
/// # Examples
///
/// ```
/// let p = fh_net::doc_subnet(3);
/// assert_eq!(p.to_string(), "2001:db8:3::/48");
/// ```
#[must_use]
pub fn doc_subnet(n: u16) -> Prefix {
    Prefix::new(Ipv6Addr::new(0x2001, 0xdb8, n, 0, 0, 0, 0, 0), 48)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_masked() {
        let p = Prefix::new("2001:db8::dead:beef".parse().unwrap(), 32);
        assert_eq!(p.base(), "2001:db8::".parse::<Ipv6Addr>().unwrap());
        assert_eq!(p.len(), 32);
    }

    #[test]
    fn contains_matches_prefix_bits() {
        let p = doc_subnet(1);
        assert!(p.contains("2001:db8:1::1".parse().unwrap()));
        assert!(p.contains("2001:db8:1:ffff::1".parse().unwrap()));
        assert!(!p.contains("2001:db8:2::1".parse().unwrap()));
    }

    #[test]
    fn zero_length_prefix_matches_everything() {
        let p = Prefix::new(Ipv6Addr::LOCALHOST, 0);
        assert!(p.contains(Ipv6Addr::UNSPECIFIED));
        assert!(p.contains("ffff::1".parse().unwrap()));
    }

    #[test]
    fn full_length_prefix_matches_only_itself() {
        let a: Ipv6Addr = "2001:db8::7".parse().unwrap();
        let p = Prefix::new(a, 128);
        assert!(p.contains(a));
        assert!(!p.contains("2001:db8::8".parse().unwrap()));
    }

    #[test]
    fn host_derivation() {
        let p = doc_subnet(5);
        assert_eq!(p.host(1).to_string(), "2001:db8:5::1");
        assert_eq!(p.host(0xabcd).to_string(), "2001:db8:5::abcd");
        assert!(p.contains(p.host(u64::MAX)));
    }

    #[test]
    fn equality_ignores_host_bits() {
        let a = Prefix::new("2001:db8:9::1".parse().unwrap(), 48);
        let b = Prefix::new("2001:db8:9::2".parse().unwrap(), 48);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at most 128")]
    fn oversized_length_panics() {
        let _ = Prefix::new(Ipv6Addr::UNSPECIFIED, 129);
    }

    #[test]
    fn display_format() {
        assert_eq!(doc_subnet(2).to_string(), "2001:db8:2::/48");
    }
}
