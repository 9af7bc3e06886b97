//! Mobility binding caches.
//!
//! A binding maps a stable address (home address, or RCoA at a MAP) to the
//! mobile host's current care-of address with an association lifetime —
//! the "mobility binding table" of Mobile IP (§2.1.1 of the thesis).
//! Entries expire lazily: lookups take the current time and ignore entries
//! whose lifetime has lapsed.
//!
//! # Examples
//!
//! ```
//! use fh_mip::BindingCache;
//! use fh_sim::{SimDuration, SimTime};
//!
//! let mut cache = BindingCache::new();
//! let home = "2001:db8:100::1".parse().unwrap();
//! let coa = "2001:db8:1::1".parse().unwrap();
//! cache.update(home, coa, SimDuration::from_secs(10), SimTime::ZERO);
//! assert_eq!(cache.lookup(home, SimTime::from_secs(5)), Some(coa));
//! assert_eq!(cache.lookup(home, SimTime::from_secs(11)), None);
//! ```

use std::net::Ipv6Addr;

use fh_sim::{FastMap, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One binding-cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BindingEntry {
    /// Current care-of address.
    pub coa: Ipv6Addr,
    /// Association lifetime from `registered_at`.
    pub lifetime: SimDuration,
    /// When the binding was (re)registered.
    pub registered_at: SimTime,
}

impl BindingEntry {
    /// `true` if the entry is still valid at `now`.
    #[must_use]
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        match self.registered_at.checked_add(self.lifetime) {
            Some(expiry) => now < expiry,
            None => true, // effectively infinite lifetime
        }
    }
}

/// A table of stable-address → care-of-address bindings.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BindingCache {
    entries: FastMap<Ipv6Addr, BindingEntry>,
    /// Total successful registrations (for statistics).
    pub registrations: u64,
}

impl BindingCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        BindingCache::default()
    }

    /// Registers or refreshes a binding. A zero lifetime deregisters
    /// (Mobile IP's deregistration convention).
    ///
    /// Returns the previous care-of address, if one was bound.
    pub fn update(
        &mut self,
        stable: Ipv6Addr,
        coa: Ipv6Addr,
        lifetime: SimDuration,
        now: SimTime,
    ) -> Option<Ipv6Addr> {
        if lifetime.is_zero() {
            return self.entries.remove(&stable).map(|e| e.coa);
        }
        self.registrations += 1;
        self.entries
            .insert(
                stable,
                BindingEntry {
                    coa,
                    lifetime,
                    registered_at: now,
                },
            )
            .map(|e| e.coa)
    }

    /// The current care-of address for `stable`, if a live binding exists.
    #[must_use]
    #[inline]
    pub fn lookup(&self, stable: Ipv6Addr, now: SimTime) -> Option<Ipv6Addr> {
        self.entries
            .get(&stable)
            .filter(|e| e.is_valid_at(now))
            .map(|e| e.coa)
    }

    /// Full entry access (valid or not), for inspection.
    #[must_use]
    pub fn entry(&self, stable: Ipv6Addr) -> Option<&BindingEntry> {
        self.entries.get(&stable)
    }

    /// Removes a binding outright. Returns the removed care-of address.
    pub fn remove(&mut self, stable: Ipv6Addr) -> Option<Ipv6Addr> {
        self.entries.remove(&stable).map(|e| e.coa)
    }

    /// Number of entries (including expired ones not yet purged).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0x2001, 0xdb8, n, 0, 0, 0, 0, 1)
    }

    #[test]
    fn update_and_lookup() {
        let mut c = BindingCache::new();
        assert_eq!(
            c.update(a(100), a(1), SimDuration::from_secs(10), SimTime::ZERO),
            None
        );
        assert_eq!(c.lookup(a(100), SimTime::from_secs(1)), Some(a(1)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.registrations, 1);
    }

    #[test]
    fn reregistration_returns_old_coa() {
        let mut c = BindingCache::new();
        c.update(a(100), a(1), SimDuration::from_secs(10), SimTime::ZERO);
        let old = c.update(
            a(100),
            a(2),
            SimDuration::from_secs(10),
            SimTime::from_secs(1),
        );
        assert_eq!(old, Some(a(1)));
        assert_eq!(c.lookup(a(100), SimTime::from_secs(2)), Some(a(2)));
    }

    #[test]
    fn lifetime_expiry_is_lazy() {
        let mut c = BindingCache::new();
        c.update(
            a(100),
            a(1),
            SimDuration::from_secs(10),
            SimTime::from_secs(5),
        );
        assert_eq!(c.lookup(a(100), SimTime::from_secs(14)), Some(a(1)));
        assert_eq!(c.lookup(a(100), SimTime::from_secs(15)), None);
        assert_eq!(c.len(), 1); // still stored
    }

    #[test]
    fn zero_lifetime_deregisters() {
        let mut c = BindingCache::new();
        c.update(a(100), a(1), SimDuration::from_secs(10), SimTime::ZERO);
        let removed = c.update(a(100), a(1), SimDuration::ZERO, SimTime::from_secs(1));
        assert_eq!(removed, Some(a(1)));
        assert!(c.is_empty());
        assert_eq!(c.registrations, 1); // deregistration is not a registration
    }

    #[test]
    fn remove_unknown_is_none() {
        let mut c = BindingCache::new();
        assert_eq!(c.remove(a(1)), None);
        assert_eq!(c.lookup(a(1), SimTime::ZERO), None);
        assert_eq!(c.entry(a(1)), None);
    }

    #[test]
    fn near_infinite_lifetime_never_expires() {
        let mut c = BindingCache::new();
        c.update(a(1), a(2), SimDuration::MAX, SimTime::from_secs(1));
        assert_eq!(c.lookup(a(1), SimTime::MAX), Some(a(2)));
    }
}
