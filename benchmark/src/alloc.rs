//! Counting global allocator: exact heap allocations and high-water live
//! bytes over one *counted* pass.
//!
//! Counting is gated by a window that is closed during timed passes, where
//! the allocator costs one relaxed load per call on top of the system
//! allocator. Counts repeat exactly run to run, so they are the numbers a
//! noisy shared box can still gate tightly.
//!
//! This is the only file in `benchmark/` that contains `unsafe`.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// The process-wide allocator: forwards to [`System`], counting while a
/// [`Window`] is open.
pub struct Counting;

// Relaxed everywhere: the counters publish no other data.
/// 0 while counting is off, else the [`thread_token`] of the thread that
/// opened the window: only that thread's calls are counted, so a worker
/// pool (or the test runner) allocating concurrently cannot disturb a count.
static OWNER: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment the window opened.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading its address
    // from inside the allocator neither allocates nor registers a dtor.
    static MARK: u8 = const { 0 };
}

/// A nonzero value unique to the calling thread while it lives.
fn thread_token() -> usize {
    MARK.with(|m| std::ptr::from_ref(m) as usize)
}

fn counting() -> bool {
    let owner = OWNER.load(Ordering::Relaxed);
    owner != 0 && owner == thread_token()
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches atomics, never allocates and never unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            shrank(layout.size());
        }
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            // A grow-in-place is still a trip to the allocator: count it.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            shrank(layout.size());
            grew(new_size);
        }
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` obligations
        // pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counted window saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counted {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// High-water mark of bytes allocated inside the window and not yet
    /// freed (memory that was live before the window opened is excluded).
    pub peak_bytes: u64,
}

/// An open counting window over the opening thread's allocations. Counting
/// stops when it is closed or dropped. Windows do not nest or overlap: the
/// harness opens at most one at a time.
pub struct Window(());

impl Window {
    /// Zeroes the counters and starts counting.
    pub fn open() -> Self {
        ALLOCS.store(0, Ordering::Relaxed);
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        OWNER.store(thread_token(), Ordering::Relaxed);
        Window(())
    }

    /// Stops counting and returns the totals.
    pub fn close(self) -> Counted {
        OWNER.store(0, Ordering::Relaxed);
        Counted {
            allocs: ALLOCS.load(Ordering::Relaxed),
            peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        OWNER.store(0, Ordering::Relaxed);
    }
}

/// One window at a time, process-wide, and `cargo test` runs tests on
/// parallel threads: every test that opens a window holds this.
#[cfg(test)]
pub(crate) static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_a_known_pattern_exactly() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let w = Window::open();
        let a = black_box(Box::new([0u8; 1000]));
        let b = black_box(Box::new([0u8; 3000]));
        drop(a);
        let c = black_box(Box::new([0u8; 500]));
        let got = w.close();
        drop((b, c));
        assert_eq!(got.allocs, 3);
        // 1000 + 3000 live together; 3000 + 500 later is lower.
        assert_eq!(got.peak_bytes, 4000);
    }

    #[test]
    fn realloc_counts_once_and_tracks_size() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let w = Window::open();
        let mut v: Vec<u8> = Vec::with_capacity(100);
        v.reserve_exact(900); // one realloc, 100 -> 900+ bytes
        let cap = v.capacity() as u64;
        black_box(&v);
        let got = w.close();
        assert_eq!(got.allocs, 2);
        assert_eq!(got.peak_bytes, cap);
    }

    #[test]
    fn silent_when_gated_off() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let w = Window::open();
        let first = w.close();
        let junk = black_box(vec![0u64; 4096]);
        drop(junk);
        assert_eq!(ALLOCS.load(Ordering::Relaxed), first.allocs);
        assert_eq!(PEAK.load(Ordering::Relaxed).max(0) as u64, first.peak_bytes);
    }
}
