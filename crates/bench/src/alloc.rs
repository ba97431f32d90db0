//! A counting global allocator.
//!
//! The paper reports virtual-memory footprints (Fig. 4(3), Fig. 5(2));
//! the harness substitutes *peak live heap bytes*, tracked by wrapping
//! the system allocator. Install it in a binary with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: linkclust_bench::alloc::CountingAlloc = linkclust_bench::alloc::CountingAlloc;
//! ```
//!
//! then bracket a measurement with [`reset_peak`] / [`peak_bytes`].
//!
//! All counter accesses are `Relaxed`: each update is a single atomic
//! RMW, and a reader observes another thread's allocations only through
//! its own happens-before edge with that thread (a `join`, or the
//! worker pool's caller-helps rendezvous) — not through these
//! orderings. Measurement brackets in this workspace always hold such
//! an edge (the pool run they bracket has completed), so the counts
//! they read are exact; an unsynchronized concurrent read would be
//! advisory only.

// The workspace denies `unsafe_code`; this module is the single audited
// exception — implementing `GlobalAlloc` is inherently unsafe, and every
// unsafe block here only forwards to the `System` allocator with the
// caller's own layout, which preserves its contract verbatim.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`GlobalAlloc`] wrapper around [`System`] that tracks current and
/// peak live bytes.
pub struct CountingAlloc;

impl CountingAlloc {
    fn record_alloc(size: usize) {
        let cur = CURRENT.fetch_add(size, Ordering::Relaxed) + size; // ordering: stats RMW
        PEAK.fetch_max(cur, Ordering::Relaxed); // ordering: monotone-max stats RMW
    }

    fn record_dealloc(size: usize) {
        CURRENT.fetch_sub(size, Ordering::Relaxed); // ordering: stats RMW
    }
}

// SAFETY: delegates all allocation to `System`; the counters are simple
// atomics with no aliasing concerns.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::record_alloc(new_size - layout.size());
            } else {
                Self::record_dealloc(layout.size() - new_size);
            }
        }
        p
    }
}

/// Live heap bytes right now (0 if the counting allocator is not
/// installed). Exact for allocations the caller happens-after (see the
/// module note); advisory for threads still running.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed) // ordering: see module note on reader HB edges
}

/// Peak live heap bytes since the last [`reset_peak`]. Exact once the
/// measured threads have been joined or rendezvoused with (see the
/// module note); advisory while they still run.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed) // ordering: see module note on reader HB edges
}

/// Resets the peak to the current live count and returns the old peak.
pub fn reset_peak() -> usize {
    // ordering: stats RMW + read; see module note on reader HB edges
    PEAK.swap(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed)
}

/// Measures the peak live heap growth while running `f`: resets the
/// peak, runs, and returns `(result, peak_bytes − bytes_at_entry)`.
///
/// Returns 0 growth when the counting allocator is not installed.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = current_bytes();
    reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(before))
}

/// Formats a byte count human-readably (KiB/MiB/GiB).
#[must_use]
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0 MiB");
        assert_eq!(format_bytes(5 * 1024 * 1024 * 1024), "5.0 GiB");
    }

    #[test]
    fn measure_peak_without_installed_allocator_is_safe() {
        // In the test harness the counting allocator is not the global
        // one, so counters stay 0 — the API must still be well-behaved.
        let (value, growth) = measure_peak(|| vec![0u8; 1024].len());
        assert_eq!(value, 1024);
        let _ = growth; // 0 here; > 0 when installed (verified in repro)
        assert!(current_bytes() <= peak_bytes() || peak_bytes() == 0);
    }
}
