//! A counting global allocator for allocation-regression tests.
//!
//! The zero-copy datapath's whole point is that the steady-state relay loop
//! touches the allocator zero times per packet; an assertion to that effect
//! needs a way to *count* allocations. [`CountingAllocator`] wraps the system
//! allocator and counts every `alloc`/`realloc` (and `dealloc`) that passes
//! through.
//!
//! Register it from a test binary (see `tests/zero_alloc.rs`):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//! ```
//!
//! The counters are process-global, so an allocation-free window is asserted
//! by diffing [`CountingAllocator::allocations`] around the measured loop —
//! which only works reliably when nothing else runs concurrently (keep one
//! test per binary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`GlobalAlloc`] that counts events before delegating to [`System`].
#[derive(Debug)]
pub struct CountingAllocator {
    allocations: AtomicU64,
    deallocations: AtomicU64,
    live_bytes: AtomicU64,
    peak_bytes: AtomicU64,
}

impl CountingAllocator {
    /// Creates the allocator with zeroed counters.
    pub const fn new() -> Self {
        Self {
            allocations: AtomicU64::new(0),
            deallocations: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        }
    }

    /// Number of allocation events so far (`alloc` + growing `realloc`).
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Number of deallocation events so far.
    pub fn deallocations(&self) -> u64 {
        self.deallocations.load(Ordering::Relaxed)
    }

    /// Bytes currently live (allocated minus deallocated) — the retained
    /// footprint a memory-independence test diffs around a workload.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of [`CountingAllocator::live_bytes`] — the peak
    /// memory the process has held. Monotone; compare marks taken before
    /// and after a workload to bound its peak working set.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    fn on_alloc(&self, size: u64) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        let live = self.live_bytes.fetch_add(size, Ordering::Relaxed) + size;
        self.peak_bytes.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(&self, size: u64) {
        self.deallocations.fetch_add(1, Ordering::Relaxed);
        // Saturating: frees of memory allocated before the counters existed
        // (or racing with them) must not wrap the gauge.
        self.live_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                Some(live.saturating_sub(size))
            })
            .ok();
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates faithfully to the system allocator; the counters are
// plain relaxed atomics with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.on_alloc(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.on_dealloc(layout.size() as u64);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.on_alloc(new_size as u64);
        self.on_dealloc(layout.size() as u64);
        self.deallocations.fetch_sub(1, Ordering::Relaxed); // a realloc is one event, not two
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.on_alloc(layout.size() as u64);
        unsafe { System.alloc_zeroed(layout) }
    }
}
