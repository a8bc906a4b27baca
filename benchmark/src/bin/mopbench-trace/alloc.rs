//! The traced binary's global allocator: the system allocator behind a
//! counter that can be switched off.
//!
//! Untraced units run with the switch off — one relaxed load per
//! allocation — so the traced-minus-untraced wall includes what counting
//! itself costs (two contended atomic adds per allocation across the shard
//! threads), which is most of `trace.overhead_share`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mopbench::spans::{AllocHooks, AllocSnapshot};

pub struct SwitchedCounter {
    on: AtomicBool,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl SwitchedCounter {
    pub const fn new() -> Self {
        Self {
            on: AtomicBool::new(false),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    // Relaxed throughout: the counters are statistics and publish no data.
    fn count(&self, size: usize) {
        if self.on.load(Ordering::Relaxed) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upheld; the counters touch no allocation.
unsafe impl GlobalAlloc for SwitchedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: SwitchedCounter = SwitchedCounter::new();

fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCATOR.allocs.load(Ordering::Relaxed),
        bytes: ALLOCATOR.bytes.load(Ordering::Relaxed),
    }
}

fn switch(on: bool) {
    ALLOCATOR.on.store(on, Ordering::Relaxed);
}

/// What the tracer needs to read and switch the counter.
pub fn hooks() -> AllocHooks {
    AllocHooks { snapshot, switch }
}
