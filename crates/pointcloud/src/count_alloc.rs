//! A counting global allocator for allocation-budget measurements.
//!
//! The workspace's zero-allocation claims (see the core crate's
//! `workspace` module) are *measured*: a binary installs
//! [`CountingAllocator`] as its `#[global_allocator]` and reads
//! [`allocation_count`] deltas around the hot path — the serve crate's
//! `zero_alloc` test asserts the delta is 0, the `fcbench` benchmark
//! reports it per request. The counter is a single relaxed atomic
//! increment per `alloc`/`realloc`, cheap enough that the bench numbers
//! stay representative; binaries that don't install the allocator pay
//! nothing.
//!
//! ```ignore
//! use fractalcloud_pointcloud::count_alloc::{allocation_count, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//!
//! let before = allocation_count();
//! hot_path();
//! println!("allocs: {}", allocation_count() - before);
//! ```
//!
//! Only heap *acquisitions* are counted (`alloc`, `alloc_zeroed`, and
//! `realloc`, which may acquire a new region); `dealloc` is tracked
//! separately via [`deallocation_count`] so leak-shaped deltas are visible
//! too. Counters are process-global: measure on a quiesced process (or a
//! single-threaded section) for exact per-operation numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap acquisitions (`alloc` + `alloc_zeroed` + `realloc`) observed by an
/// installed [`CountingAllocator`] since process start. Always zero when no
/// binary installed the allocator.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap releases (`dealloc`) observed by an installed
/// [`CountingAllocator`] since process start.
pub fn deallocation_count() -> u64 {
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// [`System`] with relaxed-atomic acquisition/release counters — install as
/// `#[global_allocator]` in a test or bench binary to measure allocations per
/// operation (see the [module docs](self)).
pub struct CountingAllocator;

// SAFETY: defers every operation to `System` with unchanged layouts; the
// counter updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_without_installation() {
        // The library never installs the allocator itself; only bench
        // binaries do, so in unit tests the counters stay untouched.
        assert_eq!(allocation_count(), 0);
        assert_eq!(deallocation_count(), 0);
    }
}
