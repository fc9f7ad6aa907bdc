//! Host-side measurement around the public calls: wall time and, in the
//! traced build, heap allocations counted by a wrapping global allocator.

use std::time::Instant;

#[cfg(feature = "traced")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub static COUNT: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);

    /// Forwards to the system allocator, counting allocations and the
    /// bytes they ask for. The counters publish no other data, so relaxed
    /// ordering suffices.
    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counters do not touch
    // the memory.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            COUNT.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            // SAFETY: the caller's layout contract passes through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            COUNT.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            // SAFETY: the caller's contract for `realloc` passes through.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;
}

/// Allocations and allocated bytes so far (zero in the untraced build).
fn alloc_counts() -> (u64, u64) {
    #[cfg(feature = "traced")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        (counting::COUNT.load(Relaxed), counting::BYTES.load(Relaxed))
    }
    #[cfg(not(feature = "traced"))]
    {
        (0, 0)
    }
}

/// The start of a measured stretch.
pub struct Mark {
    at: Instant,
    allocs: u64,
    bytes: u64,
}

impl Mark {
    pub fn now() -> Self {
        let (allocs, bytes) = alloc_counts();
        Mark { at: Instant::now(), allocs, bytes }
    }
}

/// Time and allocations accumulated over one or more measured stretches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub secs: f64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    /// Adds the stretch since `mark`; returns its length in seconds.
    pub fn add(&mut self, mark: &Mark) -> f64 {
        let secs = mark.at.elapsed().as_secs_f64();
        let (allocs, bytes) = alloc_counts();
        self.secs += secs;
        self.allocs += allocs - mark.allocs;
        self.bytes += bytes - mark.bytes;
        secs
    }
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
