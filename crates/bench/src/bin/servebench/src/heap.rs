//! Heap accounting for `heap_peak_mb`: the process's global allocator
//! forwards every call to the system allocator and, while armed, keeps the
//! net bytes allocated since it was armed, and their peak, on every thread
//! but the benchmark's own. Those are the server's threads.
//!
//! Counting by allocation, not by resident pages, leaves out the inputs the
//! benchmark generated, the load threads' sample buffers and the freed
//! pages the system allocator keeps from an earlier repetition, all of
//! which a resident-set peak of the process includes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};
use std::sync::Mutex;

/// The system allocator, observed.
pub struct Counting;

// Statistics only, so `Relaxed` throughout: [`peak_during`] arms and
// disarms them while no thread of the measured phase exists, and spawning
// and joining those threads orders their allocations between the two.
static ARMED: AtomicBool = AtomicBool::new(false);
static NET: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it allocates
    // nothing and works at any point of a thread's life.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// Leaves the calling thread's allocations out of the count from now on:
/// for the benchmark's own threads.
pub fn exclude_this_thread() {
    EXCLUDED.with(|e| e.set(true));
}

fn counted() -> bool {
    ARMED.load(Relaxed) && !EXCLUDED.with(Cell::get)
}

fn grow(bytes: usize) {
    if counted() {
        let now = NET.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrink(bytes: usize) {
    if counted() {
        NET.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s implementation of the
// `GlobalAlloc` contract is this one's; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s contract, forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc_zeroed`'s contract, forwarded as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller meets `realloc`'s
        // contract on `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Runs `f` with the counters armed from zero; returns its result and the
/// peak net bytes allocated meanwhile by threads not excluded. One
/// measurement at a time: a second caller waits for the first to finish.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    NET.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_counts_live_bytes_of_threads_not_excluded() {
        const MIB4: usize = 4 << 20;
        let _serial = crate::serial();
        let ((), peak) = peak_during(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    // 4 MiB allocated and freed four times, then one 4 MiB
                    // block held while another comes and goes: at most 8
                    // MiB is live.
                    for _ in 0..4 {
                        drop(std::hint::black_box(vec![1u8; MIB4]));
                    }
                    let kept = std::hint::black_box(vec![1u8; MIB4]);
                    drop(std::hint::black_box(vec![1u8; MIB4]));
                    drop(kept);
                });
                s.spawn(|| {
                    exclude_this_thread();
                    drop(std::hint::black_box(vec![1u8; 4 * MIB4]));
                });
            });
        });
        // Unit tests on other threads allocate a little meanwhile.
        assert!(peak.abs_diff(2 * MIB4) < MIB4 / 4, "peak {peak}");
    }
}
