//! Live test of the counting global allocator: this binary installs
//! [`CountingAllocator`] (no other test binary does), so allocation
//! deltas and the peak tracker can be asserted against real traffic.

use rein_telemetry::perf::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn tracking_reports_active() {
    assert!(perf::alloc_tracking_active(), "global counting allocator must be detected");
}

#[test]
fn deltas_count_real_allocations() {
    let before = perf::alloc_snapshot();
    let blocks: Vec<Vec<u8>> = (0..10).map(|_| vec![0u8; 4096]).collect();
    let delta = perf::alloc_snapshot().since(&before);
    assert!(delta.allocs >= 10, "expected >= 10 allocations, saw {}", delta.allocs);
    assert!(
        delta.bytes_allocated >= 10 * 4096,
        "expected >= 40960 bytes, saw {}",
        delta.bytes_allocated
    );
    drop(blocks);
}

#[test]
fn peak_tracks_outstanding_bytes() {
    // One outstanding megabyte must raise the peak by at least that much.
    // Allocations on other threads (sibling tests, the harness) only add
    // to it, but a free there between the reset and the allocation lowers
    // the outstanding bytes the block lands on. Such a measurement is
    // disturbed, visible as a moved dealloc count, and is taken again.
    for _ in 0..100 {
        let deallocs = perf::alloc_snapshot().deallocs;
        perf::reset_alloc_peak();
        let floor = perf::alloc_snapshot().peak_bytes;
        let block = vec![0u8; 1 << 20];
        let after = perf::alloc_snapshot();
        if after.deallocs != deallocs {
            continue;
        }
        let peak = after.peak_bytes;
        assert!(
            peak >= floor + (1 << 20),
            "peak {peak} must exceed pre-allocation floor {floor} by the block size"
        );
        drop(block);
        // Peak is a high-water mark: freeing must not lower it.
        assert!(perf::alloc_snapshot().peak_bytes >= peak);
        return;
    }
    panic!("every measurement was disturbed by a concurrent free");
}
