//! Allocator-traffic pinning for `PwlEngine::eval_scatter_into`: a call
//! whose chunks all lie inside one output slice evaluates straight into
//! the outputs and never touches the heap. Only a chunk that straddles a
//! job boundary needs the scratch buffer. A serve flush of one large job
//! and every `BackendProgram::eval_batch` are calls of that kind.
//!
//! This binary holds exactly one test, and the counting global
//! allocator counts only the thread that switched it on, so the libtest
//! harness cannot add to the count.

use flexsfu_core::{CompiledPwl, CompiledPwlF32, PwlFunction};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator counting the allocations of threads that set
/// [`COUNTING`].
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn scatter_into_whole_chunks_does_not_allocate() {
    // The engine evaluates in chunks of 4096 elements: three whole
    // chunks and a 5-element tail.
    const CHUNK: usize = 4096;
    const N: usize = 3 * CHUNK + 5;
    let pwl = PwlFunction::new(
        vec![-2.0, -1.0, 0.5, 2.0],
        vec![0.3, -0.7, 1.1, 0.9],
        0.25,
        -0.5,
    )
    .unwrap();
    let engine = CompiledPwl::from_pwl(&pwl);
    let engine32 = CompiledPwlF32::from_pwl(&pwl);
    let xs: Vec<f64> = (0..N).map(|i| i as f64 * 1e-3 - 6.0).collect();
    let xs32: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
    let mut out = vec![0.0f64; N];
    let mut out32 = vec![0.0f32; N];

    let single = allocations(|| {
        engine.eval_scatter_into(&xs, &mut [out.as_mut_slice()]);
        engine32.eval_scatter_into(&xs32, &mut [out32.as_mut_slice()]);
    });
    assert_eq!(single, 0, "single-slice scatters allocated {single} times");
    for (&x, &y) in xs.iter().zip(&out) {
        assert_eq!(y.to_bits(), engine.eval_one(x).to_bits(), "at {x}");
    }
    for (&x, &y) in xs32.iter().zip(&out32) {
        assert_eq!(y.to_bits(), engine32.eval_one(x).to_bits(), "at {x}");
    }

    // Slice edges on chunk edges: still no chunk straddles a job.
    let aligned = allocations(|| {
        let (a, b) = out.split_at_mut(CHUNK);
        engine.eval_scatter_into(&xs, &mut [a, &mut [], b]);
    });
    assert_eq!(
        aligned, 0,
        "chunk-aligned scatter allocated {aligned} times"
    );
}
