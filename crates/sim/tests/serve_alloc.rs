//! Heap allocations on the serve wire path, counted by a global
//! allocator: in steady state a `decide` line allocates nothing through
//! `handle_line_into` (the request is scanned in place, the response
//! written into the caller's buffer, the journal record encoded into a
//! reused frame), and exactly once — the returned `String` — through
//! `handle_line`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdr_sim::engine::{ServeConfig, ServeEngine};
use mdr_sim::{DurableServe, JournalConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// counter is const-initialized and has no destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made on this thread by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const OPENS: [&str; 3] = [
    r#"{"op":"open","tenant":"t0","policy":"SW5"}"#,
    r#"{"op":"open","tenant":"t1","policy":"T1(2)","model":"message:0.25"}"#,
    r#"{"op":"open","tenant":"t2","policy":"SW1","model":"message:0.5"}"#,
];

/// A deterministic stream of well-formed decide lines over the tenants.
fn decide_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let letter = if (i * 7 + i / 3) % 5 < 2 { 'w' } else { 'r' };
            format!(
                r#"{{"op":"decide","tenant":"t{}","request":"{letter}"}}"#,
                i % 3
            )
        })
        .collect()
}

#[test]
fn engine_decide_lines_allocate_nothing_in_steady_state() {
    let mut engine = ServeEngine::new(ServeConfig::default()).expect("default config is valid");
    for open in OPENS {
        engine.handle_line(open);
    }
    let lines = decide_lines(3_000);
    let mut out = String::new();
    for line in &lines[..30] {
        out.clear();
        engine.handle_line_into(line, &mut out);
    }
    let n = allocations(|| {
        for line in &lines[30..] {
            out.clear();
            engine.handle_line_into(line, &mut out);
        }
    });
    assert!(out.starts_with(r#"{"ok":"decision""#), "{out}");
    assert_eq!(n, 0, "allocations over {} decide lines", lines.len() - 30);

    let n = allocations(|| {
        for line in &lines[..300] {
            assert!(engine.handle_line(line).starts_with(r#"{"ok":"decision""#));
        }
    });
    assert_eq!(n, 300, "handle_line allocates only the returned String");
}

#[test]
fn durable_decide_lines_allocate_nothing_in_steady_state() {
    let dir = std::env::temp_dir().join(format!("mdr-serve-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut journal = JournalConfig::new(&dir);
    // Checkpoints serialize a snapshot and allocate by design; keep
    // them out of the measured window. The default fsync interval stays,
    // and fsyncs allocate nothing.
    journal.checkpoint_every = 1_000_000;
    let (mut serve, _) =
        DurableServe::open(ServeConfig::default(), journal).expect("fresh data dir opens");
    for open in OPENS {
        serve.handle_line(open);
    }
    let lines = decide_lines(3_000);
    let mut out = String::new();
    for line in &lines[..30] {
        out.clear();
        serve.handle_line_into(line, &mut out);
    }
    let n = allocations(|| {
        for line in &lines[30..] {
            out.clear();
            serve.handle_line_into(line, &mut out);
        }
    });
    assert!(out.starts_with(r#"{"ok":"decision""#), "{out}");
    assert_eq!(
        n,
        0,
        "allocations over {} durable decide lines",
        lines.len() - 30
    );
    assert_eq!(serve.stats().journal_appends, 3 + lines.len() as u64);
    drop(serve);
    let _ = std::fs::remove_dir_all(&dir);
}
