//! Allocation counts of executing and recording one m-operation.
//!
//! A counting global allocator tallies, per thread, the heap blocks
//! obtained and released while a store applies an m-operation and its
//! completion becomes a history record. Every benchmark shape of up to four
//! operations and outputs (`rmw2`, `q4`) must cost nothing: apply, record,
//! clone, move and drop never touch the allocator. A 32-object snapshot
//! spills each of its two lists exactly once, and dropping the record frees
//! exactly those two blocks. A program is classified once: a second
//! m-operation of the same `Arc` costs nothing either.
//!
//! Run it in release, as CI does:
//! `cargo test -q --release -p moc-bench --test record_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::mop::{EventTime, MOpRecord};
use moc_protocol::{Completion, MOperation, ReplicaStore};
use moc_workload::{query_program, rmw_program};

thread_local! {
    /// Fresh blocks (`alloc`, `alloc_zeroed`) this thread obtained.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread grew or shrank in place or by moving them.
    static RESIZES: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread released.
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting each call on the calling thread. The
/// counters are const-initialised thread-locals without a destructor, so
/// counting neither allocates nor re-enters the allocator.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the only other work is a thread-local
// counter increment, which cannot allocate, unwind or touch the block.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&BLOCKS);
        // SAFETY: the caller's guarantees on `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&BLOCKS);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&RESIZES);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` did to the heap on this thread.
#[derive(Debug, PartialEq, Eq)]
struct Heap {
    blocks: u64,
    resizes: u64,
    frees: u64,
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let read = || {
        (
            BLOCKS.with(Cell::get),
            RESIZES.with(Cell::get),
            FREES.with(Cell::get),
        )
    };
    let before = read();
    let out = f();
    let after = read();
    let heap = Heap {
        blocks: after.0 - before.0,
        resizes: after.1 - before.1,
        frees: after.2 - before.2,
    };
    (out, heap)
}

fn objects(range: std::ops::Range<u32>) -> Vec<ObjectId> {
    range.map(ObjectId::new).collect()
}

/// Applies `mop` to `store` and turns the completion into its history
/// record, as a replica and its host do.
fn apply_and_record(store: &mut ReplicaStore, mop: &MOperation) -> MOpRecord {
    let exec = store.apply(mop);
    let completion = Completion {
        id: mop.id,
        outputs: exec.outputs,
        ops: exec.ops,
        treated_as: mop.class(),
        label: mop.program.label(),
    };
    completion.into_record(EventTime::from_nanos(10), EventTime::from_nanos(20))
}

const NONE: Heap = Heap {
    blocks: 0,
    resizes: 0,
    frees: 0,
};

/// `rmw2` (two reads, two writes, a two-entry undo log) and `q4` (four
/// reads, four outputs) execute, record, clone, move and drop without a
/// single allocator call.
#[test]
fn small_m_operations_never_touch_the_allocator() {
    let p = ProcessId::new(0);
    let mut store = ReplicaStore::new(8);
    let rmw = MOperation::new(MOpId::new(p, 0), rmw_program(&objects(0..2)), Vec::new());
    let q4 = MOperation::new(MOpId::new(p, 1), query_program(&objects(0..4)), Vec::new());
    let mut kept: Vec<MOpRecord> = Vec::with_capacity(4);

    for mop in [&rmw, &q4] {
        let (_, heap) = counted(|| {
            let record = apply_and_record(&mut store, mop);
            let copy = black_box(record.clone());
            kept.push(record);
            drop(black_box(copy));
        });
        assert_eq!(heap, NONE, "{}", mop.program.name());
    }

    let (rmw_rec, q4_rec) = (&kept[0], &kept[1]);
    assert_eq!(rmw_rec.ops.len(), 4);
    assert!(rmw_rec.outputs.is_empty());
    assert_eq!(q4_rec.ops.len(), 4);
    assert_eq!(q4_rec.outputs, [1, 1, 0, 0], "the rmw incremented x and y");
    assert!(kept
        .iter()
        .all(|r| !r.ops.spilled() && !r.outputs.spilled()));

    let ((), heap) = counted(|| drop(kept.drain(..)));
    assert_eq!(heap, NONE, "dropping inline records frees nothing");
}

/// A 32-object snapshot does not fit: its operations and its outputs each
/// spill exactly once — two fresh blocks — and the record frees exactly
/// those two when dropped. (The operations list grows by `realloc` after
/// its spill; growth is counted apart and not pinned.)
#[test]
fn a_32_object_snapshot_spills_each_list_exactly_once() {
    let mut store = ReplicaStore::new(32);
    let snapshot = MOperation::new(
        MOpId::new(ProcessId::new(0), 0),
        query_program(&objects(0..32)),
        Vec::new(),
    );
    let (record, heap) = counted(|| apply_and_record(&mut store, &snapshot));
    assert_eq!(record.ops.len(), 32);
    assert_eq!(record.outputs.len(), 32);
    assert!(record.ops.spilled() && record.outputs.spilled());
    assert_eq!((heap.blocks, heap.frees), (2, 0), "{heap:?}");

    let ((), heap) = counted(|| drop(record));
    assert_eq!(heap, Heap { frees: 2, ..NONE });
}

/// The class is decided once per `Program`: the first `rmw2` m-operation
/// runs the analyzer, and every later one of the same `Arc` — `rmw2` or
/// `q4` — is created without a single allocator call.
#[test]
fn a_program_is_classified_once() {
    let p = ProcessId::new(0);
    for (program, update) in [
        (rmw_program(&objects(0..2)), true),
        (query_program(&objects(0..4)), false),
    ] {
        let first = MOperation::new(MOpId::new(p, 0), Arc::clone(&program), Vec::new());
        assert_eq!(first.is_update(), update, "{}", program.name());
        let (second, heap) = counted(|| {
            black_box(MOperation::new(
                MOpId::new(p, 1),
                Arc::clone(&program),
                Vec::new(),
            ))
        });
        assert_eq!(heap, NONE, "{}", program.name());
        assert_eq!(second.class(), first.class());
    }
}
