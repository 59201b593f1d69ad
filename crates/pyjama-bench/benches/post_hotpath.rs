//! The allocation-free posting hot path: recycled regions vs the pre-PR
//! fresh-allocation path.
//!
//! Two workloads drive the same worker target with the same trivial
//! bodies, each in two arms:
//!
//! * **recycled** — the production path: `Runtime::target` with the label
//!   interned at registration, the region acquired from the recycler slab,
//!   the body stored inline (`InlineFn`). In steady state a post touches
//!   the global allocator zero times.
//! * **fresh** — what every post did before the recycler: a per-post
//!   registry lookup, a `format!` label, a heap-boxed body closure, a
//!   fresh `Arc` + `Core` via [`TargetRegion::unpooled`], posted through
//!   the same `invoke_target_block` entry, all of it freed on the worker
//!   after the run.
//!
//! Three workloads:
//!
//! * **paced** — posts from an external thread through the injector in
//!   batches smaller than the recycler slab (an unbounded `nowait` burst
//!   would just measure queue growth). Carries the zero-allocation gate,
//!   measured by a counting global allocator over whole
//!   post→dispatch→run windows.
//! * **inline re-arm** — a member thread posts to its own pool in a
//!   loop, taking Algorithm 1's member short-circuit: acquire → execute
//!   → release, the full region lifecycle on one thread with no queues,
//!   wakes, or scheduler in the measurement. Carries the throughput
//!   gate: it charges each arm *all* of its costs on the same critical
//!   path — the recycled arm its reset, the fresh arm its `format!`,
//!   allocations *and* frees. (The cross-thread workloads' wall time is
//!   dominated by dispatch/wake costs identical in both arms, which on a
//!   small CI box dilutes the ratio below what the posting path actually
//!   gained.)
//! * **chain** — each region posts its successor from the worker thread
//!   (reactor re-arm, VM directive loops), ping-ponging between two
//!   pools (a same-pool post from a member thread would take the inline
//!   short-circuit and recurse). Reported for end-to-end evidence and
//!   the batched-dequeue dispatch mix, not gated.
//!
//! Gates (full mode):
//!
//! 1. **zero allocations per post in steady state** — the best paced
//!    window must be exactly 0 (best-of-K, because a preempted poster can
//!    race a worker's release against its own handle drop and force one
//!    legitimate fresh construction — noise adds allocations, it never
//!    removes them);
//! 2. **throughput** — the recycled inline re-arm loop must post ≥ 1.3×
//!    faster than the fresh one on a 4-worker pool.
//!
//! Under `PJ_BENCH_QUICK=1` the zero-alloc gate still holds (it is a
//! property, not a margin) while the throughput ratio is reported but not
//! asserted — one short CI round on a shared runner is not a measurement.
//!
//! Results land in `bench_results/post_hotpath.{txt,csv}` plus the
//! machine-readable `BENCH_hotpath.json` headline fold, which also records
//! the CPUs the run could use.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use pyjama_bench::harness::{self, quick_mode};
use pyjama_bench::perfjson::{env, fold_headlines, JsonObj};
use pyjama_bench::report::Table;
use pyjama_runtime::{alloc_stats, Mode, Runtime, TargetRegion};
use pyjama_trace::TraceId;

/// Counts every allocator entry (alloc, realloc, alloc_zeroed) process-wide.
/// Frees are not counted: the gate is about allocation pressure on the
/// posting path, and a free-only window would still mean the path allocated
/// somewhere else first.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NAME: &str = "bench-a";
const NAME_B: &str = "bench-b";
const GATE_WORKERS: usize = 4;
const MIN_SPEEDUP: f64 = 1.3;
/// Posts in flight per pacing batch — safely under the recycler slab's
/// capacity so the steady state reuses rather than constructs.
const BATCH: usize = 32;

/// The pool a chain link running on `pool` posts its successor to.
fn other(pool: &'static str) -> &'static str {
    if pool == NAME {
        NAME_B
    } else {
        NAME
    }
}

// ------------------------------------------------------- paced workload

/// Posts `n` trivial regions through the recycled hot path, paced in
/// batches, and waits for all of them to execute. Returns wall ns. The
/// completion counter is caller-provided so its allocation stays outside
/// any allocator-measurement window.
fn drive_recycled(rt: &Runtime, n: usize, done: &Arc<AtomicUsize>) -> u64 {
    done.store(0, Ordering::Relaxed);
    let t0 = Instant::now();
    let mut posted = 0usize;
    while posted < n {
        let batch = BATCH.min(n - posted);
        for _ in 0..batch {
            let done = Arc::clone(done);
            rt.target(NAME, Mode::NoWait, move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        posted += batch;
        while done.load(Ordering::Relaxed) < posted {
            std::thread::yield_now();
        }
    }
    t0.elapsed().as_nanos() as u64
}

/// Builds one pre-recycler region exactly the way every post built one
/// before this PR: the registry looked the target up per post, formatted
/// the diagnostic label from the runtime name (`black_box` keeps the
/// constant-named bench honest — the real path formats an arbitrary
/// `&str`), and the body was a heap `Box<dyn FnOnce>` (there was no
/// inline small-closure storage).
fn fresh_region(
    name: &str,
    body: impl FnOnce() + Send + 'static,
) -> std::sync::Arc<TargetRegion> {
    let name = std::hint::black_box(name);
    let label: Arc<str> = Arc::from(format!("target virtual({name})"));
    let boxed: Box<dyn FnOnce() + Send> = Box::new(body);
    TargetRegion::unpooled(label, TraceId::mint(), boxed)
}

/// Same paced workload through the pre-recycler path: per-post lookup,
/// `format!` label, boxed body, fresh `Arc` + `Core`, no slab.
fn drive_fresh(rt: &Runtime, n: usize, done: &Arc<AtomicUsize>) -> u64 {
    done.store(0, Ordering::Relaxed);
    let t0 = Instant::now();
    let mut posted = 0usize;
    while posted < n {
        let batch = BATCH.min(n - posted);
        for _ in 0..batch {
            let target = rt.lookup(NAME).expect("bench target registered");
            let done = Arc::clone(done);
            let region = fresh_region(NAME, move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
            rt.invoke_target_block(&target, Mode::NoWait, region);
        }
        posted += batch;
        while done.load(Ordering::Relaxed) < posted {
            std::thread::yield_now();
        }
    }
    t0.elapsed().as_nanos() as u64
}

/// Allocator-call delta over one window of `n` recycled-arm paced posts.
fn alloc_window(rt: &Runtime, n: usize, done: &Arc<AtomicUsize>) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    drive_recycled(rt, n, done);
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

// ------------------------------------------------- inline re-arm workload

/// Times `n` recycled posts from a member thread of the pool: each takes
/// the member short-circuit — label lookup, slab acquire (thread-local
/// cache hit in steady state), reset, inline execute, release back to the
/// cache. Measured inside the worker so pool dispatch of the outer block
/// is excluded. Returns ns for the whole loop.
fn inline_recycled(rt: &Arc<Runtime>, n: usize) -> u64 {
    let out = Arc::new(AtomicU64::new(0));
    let rt2 = Arc::clone(rt);
    let o = Arc::clone(&out);
    rt.target(NAME, Mode::Wait, move || {
        let t0 = Instant::now();
        for _ in 0..n {
            rt2.target(NAME, Mode::NoWait, || {});
        }
        o.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    });
    out.load(Ordering::Relaxed)
}

/// The same loop, pre-recycler: per-post registry lookup, `format!`
/// label, boxed body, fresh `Arc` + `Core`, handle minted, inline
/// execute, then a plain drop (no slab — the pre-PR inline path never
/// parked regions), freeing everything the post allocated on the same
/// thread.
fn inline_fresh(rt: &Arc<Runtime>, n: usize) -> u64 {
    let out = Arc::new(AtomicU64::new(0));
    let rt2 = Arc::clone(rt);
    let o = Arc::clone(&out);
    rt.target(NAME, Mode::Wait, move || {
        let t0 = Instant::now();
        for _ in 0..n {
            let _target = rt2.lookup(NAME).expect("bench target registered");
            let region = fresh_region(NAME, || {});
            let handle = region.handle();
            region.execute();
            drop(region);
            drop(handle);
        }
        o.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    });
    out.load(Ordering::Relaxed)
}

// ------------------------------------------------------- chain workload

/// Shared control block for one chain run: a link budget and a count of
/// finished chains (condvar-signalled so the driving thread blocks
/// instead of burning a CPU share spin-yielding). One `Arc` keeps the
/// chain closures at three inline words (`rt`, `ctl`, next-pool
/// `&'static str`).
struct ChainCtl {
    remaining: AtomicIsize,
    done: Mutex<usize>,
    cv: Condvar,
}

/// One link of a recycled re-arm chain: post a region to `pool`; its body
/// decrements the shared budget and posts the successor to the *other*
/// pool (from this pool's worker thread — release→acquire stays
/// on-thread), or marks the chain done.
fn chain_recycled(rt: Arc<Runtime>, ctl: Arc<ChainCtl>, pool: &'static str) {
    if ctl.remaining.fetch_sub(1, Ordering::Relaxed) <= 0 {
        *ctl.done.lock() += 1;
        ctl.cv.notify_all();
        return;
    }
    let rt2 = Arc::clone(&rt);
    let next = other(pool);
    rt.target(pool, Mode::NoWait, move || chain_recycled(rt2, ctl, next));
}

/// The same link through the pre-recycler path: per-post lookup (what
/// `try_target` does anyway), `format!` label, boxed body, fresh `Arc`
/// + `Core`, freed on the worker after the run.
fn chain_fresh(rt: Arc<Runtime>, ctl: Arc<ChainCtl>, pool: &'static str) {
    if ctl.remaining.fetch_sub(1, Ordering::Relaxed) <= 0 {
        *ctl.done.lock() += 1;
        ctl.cv.notify_all();
        return;
    }
    let target = rt.lookup(pool).expect("bench target registered");
    let rt2 = Arc::clone(&rt);
    let next = other(pool);
    let region = fresh_region(pool, move || chain_fresh(rt2, ctl, next));
    rt.invoke_target_block(&target, Mode::NoWait, region);
}

/// Runs `chains` concurrent chains totalling ~`total` regions, seeded
/// half-and-half into the two pools, and waits for every chain to finish.
/// Returns wall ns.
fn drive_chain(rt: &Arc<Runtime>, recycled: bool, total: usize, chains: usize) -> u64 {
    let ctl = Arc::new(ChainCtl {
        remaining: AtomicIsize::new(total as isize),
        done: Mutex::new(0),
        cv: Condvar::new(),
    });
    let t0 = Instant::now();
    for i in 0..chains {
        let rt2 = Arc::clone(rt);
        let c = Arc::clone(&ctl);
        let pool = if i % 2 == 0 { NAME } else { NAME_B };
        if recycled {
            chain_recycled(rt2, c, pool);
        } else {
            chain_fresh(rt2, c, pool);
        }
    }
    let mut g = ctl.done.lock();
    while *g < chains {
        ctl.cv.wait(&mut g);
    }
    t0.elapsed().as_nanos() as u64
}

fn main() {
    let (inline_posts, chain_total, rounds, windows, window_posts) = if quick_mode() {
        (20_000, 4_000, 2, 3, 800)
    } else {
        (100_000, 40_000, 5, 5, 2_000)
    };
    let mut txt = String::new();
    let _ = writeln!(
        txt,
        "post_hotpath: {inline_posts} inline re-arms/arm, {chain_total} chained regions/arm, \
         best-of-{rounds}, {windows}x{window_posts}-post alloc windows{}",
        if quick_mode() { " (quick)" } else { "" }
    );

    let mut table = Table::new(&[
        "workload",
        "arm",
        "workers",
        "posts",
        "ns_per_post",
        "allocs_per_post",
        "speedup",
    ]);
    let mut gate_speedup = None;
    let mut gate_min_allocs = None;

    for &workers in &[1usize, GATE_WORKERS] {
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_create_worker(NAME, workers);
        rt.virtual_target_create_worker(NAME_B, workers);
        // Enough chains in flight that both pools' queues stay deep and
        // workers run long stretches instead of parking between hops —
        // park/unpark is a syscall that would dominate both arms equally.
        let chains = 16 * workers.max(2);

        // Warm everything the steady state reuses: pool threads, the
        // recycler slabs and per-worker caches, deque/injector/pending
        // capacities, the allocator's own free lists.
        let done = Arc::new(AtomicUsize::new(0));
        drive_recycled(&rt, 4 * BATCH, &done);
        drive_fresh(&rt, 2 * BATCH, &done);
        drive_chain(&rt, true, 8 * BATCH, chains);
        drive_chain(&rt, false, 4 * BATCH, chains);
        drive_recycled(&rt, 4 * BATCH, &done);

        // Zero-alloc gate: best paced window over K. A window can catch a
        // stray fresh construction (poster preempted between post and
        // handle drop), but a clean window proves the whole
        // post→dispatch→run path ran allocation-free.
        let mut min_allocs = u64::MAX;
        let mut per_window = Vec::new();
        for _ in 0..windows {
            let a = alloc_window(&rt, window_posts, &done);
            min_allocs = min_allocs.min(a);
            per_window.push(a);
        }
        if min_allocs > 0 {
            // One retry after extra warmup before declaring failure.
            drive_recycled(&rt, 8 * BATCH, &done);
            for _ in 0..windows {
                let a = alloc_window(&rt, window_posts, &done);
                min_allocs = min_allocs.min(a);
                per_window.push(a);
            }
        }

        // Throughput gate: interleaved best-of rounds of the inline
        // re-arm loop, both arms, timed on the member thread itself.
        let (best_inl_rec, best_inl_fresh) = harness::compare(
            rounds,
            || inline_recycled(&rt, inline_posts),
            || inline_fresh(&rt, inline_posts),
        );
        let inl_rec_per = best_inl_rec as f64 / inline_posts as f64;
        let inl_fresh_per = best_inl_fresh as f64 / inline_posts as f64;
        let inl_speedup = inl_fresh_per / inl_rec_per;

        // End-to-end evidence (not gated): interleaved best-of rounds of
        // the cross-pool chain workload, both arms.
        let (pool_a, pool_b) = (rt.lookup(NAME).unwrap(), rt.lookup(NAME_B).unwrap());
        let (before_a, before_b) = (pool_a.stats(), pool_b.stats());
        let (best_recycled, best_fresh) = harness::compare(
            rounds,
            || drive_chain(&rt, true, chain_total, chains),
            || drive_chain(&rt, false, chain_total, chains),
        );
        let (da, db) = (
            pool_a.stats().since(&before_a),
            pool_b.stats().since(&before_b),
        );

        let recycled_per = best_recycled as f64 / chain_total as f64;
        let fresh_per = best_fresh as f64 / chain_total as f64;
        let speedup = fresh_per / recycled_per;
        let _ = writeln!(
            txt,
            "workers={workers}  inline re-arm: recycled {inl_rec_per:5.0} ns/post  fresh \
             {inl_fresh_per:5.0} ns/post  speedup {inl_speedup:5.2}x  alloc windows \
             {per_window:?} (min {min_allocs})"
        );
        let _ = writeln!(
            txt,
            "  chain e2e: recycled {recycled_per:5.0} ns/region  fresh {fresh_per:5.0} \
             ns/region  speedup {speedup:5.2}x"
        );
        let _ = writeln!(
            txt,
            "  dispatch mix (both pools): local {} / steals {} (batches {}, moved {}) / \
             injector {} (batches {}, moved {})",
            da.local_pops + db.local_pops,
            da.steals + db.steals,
            da.steal_batches + db.steal_batches,
            da.steal_moved + db.steal_moved,
            da.injector_pops + db.injector_pops,
            da.injector_batches + db.injector_batches,
            da.injector_moved + db.injector_moved
        );
        table.row(vec![
            "inline".into(),
            "recycled".into(),
            workers.to_string(),
            inline_posts.to_string(),
            format!("{inl_rec_per:.0}"),
            format!("{:.2}", min_allocs as f64 / window_posts as f64),
            format!("{inl_speedup:.2}"),
        ]);
        table.row(vec![
            "inline".into(),
            "fresh".into(),
            workers.to_string(),
            inline_posts.to_string(),
            format!("{inl_fresh_per:.0}"),
            String::from("n/a"),
            String::from("1.00"),
        ]);
        table.row(vec![
            "chain".into(),
            "recycled".into(),
            workers.to_string(),
            chain_total.to_string(),
            format!("{recycled_per:.0}"),
            String::from("n/a"),
            format!("{speedup:.2}"),
        ]);
        table.row(vec![
            "chain".into(),
            "fresh".into(),
            workers.to_string(),
            chain_total.to_string(),
            format!("{fresh_per:.0}"),
            String::from("n/a"),
            String::from("1.00"),
        ]);

        if workers == GATE_WORKERS {
            gate_speedup = Some(inl_speedup);
            gate_min_allocs = Some(min_allocs);
        }

        drop(rt);
    }

    // Quiesce, then audit the recycler's books: every region ever
    // constructed is recycled, live, or dropped — nothing leaks, nothing
    // double-counts.
    let deadline = Instant::now() + std::time::Duration::from_secs(2);
    let mut al = alloc_stats();
    while !al.conserved() && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
        al = alloc_stats();
    }
    let _ = writeln!(
        txt,
        "recycler: allocated {} reused {} (reuse rate {:.4}) recycled {} live {} dropped {} \
         poisoned {}",
        al.allocated,
        al.reused,
        al.reuse_rate(),
        al.recycled,
        al.live,
        al.dropped,
        al.poisoned
    );

    let min_allocs = gate_min_allocs.expect("gate worker count measured");
    let speedup = gate_speedup.expect("gate worker count measured");
    if quick_mode() {
        let _ = writeln!(
            txt,
            "quick mode: throughput gate reported only (speedup {speedup:.2}x, full gate >= \
             {MIN_SPEEDUP}x)"
        );
    }
    let _ = writeln!(
        txt,
        "gates: alloc windows min {min_allocs} (must be 0), inline re-arm speedup \
         {speedup:.2}x (full gate >= {MIN_SPEEDUP}x)"
    );

    // Artifacts first, gates after: a failed gate still leaves the report
    // on disk for diagnosis.
    print!("{txt}");
    std::fs::create_dir_all("bench_results").ok();
    std::fs::write("bench_results/post_hotpath.txt", &txt).expect("write txt");
    table.write_csv("bench_results/post_hotpath.csv").expect("write csv");

    // Machine-readable fold: this bench's headline plus every other
    // experiment's, re-read from the CSVs they wrote.
    let mut hot = JsonObj::new();
    hot.uint("workers", GATE_WORKERS as u64)
        .uint("posts", inline_posts as u64)
        .num("speedup", speedup)
        .uint("steady_state_allocs_per_post", min_allocs)
        .num("reuse_rate", al.reuse_rate())
        .bool("quick", quick_mode());
    let mut doc = JsonObj::new();
    doc.str("bench", "post_hotpath")
        .str("source", "cargo bench -p pyjama-bench --bench post_hotpath")
        .obj("env", env())
        .obj("hotpath", hot)
        .obj("headlines", fold_headlines(Path::new("bench_results")));
    std::fs::write("BENCH_hotpath.json", doc.finish() + "\n").expect("write json");
    println!(
        "wrote bench_results/post_hotpath.txt, bench_results/post_hotpath.csv, BENCH_hotpath.json"
    );

    assert!(
        al.conserved(),
        "conservation law violated at quiesce: allocated {} != recycled {} + live {} + dropped {}",
        al.allocated,
        al.recycled,
        al.live,
        al.dropped
    );
    assert_eq!(
        min_allocs, 0,
        "steady-state posting must be allocation-free: best window still made {min_allocs} \
         allocator calls"
    );
    if !quick_mode() {
        assert!(
            speedup >= MIN_SPEEDUP,
            "recycled inline re-arm on a {GATE_WORKERS}-worker pool must be >= \
             {MIN_SPEEDUP}x the fresh path, got {speedup:.2}x"
        );
    }
    println!("post hot path within budget ✓ (0 allocs/post, {speedup:.2}x)");
}
