//! `heap-dtbfm`: a mutator against the real collector under
//! `HeapConfig::paper_dtbfm()`.
//!
//! Each repetition runs on a fresh thread, so it starts from an empty
//! thread-local heap. Set-up builds a permanent structure; the timed part
//! allocates short-lived objects (held in a ring of recent objects) and
//! medium-lived ones stored into permanent objects through `GcCell::set`,
//! which makes forward-in-time pointers and remembered-set traffic.
//! Automatic collection is off: the mutator calls `collect_now()` after
//! every 1 MB of allocation (the paper's trigger) and times each call.

use crate::report::{median, quantile, rss_mb, NsHistogram, Outcome};
use crate::span::Spans;
use dtb_core::history::ScavengeHistory;
use dtb_heap::{
    collect_now, configure, heap_stats, history, Gc, GcCell, HeapConfig, Trace, Tracer,
};
use dtb_svc::SplitMix64;
use std::time::Instant;

/// Objects in the permanent structure. With the garbage DTBFM leaves
/// below its boundary the heap still reaches about 295 000 objects per
/// repetition; a six times larger structure made every wall-clock figure
/// follow the host's memory speed, which moves by a third between runs.
pub const PERMANENT: usize = 50_000;
/// Extra timed builds of the permanent structure before each repetition,
/// on a throwaway thread, so `setup_s` is a median of many builds.
const PROBE_BUILDS: usize = 2;
/// Permanent objects that receive medium-lived objects.
pub const BAND: usize = 5_000;
/// Recent short-lived objects kept reachable.
pub const RING: usize = 4_096;
/// Share of timed allocations that are medium-lived, per mille.
pub const MEDIUM_PER_MILLE: u64 = 100;
/// Allocations in the timed part of one repetition.
pub const ALLOCS: u64 = 600_000;
/// Allocation between scavenges: the paper's 1 MB trigger.
const TRIGGER: u64 = 1_000_000;
/// Wall seconds one repetition is planned to take on the reference host;
/// `--seconds` is divided by it to fix the repetition count.
const NOMINAL_REP_S: f64 = 0.5;

/// The one object shape: an id, a payload derived from the id, and one
/// pointer field.
struct Node {
    id: u64,
    payload: [u64; 3],
    link: GcCell<Option<Gc<Node>>>,
}

fn payload(id: u64) -> [u64; 3] {
    let a = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD7B0_5EED;
    [a, a.rotate_left(17) ^ id, !a]
}

impl Node {
    fn new(id: u64) -> Node {
        Node {
            id,
            payload: payload(id),
            link: GcCell::new(None),
        }
    }

    fn intact(&self) -> bool {
        self.payload == payload(self.id)
    }
}

// SAFETY: `link` is the only field that holds `Gc` handles, and every
// method delegates to it.
unsafe impl Trace for Node {
    fn trace(&self, t: &mut Tracer) {
        self.link.trace(t);
    }
    fn root(&self) {
        self.link.root();
    }
    fn unroot(&self) {
        self.link.unroot();
    }
}

/// What one repetition measured.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    collect_s: f64,
    pauses_ms: Vec<f64>,
    history: ScavengeHistory,
    traced_bytes: u64,
    reclaimed_bytes: u64,
    objects_max: usize,
    remembered_max: usize,
    mem_in_use_max: u64,
    ns_per_object: Vec<f64>,
    us_per_traced_kb: Vec<f64>,
    alloc_ns: NsHistogram,
    barrier_ns: NsHistogram,
    mismatches: Vec<String>,
}

fn build_permanent() -> Vec<Gc<Node>> {
    (0..PERMANENT as u64)
        .map(|id| Gc::new(Node::new(id)))
        .collect()
}

/// Builds the permanent structure `PROBE_BUILDS` times on the calling
/// thread's fresh heap, freeing each build with a full collection, and
/// returns the build times. Nothing is left in the heap afterwards.
fn probe_builds() -> Vec<f64> {
    configure(HeapConfig::manual_full());
    (0..PROBE_BUILDS)
        .map(|_| {
            let start = Instant::now();
            let perm = build_permanent();
            let secs = start.elapsed().as_secs_f64();
            drop(perm);
            collect_now();
            secs
        })
        .collect()
}

/// One repetition on the calling thread, which must own a fresh heap.
fn repetition(seed: u64, rep: u64, spans: &mut Spans) -> Rep {
    let traced = spans.on();
    let rep_span = spans.open("heap.repetition", None, rep);
    configure(HeapConfig {
        auto_collect: false,
        ..HeapConfig::paper_dtbfm()
    });

    let start = Instant::now();
    let build = spans.open("heap.build", rep_span, rep);
    let perm = build_permanent();
    spans.close(build);
    let setup_s = start.elapsed().as_secs_f64();
    // The heap's clock starts at 0 on a fresh thread and a birth is the
    // clock after the allocation, so the first birth is one box's size.
    let box_bytes = perm[0].birth().as_u64();
    let band_stride = PERMANENT / BAND;

    let mut rng = SplitMix64::new(seed);
    let mut ring: Vec<Option<Gc<Node>>> = vec![None; RING];
    let mut r = Rep {
        setup_s,
        wall_s: 0.0,
        collect_s: 0.0,
        pauses_ms: Vec::new(),
        history: ScavengeHistory::new(),
        traced_bytes: 0,
        reclaimed_bytes: 0,
        objects_max: 0,
        remembered_max: 0,
        mem_in_use_max: 0,
        ns_per_object: Vec::new(),
        us_per_traced_kb: Vec::new(),
        alloc_ns: NsHistogram::new(),
        barrier_ns: NsHistogram::new(),
        mismatches: Vec::new(),
    };
    let mut since_gc = 0u64;
    let mut mutator_span = spans.open("heap.mutator", rep_span, rep);
    let started = Instant::now();
    for id in PERMANENT as u64..PERMANENT as u64 + ALLOCS {
        let draw = rng.next_u64();
        let node = if traced {
            let t = Instant::now();
            let node = Gc::new(Node::new(id));
            r.alloc_ns.record(t.elapsed().as_nanos() as u64);
            node
        } else {
            Gc::new(Node::new(id))
        };
        if draw % 1000 < MEDIUM_PER_MILLE {
            let owner = &perm[((draw >> 10) % BAND as u64) as usize * band_stride];
            if traced {
                let t = Instant::now();
                owner.link.set(owner, Some(node));
                r.barrier_ns.record(t.elapsed().as_nanos() as u64);
            } else {
                owner.link.set(owner, Some(node));
            }
        } else {
            ring[((draw >> 10) % RING as u64) as usize] = Some(node);
        }
        since_gc += box_bytes;
        if since_gc >= TRIGGER {
            since_gc = 0;
            let before = heap_stats();
            r.objects_max = r.objects_max.max(before.object_count);
            r.remembered_max = r.remembered_max.max(before.remembered_count);
            r.mem_in_use_max = r.mem_in_use_max.max(before.mem_in_use.as_u64());
            spans.close(mutator_span);
            let span = spans.open("heap.collect", rep_span, rep);
            let t = Instant::now();
            let outcome = collect_now();
            let pause = t.elapsed().as_secs_f64();
            spans.close(span);
            mutator_span = spans.open("heap.mutator", rep_span, rep);
            r.collect_s += pause;
            r.pauses_ms.push(pause * 1e3);
            r.traced_bytes += outcome.traced.as_u64();
            r.reclaimed_bytes += outcome.reclaimed.as_u64();
            r.ns_per_object
                .push(pause * 1e9 / before.object_count.max(1) as f64);
            r.us_per_traced_kb
                .push(pause * 1e6 / (outcome.traced.as_u64().max(1) as f64 / 1e3));
        }
    }
    r.wall_s = started.elapsed().as_secs_f64();
    spans.close(mutator_span);
    spans.close(rep_span);
    r.history = history();

    check_repetition(&mut r, &perm, &ring, box_bytes);
    r
}

/// The after-run checks of one repetition: payloads intact, allocation
/// total, scavenge records, and a final full collection that must leave
/// exactly the bytes the mutator still reaches.
fn check_repetition(r: &mut Rep, perm: &[Gc<Node>], ring: &[Option<Gc<Node>>], box_bytes: u64) {
    let mut fail = |msg: String| {
        if r.mismatches.len() < 20 {
            r.mismatches.push(msg);
        }
    };
    let mut reached = 0u64;
    for node in perm {
        reached += 1;
        if !node.intact() {
            fail(format!("permanent object {} corrupted", node.id));
        }
        if let Some(medium) = node.link.borrow().as_ref() {
            reached += 1;
            if !medium.intact() {
                fail(format!("medium object {} corrupted", medium.id));
            }
        }
    }
    for short in ring.iter().flatten() {
        reached += 1;
        if !short.intact() {
            fail(format!("short object {} corrupted", short.id));
        }
    }
    let stats = heap_stats();
    let objects = PERMANENT as u64 + ALLOCS;
    let expected = objects * box_bytes;
    if stats.allocated_total.as_u64() != expected {
        fail(format!(
            "allocated_total {} != {} objects x {box_bytes} bytes",
            stats.allocated_total.as_u64(),
            objects
        ));
    }
    for (n, s) in r.history.iter().enumerate() {
        if !s.is_consistent() || s.boundary > s.at {
            fail(format!("scavenge {n} record inconsistent: {s:?}"));
        }
    }
    if stats.policy_failures != 0 {
        fail(format!("{} policy failures", stats.policy_failures));
    }
    configure(HeapConfig::manual_full());
    collect_now();
    let left = heap_stats().mem_in_use.as_u64();
    if left != reached * box_bytes {
        fail(format!(
            "after a full collection {left} bytes in use, mutator reaches {reached} objects x {box_bytes}"
        ));
    }
}

pub fn run(seed: u64, seconds: f64, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The repetition count is fixed by `--seconds`, not by the clock:
    // every finished repetition leaves its heap behind (the thread-local
    // heap is never freed), so a clock-decided count would make peak RSS
    // follow the host's speed.
    let timed = ((seconds / NOMINAL_REP_S).round() as u64).max(2);
    let mut reps = Vec::new();
    let mut setup = Vec::new();
    // Repetition 0 is the warm-up.
    for rep in 0..=timed {
        let probes = std::thread::spawn(probe_builds)
            .join()
            .map_err(|_| "set-up probe panicked".to_string())?;
        setup.extend(probes);
        let r = std::thread::scope(|s| {
            s.spawn(|| repetition(seed, rep, spans))
                .join()
                .map_err(|_| format!("repetition {rep} panicked"))
        })?;
        eprintln!(
            "heap-dtbfm: repetition {rep}: set-up {:.4}s, {} scavenges, {:.3}s ({:.3}s collecting), RSS after {:.1} MiB",
            r.setup_s,
            r.pauses_ms.len(),
            r.wall_s,
            r.collect_s,
            rss_mb()
        );
        reps.push(r);
    }

    let first = &reps[0].history;
    for (i, r) in reps.iter().enumerate() {
        for m in &r.mismatches {
            out.check(false, || format!("repetition {i}: {m}"));
        }
        out.check(&r.history == first, || {
            format!("repetition {i} made different scavenges from the warm-up")
        });
    }

    let timed_reps = &reps[1..];
    setup.extend(reps.iter().map(|r| r.setup_s));
    let rates: Vec<f64> = timed_reps
        .iter()
        .map(|r| ALLOCS as f64 / r.wall_s)
        .collect();
    let pauses: Vec<f64> = timed_reps
        .iter()
        .flat_map(|r| r.pauses_ms.iter().copied())
        .collect();
    out.attempted = ALLOCS * timed_reps.len() as u64;
    out.end_to_end.insert("setup_s", median(&setup));
    out.end_to_end.insert("throughput_per_s", median(&rates));
    out.end_to_end.insert("latency_p50_ms", median(&pauses));
    out.end_to_end
        .insert("latency_p90_ms", quantile(&pauses, 0.9));

    let last = reps.last().expect("at least two repetitions");
    out.per_layer
        .insert("heap.collections", last.pauses_ms.len() as f64);
    out.per_layer
        .insert("heap.traced_mb", last.traced_bytes as f64 / 1e6);
    out.per_layer
        .insert("heap.reclaimed_mb", last.reclaimed_bytes as f64 / 1e6);
    out.per_layer
        .insert("heap.objects_max", last.objects_max as f64);
    out.per_layer
        .insert("heap.remembered_max", last.remembered_max as f64);
    out.per_layer
        .insert("heap.mem_in_use_mb_max", last.mem_in_use_max as f64 / 1e6);
    if spans.on() {
        let mut alloc = NsHistogram::new();
        let mut barrier = NsHistogram::new();
        for r in timed_reps {
            alloc.merge(&r.alloc_ns);
            barrier.merge(&r.barrier_ns);
        }
        let n = timed_reps.len() as f64;
        let collect: f64 = timed_reps.iter().map(|r| r.collect_s).sum::<f64>() / n;
        let wall: f64 = timed_reps.iter().map(|r| r.wall_s).sum::<f64>() / n;
        let per_object: Vec<f64> = timed_reps
            .iter()
            .flat_map(|r| r.ns_per_object.iter().copied())
            .collect();
        let per_kb: Vec<f64> = timed_reps
            .iter()
            .flat_map(|r| r.us_per_traced_kb.iter().copied())
            .collect();
        out.per_layer
            .insert("heap.alloc_ns_p50", alloc.quantile(0.5));
        out.per_layer
            .insert("heap.barrier_ns_p50", barrier.quantile(0.5));
        out.per_layer.insert("heap.mutator_s", wall - collect);
        out.per_layer.insert("heap.collect_s", collect);
        out.per_layer
            .insert("heap.collect_ns_per_object", median(&per_object));
        out.per_layer
            .insert("heap.collect_us_per_traced_kb", median(&per_kb));
    }
    Ok(out)
}
