//! `sim-shards`: the simulator's headline path.
//!
//! Set-up streams a synthetic trace from a [`SynthSource`] straight into
//! a `DTBCTC01` shard store through [`ShardWriter`] (the trace is never
//! materialised). The timed part streams the store through the six paper
//! policies on one thread, a fresh [`ShardReader`] per cell, one warm-up
//! pass first.

use crate::report::{median, quantile, Outcome, CELL_METRICS};
use crate::span::{SpanId, Spans};
use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_core::time::VirtualTime;
use dtb_sim::engine::{Sim, SimConfig};
use dtb_sim::SimReport;
use dtb_trace::ctc::ShardWriter;
use dtb_trace::event::{ObjectLife, TraceMeta};
use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::source::{EventBlock, EventSource, SourceError};
use dtb_trace::synth::{ClassSpec, WorkloadSpec};
use dtb_trace::{ShardReader, SynthSource};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Objects in the trace (about 1.16 KB of allocation each).
pub const EVENTS: u64 = 1_500_000;
/// Records per shard file.
const STRIDE: u64 = 65_536;
/// Store builds during set-up; `setup_s` is their median.
const SETUP_BUILDS: usize = 5;
/// Timed cells needed before the run may stop, so that the p90 cell time
/// has at least ten samples beyond it.
const MIN_CELLS: usize = 100;

/// `bench_dtb`'s BENCHSYN mixture, seeded by the run: short-lived churn,
/// a medium-lived band, an immortal ramp and 10% permanent start-up data.
pub fn spec(seed: u64) -> WorkloadSpec {
    let total_alloc = EVENTS * 1_160;
    WorkloadSpec {
        name: format!("BENCHSYN({}k)", EVENTS / 1_000),
        description: "e2ebench sim-shards mixture: churn + medium band + immortal ramp".into(),
        exec_seconds: 10.0,
        total_alloc,
        initial_permanent: total_alloc / 10,
        initial_object_size: 8_192,
        classes: vec![
            ClassSpec::new(
                "short",
                0.55,
                SizeDist::Uniform { min: 64, max: 2048 },
                LifetimeDist::Exponential { mean: 200_000.0 },
            ),
            ClassSpec::new(
                "medium",
                0.25,
                SizeDist::Uniform { min: 64, max: 2048 },
                LifetimeDist::Exponential { mean: 3_000_000.0 },
            ),
            ClassSpec::new(
                "immortal-ramp",
                0.20,
                SizeDist::Uniform { min: 64, max: 2048 },
                LifetimeDist::Immortal,
            ),
        ],
        phase_period: None,
        seed,
    }
}

/// An [`EventSource`] that records a `trace.decode` span around every
/// `next_block`.
struct TimedSource<'a, S> {
    inner: S,
    spans: &'a mut Spans,
    parent: Option<SpanId>,
    tag: u64,
}

impl<S: EventSource> EventSource for TimedSource<'_, S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        self.inner.next_record()
    }

    fn next_block(&mut self, block: &mut EventBlock) -> usize {
        let start = Instant::now();
        let n = self.inner.next_block(block);
        self.spans
            .leaf("trace.decode", self.parent, self.tag, start, Instant::now());
        n
    }

    fn end(&self) -> VirtualTime {
        self.inner.end()
    }

    fn seek(&mut self, clock: VirtualTime) -> Result<(), SourceError> {
        self.inner.seek(clock)
    }
}

/// Streams the spec's records into a fresh store at `dir`; returns the
/// record count. Traced, generation and store writes get their own spans
/// under one `setup` span.
fn write_store(
    spec: &WorkloadSpec,
    dir: &Path,
    spans: &mut Spans,
    build: u64,
) -> Result<u64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let setup = spans.open("setup", None, build);
    let mut source = SynthSource::new(spec.clone()).map_err(|e| format!("bad spec: {e}"))?;
    let mut writer = ShardWriter::create(dir, source.meta().clone(), STRIDE)
        .map_err(|e| format!("creating store: {e}"))?;
    let mut block = EventBlock::new(1024);
    let mut records = 0u64;
    loop {
        let start = spans.on().then(Instant::now);
        let n = source.next_block(&mut block);
        if let Some(start) = start {
            spans.leaf("trace.generate", setup, build, start, Instant::now());
        }
        if n == 0 {
            if let Some(e) = block.take_error() {
                return Err(format!("generating trace: {e}"));
            }
            break;
        }
        let start = spans.on().then(Instant::now);
        for i in 0..n {
            writer
                .push(block.life(i))
                .map_err(|e| format!("writing store: {e}"))?;
        }
        if let Some(start) = start {
            spans.leaf("trace.store_write", setup, build, start, Instant::now());
        }
        records += n as u64;
    }
    let start = spans.on().then(Instant::now);
    writer
        .finish(source.end())
        .map_err(|e| format!("sealing store: {e}"))?;
    if let Some(start) = start {
        spans.leaf("trace.store_write", setup, build, start, Instant::now());
    }
    spans.close(setup);
    Ok(records)
}

/// One cell: the store streamed through one policy.
fn run_cell(
    dir: &Path,
    kind: PolicyKind,
    spans: &mut Spans,
    tag: u64,
) -> Result<SimReport, String> {
    let mut policy = kind.build(&PolicyConfig::paper());
    let sim = Sim::new(SimConfig::paper());
    let reader = ShardReader::open(dir).map_err(|e| format!("opening store: {e}"))?;
    let run = if spans.on() {
        let cell = spans.open("sim.cell", None, tag);
        let mut source = TimedSource {
            inner: reader,
            spans: &mut *spans,
            parent: cell,
            tag,
        };
        let run = sim.run(&mut source, policy.as_mut());
        spans.close(cell);
        run
    } else {
        let mut reader = reader;
        sim.run(&mut reader, policy.as_mut())
    };
    run.map(|r| r.report)
        .map_err(|e| format!("{}: {e}", kind.label()))
}

/// Live bytes at each of `clocks`, from the spec's own generator: an
/// object is live at `t` when born at or before `t` and not dead by `t`.
fn live_bytes_at(spec: &WorkloadSpec, clocks: &[u64]) -> Result<BTreeMap<u64, u64>, String> {
    let mut source = SynthSource::new(spec.clone()).map_err(|e| format!("bad spec: {e}"))?;
    let mut births = Vec::new();
    let mut deaths = Vec::new();
    while let Some(life) = source
        .next_record()
        .map_err(|e| format!("regenerating trace: {e}"))?
    {
        births.push((life.birth.as_u64(), u64::from(life.size)));
        if let Some(d) = life.death {
            deaths.push((d.as_u64(), u64::from(life.size)));
        }
    }
    deaths.sort_unstable();
    let mut sorted = clocks.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let (mut bi, mut di, mut born, mut dead) = (0, 0, 0u64, 0u64);
    let mut live = BTreeMap::new();
    for t in sorted {
        while bi < births.len() && births[bi].0 <= t {
            born += births[bi].1;
            bi += 1;
        }
        while di < deaths.len() && deaths[di].0 <= t {
            dead += deaths[di].1;
            di += 1;
        }
        live.insert(t, born - dead);
    }
    Ok(live)
}

/// Checks the warm-up pass's reports against the independently computed
/// live bytes and the scavenge-accounting identities.
fn check_reports(out: &mut Outcome, spec: &WorkloadSpec, reports: &[(PolicyKind, SimReport)]) {
    let clocks: Vec<u64> = reports
        .iter()
        .flat_map(|(_, r)| r.history.iter().map(|s| s.at.as_u64()))
        .collect();
    let live = match live_bytes_at(spec, &clocks) {
        Ok(live) => live,
        Err(e) => {
            out.check(false, || e);
            return;
        }
    };
    for (kind, report) in reports {
        out.check(report.collections > 0, || format!("{kind}: no scavenges"));
        for (n, s) in report.history.iter().enumerate() {
            let at = s.at.as_u64();
            let live_here = live[&at];
            let surviving = s.surviving.as_u64();
            if *kind == PolicyKind::Full {
                out.check(surviving == live_here, || {
                    format!("FULL scavenge {n} at {at}: surviving {surviving} != live {live_here}")
                });
            }
            out.check(surviving >= live_here, || {
                format!("{kind} scavenge {n} at {at}: surviving {surviving} < live {live_here}")
            });
            out.check(s.is_consistent(), || {
                format!("{kind} scavenge {n}: reclaimed + surviving != bytes before")
            });
            out.check(s.boundary <= s.at, || {
                format!("{kind} scavenge {n}: boundary past the clock")
            });
        }
    }
}

pub fn run(seed: u64, seconds: f64, spans: &mut Spans, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = spec(seed);
    let dir = work.join("store");

    let mut setup = Vec::new();
    let mut records = 0;
    for build in 0..SETUP_BUILDS {
        let start = Instant::now();
        records = write_store(&spec, &dir, spans, build as u64)?;
        setup.push(start.elapsed().as_secs_f64());
    }
    out.end_to_end.insert("setup_s", median(&setup));
    eprintln!(
        "sim-shards: store of {records} records, set-up {:.3}s",
        median(&setup)
    );

    // Warm-up pass: its reports are the reference every timed pass must
    // reproduce exactly.
    let mut reference = Vec::new();
    for kind in PolicyKind::ALL {
        reference.push((kind, run_cell(&dir, kind, &mut Spans::new(false), 0)?));
    }

    let mut cell_ms: Vec<Vec<f64>> = vec![Vec::new(); PolicyKind::ALL.len()];
    let mut all_cells = Vec::new();
    let mut pass_rate = Vec::new();
    let started = Instant::now();
    let mut pass = 0u64;
    while started.elapsed().as_secs_f64() < seconds || all_cells.len() < MIN_CELLS {
        pass += 1;
        let pass_start = Instant::now();
        for (i, kind) in PolicyKind::ALL.into_iter().enumerate() {
            let tag = pass * 10 + i as u64;
            let start = Instant::now();
            let report = run_cell(&dir, kind, spans, tag)?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            cell_ms[i].push(ms);
            all_cells.push(ms);
            out.check(report == reference[i].1, || {
                format!("pass {pass} {kind}: report differs from the warm-up pass")
            });
        }
        let secs = pass_start.elapsed().as_secs_f64();
        pass_rate.push((records * PolicyKind::ALL.len() as u64) as f64 / secs);
    }
    out.attempted = all_cells.len() as u64;
    out.end_to_end
        .insert("throughput_per_s", median(&pass_rate));
    out.end_to_end.insert("latency_p50_ms", median(&all_cells));
    out.end_to_end
        .insert("latency_p90_ms", quantile(&all_cells, 0.9));
    eprintln!(
        "sim-shards: {pass} passes, {:.0} events/s (median pass)",
        median(&pass_rate)
    );

    check_reports(&mut out, &spec, &reference);
    let _ = std::fs::remove_dir_all(&dir);

    let scavenges: usize = reference.iter().map(|(_, r)| r.collections).sum();
    let traced: u64 = reference.iter().map(|(_, r)| r.total_traced.as_u64()).sum();
    out.per_layer.insert("sim.scavenges", scavenges as f64);
    out.per_layer.insert("sim.traced_mb", traced as f64 / 1e6);
    if spans.on() {
        layer_metrics(&mut out, spans, records, &cell_ms);
    }
    Ok(out)
}

fn layer_metrics(out: &mut Outcome, spans: &Spans, records: u64, cell_ms: &[Vec<f64>]) {
    let per_build = |name: &str| {
        let mut by_build: BTreeMap<u64, u64> = BTreeMap::new();
        for (build, ns) in spans.self_times(name) {
            *by_build.entry(build).or_default() += ns;
        }
        let secs: Vec<f64> = by_build.values().map(|&ns| ns as f64 / 1e9).collect();
        median(&secs)
    };
    out.per_layer
        .insert("trace.generate_s", per_build("trace.generate"));
    out.per_layer
        .insert("trace.store_write_s", per_build("trace.store_write"));
    let cells = spans.self_times("sim.cell");
    let events = (records * cells.len() as u64).max(1) as f64;
    let decode: u64 = spans
        .self_times("trace.decode")
        .iter()
        .map(|(_, ns)| ns)
        .sum();
    let engine: u64 = cells.iter().map(|(_, ns)| ns).sum();
    out.per_layer
        .insert("trace.decode_ns_per_event", decode as f64 / events);
    out.per_layer
        .insert("sim.engine_ns_per_event", engine as f64 / events);
    for (name, ms) in CELL_METRICS.iter().zip(cell_ms) {
        out.per_layer.insert(name, median(ms));
    }
}
