//! `svc-small`: the evaluation service end to end, in one process.
//!
//! A `Coordinator` on loopback with an on-disk journal directory and
//! results store, one worker thread running the real `run_worker`, and
//! one load-client thread (this one) that submits sweeps in a closed
//! loop: each sweep is the CFRAC column (six policies plus `No GC` and
//! `LIVE`, paper configs), and the next is submitted as soon as the
//! previous one's `SweepDrained` line arrives on `GET /events`.

use crate::report::{median, quantile, Outcome, CELL_METRICS};
use crate::span::{SpanId, Spans};
use dtb_core::policy::{PolicyConfig, PolicyKind, Row};
use dtb_sim::engine::SimConfig;
use dtb_sim::exec::{Evaluation, RetryPolicy};
use dtb_sim::journal::read_journal;
use dtb_svc::http::{Request, Response, WireError};
use dtb_svc::worker::{run_worker, WorkerConfig, WorkerExit};
use dtb_svc::{
    follow_events, journal_exactly_once, line_cursor, matrix_from_sweep, stream_continuity, Client,
    Coordinator, CoordinatorConfig, SplitMix64, SvcError, SweepSpec, TcpTransport, Transport,
};
use dtb_trace::programs::Program;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Sweeps run before the timed part.
const WARMUP_SWEEPS: usize = 3;
/// Timed sweeps needed before the run may stop, so that the p90 sweep
/// time has at least ten samples beyond it.
const MIN_SWEEPS: usize = 100;
/// Coordinators bound during set-up; the bind time in `setup_s` is
/// their median.
const SETUP_BINDS: usize = 3;

/// The sweep every submission carries. The seed picks the tenant name
/// and the order of the six policy rows; the cells themselves are the
/// paper's CFRAC column.
fn sweep_spec(seed: u64) -> SweepSpec {
    let mut policies = PolicyKind::ALL.to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..policies.len()).rev() {
        policies.swap(i, rng.range(0, i as u64) as usize);
    }
    SweepSpec {
        tenant: format!("bench-{seed}"),
        programs: vec![Program::Cfrac],
        policies,
        baselines: true,
        policy: PolicyConfig::paper(),
        sim: SimConfig::paper(),
    }
}

/// The unsigned number after the first `"key":` in a compact JSON text.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// What the traced run records about the wire: spans per round trip,
/// completion body sizes, and each sweep's span so worker-side calls can
/// name their parent.
struct WireLog {
    spans: Spans,
    sweep_spans: HashMap<u64, Option<SpanId>>,
    complete_kb: Vec<f64>,
}

impl WireLog {
    fn record(&mut self, req: &Request, resp: &Response, start: Instant, end: Instant) {
        let body = String::from_utf8_lossy(&resp.body);
        let (name, sweep) = match req.path.as_str() {
            "/submit" => ("svc.submit", json_u64(&body, "sweep")),
            "/lease" if body.contains("\"task\":null") => ("svc.lease_empty", None),
            "/lease" => ("svc.lease", json_u64(&body, "sweep")),
            "/complete" => {
                self.complete_kb.push(req.body.len() as f64 / 1e3);
                let sent = String::from_utf8_lossy(&req.body);
                ("svc.complete", json_u64(&sent, "sweep"))
            }
            _ => ("svc.other", None),
        };
        let parent = sweep.and_then(|s| self.sweep_spans.get(&s).copied().flatten());
        self.spans
            .leaf(name, parent, sweep.unwrap_or(0), start, end);
    }
}

/// What the benchmark shares with the worker's transport: whether the
/// worker's last lease came back empty (awaited by the load client before
/// each submit), and the signal that ends the worker.
#[derive(Default)]
struct WorkerGate {
    idle: Mutex<bool>,
    changed: Condvar,
    stop: AtomicBool,
}

impl WorkerGate {
    fn set_idle(&self, idle: bool) {
        *self.idle.lock().expect("worker gate poisoned") = idle;
        self.changed.notify_all();
    }

    /// Waits (at most `limit`) until the worker has polled and found no
    /// work.
    fn wait_idle(&self, limit: Duration) {
        let guard = self.idle.lock().expect("worker gate poisoned");
        let _ = self
            .changed
            .wait_timeout_while(guard, limit, |idle| !*idle)
            .expect("worker gate poisoned");
    }
}

/// The transport both the worker and the load client use: plain TCP,
/// plus a round-trip record per call when traced. On the worker's side it
/// reports each lease's emptiness to the [`WorkerGate`], and once the
/// gate's `stop` is set it answers every call with `410`, a permanent
/// error that ends `run_worker` at its next request.
struct BenchTransport {
    inner: TcpTransport,
    worker: Option<Arc<WorkerGate>>,
    log: Option<Arc<Mutex<WireLog>>>,
}

impl Transport for BenchTransport {
    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        if self
            .worker
            .as_ref()
            .is_some_and(|g| g.stop.load(Ordering::SeqCst))
        {
            return Ok(Response::error(410, "benchmark finished"));
        }
        let start = self.log.as_ref().map(|_| Instant::now());
        let resp = self.inner.call(req);
        if let (Some(log), Some(start), Ok(r)) = (&self.log, start, &resp) {
            let end = Instant::now();
            log.lock()
                .expect("wire log poisoned by a panicking recorder")
                .record(req, r, start, end);
        }
        if let (Some(gate), Ok(r)) = (&self.worker, &resp) {
            if req.path == "/lease" && r.status == 200 {
                gate.set_idle(r.body.windows(11).any(|w| w == b"\"task\":null"));
            }
        }
        resp
    }
}

fn coordinator_config(dir: &Path) -> CoordinatorConfig {
    CoordinatorConfig {
        journal_dir: Some(dir.join("journal")),
        results_path: Some(dir.join("results.bin")),
        ..CoordinatorConfig::default()
    }
}

/// One submitted sweep as the load client saw it.
struct Sweep {
    id: u64,
    submitted: Instant,
    drained: Option<Instant>,
    /// Cells quarantined, from the `SweepDrained` line.
    failed: u64,
}

pub fn run(seed: u64, seconds: f64, spans: &mut Spans, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = sweep_spec(seed);

    // Set-up: preset compile (once per process), coordinator bind with
    // recovery on an empty directory (median of several), worker start.
    let start = Instant::now();
    let cfrac = Program::Cfrac.compiled();
    let compile_s = start.elapsed().as_secs_f64();
    let mut binds = Vec::new();
    let mut coordinator = None;
    for i in 0..SETUP_BINDS {
        let dir = work.join(format!("coordinator-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let start = Instant::now();
        let c = Coordinator::bind("127.0.0.1:0", coordinator_config(&dir))
            .map_err(|e| format!("binding coordinator: {e}"))?;
        binds.push(start.elapsed().as_secs_f64());
        if let Some(previous) = coordinator.replace((c, dir)) {
            previous.0.shutdown();
        }
    }
    let (coordinator, dir) = coordinator.expect("at least one bind");
    let addr = coordinator.addr().to_string();
    let log = spans.on().then(|| {
        Arc::new(Mutex::new(WireLog {
            spans: std::mem::replace(spans, Spans::new(false)),
            sweep_spans: HashMap::new(),
            complete_kb: Vec::new(),
        }))
    });
    let gate = Arc::new(WorkerGate::default());
    let start = Instant::now();
    let worker = {
        let transport = BenchTransport {
            inner: TcpTransport::new(addr.clone()),
            worker: Some(Arc::clone(&gate)),
            log: log.clone(),
        };
        std::thread::spawn(move || {
            let mut client = Client::with_transport(Box::new(transport), RetryPolicy::retries(4));
            run_worker(&mut client, &WorkerConfig::new("bench-worker"))
        })
    };
    let setup_s = compile_s + median(&binds) + start.elapsed().as_secs_f64();
    out.end_to_end.insert("setup_s", setup_s);
    out.per_layer
        .insert("trace.preset_compile_ms", compile_s * 1e3);

    let result = drive(&addr, &spec, seconds, &gate, log.as_ref());
    // Stop the worker whatever happened: its next request gets a 410.
    gate.stop.store(true, Ordering::SeqCst);
    let exit = worker
        .join()
        .map_err(|_| "worker thread panicked".to_string())?;
    let (sweeps, cursors, timed_from) = match result {
        Ok(r) => r,
        Err(e) => {
            coordinator.shutdown();
            return Err(e);
        }
    };
    match exit {
        WorkerExit::Lost(SvcError::Protocol { status: 410, .. }) => {}
        other => out.check(false, || format!("worker ended unexpectedly: {other:?}")),
    }

    let timed = &sweeps[timed_from..];
    let latencies: Vec<f64> = timed
        .iter()
        .filter_map(|s| Some(s.drained?.duration_since(s.submitted).as_secs_f64() * 1e3))
        .collect();
    let cells_per_sweep = spec.rows().len() as u64;
    let first = timed.first().map(|s| s.submitted);
    let last = timed.last().and_then(|s| s.drained);
    let wall_s = match (first, last) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => return Err("no timed sweep drained".to_string()),
    };
    out.attempted = cells_per_sweep * timed.len() as u64;
    out.failed = timed.iter().map(|s| s.failed.min(cells_per_sweep)).sum();
    for s in &sweeps {
        out.check(s.failed == 0, || {
            format!("sweep {} drained with {} failed cells", s.id, s.failed)
        });
    }
    out.end_to_end
        .insert("throughput_per_s", out.attempted as f64 / wall_s);
    out.end_to_end.insert("latency_p50_ms", median(&latencies));
    out.end_to_end
        .insert("latency_p90_ms", quantile(&latencies, 0.9));
    eprintln!(
        "svc-small: {} timed sweeps, {:.1} cells/s, p50 sweep {:.1} ms",
        timed.len(),
        out.attempted as f64 / wall_s,
        median(&latencies)
    );

    out.check(stream_continuity(&cursors).is_ok(), || {
        format!("event stream: {}", stream_continuity(&cursors).unwrap_err())
    });
    let cell_ns = check_sweeps(&mut out, &addr, &spec, &sweeps, timed_from, &dir, &cfrac)?;
    coordinator.shutdown();

    layer_metrics(&mut out, &cell_ns, wall_s, cfrac.len());
    if let Some(log) = log {
        let log = Arc::try_unwrap(log)
            .map_err(|_| "wire log still shared".to_string())?
            .into_inner()
            .map_err(|_| "wire log poisoned".to_string())?;
        wire_metrics(&mut out, &log, timed);
        *spans = log.spans;
    }
    Ok(out)
}

type Drive = (Vec<Sweep>, Vec<(u64, u64)>, usize);

/// The closed loop: submit, wait for the sweep's `SweepDrained` line on
/// the followed event stream, submit the next. Returns the sweeps, every
/// `(epoch, seq)` cursor seen, and the index of the first timed sweep.
fn drive(
    addr: &str,
    spec: &SweepSpec,
    seconds: f64,
    worker: &WorkerGate,
    log: Option<&Arc<Mutex<WireLog>>>,
) -> Result<Drive, String> {
    let mut client = Client::with_transport(
        Box::new(BenchTransport {
            inner: TcpTransport::new(addr.to_string()),
            worker: None,
            log: log.cloned(),
        }),
        RetryPolicy::retries(4),
    );
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut submit = |sweeps: &mut Vec<Sweep>| -> Result<(), String> {
        let expected = sweeps.len() as u64 + 1;
        // Submit only once the worker has polled and found nothing, so
        // every sweep meets the worker in the same state: idle, backing
        // off. Without this the order of the worker's first poll after a
        // drain and the next submit is a race, and a varying share of
        // sweeps skips the back-off.
        worker.wait_idle(Duration::from_secs(2));
        if let Some(l) = log {
            let mut l = l.lock().expect("wire log poisoned");
            let span = l.spans.open("svc.sweep", None, expected);
            l.sweep_spans.insert(expected, span);
        }
        let submitted = Instant::now();
        let reply = client.submit(spec).map_err(|e| format!("submit: {e}"))?;
        if reply.sweep != expected {
            return Err(format!(
                "sweep id {} where {expected} was expected",
                reply.sweep
            ));
        }
        sweeps.push(Sweep {
            id: reply.sweep,
            submitted,
            drained: None,
            failed: 0,
        });
        Ok(())
    };
    submit(&mut sweeps)?;
    let mut cursors = Vec::new();
    let mut timed_from: Option<(usize, Instant)> = None;
    let mut error = None;
    let never = AtomicBool::new(false);
    follow_events(addr, 1, &never, |line| {
        if let Some(c) = line_cursor(line) {
            cursors.push((c.epoch, c.seq));
        }
        if !line.contains("\"type\":\"sweep_drained\"") {
            return true;
        }
        let now = Instant::now();
        let id = json_u64(line, "sweep");
        let Some(sweep) = sweeps.last_mut().filter(|s| Some(s.id) == id) else {
            error = Some(format!("drained line for an unexpected sweep: {line}"));
            return false;
        };
        sweep.drained = Some(now);
        if let Some(l) = log {
            let mut l = l.lock().expect("wire log poisoned");
            let span = l.sweep_spans.get(&sweep.id).copied().flatten();
            l.spans.close(span);
        }
        sweep.failed = json_u64(line, "failed").unwrap_or(u64::MAX);
        let done = sweeps.len();
        if done == WARMUP_SWEEPS {
            timed_from = Some((done, now));
        }
        if let Some((from, started)) = timed_from {
            if done - from >= MIN_SWEEPS && started.elapsed().as_secs_f64() >= seconds {
                return false;
            }
        }
        match submit(&mut sweeps) {
            Ok(()) => true,
            Err(e) => {
                error = Some(e);
                false
            }
        }
    })
    .map_err(|e| format!("following /events: {e}"))?;
    if let Some(e) = error {
        return Err(e);
    }
    let from = timed_from.map_or(sweeps.len(), |(from, _)| from);
    Ok((sweeps, cursors, from))
}

/// The after-run checks: every served report equals the in-process
/// executor's, `No GC`'s peak is the preset's total allocation, and
/// every sweep's journal finalizes each cell exactly once. Returns the
/// worker's elapsed ns per row label over the timed sweeps.
fn check_sweeps(
    out: &mut Outcome,
    addr: &str,
    spec: &SweepSpec,
    sweeps: &[Sweep],
    timed_from: usize,
    dir: &Path,
    cfrac: &dtb_trace::CompiledTrace,
) -> Result<HashMap<String, Vec<f64>>, String> {
    let local = Evaluation::new()
        .programs([Program::Cfrac])
        .policies(spec.policies.iter().copied())
        .baselines(true)
        .parallelism(1)
        .run();
    let total_alloc: u64 = cfrac.sizes().iter().map(|&s| u64::from(s)).sum();
    let rows = spec.rows();
    let mut client = Client::connect(addr.to_string());
    let mut cell_ns: HashMap<String, Vec<f64>> = HashMap::new();
    for (i, sweep) in sweeps.iter().enumerate() {
        let reply = client
            .sweep(sweep.id)
            .map_err(|e| format!("fetching sweep {}: {e}", sweep.id))?;
        out.check(reply.done && reply.cells.len() == rows.len(), || {
            format!("sweep {} served incomplete", sweep.id)
        });
        let served = matrix_from_sweep(&reply);
        for (column, cell) in local.cells() {
            let twin = served
                .column_by_name(column.name())
                .and_then(|c| c.cells.iter().find(|c| c.row == cell.row));
            let same = twin.is_some_and(|t| t.report().is_some() && t.report() == cell.report());
            out.check(same, || {
                format!(
                    "sweep {}: {}/{} differs from the in-process run",
                    sweep.id,
                    column.name(),
                    cell.row
                )
            });
            if cell.row == Row::NoGc {
                let peak = twin.and_then(|t| t.report()).map(|r| r.mem_max.as_u64());
                out.check(peak == Some(total_alloc), || {
                    format!(
                        "sweep {}: No GC peak {peak:?} != total allocation {total_alloc}",
                        sweep.id
                    )
                });
            }
        }
        if i >= timed_from {
            for c in &reply.cells {
                cell_ns
                    .entry(c.row.clone())
                    .or_default()
                    .push(c.elapsed_ns as f64);
            }
        }
        let journal: PathBuf = dir.join("journal").join(format!("sweep-{}", sweep.id));
        match read_journal(&journal) {
            Ok(j) => {
                let keys: Vec<(String, String)> = j
                    .cells
                    .iter()
                    .map(|c| (c.column.clone(), c.row.clone()))
                    .collect();
                out.check(keys.len() == rows.len(), || {
                    format!("sweep {}: journal holds {} cells", sweep.id, keys.len())
                });
                if let Err(e) = journal_exactly_once(&keys) {
                    out.check(false, || format!("sweep {}: {e}", sweep.id));
                }
            }
            Err(e) => out.check(false, || {
                format!("sweep {}: reading journal: {e}", sweep.id)
            }),
        }
    }
    if let Some(reference) = local.columns().first() {
        let reports: Vec<_> = reference
            .cells
            .iter()
            .filter(|c| matches!(c.row, Row::Policy(_)))
            .filter_map(|c| c.report())
            .collect();
        let scavenges: usize = reports.iter().map(|r| r.collections).sum();
        let traced: u64 = reports.iter().map(|r| r.total_traced.as_u64()).sum();
        out.per_layer.insert("sim.scavenges", scavenges as f64);
        out.per_layer.insert("sim.traced_mb", traced as f64 / 1e6);
    }
    Ok(cell_ns)
}

/// Layer metrics from the worker's own cell times.
fn layer_metrics(
    out: &mut Outcome,
    cell_ns: &HashMap<String, Vec<f64>>,
    wall_s: f64,
    events: usize,
) {
    let ms = |ns: &[f64]| ns.iter().map(|n| n / 1e6).collect::<Vec<_>>();
    let mut policy = Vec::new();
    let mut baseline = Vec::new();
    for (row, ns) in cell_ns {
        if row == "No GC" || row == "LIVE" {
            baseline.extend_from_slice(ns);
        } else {
            policy.extend_from_slice(ns);
        }
    }
    for (kind, name) in PolicyKind::ALL.iter().zip(CELL_METRICS) {
        if let Some(ns) = cell_ns.get(kind.label()) {
            out.per_layer.insert(name, median(&ms(ns)));
        }
    }
    let cells = (policy.len() + baseline.len()).max(1) as f64;
    let busy: f64 = policy.iter().chain(&baseline).sum::<f64>() / 1e9;
    out.per_layer
        .insert("svc.cell_ms.policy_p50", median(&ms(&policy)));
    out.per_layer
        .insert("svc.cell_ms.baseline_p50", median(&ms(&baseline)));
    out.per_layer
        .insert("svc.overhead_ms_per_cell", (wall_s - busy) * 1e3 / cells);
    let policy_cells = policy.len().max(1) as f64;
    out.per_layer.insert(
        "sim.engine_ns_per_event",
        policy.iter().sum::<f64>() / (policy_cells * events.max(1) as f64),
    );
}

/// Layer metrics from the traced round trips of the timed sweeps.
fn wire_metrics(out: &mut Outcome, log: &WireLog, timed: &[Sweep]) {
    let Some(first) = timed.first().map(|s| s.id) else {
        return;
    };
    let ms = |v: Vec<(u64, u64, u64)>| -> Vec<f64> {
        v.into_iter()
            .filter(|(tag, _, _)| *tag >= first)
            .map(|(_, a, b)| (b - a) as f64 / 1e6)
            .collect()
    };
    let submits = log.spans.intervals("svc.submit");
    let leases = log.spans.intervals("svc.lease");
    let mut idle = Vec::new();
    for sweep in timed {
        let replied = submits.iter().find(|(t, _, _)| *t == sweep.id).map(|s| s.2);
        let leased = leases.iter().find(|(t, _, _)| *t == sweep.id).map(|s| s.2);
        if let (Some(a), Some(b)) = (replied, leased) {
            idle.push(b.saturating_sub(a) as f64 / 1e6);
        }
    }
    // Empty leases from the first timed submit on.
    let window = submits
        .iter()
        .find(|(t, _, _)| *t == first)
        .map_or(0, |s| s.1);
    let empty = log
        .spans
        .intervals("svc.lease_empty")
        .iter()
        .filter(|(_, a, _)| *a >= window)
        .count();
    out.per_layer
        .insert("svc.submit_ms_p50", median(&ms(submits.clone())));
    out.per_layer.insert("svc.idle_wait_ms_p50", median(&idle));
    out.per_layer.insert(
        "svc.empty_leases_per_sweep",
        empty as f64 / timed.len() as f64,
    );
    out.per_layer
        .insert("svc.lease_ms_p50", median(&ms(leases)));
    out.per_layer.insert(
        "svc.complete_ms_p50",
        median(&ms(log.spans.intervals("svc.complete"))),
    );
    out.per_layer
        .insert("svc.complete_kb_p50", median(&log.complete_kb));
}
