//! Shared pieces of the benchmark: the result report, percentiles, the span
//! recorder, per-thread CPU time and peak RSS from `/proc`, the seeded
//! request draws, and the in-process server replay used both as an output
//! check and for server-side attribution.

use std::time::{Duration as StdDuration, Instant};

use khameleon_core::block::ResponseCatalog;
use khameleon_core::client::{CacheManager, Upcall};
use khameleon_core::distribution::SparseDistribution;
use khameleon_core::fault::splitmix64;
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::session::SessionManager;
use khameleon_core::types::{BlockRef, RequestId, Time};
use khameleon_transport::TransportClient;

/// Thread name of the load generator; the server's event loop names its own
/// thread `khameleon-transport` (the kernel keeps the first 15 bytes).
pub const LOADGEN_THREAD: &str = "perf-loadgen";
pub const SERVER_THREAD: &str = "khameleon-trans";

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the self-test: every code path, a fraction of the work.
    pub tiny: bool,
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.  End-to-end metrics are printed on untraced
/// runs, per-layer metrics on traced runs.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Sample count behind each percentile, keyed by metric name.
    pub samples: Vec<(&'static str, usize)>,
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Records an output check; a failed check counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("check failed: {name}");
            self.attempted += 1;
            self.failed += 1;
        }
        self.checks.push((name, ok));
    }

    pub fn samples(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n));
    }

    pub fn note(&mut self, name: &'static str, value: impl ToString) {
        self.notes.push((name, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.failed == 0
    }
}

/// Linear-interpolated percentile `q` in `[0, 100]` of `values` (sorted in
/// place).  `0.0` for an empty sample.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Length of one segment of a run for [`segmented_median`].
pub const SEGMENT_S: f64 = 1.0;

/// A run's typical value of a per-operation sample, robust to slow single
/// operations and to the host changing speed part-way through the run.
/// `values[i]` is operation `i`'s sample and `durations_s[i]` the seconds
/// it took.  The run is cut into consecutive segments of [`SEGMENT_S`]
/// seconds of operations; each segment contributes its median, and the
/// result is the mean of those medians.  A median alone would jump between
/// the host's speeds once one of them covers half the run; the mean of
/// per-segment medians moves in proportion.  A last segment shorter than
/// half the length is dropped; a run shorter than one segment falls back
/// to the median of all its samples.
pub fn segmented_median(values: &[f64], durations_s: &[f64]) -> f64 {
    let mut medians = Vec::new();
    let (mut segment, mut elapsed) = (Vec::new(), 0.0);
    for (&value, &took) in values.iter().zip(durations_s) {
        segment.push(value);
        elapsed += took;
        if elapsed >= SEGMENT_S {
            medians.push(median(&mut segment));
            segment.clear();
            elapsed = 0.0;
        }
    }
    if elapsed >= SEGMENT_S / 2.0 || medians.is_empty() {
        if segment.is_empty() {
            segment = values.to_vec();
        }
        medians.push(median(&mut segment));
    }
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Throughput by [`segmented_median`] over fixed-size windows of work:
/// `ops` per window, `window_s` the seconds each window took.
pub fn windowed_rate(ops: f64, window_s: &[f64]) -> f64 {
    let per_s: Vec<f64> = window_s.iter().map(|&s| ratio(ops, s)).collect();
    segmented_median(&per_s, window_s)
}

/// Probabilities of `k` explicit entries summing to `mass`, in a fixed
/// shape (weights 1..=2 rising linearly), so every seed's prediction has
/// the same profile and only the identities of the requests differ.
pub fn fixed_shape(k: usize, mass: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..k).map(|i| 1.0 + i as f64 / k.max(1) as f64).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total * mass).collect()
}

/// `k` distinct requests out of `n`, chosen by `rng`, in draw order.
pub fn choose_requests(n: usize, k: usize, rng: &mut Rng) -> Vec<RequestId> {
    let mut ids: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = i + rng.below(n - i);
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids.into_iter().map(RequestId::from).collect()
}

/// Runs `build` `repeats` times (twice in tiny mode), keeping the last
/// result and returning the median build time in seconds: `setup_s`.
/// Earlier results are dropped outside the timed interval.
pub fn repeated_setup<T>(args: &Args, repeats: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let repeats = if args.tiny { 2 } else { repeats };
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        kept = Some(built);
    }
    (kept.expect("at least one setup ran"), median(&mut times))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU seconds (user + system) consumed so far by this process's threads
/// whose name starts with `prefix`, from `/proc/self/task/*/stat`.  Threads
/// that already exited are not counted, so sample before joining.
pub fn thread_cpu_s(prefix: &str) -> f64 {
    // The kernel reports in USER_HZ ticks, 100 per second on Linux.
    const TICKS_PER_S: f64 = 100.0;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ticks = 0u64;
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ...`: comm may hold spaces, so split at the
        // last ')'.  utime and stime are fields 14 and 15.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if !stat[open + 1..close].starts_with(prefix) {
            continue;
        }
        let fields: Vec<&str> = stat[close + 2..].split_whitespace().collect();
        let field = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        ticks += field(11) + field(12);
    }
    ticks as f64 / TICKS_PER_S
}

/// Small deterministic generator (splitmix64 stream) for workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed ^ 0x7065_7266_6265_6e63))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Draws a request from `dist`: an explicit entry with its probability, or
/// with the residual mass a uniformly chosen non-explicit request.  This is
/// the user the prediction describes, used by the workloads that have no
/// recorded interaction trace.
pub fn draw_request(dist: &SparseDistribution, rng: &mut Rng) -> RequestId {
    let explicit = dist.explicit_entries();
    let mut u = rng.f64() * dist.total_mass();
    for &(request, p) in explicit {
        if u < p {
            return request;
        }
        u -= p;
    }
    if explicit.len() >= dist.num_requests() {
        // No residual set: `u` only fell through by rounding.
        return explicit.last().map_or(RequestId::from(0usize), |e| e.0);
    }
    // Explicit ids are sorted and some request is not explicit, so the
    // rejection loop terminates.
    loop {
        let candidate = RequestId::from(rng.below(dist.num_requests()));
        if explicit.binary_search_by_key(&candidate, |e| e.0).is_err() {
            return candidate;
        }
    }
}

/// The client-side quality metrics every workload reports, read from the
/// cache manager's own collector.
pub fn client_quality(report: &mut Report, clients: &mut [CacheManager]) {
    let mut requests = 0u64;
    let mut completed = 0u64;
    let mut preempted = 0u64;
    let mut hits = 0.0;
    let mut utility = 0.0;
    let mut pushed = 0u64;
    let mut unused = 0.0;
    for client in clients.iter_mut() {
        client.finalize();
        let s = client.metrics().summary();
        requests += s.requests;
        completed += s.completed;
        preempted += s.preempted;
        hits += s.cache_hit_rate * s.completed as f64;
        utility += s.mean_utility * s.completed as f64;
        pushed += s.blocks_pushed;
        unused += s.overpush_rate * s.blocks_pushed as f64;
    }
    report.e2e(
        "preempted_rate",
        ratio(preempted as f64, requests as f64),
        "ratio",
    );
    report.e2e("utility_mean", ratio(utility, completed as f64), "ratio");
    report.e2e("cache_hit_rate", ratio(hits, completed as f64), "ratio");
    report.e2e("overpush_rate", ratio(unused, pushed as f64), "ratio");
    report.samples("utility_mean", completed as usize);
    report.samples("preempted_rate", requests as usize);
}

/// Checks that a received block is the catalog's block of that identity.
pub fn block_matches(catalog: &ResponseCatalog, meta: &khameleon_core::block::BlockMeta) -> bool {
    catalog
        .get(meta.block.request)
        .and_then(|layout| layout.block_meta(meta.block.index))
        .is_some_and(|expected| expected == *meta)
}

/// Delivers one block to a cache manager and verifies the ring never holds
/// more blocks than its capacity.
pub fn deliver(
    client: &mut CacheManager,
    meta: khameleon_core::block::BlockMeta,
    now: Time,
) -> (Vec<Upcall>, bool) {
    let upcalls = client.on_block(meta, now);
    let within = client.cache().len() <= client.cache_blocks();
    (upcalls, within)
}

/// What the client did on its uplink, in order: the message log a server
/// replay consumes.  `Pull` marks one block the client received.
#[derive(Debug, Clone)]
pub enum Uplink {
    Message(ClientMessage),
    Pull,
}

/// Per-call timings of an in-process replay, in microseconds.
#[derive(Debug, Default)]
pub struct ReplayTimes {
    pub on_message_us: Vec<f64>,
    pub next_event_us: Vec<f64>,
}

/// Replays `log` through `manager`'s single session and returns the blocks
/// it schedules, in order, with per-call timings of `on_message` and
/// `next_event`.  The transport's event loop makes exactly these calls for a
/// one-connection lockstep session, so the sequences must agree block for
/// block; for paced sessions the replay only attributes server time.
pub fn replay_server(
    manager: &mut SessionManager,
    session: SessionId,
    log: impl IntoIterator<Item = Uplink>,
    now: Time,
) -> (Vec<BlockRef>, ReplayTimes, u64) {
    let mut blocks = Vec::new();
    let mut times = ReplayTimes::default();
    let mut resyncs = 0u64;
    for entry in log {
        match entry {
            Uplink::Message(message) => {
                let start = Instant::now();
                let out = manager.on_message(session, &message, now);
                times.on_message_us.push(micros(start.elapsed()));
                if matches!(out, Some(ServerEvent::Resync { .. })) {
                    resyncs += 1;
                }
            }
            Uplink::Pull => {
                let start = Instant::now();
                let event = manager.next_event_among(now, &[session]);
                times.next_event_us.push(micros(start.elapsed()));
                if let ServerEvent::Block { block, .. } = event {
                    blocks.push(block.meta.block);
                }
            }
        }
    }
    (blocks, times, resyncs)
}

pub fn micros(d: StdDuration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn millis(d: StdDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Wall time since `origin` on the program's microsecond clock.
pub fn now_time(origin: Instant) -> Time {
    Time::from_micros(origin.elapsed().as_micros() as u64)
}

/// One recorded span: a call into a layer, timed from the benchmark's side.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one operation (request, round).
    pub op: u64,
}

/// Spans written out per traced run.
const SPANS_WRITTEN: usize = 100_000;

/// In-memory span recorder.  Off, it records nothing and reads no clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span; closing an off tracer's handle is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Open, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            op,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn root() -> Open {
        Open(None)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self times in microseconds of every span called `name`: its duration
    /// minus the time its child spans cover.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3)
            .collect()
    }

    /// Writes the first [`SPANS_WRITTEN`] spans as CSV
    /// (`name,op,start_ns,end_ns,parent`); a full traced stream records
    /// millions, which the metrics summarize.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,op,start_ns,end_ns,parent")?;
        for s in self.spans.iter().take(SPANS_WRITTEN) {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.op, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

/// Reports p50 and p99 of a span's self time (or of raw samples).
pub fn layer_percentiles(
    report: &mut Report,
    p50_name: &'static str,
    p99_name: Option<&'static str>,
    mut values: Vec<f64>,
) {
    report.samples(p50_name, values.len());
    report.layer(p50_name, percentile(&mut values, 50.0), "us");
    if let Some(p99) = p99_name {
        report.samples(p99, values.len());
        report.layer(p99, percentile(&mut values, 99.0), "us");
    }
}

/// The p90 of the latency samples behind the end-to-end `latency_p50_ms`,
/// taken on the untraced half of a traced run.  A tail is reported per
/// layer, not end to end: on a shared two-core host the tail of a ten-run
/// set moves with the neighbours' load far more than a median does.
pub fn tail_latency(report: &mut Report, latencies_ms: &mut [f64]) {
    report.samples("tail.latency_p90_ms", latencies_ms.len());
    report.layer("tail.latency_p90_ms", percentile(latencies_ms, 90.0), "ms");
}

/// Tracing overhead: load-generator CPU time per operation on the traced
/// replay against the untraced one of the same run.
pub fn overhead_metrics(
    report: &mut Report,
    untraced_s_per_op: f64,
    traced_s_per_op: f64,
    spans: usize,
) {
    report.layer(
        "trace.untraced_loadgen_cpu_us_per_op",
        untraced_s_per_op * 1e6,
        "us",
    );
    report.layer("trace.loadgen_cpu_us_per_op", traced_s_per_op * 1e6, "us");
    report.layer(
        "trace.overhead_pct",
        (ratio(traced_s_per_op, untraced_s_per_op) - 1.0) * 100.0,
        "%",
    );
    report.layer("trace.spans", spans as f64, "count");
}

/// Set-up ends when the session serves: the server has built the session's
/// scheduler state and its first block has crossed the socket.
pub fn first_block(client: &mut TransportClient) -> Option<khameleon_core::block::Block> {
    let _ = client.set_read_timeout(Some(StdDuration::from_secs(10)));
    loop {
        match client.recv_event() {
            Ok(ServerEvent::Block { block, .. }) => return Some(block),
            Ok(_) => continue,
            Err(_) => return None,
        }
    }
}

/// Writes the traced run's spans to `perfbench/out/spans-<workload>-<seed>.csv`.
pub fn write_spans(args: &Args, tracer: &Tracer) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.csv",
        args.workload, args.seed
    ));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
