//! `socket_stream`: the per-frame transport path.  One unpaced connection
//! with one static prediction over the smallest blocks; the client reads as
//! fast as it can, so TCP and the server's bounded outbound queue close the
//! loop.  Wire encode, socket flush, client decode and cache insert are the
//! work per block.

use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use khameleon_core::block::ResponseCatalog;
use khameleon_core::client::CacheManager;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::protocol::ServerEvent;
use khameleon_core::scheduler::GreedySchedulerConfig;
use khameleon_core::server::{CatalogBackend, ServerConfig};
use khameleon_core::session::{Session, SessionManager};
use khameleon_core::types::{RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};
use khameleon_transport::{TransportClient, TransportConfig, TransportServer};

use crate::common::*;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

const REQUESTS: usize = 4_096;
const BLOCKS_PER_REQUEST: u32 = 4;
/// The smallest block the catalog allows a response to carry.
const BLOCK_BYTES: u64 = 1;
const CACHE_BLOCKS: usize = 256;
/// Explicit entries of the static prediction and their probability mass;
/// the rest is residual mass over the other requests.
const HOT: usize = 64;
const HOT_MASS: f64 = 0.9;
/// Blocks per timed window: `latency_p50_ms` is the time to receive one
/// window and `blocks_per_s` the windows' rate.
const WINDOW: u64 = 4_096;
/// The event loop's sleep when a pass made no progress.  With a full
/// outbound queue and a full socket buffer a pass makes none; the default
/// 500 µs sleep would then set the stream's rate instead of the per-frame
/// work.
const IDLE_WAIT: StdDuration = StdDuration::from_micros(50);
/// The simulated user asks for something once per this interval of stream
/// time.  A clock, not a block count, paces the requests, so the client's
/// per-request records (and with them the peak RSS) do not grow with the
/// stream's rate.
const DRAW_EVERY: StdDuration = StdDuration::from_millis(1);

fn utility() -> UtilityModel {
    UtilityModel::homogeneous(&LinearUtility, BLOCKS_PER_REQUEST)
}

struct Env {
    catalog: Arc<ResponseCatalog>,
    dist: SparseDistribution,
    server: TransportServer,
    client: TransportClient,
    primed: Option<khameleon_core::block::Block>,
}

fn prediction(seed: u64) -> PredictionSummary {
    let mut rng = Rng::new(seed);
    let mut hot: Vec<(RequestId, f64)> = choose_requests(REQUESTS, HOT, &mut rng)
        .into_iter()
        .zip(fixed_shape(HOT, HOT_MASS))
        .collect();
    hot.sort_by_key(|&(r, _)| r);
    let dist = SparseDistribution::from_entries(REQUESTS, hot, 1.0 - HOT_MASS);
    let slices = PredictionSummary::default_deltas()
        .into_iter()
        .map(|delta| HorizonSlice {
            delta,
            dist: dist.clone(),
        })
        .collect();
    PredictionSummary::new(REQUESTS, slices, Time::ZERO)
}

fn build(args: &Args) -> Env {
    let catalog = Arc::new(ResponseCatalog::uniform(
        REQUESTS,
        BLOCKS_PER_REQUEST,
        BLOCK_BYTES,
    ));
    let scheduler_seed = Rng::new(args.seed ^ 0x57).next_u64();
    let factory_catalog = catalog.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        SessionManager::round_robin(Box::new(CatalogBackend::new(catalog.clone()))),
        move || {
            Session::builder(utility(), factory_catalog.clone()).config(ServerConfig {
                scheduler: GreedySchedulerConfig {
                    cache_blocks: CACHE_BLOCKS,
                    seed: scheduler_seed,
                    ..Default::default()
                },
                ..Default::default()
            })
        },
        TransportConfig {
            idle_wait: IDLE_WAIT,
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback server");
    let mut client =
        TransportClient::connect(server.local_addr()).expect("connect to loopback server");
    let summary = prediction(args.seed);
    client
        .send_prediction(&summary)
        .expect("send the prediction");
    let primed = first_block(&mut client);
    Env {
        catalog,
        dist: summary.slices()[0].dist.clone(),
        server,
        client,
        primed,
    }
}

struct Phase {
    env: Env,
    tracer: Tracer,
    windows_ms: Vec<f64>,
    received: u64,
    bad_blocks: u64,
    io_errors: u64,
    loadgen_cpu_s: f64,
    server_cpu_s: f64,
    cache: CacheManager,
    stats: khameleon_transport::ServerStats,
}

fn stream(mut env: Env, seconds: f64, seed: u64, trace_on: bool) -> Phase {
    let mut cache = CacheManager::new(CACHE_BLOCKS, env.catalog.clone(), utility());
    let server_cpu_before = thread_cpu_s(SERVER_THREAD);
    let env_ref = &mut env;
    let cache_ref = &mut cache;
    let out = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(LOADGEN_THREAD.into())
            .spawn_scoped(scope, move || {
                let env = env_ref;
                let cache = cache_ref;
                let mut tracer = Tracer::new(trace_on);
                let mut rng = Rng::new(seed ^ 0xd4a3);
                let mut windows_ms = Vec::new();
                let (mut received, mut bad, mut io_errors) = (0u64, 0u64, 0u64);
                let _ = env.client.set_read_timeout(Some(StdDuration::from_secs(5)));
                let cpu_before = thread_cpu_s(LOADGEN_THREAD);
                let origin = Instant::now();
                let deadline = origin + StdDuration::from_secs_f64(seconds);
                let mut window_start = origin;
                let mut next_draw = origin + DRAW_EVERY;
                let mut on_block = |block: khameleon_core::block::Block,
                                    received: &mut u64,
                                    bad: &mut u64,
                                    tracer: &mut Tracer| {
                    *received += 1;
                    if !block_matches(&env.catalog, &block.meta) {
                        *bad += 1;
                        return;
                    }
                    let span = tracer.open("client.on_block", Tracer::root(), *received);
                    let (_, within) = deliver(cache, block.meta, now_time(origin));
                    tracer.close(span);
                    *bad += u64::from(!within);
                    let now = Instant::now();
                    if now >= next_draw {
                        next_draw = now + DRAW_EVERY;
                        let request = draw_request(&env.dist, &mut rng);
                        let span = tracer.open("client.register", Tracer::root(), *received);
                        cache.register(request, now_time(origin));
                        tracer.close(span);
                    }
                };
                if let Some(block) = env.primed.take() {
                    on_block(block, &mut received, &mut bad, &mut tracer);
                }
                let mut closing = false;
                loop {
                    if !closing && Instant::now() >= deadline {
                        // Stop the stream: the server answers Close with
                        // Closed after every block it already queued.
                        closing = true;
                        if env.client.send_close().is_err() {
                            io_errors += 1;
                            break;
                        }
                    }
                    let span = tracer.open("transport.client.recv_event", Tracer::root(), received);
                    let event = env.client.recv_event();
                    tracer.close(span);
                    match event {
                        Ok(ServerEvent::Block { block, .. }) => {
                            on_block(block, &mut received, &mut bad, &mut tracer);
                            if !closing && received % WINDOW == 0 {
                                let now = Instant::now();
                                windows_ms.push(millis(now - window_start));
                                window_start = now;
                            }
                        }
                        Ok(ServerEvent::Closed { .. }) => break,
                        Ok(_) => {}
                        Err(_) => {
                            io_errors += 1;
                            break;
                        }
                    }
                }
                let loadgen_cpu_s = thread_cpu_s(LOADGEN_THREAD) - cpu_before;
                (tracer, windows_ms, received, bad, io_errors, loadgen_cpu_s)
            })
            .expect("spawn load generator")
            .join()
            .expect("load generator panicked")
    });
    let server_cpu_s = thread_cpu_s(SERVER_THREAD) - server_cpu_before;
    let stats = env.server.stats();
    let (tracer, windows_ms, received, bad_blocks, io_errors, loadgen_cpu_s) = out;
    Phase {
        env,
        tracer,
        windows_ms,
        received,
        bad_blocks,
        io_errors,
        loadgen_cpu_s,
        server_cpu_s,
        cache,
        stats,
    }
}

fn check(report: &mut Report, phase: &Phase) {
    let s = &phase.stats;
    report.attempted += phase.received;
    report.failed += phase.bad_blocks + phase.io_errors + s.decode_errors + s.resyncs;
    report.check(
        "socket_stream: server blocks_sent equals blocks received",
        s.blocks_sent == phase.received,
    );
    report.check("socket_stream: zero decode errors", s.decode_errors == 0);
    report.check("socket_stream: no socket errors", phase.io_errors == 0);
    report.check(
        "socket_stream: blocks are catalog blocks, cache within capacity",
        phase.bad_blocks == 0,
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (env, setup_s) = repeated_setup(args, SETUP_REPEATS, || build(args));
    let mut phase = stream(env, seconds, args.seed, false);
    check(report, &phase);
    if !args.trace {
        report.e2e("setup_s", setup_s, "s");
        let window_s: Vec<f64> = phase.windows_ms.iter().map(|ms| ms / 1e3).collect();
        report.samples("latency_p50_ms", window_s.len());
        report.e2e(
            "latency_p50_ms",
            segmented_median(&phase.windows_ms, &window_s),
            "ms",
        );
        report.e2e(
            "blocks_per_s",
            windowed_rate(WINDOW as f64, &window_s),
            "1/s",
        );
        client_quality(report, std::slice::from_mut(&mut phase.cache));
        return;
    }
    let base = ratio(phase.loadgen_cpu_s, phase.received as f64);
    tail_latency(report, &mut phase.windows_ms);
    // One server at a time: the untraced stream's server stops first.
    drop(phase);
    let traced = stream(build(args), seconds, args.seed, true);
    check(report, &traced);
    let t = &traced.tracer;
    layer_percentiles(
        report,
        "transport.client.recv_event_us_p50",
        Some("transport.client.recv_event_us_p99"),
        t.self_times_us("transport.client.recv_event"),
    );
    layer_percentiles(
        report,
        "client.on_block_us_p50",
        None,
        t.self_times_us("client.on_block"),
    );
    layer_percentiles(
        report,
        "client.register_us_p50",
        None,
        t.self_times_us("client.register"),
    );
    report.layer("server.cpu_s", traced.server_cpu_s, "s");
    report.layer("loadgen.cpu_s", traced.loadgen_cpu_s, "s");
    report.layer("stream.blocks_received", traced.received as f64, "count");
    let s = &traced.stats;
    report.layer("server.blocks_sent", s.blocks_sent as f64, "count");
    report.layer("server.frames_in", s.frames_in as f64, "count");
    report.layer("server.frames_out", s.frames_out as f64, "count");
    report.layer("server.resyncs", s.resyncs as f64, "count");
    report.layer("server.decode_errors", s.decode_errors as f64, "count");
    report.layer(
        "server.backpressure_skips",
        s.backpressure_skips as f64,
        "count",
    );
    report.layer(
        "server.peak_queue_frames",
        s.peak_queue_frames as f64,
        "count",
    );
    overhead_metrics(
        report,
        base,
        ratio(traced.loadgen_cpu_s, traced.received as f64),
        t.len(),
    );

    // Server-side attribution: the same static prediction and block count
    // pulled from an identical in-process manager.
    let catalog = traced.env.catalog.clone();
    let mut manager = SessionManager::round_robin(Box::new(CatalogBackend::new(catalog.clone())));
    let scheduler_seed = Rng::new(args.seed ^ 0x57).next_u64();
    let session = manager.add_session(Session::builder(utility(), catalog).config(ServerConfig {
        scheduler: GreedySchedulerConfig {
            cache_blocks: CACHE_BLOCKS,
            seed: scheduler_seed,
            ..Default::default()
        },
        ..Default::default()
    }));
    let first = khameleon_core::delta::DeltaTracker::new().encode(&prediction(args.seed));
    let log = std::iter::once(Uplink::Message(first))
        .chain(std::iter::repeat_n(Uplink::Pull, traced.received as usize));
    let (_, times, _) = replay_server(&mut manager, session, log, Time::ZERO);
    layer_percentiles(
        report,
        "session.next_event_us_p50",
        Some("session.next_event_us_p99"),
        times.next_event_us,
    );
    layer_percentiles(
        report,
        "session.on_message_us_p50",
        None,
        times.on_message_us,
    );
    let snap = manager.stats_snapshot();
    report.layer(
        "session.sampler_entries",
        snap.sampler_entries as f64,
        "count",
    );
    write_spans(args, &traced.tracer);
}
