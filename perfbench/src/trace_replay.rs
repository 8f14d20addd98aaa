//! `trace_replay`: one user replays the quick image-exploration trace in
//! real time over loopback, `TransportServer` → `TransportClient` →
//! `CacheManager`, open loop.
//!
//! The trace is the one the figure binaries use at quick scale (900-image
//! app, 20 s, trace seed 99; a longer run extends it), so the user's timing
//! is fixed like a recorded trace.  The workload seed picks one of the
//! grid's eight symmetries (which images the user visits, hence which block
//! sizes) and seeds the server's sampler.  Requests and mouse samples are
//! issued at their trace times; a request's latency is timed from when it
//! was due.

use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use khameleon_apps::image_app::{ImageExplorationApp, PredictorKind};
use khameleon_apps::layout::GridLayout;
use khameleon_apps::traces::{
    generate_image_trace, ImageTraceConfig, InteractionTrace, MouseSample,
};
use khameleon_backend::blockstore::BlockStore;
use khameleon_core::client::CacheManager;
use khameleon_core::predictor::kalman::GaussianLayoutDecoder;
use khameleon_core::predictor::{
    InteractionEvent, PredictorManager, PredictorManagerConfig, RequestLayout,
};
use khameleon_core::protocol::{ClientMessage, ServerEvent};
use khameleon_core::scheduler::GreedySchedulerConfig;
use khameleon_core::server::ServerConfig;
use khameleon_core::session::{Session, SessionManager};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_sim::config::ExperimentConfig;
use khameleon_sim::harness::{run_image_system, SystemKind};
use khameleon_transport::{TransportClient, TransportConfig, TransportServer};

use crate::common::*;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

/// Grid side of the quick-scale image app (30 × 30 = 900 images).
const SIDE: usize = 30;
const APP_SEED: u64 = 17;
const TRACE_SEED: u64 = 99;
/// A blocking read's timeout is rounded up to whole scheduler ticks and can
/// overshoot by up to two (8 ms at 250 Hz), so reads stop this long before
/// an event is due and the generator spins the rest of the way (a sleep
/// wakes tens of microseconds late, by a varying amount).  Blocks that land
/// meanwhile wait in the socket and are read right after the event.
const READ_GUARD: StdDuration = StdDuration::from_millis(9);

struct Env {
    app: ImageExplorationApp,
    trace: InteractionTrace,
    cfg: ExperimentConfig,
    cache_blocks: usize,
    server: TransportServer,
    client: TransportClient,
    /// The first block, received during set-up; delivered when replay starts.
    primed: Option<khameleon_core::block::Block>,
}

/// Maps the trace through symmetry `k` of the square grid (bit 0 mirrors x,
/// bit 1 mirrors y, bit 2 transposes).  Request timing is unchanged.
fn symmetric(trace: &InteractionTrace, k: u64) -> InteractionTrace {
    let w = SIDE as f64 * 10.0;
    let point = |x: f64, y: f64| {
        let x = if k & 1 == 1 { w - x } else { x };
        let y = if k & 2 == 2 { w - y } else { y };
        if k & 4 == 4 {
            (y, x)
        } else {
            (x, y)
        }
    };
    let cell = |r: RequestId| {
        let (row, col) = (r.index() / SIDE, r.index() % SIDE);
        let col = if k & 1 == 1 { SIDE - 1 - col } else { col };
        let row = if k & 2 == 2 { SIDE - 1 - row } else { row };
        let (row, col) = if k & 4 == 4 { (col, row) } else { (row, col) };
        RequestId::from(row * SIDE + col)
    };
    InteractionTrace {
        samples: trace
            .samples
            .iter()
            .map(|s| {
                let (x, y) = point(s.x, s.y);
                MouseSample { at: s.at, x, y }
            })
            .collect(),
        requests: trace
            .requests
            .iter()
            .map(|&(at, r)| (at, cell(r)))
            .collect(),
        name: format!("{}-sym{k}", trace.name),
    }
}

fn session_builder(
    app_layout: &Arc<GridLayout>,
    catalog: &Arc<khameleon_core::block::ResponseCatalog>,
    utility: &khameleon_core::utility::UtilityModel,
    cfg: &ExperimentConfig,
    cache_blocks: usize,
) -> khameleon_core::session::SessionBuilder {
    let bandwidth = cfg.bandwidth.nominal();
    Session::builder(utility.clone(), catalog.clone())
        .config(ServerConfig {
            scheduler: GreedySchedulerConfig {
                cache_blocks,
                gamma: cfg.gamma,
                sampler: cfg.sampler,
                prediction_diff: cfg.prediction_diff,
                seed: cfg.seed,
                ..Default::default()
            },
            initial_bandwidth: bandwidth,
            bandwidth_cap: Some(bandwidth),
            sender_queue_target: 32,
        })
        .predictor(Box::new(GaussianLayoutDecoder::new(
            app_layout.clone() as Arc<dyn RequestLayout>
        )))
}

/// A manager whose shared estimate is pinned at the emulated link rate.
/// The client sends no rate reports: over loopback it would measure the
/// pacer's own output and feed the pacer's lateness back into the estimate.
fn manager(
    catalog: &Arc<khameleon_core::block::ResponseCatalog>,
    cfg: &ExperimentConfig,
) -> SessionManager {
    let bandwidth = cfg.bandwidth.nominal();
    let mut manager = SessionManager::round_robin(Box::new(BlockStore::new(catalog.clone())))
        .with_bandwidth_cap(bandwidth);
    manager.set_shared_budget(bandwidth, None);
    manager
}

fn build(args: &Args, seconds: f64) -> Env {
    let app = ImageExplorationApp::reduced(SIDE, APP_SEED);
    let base = generate_image_trace(
        &app.layout(),
        &ImageTraceConfig {
            duration: Duration::from_millis_f64(seconds.max(20.0) * 1e3),
            seed: TRACE_SEED,
            ..Default::default()
        },
    );
    let trace = symmetric(&base, args.seed % 8).truncate(Duration::from_millis_f64(seconds * 1e3));
    let mut cfg = ExperimentConfig::high_resource();
    cfg.seed = Rng::new(args.seed).next_u64();
    let catalog = app.catalog();
    let cache_blocks = (cfg.cache_bytes / catalog.max_block_size().max(1)).max(1) as usize;

    let layout = app.layout();
    let utility = app.utility();
    let factory_cfg = cfg.clone();
    let factory_catalog = catalog.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager(&catalog, &cfg),
        move || {
            session_builder(
                &layout,
                &factory_catalog,
                &utility,
                &factory_cfg,
                cache_blocks,
            )
        },
        TransportConfig {
            paced: true,
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback server");
    let mut client =
        TransportClient::connect(server.local_addr()).expect("connect to loopback server");
    let primed = first_block(&mut client);
    Env {
        app,
        trace,
        cfg,
        cache_blocks,
        server,
        client,
        primed,
    }
}

/// What one replay measured.
struct Phase {
    env: Env,
    tracer: Tracer,
    cache: CacheManager,
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    blocks: u64,
    bad_blocks: u64,
    over_capacity: u64,
    io_errors: u64,
    requests: u64,
    uplink: Vec<Uplink>,
    elapsed_s: f64,
    loadgen_cpu_s: f64,
    server_cpu_s: f64,
    stats: khameleon_transport::ServerStats,
}

fn replay(mut env: Env, trace_on: bool) -> Phase {
    let catalog = env.app.catalog();
    let mut cache = CacheManager::new(env.cache_blocks, catalog.clone(), env.app.utility());
    let mut predictor = PredictorManager::new(
        env.app
            .client_predictor(PredictorKind::Kalman, Some(&env.trace)),
        PredictorManagerConfig {
            send_interval: env.cfg.prediction_interval,
            send_on_request: false,
        },
    );
    let trace = env.trace.clone();
    let poll_every = env.cfg.prediction_interval;
    let end = Time::ZERO + trace.duration();

    let server_cpu_before = thread_cpu_s(SERVER_THREAD);
    let generator = std::thread::Builder::new().name(LOADGEN_THREAD.into());
    let client = &mut env.client;
    let primed = env.primed.take();
    let result = std::thread::scope(|scope| {
        let handle = generator
            .spawn_scoped(scope, || {
                let mut tracer = Tracer::new(trace_on);
                let mut latencies_ms = Vec::new();
                let mut lags_ms = Vec::new();
                // Due time (µs since start) of each registered request,
                // indexed by the cache manager's logical timestamp.
                let mut due_of: Vec<u64> = Vec::new();
                let (mut blocks, mut bad, mut over, mut io_errors) = (0u64, 0u64, 0u64, 0u64);
                let mut uplink = Vec::new();
                let mut next_request = 0usize;
                let mut next_poll = Time::ZERO;
                let mut next_sample = 0usize;
                let cpu_before = thread_cpu_s(LOADGEN_THREAD);
                let origin = Instant::now();
                if let Some(block) = primed {
                    blocks += 1;
                    bad += u64::from(!block_matches(&catalog, &block.meta));
                    let (_, within) = deliver(&mut cache, block.meta, Time::ZERO);
                    over += u64::from(!within);
                }
                loop {
                    let request_due = trace.requests.get(next_request).map(|r| r.0);
                    let due = match request_due {
                        Some(at) if at <= next_poll => at,
                        _ => next_poll,
                    };
                    if due >= end {
                        break;
                    }
                    let due_instant = origin + StdDuration::from_micros(due.as_micros());
                    // Receive until shortly before the event is due ...
                    loop {
                        let now = Instant::now();
                        if now + READ_GUARD >= due_instant {
                            break;
                        }
                        let _ = client.set_read_timeout(Some(due_instant - now - READ_GUARD));
                        let span =
                            tracer.open("transport.client.recv_event", Tracer::root(), blocks);
                        let event = client.recv_event();
                        tracer.close(span);
                        match event {
                            Ok(ServerEvent::Block { block, .. }) => {
                                blocks += 1;
                                uplink.push(Uplink::Pull);
                                if !block_matches(&catalog, &block.meta) {
                                    bad += 1;
                                    continue;
                                }
                                let now_t = now_time(origin);
                                let span = tracer.open("client.on_block", Tracer::root(), blocks);
                                let (upcalls, within) = deliver(&mut cache, block.meta, now_t);
                                tracer.close(span);
                                over += u64::from(!within);
                                for up in upcalls {
                                    let due_us = due_of[up.logical_ts as usize];
                                    latencies_ms.push(since_ms(origin, due_us));
                                }
                            }
                            Ok(_) => {}
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                                ) => {}
                            Err(_) => {
                                io_errors += 1;
                                break;
                            }
                        }
                    }
                    if io_errors > 0 {
                        break;
                    }
                    // ... then spin to the due time.
                    while Instant::now() < due_instant {
                        std::hint::spin_loop();
                    }
                    lags_ms.push(millis(due_instant.elapsed()));
                    if request_due == Some(due) {
                        let (_, request) = trace.requests[next_request];
                        next_request += 1;
                        due_of.push(due.as_micros());
                        let span =
                            tracer.open("client.register", Tracer::root(), due_of.len() as u64);
                        let hit = cache.register(request, now_time(origin));
                        tracer.close(span);
                        if hit.is_some() {
                            latencies_ms.push(since_ms(origin, due.as_micros()));
                        }
                        predictor.observe(&InteractionEvent::Request { request, at: due });
                    } else {
                        while next_sample < trace.samples.len()
                            && trace.samples[next_sample].at <= due
                        {
                            let s = trace.samples[next_sample];
                            predictor.observe(&InteractionEvent::MouseMove {
                                x: s.x,
                                y: s.y,
                                at: s.at,
                            });
                            next_sample += 1;
                        }
                        let span = tracer.open("predictor.poll", Tracer::root(), due.as_micros());
                        let state = predictor.poll(due);
                        tracer.close(span);
                        if let Some(state) = state {
                            let message = ClientMessage::Predictor(state);
                            let span = tracer.open(
                                "transport.client.send_prediction",
                                Tracer::root(),
                                due.as_micros(),
                            );
                            let sent = client.send_message(&message);
                            tracer.close(span);
                            match sent {
                                Ok(bytes) => cache.note_prediction_sent(bytes),
                                Err(_) => {
                                    io_errors += 1;
                                    break;
                                }
                            }
                            uplink.push(Uplink::Message(message));
                        }
                        next_poll += poll_every;
                    }
                }
                let elapsed_s = origin.elapsed().as_secs_f64();
                let loadgen_cpu_s = thread_cpu_s(LOADGEN_THREAD) - cpu_before;
                (
                    tracer,
                    latencies_ms,
                    lags_ms,
                    blocks,
                    bad,
                    over,
                    io_errors,
                    uplink,
                    elapsed_s,
                    loadgen_cpu_s,
                    due_of.len() as u64,
                )
            })
            .expect("spawn load generator");
        handle.join().expect("load generator panicked")
    });
    let (
        tracer,
        latencies_ms,
        lags_ms,
        blocks,
        bad_blocks,
        over_capacity,
        io_errors,
        uplink,
        elapsed_s,
        loadgen_cpu_s,
        requests,
    ) = result;
    let server_cpu_s = thread_cpu_s(SERVER_THREAD) - server_cpu_before;
    let stats = env.server.stats();
    Phase {
        env,
        tracer,
        cache,
        latencies_ms,
        lags_ms,
        blocks,
        bad_blocks,
        over_capacity,
        io_errors,
        requests,
        uplink,
        elapsed_s,
        loadgen_cpu_s,
        server_cpu_s,
        stats,
    }
}

fn checks(report: &mut Report, phase: &Phase) {
    report.attempted += phase.requests + phase.blocks;
    report.failed += phase.bad_blocks + phase.over_capacity + phase.io_errors;
    report.failed += phase.stats.decode_errors + phase.stats.resyncs;
    report.check(
        "trace_replay: every block is a catalog block of its size",
        phase.bad_blocks == 0,
    );
    report.check(
        "trace_replay: cache occupancy within capacity",
        phase.over_capacity == 0,
    );
    report.check("trace_replay: no socket errors", phase.io_errors == 0);
    report.check("trace_replay: blocks arrived", phase.blocks > 0);
}

pub fn run(args: &Args, report: &mut Report) {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (env, setup_s) = repeated_setup(args, SETUP_REPEATS, || build(args, seconds));
    let mut phase = replay(env, false);
    checks(report, &phase);
    if !args.trace {
        report.e2e("setup_s", setup_s, "s");
        let mut lat = phase.latencies_ms.clone();
        // A plain median: about a dozen requests fall due per second, too
        // few for per-second medians, and a second whose median is a miss
        // would weigh a whole second in their mean.
        report.samples("latency_p50_ms", lat.len());
        report.e2e("latency_p50_ms", percentile(&mut lat, 50.0), "ms");
        report.e2e(
            "blocks_per_s",
            ratio(phase.blocks as f64, phase.elapsed_s),
            "1/s",
        );
        client_quality(report, std::slice::from_mut(&mut phase.cache));
        report.note("trace", &phase.env.trace.name);
        report.note("trace_requests", phase.requests);
        let mut lags = phase.lags_ms.clone();
        report.note("gen_lag_p99_ms", percentile(&mut lags, 99.0));
        return;
    }

    // Traced run: the same replay again with spans on; the untraced replay
    // above is the overhead baseline.
    let base_cpu_per_block = ratio(phase.loadgen_cpu_s, phase.blocks as f64);
    tail_latency(report, &mut phase.latencies_ms);
    // One server at a time: the untraced replay's server stops first.
    drop(phase);
    let env = build(args, seconds);
    let mut traced = replay(env, true);
    checks(report, &traced);
    let t = &traced.tracer;
    layer_percentiles(
        report,
        "predictor.poll_us_p50",
        None,
        t.self_times_us("predictor.poll"),
    );
    layer_percentiles(
        report,
        "client.register_us_p50",
        None,
        t.self_times_us("client.register"),
    );
    layer_percentiles(
        report,
        "client.on_block_us_p50",
        None,
        t.self_times_us("client.on_block"),
    );
    layer_percentiles(
        report,
        "transport.client.send_prediction_us_p50",
        None,
        t.self_times_us("transport.client.send_prediction"),
    );
    layer_percentiles(
        report,
        "transport.client.recv_event_us_p50",
        Some("transport.client.recv_event_us_p99"),
        t.self_times_us("transport.client.recv_event"),
    );
    let mut lags = traced.lags_ms.clone();
    report.samples("gen.lag_p99_ms", lags.len());
    report.layer("gen.lag_p99_ms", percentile(&mut lags, 99.0), "ms");
    report.layer("server.cpu_s", traced.server_cpu_s, "s");
    report.layer("loadgen.cpu_s", traced.loadgen_cpu_s, "s");
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
        base_cpu_per_block,
        ratio(traced.loadgen_cpu_s, traced.blocks as f64),
        traced.tracer.len(),
    );

    // Server-side attribution: the client's uplink replayed through an
    // identical in-process manager (no pacing, frozen clock).
    let catalog = traced.env.app.catalog();
    let mut manager = manager(&catalog, &traced.env.cfg);
    let session = manager.add_session(session_builder(
        &traced.env.app.layout(),
        &catalog,
        &traced.env.app.utility(),
        &traced.env.cfg,
        traced.env.cache_blocks,
    ));
    let (_, times, _) = replay_server(
        &mut manager,
        session,
        traced.uplink.iter().cloned(),
        Time::ZERO,
    );
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
        "scheduler.diff_hit_rate",
        ratio(
            snap.diff_applied_updates as f64,
            snap.prediction_updates as f64,
        ),
        "ratio",
    );
    report.layer("session.live_models", manager.live_models() as f64, "count");
    report.layer(
        "session.sampler_entries",
        snap.sampler_entries as f64,
        "count",
    );

    // The simulator on the same trace, seed and configuration.
    let sim = run_image_system(
        &traced.env.app,
        SystemKind::Khameleon(PredictorKind::Kalman),
        &traced.env.trace,
        &traced.env.cfg,
    );
    // The simulator's summary keeps p50, p95 and p99 only.
    report.layer("sim.latency_p50_ms", sim.summary.p50_latency_ms, "ms");
    report.layer("sim.latency_p95_ms", sim.summary.p95_latency_ms, "ms");
    report.layer("sim.preempted_rate", sim.summary.preempted_rate, "ratio");
    report.layer("sim.utility_mean", sim.summary.mean_utility, "ratio");
    report.layer("sim.cache_hit_rate", sim.summary.cache_hit_rate, "ratio");
    report.layer("sim.overpush_rate", sim.summary.overpush_rate, "ratio");
    // The socket numbers of the same traced replay, next to the simulator's.
    traced.cache.finalize();
    let socket = traced.cache.metrics().summary();
    report.note("socket_preempted_rate", socket.preempted_rate);
    report.note("socket_utility_mean", socket.mean_utility);
    report.note("socket_cache_hit_rate", socket.cache_hit_rate);
    report.note("socket_overpush_rate", socket.overpush_rate);
    write_spans(args, &traced.tracer);
}

/// Milliseconds from `due_us` (µs after `origin`) to now.
fn since_ms(origin: Instant, due_us: u64) -> f64 {
    (origin.elapsed().as_nanos() as f64 - due_us as f64 * 1e3) / 1e6
}
