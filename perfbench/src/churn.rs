//! `predict_churn`: the write path.  One lockstep connection, closed loop.
//! Each round ships a re-prediction over a large materialized set (about 1%
//! of its entries changed, so it crosses the wire as an O(Δ) delta), grants
//! a few credits, and waits for those blocks.  After the run the client's
//! uplink is replayed through an in-process `SessionManager`; the lockstep
//! server must have sent the same blocks, in the same order.

use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use khameleon_core::block::ResponseCatalog;
use khameleon_core::client::CacheManager;
use khameleon_core::delta::DeltaTracker;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::protocol::ServerEvent;
use khameleon_core::scheduler::GreedySchedulerConfig;
use khameleon_core::server::{CatalogBackend, ServerConfig};
use khameleon_core::session::{Session, SessionBuilder, SessionManager};
use khameleon_core::types::{BlockRef, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};
use khameleon_transport::wire::encode_client_frame;
use khameleon_transport::{ClientFrame, TransportClient, TransportConfig, TransportServer};

use crate::common::*;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

const BLOCKS_PER_REQUEST: u32 = 4;
const BLOCK_BYTES: u64 = 1_000;
const CACHE_BLOCKS: usize = 512;
/// Blocks granted (and awaited) per round.
const CREDITS: u32 = 4;
/// The event loop's sleep when a pass made no progress.  The default
/// (500 µs) would dominate a round trip that carries about a millisecond of
/// work; a shorter sleep keeps the round trip on the update path's cost.
const IDLE_WAIT: StdDuration = StdDuration::from_micros(50);
/// How long a round may wait for one block before it counts as failed.
const ROUND_TIMEOUT: StdDuration = StdDuration::from_secs(5);

struct Shape {
    /// Requests in the catalog.
    n: usize,
    /// Explicit (materialized) entries of every prediction.
    m: usize,
}

fn shape(args: &Args) -> Shape {
    if args.tiny {
        Shape { n: 1_000, m: 200 }
    } else {
        Shape {
            n: 10_000,
            m: 2_000,
        }
    }
}

fn utility() -> UtilityModel {
    UtilityModel::homogeneous(&LinearUtility, BLOCKS_PER_REQUEST)
}

fn builder(catalog: &Arc<ResponseCatalog>, seed: u64) -> SessionBuilder {
    Session::builder(utility(), catalog.clone()).config(ServerConfig {
        scheduler: GreedySchedulerConfig {
            cache_blocks: CACHE_BLOCKS,
            seed,
            ..Default::default()
        },
        ..Default::default()
    })
}

fn manager(catalog: &Arc<ResponseCatalog>) -> SessionManager {
    SessionManager::round_robin(Box::new(CatalogBackend::new(catalog.clone())))
}

/// A prediction over `m` explicit requests whose weights drift: each round
/// rescales one ~1% segment, alternately up and down so the explicit mass
/// stays within [0.25, 0.75].
struct Drift {
    n: usize,
    ids: Vec<RequestId>,
    weights: Vec<f64>,
    round: usize,
    rng: Rng,
}

impl Drift {
    fn new(shape: &Shape, seed: u64) -> Drift {
        let mut rng = Rng::new(seed);
        // A seeded choice of which m of the n requests are materialized,
        // carrying half the mass in a fixed shape.
        let mut entries: Vec<(RequestId, f64)> = choose_requests(shape.n, shape.m, &mut rng)
            .into_iter()
            .zip(fixed_shape(shape.m, 0.5))
            .collect();
        entries.sort_by_key(|&(r, _)| r);
        let (ids, weights) = entries.into_iter().unzip();
        Drift {
            n: shape.n,
            ids,
            weights,
            round: 0,
            rng,
        }
    }

    fn summary(&self) -> PredictionSummary {
        let entries: Vec<(RequestId, f64)> = self
            .ids
            .iter()
            .copied()
            .zip(self.weights.iter().copied())
            .collect();
        let mass: f64 = self.weights.iter().sum();
        let dist = SparseDistribution::from_entries(self.n, entries, 1.0 - mass);
        let slices = PredictionSummary::default_deltas()
            .into_iter()
            .map(|delta| HorizonSlice {
                delta,
                dist: dist.clone(),
            })
            .collect();
        PredictionSummary::new(self.n, slices, Time::ZERO)
    }

    fn advance(&mut self) -> PredictionSummary {
        let m = self.weights.len();
        let seg = (m / 100).max(1);
        let start = self.rng.below(m);
        let mass: f64 = self.weights.iter().sum();
        let factor = if mass < 0.5 { 1.25 } else { 0.8 };
        for k in 0..seg {
            self.weights[(start + k) % m] *= factor;
        }
        self.round += 1;
        self.summary()
    }
}

struct Env {
    catalog: Arc<ResponseCatalog>,
    seed: u64,
    server: TransportServer,
    client: TransportClient,
    mirror: DeltaTracker,
    drift: Drift,
    /// Seed and shape of the drift, to regenerate the uplink for the replay.
    drift_seed: u64,
    shape: Shape,
    received: Vec<BlockRef>,
}

fn build(args: &Args) -> Env {
    let shape = shape(args);
    let catalog = Arc::new(ResponseCatalog::uniform(
        shape.n,
        BLOCKS_PER_REQUEST,
        BLOCK_BYTES,
    ));
    let seed = Rng::new(args.seed ^ 0xc4).next_u64();
    let factory_catalog = catalog.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager(&catalog),
        move || builder(&factory_catalog, seed),
        TransportConfig {
            lockstep: true,
            idle_wait: IDLE_WAIT,
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback server");
    let client = TransportClient::connect(server.local_addr()).expect("connect to loopback server");
    let _ = client.set_read_timeout(Some(ROUND_TIMEOUT));
    let drift = Drift::new(&shape, args.seed);
    let mut env = Env {
        catalog,
        seed,
        server,
        client,
        mirror: DeltaTracker::new(),
        drift,
        drift_seed: args.seed,
        shape,
        received: Vec::new(),
    };
    // Serving: the full first prediction is installed and one block is back.
    let first = env.drift.summary();
    env.mirror.encode(&first);
    env.client
        .send_prediction(&first)
        .expect("send first prediction");
    env.client.send_credit(1).expect("send first credit");
    if let Ok(ServerEvent::Block { block, .. }) = env.client.recv_event() {
        env.received.push(block.meta.block);
    }
    env
}

/// The client's uplink after `rounds` rounds, regenerated from the drift's
/// seed: the set-up's full prediction and block, then per round one
/// prediction and [`CREDITS`] blocks.  Regenerating keeps the log out of the
/// measured process's memory.
fn uplink(shape: &Shape, seed: u64, rounds: u64) -> impl Iterator<Item = Uplink> {
    let mut drift = Drift::new(shape, seed);
    let mut tracker = DeltaTracker::new();
    let first = tracker.encode(&drift.summary());
    [Uplink::Message(first), Uplink::Pull]
        .into_iter()
        .chain((0..rounds).flat_map(move |_| {
            let message = tracker.encode(&drift.advance());
            std::iter::once(Uplink::Message(message))
                .chain(std::iter::repeat_n(Uplink::Pull, CREDITS as usize))
        }))
}

struct Phase {
    env: Env,
    tracer: Tracer,
    rtts_us: Vec<f64>,
    rounds: u64,
    failed_rounds: u64,
    blocks: u64,
    bad_blocks: u64,
    frame_mismatches: u64,
    resyncs_seen: u64,
    uplink_bytes: u64,
    delta_updates: u64,
    full_updates: u64,
    loadgen_cpu_s: f64,
    server_cpu_s: f64,
    stats: khameleon_transport::ServerStats,
    cache: CacheManager,
}

fn run_rounds(mut env: Env, seconds: f64, trace_on: bool) -> Phase {
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
                let mut rtts_us = Vec::new();
                let (mut rounds, mut failed, mut blocks, mut bad, mut mismatches) =
                    (0u64, 0, 0, 0, 0);
                let (mut uplink_bytes, mut deltas, mut fulls) = (0u64, 0u64, 0u64);
                let mut rng = Rng::new(env.seed ^ 0x5eed);
                let cpu_before = thread_cpu_s(LOADGEN_THREAD);
                let origin = Instant::now();
                let deadline = origin + StdDuration::from_secs_f64(seconds);
                'rounds: while Instant::now() < deadline {
                    rounds += 1;
                    let started = Instant::now();
                    let round = tracer.open("churn.round", Tracer::root(), rounds);
                    let summary = env.drift.advance();
                    let message = env.mirror.encode(&summary);
                    let span = tracer.open("transport.client.send_prediction", round, rounds);
                    let sent = env.client.send_prediction(&summary);
                    tracer.close(span);
                    let Ok(sent) = sent else {
                        failed += 1;
                        break;
                    };
                    uplink_bytes += sent.bytes;
                    if sent.delta {
                        deltas += 1;
                    } else {
                        fulls += 1;
                    }
                    // The client's tracker and the mirror must agree, frame
                    // for frame, or the replay below checks the wrong input.
                    let frame = encode_client_frame(&ClientFrame::Message(message.clone()));
                    mismatches += u64::from(frame.len() as u64 != sent.bytes);
                    if env.client.send_credit(CREDITS).is_err() {
                        failed += 1;
                        break;
                    }
                    for _ in 0..CREDITS {
                        let span = tracer.open("transport.client.recv_event", round, rounds);
                        let event = env.client.recv_event();
                        tracer.close(span);
                        match event {
                            Ok(ServerEvent::Block { block, .. }) => {
                                blocks += 1;
                                env.received.push(block.meta.block);
                                if !block_matches(&env.catalog, &block.meta) {
                                    bad += 1;
                                    continue;
                                }
                                let span = tracer.open("client.on_block", round, rounds);
                                let (_, within) = deliver(cache, block.meta, now_time(origin));
                                tracer.close(span);
                                bad += u64::from(!within);
                            }
                            // A resync, a close or a timeout fails the round.
                            Ok(_) | Err(_) => {
                                failed += 1;
                                break 'rounds;
                            }
                        }
                    }
                    tracer.close(round);
                    rtts_us.push(micros(started.elapsed()));
                    // The user the prediction describes asks for something.
                    let request = draw_request(&summary.slices()[0].dist, &mut rng);
                    let span = tracer.open("client.register", Tracer::root(), rounds);
                    cache.register(request, now_time(origin));
                    tracer.close(span);
                }
                let loadgen_cpu_s = thread_cpu_s(LOADGEN_THREAD) - cpu_before;
                let resyncs_seen = env.client.resyncs_seen();
                (
                    tracer,
                    rtts_us,
                    rounds,
                    failed,
                    blocks,
                    bad,
                    mismatches,
                    resyncs_seen,
                    uplink_bytes,
                    deltas,
                    fulls,
                    loadgen_cpu_s,
                )
            })
            .expect("spawn load generator")
            .join()
            .expect("load generator panicked")
    });
    let server_cpu_s = thread_cpu_s(SERVER_THREAD) - server_cpu_before;
    let stats = env.server.stats();
    env.server.shutdown();
    let (
        tracer,
        rtts_us,
        rounds,
        failed_rounds,
        blocks,
        bad_blocks,
        frame_mismatches,
        resyncs_seen,
        uplink_bytes,
        delta_updates,
        full_updates,
        loadgen_cpu_s,
    ) = out;
    Phase {
        env,
        tracer,
        rtts_us,
        rounds,
        failed_rounds,
        blocks,
        bad_blocks,
        frame_mismatches,
        resyncs_seen,
        uplink_bytes,
        delta_updates,
        full_updates,
        loadgen_cpu_s,
        server_cpu_s,
        stats,
        cache,
    }
}

/// Replays the uplink in process and checks the lockstep run against it.
fn check(report: &mut Report, phase: &Phase) -> ReplayTimes {
    let env = &phase.env;
    let mut manager = manager(&env.catalog);
    let session = manager.add_session(builder(&env.catalog, env.seed));
    let log = uplink(&env.shape, env.drift_seed, phase.rtts_us.len() as u64);
    let (expected, times, resyncs) = replay_server(&mut manager, session, log, Time::ZERO);
    let stats = &phase.stats;
    report.attempted += phase.rounds + phase.blocks;
    report.failed += phase.failed_rounds + phase.bad_blocks;
    report.failed += stats.decode_errors + stats.resyncs + phase.resyncs_seen;
    report.check(
        "predict_churn: no round failed or timed out",
        phase.failed_rounds == 0,
    );
    report.check(
        "predict_churn: blocks are catalog blocks, cache within capacity",
        phase.bad_blocks == 0,
    );
    report.check(
        "predict_churn: client tracker and mirror agree",
        phase.frame_mismatches == 0,
    );
    report.check(
        "predict_churn: lockstep blocks equal the in-process schedule",
        expected == env.received,
    );
    report.check(
        "predict_churn: zero resyncs",
        resyncs == 0 && stats.resyncs == 0 && phase.resyncs_seen == 0,
    );
    report.check(
        "predict_churn: deltas crossed the wire",
        phase.delta_updates > 0,
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
    times
}

pub fn run(args: &Args, report: &mut Report) {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (env, setup_s) = repeated_setup(args, SETUP_REPEATS, || build(args));
    let mut phase = run_rounds(env, seconds, false);
    check(report, &phase);
    if !args.trace {
        report.e2e("setup_s", setup_s, "s");
        // Each round is one sample: its round trip, and the rate at which
        // it delivered its blocks.
        let rtt_s: Vec<f64> = phase.rtts_us.iter().map(|us| us / 1e6).collect();
        let rtt_ms: Vec<f64> = rtt_s.iter().map(|s| s * 1e3).collect();
        let per_s: Vec<f64> = rtt_s
            .iter()
            .map(|&s| ratio(f64::from(CREDITS), s))
            .collect();
        report.samples("latency_p50_ms", rtt_ms.len());
        report.e2e("latency_p50_ms", segmented_median(&rtt_ms, &rtt_s), "ms");
        report.e2e("blocks_per_s", segmented_median(&per_s, &rtt_s), "1/s");
        client_quality(report, std::slice::from_mut(&mut phase.cache));
        report.note("rounds", phase.rounds);
        return;
    }
    let base_cpu_per_op = ratio(phase.loadgen_cpu_s, phase.rounds as f64);
    let mut rtt_ms: Vec<f64> = phase.rtts_us.iter().map(|us| us / 1e3).collect();
    tail_latency(report, &mut rtt_ms);
    let traced = run_rounds(build(args), seconds, true);
    let times = check(report, &traced);
    let t = &traced.tracer;
    layer_percentiles(
        report,
        "churn.update_rtt_us_p50",
        Some("churn.update_rtt_us_p99"),
        traced.rtts_us.clone(),
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
    layer_percentiles(
        report,
        "session.next_event_us_p50",
        Some("session.next_event_us_p99"),
        times.next_event_us.clone(),
    );
    layer_percentiles(
        report,
        "session.on_message_us_p50",
        None,
        times.on_message_us.clone(),
    );
    let updates = traced.delta_updates + traced.full_updates;
    report.layer(
        "transport.uplink_bytes_per_update",
        ratio(traced.uplink_bytes as f64, updates as f64),
        "B",
    );
    report.layer(
        "transport.delta_share",
        ratio(traced.delta_updates as f64, updates as f64),
        "ratio",
    );
    // Transport overhead per round: the round trip minus the client's own
    // work (send, block delivery) minus the server's calls for that round,
    // timed in the in-process replay.  The set-up round is entry 0.
    let rounds = traced.rtts_us.len();
    let send = t.self_times_us("transport.client.send_prediction");
    let on_block = t.self_times_us("client.on_block");
    let per_round = CREDITS as usize;
    let overhead: Vec<f64> = (0..rounds)
        .filter(|&r| send.len() > r && on_block.len() >= (r + 1) * per_round)
        .map(|r| {
            let client: f64 = send[r]
                + on_block[r * per_round..(r + 1) * per_round]
                    .iter()
                    .sum::<f64>();
            let server: f64 = times.on_message_us[r + 1]
                + times.next_event_us[1 + r * per_round..1 + (r + 1) * per_round]
                    .iter()
                    .sum::<f64>();
            traced.rtts_us[r] - client - server
        })
        .collect();
    layer_percentiles(report, "transport.overhead_us_p50", None, overhead);
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
        base_cpu_per_op,
        ratio(traced.loadgen_cpu_s, traced.rounds as f64),
        t.len(),
    );
    write_spans(args, &traced.tracer);
}
