//! `fleet_steady`: the read path at fleet scale, in process, on one thread.
//! One `SessionManager` holds a few thousand weighted sessions drawn from 16
//! shared predictor profiles, so model dedup matters.  The catalog is larger
//! than each session's cache, so sessions never drain.  Profile cohorts
//! re-predict and reporters resend their rates between `next_event` pulls.

use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use khameleon_core::block::ResponseCatalog;
use khameleon_core::client::CacheManager;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::predictor::PredictorState;
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::scheduler::GreedySchedulerConfig;
use khameleon_core::server::{CatalogBackend, ServerConfig};
use khameleon_core::session::{Session, SessionManager};
use khameleon_core::types::{Bandwidth, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};

use crate::common::*;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

const REQUESTS: usize = 64;
const BLOCKS_PER_REQUEST: u32 = 4;
/// Each session's client cache holds an eighth of the catalog's blocks.
const CACHE_BLOCKS: usize = 32;
const PROFILES: usize = 16;
/// Every 64th session reports its receive rate.
const REPORTER_EVERY: usize = 64;
/// One profile cohort re-predicts every this many pulls.
const REPREDICT_EVERY: u64 = 2_000;
/// One reporter resends its rate every this many pulls.
const RATE_EVERY: u64 = 500;
/// Pulls per latency sample on untraced runs.
const PULL_BATCH: usize = 64;
/// A session's user asks for something every this many blocks it receives.
const DRAW_EVERY: u64 = 8;
/// Users ask only during the fleet's first this many pulls, so the quality
/// metrics cover the same pulls on every run of a seed, however fast the
/// host ran; the quality of a never-draining fleet changes with the number
/// of pulls.  It also keeps the clients' per-request records, and with them
/// the peak RSS, from growing with the rate.
const QUALITY_PULLS: u64 = 100_000;
/// Probability mass the prediction leaves to unpredicted requests.
const UNPREDICTED: f64 = 0.1;

fn sessions(args: &Args) -> usize {
    if args.tiny {
        160
    } else {
        3_000
    }
}

/// Pulls compared between two identically seeded fleets.
fn determinism_pulls(args: &Args) -> u64 {
    if args.tiny {
        500
    } else {
        5_000
    }
}

fn utility() -> UtilityModel {
    UtilityModel::homogeneous(&LinearUtility, BLOCKS_PER_REQUEST)
}

/// Profile `p`'s prediction in state `s` (cohorts alternate between two):
/// three likely requests plus residual mass over the whole catalog, so a
/// session always has a useful block to send.
fn profile_dist(profile: usize, state: u64, offset: usize) -> SparseDistribution {
    let base = profile * 3 + offset;
    let shift = if state.is_multiple_of(2) { 5 } else { 13 };
    let mut entries = vec![
        (RequestId::from(base % REQUESTS), 0.6 * (1.0 - UNPREDICTED)),
        (
            RequestId::from((base + shift) % REQUESTS),
            0.3 * (1.0 - UNPREDICTED),
        ),
        (
            RequestId::from((base + 2 * shift + 1) % REQUESTS),
            0.1 * (1.0 - UNPREDICTED),
        ),
    ];
    entries.sort_by_key(|&(r, _)| r);
    SparseDistribution::from_entries(REQUESTS, entries, UNPREDICTED)
}

fn profile_message(profile: usize, state: u64, offset: usize) -> ClientMessage {
    let dist = profile_dist(profile, state, offset);
    let slices = PredictionSummary::default_deltas()
        .into_iter()
        .map(|delta| HorizonSlice {
            delta,
            dist: dist.clone(),
        })
        .collect();
    let summary = PredictionSummary::new(REQUESTS, slices, Time::ZERO);
    ClientMessage::Predictor(PredictorState::Summary(summary))
}

struct Fleet {
    manager: SessionManager,
    ids: Vec<SessionId>,
    clients: Vec<CacheManager>,
    served: Vec<u64>,
    /// Each profile's current prediction state.
    states: Vec<u64>,
    /// Seeded per-profile offset into the catalog.
    offset: usize,
    rng: Rng,
    pulls: u64,
    next_profile: usize,
    next_reporter: usize,
    /// Start of the current throughput window.
    window_start: Option<Instant>,
    /// Microseconds of pulls in the batch of [`PULL_BATCH`] not yet closed.
    batch_open_us: f64,
}

fn weight(profile: usize) -> f64 {
    1.0 + (profile % 5) as f64 * 0.25
}

fn rate(session: usize) -> ClientMessage {
    ClientMessage::RateReport(Bandwidth::from_mbps(5.0 + (session % 7) as f64))
}

fn build(args: &Args) -> Fleet {
    let n = sessions(args);
    let catalog = Arc::new(ResponseCatalog::uniform(
        REQUESTS,
        BLOCKS_PER_REQUEST,
        1_000,
    ));
    let mut rng = Rng::new(args.seed);
    let offset = rng.below(REQUESTS);
    let scheduler_seed = rng.next_u64();
    let mut manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(catalog.clone())));
    let mut ids = Vec::with_capacity(n);
    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let builder = Session::builder(utility(), catalog.clone())
            .config(ServerConfig {
                scheduler: GreedySchedulerConfig {
                    cache_blocks: CACHE_BLOCKS,
                    seed: scheduler_seed.wrapping_add(i as u64),
                    ..Default::default()
                },
                ..Default::default()
            })
            .weight(weight(i % PROFILES));
        ids.push(manager.add_session(builder));
        clients.push(CacheManager::new(CACHE_BLOCKS, catalog.clone(), utility()));
    }
    // Rates before predictions, twice: a model is keyed on the slot geometry
    // the budget sets, so the budget must be settled (the estimator's window
    // full of one total) before the first prediction, and resending the same
    // rates later leaves it, and the dedup, unchanged.
    for _ in 0..2 {
        for (i, &id) in ids.iter().enumerate().step_by(REPORTER_EVERY) {
            let _ = manager.on_message(id, &rate(i), Time::ZERO);
        }
    }
    for (i, &id) in ids.iter().enumerate() {
        let _ = manager.on_message(id, &profile_message(i % PROFILES, 0, offset), Time::ZERO);
    }
    Fleet {
        manager,
        ids,
        clients,
        served: vec![0; n],
        states: vec![0; PROFILES],
        offset,
        rng,
        pulls: 0,
        next_profile: 0,
        next_reporter: 0,
        window_start: None,
        batch_open_us: 0.0,
    }
}

struct Drive {
    /// Every pull's time, kept on traced runs only: an untraced run's
    /// memory must not grow with its rate.
    pull_us: Vec<f64>,
    /// Microseconds each batch of [`PULL_BATCH`] pulls took.
    batch_us: Vec<f64>,
    idle_pulls: u64,
    bad_blocks: u64,
    /// Seconds each window of [`REPREDICT_EVERY`] pulls took; every window
    /// holds one cohort re-prediction.
    windows_s: Vec<f64>,
    message_us: Vec<f64>,
}

/// Pulls until `deadline` or `limit` pulls, interleaving the cohort
/// re-predictions and rate reports on the pull count, so two fleets built
/// from one seed see the same calls in the same order.
fn drive(fleet: &mut Fleet, deadline: Option<Instant>, limit: u64, tracer: &mut Tracer) -> Drive {
    let mut out = Drive {
        pull_us: Vec::new(),
        batch_us: Vec::new(),
        idle_pulls: 0,
        bad_blocks: 0,
        windows_s: Vec::new(),
        message_us: Vec::new(),
    };
    let origin = Instant::now();
    let mut window_start = fleet.window_start.unwrap_or(origin);
    let catalog = fleet.clients[0].catalog().clone();
    while fleet.pulls < limit {
        if fleet.pulls.is_multiple_of(64) && deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        fleet.pulls += 1;
        if fleet.pulls.is_multiple_of(REPREDICT_EVERY) {
            let profile = fleet.next_profile;
            fleet.next_profile = (profile + 1) % PROFILES;
            fleet.states[profile] += 1;
            let message = profile_message(profile, fleet.states[profile], fleet.offset);
            for i in (profile..fleet.ids.len()).step_by(PROFILES) {
                let span = tracer.open("session.on_message", Tracer::root(), fleet.pulls);
                let start = Instant::now();
                let _ = fleet.manager.on_message(fleet.ids[i], &message, Time::ZERO);
                out.message_us.push(micros(start.elapsed()));
                tracer.close(span);
            }
        }
        if fleet.pulls.is_multiple_of(RATE_EVERY) {
            let i = fleet.next_reporter;
            let next = i + REPORTER_EVERY;
            fleet.next_reporter = if next < fleet.ids.len() { next } else { 0 };
            let span = tracer.open("session.on_message", Tracer::root(), fleet.pulls);
            let start = Instant::now();
            let _ = fleet.manager.on_message(fleet.ids[i], &rate(i), Time::ZERO);
            out.message_us.push(micros(start.elapsed()));
            tracer.close(span);
        }
        if fleet.pulls % REPREDICT_EVERY == 1 && fleet.pulls > 1 {
            let now = Instant::now();
            out.windows_s.push((now - window_start).as_secs_f64());
            window_start = now;
        }
        let span = tracer.open("session.next_event", Tracer::root(), fleet.pulls);
        let start = Instant::now();
        let event = fleet.manager.next_event(Time::ZERO);
        let took_us = micros(start.elapsed());
        tracer.close(span);
        if tracer.on() {
            out.pull_us.push(took_us);
        }
        fleet.batch_open_us += took_us;
        if fleet.pulls.is_multiple_of(PULL_BATCH as u64) {
            out.batch_us.push(fleet.batch_open_us);
            fleet.batch_open_us = 0.0;
        }
        let ServerEvent::Block { session, block } = event else {
            out.idle_pulls += 1;
            continue;
        };
        // Session ids are dense: the manager allocated them in order.
        let i = session.0 as usize;
        fleet.served[i] += 1;
        if !block_matches(&catalog, &block.meta) {
            out.bad_blocks += 1;
            continue;
        }
        let now = now_time(origin);
        let client = &mut fleet.clients[i];
        let span = tracer.open("client.on_block", Tracer::root(), fleet.pulls);
        let (_, within) = deliver(client, block.meta, now);
        tracer.close(span);
        out.bad_blocks += u64::from(!within);
        if fleet.served[i].is_multiple_of(DRAW_EVERY) && fleet.pulls <= QUALITY_PULLS {
            let profile = i % PROFILES;
            let dist = profile_dist(profile, fleet.states[profile], fleet.offset);
            let request = draw_request(&dist, &mut fleet.rng);
            let span = tracer.open("client.register", Tracer::root(), fleet.pulls);
            client.register(request, now);
            tracer.close(span);
        }
    }
    fleet.window_start = Some(window_start);
    out
}

fn checks(report: &mut Report, fleet: &Fleet, d: &Drive) {
    report.attempted += fleet.pulls;
    report.failed += d.idle_pulls + d.bad_blocks;
    let sessions = fleet.ids.len();
    let unserved = fleet.served.iter().filter(|&&c| c == 0).count();
    report.check("fleet_steady: every session served", unserved == 0);
    report.check(
        "fleet_steady: every pull yields a block",
        d.idle_pulls == 0 && fleet.served.iter().sum::<u64>() == fleet.pulls,
    );
    report.check(
        "fleet_steady: blocks are catalog blocks, caches within capacity",
        d.bad_blocks == 0,
    );
    report.check(
        "fleet_steady: live models at most sessions/10",
        fleet.manager.live_models() * 10 <= sessions,
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // The determinism check drives one extra fleet a fixed number of pulls;
    // the measured fleet's per-session counts at that point must match.
    let check_pulls = determinism_pulls(args);
    let mut twin = build(args);
    drive(&mut twin, None, check_pulls, &mut Tracer::new(false));
    let twin_served = twin.served.clone();
    drop(twin);

    let (fleet, setup_s) = repeated_setup(args, SETUP_REPEATS, || build(args));
    let (mut fleet, d, _, cpu, snapshot_ok) =
        measure(fleet, seconds, false, check_pulls, &twin_served);
    checks(report, &fleet, &d);
    report.check(
        "fleet_steady: same seed, same per-session block counts",
        snapshot_ok,
    );
    if !args.trace {
        report.e2e("setup_s", setup_s, "s");
        let (pulls_ms, batch_s) = pull_batches(&d);
        report.samples("latency_p50_ms", pulls_ms.len());
        report.e2e(
            "latency_p50_ms",
            segmented_median(&pulls_ms, &batch_s),
            "ms",
        );
        report.e2e(
            "blocks_per_s",
            windowed_rate(REPREDICT_EVERY as f64, &d.windows_s),
            "1/s",
        );
        client_quality(report, &mut fleet.clients);
        report.note("sessions", fleet.ids.len());
        return;
    }
    let base = ratio(cpu, fleet.pulls as f64);
    tail_latency(report, &mut pull_batches(&d).0);
    let (fleet, d, t, traced_cpu, snapshot_ok) =
        measure(build(args), seconds, true, check_pulls, &twin_served);
    checks(report, &fleet, &d);
    report.check(
        "fleet_steady: same seed, same per-session block counts",
        snapshot_ok,
    );
    layer_percentiles(
        report,
        "session.next_event_us_p50",
        Some("session.next_event_us_p99"),
        d.pull_us.clone(),
    );
    layer_percentiles(
        report,
        "session.on_message_us_p50",
        None,
        d.message_us.clone(),
    );
    let snap = fleet.manager.stats_snapshot();
    report.layer(
        "scheduler.diff_hit_rate",
        ratio(
            snap.diff_applied_updates as f64,
            snap.prediction_updates as f64,
        ),
        "ratio",
    );
    report.layer(
        "session.live_models",
        fleet.manager.live_models() as f64,
        "count",
    );
    report.layer(
        "session.sampler_entries",
        snap.sampler_entries as f64,
        "count",
    );
    report.layer("fleet.sessions", fleet.ids.len() as f64, "count");
    report.layer("fleet.pulls", fleet.pulls as f64, "count");
    report.layer("loadgen.cpu_s", traced_cpu, "s");
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
    overhead_metrics(report, base, ratio(traced_cpu, fleet.pulls as f64), t.len());
    write_spans(args, &t);
}

/// One sample per batch of [`PULL_BATCH`] pulls: the batch's mean pull time
/// in milliseconds, and the seconds its pulls took.  A single pull's time
/// depends on where it falls after a cohort's re-prediction; a batch's mean
/// does not.
fn pull_batches(d: &Drive) -> (Vec<f64>, Vec<f64>) {
    d.batch_us
        .iter()
        .map(|&total_us| (total_us / PULL_BATCH as f64 / 1e3, total_us / 1e6))
        .unzip()
}

/// Drives `fleet` on the named load-generator thread for `seconds`, and
/// compares its per-session counts after `check_pulls` pulls with `twin`.
fn measure(
    mut fleet: Fleet,
    seconds: f64,
    trace_on: bool,
    check_pulls: u64,
    twin: &[u64],
) -> (Fleet, Drive, Tracer, f64, bool) {
    let fleet_ref = &mut fleet;
    let (d, tracer, cpu, same) = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(LOADGEN_THREAD.into())
            .spawn_scoped(scope, move || {
                let mut tracer = Tracer::new(trace_on);
                let cpu_before = thread_cpu_s(LOADGEN_THREAD);
                let deadline = Instant::now() + StdDuration::from_secs_f64(seconds);
                let mut d = drive(fleet_ref, Some(deadline), check_pulls, &mut tracer);
                let same = fleet_ref.pulls < check_pulls || fleet_ref.served == twin;
                let rest = drive(fleet_ref, Some(deadline), u64::MAX, &mut tracer);
                let cpu = thread_cpu_s(LOADGEN_THREAD) - cpu_before;
                d.pull_us.extend(rest.pull_us);
                d.batch_us.extend(rest.batch_us);
                d.message_us.extend(rest.message_us);
                d.idle_pulls += rest.idle_pulls;
                d.bad_blocks += rest.bad_blocks;
                d.windows_s.extend(rest.windows_s);
                (d, tracer, cpu, same)
            })
            .expect("spawn load generator")
            .join()
            .expect("load generator panicked")
    });
    (fleet, d, tracer, cpu, same)
}
