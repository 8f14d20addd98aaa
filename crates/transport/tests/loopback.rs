//! Loopback integration tests: real sockets, the real event loop, the real
//! session machinery.
//!
//! Covers the transport guarantees the crate documents: disconnect cleanup
//! (no slots planned for departed sessions), the generation-mismatch resync
//! path, bounded outbound queues with backpressure, block-for-block
//! determinism of a lockstep TCP run against the in-process
//! `SessionManager` path, and downlink faults that hit their own frame
//! inside a batched flush.

use std::sync::Arc;

use khameleon_core::block::Block;
use khameleon_core::block::ResponseCatalog;
use khameleon_core::delta::{DeltaTracker, PredictionDelta, SliceDelta};
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::protocol::{ClientMessage, ServerEvent};
use khameleon_core::server::{Backend, CatalogBackend};
use khameleon_core::session::{Session, SessionBuilder, SessionManager};
use khameleon_core::types::{BlockRef, Duration, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};
use khameleon_transport::{
    ShardedTransportServer, TransportClient, TransportConfig, TransportServer,
};

fn catalog(requests: usize, blocks: u32, block_size: u64) -> Arc<ResponseCatalog> {
    Arc::new(ResponseCatalog::uniform(requests, blocks, block_size))
}

fn builder(catalog: &Arc<ResponseCatalog>, blocks: u32) -> SessionBuilder {
    let utility = UtilityModel::homogeneous(&LinearUtility, blocks);
    Session::builder(utility, catalog.clone())
}

fn summary(n: usize, hot: &[(u32, f64)], residual: f64) -> PredictionSummary {
    let mut entries: Vec<(RequestId, f64)> = hot.iter().map(|&(r, p)| (RequestId(r), p)).collect();
    entries.sort_by_key(|&(r, _)| r);
    let slices = (1..=4)
        .map(|i| HorizonSlice {
            delta: Duration::from_millis(50 * i),
            dist: SparseDistribution::from_normalized(n, entries.clone(), residual),
        })
        .collect();
    PredictionSummary::new(n, slices, Time::ZERO)
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..2_000 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn blocks_flow_end_to_end_over_loopback() {
    let cat = catalog(40, 4, 2_000);
    let manager = SessionManager::round_robin(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig::default(),
    )
    .expect("bind");

    let mut client = TransportClient::connect(server.local_addr()).expect("connect");
    client
        .send_prediction(&summary(40, &[(3, 0.7), (9, 0.25)], 0.05))
        .expect("send prediction");

    let mut got = 0;
    while got < 6 {
        match client.recv_event().expect("event") {
            ServerEvent::Block { block, .. } => {
                assert!(block.meta.block.request.index() < 40);
                got += 1;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    // The hot requests dominate the schedule's head.
    client.send_close().expect("close");
    wait_until(|| server.stats().active == 0, "session teardown");
    let stats = server.stats();
    assert_eq!(stats.accepted, 1);
    assert!(stats.blocks_sent >= 6);
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn abrupt_disconnect_removes_session_and_frees_the_wire() {
    let cat = catalog(30, 4, 1_000);
    let manager = SessionManager::round_robin(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig::default(),
    )
    .expect("bind");

    let mut doomed = TransportClient::connect(server.local_addr()).expect("connect doomed");
    let mut survivor = TransportClient::connect(server.local_addr()).expect("connect survivor");
    wait_until(|| server.stats().accepted == 2, "both sessions");

    doomed
        .send_prediction(&summary(30, &[(1, 0.9)], 0.05))
        .expect("doomed prediction");
    survivor
        .send_prediction(&summary(30, &[(2, 0.9)], 0.05))
        .expect("survivor prediction");

    // Drop the socket without a Close frame: the server sees EOF and must
    // tear the session down (the sampler tombstones the departed session —
    // `remove_session` — so no further slots are planned for it).
    drop(doomed);
    wait_until(|| server.stats().active == 1, "EOF teardown");

    // The survivor keeps receiving blocks after the departure.
    let mut got = 0;
    while got < 4 {
        if let ServerEvent::Block { .. } = survivor.recv_event().expect("survivor event") {
            got += 1;
        }
    }
    assert!(server.stats().disconnected >= 1);
}

/// The in-process half of the disconnect satellite: once a session is
/// removed, the shared scheduler plans no slots for it, even though it had a
/// live schedule moments before.
#[test]
fn departed_session_gets_no_schedule_slots() {
    let cat = catalog(30, 4, 1_000);
    let mut manager = SessionManager::round_robin(Box::new(CatalogBackend::new(cat.clone())));
    let a = manager.add_session(builder(&cat, 4));
    let b = manager.add_session(builder(&cat, 4));

    let now = Time::ZERO;
    manager.on_message(
        a,
        &ClientMessage::PredictorFull {
            generation: 1,
            summary: summary(30, &[(1, 0.9)], 0.05),
        },
        now,
    );
    manager.on_message(
        b,
        &ClientMessage::PredictorFull {
            generation: 1,
            summary: summary(30, &[(2, 0.9)], 0.05),
        },
        now,
    );
    // Both sessions hold work.
    let first = manager.next_event(now);
    assert!(matches!(first, ServerEvent::Block { .. }));

    assert!(manager.remove_session(a));
    for _ in 0..200 {
        match manager.next_event(now) {
            ServerEvent::Block { session, .. } => {
                assert_ne!(session, a, "scheduled a slot for a departed session");
            }
            ServerEvent::Idle => break,
            _ => {}
        }
    }
}

#[test]
fn generation_mismatch_triggers_resync_then_recovers() {
    let cat = catalog(30, 4, 1_000);
    let manager = SessionManager::round_robin(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig::default(),
    )
    .expect("bind");

    let mut client = TransportClient::connect(server.local_addr()).expect("connect");

    // A delta against a generation the server never saw: it must answer
    // Resync without touching the (empty) schedule.
    let bogus = PredictionDelta {
        base_generation: 41,
        generation: 42,
        generated_at: Time::ZERO,
        slices: vec![SliceDelta {
            upserts: vec![(RequestId(1), 0.5)],
            removes: vec![],
            residual: None,
        }],
    };
    client
        .send_message(&ClientMessage::PredictorDelta(bogus))
        .expect("send bogus delta");
    // A fresh session starts streaming against its default prediction, so
    // blocks may already be in flight ahead of the resync.
    loop {
        match client.recv_event().expect("resync event") {
            ServerEvent::Resync { .. } => break,
            ServerEvent::Block { .. } => continue,
            other => panic!("expected resync, got {other:?}"),
        }
    }
    assert_eq!(client.resyncs_seen(), 1);

    // Recovery: the tracker was reset, so the next upload is a full install
    // and blocks flow.
    let report = client
        .send_prediction(&summary(30, &[(5, 0.8)], 0.1))
        .expect("recovery prediction");
    assert!(!report.delta, "post-resync update must be a full summary");
    match client.recv_event().expect("block after recovery") {
        ServerEvent::Block { .. } => {}
        other => panic!("expected block, got {other:?}"),
    }
    assert_eq!(server.stats().resyncs, 1);
}

/// Sharded server end-to-end: connections fan out across shard loops,
/// identical predictors dedup to one model *across* shards, and a departed
/// connection is torn down entirely on its owning shard — freeing both the
/// session and its model refcounts — without wedging the accept path.
#[test]
fn sharded_server_fans_out_dedups_and_tears_down_per_shard() {
    let cat = catalog(40, 4, 2_000);
    let manager_cat = cat.clone();
    let factory_cat = cat.clone();
    let server = ShardedTransportServer::spawn(
        "127.0.0.1:0",
        2,
        move |_shard| {
            SessionManager::round_robin(Box::new(CatalogBackend::new(manager_cat.clone())))
        },
        move || builder(&factory_cat, 4),
        TransportConfig::default(),
    )
    .expect("bind");
    assert_eq!(server.num_shards(), 2);

    let mut clients: Vec<TransportClient> = (0..4)
        .map(|i| {
            TransportClient::connect(server.local_addr())
                .unwrap_or_else(|e| panic!("connect client {i}: {e}"))
        })
        .collect();
    wait_until(|| server.stats().accepted == 4, "all four sessions");

    // Identical predictor histories: every session must resolve to the same
    // shared HorizonModel even though they live on different shards.
    let shared = summary(40, &[(3, 0.7), (9, 0.25)], 0.05);
    for client in &mut clients {
        client.send_prediction(&shared).expect("send prediction");
        let mut got = 0;
        while got < 3 {
            if let ServerEvent::Block { .. } = client.recv_event().expect("event") {
                got += 1;
            }
        }
    }

    wait_until(
        || {
            let stats = server.shard_stats();
            stats.totals.sessions == 4 && stats.live_models <= 2
        },
        "cross-shard model dedup",
    );
    let stats = server.shard_stats();
    assert_eq!(stats.shards, 2);
    // Round-robin fan-out: both shards own sessions.
    for (shard, snap) in stats.per_shard.iter().enumerate() {
        assert!(snap.sessions >= 1, "shard {shard} got no sessions");
    }
    assert!(
        stats.live_models < stats.totals.sessions,
        "identical predictors did not share models: {} models for {} sessions",
        stats.live_models,
        stats.totals.sessions
    );
    assert!(stats.totals.blocks_sent >= 12);

    // Teardown through both paths — protocol Close and abrupt EOF — must be
    // handled on the owning shard: sessions and model refcounts all freed.
    let mut dropped = clients.split_off(2);
    for client in &mut clients {
        client.send_close().expect("close");
    }
    drop(dropped.drain(..));
    wait_until(
        || {
            let stats = server.shard_stats();
            stats.totals.sessions == 0 && stats.live_models == 0
        },
        "shard-local teardown to zero sessions and models",
    );

    // The accept loop survived the churn: a fresh client still gets blocks.
    let mut late = TransportClient::connect(server.local_addr()).expect("late connect");
    late.send_prediction(&shared).expect("late prediction");
    match late.recv_event().expect("late block") {
        ServerEvent::Block { .. } => {}
        other => panic!("expected block, got {other:?}"),
    }
    assert_eq!(server.stats().accepted, 5);
    assert!(server.stats().disconnected >= 4);
}

/// Backend that attaches real payload bytes, so frames are big enough to
/// fill socket buffers and exercise the bounded-queue path.
struct PayloadBackend {
    catalog: Arc<ResponseCatalog>,
}

impl Backend for PayloadBackend {
    fn fetch(&mut self, block: BlockRef) -> Option<Block> {
        let layout = self.catalog.get(block.request)?;
        let meta = layout.block_meta(block.index)?;
        let size = meta.size;
        Some(Block::with_payload(
            block,
            meta.total_blocks,
            size,
            vec![0x5a; size as usize],
        ))
    }

    fn name(&self) -> &'static str {
        "payload-test"
    }
}

#[test]
fn slow_consumer_is_backpressured_not_buffered_unboundedly() {
    // 256 KiB blocks: a handful of frames exceed loopback socket buffers,
    // so a client that never reads wedges its own queue at the cap.
    let cat = catalog(64, 8, 256 * 1024);
    let manager = SessionManager::round_robin(Box::new(PayloadBackend {
        catalog: cat.clone(),
    }));
    let factory_cat = cat.clone();
    let config = TransportConfig {
        max_queued_frames: 3,
        ..TransportConfig::default()
    };
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 8),
        config,
    )
    .expect("bind");

    let mut slow = TransportClient::connect(server.local_addr()).expect("connect slow");
    let mut live = TransportClient::connect(server.local_addr()).expect("connect live");
    wait_until(|| server.stats().accepted == 2, "both sessions");

    slow.send_prediction(&summary(64, &[(1, 0.9)], 0.02))
        .expect("slow prediction");
    live.send_prediction(&summary(64, &[(2, 0.9)], 0.02))
        .expect("live prediction");

    // The live client drains blocks while the slow one reads nothing.
    let mut live_blocks = 0;
    while live_blocks < 20 {
        if let ServerEvent::Block { .. } = live.recv_event().expect("live event") {
            live_blocks += 1;
        }
    }
    wait_until(
        || server.stats().backpressure_skips > 0,
        "backpressure skips",
    );
    let stats = server.stats();
    // Bounded queues: the high-water mark never exceeds the configured cap.
    assert!(
        stats.peak_queue_frames <= 3,
        "queue grew past its bound: {}",
        stats.peak_queue_frames
    );
    assert!(stats.backpressure_skips > 0);
    // The slow consumer did not stop the live one.
    assert!(live_blocks >= 20);
    drop(slow);
    drop(live);
}

/// Block-for-block determinism: a fixed workload over real TCP in lockstep
/// mode produces exactly the schedule the in-process `SessionManager` path
/// produces.
#[test]
fn lockstep_tcp_run_matches_in_process_schedule() {
    let cat = catalog(50, 4, 1_500);
    let s1 = summary(50, &[(7, 0.6), (11, 0.3)], 0.02);
    let s2 = summary(50, &[(7, 0.55), (11, 0.3), (13, 0.1)], 0.01);
    let s3 = summary(50, &[(13, 0.8), (11, 0.1)], 0.02);
    let pulls_per_phase = 8usize;

    // --- in-process reference run ---
    let mut reference: Vec<(u64, u32, u32)> = Vec::new();
    {
        let mut manager = SessionManager::round_robin(Box::new(CatalogBackend::new(cat.clone())));
        let id = manager.add_session(builder(&cat, 4));
        // Toy summaries fail the 50% economy check; force the delta path so
        // determinism is proven *through* O(Δ) updates (both runs use the
        // same ratio, so they still encode identical message sequences).
        let mut tracker = DeltaTracker::new().with_max_delta_ratio(1.0);
        for s in [&s1, &s2, &s3] {
            let message = tracker.encode(s);
            assert!(manager.on_message(id, &message, Time::ZERO).is_none());
            for _ in 0..pulls_per_phase {
                match manager.next_event(Time::ZERO) {
                    ServerEvent::Block { block, .. } => reference.push((
                        block.meta.block.request.0 as u64,
                        block.meta.block.index,
                        block.meta.total_blocks,
                    )),
                    other => panic!("reference run starved: {other:?}"),
                }
            }
        }
    }

    // --- TCP lockstep run ---
    let manager = SessionManager::round_robin(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    let config = TransportConfig {
        lockstep: true,
        ..TransportConfig::default()
    };
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        config,
    )
    .expect("bind");

    let mut client = TransportClient::connect(server.local_addr())
        .expect("connect")
        .with_max_delta_ratio(1.0);
    let mut tcp_run: Vec<(u64, u32, u32)> = Vec::new();
    for s in [&s1, &s2, &s3] {
        client.send_prediction(s).expect("prediction");
        for _ in 0..pulls_per_phase {
            client.send_credit(1).expect("credit");
            match client.recv_event().expect("lockstep event") {
                ServerEvent::Block { block, .. } => tcp_run.push((
                    block.meta.block.request.0 as u64,
                    block.meta.block.index,
                    block.meta.total_blocks,
                )),
                other => panic!("lockstep run starved: {other:?}"),
            }
        }
    }
    assert_eq!(
        tcp_run, reference,
        "TCP lockstep schedule diverged from the in-process schedule"
    );
    // The workload above is delta-friendly: updates 2 and 3 must have gone
    // out as deltas, proving determinism holds *through* the O(Δ) path.
    assert!(client.delta_updates() >= 1, "no delta was exercised");
}

/// One raw Hello'd lockstep connection for the batched-flush fault test:
/// connects, waits for the `Welcome` (downlink frame 0), then installs a
/// prediction and grants `credits` in a single write, so the loop queues
/// every credited block in one pass and the flush sees them as one batch.
/// Block `seq` is downlink frame `seq`.
fn raw_lockstep_conn(addr: std::net::SocketAddr, credits: u32) -> std::net::TcpStream {
    use khameleon_transport::wire::{decode_server_frame, encode_client_frame};
    use khameleon_transport::{ClientFrame, FrameBuffer, ServerFrame};
    use std::io::Write as _;

    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    raw.write_all(&encode_client_frame(&ClientFrame::Hello))
        .expect("hello");
    let mut buf = FrameBuffer::new();
    while !buf.has_frame().expect("wire ok") {
        assert!(buf.fill_from(&mut raw).expect("read welcome") > 0, "eof");
    }
    let welcome = decode_server_frame(buf.next_frame().expect("wire ok").expect("frame"));
    assert!(
        matches!(welcome, Ok(ServerFrame::Welcome { .. })),
        "{welcome:?}"
    );
    let message = DeltaTracker::new().encode(&summary(40, &[(3, 0.6), (9, 0.3)], 0.1));
    let mut uplink = encode_client_frame(&ClientFrame::Message(message));
    uplink.extend(encode_client_frame(&ClientFrame::Credit(credits)));
    raw.write_all(&uplink).expect("prediction and credits");
    raw
}

/// Faults stay per frame under batched flushes: with twelve blocks queued
/// behind one credit grant, a `Drop`, a `Corrupt` and a `Truncate` keyed to
/// frame 5 each hit exactly frame 5 — not the start or end of the batch
/// that carries frames 1..=4 — and the frames around it arrive intact.
#[test]
fn faults_fire_on_their_frame_inside_a_batched_flush() {
    use khameleon_core::fault::{FaultKind, FaultPlan};
    use khameleon_transport::wire::{decode_server_frame, WireError};
    use khameleon_transport::{FrameBuffer, ServerFrame, WIRE_VERSION};

    const K: u64 = 5;
    const CREDITS: u32 = 12;
    let plan = FaultPlan::new()
        .with(0, K, FaultKind::Drop)
        .with(
            1,
            K,
            FaultKind::Corrupt {
                offset: 0,
                xor: 0xff,
            },
        )
        .with(2, K, FaultKind::Truncate { keep: 3 });
    let cat = catalog(40, 4, 64);
    let manager = SessionManager::round_robin(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig {
            lockstep: true,
            fault_plan: Some(plan),
            ..TransportConfig::default()
        },
    )
    .expect("bind");

    // Lanes follow accept order; each connection is welcomed before the
    // next one connects.
    let mut lanes: Vec<_> = (0..3)
        .map(|_| raw_lockstep_conn(server.local_addr(), CREDITS))
        .collect();

    // Every downlink frame of a lane until `want` blocks were decoded or the
    // server hung up: per frame, its seq or its decode error.  Returns the
    // bytes of a trailing partial frame too.
    let mut read_lane = |lane: usize, want: usize| {
        let mut buf = FrameBuffer::new();
        let mut frames: Vec<Result<u64, WireError>> = Vec::new();
        loop {
            while let Some(body) = buf.next_frame().expect("wire ok") {
                frames.push(match decode_server_frame(body) {
                    Ok(ServerFrame::Event {
                        seq,
                        event: ServerEvent::Block { .. },
                    }) => Ok(seq),
                    Ok(other) => panic!("lane {lane}: unexpected frame {other:?}"),
                    Err(e) => Err(e),
                });
            }
            if frames.len() == want || buf.fill_from(&mut lanes[lane]).expect("read") == 0 {
                return (frames, buf.pending_bytes());
            }
        }
    };
    let blocks = |seqs: &[u64]| seqs.iter().map(|&s| Ok(s)).collect::<Vec<_>>();

    // Drop: frame 5 never arrives; the stream goes on at frame 6.
    let (frames, _) = read_lane(0, CREDITS as usize - 1);
    assert_eq!(frames, blocks(&[1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12]));

    // Corrupt: frame 5 arrives well-framed with its version byte flipped;
    // its neighbours decode.
    let (frames, _) = read_lane(1, CREDITS as usize);
    let mut want = blocks(&[1, 2, 3, 4]);
    want.push(Err(WireError::BadVersion(WIRE_VERSION ^ 0xff)));
    want.extend(blocks(&[6, 7, 8, 9, 10, 11, 12]));
    assert_eq!(frames, want);

    // Truncate: frames 1..=4, then 3 bytes of frame 5, then the hang-up.
    let (frames, partial) = read_lane(2, usize::MAX);
    assert_eq!(frames, blocks(&[1, 2, 3, 4]));
    assert_eq!(partial, 3);

    wait_until(|| server.stats().parked == 1, "truncated lane parked");
    let stats = server.stats();
    assert_eq!(stats.faults_injected, 3);
    assert!(
        stats.peak_queue_frames >= CREDITS as usize,
        "the credited blocks were queued together (peak {})",
        stats.peak_queue_frames
    );
}
