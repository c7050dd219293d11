//! Lockstep and consistency tests for the serving plane (`docs/SERVE.md`):
//! a pipelined coordinator must serve **bit-identical** HTTP responses to a
//! synchronous one on every deterministic route at every epoch, and readers
//! hammering the plane across many epoch boundaries must never observe a
//! torn epoch — every reply must be consistent with exactly one published
//! snapshot.

use celestial::config::ServeConfig;
use celestial::pipeline::PipelineMode;
use celestial::Coordinator;
use celestial_serve::ServePlane;
use celestial_types::time::SimDuration;
use httpd::Client;
use serde_json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::lockstep::{serve_constellation, serve_journal, SERVE_ROUTES};

/// The serving plane is part of the determinism contract: a pipelined run
/// answers every deterministic route with the same bytes as a synchronous
/// run, at every one of 30 epochs — and repeating the synchronous run
/// reproduces the journal exactly.
#[test]
fn pipelined_serve_responses_are_bit_identical_to_synchronous() {
    let sync = serve_journal(PipelineMode::Synchronous, 30);
    let pipe = serve_journal(PipelineMode::Pipelined, 30);
    assert_eq!(sync.len(), pipe.len());
    for (line, (a, b)) in sync.iter().zip(&pipe).enumerate() {
        assert_eq!(a, b, "serve journal diverged at line {line}");
    }
    let again = serve_journal(PipelineMode::Synchronous, 30);
    assert_eq!(sync, again, "synchronous serve journal not reproducible");
}

/// The journal covers the full error taxonomy end to end: every epoch
/// answers 200 on the real routes, 404 on the unknown route and 400 on the
/// malformed parameter (auth and rate limiting are off by default; their
/// 401/429 legs live in the serve crate's own tests).
#[test]
fn serve_journal_carries_the_error_taxonomy() {
    let journal = serve_journal(PipelineMode::Synchronous, 3);
    assert_eq!(journal.len(), 3 * SERVE_ROUTES.len());
    for chunk in journal.chunks(SERVE_ROUTES.len()) {
        assert!(chunk[0].contains("/self -> 200"), "{}", chunk[0]);
        assert!(chunk[6].contains("/bogus -> 404"), "{}", chunk[6]);
        assert!(chunk[7].contains("/sat/x/1 -> 400"), "{}", chunk[7]);
    }
}

fn epoch_of(body: &[u8]) -> u64 {
    let value: Value =
        serde_json::from_str(std::str::from_utf8(body).expect("utf-8 body")).expect("json body");
    value
        .get("snapshot_epoch")
        .and_then(Value::as_u64)
        .expect("snapshot_epoch stamped")
}

/// Reader threads hammer `/self` over HTTP while the coordinator publishes
/// 60 epoch boundaries. Every reply must be bit-identical to the reference
/// body of the epoch it claims (`snapshot_epoch`) — a reply mixing two
/// epochs' state, or claiming an epoch that was never published, fails.
/// Each connection must also observe epochs monotonically.
#[test]
fn hammering_readers_never_observe_a_torn_epoch() {
    const EPOCHS: u32 = 60;
    const ROUTE: &str = "/self";
    const HEADERS: &[(&str, &str)] = &[("x-celestial-node", "0.gst")];

    // Reference pass: one body per epoch from an identical coordinator.
    let interval = SimDuration::from_secs(1);
    let mut reference = Coordinator::new(serve_constellation(), interval);
    let store = reference.enable_snapshots();
    let plane = ServePlane::start(&ServeConfig::default(), store).expect("reference plane");
    let mut client = Client::connect(plane.addr()).expect("connect");
    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    for epoch in 0..EPOCHS {
        reference.update(f64::from(epoch)).expect("update");
        let reply = client.get_with_headers(ROUTE, HEADERS).expect("reference request");
        assert_eq!(reply.status, 200);
        assert_eq!(epoch_of(&reply.body), u64::from(epoch) + 1);
        expected.insert(u64::from(epoch) + 1, reply.body);
    }
    drop(plane);

    // Hammer pass: readers race the publisher across the same 60 boundaries.
    // Rate limiting is off — the hammer loop is far hotter than any refill.
    let mut coordinator = Coordinator::new(serve_constellation(), interval);
    let store = coordinator.enable_snapshots();
    coordinator.update(0.0).expect("first update");
    let config = ServeConfig {
        rate_limit_per_epoch: 0,
        ..ServeConfig::default()
    };
    let plane = ServePlane::start(&config, store).expect("hammer plane");
    let addr = plane.addr();
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connect");
                let mut bodies = Vec::new();
                let mut last_epoch = 0;
                // Keep reading until the publisher finishes, with a floor of
                // 50 requests so a starved thread (1-core runners) still
                // exercises the check.
                while !stop.load(Ordering::Relaxed) || bodies.len() < 50 {
                    let reply = client.get_with_headers(ROUTE, HEADERS).expect("reader request");
                    assert_eq!(reply.status, 200);
                    let epoch = epoch_of(&reply.body);
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards on one connection: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    bodies.push(reply.body);
                }
                bodies
            })
        })
        .collect();

    for epoch in 1..EPOCHS {
        coordinator.update(f64::from(epoch)).expect("update");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);

    let mut observed_epochs = std::collections::BTreeSet::new();
    for reader in readers {
        for body in reader.join().expect("reader thread") {
            let epoch = epoch_of(&body);
            let reference_body = expected
                .get(&epoch)
                .unwrap_or_else(|| panic!("reply claims unpublished epoch {epoch}"));
            assert_eq!(
                &body, reference_body,
                "torn reply at epoch {epoch}: body does not match that epoch's reference"
            );
            observed_epochs.insert(epoch);
        }
    }
    assert!(
        observed_epochs.len() >= 2,
        "readers only ever saw {observed_epochs:?}; the race never materialised"
    );
    assert_eq!(coordinator.update_count(), u64::from(EPOCHS));
}

/// A reader that never lets go of an old snapshot pins that epoch's core —
/// and nothing else. Across four further updates it keeps reading
/// byte-identical epoch-N answers, no update blocks or panics on the core
/// that fails to come back (the pipeline mints a fresh one), and every later
/// epoch equals a straggler-free run, in both pipeline modes.
#[test]
fn a_straggling_reader_keeps_its_epoch_and_stalls_nobody() {
    const ROUTES: [&str; 3] = ["/self", "/path/0.gst/1.gst", "/path/accra.gst/0.0"];
    let requester = celestial_types::ids::NodeId::ground_station(0);
    let answers = |database: &celestial::InfoDatabase| -> Vec<String> {
        ROUTES
            .iter()
            .map(|route| {
                let body = celestial::info_api::InfoApi::new(database)
                    .handle_path(requester, route)
                    .expect("route answers");
                serde_json::to_string(&body).expect("serializable")
            })
            .collect()
    };
    let interval = SimDuration::from_secs(1);
    for mode in PipelineMode::ALL {
        let mut reference = Coordinator::new(serve_constellation(), interval);
        let mut coordinator = Coordinator::with_mode(serve_constellation(), interval, mode);
        let store = coordinator.enable_snapshots();
        for epoch in 0..3u32 {
            reference.update(f64::from(epoch)).expect("reference update");
            coordinator.update(f64::from(epoch)).expect("update");
        }
        let held = store.load();
        assert_eq!(held.epoch, 3);
        let held_answers = answers(&held.database);
        assert_eq!(held_answers, answers(reference.database()));

        for epoch in 3..7u32 {
            reference.update(f64::from(epoch)).expect("reference update");
            coordinator.update(f64::from(epoch)).expect("update with a straggler");
            let current = store.load();
            assert_eq!(current.epoch, u64::from(epoch) + 1);
            assert_eq!(current.database.state(), reference.database().state(), "{mode:?} epoch {epoch}");
            assert_eq!(current.database.paths(), reference.database().paths(), "{mode:?} epoch {epoch}");
            assert_eq!(coordinator.programme_delta(), reference.programme_delta());
            assert_eq!(answers(&current.database), answers(reference.database()));
            assert_eq!(answers(&held.database), held_answers, "{mode:?}: epoch 3 changed under its reader");
        }
        let pinned = held.database.shared().expect("the held snapshot keeps its core");
        assert_eq!(pinned.t_seconds, 2.0);
        assert!(!Arc::ptr_eq(pinned, coordinator.database().shared().expect("installed")));
    }
}
