//! Corruption-injection integrity tests of the Scrub traffic class: bytes
//! are flipped in the capacity tier *behind the server's back*
//! (`CapacityTier::corrupt_extent` changes stored data without touching the
//! recorded checksum — the silent media corruption scrubbing exists for),
//! and the scrubber must
//!
//! 1. **detect** 100% of the injected corruptions (checksum verify-on-read),
//! 2. **repair** every extent whose burst-tier copy is still resident,
//!    byte-exactly — proven by reading the file back through the server
//!    data path after evicting the burst copies, so the bytes really come
//!    from the repaired tier,
//! 3. **quarantine** the rest (no resident copy to repair from), surfacing
//!    the damaged keys through `ScrubStatus`, and
//! 4. **never "repair"** an extent a concurrent foreground write re-dirtied
//!    mid-scrub: the pending drain owns the tier copy's next contents (the
//!    generation guard, mirroring the drain pipeline's `mark_clean`
//!    generation check).

use std::sync::Arc;
use std::time::Duration;
use themisio::prelude::*;
use themisio::stage::extent_checksum;

const MIB: u64 = 1 << 20;

fn meta(job: u64) -> JobMeta {
    JobMeta::new(job, job as u32, 1u32, 1)
}

/// A single staged server draining into a caller-held `CapacityTier`, so the
/// test can corrupt tier extents out-of-band.
fn staged_server(
    drain: DrainConfig,
    backing_device: DeviceConfig,
) -> (ServerCore, Arc<CapacityTier>) {
    let tier = Arc::new(CapacityTier::new(backing_device));
    let core = ServerCore::with_backing(
        0,
        BurstBufferFs::new(1),
        ServerConfig {
            algorithm: Algorithm::Themis(Policy::size_fair()),
            staging: Some(StagingConfig {
                backing_device,
                drain,
                sharding: None,
                durability: None,
            }),
            ..ServerConfig::default()
        },
        Some(tier.clone() as Arc<dyn BackingStore>),
    );
    (core, tier)
}

/// Loose watermarks (nothing evicts) with the background scrubber off —
/// passes run only on explicit demand, so each test controls exactly when
/// verification happens.
fn demand_scrub_config() -> DrainConfig {
    DrainConfig {
        high_watermark_bytes: 1 << 30,
        low_watermark_bytes: 1 << 29,
        ..DrainConfig::default()
    }
}

fn write_file(s: &mut ServerCore, path: &str, bytes: usize, fill: u8, mut t: u64) -> u64 {
    s.submit(
        9000,
        meta(1),
        FsOp::Open {
            path: path.into(),
            create: true,
            truncate: false,
            append: false,
        },
        t,
    );
    let fd = loop {
        if let Some(r) = s.poll(t).iter().find(|r| r.request_id == 9000) {
            match r.reply {
                FsReply::Fd(fd) => break fd,
                ref other => panic!("unexpected {other:?}"),
            }
        }
        t += 100_000;
        assert!(t < 60_000_000_000, "open never completed");
    };
    s.submit(
        9001,
        meta(1),
        FsOp::Write {
            fd,
            data: vec![fill; bytes],
        },
        t,
    );
    loop {
        if s.poll(t).iter().any(|r| r.request_id == 9001) {
            return t;
        }
        t += 100_000;
        assert!(t < 60_000_000_000, "write never completed");
    }
}

fn poll_until_clean(s: &mut ServerCore, mut t: u64) -> u64 {
    loop {
        s.poll(t);
        if s.drain_status_snapshot()
            .expect("staging enabled")
            .is_clean()
        {
            return t;
        }
        t += 100_000;
        assert!(t < 60_000_000_000, "drain never completed");
    }
}

/// Demands a scrub pass and polls until its deferred acknowledgement
/// arrives, returning the post-pass status and the virtual time reached.
fn scrub_and_wait(s: &mut ServerCore, request_id: u64, mut t: u64) -> (ScrubStatus, u64) {
    s.scrub(request_id);
    loop {
        s.poll(t);
        for ready in s.take_stage_replies() {
            if ready.request_id == request_id {
                match ready.reply {
                    StageReply::Scrub(status) => return (status, t),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        t += 100_000;
        assert!(t < 120_000_000_000, "scrub pass never acknowledged");
    }
}

#[test]
fn scrubber_detects_and_repairs_every_corruption_with_resident_copies() {
    let (mut s, tier) = staged_server(demand_scrub_config(), DeviceConfig::default());
    s.heartbeat(meta(1), 0);
    let t = write_file(&mut s, "/ckpt", (3 * MIB) as usize, 0xAB, 0);
    let t = poll_until_clean(&mut s, t);

    // Flip one byte in every tier extent behind the server's back: in the
    // checksum's first lane, a mid-block lane, and the last lane of the last
    // 64-byte block.
    for (stripe, offset) in [(0, 0), (1, 1234), (2, MIB as usize - 1)] {
        assert!(
            tier.corrupt_extent("/ckpt", stripe, offset),
            "stripe {stripe}"
        );
        let (data, stored) = tier.read_back_with_checksum("/ckpt", stripe).unwrap();
        assert_ne!(extent_checksum(&data), stored, "injection must be silent");
    }

    // The acknowledgement of a demand scrub is deferred until the pass
    // completes.
    s.scrub(500);
    assert!(
        s.take_stage_replies().is_empty(),
        "ack must wait for the pass"
    );
    let (status, t) = {
        let mut t = t;
        loop {
            s.poll(t);
            let replies = s.take_stage_replies();
            if let Some(r) = replies.into_iter().find(|r| r.request_id == 500) {
                match r.reply {
                    StageReply::Scrub(status) => break (status, t),
                    other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "scrub never acknowledged");
        }
    };

    // 100% detection, 100% repair (every burst copy was still resident),
    // nothing quarantined.
    assert_eq!(status.errors_detected, 3, "{status:?}");
    assert_eq!(status.repaired_extents, 3);
    assert_eq!(status.superseded_extents, 0);
    assert!(status.quarantined.is_empty());
    assert!(status.is_healthy());
    assert_eq!(status.scrubbed_extents, 3);
    assert_eq!(status.scrubbed_bytes, 3 * MIB);
    assert_eq!(status.passes_completed, 1);
    assert!(!status.enabled, "background scrubbing stays off");

    // The tier copies are byte-exact again, with valid checksums.
    for stripe in 0..3 {
        let (data, stored) = tier.read_back_with_checksum("/ckpt", stripe).unwrap();
        assert_eq!(data, vec![0xAB; MIB as usize], "stripe {stripe}");
        assert_eq!(stored, extent_checksum(&data));
    }

    // Byte-exact read-back *through the server data path*: evict the burst
    // copies so the read is served by policy-admitted restores from the
    // repaired tier — if the repair had written anything but the original
    // bytes, this read would expose it.
    s.fs().evict_clean_on(0, 0);
    assert_eq!(s.drain_status_snapshot().unwrap().resident_bytes, 0);
    s.submit(
        501,
        meta(1),
        FsOp::ReadAt {
            path: "/ckpt".into(),
            offset: 0,
            len: 3 * MIB,
        },
        t,
    );
    let mut t = t;
    let data = loop {
        let replies = s.poll(t);
        if let Some(r) = replies.iter().find(|r| r.request_id == 501) {
            match &r.reply {
                FsReply::Data(d) => break d.clone(),
                other => panic!("unexpected {other:?}"),
            }
        }
        t += 100_000;
        assert!(t < 240_000_000_000, "read never completed");
    };
    assert_eq!(data, vec![0xAB; (3 * MIB) as usize]);

    // A follow-up pass over the repaired tier finds nothing new.
    let (status, _) = scrub_and_wait(&mut s, 502, t);
    assert_eq!(status.errors_detected, 3, "no new detections");
    assert_eq!(status.passes_completed, 2);
    assert!(status.is_healthy());
}

#[test]
fn scrubber_quarantines_corruption_with_no_repair_source() {
    // Tight watermarks: the drained checkpoint is evicted promptly, so the
    // corrupt tier copies are the *only* copies.
    let drain = DrainConfig {
        high_watermark_bytes: 1 << 18,
        low_watermark_bytes: 0,
        ..DrainConfig::default()
    };
    let (mut s, tier) = staged_server(drain, DeviceConfig::default());
    s.heartbeat(meta(1), 0);
    let t = write_file(&mut s, "/cold", (2 * MIB) as usize, 0x5A, 0);
    let t = poll_until_clean(&mut s, t);
    let mut t = t;
    loop {
        s.poll(t);
        if s.drain_status_snapshot().unwrap().resident_bytes == 0 {
            break;
        }
        t += 100_000;
        assert!(t < 60_000_000_000, "eviction never completed");
    }

    for stripe in 0..2 {
        assert!(tier.corrupt_extent("/cold", stripe, 99));
    }

    // A client read of the corrupt evicted data must come back as an error,
    // not as corrupt bytes — and crucially the refused restore must not
    // install the corrupt copy as a resident "clean" extent, which the
    // scrub pass below would then use as a repair source and launder the
    // damage (recomputing the checksum over the corrupt bytes).
    s.submit(
        599,
        meta(1),
        FsOp::ReadAt {
            path: "/cold".into(),
            offset: 0,
            len: 2 * MIB,
        },
        t,
    );
    loop {
        let replies = s.poll(t);
        if let Some(r) = replies.iter().find(|r| r.request_id == 599) {
            assert!(
                matches!(r.reply, FsReply::Error(_)),
                "corrupt bytes served to the client: {:?}",
                r.reply
            );
            break;
        }
        t += 100_000;
        assert!(t < 120_000_000_000, "read never answered");
    }
    assert_eq!(
        s.drain_status_snapshot().unwrap().resident_bytes,
        0,
        "refused restore must not install the corrupt copy in the shard"
    );

    let (status, t) = scrub_and_wait(&mut s, 600, t);
    assert_eq!(status.errors_detected, 2);
    assert_eq!(
        status.repaired_extents, 0,
        "no resident copy to repair from"
    );
    assert_eq!(
        status.quarantined,
        vec![("/cold".to_string(), 0), ("/cold".to_string(), 1)]
    );
    assert!(!status.is_healthy());
    assert_eq!(status.quarantined_extents(), 2);

    // The immediate status query surfaces the same quarantine set.
    s.scrub_status(601);
    let replies = s.take_stage_replies();
    assert_eq!(replies.len(), 1);
    match &replies[0].reply {
        StageReply::Scrub(snapshot) => {
            assert_eq!(snapshot.quarantined, status.quarantined);
        }
        other => panic!("unexpected {other:?}"),
    }

    // A second pass skips quarantined extents: known-bad keys are not
    // re-counted, and the pass still completes.
    let (status, t) = scrub_and_wait(&mut s, 602, t);
    assert_eq!(status.errors_detected, 2, "quarantined keys re-detected");
    assert_eq!(status.passes_completed, 2);

    // Unlink drops the damaged tier copies and lifts the quarantine.
    s.submit(
        603,
        meta(1),
        FsOp::Unlink {
            path: "/cold".into(),
        },
        t,
    );
    let mut t = t;
    loop {
        if s.poll(t).iter().any(|r| r.request_id == 603) {
            break;
        }
        t += 100_000;
        assert!(t < 60_000_000_000, "unlink never completed");
    }
    assert!(s.scrub_status_snapshot().unwrap().is_healthy());
    assert_eq!(tier.bytes_for("/cold"), 0);
}

#[test]
fn scrub_never_repairs_an_extent_dirtied_mid_scrub() {
    // A slow capacity tier (10 ms per 1 MiB transfer, one worker) opens a
    // wide deterministic window between the scrub's admission and its
    // verification; the burst device stays fast, so a foreground write and
    // the resulting drain admission land inside that window.
    let slow_tier = DeviceConfig {
        write_bw_bytes_per_sec: 100.0e6,
        read_bw_bytes_per_sec: 100.0e6,
        per_op_overhead_ns: 1_000,
        metadata_op_ns: 1_000,
        workers: 1,
    };
    let (mut s, tier) = staged_server(demand_scrub_config(), slow_tier);
    s.heartbeat(meta(1), 0);
    let t = write_file(&mut s, "/live", MIB as usize, 0xAB, 0);
    let t = poll_until_clean(&mut s, t);

    assert!(tier.corrupt_extent("/live", 0, 77));

    // Demand the pass and take exactly one poll: the verification is
    // released to the slow capacity tier in this poll, so its checksum
    // judgement is now ~10 ms of virtual time away.
    s.scrub(700);
    s.poll(t);
    assert_eq!(s.scrub_status_snapshot().unwrap().inflight, 1);
    assert_eq!(
        s.queued(),
        0,
        "the verification must be in flight, not queued"
    );

    // A foreground write re-dirties the extent while the scrub is in
    // flight. One poll executes it on the fast burst device; crucially, we
    // do NOT poll again before the verification lands — every poll runs
    // drain admission, and a released drain rewrites the tier copy (data
    // and checksum together) at once.
    s.submit(
        701,
        meta(1),
        FsOp::WriteAt {
            path: "/live".into(),
            offset: 100,
            data: vec![0xCD; 4],
        },
        t + 1_000,
    );
    let replies = s.poll(t + 1_000);
    assert!(
        replies.iter().any(|r| r.request_id == 701),
        "write must execute in one poll"
    );
    assert!(
        s.drain_status_snapshot().unwrap().dirty_bytes > 0,
        "the write must re-dirty the extent before the scrub verifies"
    );

    // Jump straight past the tier read: within one poll, the maintenance
    // pass judges the checksum (mismatch, extent dirty → generation guard)
    // *before* the drain of the re-dirtied extent is admitted and can
    // rewrite the copy.
    let (status, t) = {
        let mut t = t + 15_000_000;
        loop {
            s.poll(t);
            let replies = s.take_stage_replies();
            if let Some(r) = replies.into_iter().find(|r| r.request_id == 700) {
                match r.reply {
                    StageReply::Scrub(status) => break (status, t),
                    other => panic!("unexpected {other:?}"),
                }
            }
            t += 100_000;
            assert!(t < 120_000_000_000, "scrub never acknowledged");
        }
    };
    assert_eq!(status.errors_detected, 1, "{status:?}");
    assert_eq!(
        status.superseded_extents, 1,
        "guard must defer to the drain"
    );
    assert_eq!(status.repaired_extents, 0, "never repair a dirty extent");
    assert!(status.quarantined.is_empty());

    // The drain then rewrites copy and checksum together; the final tier
    // copy carries the *new* write, not the stale pre-write bytes a naive
    // repair would have resurrected (and not the corruption either).
    poll_until_clean(&mut s, t);
    let (data, stored) = tier.read_back_with_checksum("/live", 0).unwrap();
    assert_eq!(stored, extent_checksum(&data));
    assert_eq!(&data[..100], &vec![0xAB; 100][..]);
    assert_eq!(&data[100..104], &[0xCD; 4]);
    assert!(data[104..].iter().all(|b| *b == 0xAB));
}

#[test]
fn continuous_scrubbing_runs_passes_on_its_own() {
    let drain = DrainConfig {
        high_watermark_bytes: 1 << 30,
        low_watermark_bytes: 1 << 29,
        classes: ClassWeights::default().enable(TrafficClass::Scrub, 16),
        scrub_interval_ns: 1_000_000,
        ..DrainConfig::default()
    };
    let (mut s, _tier) = staged_server(drain, DeviceConfig::default());
    s.heartbeat(meta(1), 0);
    let t = write_file(&mut s, "/bg", MIB as usize, 0x77, 0);
    let t = poll_until_clean(&mut s, t);
    // No explicit Scrub request: the background scrubber paces itself.
    let mut t = t;
    loop {
        s.poll(t);
        let status = s.scrub_status_snapshot().unwrap();
        // Wait for verified *bytes*, not pass counts: passes over the
        // not-yet-drained (empty) tier complete trivially.
        if status.scrubbed_bytes >= 2 * MIB {
            assert!(status.enabled);
            assert!(status.passes_completed >= 2);
            assert_eq!(status.errors_detected, 0);
            break;
        }
        t += 100_000;
        assert!(t < 60_000_000_000, "background passes never accumulated");
    }
}

#[test]
fn scrub_through_the_deployment_control_plane() {
    // End-to-end over the threaded runtime: client-visible Scrub /
    // ScrubStatus round-trips, including the staging-disabled error.
    struct Link(themisio::server::ClientConnection);
    impl ServerLink for Link {
        fn send(&self, msg: ClientMessage) {
            self.0.send(msg);
        }
        fn recv(&self, timeout: Duration) -> Option<ServerMessage> {
            self.0.recv_timeout(timeout)
        }
    }

    let dep = Deployment::start(1, |_| ServerConfig {
        algorithm: Algorithm::Themis(Policy::size_fair()),
        staging: Some(StagingConfig {
            backing_device: DeviceConfig::optane_ssd(),
            drain: DrainConfig {
                high_watermark_bytes: 1 << 30,
                low_watermark_bytes: 1 << 29,
                ..DrainConfig::default()
            },
            sharding: None,
            durability: None,
        }),
        ..ServerConfig::default()
    });
    let links = (0..dep.server_count())
        .map(|i| Link(dep.connect(i)))
        .collect();
    let client = ThemisClient::new(meta(7), links, Namespace::default_fs());
    client.hello();
    let payload = vec![0x33u8; (2 * MIB) as usize];
    let fd = client.open("/fs/scrubbed.dat", true, true, false).unwrap();
    client.write(fd, &payload).unwrap();
    client.close(fd).unwrap();
    // Flush so the tier holds checksummed copies, then demand a pass.
    client.flush("/fs/scrubbed.dat").unwrap();
    let status = client.scrub(0).unwrap();
    assert!(status.passes_completed >= 1);
    assert_eq!(status.errors_detected, 0);
    assert_eq!(status.scrubbed_bytes, 2 * MIB);
    assert!(status.is_healthy());
    let snapshot = client.scrub_status(0).unwrap();
    assert!(snapshot.passes_completed >= status.passes_completed);
    client.bye();
    dep.shutdown();

    // Without staging there is nothing to scrub: a clean error, not a hang.
    let dep = Deployment::start(1, |_| ServerConfig::default());
    let links = (0..dep.server_count())
        .map(|i| Link(dep.connect(i)))
        .collect();
    let client = ThemisClient::new(meta(8), links, Namespace::default_fs());
    client.hello();
    assert!(client.scrub(0).is_err());
    assert!(client.scrub_status(0).is_err());
    client.bye();
    dep.shutdown();
}
