//! Pins a run shaped like the `hotspot_udp` benchmark workload: one AP
//! saturating eight CBR/UDP receivers over RTS/CTS with 64 B payloads at
//! BER 2e-4, plus one 200 ms probe flow per pair. The CBR ticks re-arm
//! about 51 µs ahead and the probe ticks 200 ms ahead, so the source
//! ticks pending at any instant are far from monotone in arm order. The
//! audit ladder (50 ms rungs) and a mid-run checkpoint's bytes pin the
//! scheduler's dispatch order, slab slots and snapshot encoding.

use greedy80211_repro::{Checkpoint, Run, Scenario, TransportKind};
use net::RunHooks;
use sim::{RunKey, SimDuration, SimTime};

const AUDIT_EVERY: SimDuration = SimDuration::from_millis(50);
const CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(150);

fn scenario() -> Scenario {
    Scenario {
        transport: TransportKind::SATURATING_UDP,
        pairs: 8,
        shared_sender: true,
        rts: true,
        payload: 64,
        byte_error_rate: 2e-4,
        probes: true,
        duration: SimDuration::from_millis(300),
        seed: 1,
        ..Scenario::default()
    }
}

#[test]
fn saturated_hotspot_with_probes_is_pinned() {
    let out = Run::plan(&scenario())
        .audit_every(AUDIT_EVERY)
        .checkpoint_every(CHECKPOINT_EVERY)
        .execute()
        .expect("scenario runs");
    let (at, bytes) = &out.checkpoints[0];
    assert_eq!(*at, SimTime::ZERO + CHECKPOINT_EVERY);
    assert_eq!(out.audit.barriers().len(), 6);
    assert_eq!(out.metrics.events_processed, 65_684);
    assert_eq!(out.audit.root_digest(), 0x801cd5c328c74ac7);
    assert_eq!(snap::fnv1a(bytes), 0x68110647dae0840f);

    // Resuming the checkpoint with the same audit grid records exactly
    // the rungs the uninterrupted run recorded after it.
    let ckpt = Checkpoint::decode(bytes).expect("checkpoint decodes");
    let mut built = ckpt.scenario.build().expect("scenario builds");
    let hooks = RunHooks {
        audit_every: Some(AUDIT_EVERY),
        ..RunHooks::default()
    };
    built
        .restore(&ckpt.net_state, ckpt.at, hooks)
        .expect("checkpoint restores");
    let resumed = built.finish(RunKey::new("adhoc", 0, 1));
    let tail: Vec<_> = (out.audit.entries.iter())
        .filter(|e| e.vt_ns > at.as_nanos())
        .cloned()
        .collect();
    assert!(!tail.is_empty());
    assert_eq!(resumed.audit.entries, tail);
    assert_eq!(
        resumed.metrics.events_processed,
        out.metrics.events_processed
    );
}
