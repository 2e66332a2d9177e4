//! Property-based model checking of the lease state machine: random
//! interleavings of grant / keepalive / guarded revoke / leased writes
//! applied to two independent replicas must leave byte-identical
//! states. Raft guarantees every node applies the same command
//! sequence; these properties guarantee that a same sequence produces
//! the same store — together they are why leases survive leader
//! failover. A second block checks the lease bookkeeping invariants
//! that the LCM's shard-ownership protocol leans on.

use dlaas_etcd::{ApplyOutcome, KvCommand, KvOp, KvState, LeaseId};
use proptest::prelude::*;

/// One abstract operation. Lease-naming ops pick from the leases the
/// sequence has granted so far (`ix` modulo granted-count), plus one
/// always-invalid id to cover the revoked/unknown path.
#[derive(Debug, Clone)]
enum Op {
    Grant {
        ttl_us: u64,
        now_us: u64,
    },
    KeepAlive {
        ix: u8,
        now_us: u64,
    },
    /// The leader's expiry sweep: only applies past the deadline.
    SweepRevoke {
        ix: u8,
        stamp_us: u64,
    },
    /// An unconditional revoke (client shutdown path).
    HardRevoke {
        ix: u8,
    },
    PutLeased {
        key: u8,
        ix: u8,
    },
    /// The shard-owner claim shape: CAS expect-absent, bound to a lease.
    CasClaim {
        key: u8,
        ix: u8,
    },
    Delete {
        key: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1_000..50_000u64, 0..100_000u64)
            .prop_map(|(ttl_us, now_us)| Op::Grant { ttl_us, now_us }),
        4 => (any::<u8>(), 0..200_000u64).prop_map(|(ix, now_us)| Op::KeepAlive { ix, now_us }),
        3 => (any::<u8>(), 0..200_000u64)
            .prop_map(|(ix, stamp_us)| Op::SweepRevoke { ix, stamp_us }),
        1 => any::<u8>().prop_map(|ix| Op::HardRevoke { ix }),
        4 => (0..12u8, any::<u8>()).prop_map(|(key, ix)| Op::PutLeased { key, ix }),
        4 => (0..12u8, any::<u8>()).prop_map(|(key, ix)| Op::CasClaim { key, ix }),
        2 => (0..12u8).prop_map(|key| Op::Delete { key }),
    ]
}

/// Resolves an abstract lease index against the ids granted so far.
/// Index `granted.len()` maps to a deliberately-unknown id.
fn pick_lease(granted: &[LeaseId], ix: u8) -> LeaseId {
    let slot = ix as usize % (granted.len() + 1);
    granted.get(slot).copied().unwrap_or(u64::MAX)
}

/// Applies one abstract op, recording any granted lease id.
fn apply_op(state: &mut KvState, granted: &mut Vec<LeaseId>, op: &Op) -> ApplyOutcome {
    let kv_op = match op {
        Op::Grant { ttl_us, now_us } => KvOp::LeaseGrant {
            ttl_us: *ttl_us,
            now_us: *now_us,
        },
        Op::KeepAlive { ix, now_us } => KvOp::LeaseKeepAlive {
            id: pick_lease(granted, *ix),
            now_us: *now_us,
        },
        Op::SweepRevoke { ix, stamp_us } => KvOp::LeaseRevoke {
            id: pick_lease(granted, *ix),
            if_expired_at_us: Some(*stamp_us),
        },
        Op::HardRevoke { ix } => KvOp::LeaseRevoke {
            id: pick_lease(granted, *ix),
            if_expired_at_us: None,
        },
        Op::PutLeased { key, ix } => KvOp::Put {
            key: format!("k/{key}"),
            value: format!("v{key}"),
            lease: Some(pick_lease(granted, *ix)),
        },
        Op::CasClaim { key, ix } => KvOp::Cas {
            key: format!("k/{key}"),
            expect: None,
            value: Some("owner".into()),
            lease: Some(pick_lease(granted, *ix)),
        },
        Op::Delete { key } => KvOp::Delete {
            key: format!("k/{key}"),
        },
    };
    let out = state.apply(&KvCommand {
        req_id: 0,
        op: kv_op,
    });
    if let Some(id) = out.lease {
        granted.push(id);
    }
    out
}

/// Every key naming a lease must be in that lease's key set, and every
/// lease's key set must point back at live keys naming it — the
/// bidirectional bookkeeping revoke-driven deletion depends on.
fn check_lease_bookkeeping(state: &KvState) {
    for (key, _) in state.get_prefix("") {
        if let Some(lease) = state.get(&key).and_then(|v| v.lease) {
            let rec = state
                .lease(lease)
                .unwrap_or_else(|| panic!("{key} names dead lease {lease}"));
            assert!(rec.keys.contains(&key), "{key} missing from lease {lease}");
        }
    }
    for (id, rec) in state.leases() {
        for key in &rec.keys {
            let v = state
                .get(key)
                .unwrap_or_else(|| panic!("lease {id} tracks ghost key {key}"));
            assert_eq!(v.lease, Some(*id), "lease {id} tracks foreign key {key}");
        }
    }
}

proptest! {
    // Two replicas fed the same command sequence end byte-identical:
    // same snapshot bytes, same per-command outcomes (success flags,
    // revisions, events, allocated lease ids). Lease ids are allocated
    // at apply time from replicated state, so they never diverge.
    #[test]
    fn replicas_converge_on_any_interleaving(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut a = KvState::new();
        let mut b = KvState::new();
        let mut granted_a = Vec::new();
        let mut granted_b = Vec::new();
        for op in &ops {
            let out_a = apply_op(&mut a, &mut granted_a, op);
            let out_b = apply_op(&mut b, &mut granted_b, op);
            prop_assert_eq!(out_a, out_b, "outcome diverged on {:?}", op);
        }
        prop_assert_eq!(granted_a, granted_b);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_snapshot_bytes(), b.to_snapshot_bytes());
    }

    // After any sequence the lease/key bookkeeping is bidirectionally
    // consistent, and the snapshot round-trips exactly (a follower
    // installed from snapshot is indistinguishable from one that
    // replayed the log).
    #[test]
    fn bookkeeping_and_snapshot_survive_any_interleaving(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let mut state = KvState::new();
        let mut granted = Vec::new();
        for op in &ops {
            apply_op(&mut state, &mut granted, op);
            check_lease_bookkeeping(&state);
        }
        let restored = KvState::from_snapshot_bytes(&state.to_snapshot_bytes())
            .expect("snapshot parses");
        prop_assert_eq!(&restored, &state);
    }

    // The holder always wins a race with the expiry sweep: a guarded
    // revoke whose stamp predates the (possibly keepalive-extended)
    // deadline must be a no-op, and one at/past the deadline must
    // delete every attached key and fence later writes on that lease.
    #[test]
    fn guarded_revoke_respects_the_deadline(
        ttl_us in 1_000..50_000u64,
        grant_at in 0..10_000u64,
        do_extend in any::<bool>(),
        extend_at in 0..100_000u64,
        margin in 1..50_000u64,
    ) {
        let mut state = KvState::new();
        let out = state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::LeaseGrant { ttl_us, now_us: grant_at },
        });
        let id = out.lease.expect("grant allocates an id");
        let mut deadline = grant_at + ttl_us;
        if do_extend {
            let ka = state.apply(&KvCommand {
                req_id: 0,
                op: KvOp::LeaseKeepAlive { id, now_us: extend_at },
            });
            prop_assert!(ka.succeeded);
            deadline = deadline.max(extend_at + ttl_us);
        }
        state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::Put { key: "owner".into(), value: "me".into(), lease: Some(id) },
        });

        // Early sweep: strictly before the deadline, nothing happens
        // (the revoke reports idempotent success but emits no events
        // and the lease lives on — the holder won the race).
        let early = state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::LeaseRevoke { id, if_expired_at_us: Some(deadline - 1) },
        });
        prop_assert!(early.events.is_empty());
        prop_assert!(state.lease(id).is_some(), "holder lost an unexpired lease");
        prop_assert!(state.get("owner").is_some());

        // Late sweep: at/past the deadline the lease dies, the key goes
        // with it, and the lease id is fenced forever.
        let late = state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::LeaseRevoke { id, if_expired_at_us: Some(deadline + margin - 1) },
        });
        prop_assert!(late.succeeded);
        prop_assert!(state.lease(id).is_none());
        prop_assert!(state.get("owner").is_none(), "attached key survived revoke");
        let stale = state.apply(&KvCommand {
            req_id: 0,
            op: KvOp::Cas {
                key: "owner".into(),
                expect: None,
                value: Some("me-again".into()),
                lease: Some(id),
            },
        });
        prop_assert!(!stale.succeeded, "revoked lease re-won the owner key");
        prop_assert!(state.get("owner").is_none());
    }
}

/// One full lease lifecycle on a live 3-node cluster: grant, a claimed
/// owner key, keepalives, a leader crash mid-lease, then expiry after
/// the keepalives stop. Returns every surviving node's snapshot bytes.
fn failover_lifecycle(seed: u64) -> Vec<Vec<u8>> {
    use dlaas_etcd::EtcdCluster;
    use dlaas_sim::{Sim, SimDuration};

    let mut sim = Sim::new(seed);
    let etcd = EtcdCluster::new_3way(&mut sim);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
    sim.run_for(SimDuration::from_secs(1));

    let client = etcd.client("model");
    let granted = std::rc::Rc::new(std::cell::RefCell::new(None));
    let g = granted.clone();
    client.lease_grant(&mut sim, SimDuration::from_secs(8), move |_s, r| {
        *g.borrow_mut() = Some(r);
    });
    sim.run_for(SimDuration::from_secs(1));
    let id = granted.borrow().clone().expect("grant settled").unwrap();
    client.cas_with_lease(
        &mut sim,
        "lcm/shards/001",
        None,
        Some("lcm-0".into()),
        Some(id),
        |_s, _r| {},
    );
    for _ in 0..3 {
        sim.run_for(SimDuration::from_secs(2));
        client.lease_keepalive(&mut sim, id, |_s, _r| {});
    }

    // Leader crash mid-lease; keepalives stop; the new leader's sweep
    // must expire the lease on the replicated deadline.
    let old_leader = etcd.leader_id().expect("leader");
    etcd.crash(&mut sim, old_leader);
    etcd.expect_leader(&mut sim, SimDuration::from_secs(30));
    sim.run_for(SimDuration::from_secs(20));

    (0..etcd.len() as u32)
        .filter(|&n| n != old_leader)
        .map(|n| etcd.kv_snapshot(n).to_snapshot_bytes())
        .collect()
}

/// Same seed, same bytes — on every surviving node, across independent
/// runs. The expiry order (sweep → revoke → key deletes) is part of the
/// replicated history, so nothing about failover may depend on
/// wall-clock or map iteration order.
#[test]
fn failover_expiry_is_byte_identical_per_seed() {
    for seed in [61, 62, 63] {
        let a = failover_lifecycle(seed);
        let b = failover_lifecycle(seed);
        assert_eq!(a, b, "seed {seed}: reruns diverged");
        for w in a.windows(2) {
            assert_eq!(w[0], w[1], "seed {seed}: replicas diverged");
        }
        assert!(!a.is_empty());
    }
}
