//! Microbenchmarks of the substrates themselves: Raft commit throughput,
//! etcd round trips, document-store queries, Kubernetes scheduling, and
//! the raw event-loop — the performance floor under every experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::rc::Rc;

use dlaas_docstore::{obj, DocStore, Filter, Update};
use dlaas_etcd::EtcdCluster;
use dlaas_kube::{BehaviorRegistry, ContainerSpec, ImageRef, Kube, KubeConfig, NodeSpec, PodSpec};
use dlaas_net::LatencyModel;
use dlaas_raft::{RaftCluster, RaftConfig};
use dlaas_sim::{Sim, SimDuration};

fn bench_sim_events(c: &mut Criterion) {
    c.bench_function("sim/100k_chained_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            fn chain(sim: &mut Sim, left: u32) {
                if left > 0 {
                    sim.schedule_in(SimDuration::from_micros(10), move |sim| {
                        chain(sim, left - 1);
                    });
                }
            }
            chain(&mut sim, 100_000);
            black_box(sim.run_until_idle())
        });
    });
}

fn bench_raft(c: &mut Criterion) {
    c.bench_function("raft/1000_commits_3nodes", |b| {
        b.iter(|| {
            let mut sim = Sim::new(7);
            let cluster: RaftCluster<u64> = RaftCluster::new(
                &mut sim,
                3,
                RaftConfig::default(),
                LatencyModel::datacenter(),
                Rc::new(|_id| Box::new(|_s, _i, _c| {})),
                0,
            );
            let leader = cluster.expect_leader(&mut sim, SimDuration::from_secs(10));
            for i in 0..1000u64 {
                let _ = cluster.node(leader).propose(&mut sim, i);
                if i % 50 == 0 {
                    sim.run_for(SimDuration::from_millis(20));
                }
            }
            sim.run_for(SimDuration::from_secs(2));
            black_box(cluster.node(leader).commit_index())
        });
    });
}

fn bench_etcd(c: &mut Criterion) {
    c.bench_function("etcd/200_puts_roundtrip", |b| {
        b.iter(|| {
            let mut sim = Sim::new(9);
            let etcd = EtcdCluster::new_3way(&mut sim);
            etcd.expect_leader(&mut sim, SimDuration::from_secs(10));
            let client = etcd.client("bench");
            for i in 0..200 {
                client.put(&mut sim, format!("k{i}"), "v", |_s, _r| {});
            }
            sim.run_for(SimDuration::from_secs(5));
            black_box(etcd.kv_snapshot(0).len())
        });
    });
}

fn bench_docstore(c: &mut Criterion) {
    let mut db = DocStore::new();
    db.create_index("jobs", "status");
    for i in 0..10_000 {
        let status = match i % 5 {
            0 => "PENDING",
            1 => "DEPLOYING",
            2 => "PROCESSING",
            3 => "COMPLETED",
            _ => "FAILED",
        };
        db.insert(
            "jobs",
            obj! {"_id" => format!("j{i}"), "status" => status, "n" => i as i64},
        )
        .unwrap();
    }
    c.bench_function("docstore/indexed_find_10k_docs", |b| {
        b.iter(|| black_box(db.find("jobs", &Filter::eq("status", "PROCESSING")).len()));
    });
    c.bench_function("docstore/update_one_by_id", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(db.update_one(
                "jobs",
                &Filter::eq("_id", "j5000"),
                &Update::set("n", i as i64),
            ))
        });
    });
}

fn bench_kube(c: &mut Criterion) {
    c.bench_function("kube/schedule_200_pods", |b| {
        b.iter(|| {
            let mut sim = Sim::new(3);
            let registry = BehaviorRegistry::new();
            registry.register_noop("pause");
            let kube = Kube::new(&mut sim, KubeConfig::default(), registry);
            for n in 0..20 {
                kube.add_node(NodeSpec::cpu(format!("n{n}"), 64_000, 262_144));
            }
            for i in 0..200 {
                kube.create_pod(
                    &mut sim,
                    PodSpec::new(
                        format!("p{i}"),
                        ContainerSpec::new("m", ImageRef::microservice("x"), "pause"),
                    ),
                );
            }
            sim.run_for(SimDuration::from_secs(30));
            black_box(kube.events().len())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sim_events, bench_raft, bench_etcd, bench_docstore, bench_kube
}
criterion_main!(benches);
