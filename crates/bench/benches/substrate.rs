//! Criterion microbenchmarks for the simulation substrate: engine
//! throughput, UXS certification, exploration and rendezvous.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use nochatter_explore::{Explo, Uxs};
use nochatter_graph::{generators, Label, NodeId};
use nochatter_rendezvous::Tz;
use nochatter_sim::proc::{Procedure, UntilCardExceeds, WaitRounds};
use nochatter_sim::{Declaration, Engine, Obs, WakeSchedule};

fn label(v: u64) -> Label {
    Label::new(v).unwrap()
}

/// Raw engine round throughput: agents that walk forever on a ring.
fn engine_throughput(c: &mut Criterion) {
    struct Walker;
    impl Procedure for Walker {
        type Output = ();
        fn poll(&mut self, _obs: &Obs) -> nochatter_sim::Poll<()> {
            nochatter_sim::Poll::Yield(nochatter_sim::Action::TakePort(nochatter_graph::Port::new(
                1,
            )))
        }
    }
    let mut group = c.benchmark_group("engine");
    for agents in [2u32, 8, 16] {
        let g = generators::ring(32);
        group.throughput(Throughput::Elements(100_000 * u64::from(agents)));
        group.bench_with_input(
            BenchmarkId::new("walking_rounds", agents),
            &agents,
            |b, &agents| {
                b.iter(|| {
                    let mut engine = Engine::new(&g);
                    for i in 0..agents {
                        engine.add_agent(
                            label(u64::from(i) + 1),
                            NodeId::new(2 * i % 32),
                            Box::new(Walker.map(|_| Declaration::bare())),
                        );
                    }
                    engine.set_wake_schedule(WakeSchedule::Simultaneous);
                    engine.run(100_000).unwrap()
                })
            },
        );
    }
    // Quiescent rounds: measures the fast-forward path.
    group.bench_function("quiescent_million_rounds", |b| {
        let g = generators::ring(8);
        b.iter(|| {
            let mut engine = Engine::new(&g);
            for i in 0..4u32 {
                engine.add_agent(
                    label(u64::from(i) + 1),
                    NodeId::new(2 * i),
                    Box::new(WaitRounds::new(1_000_000).map(|_| Declaration::bare())),
                );
            }
            engine.run(2_000_000).unwrap()
        })
    });
    group.finish();
}

/// Certified UXS construction cost over growing corpora.
fn uxs_certification(c: &mut Criterion) {
    let mut group = c.benchmark_group("uxs");
    for n in [8u32, 16, 24] {
        let corpus = vec![
            generators::ring(n),
            generators::random_connected(n, n / 2, 7),
            generators::grid(
                (n as f64).sqrt().ceil() as u32,
                (n as f64).sqrt().ceil() as u32,
            ),
        ];
        group.bench_with_input(BenchmarkId::new("covering", n), &corpus, |b, corpus| {
            b.iter(|| Uxs::covering(corpus, 3).unwrap())
        });
    }
    group.finish();
}

/// One full EXPLO execution in the engine.
fn explo_execution(c: &mut Criterion) {
    let g = generators::random_connected(16, 8, 5);
    let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 9).unwrap());
    c.bench_function("explo_16_nodes", |b| {
        b.iter(|| {
            let mut engine = Engine::new(&g);
            engine.add_agent(
                label(1),
                NodeId::new(0),
                Box::new(Explo::new(&uxs).map(|_| Declaration::bare())),
            );
            engine.add_agent(
                label(2),
                NodeId::new(8),
                Box::new(WaitRounds::new(0).map(|_| Declaration::bare())),
            );
            engine.run(1_000_000).unwrap()
        })
    });
}

/// Two-agent rendezvous via TZ until meeting.
fn tz_rendezvous(c: &mut Criterion) {
    let g = generators::ring(12);
    let uxs = Arc::new(Uxs::covering(std::slice::from_ref(&g), 2).unwrap());
    c.bench_function("tz_meeting_ring12", |b| {
        b.iter(|| {
            let mut engine = Engine::new(&g);
            for (l, start) in [(5u64, 0u32), (9, 6)] {
                engine.add_agent(
                    label(l),
                    NodeId::new(start),
                    Box::new(
                        UntilCardExceeds::new(1, Tz::new(l, Arc::clone(&uxs)))
                            .map(|_| Declaration::bare()),
                    ),
                );
            }
            engine.run(10_000_000).unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    // Bounded sampling: each iteration is a full multi-thousand-round
    // simulation, so default sample counts would run for a long time.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = engine_throughput, uxs_certification, explo_execution, tz_rendezvous
}
criterion_main!(benches);
