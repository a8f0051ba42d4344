//! Scaling of the graph substrate: Dijkstra and the exact constrained
//! shortest path on layered DAGs shaped like the planner's.

use astra_graph::{
    constrained_shortest_path, shortest_path, ClosureExpand, DiGraph, EdgeId, NodeId,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

type G = DiGraph<(), (f64, f64)>;
type Metric = fn(EdgeId, &(f64, f64)) -> f64;

/// Weight = time, resource = cost.
fn view(g: &G) -> ClosureExpand<'_, (), (f64, f64), Metric, Metric> {
    ClosureExpand::new(g, |_, e| e.0, |_, e| e.1)
}

/// A layered DAG with `layers` columns of `width` nodes, fully connected
/// layer to layer, carrying (time, cost) pairs.
fn layered(width: usize, layers: usize, seed: u64) -> (G, NodeId, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new();
    let s = g.add_node(());
    let mut prev = vec![s];
    for _ in 0..layers {
        let layer: Vec<NodeId> = (0..width).map(|_| g.add_node(())).collect();
        for &u in &prev {
            for &v in &layer {
                g.add_edge(
                    u,
                    v,
                    (rng.random_range(0.1..10.0), rng.random_range(0.1..10.0)),
                );
            }
        }
        prev = layer;
    }
    let t = g.add_node(());
    for &u in &prev {
        g.add_edge(u, t, (0.0, 0.0));
    }
    (g, s, t)
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra_layered");
    for width in [16usize, 46, 128] {
        let (g, s, t) = layered(width, 5, 1);
        group.bench_function(format!("width={width}"), |b| {
            b.iter(|| {
                shortest_path(&mut view(black_box(&g)), s.0, t.0, None, |_| true)
                    .unwrap()
                    .weight
            })
        });
    }
    group.finish();
}

fn bench_csp(c: &mut Criterion) {
    let mut group = c.benchmark_group("constrained_shortest_path");
    for width in [16usize, 46, 128] {
        let (g, s, t) = layered(width, 5, 2);
        // A mid-tightness bound: roughly half the unconstrained optimum's
        // resource use times the layer count.
        let bound = 5.0 * 5.0;
        group.bench_function(format!("width={width}"), |b| {
            b.iter(|| {
                constrained_shortest_path(&mut view(black_box(&g)), s.0, t.0, bound)
                    .map(|sol| sol.weight)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dijkstra, bench_csp);
criterion_main!(benches);
