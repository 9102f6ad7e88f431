//! Sampler benchmarks: cost per inference epoch for the three Gibbs
//! variants over the same grounded spatial factor graph (the micro view
//! behind Fig. 9b, 12b and 14).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use sya_bench::{build_kb, calibrate};
use sya_core::SyaConfig;
use sya_data::{gwdb_dataset, GwdbConfig};
use sya_bench::parallel_random_gibbs;
use sya_infer::{sequential_gibbs_with, spatial_gibbs_with, PyramidIndex};
use sya_runtime::ExecContext;

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("samplers");
    group.sample_size(10);

    for n in [300usize, 1000] {
        let dataset = gwdb_dataset(&GwdbConfig { n_wells: n, ..Default::default() });
        // Ground once (with spatial factors) so all samplers share the
        // exact same graph.
        let kb = build_kb(&dataset, calibrate(&dataset, SyaConfig::sya().with_epochs(1)));
        let graph = kb.grounding.graph.clone();
        let pyramid = PyramidIndex::build(&graph, 8, 64);
        let epochs = 50usize;

        group.bench_with_input(BenchmarkId::new("sequential", n), &graph, |b, graph| {
            let ctx = ExecContext::unbounded();
            b.iter(|| black_box(sequential_gibbs_with(graph, epochs, 5, 1, &ctx)))
        });
        group.bench_with_input(
            BenchmarkId::new("spatial_k1", n),
            &(&graph, &pyramid),
            |b, (graph, pyramid)| {
                let mut cfg = sya_infer::InferConfig {
                    epochs,
                    instances: 1,
                    burn_in: 5,
                    seed: 1,
                    ..Default::default()
                };
                cfg.locality_level = 8;
                let ctx = ExecContext::unbounded();
                b.iter(|| black_box(spatial_gibbs_with(graph, pyramid, &cfg, &ctx)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("spatial_k4", n),
            &(&graph, &pyramid),
            |b, (graph, pyramid)| {
                let cfg = sya_infer::InferConfig {
                    epochs,
                    instances: 4,
                    burn_in: 2,
                    seed: 1,
                    ..Default::default()
                };
                let ctx = ExecContext::unbounded();
                b.iter(|| black_box(spatial_gibbs_with(graph, pyramid, &cfg, &ctx)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("random_partition_k4", n),
            &graph,
            |b, graph| b.iter(|| black_box(parallel_random_gibbs(graph, epochs, 5, 4, 1))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_samplers);
criterion_main!(benches);
