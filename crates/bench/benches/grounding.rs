//! Grounding-phase benchmarks: Sya vs DeepDive mode (Fig. 9b's grounding
//! columns), DeepDive mode at paper scale, and the step-function rule
//! blow-up (Fig. 10b).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use sya_bench::calibrate;
use sya_core::SyaConfig;
use sya_data::{gwdb_dataset, GwdbConfig};
use sya_ground::Grounder;

// Helper shim: compile once per config outside the timed loop.
struct Prepared {
    compiled: sya_lang::CompiledProgram,
    config: sya_core::SyaConfig,
    dataset: sya_data::Dataset,
}

fn prepare(n_wells: usize, config: SyaConfig) -> Prepared {
    let dataset = gwdb_dataset(&GwdbConfig { n_wells, ..Default::default() });
    let config = calibrate(&dataset, config);
    let session = sya_core::SyaSession::new(
        &dataset.program,
        dataset.constants.clone(),
        dataset.metric,
        config.clone(),
    )
    .expect("program compiles");
    Prepared { compiled: session.compiled().clone(), config, dataset }
}

fn ground_once(p: &Prepared) -> usize {
    let mut db = p.dataset.db.clone();
    let evidence = p.dataset.evidence.clone();
    let mut grounder = Grounder::new(&p.compiled, p.config.ground.clone());
    let g = grounder
        .ground(&mut db, &move |_, vals| {
            vals.first()
                .and_then(sya_store::Value::as_int)
                .and_then(|id| evidence.get(&id).copied())
        })
        .expect("grounding succeeds");
    g.graph.total_factors()
}

fn bench_grounding(c: &mut Criterion) {
    let mut group = c.benchmark_group("grounding");
    group.sample_size(10);
    for n in [400usize, 1000] {
        let sya = prepare(n, SyaConfig::sya());
        group.bench_with_input(BenchmarkId::new("sya", n), &sya, |b, p| {
            b.iter(|| black_box(ground_once(p)))
        });
        let dd = prepare(n, SyaConfig::deepdive());
        group.bench_with_input(BenchmarkId::new("deepdive", n), &dd, |b, p| {
            b.iter(|| black_box(ground_once(p)))
        });
    }
    // Paper scale (9,831 wells) without spatial factors: what is left is
    // rule evaluation and binding application.
    let paper = prepare(9_831, SyaConfig::deepdive());
    group.bench_with_input(BenchmarkId::new("deepdive", 9_831), &paper, |b, p| {
        b.iter(|| black_box(ground_once(p)))
    });
    // Step-function blow-up (Fig. 10b): grounding cost vs band count.
    for bands in [10usize, 50] {
        let step = prepare(300, SyaConfig::deepdive_stepfn(bands));
        group.bench_with_input(
            BenchmarkId::new("stepfn_bands", bands),
            &step,
            |b, p| b.iter(|| black_box(ground_once(p))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_grounding);
criterion_main!(benches);
