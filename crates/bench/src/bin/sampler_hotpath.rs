//! `sampler_hotpath`: the sampler hot-path baseline behind
//! `BENCH_sampler.json`.
//!
//! Builds synthetic spatial grid graphs at three sizes and sweeps the
//! three samplers (sequential Gibbs, parallel-random Gibbs, Spatial
//! Gibbs) over each, with the `sya-obs` hot-path profiler armed. Each
//! run records wall time, total samples drawn (delta-energy evaluations
//! counted at the innermost hook), samples/sec, mean ns per
//! delta-energy evaluation, and allocator traffic — the baseline the
//! ROADMAP "10× sampler throughput" item is judged against.
//!
//! Usage: `sampler_hotpath [out.json] [epochs]`
//! (defaults: `BENCH_sampler.json` in the current directory, 200
//! epochs).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sya_fg::{FactorGraph, SpatialFactor, Variable};
use sya_geom::Point;
use sya_infer::{
    sequential_gibbs_with, spatial_gibbs_with, InferConfig,
    PyramidIndex,
};
use sya_obs::profile::{self, Site};
use sya_runtime::ExecContext;

/// Grid side lengths swept; a side of `n` grounds `n*n` variables.
const GRID_SIDES: [usize; 3] = [16, 24, 32];
const SEED: u64 = 7;
const BURN_IN: usize = 20;
/// Parallel chains for the parallel-random sampler.
const CHAINS: usize = 4;

/// Wraps the system allocator with relaxed counters so each run can
/// report its allocation traffic — the hot path should not allocate,
/// and this is the number that catches it when it does.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args.first().cloned().unwrap_or_else(|| "BENCH_sampler.json".to_owned());
    let epochs: usize = match args.get(1).map(|s| s.parse()) {
        None => 200,
        Some(Ok(n)) => n,
        Some(Err(e)) => {
            eprintln!("sampler_hotpath: bad epochs argument: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = run(&out_path, epochs) {
        eprintln!("sampler_hotpath: {e}");
        std::process::exit(1);
    }
}

/// A spatial grid graph (4-neighbour spatial factors, one evidence
/// corner) — the same synthetic workload the sampler correctness tests
/// use, scaled up.
fn grid_graph(n: usize) -> FactorGraph {
    let mut g = FactorGraph::new();
    let mut ids = Vec::new();
    for r in 0..n {
        for c in 0..n {
            let p = Point::new(c as f64 + 0.5, r as f64 + 0.5);
            let mut v = Variable::binary(0, format!("v{r}_{c}")).at(p);
            if r == 0 && c == 0 {
                v.evidence = Some(1);
            }
            ids.push(g.add_variable(v));
        }
    }
    for r in 0..n {
        for c in 0..n {
            if c + 1 < n {
                g.add_spatial_factor(SpatialFactor::binary(ids[r * n + c], ids[r * n + c + 1], 0.8));
            }
            if r + 1 < n {
                g.add_spatial_factor(SpatialFactor::binary(ids[r * n + c], ids[(r + 1) * n + c], 0.8));
            }
        }
    }
    g
}

/// One measured `(sampler, grid)` cell of the report.
struct RunRow {
    sampler: &'static str,
    grid: usize,
    variables: usize,
    wall_seconds: f64,
    samples_total: u64,
    samples_per_sec: f64,
    ns_per_delta_energy: f64,
    allocations: u64,
    alloc_bytes: u64,
}

/// Runs `f` with the profiler and allocator counters zeroed, and turns
/// what they observed into a report row. Samples are counted at the
/// delta-energy hook: every sampler draws exactly one conditional per
/// sample, so the profiler's op count is the true cross-sampler total.
fn measure(sampler: &'static str, grid: usize, variables: usize, f: impl FnOnce()) -> RunRow {
    profile::reset();
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    f();
    let wall = t0.elapsed().as_secs_f64();
    let allocations = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;
    let delta = profile::snapshot()
        .into_iter()
        .find(|s| matches!(s.site, Site::DeltaEnergy))
        .expect("delta-energy site exists");
    RunRow {
        sampler,
        grid,
        variables,
        wall_seconds: wall,
        samples_total: delta.ops,
        samples_per_sec: if wall > 0.0 { delta.ops as f64 / wall } else { 0.0 },
        ns_per_delta_energy: delta.ns_per_op(),
        allocations,
        alloc_bytes,
    }
}

fn run(out: &str, epochs: usize) -> Result<(), String> {
    profile::set_enabled(true);
    let ctx = ExecContext::unbounded();
    let mut rows = Vec::new();
    for &side in &GRID_SIDES {
        let graph = grid_graph(side);
        let nvars = graph.num_variables();
        eprintln!("grid {side}x{side}: {nvars} variables, {} spatial factors", graph.num_spatial_factors());

        rows.push(measure("sequential", side, nvars, || {
            let run = sequential_gibbs_with(&graph, epochs, BURN_IN, SEED, &ctx);
            assert!(run.outcome.is_completed(), "sequential run did not complete");
        }));
        rows.push(measure("parallel_random", side, nvars, || {
            let run = sya_bench::parallel_random_gibbs(&graph, epochs, BURN_IN, CHAINS, SEED);
            assert!(run.outcome.is_completed(), "parallel-random run did not complete");
        }));
        let cfg = InferConfig { epochs, burn_in: BURN_IN, seed: SEED, ..InferConfig::default() };
        let pyramid = PyramidIndex::build(&graph, cfg.levels, cfg.cell_capacity);
        rows.push(measure("spatial", side, nvars, || {
            let run = spatial_gibbs_with(&graph, &pyramid, &cfg, &ctx)
                .expect("spatial gibbs runs");
            assert!(run.outcome.is_completed(), "spatial run did not complete");
        }));

        for row in rows.iter().rev().take(3).collect::<Vec<_>>().into_iter().rev() {
            eprintln!(
                "  {:<16} {:>12.0} samples/s, {:>8.1} ns/delta-energy, {} allocs",
                row.sampler, row.samples_per_sec, row.ns_per_delta_energy, row.allocations
            );
        }
    }

    for row in &rows {
        if row.samples_total == 0 {
            return Err(format!(
                "{} drew no samples on the {}x{} grid — profiler hook missing?",
                row.sampler, row.grid, row.grid
            ));
        }
    }

    let text = render_report(epochs, &rows);
    std::fs::write(out, &text).map_err(|e| format!("cannot write {out:?}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn render_report(epochs: usize, rows: &[RunRow]) -> String {
    let sides: Vec<String> = GRID_SIDES.iter().map(|s| s.to_string()).collect();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"sampler\": \"{}\",\n      \"grid\": {},\n      \
                 \"variables\": {},\n      \"wall_seconds\": {:.6},\n      \
                 \"samples_total\": {},\n      \"samples_per_sec\": {:.3},\n      \
                 \"ns_per_delta_energy\": {:.3},\n      \"allocations\": {},\n      \
                 \"alloc_bytes\": {}\n    }}",
                r.sampler,
                r.grid,
                r.variables,
                r.wall_seconds,
                r.samples_total,
                r.samples_per_sec,
                r.ns_per_delta_energy,
                r.allocations,
                r.alloc_bytes
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"sya.bench.sampler.v1\",\n  \"epochs\": {},\n  \
         \"burn_in\": {},\n  \"seed\": {},\n  \"chains\": {},\n  \
         \"grid_sides\": [{}],\n  \"runs\": [\n{}\n  ]\n}}\n",
        epochs,
        BURN_IN,
        SEED,
        CHAINS,
        sides.join(", "),
        body.join(",\n")
    )
}
