//! Criterion micro-benchmarks: the per-component costs behind Table 5's
//! efficiency numbers — online estimation latency per method, encoder
//! forward passes, routing, map matching and random-walk generation.
//!
//! Run with `cargo bench -p deepod-bench`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use deepod_baselines::{
    GbmConfig, GbmPredictor, LinearRegression, TempConfig, TempPredictor, TtePredictor,
};
use deepod_core::{DeepOdConfig, EmbeddingInit, TrainOptions, Trainer};
use deepod_graphembed::{DeepWalk, EmbedGraph, GraphEmbedder};
use deepod_roadnet::{dijkstra_shortest_path, CityConfig, CityProfile, NodeId, SpatialGrid};
use deepod_traj::{
    sample_gps, DatasetBuilder, DatasetConfig, GpsNoise, HmmMapMatcher, MapMatchConfig,
};
use std::hint::black_box;

fn small_dataset() -> deepod_traj::CityDataset {
    DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 400))
}

fn small_config() -> DeepOdConfig {
    DeepOdConfig {
        epochs: 1,
        batch_size: 16,
        init: EmbeddingInit::Random,
        ..DeepOdConfig::default()
    }
}

/// Online estimation latency (Table 5's "estimation time" column).
fn bench_estimation(c: &mut Criterion) {
    let ds = small_dataset();
    let mut group = c.benchmark_group("estimation_latency");

    let mut trainer = Trainer::new(&ds, small_config(), TrainOptions::default()).expect("trainer");
    trainer.train();
    let od = ds.test.first().unwrap_or(&ds.train[0]).od;
    group.bench_function("deepod", |b| {
        b.iter(|| black_box(trainer.predict_od(black_box(&od))));
    });

    let mut temp = TempPredictor::new(TempConfig::default());
    temp.fit(&ds);
    group.bench_function("temp", |b| {
        b.iter(|| black_box(temp.predict(black_box(&od))));
    });

    let mut lr = LinearRegression::new(1e-3);
    lr.fit(&ds);
    group.bench_function("linear_regression", |b| {
        b.iter(|| black_box(lr.predict(black_box(&od))));
    });

    let mut gbm = GbmPredictor::new(GbmConfig {
        num_trees: 30,
        ..Default::default()
    });
    gbm.fit(&ds);
    group.bench_function("gbm", |b| {
        b.iter(|| black_box(gbm.predict(black_box(&od))));
    });

    group.finish();
}

/// One training step (forward + backward + Adam) per sample.
fn bench_training_step(c: &mut Criterion) {
    let ds = small_dataset();
    let mut trainer = Trainer::new(&ds, small_config(), TrainOptions::default()).expect("trainer");
    let sample = trainer.train_samples()[0].clone();
    c.bench_function("deepod_sample_gradients", |b| {
        b.iter(|| black_box(trainer.model().sample_gradients(black_box(&sample))));
    });
}

/// Routing throughput on the Chengdu-sized network.
fn bench_routing(c: &mut Criterion) {
    let net = CityConfig::profile(CityProfile::SynthChengdu).generate();
    let n = net.num_nodes() as u32;
    let mut i = 0u32;
    c.bench_function("dijkstra_cross_town", |b| {
        b.iter(|| {
            i = (i + 7) % n;
            let from = NodeId(i);
            let to = NodeId((i + n / 2) % n);
            black_box(dijkstra_shortest_path(&net, from, to, |e| {
                net.edge(e).length
            }))
        });
    });
}

/// Map matching throughput (points per second backing the fleet example).
fn bench_map_matching(c: &mut Criterion) {
    let ds = small_dataset();
    let grid = SpatialGrid::build(&ds.net, 250.0);
    let matcher = HmmMapMatcher::new(&ds.net, &grid, MapMatchConfig::default());
    let mut rng = deepod_tensor::rng_from_seed(0xBE);
    let raw = sample_gps(
        &ds.net,
        &ds.train[0].trajectory,
        3.0,
        GpsNoise { sigma: 6.0 },
        &mut rng,
    );
    c.bench_function("hmm_map_match_one_trip", |b| {
        b.iter(|| black_box(matcher.match_trajectory(black_box(&raw))));
    });
}

/// Dense-kernel and training-throughput benches (`BENCH_kernels.json`):
/// the blocked matmul at the three module-characteristic shapes, the
/// scalar-reference vs production dispatch path, the small-matmul fork
/// crossover, the packed/SIMD kernels, and a full training epoch at one
/// worker vs the configured count. Run with
/// `DEEPOD_BENCH_JSON=BENCH_kernels.json cargo bench -p deepod-bench -- kernels`.
fn bench_kernels(c: &mut Criterion) {
    use deepod_tensor::{kernels, Tensor};
    let mut group = c.benchmark_group("kernels");

    // (label, m, k, n) — m×k · k×n at the sizes dominating each module's
    // forward pass: M_O the OD head, M_T the trajectory encoder, M_E the
    // external-factor encoder (tuned dims, batch-of-rows on the left).
    let shapes = [
        ("matmul_MO_64x96x64", 64, 96, 64),
        ("matmul_MT_128x64x64", 128, 64, 64),
        ("matmul_ME_32x48x32", 32, 48, 32),
    ];
    let mut rng = deepod_tensor::rng_from_seed(0xD0D);
    for (label, m, k, n) in shapes {
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b_mat = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        group.bench_function(label, |b| {
            b.iter(|| black_box(black_box(&a).matmul(black_box(&b_mat))));
        });
    }

    // Reference vs production path at 256³. `serial` is the scalar blocked
    // kernel (the pre-SIMD baseline and the T = 1 bit-identity reference);
    // `parallel` is the default dispatch — packed SIMD micro-kernels plus
    // the re-tuned row split, which clamps default fan-out to the machine
    // so a single-core host no longer pays fork overhead to lose.
    let big_a = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let big_b = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    group.bench_function("matmul_256_serial", |b| {
        b.iter_batched(
            || vec![0.0f32; 256 * 256],
            |mut out| {
                kernels::matmul_ref(big_a.as_slice(), big_b.as_slice(), &mut out, 256, 256);
                black_box(out)
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("matmul_256_parallel", |b| {
        b.iter(|| black_box(black_box(&big_a).matmul_with_threads(black_box(&big_b), 0)));
    });

    // Fork crossover: a 64³ product (0.5 MFLOP) sits far below
    // PAR_MIN_FLOPS, so the size floor refuses to fan out even when the
    // caller asks for 8 workers — both entries take the serial kernel and
    // must time the same, which is the regression being pinned (before the
    // floor, a forked 64³ paid span-spawn overhead for nothing).
    let small_a = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
    let small_b = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
    group.bench_function("matmul_crossover_64_t1", |b| {
        b.iter(|| black_box(black_box(&small_a).matmul_with_threads(black_box(&small_b), 1)));
    });
    group.bench_function("matmul_crossover_64_t8", |b| {
        b.iter(|| black_box(black_box(&small_a).matmul_with_threads(black_box(&small_b), 8)));
    });
    group.finish();

    // The packed/SIMD kernel layer against the scalar reference, at the
    // matmul shape above and the serving matvec shape (one Mlp2 layer).
    let mut group = c.benchmark_group("kernels_simd");
    group.bench_function("matmul_256_simd", |b| {
        b.iter_batched(
            || vec![0.0f32; 256 * 256],
            |mut out| {
                kernels::matmul(big_a.as_slice(), big_b.as_slice(), &mut out, 256, 256);
                black_box(out)
            },
            BatchSize::SmallInput,
        );
    });
    let w = Tensor::rand_uniform(&[512, 512], -1.0, 1.0, &mut rng);
    let x = Tensor::rand_uniform(&[512], -1.0, 1.0, &mut rng);
    let bias = Tensor::rand_uniform(&[512], -1.0, 1.0, &mut rng);
    for (label, simd) in [("matvec_512_scalar_ref", false), ("matvec_512_simd", true)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || vec![0.0f32; 512],
                |mut out| {
                    let f = if simd {
                        kernels::matvec_bias_act
                    } else {
                        kernels::matvec_ref
                    };
                    f(
                        w.as_slice(),
                        x.as_slice(),
                        bias.as_slice(),
                        deepod_tensor::Activation::Relu,
                        &mut out,
                    );
                    black_box(out)
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();

    // One full training epoch, serial vs configured thread count (the
    // headline data-parallel number; on a single-core host both paths
    // measure the same work plus fan-out overhead).
    let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 150));
    let mut group = c.benchmark_group("kernels_train");
    // At least two workers, so the fork path is measured even on a
    // single-core host (where it reports pure fan-out overhead).
    let threads = deepod_bench::threads().max(2);
    for (label, t) in [("train_epoch_serial", 1), ("train_epoch_parallel", threads)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let opts = TrainOptions {
                        threads: t,
                        ..Default::default()
                    };
                    Trainer::new(&ds, small_config(), opts).expect("trainer")
                },
                |mut trainer| black_box(trainer.train()),
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// DeepWalk embedding of a temporal-graph-sized ring.
fn bench_graph_embedding(c: &mut Criterion) {
    let mut g = EmbedGraph::with_nodes(288);
    for i in 0..288 {
        g.add_link(i, (i + 1) % 288, 1.0);
        g.add_link((i + 1) % 288, i, 1.0);
    }
    c.bench_function("deepwalk_day_graph_16d", |b| {
        b.iter_batched(
            || deepod_tensor::rng_from_seed(1),
            |mut rng| black_box(DeepWalk::default().embed(&g, 16, &mut rng)),
            BatchSize::PerIteration,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_estimation, bench_training_step, bench_routing, bench_map_matching, bench_graph_embedding, bench_kernels
}
criterion_main!(benches);
