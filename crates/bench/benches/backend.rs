//! Criterion bench: backend comparison. One 64-lane batch on the
//! bit-sliced systolic simulation vs the radix-2⁶⁴ CIOS scan vs the
//! radix-2⁵² carry-save scan (one benchmark id per kernel this host
//! supports) at the paper's large widths — the measurement behind the
//! backend-dispatch default (`Throughput::Elements(64)` reports all in
//! elem/s).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmm_bigint::Ubig;
use mmm_core::batch::MAX_LANES;
use mmm_core::cios52::Cios52Kernel;
use mmm_core::engine::{AnyBatchEngine, EngineKind};
use mmm_core::modgen::{random_operand, random_safe_params};
use mmm_core::traits::BatchMontMul;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_backend(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("backend");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for l in [256usize, 512, 1024] {
        let params = random_safe_params(&mut rng, l);
        let xs: Vec<Ubig> = (0..MAX_LANES)
            .map(|_| random_operand(&mut rng, &params))
            .collect();
        let ys: Vec<Ubig> = (0..MAX_LANES)
            .map(|_| random_operand(&mut rng, &params))
            .collect();
        group.throughput(Throughput::Elements(MAX_LANES as u64));

        let mut bits = EngineKind::BitSliced.build(params.clone());
        let mut cios = EngineKind::Cios.build(params.clone());
        assert_eq!(
            bits.mont_mul_batch(&xs, &ys),
            cios.mont_mul_batch(&xs, &ys),
            "backends must be bit-identical before timing (l={l})"
        );

        group.bench_with_input(BenchmarkId::new("bit_sliced_batch_64", l), &l, |b, _| {
            b.iter(|| black_box(bits.mont_mul_batch(black_box(&xs), black_box(&ys))))
        });
        group.bench_with_input(BenchmarkId::new("cios_radix64_batch_64", l), &l, |b, _| {
            b.iter(|| black_box(cios.mont_mul_batch(black_box(&xs), black_box(&ys))))
        });
        for &kernel in Cios52Kernel::available() {
            let mut c52 = AnyBatchEngine::with_cios52_kernel(params.clone(), kernel);
            assert_eq!(
                bits.mont_mul_batch(&xs, &ys),
                c52.mont_mul_batch(&xs, &ys),
                "cios52/{} must be bit-identical before timing (l={l})",
                kernel.name()
            );
            group.bench_with_input(
                BenchmarkId::new(format!("cios52_{}_batch_64", kernel.name()), l),
                &l,
                |b, _| b.iter(|| black_box(c52.mont_mul_batch(black_box(&xs), black_box(&ys)))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_backend);
criterion_main!(benches);
