//! Microbenchmarks of every pipeline stage, sized at the default
//! experiment resolution (256²). Run with `cargo bench -p cfaopc-bench`.
//!
//! Hand-rolled harness (`harness = false`, no external benchmark
//! dependency): every case runs under `cfaopc_bench::snapshot`'s policy
//! (warm-up, 7 samples, topped up to 15 below 20 ms) and is summarized
//! as min / median / mean wall time. The full summary is also written as
//! a JSON perf snapshot (default `BENCH_components.json`, override with
//! `CFAOPC_BENCH_OUT`) so CI can archive it as an artifact and successive
//! runs can be diffed.
//!
//! The snapshot records the worker-pool configuration
//! (`worker_count`, `pool_threads`) and the process thread count
//! before and after the steady-state aerial-image loop, making the
//! "zero new threads per call" property of the persistent pool
//! observable from the artifact alone.

use cfaopc_bench::snapshot::{run_case, write_snapshot};
use cfaopc_core::{compose, compose_soft, ComposeConfig, SparseCircles};
use cfaopc_ebeam::{EbeamPsf, WriterModel};
use cfaopc_fft::parallel::{pool_thread_count, worker_count};
use cfaopc_fft::simd::{resist_corner, GradOut, ResistCorner};
use cfaopc_fft::{Complex, Fft2d, Rfft2d};
use cfaopc_fracture::{circle_rule, rect_fracture, CircleRuleConfig};
use cfaopc_grid::{skeletonize, Grid2D};
use cfaopc_ilt::{run_engine, IltEngine};
use cfaopc_layouts::benchmark_case;
use cfaopc_litho::{
    loss_and_gradient, LithoConfig, LithoSimulator, LossWeights, ProcessCorner, RESIST_STEEPNESS,
};
use cfaopc_trace::json::Json;
use std::hint::black_box;

const N: usize = 256;

/// Current thread count of this process, from `/proc/self/status`
/// (Linux only; `None` elsewhere).
fn process_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn sim() -> LithoSimulator {
    LithoSimulator::new(LithoConfig {
        size: N,
        kernel_count: 8,
        ..LithoConfig::default()
    })
    .unwrap()
}

fn main() {
    let mut results = Vec::new();
    println!(
        "cfaopc component benchmarks: {N}x{N} grid, {} workers ({} pool threads)\n",
        worker_count(),
        pool_thread_count(),
    );

    // FFT.
    let plan = Fft2d::square(N).unwrap();
    let base: Vec<Complex> = (0..N * N)
        .map(|i| Complex::from_re((i % 7) as f64))
        .collect();
    results.push(run_case("fft2d_forward_256", || {
        let mut buf = base.clone();
        plan.forward(&mut buf).unwrap();
        black_box(buf[0]);
    }));

    // Real-input FFT (the mask-spectrum path).
    let rplan = Rfft2d::square(N).unwrap();
    let real_base: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64).collect();
    let mut rfft_out = vec![Complex::ZERO; N * N];
    results.push(run_case("rfft2d_forward_256", || {
        rplan.forward_into(&real_base, &mut rfft_out).unwrap();
        black_box(rfft_out[0]);
    }));
    let rplan512 = Rfft2d::square(2 * N).unwrap();
    let real_base512: Vec<f64> = (0..4 * N * N).map(|i| (i % 7) as f64).collect();
    let mut rfft_out512 = vec![Complex::ZERO; 4 * N * N];
    results.push(run_case("rfft2d_forward_512", || {
        rplan512
            .forward_into(&real_base512, &mut rfft_out512)
            .unwrap();
        black_box(rfft_out512[0]);
    }));
    drop((rfft_out, rfft_out512, real_base512));

    // The chip's per-kernel transform: a 4096 nm window at 128 px has a
    // 128² pupil grid (S = N), so each kernel's field `H_k ⊙ F` is
    // inverted on the full grid by the row-skipping sparse inverse. The
    // field is restored from a copy before each transform.
    {
        let n = N / 2;
        let window = LithoSimulator::new(LithoConfig {
            size: n,
            tile_nm: 4096.0,
            kernel_count: 6,
            ..LithoConfig::default()
        })
        .unwrap();
        let mask = benchmark_case(3).unwrap().rasterize(n).to_real();
        let spectrum = window.mask_spectrum(&mask).unwrap();
        let mut field = vec![Complex::ZERO; n * n];
        for &(idx, h) in &window.kernel_set(ProcessCorner::Nominal).kernels()[0].spectrum {
            field[idx as usize] = h * spectrum[idx as usize];
        }
        let plan = Fft2d::square(n).unwrap();
        let mut buf = field.clone();
        results.push(run_case("fft2d_inverse_sparse_128", || {
            buf.copy_from_slice(&field);
            plan.inverse_sparse(&mut buf).unwrap();
            black_box(buf[0]);
        }));
    }

    // Litho forward model. The warmup iterations also bring the worker
    // pool and buffer pools to steady state, so the thread count taken
    // here must stay flat across the timed loop.
    let s = sim();
    let target = benchmark_case(3).unwrap().rasterize(N);
    let mask = target.to_real();
    let _ = s.aerial_image(&mask, ProcessCorner::Nominal).unwrap();
    let threads_before = process_thread_count();
    results.push(run_case("aerial_image_256_8k", || {
        black_box(s.aerial_image(&mask, ProcessCorner::Nominal).unwrap());
    }));
    let threads_after = process_thread_count();
    if let (Some(before), Some(after)) = (threads_before, threads_after) {
        assert_eq!(
            before, after,
            "steady-state aerial_image must not spawn threads"
        );
    }

    // Litho gradient (three process corners).
    let target_real = target.to_real();
    let grad_mask = Grid2D::new(N, N, 0.4);
    results.push(run_case("loss_and_gradient_256_3corner", || {
        black_box(loss_and_gradient(&s, &grad_mask, &target_real, LossWeights::default()).unwrap());
    }));

    // The resist kernel alone (sigmoid, loss and dL/dI) over case 3's
    // three corner images.
    let images = s.aerial_corners(&mask).unwrap();
    let resist = ResistCorner {
        steepness: RESIST_STEEPNESS,
        threshold: s.config().threshold,
        dose: 1.0,
        weight: 1.0,
    };
    let mut dl_di = vec![0.0; N * N];
    results.push(run_case("resist_256_3corner", || {
        let mut loss = 0.0;
        for image in [&images.nominal, &images.max, &images.min] {
            let (j, t) = (image.as_slice(), target_real.as_slice());
            loss += resist_corner(j, t, &resist, GradOut::Write(&mut dl_di));
        }
        black_box((loss, dl_di[0]));
    }));

    // The same gradient at 512², at 8 kernels and at the paper's 24. The
    // per-kernel transforms run on the 2048 nm tile's 64² pupil grid, so
    // tripling K adds little to the mask-grid work.
    {
        let target512 = benchmark_case(3).unwrap().rasterize(2 * N).to_real();
        let grad_mask512 = Grid2D::new(2 * N, 2 * N, 0.4);
        for (name, kernel_count) in [
            ("loss_and_gradient_512_3corner", 8),
            ("loss_and_gradient_512_24k", 24),
        ] {
            let s512 = LithoSimulator::new(LithoConfig {
                size: 2 * N,
                kernel_count,
                ..LithoConfig::default()
            })
            .unwrap();
            results.push(run_case(name, || {
                black_box(
                    loss_and_gradient(&s512, &grad_mask512, &target512, LossWeights::default())
                        .unwrap(),
                );
            }));
        }
    }

    // Fracturing.
    results.push(run_case("skeletonize_case3_256", || {
        black_box(skeletonize(&target));
    }));
    results.push(run_case("circle_rule_case3_256", || {
        black_box(circle_rule(&target, &CircleRuleConfig::default(), 8.0));
    }));
    // CircleRule on its real input: case 3's MultiILT-like pixel mask at
    // the eval suites' 6 kernels and 8 iterations (128 regions, 72 of
    // which need coverage completion).
    let ilt_sim = LithoSimulator::new(LithoConfig {
        size: N,
        kernel_count: 6,
        ..LithoConfig::default()
    })
    .unwrap();
    let ilt_mask = run_engine(&ilt_sim, &target, IltEngine::MultiIltLike, 8)
        .unwrap()
        .mask_binary;
    drop(ilt_sim);
    results.push(run_case("circle_rule_ilt_case3_256", || {
        black_box(circle_rule(&ilt_mask, &CircleRuleConfig::default(), 8.0));
    }));
    results.push(run_case("rect_fracture_case3_256", || {
        black_box(rect_fracture(&target));
    }));

    // E-beam write.
    let circles = circle_rule(&target, &CircleRuleConfig::default(), 8.0);
    let writer = WriterModel::new(N, 8.0, EbeamPsf::default()).unwrap();
    let shots = WriterModel::dose_circles(&circles);
    results.push(run_case("ebeam_write_case3_256", || {
        black_box(writer.write(&shots));
    }));

    // Differentiable composition.
    let sparse = SparseCircles::from_circular_mask(&circles);
    let cfg = ComposeConfig::new(N, 2, 10);
    let grad = Grid2D::new(N, N, 0.01);
    results.push(run_case("compose_case3_256", || {
        black_box(compose(&sparse, &cfg));
    }));
    let composite = compose(&sparse, &cfg);
    results.push(run_case("compose_backward_case3_256", || {
        black_box(composite.backward(&grad));
    }));
    results.push(run_case("compose_soft_case3_256", || {
        black_box(compose_soft(&sparse, &cfg, 20.0));
    }));

    let threads = |t: Option<usize>| t.map_or(Json::Null, Json::int);
    write_snapshot(
        "CFAOPC_BENCH_OUT",
        "BENCH_components.json",
        vec![
            ("grid_size", Json::int(N)),
            ("threads_before_steady_state", threads(threads_before)),
            ("threads_after_steady_state", threads(threads_after)),
        ],
        &results,
    );
}
