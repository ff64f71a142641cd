//! The pupil-grid SOCS path against the full-grid path it replaced.
//!
//! The simulator runs each kernel's transforms on an `S × S` pupil grid
//! and resamples the intensity and dL/dI between it and the `N × N` mask
//! grid. The oracle here is the full-grid path, kept only in this file:
//! every kernel's field, each focus's dose-free intensity and every
//! adjoint inverse on the mask grid, `4K + 2` transforms of `N²` per
//! loss-and-gradient call, with each corner's dose applied on the mask
//! grid and the same resist kernel as the simulator.
//!
//! Below `S = N` the two must agree to 1e-13 relative on the loss, the
//! three corner images and the gradient, over grid and tile sizes, kernel
//! counts and loss weights, on full-band random masks. At
//! `S = N` nothing is resampled and every output must match bit for bit.

use cfaopc_fft::simd::{accumulate_norm_sqr, conj_mul_real, resist_corner, GradOut, ResistCorner};
use cfaopc_fft::{Complex, Fft2d, Rfft2d};
use cfaopc_grid::Grid2D;
use cfaopc_litho::{
    loss_and_gradient, loss_and_gradient_into, loss_only, LithoConfig, LithoSimulator, LossValues,
    LossWeights, ProcessCorner, RESIST_STEEPNESS,
};

const TOL: f64 = 1e-13;

/// Loss weights the cases draw from: both terms, each alone, and a
/// fractional process-variation weight.
const BOTH: LossWeights = LossWeights { l2: 1.0, pvb: 1.0 };
const L2_ONLY: LossWeights = LossWeights { l2: 1.0, pvb: 0.0 };
const PVB_ONLY: LossWeights = LossWeights { l2: 0.0, pvb: 1.0 };
const HALF_PVB: LossWeights = LossWeights { l2: 1.0, pvb: 0.5 };
const ALL_WEIGHTS: [LossWeights; 4] = [BOTH, L2_ONLY, PVB_ONLY, HALF_PVB];

/// Deterministic uniform `[0, 1)` values (xorshift64*).
fn uniform(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// A full-band random mask (every frequency bin populated) and a binary
/// target with both phases present.
fn mask_and_target(n: usize, seed: u64) -> (Grid2D<f64>, Grid2D<f64>) {
    let mask = Grid2D::from_vec(n, n, uniform(seed, n * n));
    let target = (0..n * n)
        .map(|i| {
            let (x, y) = (i % n, i / n);
            f64::from(u8::from(
                x > n / 4 && x < 3 * n / 4 && y > n / 3 && y < 2 * n / 3,
            ))
        })
        .collect();
    (mask, Grid2D::from_vec(n, n, target))
}

fn simulator(size: usize, tile_nm: f64, kernel_count: usize) -> LithoSimulator {
    LithoSimulator::new(LithoConfig {
        size,
        tile_nm,
        kernel_count,
        ..LithoConfig::default()
    })
    .unwrap()
}

/// The full-grid forward pass: mask spectrum, then each distinct stack's
/// mask-grid fields and dose-free intensity.
struct FullGrid {
    /// `fields[0]` the in-focus stack's, `fields[1]` the defocused one's.
    fields: [Vec<Vec<Complex>>; 2],
    /// `J_d = Σ_k μ_k |A_k|²` of each stack, in the same order.
    intensities: [Vec<f64>; 2],
}

impl FullGrid {
    /// Corner `c`'s aerial image: its dose times its stack's intensity.
    fn image(&self, sim: &LithoSimulator, c: usize) -> Vec<f64> {
        let dose = sim.config().dose(ProcessCorner::ALL[c]);
        self.intensities[STACK[c]]
            .iter()
            .map(|&j| dose * j)
            .collect()
    }
}

/// Distinct stack of each corner in `ProcessCorner::ALL` order: Nominal
/// and Max share the in-focus one.
const STACK: [usize; 3] = [0, 0, 1];

fn full_grid_forward(sim: &LithoSimulator, mask: &Grid2D<f64>) -> FullGrid {
    let n = sim.size();
    let mut spectrum = vec![Complex::ZERO; n * n];
    Rfft2d::square(n)
        .unwrap()
        .forward_into(mask.as_slice(), &mut spectrum)
        .unwrap();
    let plan = Fft2d::square(n).unwrap();
    let fields = [ProcessCorner::Nominal, ProcessCorner::Min].map(|corner| {
        sim.kernel_set(corner)
            .kernels()
            .iter()
            .map(|kernel| {
                let mut field = vec![Complex::ZERO; n * n];
                for &(idx, h) in &kernel.spectrum {
                    field[idx as usize] = h * spectrum[idx as usize];
                }
                plan.inverse_sparse(&mut field).unwrap();
                field
            })
            .collect::<Vec<_>>()
    });
    let intensities = [0, 1].map(|d| {
        let corner = [ProcessCorner::Nominal, ProcessCorner::Min][d];
        let mut intensity = vec![0.0; n * n];
        for (kernel, field) in sim.kernel_set(corner).kernels().iter().zip(&fields[d]) {
            accumulate_norm_sqr(&mut intensity, field, kernel.weight);
        }
        intensity
    });
    FullGrid {
        fields,
        intensities,
    }
}

/// The full-grid loss and adjoint, with the corners of a stack folded
/// onto its first weighted corner before the per-kernel inverses.
fn full_grid_loss_and_gradient(
    sim: &LithoSimulator,
    forward: &FullGrid,
    target: &Grid2D<f64>,
    weights: LossWeights,
) -> (LossValues, Vec<f64>) {
    let n = sim.size();
    let cfg = sim.config();
    let corner_weights = [weights.l2, weights.pvb, weights.pvb];
    let mut values = LossValues::default();
    let mut folded: [Option<(f64, Vec<f64>)>; 2] = [None, None];
    for (c, &corner) in ProcessCorner::ALL.iter().enumerate() {
        let w_c = corner_weights[c];
        let dose = cfg.dose(corner);
        let resist = ResistCorner {
            steepness: RESIST_STEEPNESS,
            threshold: cfg.threshold,
            dose,
            weight: w_c,
        };
        let mut g_i = vec![0.0; n * n];
        let corner_loss = resist_corner(
            &forward.intensities[STACK[c]],
            target.as_slice(),
            &resist,
            GradOut::Write(&mut g_i),
        );
        match corner {
            ProcessCorner::Nominal => values.l2 = corner_loss,
            _ => values.pvb += corner_loss,
        }
        if w_c == 0.0 {
            continue;
        }
        match &mut folded[STACK[c]] {
            Some((dose_1, g_1)) => {
                let ratio = dose / *dose_1;
                for (a, &b) in g_1.iter_mut().zip(&g_i) {
                    *a += ratio * b;
                }
            }
            None => folded[STACK[c]] = Some((dose, g_i)),
        }
    }
    values.total = weights.l2 * values.l2 + weights.pvb * values.pvb;

    let plan = Fft2d::square(n).unwrap();
    let mut acc = vec![Complex::ZERO; n * n];
    for (d, entry) in folded.iter().enumerate() {
        let Some((dose, g)) = entry else { continue };
        let set = sim.kernel_set([ProcessCorner::Nominal, ProcessCorner::Min][d]);
        for (kernel, field) in set.kernels().iter().zip(&forward.fields[d]) {
            let mut b = vec![Complex::ZERO; n * n];
            conj_mul_real(&mut b, field, g);
            plan.inverse(&mut b).unwrap();
            let scale = 2.0 * kernel.weight * dose;
            for &(idx, h) in &kernel.spectrum {
                acc[idx as usize] += h * b[idx as usize] * scale;
            }
        }
    }
    let mut grad = vec![0.0; n * n];
    Rfft2d::square(n)
        .unwrap()
        .forward_re_into(&acc, &mut grad)
        .unwrap();
    (values, grad)
}

/// Largest entrywise difference, relative to the reference's largest
/// magnitude.
fn relative_gap(got: &[f64], want: &[f64]) -> f64 {
    let peak = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let gap = got
        .iter()
        .zip(want)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    gap / peak.max(f64::MIN_POSITIVE)
}

fn same_bits(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

fn loss_terms(v: &LossValues) -> [f64; 3] {
    [v.l2, v.pvb, v.total]
}

/// Runs one configuration under each of `weights` and compares every
/// output with the full-grid oracle: bit for bit when `exact`, else to
/// [`TOL`] relative.
fn check(size: usize, tile_nm: f64, kernels: usize, weights: &[LossWeights]) {
    let sim = simulator(size, tile_nm, kernels);
    let exact = sim.pupil_size() == size;
    let label = format!(
        "{size} px, {tile_nm} nm, K = {kernels}, S = {}",
        sim.pupil_size()
    );
    let (mask, target) = mask_and_target(size, size as u64 ^ kernels as u64);
    let oracle = full_grid_forward(&sim, &mask);

    let images = sim.aerial_corners(&mask).unwrap();
    for (c, corner) in ProcessCorner::ALL.into_iter().enumerate() {
        let (got, want) = (images.get(corner).as_slice(), &oracle.image(&sim, c));
        if exact {
            assert!(same_bits(got, want), "{label}: {corner:?} image moved");
        } else {
            let gap = relative_gap(got, want);
            assert!(gap <= TOL, "{label}: {corner:?} image off by {gap:e}");
        }
    }

    for &w in weights {
        let (values, grad) = loss_and_gradient(&sim, &mask, &target, w).unwrap();
        let (want_values, want_grad) = full_grid_loss_and_gradient(&sim, &oracle, &target, w);
        for (got, want) in loss_terms(&values)
            .into_iter()
            .zip(loss_terms(&want_values))
        {
            if exact {
                assert_eq!(got.to_bits(), want.to_bits(), "{label}, {w:?}: loss moved");
            } else {
                let gap = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
                assert!(
                    gap <= TOL || got == want,
                    "{label}, {w:?}: loss {got} vs {want}"
                );
            }
        }
        assert!(
            want_grad.iter().any(|&g| g != 0.0) || (w.l2 == 0.0 && w.pvb == 0.0),
            "{label}, {w:?}: the oracle gradient is all zero"
        );
        if exact {
            assert!(
                same_bits(grad.as_slice(), &want_grad),
                "{label}, {w:?}: gradient moved"
            );
        } else {
            let gap = relative_gap(grad.as_slice(), &want_grad);
            assert!(gap <= TOL, "{label}, {w:?}: gradient off by {gap:e}");
        }
    }
}

#[test]
fn pupil_grid_matches_the_full_grid_on_2048_nm_tiles() {
    // L = 28, so S = 64 at every N >= 64.
    check(128, 2048.0, 24, &ALL_WEIGHTS);
    check(128, 2048.0, 4, &ALL_WEIGHTS);
    check(256, 2048.0, 6, &[BOTH, PVB_ONLY]);
    check(512, 2048.0, 4, &[HALF_PVB]);
}

#[test]
fn pupil_grid_matches_the_full_grid_on_4096_nm_tiles() {
    // L = 57, so S = 128.
    check(256, 4096.0, 6, &[HALF_PVB, L2_ONLY]);
    check(512, 4096.0, 4, &[BOTH]);
}

#[test]
fn full_size_pupil_grid_is_bit_identical_to_the_full_grid() {
    // S = N: 64 px on a 2048 nm tile, 128 px on a 4096 nm one, and 64 px
    // on a 4096 nm tile, whose pupil the grid clips at Nyquist.
    check(64, 2048.0, 6, &ALL_WEIGHTS);
    check(128, 4096.0, 24, &[HALF_PVB, PVB_ONLY]);
    check(64, 4096.0, 4, &[BOTH, L2_ONLY]);
}

#[test]
fn the_cases_cover_both_sides_of_s_equals_n() {
    for (size, tile_nm, resampled) in [
        (64, 2048.0, false),
        (128, 2048.0, true),
        (256, 2048.0, true),
        (512, 2048.0, true),
        (64, 4096.0, false),
        (128, 4096.0, false),
        (256, 4096.0, true),
        (512, 4096.0, true),
    ] {
        let sim = simulator(size, tile_nm, 4);
        assert_eq!(
            sim.pupil_size() < size,
            resampled,
            "{size} px on {tile_nm} nm: S = {}",
            sim.pupil_size()
        );
    }
}

#[test]
fn loss_only_and_loss_and_gradient_agree_bit_for_bit_below_s_equals_n() {
    let sim = simulator(256, 2048.0, 6);
    assert!(sim.pupil_size() < sim.size());
    let (mask, target) = mask_and_target(256, 7);
    let mut grad = Grid2D::new(256, 256, 0.0);
    for w in ALL_WEIGHTS {
        let with_grad = loss_and_gradient_into(&sim, &mask, &target, w, &mut grad).unwrap();
        let alone = loss_only(&sim, &mask, &target, w).unwrap();
        assert_eq!(
            loss_terms(&with_grad).map(f64::to_bits),
            loss_terms(&alone).map(f64::to_bits),
            "{w:?}"
        );
    }
}
