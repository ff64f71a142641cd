//! The band-packed mask-grid layout against the full row-major one.
//!
//! Every mask-grid spectrum the simulator keeps — the mask spectrum and
//! the gradient's spectral accumulator — holds only the `m = min(2R + 1,
//! N)` columns with `|f| ≤ R`, where `R` is the largest `|frequency|` of
//! any kernel bin. The public `mask_spectrum` / `aerial_from_spectrum`
//! pair still speaks the full layout, and the oracle here is the
//! full-layout loss-and-gradient path the packed one replaced, kept only
//! in this file: the mask spectrum of `Rfft2d::forward_into`, every
//! kernel's pupil-grid field read from it by row-major index, and the
//! adjoint's values added into a zeroed `N × N` accumulator in the
//! simulator's order before the final `Re[FFT]`.
//!
//! The oracle also keeps each stack's mask-grid intensity `J_d` and
//! folded dL/dI `G_d` whole, where the simulator streams them one row pair
//! at a time below `S = N`: the loss and gradient, the corner images and
//! prints and `bossung_surface` are checked against its whole grids too.
//!
//! Every output must match bit for bit (the gradient up to the sign of
//! exact zeros, which the full-layout transform may flip), on 2048 nm
//! tiles at 64, 128 and 256 px (`m < N`) and on 4096 nm windows at 64 px
//! (`m = N`) and 128 px (`m < N`).

use cfaopc_fft::simd::{accumulate_norm_sqr, conj_mul_real, resist_corner, GradOut, ResistCorner};
use cfaopc_fft::{signed_freq, Complex, Fft2d, Rfft2d};
use cfaopc_grid::{BitGrid, Grid2D};
use cfaopc_litho::{
    bossung_surface, loss_and_gradient_into, loss_only, measure_cd, CdAxis, CdProbe, Kernel,
    KernelSet, LithoConfig, LithoSimulator, LossValues, LossWeights, ProcessCorner,
    RESIST_STEEPNESS,
};

/// The grids the layout is checked on: `(N, tile nm)`.
const CASES: [(usize, f64); 5] = [
    (64, 2048.0),
    (128, 2048.0),
    (256, 2048.0),
    (64, 4096.0),
    (128, 4096.0),
];

const WEIGHTS: [LossWeights; 3] = [
    LossWeights { l2: 1.0, pvb: 1.0 },
    LossWeights { l2: 1.0, pvb: 0.0 },
    LossWeights { l2: 0.0, pvb: 0.5 },
];

fn config(size: usize, tile_nm: f64) -> LithoConfig {
    LithoConfig {
        size,
        tile_nm,
        kernel_count: 6,
        ..LithoConfig::default()
    }
}

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

/// A full-band random mask and a centred rectangular target.
fn mask_and_target(n: usize) -> (Grid2D<f64>, Grid2D<f64>) {
    let mask = Grid2D::from_vec(n, n, uniform(n as u64, n * n));
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

/// `(fy, fx)` of a row-major bin index on the `n × n` grid.
fn freqs(idx: u32, n: usize) -> (i64, i64) {
    let idx = idx as usize;
    (signed_freq(idx / n, n), signed_freq(idx % n, n))
}

/// The kernels' reach `R`: the largest `|frequency|` of any bin of
/// either stack, along either axis.
fn reach(sim: &LithoSimulator) -> usize {
    let n = sim.size();
    [ProcessCorner::Nominal, ProcessCorner::Min]
        .iter()
        .flat_map(|&corner| sim.kernel_set(corner).kernels())
        .flat_map(|kernel| &kernel.spectrum)
        .map(|&(idx, _)| {
            let (fy, fx) = freqs(idx, n);
            fy.unsigned_abs().max(fx.unsigned_abs()) as usize
        })
        .max()
        .unwrap()
}

fn same_bits(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Kernel `kernel`'s pupil-grid bins: each bin less the kernel's centre
/// bin (its bin box's midpoint below `S = N`), wrapped mod `S`.
fn pupil_bins(kernel: &Kernel, n: usize, s: usize) -> Vec<usize> {
    let bins: Vec<(i64, i64)> = kernel.spectrum.iter().map(|&(i, _)| freqs(i, n)).collect();
    let mid = |axis: fn(&(i64, i64)) -> i64| {
        let lo = bins.iter().map(axis).min().unwrap();
        let hi = bins.iter().map(axis).max().unwrap();
        (lo + hi).div_euclid(2)
    };
    let (cy, cx) = if s == n {
        (0, 0)
    } else {
        (mid(|b| b.0), mid(|b| b.1))
    };
    let wrap = |f: i64| f.rem_euclid(s as i64) as usize;
    bins.iter()
        .map(|&(fy, fx)| wrap(fy - cy) * s + wrap(fx - cx))
        .collect()
}

/// The full-layout path: the plans, the mask spectrum and every field.
struct FullLayout<'a> {
    sim: &'a LithoSimulator,
    n: usize,
    s: usize,
    rplan: Rfft2d,
    pupil_rplan: Rfft2d,
    pupil_plan: Fft2d,
    /// `stacks[d]`: the in-focus stack, then the defocused one.
    stacks: [&'a KernelSet; 2],
    /// `fields[d][k]`: stack `d`'s kernel-`k` pupil-grid field.
    fields: [Vec<Vec<Complex>>; 2],
}

impl<'a> FullLayout<'a> {
    fn new(sim: &'a LithoSimulator, mask: &Grid2D<f64>) -> Self {
        let (n, s) = (sim.size(), sim.pupil_size());
        let rplan = Rfft2d::square(n).unwrap();
        let mut spectrum = vec![Complex::ZERO; n * n];
        rplan.forward_into(mask.as_slice(), &mut spectrum).unwrap();
        let pupil_plan = Fft2d::square(s).unwrap();
        let stacks = [ProcessCorner::Nominal, ProcessCorner::Min].map(|c| sim.kernel_set(c));
        let scale = (s * s) as f64 / (n * n) as f64;
        let fields = stacks.map(|set| {
            set.kernels()
                .iter()
                .map(|kernel| {
                    let mut field = vec![Complex::ZERO; s * s];
                    for (&(idx, h), p) in kernel.spectrum.iter().zip(pupil_bins(kernel, n, s)) {
                        field[p] = h * spectrum[idx as usize] * scale;
                    }
                    pupil_plan.inverse_sparse(&mut field).unwrap();
                    field
                })
                .collect()
        });
        FullLayout {
            sim,
            n,
            s,
            rplan,
            pupil_rplan: Rfft2d::square(s).unwrap(),
            pupil_plan,
            stacks,
            fields,
        }
    }

    /// The simulator's exact band-limited resampling between the pupil
    /// and mask grids, in the direction the lengths give.
    fn resample(&self, src: &[f64]) -> Vec<f64> {
        let up = src.len() < self.n * self.n;
        let (from, to) = if up {
            (&self.pupil_rplan, &self.rplan)
        } else {
            (&self.rplan, &self.pupil_rplan)
        };
        let (a, b) = (from.width(), to.width());
        let band = self.stacks[0].band();
        let m = 2 * band + 1;
        let mut spec = vec![Complex::ZERO; a * m];
        from.forward_band_into(src, &mut spec, band).unwrap();
        let mut band_spec = vec![Complex::ZERO; b * m];
        let norm = 1.0 / (a * a) as f64;
        let l = band as i64;
        let wrap = |f: i64, m: usize| f.rem_euclid(m as i64) as usize;
        for fy in -l..=l {
            let (row_a, row_b) = (wrap(fy, a) * m, wrap(fy, b) * m);
            for fx in -l..=l {
                band_spec[row_b + wrap(fx, m)] = spec[row_a + wrap(fx, m)].conj().scale(norm);
            }
        }
        let mut dst = vec![0.0; b * b];
        to.forward_re_band_into(&band_spec, &mut dst, band).unwrap();
        dst
    }

    /// Stack `d`'s dose-free mask-grid intensity, whole.
    fn intensity(&self, d: usize) -> Vec<f64> {
        let mut j = vec![0.0; self.s * self.s];
        for (kernel, field) in self.stacks[d].kernels().iter().zip(&self.fields[d]) {
            accumulate_norm_sqr(&mut j, field, kernel.weight);
        }
        if self.s < self.n {
            self.resample(&j)
        } else {
            j
        }
    }

    /// The loss and its gradient: each stack's corners through the resist
    /// kernel, folded onto the stack's first weighted corner, the adjoint
    /// per (weighted stack, kernel) added into the full `N × N`
    /// accumulator, and its `Re[FFT]`.
    fn loss_and_gradient(&self, target: &[f64], weights: LossWeights) -> (LossValues, Vec<f64>) {
        let cfg = self.sim.config();
        let plan = [
            (ProcessCorner::Nominal, 0, weights.l2),
            (ProcessCorner::Max, 0, weights.pvb),
            (ProcessCorner::Min, 1, weights.pvb),
        ];
        let intensities = [self.intensity(0), self.intensity(1)];
        let mut values = LossValues::default();
        let mut folded: [Option<(f64, Vec<f64>)>; 2] = [None, None];
        for (corner, d, w_c) in plan {
            let dose = cfg.dose(corner);
            let grad = match &mut folded[d] {
                _ if w_c == 0.0 => GradOut::Skip,
                Some((dose_1, g_1)) => GradOut::Add(g_1, dose / *dose_1),
                slot @ None => {
                    GradOut::Write(&mut slot.insert((dose, vec![0.0; self.n * self.n])).1)
                }
            };
            let resist = ResistCorner {
                steepness: RESIST_STEEPNESS,
                threshold: cfg.threshold,
                dose,
                weight: w_c,
            };
            let loss = resist_corner(&intensities[d], target, &resist, grad);
            match corner {
                ProcessCorner::Nominal => values.l2 = loss,
                _ => values.pvb += loss,
            }
        }
        values.total = weights.l2 * values.l2 + weights.pvb * values.pvb;

        let n = self.n;
        let mut acc = vec![Complex::ZERO; n * n];
        for (d, entry) in folded.iter().enumerate() {
            let Some((dose, g)) = entry else { continue };
            let g = if self.s < n {
                self.resample(g)
            } else {
                g.clone()
            };
            for (kernel, field) in self.stacks[d].kernels().iter().zip(&self.fields[d]) {
                let pupil = pupil_bins(kernel, n, self.s);
                let mut columns = vec![false; self.s];
                for &p in &pupil {
                    columns[p % self.s] = true;
                }
                let mut b = vec![Complex::ZERO; self.s * self.s];
                conj_mul_real(&mut b, field, &g);
                self.pupil_plan.inverse_cols(&mut b, &columns).unwrap();
                let scale = 2.0 * kernel.weight * dose;
                for (&(idx, h), p) in kernel.spectrum.iter().zip(pupil) {
                    acc[idx as usize] += h * b[p] * scale;
                }
            }
        }
        let mut grad = vec![0.0; n * n];
        self.rplan.forward_re_into(&acc, &mut grad).unwrap();
        (values, grad)
    }
}

#[test]
fn the_cases_cover_both_sides_of_a_full_width_band() {
    for (size, tile_nm) in CASES {
        let sim = LithoSimulator::new(config(size, tile_nm)).unwrap();
        let full = 2 * reach(&sim) + 1 >= size;
        assert_eq!(
            full,
            (size, tile_nm) == (64, 4096.0),
            "{size} px on {tile_nm} nm: R = {}",
            reach(&sim)
        );
    }
}

#[test]
fn mask_spectrum_is_the_full_transform_on_every_kept_column() {
    for (size, tile_nm) in CASES {
        let sim = LithoSimulator::new(config(size, tile_nm)).unwrap();
        let (mask, _) = mask_and_target(size);
        let mut want = vec![Complex::ZERO; size * size];
        Rfft2d::square(size)
            .unwrap()
            .forward_into(mask.as_slice(), &mut want)
            .unwrap();
        let got = sim.mask_spectrum(&mask).unwrap();
        let r = reach(&sim) as i64;
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            let kept = signed_freq(i % size, size).abs() <= r;
            let b = if kept { *b } else { Complex::ZERO };
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{size} px on {tile_nm} nm, bin {i} (kept: {kept}): {a:?} vs {b:?}"
            );
        }
    }
}

#[test]
fn imaging_matches_the_public_full_spectrum_path() {
    for (size, tile_nm) in CASES {
        let label = format!("{size} px on {tile_nm} nm");
        let sim = LithoSimulator::new(config(size, tile_nm)).unwrap();
        let (mask, target) = mask_and_target(size);
        // The full transform, with NaN in every column outside the band:
        // the public path packs the band and reads nothing else.
        let mut spectrum = vec![Complex::ZERO; size * size];
        Rfft2d::square(size)
            .unwrap()
            .forward_into(mask.as_slice(), &mut spectrum)
            .unwrap();
        let r = reach(&sim) as i64;
        for (i, z) in spectrum.iter_mut().enumerate() {
            if signed_freq(i % size, size).abs() > r {
                *z = Complex::new(f64::NAN, f64::NAN);
            }
        }
        let images = sim.aerial_corners(&mask).unwrap();
        for corner in ProcessCorner::ALL {
            let public = sim.aerial_from_spectrum(&spectrum, corner).unwrap();
            let got = images.get(corner).as_slice();
            assert!(
                same_bits(got, public.as_slice()),
                "{label}: {corner:?} image"
            );
            let single = sim.aerial_image(&mask, corner).unwrap();
            assert!(
                same_bits(single.as_slice(), public.as_slice()),
                "{label}: {corner:?} aerial_image"
            );
        }

        // The loss is the resist kernel on the public images at dose 1.
        let params = ResistCorner {
            steepness: RESIST_STEEPNESS,
            threshold: sim.config().threshold,
            dose: 1.0,
            weight: 1.0,
        };
        let resist = |corner| {
            let image = sim.aerial_from_spectrum(&spectrum, corner).unwrap();
            resist_corner(image.as_slice(), target.as_slice(), &params, GradOut::Skip)
        };
        let values = loss_only(&sim, &mask, &target, LossWeights::default()).unwrap();
        assert_eq!(
            values.l2.to_bits(),
            resist(ProcessCorner::Nominal).to_bits(),
            "{label}"
        );
        let pvb = resist(ProcessCorner::Max) + resist(ProcessCorner::Min);
        assert_eq!(values.pvb.to_bits(), pvb.to_bits(), "{label}");

        // The prints are the hard resist of the public images.
        let bits = BitGrid::from_threshold(&mask, 0.5);
        let printed = sim.print_corners(&bits).unwrap();
        let real = bits.to_real();
        let public = sim.mask_spectrum(&real).unwrap();
        for (corner, got) in ProcessCorner::ALL.into_iter().zip(&printed) {
            let image = sim.aerial_from_spectrum(&public, corner).unwrap();
            assert_eq!(*got, sim.resist_binary(&image), "{label}: {corner:?} print");
            assert_eq!(
                sim.print(&bits, corner).unwrap(),
                *got,
                "{label}: {corner:?} print"
            );
        }
    }
}

#[test]
fn bossung_surface_matches_the_public_full_spectrum_path() {
    for (size, tile_nm) in CASES {
        let label = format!("{size} px on {tile_nm} nm");
        // Unit doses at every corner, so each public corner image is its
        // focus's dose-free intensity itself.
        let unit = |defocus_nm| LithoConfig {
            dose_max: 1.0,
            dose_min: 1.0,
            defocus_nm,
            ..config(size, tile_nm)
        };
        let sim = LithoSimulator::new(unit(60.0)).unwrap();
        let (_, target) = mask_and_target(size);
        let mask = BitGrid::from_threshold(&target, 0.5);
        let c = size as i32 / 2;
        let probe = CdProbe {
            at: cfaopc_grid::Point::new(c, c),
            axis: CdAxis::Horizontal,
        };
        // Both of the simulator's foci, and one it regenerates a stack for.
        let defocus = [0.0, 60.0, 25.0];
        let doses = [0.85, 1.0, 1.2];
        let surface = bossung_surface(&sim, &mask, &probe, &defocus, &doses).unwrap();
        assert!(
            surface.points.iter().any(|p| p.cd_nm.is_some()),
            "{label}: nothing prints"
        );
        let spectrum = sim.mask_spectrum(&mask.to_real()).unwrap();
        for (f, &z) in defocus.iter().enumerate() {
            let at_focus = LithoSimulator::new(unit(z)).unwrap();
            let corner = if z == 0.0 {
                ProcessCorner::Nominal
            } else {
                ProcessCorner::Min
            };
            let j = at_focus.aerial_from_spectrum(&spectrum, corner).unwrap();
            for (k, &dose) in doses.iter().enumerate() {
                let th = sim.config().threshold;
                let printed = BitGrid::from(j.map(|&v| v * dose > th));
                let want = measure_cd(&printed, &probe, sim.config().pixel_nm());
                assert_eq!(surface.cd(f, k), want, "{label}: defocus {z}, dose {dose}");
            }
        }
    }
}

#[test]
fn loss_and_gradient_match_the_full_layout_oracle() {
    for (size, tile_nm) in CASES {
        let sim = LithoSimulator::new(config(size, tile_nm)).unwrap();
        let (mask, target) = mask_and_target(size);
        let oracle = FullLayout::new(&sim, &mask);
        let mut grad = Grid2D::new(size, size, 0.0);
        for weights in WEIGHTS {
            let label = format!("{size} px on {tile_nm} nm, {weights:?}");
            let values = loss_and_gradient_into(&sim, &mask, &target, weights, &mut grad).unwrap();
            let (want, want_grad) = oracle.loss_and_gradient(target.as_slice(), weights);
            for (got, want) in [
                (values.l2, want.l2),
                (values.pvb, want.pvb),
                (values.total, want.total),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "{label}: loss");
            }
            assert!(
                want_grad.iter().any(|&g| g != 0.0),
                "{label}: zero oracle gradient"
            );
            for (i, (a, b)) in grad.as_slice().iter().zip(&want_grad).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0),
                    "{label}: gradient pixel {i}: {a} vs {b}"
                );
            }
        }
    }
}

/// The stack of `corner` in [`FullLayout::stacks`].
fn stack_of(corner: ProcessCorner) -> usize {
    usize::from(corner == ProcessCorner::Min)
}

#[test]
fn imaging_matches_the_full_layout_oracle() {
    for (size, tile_nm) in CASES {
        let label = format!("{size} px on {tile_nm} nm");
        let sim = LithoSimulator::new(config(size, tile_nm)).unwrap();
        let cfg = sim.config();
        let (mask, target) = mask_and_target(size);

        // Each corner image is its dose times its focus's whole `J_d`.
        let oracle = FullLayout::new(&sim, &mask);
        let j = [oracle.intensity(0), oracle.intensity(1)];
        let images = sim.aerial_corners(&mask).unwrap();
        for corner in ProcessCorner::ALL {
            let dose = cfg.dose(corner);
            let want: Vec<f64> = j[stack_of(corner)].iter().map(|&v| dose * v).collect();
            let got = images.get(corner).as_slice();
            assert!(same_bits(got, &want), "{label}: {corner:?} image");
            let single = sim.aerial_image(&mask, corner).unwrap();
            assert!(
                same_bits(single.as_slice(), &want),
                "{label}: {corner:?} aerial_image"
            );
        }

        // Each print is its dosed `J_d` above the threshold.
        let bits = BitGrid::from_threshold(&mask, 0.5);
        let oracle = FullLayout::new(&sim, &bits.to_real());
        let j = [oracle.intensity(0), oracle.intensity(1)];
        let printed = sim.print_corners(&bits).unwrap();
        for (corner, got) in ProcessCorner::ALL.into_iter().zip(&printed) {
            let dose = cfg.dose(corner);
            let prints = j[stack_of(corner)]
                .iter()
                .map(|&v| dose * v > cfg.threshold)
                .collect();
            let want = BitGrid::from(Grid2D::from_vec(size, size, prints));
            assert_eq!(*got, want, "{label}: {corner:?} print_corners");
            assert_eq!(
                sim.print(&bits, corner).unwrap(),
                want,
                "{label}: {corner:?} print"
            );
        }

        // The CDs of a sweep over the simulator's own foci are those of
        // each focus's whole `J_d`, through both probe axes.
        let unit = LithoSimulator::new(LithoConfig {
            dose_max: 1.0,
            dose_min: 1.0,
            defocus_nm: 60.0,
            ..config(size, tile_nm)
        })
        .unwrap();
        let mask = BitGrid::from_threshold(&target, 0.5);
        let oracle = FullLayout::new(&unit, &mask.to_real());
        let defocus = [0.0, 60.0];
        let doses = [0.85, 1.0, 1.2];
        let c = size as i32 / 2;
        for axis in [CdAxis::Horizontal, CdAxis::Vertical] {
            let probe = CdProbe {
                at: cfaopc_grid::Point::new(c, c),
                axis,
            };
            let surface = bossung_surface(&unit, &mask, &probe, &defocus, &doses).unwrap();
            assert!(
                surface.points.iter().any(|p| p.cd_nm.is_some()),
                "{label}: nothing prints"
            );
            for (f, &z) in defocus.iter().enumerate() {
                let j = oracle.intensity(f);
                for (k, &dose) in doses.iter().enumerate() {
                    let prints = j.iter().map(|&v| v * dose > cfg.threshold).collect();
                    let printed = BitGrid::from(Grid2D::from_vec(size, size, prints));
                    let want = measure_cd(&printed, &probe, cfg.pixel_nm());
                    assert_eq!(
                        surface.cd(f, k),
                        want,
                        "{label}: {axis:?} probe, defocus {z}, dose {dose}"
                    );
                }
            }
        }
    }
}
