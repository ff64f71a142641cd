//! Sum-of-coherent-systems (SOCS) optical kernels.
//!
//! The paper's forward model (Eq. 1) is `I = Σ_k μ_k |h_k ⊗ M|²`. We
//! generate the kernels from first principles with the **Abbe source-point
//! decomposition**: the annular partially-coherent source is sampled at
//! `K` points; each point `s` illuminates the mask as a coherent system
//! whose transfer function is the projection pupil shifted by the source
//! frequency, `H_s(ν) = P(ν + ν_s)`, optionally carrying a paraxial
//! defocus phase. This has exactly the SOCS form of Eq. 1 with
//! `μ_s = 1/K`.
//!
//! Kernels are band-limited to the pupil (radius `NA/λ` in frequency
//! space: 14.3 bins on a 2048 nm tile, 28.6 on a 4096 nm one, whatever the
//! pixel count), so each spectrum is stored **sparsely** as
//! `(flat index, value)` pairs.
//!
//! Mask-grid spectra are stored **band-packed**: the kernels' bins reach
//! at most `R` bins from DC along either axis, so a spectrum the kernels
//! read or write keeps only the `m = min(2R + 1, N)` columns with
//! `|f| ≤ R`, column `f mod m` holding column frequency `f` (every row
//! is kept). This is the layout of `cfaopc_fft::Rfft2d`'s band variants,
//! and each kernel stores its bins' indices in it next to their
//! row-major ones. At `2R + 1 ≥ N` it is the full grid.
//!
//! Each stack also sizes the **pupil grid** the per-kernel work runs on.
//! `L`, the stack's band, is the widest span of bins one kernel covers
//! along either axis, so every `|A_k|²` lives on `[−L, L]²`. The pupil
//! grid is `S × S`, with `S` the smallest power of two `≥ 2L + 1`, capped
//! at the mask grid's edge `N`. Below `N`, each kernel's bins are moved by
//! an integer centre bin and wrapped onto the pupil grid; at `S = N` they
//! stay where they are.

use crate::config::{
    LithoConfig, LithoError, ProcessCorner, NA, SIGMA_INNER, SIGMA_OUTER, WAVELENGTH_NM,
};
use cfaopc_fft::{signed_freq, Complex};

/// One coherent kernel: a weight and a sparse frequency-domain transfer
/// function over an `n × n` grid.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// SOCS weight `μ_k`.
    pub weight: f64,
    /// Sparse spectrum: `(row-major frequency index, H(ν))`.
    pub spectrum: Vec<(u32, Complex)>,
    /// `packed[j]` is the index of `spectrum[j]`'s bin in the band-packed
    /// mask-grid layout ([`KernelSet::spectrum_width`] columns): the same
    /// row, column `fx mod m`.
    pub(crate) packed: Vec<u32>,
    /// `pupil[j]` is the row-major pupil-grid index of `spectrum[j]`'s
    /// bin, less this kernel's centre bin. At `S = N` it is the bin's own
    /// index.
    pub(crate) pupil: Vec<u32>,
    /// `columns[x]` is true iff `pupil` has an entry in pupil-grid column
    /// `x`; length `S`. The adjoint samples its per-kernel inverse FFT
    /// only on this kernel's bins, so it feeds this mask to
    /// [`cfaopc_fft::Fft2d::inverse_cols`].
    pub(crate) columns: Vec<bool>,
}

/// The kernel stack for one focus setting. It depends only on focus, so
/// corners imaged at the same focus (`Nominal` and `Max`) share one stack;
/// doses scale the intensity afterwards.
#[derive(Debug, Clone)]
pub struct KernelSet {
    size: usize,
    pupil_size: usize,
    band: usize,
    /// The largest `|frequency|` of any kernel's bin along either axis:
    /// mask-grid spectra are read and written only within it.
    pub(crate) reach: usize,
    /// Columns `m = min(2·reach + 1, size)` of the band-packed layout.
    spectrum_width: usize,
    kernels: Vec<Kernel>,
    /// Prefix sums of the kernels' bin counts, `K + 1` entries: kernel
    /// `k`'s bins own slots `bins[k]..bins[k + 1]` of a buffer that holds
    /// one value per bin of every kernel, in kernel order.
    bins: Vec<usize>,
}

impl KernelSet {
    /// Generates the Abbe/SOCS kernel stack at `corner`'s focus
    /// ([`LithoConfig::defocus`]).
    ///
    /// Source points are laid out on an area-uniform golden-angle spiral
    /// across the annulus `[SIGMA_INNER, SIGMA_OUTER]·NA/λ`, giving an
    /// even, unclustered sampling for any `kernel_count`. Weights are
    /// uniform and normalized so an open-frame mask images at unit
    /// intensity before the corner's dose is applied.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError`] when `config` fails validation.
    pub fn generate(config: &LithoConfig, corner: ProcessCorner) -> Result<Self, LithoError> {
        Self::generate_with_defocus(config, config.defocus(corner))
    }

    /// Generates a kernel stack at an arbitrary focus error (used by the
    /// process-window sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError`] when `config` fails validation.
    pub fn generate_with_defocus(config: &LithoConfig, defocus: f64) -> Result<Self, LithoError> {
        config.validate()?;
        let n = config.size;
        let cutoff = NA / WAVELENGTH_NM; // cycles per nm
        let freq_step = 1.0 / config.tile_nm; // frequency-bin pitch
        let k_count = config.kernel_count;
        let golden = std::f64::consts::PI * (3.0 - 5f64.sqrt());

        let mut kernels = Vec::with_capacity(k_count);
        // Each kernel's bin box, `[lo, hi]` per axis as (y, x).
        let mut boxes = Vec::with_capacity(k_count);
        for k in 0..k_count {
            // Area-uniform radial position inside the annulus.
            let t = (k as f64 + 0.5) / k_count as f64;
            let s2 = SIGMA_INNER * SIGMA_INNER;
            let o2 = SIGMA_OUTER * SIGMA_OUTER;
            let sigma = (s2 + t * (o2 - s2)).sqrt();
            let theta = k as f64 * golden;
            let src = (sigma * cutoff * theta.cos(), sigma * cutoff * theta.sin());

            // Enumerate frequency bins inside the shifted pupil. The pupil
            // spans at most (1+SIGMA_OUTER)*cutoff from DC.
            let max_bin = (((1.0 + SIGMA_OUTER) * cutoff / freq_step).ceil() as i64) + 1;
            let mut spectrum = Vec::new();
            let mut bin_box = [(i64::MAX, i64::MIN); 2];
            for ky in 0..n {
                let fy = signed_freq(ky, n);
                if fy.abs() > max_bin {
                    continue;
                }
                for kx in 0..n {
                    let fx = signed_freq(kx, n);
                    if fx.abs() > max_bin {
                        continue;
                    }
                    let nu_x = fx as f64 * freq_step + src.0;
                    let nu_y = fy as f64 * freq_step + src.1;
                    let nu2 = nu_x * nu_x + nu_y * nu_y;
                    if nu2.sqrt() <= cutoff {
                        // Paraxial defocus phase: exp(-iπλδ|ν|²).
                        let phase = -std::f64::consts::PI * WAVELENGTH_NM * defocus * nu2;
                        spectrum.push(((ky * n + kx) as u32, Complex::cis(phase)));
                        for ((lo, hi), f) in bin_box.iter_mut().zip([fy, fx]) {
                            (*lo, *hi) = ((*lo).min(f), (*hi).max(f));
                        }
                    }
                }
            }
            boxes.push(bin_box);
            kernels.push(Kernel {
                weight: 1.0 / k_count as f64,
                spectrum,
                packed: Vec::new(),
                pupil: Vec::new(),
                columns: Vec::new(),
            });
        }
        let band = boxes
            .iter()
            .flatten()
            .map(|&(lo, hi)| hi.saturating_sub(lo).max(0) as usize)
            .max()
            .unwrap_or(0);
        let reach = boxes
            .iter()
            .flatten()
            .map(|&(lo, hi)| lo.unsigned_abs().max(hi.unsigned_abs()) as usize)
            .max()
            .unwrap_or(0);
        let s = (2 * band + 1).next_power_of_two().min(n);
        let m = (2 * reach + 1).min(n);
        for (kernel, [(y0, y1), (x0, x1)]) in kernels.iter_mut().zip(&boxes) {
            // Any integer centre leaves |A_k|² unchanged; the box's
            // midpoint keeps the moved bins around DC.
            let (cy, cx) = if s == n {
                (0, 0)
            } else {
                ((y0 + y1).div_euclid(2), (x0 + x1).div_euclid(2))
            };
            // Grid edges are powers of two: masks wrap, shifts divide.
            let wrap = |f: i64| (f & (s as i64 - 1)) as usize;
            let (row_shift, col_mask) = (n.trailing_zeros(), n - 1);
            (kernel.pupil, kernel.packed) = kernel
                .spectrum
                .iter()
                .map(|&(idx, _)| {
                    let ky = idx as usize >> row_shift;
                    let fy = signed_freq(ky, n);
                    let fx = signed_freq(idx as usize & col_mask, n);
                    let packed = ky * m + fx.rem_euclid(m as i64) as usize;
                    ((wrap(fy - cy) * s + wrap(fx - cx)) as u32, packed as u32)
                })
                .unzip();
            kernel.columns = vec![false; s];
            for &p in &kernel.pupil {
                kernel.columns[p as usize % s] = true;
            }
        }
        // Descending singular-value weight. The sort is stable and the
        // Abbe weights are uniform, so it keeps the generation order, and
        // with it every accumulation order downstream.
        kernels.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        let bins = std::iter::once(0)
            .chain(kernels.iter().scan(0, |end, kernel| {
                *end += kernel.spectrum.len();
                Some(*end)
            }))
            .collect();
        Ok(KernelSet {
            size: n,
            pupil_size: s,
            band,
            reach,
            spectrum_width: m,
            kernels,
            bins,
        })
    }

    /// Grid edge the kernels are defined on.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Edge `S` of the pupil grid the per-kernel transforms run on: the
    /// smallest power of two `≥ 2L + 1` (`L` = [`KernelSet::band`]),
    /// capped at [`KernelSet::size`].
    #[inline]
    pub fn pupil_size(&self) -> usize {
        self.pupil_size
    }

    /// The stack's band `L`: the widest span of bins one kernel covers
    /// along either axis, so every `|A_k|²` is band-limited to `[−L, L]²`.
    #[inline]
    pub fn band(&self) -> usize {
        self.band
    }

    /// Columns `m = min(2R + 1, N)` of the band-packed mask-grid layout
    /// (`R` the largest `|frequency|` of any bin): `N × m` entries hold
    /// every bin any kernel reads or writes.
    #[inline]
    pub(crate) fn spectrum_width(&self) -> usize {
        self.spectrum_width
    }

    /// The kernels, sorted by descending SOCS weight.
    #[inline]
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Kernel `k`'s slots in a buffer with one value per bin of every
    /// kernel, laid out in kernel order.
    #[inline]
    pub(crate) fn bin_range(&self, k: usize) -> std::ops::Range<usize> {
        self.bins[k]..self.bins[k + 1]
    }

    /// The bins of all the stack's kernels together.
    #[inline]
    pub(crate) fn bin_count(&self) -> usize {
        self.bins[self.kernels.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_count_and_weights() {
        let cfg = LithoConfig::fast_test();
        let set = KernelSet::generate(&cfg, ProcessCorner::Nominal).unwrap();
        assert_eq!(set.kernels().len(), cfg.kernel_count);
        let total: f64 = set.kernels().iter().map(|k| k.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernels_sorted_by_descending_weight() {
        let cfg = LithoConfig::fast_test();
        let set = KernelSet::generate(&cfg, ProcessCorner::Min).unwrap();
        for pair in set.kernels().windows(2) {
            assert!(pair[0].weight >= pair[1].weight);
        }
    }

    #[test]
    fn spectra_are_nonempty_and_band_limited() {
        let cfg = LithoConfig::fast_test();
        let set = KernelSet::generate(&cfg, ProcessCorner::Nominal).unwrap();
        let n = cfg.size;
        let cutoff = NA / WAVELENGTH_NM;
        let freq_step = 1.0 / cfg.tile_nm;
        let max_norm = (1.0 + SIGMA_OUTER) * cutoff;
        for kernel in set.kernels() {
            assert!(!kernel.spectrum.is_empty());
            for &(idx, h) in &kernel.spectrum {
                // Unit-modulus transfer inside the pupil.
                assert!((h.abs() - 1.0).abs() < 1e-12);
                let ky = idx as usize / n;
                let kx = idx as usize % n;
                let fy = signed_freq(ky, n) as f64 * freq_step;
                let fx = signed_freq(kx, n) as f64 * freq_step;
                assert!((fx * fx + fy * fy).sqrt() <= max_norm + freq_step);
            }
        }
    }

    #[test]
    fn dc_bin_is_inside_every_kernel() {
        // Every source point lies inside the pupil (σ ≤ 1), so DC passes;
        // this is what normalizes the open-frame intensity to 1.
        let cfg = LithoConfig::fast_test();
        let set = KernelSet::generate(&cfg, ProcessCorner::Nominal).unwrap();
        for kernel in set.kernels() {
            assert!(kernel.spectrum.iter().any(|&(idx, _)| idx == 0));
        }
    }

    #[test]
    fn nominal_kernels_are_real() {
        let cfg = LithoConfig::fast_test();
        let set = KernelSet::generate(&cfg, ProcessCorner::Nominal).unwrap();
        for kernel in set.kernels() {
            for &(_, h) in &kernel.spectrum {
                assert!(h.im.abs() < 1e-12, "no defocus phase at nominal");
            }
        }
    }

    #[test]
    fn defocused_kernels_carry_phase() {
        let cfg = LithoConfig::fast_test();
        let set = KernelSet::generate(&cfg, ProcessCorner::Min).unwrap();
        let has_phase = set
            .kernels()
            .iter()
            .flat_map(|k| k.spectrum.iter())
            .any(|&(_, h)| h.im.abs() > 1e-6);
        assert!(has_phase);
    }

    #[test]
    fn each_kernel_flags_exactly_its_own_pupil_columns() {
        for size in [64, 256] {
            let cfg = LithoConfig {
                size,
                ..LithoConfig::fast_test()
            };
            for corner in ProcessCorner::ALL {
                let set = KernelSet::generate(&cfg, corner).unwrap();
                let s = set.pupil_size();
                for kernel in set.kernels() {
                    let mut touched = vec![false; s];
                    for &p in &kernel.pupil {
                        touched[p as usize % s] = true;
                    }
                    assert_eq!(kernel.columns, touched, "{corner:?} at {size} px");
                    // A pupil's columns are one contiguous run of at most
                    // L + 1, so the adjoint's column pass skips the rest.
                    let width = touched.iter().filter(|&&c| c).count();
                    assert!(width <= set.band() + 1, "{width} columns");
                }
            }
        }
    }

    #[test]
    fn pupil_grid_is_sized_by_the_tile_not_the_pixel_count() {
        // (tile nm, N) -> (L, S): the band is set by NA/λ in bins, so it
        // is the same at every N large enough to hold the pupil.
        for (tile_nm, size, band, pupil) in [
            (2048.0, 64, 28, 64),
            (2048.0, 128, 28, 64),
            (2048.0, 512, 28, 64),
            (4096.0, 128, 57, 128),
            (4096.0, 256, 57, 128),
        ] {
            let cfg = LithoConfig {
                size,
                tile_nm,
                ..LithoConfig::fast_test()
            };
            for corner in ProcessCorner::ALL {
                let set = KernelSet::generate(&cfg, corner).unwrap();
                assert_eq!(
                    (set.band(), set.pupil_size()),
                    (band, pupil),
                    "{tile_nm} nm, {size} px, {corner:?}"
                );
            }
        }
        // A grid too small for the pupil clips it at Nyquist; S = N.
        let cfg = LithoConfig {
            size: 32,
            ..LithoConfig::fast_test()
        };
        let set = KernelSet::generate(&cfg, ProcessCorner::Nominal).unwrap();
        assert_eq!(set.pupil_size(), 32);
    }

    #[test]
    fn pupil_bins_are_distinct_and_stay_put_at_full_size() {
        for size in [64, 256] {
            let cfg = LithoConfig {
                size,
                ..LithoConfig::fast_test()
            };
            let set = KernelSet::generate(&cfg, ProcessCorner::Min).unwrap();
            for kernel in set.kernels() {
                let unique: std::collections::BTreeSet<u32> =
                    kernel.pupil.iter().copied().collect();
                assert_eq!(unique.len(), kernel.spectrum.len(), "{size} px");
                if set.pupil_size() == size {
                    let bins: Vec<u32> = kernel.spectrum.iter().map(|&(idx, _)| idx).collect();
                    assert_eq!(kernel.pupil, bins, "S = N moves no bin");
                }
            }
        }
    }

    #[test]
    fn packed_bins_keep_their_frequencies() {
        // (tile nm, N) -> m = min(2R + 1, N): a 2048 nm tile's kernels
        // reach R = 26 bins at every N, a 4096 nm window's R = 52, which a
        // 64 px grid clips at Nyquist, so its band is the full grid.
        for (tile_nm, size, width) in [
            (2048.0, 64, 53),
            (2048.0, 2048, 53),
            (4096.0, 64, 64),
            (4096.0, 128, 105),
        ] {
            let cfg = LithoConfig {
                size,
                tile_nm,
                ..LithoConfig::fast_test()
            };
            for corner in ProcessCorner::ALL {
                let set = KernelSet::generate(&cfg, corner).unwrap();
                let m = set.spectrum_width();
                assert_eq!(m, width, "{tile_nm} nm, {size} px, {corner:?}");
                for kernel in set.kernels() {
                    for (&(idx, _), &b) in kernel.spectrum.iter().zip(&kernel.packed) {
                        let (ky, kx) = (idx as usize / size, idx as usize % size);
                        let (row, c) = (b as usize / m, b as usize % m);
                        assert_eq!(row, ky, "a packed bin keeps its row");
                        let f = signed_freq(kx, size);
                        assert!(f.unsigned_abs() as usize <= set.reach);
                        assert_eq!(c as i64, f.rem_euclid(m as i64), "column f mod m");
                        if m == size {
                            assert_eq!(b, idx, "the full-width band is the grid");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn source_points_spread_across_annulus() {
        // Kernel supports must not all coincide: distinct source points
        // shift the pupil to distinct positions.
        let cfg = LithoConfig::fast_test();
        let set = KernelSet::generate(&cfg, ProcessCorner::Nominal).unwrap();
        let supports: std::collections::HashSet<Vec<u32>> = set
            .kernels()
            .iter()
            .map(|k| k.spectrum.iter().map(|&(idx, _)| idx).collect())
            .collect();
        assert!(supports.len() > 1, "kernels degenerate to one source point");
    }
}
