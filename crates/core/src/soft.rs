//! Softmax (log-sum-exp–weighted) circle composition — the smooth
//! alternative to the paper's hard max (Eq. 11), selected by
//! [`Composition::Softmax`](crate::Composition::Softmax) and studied by
//! the `ablations` binary.
//!
//! The paper routes gradients through the argmax circle only; a softmax
//! composition spreads them across every circle covering a pixel:
//!
//! ```text
//! M̄(p) = Σᵢ wᵢ vᵢ,   vᵢ = qᵢ fᵢ(p),   wᵢ = e^{βvᵢ} / (1 + Σⱼ e^{βvⱼ})
//! ```
//!
//! with an implicit background term `v₀ = 0` so empty pixels stay 0 and
//! the weights are well normalized. As `β → ∞` this approaches the hard
//! max. The backward pass is exact:
//! `∂M̄/∂vₖ = wₖ (1 + β vₖ − β M̄)`.
//!
//! It runs in [`ComposeWorkspace`](crate::ComposeWorkspace) on the engine
//! of [`crate::compose`]; this module supplies the softmax's per-pixel
//! render body, its backward scan and its serial references. The forward
//! pass shares the tile walk: circles are binned by window into
//! [`TILE`]-sized tiles, workers claim active tiles dynamically, and the
//! per-pixel distance rows come from the bit-exact SIMD kernel in
//! [`crate::simd`]. Deep-interior pixels (sigmoid provably saturated at
//! `f = 1`) reuse a per-circle cached `e^{βq}` instead of calling `exp`
//! twice per pixel. Unlike the hard max, the softmax **prunes nothing** —
//! a circle with `q = 0` still contributes `e^{β·0} = 1` to every covered
//! pixel's normalizer, so dropping it would change the output.
//! Accumulation order within a pixel follows circle index order in every
//! bucket, so the result stays bit-identical to [`compose_soft_serial`].
//!
//! The backward pass accumulates per-band partial gradients (tile rows
//! claimed dynamically, each band scanning its slice of every circle's
//! window in row-major order) and merges them with the engine's
//! deterministic ascending-band reduction — bit-identical to the
//! band-blocked [`SoftComposite::backward_serial`] at any worker count.
//!
//! [`TILE`]: crate::compose::TILE

use crate::compose::{
    place_circles, render_tiles, ComposeConfig, PlacedCircle, TileBody, TileGrid, ALPHA, TILE,
};
use crate::repr::SparseCircles;
use crate::simd::{fill_dist_row, SIGMOID_SAT};
use cfaopc_fft::parallel::DisjointSliceMut;
use cfaopc_grid::Grid2D;
use cfaopc_litho::sigmoid;
use std::ops::Range;

/// What [`compose_soft_serial`] returns: the dense mask, with what
/// [`SoftComposite::backward_serial`] reads.
#[derive(Debug, Clone)]
pub struct SoftComposite {
    /// The dense mask `M̄`.
    pub mask: Grid2D<f64>,
    /// Normalizer `1 + Σ e^{βv}` per pixel.
    norm: Grid2D<f64>,
    placed: Vec<PlacedCircle>,
    config: ComposeConfig,
    beta: f64,
}

/// The softmax's own buffers in a workspace: its sharpness `β` and the
/// per-pixel normalizer `1 + Σ e^{βv}`.
#[derive(Debug)]
pub(crate) struct SoftBuffers {
    beta: f64,
    norm: Grid2D<f64>,
}

impl SoftBuffers {
    pub(crate) fn new(n: usize, beta: f64) -> Self {
        SoftBuffers {
            beta,
            norm: Grid2D::new(n, n, 1.0),
        }
    }

    /// Renders the softmax over the active tiles into `mask` (the
    /// numerator, until the closing divide) and the normalizer.
    ///
    /// A tile rendered on the previous compose is reset to its background
    /// state (numerator 0, normalizer `e^{β·0} = 1`) before accumulation,
    /// and a tile untouched both then and now is skipped outright (the
    /// in-place `0 / 1` divide is idempotent there), so a reused workspace
    /// renders the same bits as a fresh one.
    pub(crate) fn render(
        &mut self,
        tiles: &TileGrid,
        placed: &[PlacedCircle],
        mask: &mut Grid2D<f64>,
    ) {
        let body = SoftRender {
            n: mask.width(),
            beta: self.beta,
            num: DisjointSliceMut::new(mask.as_mut_slice()),
            norm: DisjointSliceMut::new(self.norm.as_mut_slice()),
        };
        render_tiles(tiles, placed, &body);
        // In-place divide: the numerator grid becomes the mask. Clean
        // skipped tiles hold (0, 1), so re-dividing them is idempotent.
        for (m, &z) in mask.as_mut_slice().iter_mut().zip(self.norm.as_slice()) {
            *m /= z;
        }
    }

    /// Band `b`'s share of the softmax backward: its slice of every
    /// circle's window, row-major, accumulated into `part`. Saturated
    /// interior pixels (`f = 1` exactly, `h = 0`) reuse the per-circle
    /// `e^{βq}` weight and contribute only to `∂q`; the zero x/y/r terms
    /// the serial reference adds there cannot change a `+0.0`-initialized
    /// sum, so the partials equal the serial reference's bit for bit.
    pub(crate) fn scan_band(
        &self,
        b: usize,
        part: &mut [f64],
        placed: &[PlacedCircle],
        config: &ComposeConfig,
        mask: &Grid2D<f64>,
        gm: &[f64],
    ) {
        let (n, margin, beta) = (config.size, config.window_margin, self.beta);
        let (m, z) = (mask.as_slice(), self.norm.as_slice());
        let band_y0 = b * TILE;
        let band_y1 = (band_y0 + TILE).min(n);
        let mut dist = [0.0f64; DIST_SEG];
        for (i, pc) in placed.iter().enumerate() {
            let Some((x0, x1, y0, y1)) = pc.window(n, margin) else {
                continue;
            };
            let row0 = (y0 as usize).max(band_y0);
            let row1 = (y1 as usize + 1).min(band_y1);
            if row0 >= row1 {
                continue;
            }
            let e_sat = (beta * pc.q).exp();
            let (mut gx, mut gy, mut gr, mut gq) = (0.0, 0.0, 0.0, 0.0);
            for y in row0..row1 {
                let dyv = y as f64 - pc.cy;
                let dy2 = dyv * dyv;
                let row = y * n;
                let mut x = x0 as usize;
                let x_end = x1 as usize + 1;
                while x < x_end {
                    let seg_len = (x_end - x).min(DIST_SEG);
                    let seg = &mut dist[..seg_len];
                    fill_dist_row(seg, x, pc.cx, dy2);
                    for (j, &d) in seg.iter().enumerate() {
                        let p = row + x + j;
                        let t_arg = ALPHA * (pc.r - d);
                        if t_arg >= SIGMOID_SAT {
                            // f = 1.0 exactly, h = 0: only ∂q survives.
                            let w = e_sat / z[p];
                            let dm_dv = w * (1.0 + beta * pc.q - beta * m[p]);
                            gq += gm[p] * dm_dv;
                            continue;
                        }
                        let f = sigmoid(t_arg);
                        let v = pc.q * f;
                        let w = (beta * v).exp() / z[p];
                        let dm_dv = w * (1.0 + beta * v - beta * m[p]);
                        let g = gm[p] * dm_dv;
                        let h = f * (1.0 - f);
                        if d > 1e-9 {
                            let dx = (x + j) as f64 - pc.cx;
                            gx += g * ALPHA * pc.q * h * (dx / d);
                            gy += g * ALPHA * pc.q * h * (dyv / d);
                        }
                        gr += g * ALPHA * pc.q * h;
                        gq += g * f;
                    }
                    x += seg_len;
                }
            }
            part[4 * i] += gx;
            part[4 * i + 1] += gy;
            part[4 * i + 2] += gr;
            part[4 * i + 3] += gq;
        }
    }
}

/// The softmax's per-pixel body: each covering circle adds `v·e^{βv}` to
/// the numerator and `e^{βv}` to the normalizer.
struct SoftRender<'a> {
    n: usize,
    beta: f64,
    num: DisjointSliceMut<'a, f64>,
    norm: DisjointSliceMut<'a, f64>,
}

// The `slice_mut` views below are the only live ones over their pixels:
// each method's caller upholds the `TileBody` contract.
#[allow(unsafe_code)]
impl TileBody for SoftRender<'_> {
    // SAFETY: the caller upholds `TileBody::clear`'s contract.
    unsafe fn clear(&self, xs: Range<usize>, ys: Range<usize>) {
        for y in ys {
            let at = y * self.n + xs.start;
            self.num.slice_mut(at, xs.len()).fill(0.0);
            self.norm.slice_mut(at, xs.len()).fill(1.0);
        }
    }

    // SAFETY: the caller upholds `TileBody::draw`'s contract.
    unsafe fn draw(
        &self,
        _ci: usize,
        pc: &PlacedCircle,
        xs: Range<usize>,
        ys: Range<usize>,
        dist: &mut [f64; TILE],
    ) {
        let (x0, seg_len) = (xs.start, xs.len());
        // Saturated interior pixels have v = q·1 = q exactly, so their
        // weight e^{βv} is this one per-circle constant.
        let e_sat = (self.beta * pc.q).exp();
        for y in ys {
            let dyv = y as f64 - pc.cy;
            let seg = &mut dist[..seg_len];
            fill_dist_row(seg, x0, pc.cx, dyv * dyv);
            let nrow = self.num.slice_mut(y * self.n + x0, seg_len);
            let zrow = self.norm.slice_mut(y * self.n + x0, seg_len);
            for (j, &d) in seg.iter().enumerate() {
                let t_arg = ALPHA * (pc.r - d);
                let (v, e) = if t_arg >= SIGMOID_SAT {
                    (pc.q, e_sat) // f = 1.0 exactly
                } else {
                    let v = pc.q * sigmoid(t_arg);
                    (v, (self.beta * v).exp())
                };
                nrow[j] += v * e;
                zrow[j] += e;
            }
        }
    }
}

/// Distance-row scratch length for the backward band scans: windows can
/// be wider than a tile, so rows are processed in chunks of this many
/// pixels (chunking is invisible to the math — every chunk runs the
/// same bit-exact kernel).
const DIST_SEG: usize = 2 * TILE;

/// The retained serial reference of the softmax render
/// ([`ComposeWorkspace::compose`](crate::ComposeWorkspace::compose) under
/// [`Composition::Softmax`](crate::Composition::Softmax)): one flat pass
/// per circle, no tiling, no parallelism. Ground truth for the
/// bit-identity property tests.
pub fn compose_soft_serial(
    circles: &SparseCircles,
    config: &ComposeConfig,
    beta: f64,
) -> SoftComposite {
    let n = config.size;
    let mut num = Grid2D::new(n, n, 0.0f64);
    let mut norm = Grid2D::new(n, n, 1.0f64);
    let mut placed = Vec::new();
    place_circles(circles, config, &mut placed);

    for pc in &placed {
        let Some((x0, x1, y0, y1)) = pc.window(n, config.window_margin) else {
            continue;
        };
        for y in y0..=y1 {
            for x in x0..=x1 {
                let d = ((x as f64 - pc.cx).powi(2) + (y as f64 - pc.cy).powi(2)).sqrt();
                let v = pc.q * sigmoid(ALPHA * (pc.r - d));
                let e = (beta * v).exp();
                num[(x as usize, y as usize)] += v * e;
                norm[(x as usize, y as usize)] += e;
            }
        }
    }
    for (m, &z) in num.as_mut_slice().iter_mut().zip(norm.as_slice()) {
        *m /= z;
    }
    SoftComposite {
        mask: num,
        norm,
        placed,
        config: *config,
        beta,
    }
}

impl SoftComposite {
    /// The retained serial reference of the softmax backward
    /// ([`ComposeWorkspace::backward_into`](crate::ComposeWorkspace::backward_into)
    /// under [`Composition::Softmax`](crate::Composition::Softmax)): chains
    /// `∂L/∂M̄` into the flat `4n` parameter gradient, spreading each
    /// pixel's gradient across *all* circles covering it (softmax
    /// weights), unlike the paper's argmax routing.
    ///
    /// Accumulation is **band-blocked** (per-tile-row partials reduced
    /// in ascending band order before the STE gates), fixing the
    /// floating-point summation tree the parallel fused pass reproduces
    /// exactly — see [`Composite::backward_serial`] for the rationale.
    ///
    /// [`Composite::backward_serial`]: crate::Composite::backward_serial
    ///
    /// # Panics
    ///
    /// Panics on a gradient shape mismatch.
    pub fn backward_serial(&self, grad_mask: &Grid2D<f64>) -> Vec<f64> {
        let n = self.config.size;
        assert!(
            grad_mask.width() == n && grad_mask.height() == n,
            "gradient shape mismatch"
        );
        let beta = self.beta;
        let bands = n.div_ceil(TILE);
        let stride = self.placed.len() * 4;
        let mut partials = vec![0.0f64; bands * stride];
        for b in 0..bands {
            let band_y0 = b * TILE;
            let band_y1 = (band_y0 + TILE).min(n);
            let part = &mut partials[b * stride..(b + 1) * stride];
            for (i, pc) in self.placed.iter().enumerate() {
                let Some((x0, x1, y0, y1)) = pc.window(n, self.config.window_margin) else {
                    continue;
                };
                let row0 = (y0 as usize).max(band_y0);
                let row1 = (y1 as usize + 1).min(band_y1);
                let (mut gx, mut gy, mut gr, mut gq) = (0.0, 0.0, 0.0, 0.0);
                for y in row0..row1 {
                    for x in x0..=x1 {
                        let p = (x as usize, y);
                        let dx = x as f64 - pc.cx;
                        let dy = y as f64 - pc.cy;
                        let d = (dx * dx + dy * dy).sqrt();
                        let f = sigmoid(ALPHA * (pc.r - d));
                        let v = pc.q * f;
                        let w = (beta * v).exp() / self.norm[p];
                        let dm_dv = w * (1.0 + beta * v - beta * self.mask[p]);
                        let g = grad_mask[p] * dm_dv;
                        let h = f * (1.0 - f);
                        if d > 1e-9 {
                            gx += g * ALPHA * pc.q * h * (dx / d);
                            gy += g * ALPHA * pc.q * h * (dy / d);
                        }
                        gr += g * ALPHA * pc.q * h;
                        gq += g * f;
                    }
                }
                part[4 * i] += gx;
                part[4 * i + 1] += gy;
                part[4 * i + 2] += gr;
                part[4 * i + 3] += gq;
            }
        }
        let mut grads = vec![0.0f64; stride];
        for (i, pc) in self.placed.iter().enumerate() {
            let (mut gx, mut gy, mut gr, mut gq) = (0.0, 0.0, 0.0, 0.0);
            for b in 0..bands {
                let base = b * stride + 4 * i;
                gx += partials[base];
                gy += partials[base + 1];
                gr += partials[base + 2];
                gq += partials[base + 3];
            }
            grads[4 * i] = gx * pc.gate_x;
            grads[4 * i + 1] = gy * pc.gate_y;
            grads[4 * i + 2] = gr * pc.gate_r;
            grads[4 * i + 3] = gq;
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{ComposeWorkspace, Composition};
    use crate::repr::CircleParams;

    const BETA: f64 = 20.0;

    fn two_circles() -> SparseCircles {
        SparseCircles {
            circles: vec![
                CircleParams {
                    x: 12.3,
                    y: 15.1,
                    r: 5.2,
                    q: 0.9,
                },
                CircleParams {
                    x: 18.7,
                    y: 16.4,
                    r: 4.1,
                    q: 0.7,
                },
            ],
        }
    }

    fn cfg(n: usize) -> ComposeConfig {
        let mut c = ComposeConfig::new(n, 2, 12);
        c.quantize = false;
        c
    }

    /// A workspace under `composition` that has composed `circles`.
    fn composed(
        circles: &SparseCircles,
        config: ComposeConfig,
        composition: Composition,
    ) -> ComposeWorkspace {
        let mut ws = ComposeWorkspace::new(config, composition);
        ws.compose(circles);
        ws
    }

    fn soft(circles: &SparseCircles, config: ComposeConfig, beta: f64) -> ComposeWorkspace {
        composed(circles, config, Composition::Softmax { beta })
    }

    fn backward(ws: &mut ComposeWorkspace, grad_mask: &Grid2D<f64>) -> Vec<f64> {
        let mut grads = Vec::new();
        ws.backward_into(grad_mask, &mut grads);
        grads
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn high_beta_approaches_hard_max() {
        let circles = two_circles();
        let config = cfg(32);
        let soft = soft(&circles, config, 200.0);
        let hard = composed(&circles, config, Composition::Max);
        for (a, b) in soft.mask().as_slice().iter().zip(hard.mask().as_slice()) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
        assert!(soft.argmax().is_none(), "the softmax routes no argmax");
    }

    #[test]
    fn background_stays_zero() {
        let ws = soft(&two_circles(), cfg(32), BETA);
        assert!(ws.mask()[(0, 0)].abs() < 1e-9);
        assert!(ws.mask()[(31, 31)].abs() < 1e-9);
    }

    #[test]
    fn mask_is_bounded_by_max_activation() {
        let ws = soft(&two_circles(), cfg(32), BETA);
        for &v in ws.mask().as_slice() {
            assert!((-1e-12..=0.9 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn tiled_matches_serial_reference() {
        let circles = two_circles();
        let config = cfg(32);
        let mut ws = soft(&circles, config, BETA);
        let serial = compose_soft_serial(&circles, &config, BETA);
        assert_eq!(ws.mask(), &serial.mask);
        let grad = Grid2D::new(32, 32, 0.7);
        assert_eq!(
            bits(&backward(&mut ws, &grad)),
            bits(&serial.backward_serial(&grad))
        );
    }

    #[test]
    fn zero_activation_circles_still_feed_the_normalizer() {
        // q = 0 circles must not be pruned: e^{β·0} = 1 still joins the
        // softmax normalizer on every covered pixel.
        let mut circles = two_circles();
        circles.circles.push(CircleParams {
            x: 12.3,
            y: 15.1,
            r: 5.2,
            q: 0.0,
        });
        let config = cfg(32);
        let with_zero = soft(&circles, config, BETA);
        let without = soft(&two_circles(), config, BETA);
        assert!(
            with_zero.mask()[(12, 15)] < without.mask()[(12, 15)],
            "the q=0 circle must dilute the softmax"
        );
        let serial = compose_soft_serial(&circles, &config, BETA);
        assert_eq!(with_zero.mask(), &serial.mask);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let n = 32;
        let config = cfg(n);
        let weights: Vec<f64> = (0..n * n)
            .map(|i| ((i as f64 * 0.377).cos() * 0.5 + 0.5) * 0.1)
            .collect();
        let w_grid = Grid2D::from_vec(n, n, weights);
        let j = |circles: &SparseCircles| -> f64 {
            soft(circles, config, BETA)
                .mask()
                .as_slice()
                .iter()
                .zip(w_grid.as_slice())
                .map(|(&m, &w)| m * w)
                .sum()
        };
        let base = two_circles();
        let analytic = backward(&mut soft(&base, config, BETA), &w_grid);
        let eps = 1e-6;
        for p in 0..8 {
            let mut flat = base.to_flat();
            flat[p] += eps;
            let mut plus = base.clone();
            plus.set_from_flat(&flat);
            flat[p] -= 2.0 * eps;
            let mut minus = base.clone();
            minus.set_from_flat(&flat);
            let fd = (j(&plus) - j(&minus)) / (2.0 * eps);
            assert!(
                (fd - analytic[p]).abs() < 2e-4 * fd.abs().max(analytic[p].abs()).max(1.0),
                "param {p}: fd={fd} analytic={}",
                analytic[p]
            );
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_compose_after_shrink() {
        // A workspace that rendered a big mask must fully reset stale
        // tiles (numerator 0, normalizer 1) when the next circle set
        // covers less area.
        let big = SparseCircles {
            circles: (0..6)
                .map(|i| CircleParams {
                    x: 5.0 + 4.0 * i as f64,
                    y: 5.0 + 4.0 * i as f64,
                    r: 6.0,
                    q: 1.0,
                })
                .collect(),
        };
        let small = SparseCircles {
            circles: vec![CircleParams {
                x: 8.0,
                y: 8.0,
                r: 4.0,
                q: 0.7,
            }],
        };
        let config = cfg(32);
        let mut ws = soft(&big, config, BETA);
        ws.compose(&small);
        let mut fresh = soft(&small, config, BETA);
        assert_eq!(ws.mask(), fresh.mask());
        let grad = Grid2D::new(32, 32, 0.4);
        let mut grads = vec![99.0; 2]; // wrong size and stale values
        ws.backward_into(&grad, &mut grads);
        assert_eq!(bits(&grads), bits(&backward(&mut fresh, &grad)));
    }

    #[test]
    fn gradient_reaches_occluded_circles() {
        // Two concentric circles: under hard-max routing only one gets
        // gradient at each pixel; the softmax spreads it to both.
        let circles = SparseCircles {
            circles: vec![
                CircleParams {
                    x: 16.0,
                    y: 16.0,
                    r: 6.0,
                    q: 1.0,
                },
                CircleParams {
                    x: 16.0,
                    y: 16.0,
                    r: 6.0,
                    q: 0.8,
                },
            ],
        };
        let config = cfg(32);
        let grad = Grid2D::new(32, 32, 1.0);
        let g = backward(&mut soft(&circles, config, BETA), &grad);
        assert!(g[7].abs() > 1e-6, "occluded circle's q gradient is zero");
        let gh = backward(&mut composed(&circles, config, Composition::Max), &grad);
        assert_eq!(gh[7], 0.0, "hard max must route past the weaker circle");
    }
}
