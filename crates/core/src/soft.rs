//! Softmax (log-sum-exp–weighted) circle composition — the smooth
//! alternative to the paper's hard max (Eq. 11), used by the
//! `ablation_compose` study.
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
//! The forward pass shares the tile-bucketed engine of
//! [`crate::compose`]: circles are binned by window into [`TILE`]-sized
//! tiles, workers claim active tiles dynamically, and the per-pixel
//! distance rows come from the bit-exact SIMD kernel in [`crate::simd`].
//! Deep-interior pixels (sigmoid provably saturated at `f = 1`) reuse a
//! per-circle cached `e^{βq}` instead of calling `exp` twice per pixel.
//! Unlike the hard max, the softmax **prunes nothing** — a circle
//! with `q = 0` still contributes `e^{β·0} = 1` to every covered pixel's
//! normalizer, so dropping it would change the output. Accumulation
//! order within a pixel follows circle index order in every bucket, so
//! the result stays bit-identical to [`compose_soft_serial`].
//!
//! The backward pass accumulates per-band partial gradients (tile rows
//! claimed dynamically, each band scanning its slice of every circle's
//! window in row-major order) and merges them with a deterministic
//! ascending-band reduction — bit-identical to the band-blocked
//! [`SoftComposite::backward_serial`] at any worker count.
//!
//! [`TILE`]: crate::compose::TILE

use crate::compose::{
    place_circles, ComposeConfig, PlacedCircle, TileGrid, ALPHA, RENDER_GRAIN, TILE,
};
use crate::repr::SparseCircles;
use crate::simd::{fill_dist_row, SIGMOID_SAT};
use cfaopc_fft::parallel::{par_index_claim, DisjointSliceMut};
use cfaopc_grid::Grid2D;
use cfaopc_litho::sigmoid;

/// Dense mask produced by the softmax composition, with the state needed
/// for its backward pass.
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

/// Builds the softmax-composed dense mask on the tiled parallel engine
/// (bit-identical to [`compose_soft_serial`]).
///
/// `beta` controls the sharpness (`beta → ∞` recovers the max
/// composition of [`crate::compose`]).
///
/// Callers composing every iteration should prefer a reused
/// [`SoftWorkspace`], which skips this function's per-call buffer
/// allocations.
pub fn compose_soft(circles: &SparseCircles, config: &ComposeConfig, beta: f64) -> SoftComposite {
    let mut ws = SoftWorkspace::new();
    ws.compose(circles, config, beta);
    ws.into_composite()
}

/// Reusable state for the softmax composition: numerator/normalizer
/// grids, placed circles, tile buckets. Mirrors
/// [`crate::compose::ComposeWorkspace`] so the CircleOpt softmax branch
/// performs **zero steady-state heap allocations** — asserted by
/// `tests/alloc.rs`.
///
/// Reuse is handled with the tile dirty flags: a tile rendered on the
/// previous compose is reset to its background state (numerator 0,
/// normalizer `e^{β·0} = 1`) before accumulation, and a tile untouched
/// both then and now is skipped outright (the in-place `0 / 1` divide is
/// idempotent there), keeping reused results bit-identical to a fresh
/// [`compose_soft`].
#[derive(Debug)]
pub struct SoftWorkspace {
    /// Numerator during render; becomes the mask after the divide.
    mask: Grid2D<f64>,
    norm: Grid2D<f64>,
    placed: Vec<PlacedCircle>,
    tiles: TileGrid,
    partials: Vec<f64>,
    config: Option<ComposeConfig>,
    beta: f64,
}

impl Default for SoftWorkspace {
    fn default() -> Self {
        SoftWorkspace::new()
    }
}

impl SoftWorkspace {
    /// Creates an empty workspace; buffers are sized by the first
    /// [`SoftWorkspace::compose`] call and reused afterwards.
    pub fn new() -> Self {
        SoftWorkspace {
            mask: Grid2D::new(0, 0, 0.0),
            norm: Grid2D::new(0, 0, 1.0),
            placed: Vec::new(),
            tiles: TileGrid::new(),
            partials: Vec::new(),
            config: None,
            beta: 0.0,
        }
    }

    /// Renders the softmax-composed dense mask into the workspace
    /// buffers. Bit-identical to [`compose_soft`] /
    /// [`compose_soft_serial`] whether the workspace is fresh or reused.
    pub fn compose(&mut self, circles: &SparseCircles, config: &ComposeConfig, beta: f64) {
        let n = config.size;
        if self.mask.width() != n || self.mask.height() != n {
            self.mask = Grid2D::new(n, n, 0.0);
            self.norm = Grid2D::new(n, n, 1.0);
        }
        self.config = Some(*config);
        self.beta = beta;
        place_circles(circles, config, &mut self.placed);
        // No pruning here: every circle, even at q ≤ 0, feeds the softmax
        // normalizer, so pruning would change the output.
        self.tiles.bin(&self.placed, config, false);

        let placed = &self.placed;
        let tiles = &self.tiles;
        let tiles_x = tiles.tiles_x();
        let active = tiles.active();
        let total_tiles = tiles_x * n.div_ceil(TILE);
        cfaopc_trace::counters::TILES_RENDERED.add(active.len() as u64);
        cfaopc_trace::counters::TILES_SKIPPED.add((total_tiles - active.len()) as u64);
        let margin = config.window_margin;
        let started = std::time::Instant::now();
        let num_sh = DisjointSliceMut::new(self.mask.as_mut_slice());
        let norm_sh = DisjointSliceMut::new(self.norm.as_mut_slice());
        par_index_claim(active.len(), RENDER_GRAIN, |k| {
            let t = active[k] as usize;
            let (ty, tx) = (t / tiles_x, t % tiles_x);
            let c0 = tx * TILE;
            let c1 = (c0 + TILE).min(n);
            let t_y0 = ty * TILE;
            let t_y1 = (t_y0 + TILE).min(n);
            for y in t_y0..t_y1 {
                // SAFETY: tile `t` is claimed by exactly one worker per
                // region and tiles are disjoint pixel sets, so no other
                // live sub-slice overlaps this row segment.
                #[allow(unsafe_code)]
                let nrow = unsafe { num_sh.slice_mut(y * n + c0, c1 - c0) };
                // SAFETY: as above — same tile, same disjoint segment.
                #[allow(unsafe_code)]
                let zrow = unsafe { norm_sh.slice_mut(y * n + c0, c1 - c0) };
                nrow.fill(0.0);
                zrow.fill(1.0);
            }
            let mut dist = [0.0f64; TILE];
            for &ci in tiles.bucket(t) {
                let pc = &placed[ci as usize];
                let (wx0, wx1, wy0, wy1) = pc
                    .window(n, margin)
                    .expect("binned circles have on-grid windows");
                let x0 = (wx0 as usize).max(c0);
                let x1 = (wx1 as usize + 1).min(c1);
                let y0 = (wy0 as usize).max(t_y0);
                let y1 = (wy1 as usize + 1).min(t_y1);
                if x0 >= x1 {
                    continue;
                }
                let seg_len = x1 - x0;
                // Saturated interior pixels have v = q·1 = q exactly, so
                // their weight e^{βv} is this one per-circle constant.
                let e_sat = (beta * pc.q).exp();
                for y in y0..y1 {
                    let dyv = y as f64 - pc.cy;
                    let seg = &mut dist[..seg_len];
                    fill_dist_row(seg, x0, pc.cx, dyv * dyv);
                    // SAFETY: the segment lies inside tile `t`'s rows,
                    // claimed by this worker alone.
                    #[allow(unsafe_code)]
                    let nrow = unsafe { num_sh.slice_mut(y * n + x0, seg_len) };
                    // SAFETY: as above — same in-tile row segment.
                    #[allow(unsafe_code)]
                    let zrow = unsafe { norm_sh.slice_mut(y * n + x0, seg_len) };
                    for (j, &d) in seg.iter().enumerate() {
                        let t_arg = ALPHA * (pc.r - d);
                        let (v, e) = if t_arg >= SIGMOID_SAT {
                            (pc.q, e_sat) // f = 1.0 exactly
                        } else {
                            let v = pc.q * sigmoid(t_arg);
                            (v, (beta * v).exp())
                        };
                        nrow[j] += v * e;
                        zrow[j] += e;
                    }
                }
            }
        });
        cfaopc_trace::counters::COMPOSE_RENDER_NS.add(started.elapsed().as_nanos() as u64);
        self.tiles.commit_dirty();

        // In-place divide: the numerator grid becomes the mask. Clean
        // skipped tiles hold (0, 1), so re-dividing them is idempotent.
        for (m, &z) in self
            .mask
            .as_mut_slice()
            .iter_mut()
            .zip(self.norm.as_slice())
        {
            *m /= z;
        }
    }

    /// The dense mask `M̄` from the last [`SoftWorkspace::compose`].
    pub fn mask(&self) -> &Grid2D<f64> {
        &self.mask
    }

    /// Backward pass into a caller-owned buffer, resized to `4n` and
    /// fully overwritten — the allocation-free counterpart of
    /// [`SoftComposite::backward`]. The band-partial scratch buffer
    /// lives in the workspace (hence `&mut self`), so steady-state
    /// iterations stay allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if [`SoftWorkspace::compose`] has not been called, or on a
    /// gradient shape mismatch.
    pub fn backward_into(&mut self, grad_mask: &Grid2D<f64>, grads: &mut Vec<f64>) {
        let config = self
            .config
            .as_ref()
            .expect("backward_into requires a prior compose");
        grads.clear();
        grads.resize(self.placed.len() * 4, 0.0);
        backward_soft_into(
            &self.placed,
            config,
            self.beta,
            &self.mask,
            &self.norm,
            grad_mask,
            &mut self.partials,
            grads,
        );
    }

    /// Consumes the workspace into an owned [`SoftComposite`].
    ///
    /// # Panics
    ///
    /// Panics if [`SoftWorkspace::compose`] has not been called.
    pub fn into_composite(self) -> SoftComposite {
        SoftComposite {
            config: self
                .config
                .expect("into_composite requires a prior compose"),
            mask: self.mask,
            norm: self.norm,
            placed: self.placed,
            beta: self.beta,
        }
    }
}

/// Distance-row scratch length for the backward band scans: windows can
/// be wider than a tile, so rows are processed in chunks of this many
/// pixels (chunking is invisible to the math — every chunk runs the
/// same bit-exact kernel).
const DIST_SEG: usize = 2 * TILE;

/// Fused backward pass shared by [`SoftComposite::backward`] and
/// [`SoftWorkspace::backward_into`].
///
/// Bands (tile rows) are claimed dynamically; each band task scans its
/// slice of every circle's window row-major, accumulating into that
/// band's private partial-gradient block, and a deterministic
/// ascending-band reduction merges the partials and applies the STE
/// gates — the same summation tree as the band-blocked
/// [`SoftComposite::backward_serial`], so the result is bit-identical
/// to it at any worker count. Saturated interior pixels (`f = 1`
/// exactly, `h = 0`) reuse the per-circle `e^{βq}` weight and
/// contribute only to `∂q`; the zero x/y/r terms the serial reference
/// adds explicitly can at most flip a zero's sign, which compares
/// equal.
#[allow(clippy::too_many_arguments)] // internal: mask/norm/grad_mask are one fixed forward-state set
fn backward_soft_into(
    placed: &[PlacedCircle],
    config: &ComposeConfig,
    beta: f64,
    mask: &Grid2D<f64>,
    norm: &Grid2D<f64>,
    grad_mask: &Grid2D<f64>,
    partials: &mut Vec<f64>,
    grads: &mut [f64],
) {
    let n = config.size;
    assert!(
        grad_mask.width() == n && grad_mask.height() == n,
        "gradient shape mismatch"
    );
    debug_assert_eq!(grads.len(), placed.len() * 4);
    if placed.is_empty() {
        return;
    }
    let bands = n.div_ceil(TILE);
    let stride = placed.len() * 4;
    partials.clear();
    partials.resize(bands * stride, 0.0);
    let margin = config.window_margin;
    let m = mask.as_slice();
    let z = norm.as_slice();
    let gm = grad_mask.as_slice();
    let started = std::time::Instant::now();
    let part_sh = DisjointSliceMut::new(partials.as_mut_slice());
    par_index_claim(bands, 1, |b| {
        // SAFETY: band `b` is claimed by exactly one worker per region
        // and bands own disjoint `stride`-sized partial blocks.
        #[allow(unsafe_code)]
        let part = unsafe { part_sh.slice_mut(b * stride, stride) };
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
    });
    cfaopc_trace::counters::BACKWARD_SCAN_NS.add(started.elapsed().as_nanos() as u64);

    let merge_started = std::time::Instant::now();
    for (i, pc) in placed.iter().enumerate() {
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
    cfaopc_trace::counters::BACKWARD_MERGE_NS.add(merge_started.elapsed().as_nanos() as u64);
}

/// The retained serial reference implementation of [`compose_soft`]: one
/// flat pass per circle, no tiling, no parallelism. Ground truth for the
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
    /// Backward pass: chain `∂L/∂M̄` into the flat `4n` parameter
    /// gradient, spreading each pixel's gradient across *all* circles
    /// covering it (softmax weights), unlike the paper's argmax routing.
    ///
    /// Bands (tile rows) run in parallel, each accumulating private
    /// partial gradients merged by a deterministic ascending-band
    /// reduction; bit-identical to [`SoftComposite::backward_serial`].
    ///
    /// Callers iterating should prefer [`SoftWorkspace::backward_into`],
    /// which reuses the band-partial scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics on a gradient shape mismatch.
    pub fn backward(&self, grad_mask: &Grid2D<f64>) -> Vec<f64> {
        let mut grads = vec![0.0f64; self.placed.len() * 4];
        let mut partials = Vec::new();
        backward_soft_into(
            &self.placed,
            &self.config,
            self.beta,
            &self.mask,
            &self.norm,
            grad_mask,
            &mut partials,
            &mut grads,
        );
        grads
    }

    /// The retained serial reference for [`SoftComposite::backward`].
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
    use crate::compose::compose;
    use crate::repr::CircleParams;

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

    #[test]
    fn high_beta_approaches_hard_max() {
        let circles = two_circles();
        let config = cfg(32);
        let soft = compose_soft(&circles, &config, 200.0);
        let hard = compose(&circles, &config);
        for (a, b) in soft.mask.as_slice().iter().zip(hard.mask.as_slice()) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn background_stays_zero() {
        let circles = two_circles();
        let soft = compose_soft(&circles, &cfg(32), 20.0);
        assert!(soft.mask[(0, 0)].abs() < 1e-9);
        assert!(soft.mask[(31, 31)].abs() < 1e-9);
    }

    #[test]
    fn mask_is_bounded_by_max_activation() {
        let circles = two_circles();
        let soft = compose_soft(&circles, &cfg(32), 20.0);
        for &v in soft.mask.as_slice() {
            assert!((-1e-12..=0.9 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn tiled_matches_serial_reference() {
        let circles = two_circles();
        let config = cfg(32);
        let soft = compose_soft(&circles, &config, 20.0);
        let serial = compose_soft_serial(&circles, &config, 20.0);
        assert_eq!(soft.mask, serial.mask);
        assert_eq!(soft.norm, serial.norm);
        let grad = Grid2D::new(32, 32, 0.7);
        assert_eq!(soft.backward(&grad), serial.backward_serial(&grad));
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
        let with_zero = compose_soft(&circles, &config, 20.0);
        let without = compose_soft(&two_circles(), &config, 20.0);
        assert!(
            with_zero.mask[(12, 15)] < without.mask[(12, 15)],
            "the q=0 circle must dilute the softmax"
        );
        let serial = compose_soft_serial(&circles, &config, 20.0);
        assert_eq!(with_zero.mask, serial.mask);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let n = 32;
        let config = cfg(n);
        let beta = 20.0;
        let weights: Vec<f64> = (0..n * n)
            .map(|i| ((i as f64 * 0.377).cos() * 0.5 + 0.5) * 0.1)
            .collect();
        let w_grid = Grid2D::from_vec(n, n, weights);
        let j = |circles: &SparseCircles| -> f64 {
            compose_soft(circles, &config, beta)
                .mask
                .as_slice()
                .iter()
                .zip(w_grid.as_slice())
                .map(|(&m, &w)| m * w)
                .sum()
        };
        let base = two_circles();
        let analytic = compose_soft(&base, &config, beta).backward(&w_grid);
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
        let mut ws = SoftWorkspace::new();
        ws.compose(&big, &config, 20.0);
        ws.compose(&small, &config, 20.0);
        let fresh = compose_soft(&small, &config, 20.0);
        assert_eq!(ws.mask(), &fresh.mask);
        let grad = Grid2D::new(32, 32, 0.4);
        let mut grads = vec![99.0; 2]; // wrong size and stale values
        ws.backward_into(&grad, &mut grads);
        assert_eq!(grads, fresh.backward(&grad));
    }

    #[test]
    fn workspace_backward_matches_composite_backward() {
        let circles = two_circles();
        let config = cfg(32);
        let mut ws = SoftWorkspace::new();
        ws.compose(&circles, &config, 20.0);
        let grad = Grid2D::new(32, 32, 0.3);
        let mut grads = Vec::new();
        ws.backward_into(&grad, &mut grads);
        let reference = compose_soft(&circles, &config, 20.0).backward(&grad);
        assert_eq!(grads, reference);
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
        let soft = compose_soft(&circles, &config, 20.0);
        let grad = Grid2D::new(32, 32, 1.0);
        let g = soft.backward(&grad);
        assert!(g[7].abs() > 1e-6, "occluded circle's q gradient is zero");
        let hard = compose(&circles, &config);
        let gh = hard.backward(&grad);
        assert_eq!(gh[7], 0.0, "hard max must route past the weaker circle");
    }
}
