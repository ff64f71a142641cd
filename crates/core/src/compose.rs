//! The differentiable circle-to-pixel transformation (paper Eq. 10–14),
//! implemented as a **tile-bucketed, parallel, allocation-free engine**.
//!
//! Forward: every circle contributes a *circular window*
//! `f(x,y) = σ(α(r′ − ‖(x,y) − (x′,y′)‖))` (Eq. 10) and the dense mask is
//! the per-pixel maximum of the activated windows,
//! `M̄(x,y) = maxᵢ qᵢ fᵢ(x,y)` (Eq. 11). The winning circle index is
//! recorded per pixel so the backward pass can route gradients only
//! through the argmax, exactly as Eq. 12–14 prescribe.
//!
//! Backward: given `∂L/∂M̄`, accumulate per-circle gradients over the
//! window `U` — a square marginally larger than the circle's diameter
//! (Eq. 16 and the paper's memory/compute rationale):
//!
//! ```text
//! ∂M̄/∂xᵢ = α qᵢ h (x − xᵢ′)/d · 𝟙[0,W](xᵢ)     (h = f(1−f), d = distance)
//! ∂M̄/∂rᵢ = α qᵢ h · 𝟙[Rmin,Rmax](rᵢ)
//! ∂M̄/∂qᵢ = f
//! ```
//!
//! # Engine
//!
//! Work scales with **active shot area**, not grid area:
//!
//! * Placed circles are binned into fixed [`TILE`]`×`[`TILE`] buckets by
//!   their window `U`. Tiles no circle touches are skipped outright —
//!   they are neither cleared nor rendered (a per-tile dirty flag clears
//!   tiles that *were* covered on the previous use of a workspace).
//! * The **active tiles** (non-empty bucket now, or dirty from the
//!   previous render) form a worklist that workers claim dynamically
//!   (`par_index_claim` on the persistent pool), so sparse circle sets
//!   never pay for empty bands and clustered sets self-balance. Tiles
//!   are disjoint pixel sets, so the claimed writes (through a
//!   [`DisjointSliceMut`] row-segment view) are race-free, and within a
//!   bucket circles keep their index order, so per-pixel max updates
//!   replay the serial sequence exactly: the result is **bit-identical**
//!   to the retained serial reference ([`compose_serial`]) for every
//!   worker count.
//! * The per-pixel distance rows are computed by the AVX2 kernel in
//!   [`crate::simd`] (bit-exact, scalar fallback elsewhere), and the
//!   sigmoid skips its `exp` for provably saturated interior pixels.
//! * Circles with activation `q ≤ 0` are skipped entirely. That is
//!   *exact*: a non-positive activation can never win a pixel (the max
//!   starts at the 0 background) and therefore never receives lithography
//!   gradient, so work shrinks for free as the Lasso regularizer
//!   (Eq. 17) drives activations negative.
//! * The backward pass is **fused with the forward routing**: one
//!   pixel-major sweep over the content tiles reuses the argmax winners,
//!   accumulating per-band partial gradients that a deterministic
//!   ascending-band reduction merges into the flat gradient vector.
//!   Bands scan row-major (y, then ascending tiles, then x), which visits
//!   each circle's winning pixels in exactly the order the band-blocked
//!   serial reference ([`Composite::backward_serial`]) accumulates them,
//!   so the parallel pass is bit-identical to it at any worker count.
//!
//! [`ComposeWorkspace`] owns every buffer (mask, argmax, placed circles,
//! tile buckets, band partials, parameter gradients) so the CircleOpt
//! inner loop is allocation-free after the first iteration.

use crate::repr::{CircleParams, SparseCircles};
use crate::simd::{fill_dist_row, sigmoid_sat, SIGMOID_SAT};
use crate::ste::ste;
use cfaopc_fft::parallel::{par_index_claim, DisjointSliceMut};
use cfaopc_grid::Grid2D;
use cfaopc_litho::sigmoid;

/// Edge length, in pixels, of the square tiles the composition engine
/// buckets circles into. 32² pixels keeps a tile's mask and argmax rows
/// within a few cache lines while giving the dynamic scheduler enough
/// bands to balance (a 1024² grid has 32 bands).
pub const TILE: usize = 32;

/// Steepness `α` of the circular window (paper §5).
pub(crate) const ALPHA: f64 = 8.0;

/// Default halfwidth of the gradient window `U` beyond the radius, px
/// (the paper: a square "marginally larger than the diameter").
const WINDOW_MARGIN: i32 = 3;

/// Parameters of the circle-to-pixel transformation (window steepness
/// `α = 8`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposeConfig {
    /// Halfwidth of the gradient window `U` beyond the radius, pixels.
    pub window_margin: i32,
    /// Grid width (= height) in pixels; also the STE clip bound for
    /// centers.
    pub size: usize,
    /// Minimum radius (STE clip bound), pixels.
    pub r_min: i32,
    /// Maximum radius (STE clip bound), pixels.
    pub r_max: i32,
    /// Quantize centers/radii through the STE (production behaviour).
    /// `false` keeps them continuous — used by the finite-difference
    /// tests to validate Eq. 12–14 without the rounding staircase.
    pub quantize: bool,
    /// Apply the STE indicator gates of Eq. 9 (block gradients outside
    /// the clip range). Disabling this is the `ablation_ste` study:
    /// parameters then drift past the writer's limits.
    pub clip_gates: bool,
}

impl ComposeConfig {
    /// Standard configuration for a `size × size` grid.
    pub fn new(size: usize, r_min: i32, r_max: i32) -> Self {
        ComposeConfig {
            window_margin: WINDOW_MARGIN,
            size,
            r_min,
            r_max,
            quantize: true,
            clip_gates: true,
        }
    }
}

/// One circle after (optional) STE quantization, with backward gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlacedCircle {
    pub(crate) cx: f64,
    pub(crate) cy: f64,
    pub(crate) r: f64,
    pub(crate) q: f64,
    pub(crate) gate_x: f64,
    pub(crate) gate_y: f64,
    pub(crate) gate_r: f64,
}

impl PlacedCircle {
    fn place(c: &CircleParams, config: &ComposeConfig) -> Self {
        if config.quantize {
            let n = config.size;
            let sx = ste(c.x, 0.0, (n - 1) as f64);
            let sy = ste(c.y, 0.0, (n - 1) as f64);
            let sr = ste(c.r, config.r_min as f64, config.r_max as f64);
            let (gate_x, gate_y, gate_r) = if config.clip_gates {
                (sx.gate, sy.gate, sr.gate)
            } else {
                (1.0, 1.0, 1.0)
            };
            PlacedCircle {
                cx: sx.value as f64,
                cy: sy.value as f64,
                r: sr.value as f64,
                q: c.q,
                gate_x,
                gate_y,
                gate_r,
            }
        } else {
            PlacedCircle {
                cx: c.x,
                cy: c.y,
                r: c.r,
                q: c.q,
                gate_x: 1.0,
                gate_y: 1.0,
                gate_r: 1.0,
            }
        }
    }

    /// The circle's clipped window `U` as inclusive pixel bounds
    /// `(x0, x1, y0, y1)`, or `None` when the window misses the grid
    /// entirely. The explicit rejection matters for unquantized circles
    /// pushed far off-grid (`cx.round() + half < 0`): the old code leaned
    /// on `max`/`min` producing an inverted empty range, which tile
    /// binning cannot tolerate.
    pub(crate) fn window(&self, n: usize, margin: i32) -> Option<(i32, i32, i32, i32)> {
        let half = self.r.ceil() as i32 + margin;
        let cx = self.cx.round() as i32;
        let cy = self.cy.round() as i32;
        let (x0, x1) = (cx - half, cx + half);
        let (y0, y1) = (cy - half, cy + half);
        if half < 0 || x1 < 0 || y1 < 0 || x0 >= n as i32 || y0 >= n as i32 {
            return None;
        }
        Some((
            x0.max(0),
            x1.min(n as i32 - 1),
            y0.max(0),
            y1.min(n as i32 - 1),
        ))
    }
}

/// Quantizes every circle (honouring `config.quantize`/`clip_gates`) into
/// `out`, reusing its allocation.
pub(crate) fn place_circles(
    circles: &SparseCircles,
    config: &ComposeConfig,
    out: &mut Vec<PlacedCircle>,
) {
    out.clear();
    out.extend(
        circles
            .circles
            .iter()
            .map(|c| PlacedCircle::place(c, config)),
    );
}

/// Tile buckets: which circles touch which [`TILE`]`×`[`TILE`] tile, plus
/// a dirty flag per tile so a reused workspace only clears tiles that
/// held content on the previous render.
///
/// The buckets are one flat index array in tile order, bucket `t` being
/// `indices[start[t]..start[t + 1]]` (a counting sort: per-tile counts,
/// their prefix sums, then the indices). Its capacity is reserved for
/// every circle touching the most tiles a window can touch, so a run
/// whose circles move, grow or come back above the activation floor
/// never reallocates it after its first `bin`.
#[derive(Debug, Default)]
pub(crate) struct TileGrid {
    size: usize,
    tiles_x: usize,
    /// Bucket `t` is `indices[start[t]..start[t + 1]]`; `tiles + 1`
    /// entries.
    start: Vec<u32>,
    /// Each tile's next free slot while [`TileGrid::bin`] fills.
    cursor: Vec<u32>,
    indices: Vec<u32>,
    dirty: Vec<bool>,
    /// Worklist rebuilt by [`TileGrid::bin`]: tiles whose bucket is
    /// non-empty *or* whose dirty flag is set — exactly the tiles the
    /// renderer must touch (clear and/or draw).
    active: Vec<u32>,
}

impl TileGrid {
    pub(crate) fn new() -> Self {
        TileGrid::default()
    }

    fn reset(&mut self, n: usize) {
        if self.size != n {
            let tx = n.div_ceil(TILE);
            self.size = n;
            self.tiles_x = tx;
            self.start.clear();
            self.start.resize(tx * tx + 1, 0);
            self.cursor.clear();
            self.cursor.resize(tx * tx, 0);
            // Every tile of the new geometry starts *dirty*: a workspace
            // alternating between sizes (n₁ → n₂ → n₁) can still hold
            // pixels from the previous same-sized render, and the flags
            // that tracked them were discarded on the first resize.
            // Forcing one full clear round makes correctness independent
            // of whether the owning workspace also reallocates its
            // grids (it does, but nothing should lean on that).
            self.dirty.clear();
            self.dirty.resize(tx * tx, true);
            self.active.clear();
            self.active.reserve(tx * tx);
        }
    }

    /// The most tiles one placed circle's window can touch along an
    /// axis: its span is at most `2·(r_max + margin) + 1` pixels when the
    /// STE clips radii to `r_max`, and any span touches at most
    /// `⌈(span − 1)/TILE⌉ + 1` tiles. Unquantized radii are unbounded, so
    /// there it is the whole grid.
    fn max_tiles_per_axis(&self, config: &ComposeConfig) -> usize {
        if !config.quantize {
            return self.tiles_x;
        }
        let span = (2 * (config.r_max + config.window_margin) + 1).max(1) as usize;
        ((span - 1).div_ceil(TILE) + 1).min(self.tiles_x)
    }

    /// The tiles `pc`'s window touches, row-major; none when it misses
    /// the grid.
    fn tiles_of(
        pc: &PlacedCircle,
        n: usize,
        margin: i32,
        tiles_x: usize,
    ) -> impl Iterator<Item = usize> {
        pc.window(n, margin)
            .into_iter()
            .flat_map(move |(x0, x1, y0, y1)| {
                let xs = x0 as usize / TILE..=x1 as usize / TILE;
                (y0 as usize / TILE..=y1 as usize / TILE)
                    .flat_map(move |ty| xs.clone().map(move |tx| ty * tiles_x + tx))
            })
    }

    /// Bins circles into tile buckets by their window `U`, preserving
    /// circle index order within each bucket (which is what keeps tiled
    /// rendering bit-identical to the serial reference). Circles with an
    /// off-grid window are dropped, and with `prune` (the hard max) so
    /// are circles with `q ≤ 0`.
    pub(crate) fn bin(&mut self, placed: &[PlacedCircle], config: &ComposeConfig, prune: bool) {
        let (n, margin) = (config.size, config.window_margin);
        self.reset(n);
        let tiles_x = self.tiles_x;
        let kept = |pc: &PlacedCircle| !prune || pc.q > 0.0;
        // Count each tile's circles into `start[t + 1]`, then prefix-sum.
        self.start.fill(0);
        let mut pruned = 0u64;
        for pc in placed {
            if !kept(pc) {
                pruned += 1;
                continue;
            }
            for t in Self::tiles_of(pc, n, margin, tiles_x) {
                self.start[t + 1] += 1;
            }
        }
        for t in 1..self.start.len() {
            self.start[t] += self.start[t - 1];
        }
        let per_axis = self.max_tiles_per_axis(config);
        self.indices.clear();
        self.indices.reserve(placed.len() * per_axis * per_axis);
        self.indices
            .resize(self.start.last().map_or(0, |&e| e as usize), 0);
        // Fill in circle order, so every bucket keeps ascending indices.
        let tiles = self.cursor.len();
        self.cursor.copy_from_slice(&self.start[..tiles]);
        for (i, pc) in placed.iter().enumerate().filter(|(_, pc)| kept(pc)) {
            for t in Self::tiles_of(pc, n, margin, tiles_x) {
                self.indices[self.cursor[t] as usize] = i as u32;
                self.cursor[t] += 1;
            }
        }
        self.active.clear();
        for t in 0..tiles {
            if !self.bucket(t).is_empty() || self.dirty[t] {
                self.active.push(t as u32);
            }
        }
        cfaopc_trace::counters::CIRCLES_PRUNED.add(pruned);
    }

    /// The tiles the renderer must touch (content now, or stale content
    /// to clear), in row-major tile order.
    pub(crate) fn active(&self) -> &[u32] {
        &self.active
    }

    /// The circle indices binned into tile `t` (row-major tile order).
    pub(crate) fn bucket(&self, t: usize) -> &[u32] {
        &self.indices[self.start[t] as usize..self.start[t + 1] as usize]
    }

    /// Number of tiles along one grid edge after the last bin.
    pub(crate) fn tiles_x(&self) -> usize {
        self.tiles_x
    }

    /// Records which tiles now hold content, for the next render's
    /// skip-or-clear decision.
    pub(crate) fn commit_dirty(&mut self) {
        for (t, d) in self.dirty.iter_mut().enumerate() {
            *d = self.start[t + 1] > self.start[t];
        }
    }
}

/// How many active tiles one scheduler claim hands a worker. Small
/// enough to balance clustered layouts, large enough that the atomic
/// claim cost is amortized over ~4 KiB of rendered pixels.
pub(crate) const RENDER_GRAIN: usize = 4;

/// Per-radius sigmoid/distance lookup tables for quantized renders.
///
/// With `quantize = true` every placed circle has an integer center and
/// radius, so a window pixel's squared center distance `dx² + dy²` is a
/// small exact integer (at most `2·(r_max + margin)²`) and the window
/// sigmoid depends only on the pair `(r, d²)`. Tabulating
/// `d = √d²` and `f = σ(α(r − d))` for every reachable pair replaces
/// the per-pixel sqrt + exp with two L1-resident loads. Each entry is
/// computed with the exact expression tree the serial reference
/// evaluates per pixel — same integer-valued inputs, same operations —
/// so lookups are bit-identical by construction, not by approximation.
#[derive(Debug, Default)]
pub(crate) struct SigmaTable {
    r_min: i32,
    r_max: i32,
    margin: i32,
    /// `dtable[d²] = (d² as f64).sqrt()`.
    dtable: Vec<f64>,
    /// `ftable[(r − r_min)·(cap + 1) + d²] = σ(α·(r − dtable[d²]))`.
    ftable: Vec<f64>,
    /// Largest reachable `d²`: `2·(r_max + margin)²`.
    cap: usize,
}

impl SigmaTable {
    /// Rebuilds the tables when the governing config fields changed;
    /// no-op (and allocation-free) otherwise.
    pub(crate) fn ensure(&mut self, config: &ComposeConfig) {
        if self.r_min == config.r_min
            && self.r_max == config.r_max
            && self.margin == config.window_margin
            && !self.ftable.is_empty()
        {
            return;
        }
        self.r_min = config.r_min;
        self.r_max = config.r_max;
        self.margin = config.window_margin;
        let half = (config.r_max + config.window_margin).max(0) as usize;
        self.cap = 2 * half * half;
        self.dtable.clear();
        self.dtable
            .extend((0..=self.cap).map(|d2| (d2 as f64).sqrt()));
        let nr = (config.r_max - config.r_min).max(0) as usize + 1;
        self.ftable.clear();
        self.ftable.reserve(nr * (self.cap + 1));
        for ri in 0..nr {
            let r = (config.r_min + ri as i32) as f64;
            self.ftable
                .extend(self.dtable.iter().map(|&d| sigmoid(ALPHA * (r - d))));
        }
    }

    /// The `(f, d)` lookup rows for an integer-valued radius `r`. An
    /// out-of-range radius (impossible for STE-clipped circles) panics
    /// on the slice bound rather than reading a neighbouring radius row.
    fn rows(&self, r: f64) -> (&[f64], &[f64]) {
        let ri = (r as i64 - self.r_min as i64) as usize;
        let base = ri * (self.cap + 1);
        (&self.ftable[base..base + self.cap + 1], &self.dtable)
    }
}

/// Renders the hard-max composition over the active-tile worklist,
/// tiles claimed dynamically by the worker pool.
///
/// Every active tile is cleared and re-rendered from its bucket;
/// inactive tiles (untouched now *and* on the previous render) are never
/// visited. Tiles are disjoint pixel sets and each worklist index is
/// claimed exactly once per region, so the row-segment writes below are
/// race-free and the result is bit-identical to [`compose_serial`] at
/// any worker count.
///
/// Alongside mask and argmax, the render records each winning pixel's
/// sigmoid value and center distance into `fwin`/`dwin` — the exact
/// intermediates the backward pass would otherwise recompute (one sqrt
/// and one exp per winner). The caches carry no validity state of their
/// own: they are written exactly when argmax is, and the backward sweep
/// reads them only where `argmax ≥ 0`, so they never need clearing.
#[allow(clippy::too_many_arguments)] // internal: mask/argmax/fwin/dwin are one logical output set
fn render_max(
    placed: &[PlacedCircle],
    config: &ComposeConfig,
    tiles: &TileGrid,
    table: Option<&SigmaTable>,
    mask: &mut [f64],
    argmax: &mut [i32],
    fwin: &mut [f64],
    dwin: &mut [f64],
) {
    let n = config.size;
    let tiles_x = tiles.tiles_x;
    let active = tiles.active();
    let total_tiles = tiles_x * n.div_ceil(TILE);
    cfaopc_trace::counters::TILES_RENDERED.add(active.len() as u64);
    cfaopc_trace::counters::TILES_SKIPPED.add((total_tiles - active.len()) as u64);
    let margin = config.window_margin;
    let started = std::time::Instant::now();
    let mask_sh = DisjointSliceMut::new(mask);
    let arg_sh = DisjointSliceMut::new(argmax);
    let fw_sh = DisjointSliceMut::new(fwin);
    let dw_sh = DisjointSliceMut::new(dwin);
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
            let mrow = unsafe { mask_sh.slice_mut(y * n + c0, c1 - c0) };
            // SAFETY: as above — same tile, same disjoint row segment.
            #[allow(unsafe_code)]
            let arow = unsafe { arg_sh.slice_mut(y * n + c0, c1 - c0) };
            mrow.fill(0.0);
            arow.fill(-1);
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
            let lookup = table.map(|tb| tb.rows(pc.r));
            for y in y0..y1 {
                let dyv = y as f64 - pc.cy;
                // SAFETY: the segment lies inside tile `t`'s rows
                // (window intersected with the tile), claimed by this
                // worker alone; no other sub-slice is alive.
                #[allow(unsafe_code)]
                let mrow = unsafe { mask_sh.slice_mut(y * n + x0, seg_len) };
                // SAFETY: as above — same in-tile row segment.
                #[allow(unsafe_code)]
                let arow = unsafe { arg_sh.slice_mut(y * n + x0, seg_len) };
                // SAFETY: as above — same in-tile row segment.
                #[allow(unsafe_code)]
                let frow = unsafe { fw_sh.slice_mut(y * n + x0, seg_len) };
                // SAFETY: as above — same in-tile row segment.
                #[allow(unsafe_code)]
                let drow = unsafe { dw_sh.slice_mut(y * n + x0, seg_len) };
                if let Some((ft, dt)) = lookup {
                    // Quantized render: d² is a small exact integer, so
                    // the sigmoid and distance come from the lookup
                    // tables — no sqrt, no exp, bit-identical entries.
                    let dy2 = dyv * dyv;
                    for j in 0..seg_len {
                        // v = q·f ≤ q (f ≤ 1, rounding is monotone), so
                        // a circle whose activation does not exceed the
                        // running max can never win: skip the lookup.
                        if pc.q <= mrow[j] {
                            continue;
                        }
                        let dxv = (x0 + j) as f64 - pc.cx;
                        let idx = (dxv * dxv + dy2) as usize;
                        let f = ft[idx];
                        let v = pc.q * f;
                        if v > mrow[j] {
                            mrow[j] = v;
                            arow[j] = ci as i32;
                            frow[j] = f;
                            drow[j] = dt[idx];
                        }
                    }
                    continue;
                }
                let seg = &mut dist[..seg_len];
                fill_dist_row(seg, x0, pc.cx, dyv * dyv);
                for (j, &d) in seg.iter().enumerate() {
                    // Same early-skip as above: q ≤ running max can
                    // never produce a strictly greater v. The serial
                    // reference evaluates the sigmoid anyway and reaches
                    // the same (no-update) outcome.
                    if pc.q <= mrow[j] {
                        continue;
                    }
                    let f = sigmoid_sat(ALPHA * (pc.r - d));
                    let v = pc.q * f;
                    if v > mrow[j] {
                        mrow[j] = v;
                        arow[j] = ci as i32;
                        frow[j] = f;
                        drow[j] = d;
                    }
                }
            }
        }
    });
    cfaopc_trace::counters::COMPOSE_RENDER_NS.add(started.elapsed().as_nanos() as u64);
}

/// Fused backward pass shared by [`Composite::backward`] and
/// [`ComposeWorkspace::backward_into`]: a single pixel-major sweep that
/// reuses the forward argmax routing instead of re-scanning every
/// circle's window.
///
/// Bands (tile rows) are claimed dynamically; each band task scans its
/// rows left to right across content tiles and scatters each winning
/// pixel's contribution into that band's private partial-gradient block
/// (`4·n_circles` lanes). A deterministic ascending-band reduction then
/// merges the partials and applies the STE gates. Because the band scan
/// visits circle `i`'s winning pixels in (y, x) order — the same order
/// the band-blocked serial reference accumulates them — and the merge
/// tree is fixed, the result is bit-identical to
/// [`Composite::backward_serial`] at any worker count.
///
/// `content`: when the caller owns the tile buckets, tiles with empty
/// buckets are skipped (they cannot hold winners); `None` scans every
/// tile, which is equivalent but slower.
///
/// `winners`: the forward sweep's per-pixel `(f, d)` caches when the
/// caller kept them ([`ComposeWorkspace`] does). A cached winner costs
/// no sqrt and no exp — saturated pixels (`f = 1.0` exactly, so
/// `h = f(1−f) = 0`) collapse to `∂q += g` outright, and ring pixels
/// reuse the recorded sigmoid and distance bit-for-bit. Without caches
/// the sweep recomputes both, with a conservative interior shortcut:
/// once `d² ≤ (r − SAT/α − 1)²` the sigmoid is provably saturated. The
/// serial reference adds the saturated zero terms explicitly; skipping
/// them can only flip a gradient's zero sign (`-0.0` vs `0.0`), which
/// compares equal.
#[allow(clippy::too_many_arguments)] // internal: the argmax/content/winners trio is one routing input
fn backward_fused_into(
    placed: &[PlacedCircle],
    config: &ComposeConfig,
    argmax: &Grid2D<i32>,
    grad_mask: &Grid2D<f64>,
    content: Option<&TileGrid>,
    winners: Option<(&[f64], &[f64])>,
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
    let tiles_x = n.div_ceil(TILE);
    let stride = placed.len() * 4;
    partials.clear();
    partials.resize(bands * stride, 0.0);
    let am = argmax.as_slice();
    let gm = grad_mask.as_slice();
    let started = std::time::Instant::now();
    let part_sh = DisjointSliceMut::new(partials.as_mut_slice());
    par_index_claim(bands, 1, |b| {
        // SAFETY: band `b` is claimed by exactly one worker per region
        // and bands own disjoint `stride`-sized blocks of the partials
        // buffer.
        #[allow(unsafe_code)]
        let part = unsafe { part_sh.slice_mut(b * stride, stride) };
        let y0 = b * TILE;
        let y1 = (y0 + TILE).min(n);
        for y in y0..y1 {
            let row = y * n;
            for tx in 0..tiles_x {
                if let Some(tiles) = content {
                    if tiles.bucket(b * tiles_x + tx).is_empty() {
                        continue; // no circle rendered here: no winners
                    }
                }
                let x0 = tx * TILE;
                let x1 = (x0 + TILE).min(n);
                for x in x0..x1 {
                    let w = am[row + x];
                    if w < 0 {
                        continue;
                    }
                    let pc = &placed[w as usize];
                    let g = gm[row + x];
                    let slot = 4 * w as usize;
                    let (f, d) = if let Some((fc, dc)) = winners {
                        let f = fc[row + x];
                        if f == 1.0 {
                            // Saturated winner: h = f(1−f) = 0 exactly.
                            part[slot + 3] += g;
                            continue;
                        }
                        (f, dc[row + x])
                    } else {
                        let dx = x as f64 - pc.cx;
                        let dy = y as f64 - pc.cy;
                        let d2 = dx * dx + dy * dy;
                        let r_in = pc.r - SIGMOID_SAT / ALPHA - 1.0;
                        if r_in > 0.0 && d2 <= r_in * r_in {
                            // Saturated interior: f = 1 exactly, h = 0.
                            part[slot + 3] += g;
                            continue;
                        }
                        let d = d2.sqrt();
                        (sigmoid_sat(ALPHA * (pc.r - d)), d)
                    };
                    let dx = x as f64 - pc.cx;
                    let dy = y as f64 - pc.cy;
                    let h = f * (1.0 - f);
                    if d > 1e-9 {
                        part[slot] += g * ALPHA * pc.q * h * (dx / d);
                        part[slot + 1] += g * ALPHA * pc.q * h * (dy / d);
                    }
                    part[slot + 2] += g * ALPHA * pc.q * h;
                    part[slot + 3] += g * f;
                }
            }
        }
    });
    cfaopc_trace::counters::BACKWARD_SCAN_NS.add(started.elapsed().as_nanos() as u64);

    // Ordered reduction: ascending bands, then the STE gates — the same
    // fixed merge tree the serial reference uses, at every worker count.
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

/// Reusable state for the tiled composition engine: mask, argmax, placed
/// circles, tile buckets and the parameter-gradient buffer all live here,
/// so the CircleOpt inner loop performs **zero steady-state heap
/// allocations** in the circle→pixel direction.
///
/// # Examples
///
/// ```
/// use cfaopc_core::{CircleParams, ComposeConfig, ComposeWorkspace, SparseCircles};
/// use cfaopc_grid::Grid2D;
///
/// let circles = SparseCircles {
///     circles: vec![CircleParams { x: 16.0, y: 16.0, r: 6.0, q: 1.0 }],
/// };
/// let config = ComposeConfig::new(32, 3, 19);
/// let mut ws = ComposeWorkspace::new();
/// ws.compose(&circles, &config);
/// assert!(ws.mask()[(16, 16)] > 0.99);
/// let grad = Grid2D::new(32, 32, 1.0);
/// let mut grads = Vec::new();
/// ws.backward_into(&grad, &mut grads);
/// assert_eq!(grads.len(), 4);
/// ```
#[derive(Debug)]
pub struct ComposeWorkspace {
    mask: Grid2D<f64>,
    argmax: Grid2D<i32>,
    placed: Vec<PlacedCircle>,
    tiles: TileGrid,
    partials: Vec<f64>,
    /// Winning pixels' sigmoid values, written by the render alongside
    /// argmax; read by the fused backward (valid wherever `argmax ≥ 0`).
    fwin: Vec<f64>,
    /// Winning pixels' center distances (same validity as `fwin`).
    dwin: Vec<f64>,
    /// Quantized-render sigmoid/distance lookup tables (rebuilt only
    /// when the governing config fields change).
    table: SigmaTable,
    config: Option<ComposeConfig>,
}

impl Default for ComposeWorkspace {
    fn default() -> Self {
        ComposeWorkspace::new()
    }
}

impl ComposeWorkspace {
    /// Creates an empty workspace; buffers are sized by the first
    /// [`ComposeWorkspace::compose`] call and reused afterwards.
    pub fn new() -> Self {
        ComposeWorkspace {
            mask: Grid2D::new(0, 0, 0.0),
            argmax: Grid2D::new(0, 0, -1),
            placed: Vec::new(),
            tiles: TileGrid::new(),
            partials: Vec::new(),
            fwin: Vec::new(),
            dwin: Vec::new(),
            table: SigmaTable::default(),
            config: None,
        }
    }

    /// Renders the dense mask and argmax map for `circles` into the
    /// workspace buffers (tile-parallel, skipping untouched tiles and
    /// circles with `q ≤ 0`). Bit-identical to
    /// [`compose_serial`] at any worker count.
    pub fn compose(&mut self, circles: &SparseCircles, config: &ComposeConfig) {
        let n = config.size;
        if self.mask.width() != n || self.mask.height() != n {
            self.mask = Grid2D::new(n, n, 0.0);
            self.argmax = Grid2D::new(n, n, -1);
            self.fwin.clear();
            self.fwin.resize(n * n, 0.0);
            self.dwin.clear();
            self.dwin.resize(n * n, 0.0);
        }
        self.config = Some(*config);
        place_circles(circles, config, &mut self.placed);
        self.tiles.bin(&self.placed, config, true);
        // Integer centers/radii (quantize = true) make the sigmoid a
        // finite function of (r, d²) — serve it from lookup tables.
        let table = if config.quantize {
            self.table.ensure(config);
            Some(&self.table)
        } else {
            None
        };
        render_max(
            &self.placed,
            config,
            &self.tiles,
            table,
            self.mask.as_mut_slice(),
            self.argmax.as_mut_slice(),
            &mut self.fwin,
            &mut self.dwin,
        );
        self.tiles.commit_dirty();
    }

    /// The dense mask `M̄` from the last [`ComposeWorkspace::compose`].
    pub fn mask(&self) -> &Grid2D<f64> {
        &self.mask
    }

    /// The argmax routing map from the last compose (`-1` = background).
    pub fn argmax(&self) -> &Grid2D<i32> {
        &self.argmax
    }

    /// Backward pass into a caller-owned buffer, resized to `4n` and
    /// fully overwritten (so a buffer reused across iterations never
    /// accumulates stale gradients).
    ///
    /// Runs the fused pixel-major sweep over the content tiles recorded
    /// by the last compose, reusing its argmax routing; the band-partial
    /// scratch buffer lives in the workspace (hence `&mut self`), so
    /// steady-state iterations stay allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if [`ComposeWorkspace::compose`] has not been called, or on
    /// a gradient shape mismatch.
    pub fn backward_into(&mut self, grad_mask: &Grid2D<f64>, grads: &mut Vec<f64>) {
        let config = self
            .config
            .as_ref()
            .expect("backward_into requires a prior compose");
        grads.clear();
        grads.resize(self.placed.len() * 4, 0.0);
        backward_fused_into(
            &self.placed,
            config,
            &self.argmax,
            grad_mask,
            Some(&self.tiles),
            Some((&self.fwin, &self.dwin)),
            &mut self.partials,
            grads,
        );
    }

    /// Consumes the workspace into an owned [`Composite`].
    ///
    /// # Panics
    ///
    /// Panics if [`ComposeWorkspace::compose`] has not been called.
    pub fn into_composite(self) -> Composite {
        Composite {
            config: self
                .config
                .expect("into_composite requires a prior compose"),
            mask: self.mask,
            argmax: self.argmax,
            placed: self.placed,
        }
    }
}

/// The dense mask, its argmax routing map, and everything needed to run
/// the backward pass.
#[derive(Debug, Clone)]
pub struct Composite {
    /// The dense mask `M̄` (Eq. 11); zero where no circle wins.
    pub mask: Grid2D<f64>,
    /// Winning circle per pixel; `-1` = background (no positive window).
    pub argmax: Grid2D<i32>,
    placed: Vec<PlacedCircle>,
    config: ComposeConfig,
}

/// Builds the dense mask from the sparse circular representation using
/// the tiled parallel engine (bit-identical to [`compose_serial`]).
///
/// Callers composing every iteration should prefer a reused
/// [`ComposeWorkspace`], which skips this function's per-call buffer
/// allocations.
///
/// # Examples
///
/// ```
/// use cfaopc_core::{compose, ComposeConfig, CircleParams, SparseCircles};
///
/// let circles = SparseCircles {
///     circles: vec![CircleParams { x: 16.0, y: 16.0, r: 6.0, q: 1.0 }],
/// };
/// let composite = compose(&circles, &ComposeConfig::new(32, 3, 19));
/// assert!(composite.mask[(16, 16)] > 0.99); // deep inside the circle
/// assert!(composite.mask[(0, 0)] < 1e-6);   // background
/// ```
pub fn compose(circles: &SparseCircles, config: &ComposeConfig) -> Composite {
    let mut ws = ComposeWorkspace::new();
    ws.compose(circles, config);
    ws.into_composite()
}

/// The retained serial reference implementation of [`compose`]: one flat
/// pass over every circle's window, no tiling, no parallelism. Kept (and
/// exercised by property tests) as the ground truth the tiled engine must
/// match bit-for-bit; also the baseline the `circleopt` benchmark times
/// the engine against.
pub fn compose_serial(circles: &SparseCircles, config: &ComposeConfig) -> Composite {
    let n = config.size;
    let mut mask = Grid2D::new(n, n, 0.0f64);
    let mut argmax = Grid2D::new(n, n, -1i32);
    let mut placed = Vec::new();
    place_circles(circles, config, &mut placed);

    for (i, pc) in placed.iter().enumerate() {
        if pc.q <= 0.0 {
            continue;
        }
        let Some((x0, x1, y0, y1)) = pc.window(n, config.window_margin) else {
            continue;
        };
        for y in y0..=y1 {
            for x in x0..=x1 {
                let d = (((x as f64 - pc.cx).powi(2)) + ((y as f64 - pc.cy).powi(2))).sqrt();
                let f = sigmoid(ALPHA * (pc.r - d));
                let v = pc.q * f;
                let cell = &mut mask[(x as usize, y as usize)];
                if v > *cell {
                    *cell = v;
                    argmax[(x as usize, y as usize)] = i as i32;
                }
            }
        }
    }
    Composite {
        mask,
        argmax,
        placed,
        config: *config,
    }
}

impl Composite {
    /// The compose configuration used.
    pub fn config(&self) -> &ComposeConfig {
        &self.config
    }

    /// Backward pass: chain `∂L/∂M̄` (from the lithography adjoint)
    /// through Eq. 12–14 into the flat `4n` parameter gradient
    /// `[∂x₀, ∂y₀, ∂r₀, ∂q₀, ∂x₁, …]`.
    ///
    /// Gradients aggregate only at pixels each circle wins (the argmax
    /// routing of Eq. 12): a fused pixel-major sweep scatters winning
    /// pixels into per-band partials, bands claimed in parallel, merged
    /// by a deterministic ascending-band reduction. The result is
    /// bit-identical to [`Composite::backward_serial`].
    ///
    /// Callers iterating should prefer [`ComposeWorkspace::backward_into`],
    /// which reuses the band-partial scratch buffer (and skips tiles no
    /// circle touches).
    ///
    /// # Panics
    ///
    /// Panics if `grad_mask` does not match the grid size.
    pub fn backward(&self, grad_mask: &Grid2D<f64>) -> Vec<f64> {
        let mut grads = vec![0.0f64; self.placed.len() * 4];
        let mut partials = Vec::new();
        backward_fused_into(
            &self.placed,
            &self.config,
            &self.argmax,
            grad_mask,
            None,
            None,
            &mut partials,
            &mut grads,
        );
        grads
    }

    /// The retained serial reference for [`Composite::backward`] —
    /// ground truth for the property tests and the benchmark baseline.
    ///
    /// Accumulation is **band-blocked**: each circle's windowed sums are
    /// collected per tile row (ascending `y`, then `x`, within each
    /// band) and the per-band partials are reduced in ascending band
    /// order before the STE gates apply. This fixes the floating-point
    /// summation tree that the parallel fused pass reproduces exactly;
    /// the naive whole-window sum would associate multi-band windows
    /// differently and drift by rounding.
    ///
    /// # Panics
    ///
    /// Panics if `grad_mask` does not match the grid size.
    pub fn backward_serial(&self, grad_mask: &Grid2D<f64>) -> Vec<f64> {
        let n = self.config.size;
        assert!(
            grad_mask.width() == n && grad_mask.height() == n,
            "gradient shape mismatch"
        );
        let bands = n.div_ceil(TILE);
        let stride = self.placed.len() * 4;
        let mut partials = vec![0.0f64; bands * stride];
        for b in 0..bands {
            let band_y0 = b * TILE;
            let band_y1 = (band_y0 + TILE).min(n);
            let part = &mut partials[b * stride..(b + 1) * stride];
            for (i, pc) in self.placed.iter().enumerate() {
                if pc.q <= 0.0 {
                    continue;
                }
                let Some((x0, x1, y0, y1)) = pc.window(n, self.config.window_margin) else {
                    continue;
                };
                let row0 = (y0 as usize).max(band_y0);
                let row1 = (y1 as usize + 1).min(band_y1);
                for y in row0..row1 {
                    for x in x0..=x1 {
                        if self.argmax[(x as usize, y)] != i as i32 {
                            continue;
                        }
                        let dx = x as f64 - pc.cx;
                        let dy = y as f64 - pc.cy;
                        let d = (dx * dx + dy * dy).sqrt();
                        let f = sigmoid(ALPHA * (pc.r - d));
                        let h = f * (1.0 - f);
                        let g = grad_mask[(x as usize, y)];
                        if d > 1e-9 {
                            part[4 * i] += g * ALPHA * pc.q * h * (dx / d);
                            part[4 * i + 1] += g * ALPHA * pc.q * h * (dy / d);
                        }
                        part[4 * i + 2] += g * ALPHA * pc.q * h;
                        part[4 * i + 3] += g * f;
                    }
                }
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
    use crate::repr::CircleParams;

    fn single(x: f64, y: f64, r: f64, q: f64) -> SparseCircles {
        SparseCircles {
            circles: vec![CircleParams { x, y, r, q }],
        }
    }

    fn cfg(n: usize) -> ComposeConfig {
        ComposeConfig::new(n, 2, 12)
    }

    #[test]
    fn single_circle_window_shape() {
        let c = compose(&single(16.0, 16.0, 6.0, 1.0), &cfg(32));
        assert!(c.mask[(16, 16)] > 0.99);
        assert!(c.mask[(22, 16)] >= 0.45 && c.mask[(22, 16)] <= 0.55); // on the rim
        assert!(c.mask[(28, 16)] < 1e-6);
        assert_eq!(c.argmax[(16, 16)], 0);
        assert_eq!(c.argmax[(0, 0)], -1);
    }

    #[test]
    fn activation_scales_the_window() {
        let c = compose(&single(16.0, 16.0, 6.0, 0.4), &cfg(32));
        assert!((c.mask[(16, 16)] - 0.4).abs() < 0.01);
    }

    #[test]
    fn overlapping_circles_take_the_max() {
        let circles = SparseCircles {
            circles: vec![
                CircleParams {
                    x: 14.0,
                    y: 16.0,
                    r: 6.0,
                    q: 1.0,
                },
                CircleParams {
                    x: 20.0,
                    y: 16.0,
                    r: 6.0,
                    q: 0.6,
                },
            ],
        };
        let c = compose(&circles, &cfg(32));
        // Deep inside circle 0 only.
        assert_eq!(c.argmax[(10, 16)], 0);
        // Deep inside circle 1 only — weaker q wins where circle 0's
        // window has fallen off.
        assert_eq!(c.argmax[(25, 16)], 1);
        // In the overlap, the stronger activation wins.
        assert_eq!(c.argmax[(17, 16)], 0);
    }

    #[test]
    fn negative_activation_never_claims_pixels() {
        let c = compose(&single(16.0, 16.0, 6.0, -0.5), &cfg(32));
        assert!(c.mask.as_slice().iter().all(|&v| v == 0.0));
        assert!(c.argmax.as_slice().iter().all(|&v| v == -1));
    }

    #[test]
    fn quantization_rounds_centers() {
        let a = compose(&single(16.4, 16.0, 6.3, 1.0), &cfg(32));
        let b = compose(&single(16.0, 16.0, 6.0, 1.0), &cfg(32));
        assert_eq!(a.mask, b.mask);
    }

    #[test]
    fn far_off_grid_circle_is_skipped_cleanly() {
        // Regression: with `quantize: false` a center far off-grid
        // (cx.round() + half < 0) used to produce an inverted clamped
        // range that only worked by accident; the window must be
        // rejected explicitly. Both passes stay empty/zero.
        let mut config = cfg(32);
        config.quantize = false;
        for &(x, y) in &[
            (-500.0, 16.0),
            (16.0, -500.0),
            (900.0, 16.0),
            (-40.0, -40.0),
        ] {
            let circles = single(x, y, 5.0, 1.0);
            let c = compose(&circles, &config);
            assert!(c.mask.as_slice().iter().all(|&v| v == 0.0), "({x},{y})");
            assert!(c.argmax.as_slice().iter().all(|&v| v == -1));
            let grads = c.backward(&Grid2D::new(32, 32, 1.0));
            assert!(grads.iter().all(|&g| g == 0.0));
            // And the serial reference agrees bit-for-bit.
            let s = compose_serial(&circles, &config);
            assert_eq!(s.mask, c.mask);
            assert_eq!(s.argmax, c.argmax);
        }
    }

    #[test]
    fn non_positive_activations_are_pruned() {
        let circles = SparseCircles {
            circles: vec![
                CircleParams {
                    x: 10.0,
                    y: 10.0,
                    r: 5.0,
                    q: -0.05,
                },
                CircleParams {
                    x: 22.0,
                    y: 22.0,
                    r: 5.0,
                    q: 1.0,
                },
            ],
        };
        let config = cfg(32);
        let c = compose(&circles, &config);
        assert!(c.mask[(10, 10)] == 0.0, "pruned circle must not render");
        assert!(c.mask[(22, 22)] > 0.9);
        // Serial reference implements the same pruning.
        let s = compose_serial(&circles, &config);
        assert_eq!(s.mask, c.mask);
        let grads = c.backward(&Grid2D::new(32, 32, 1.0));
        assert_eq!(&grads[..4], &[0.0; 4], "pruned circle gets no gradient");
    }

    #[test]
    fn workspace_reuse_matches_fresh_compose_after_shrink() {
        // A workspace that rendered a big mask must fully clear stale
        // tiles when the next circle set covers less area.
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
        let small = single(8.0, 8.0, 4.0, 0.7);
        let config = cfg(32);
        let mut ws = ComposeWorkspace::new();
        ws.compose(&big, &config);
        ws.compose(&small, &config);
        let fresh = compose(&small, &config);
        assert_eq!(ws.mask(), &fresh.mask);
        assert_eq!(ws.argmax(), &fresh.argmax);
    }

    #[test]
    fn workspace_backward_matches_composite_backward() {
        let circles = SparseCircles {
            circles: vec![
                CircleParams {
                    x: 12.0,
                    y: 15.0,
                    r: 5.0,
                    q: 0.9,
                },
                CircleParams {
                    x: 20.0,
                    y: 18.0,
                    r: 4.0,
                    q: -0.2,
                },
            ],
        };
        let config = cfg(32);
        let grad = Grid2D::new(32, 32, 0.3);
        let mut ws = ComposeWorkspace::new();
        ws.compose(&circles, &config);
        let mut grads = vec![99.0; 2]; // wrong size and stale values
        ws.backward_into(&grad, &mut grads);
        let reference = compose(&circles, &config).backward(&grad);
        assert_eq!(grads, reference);
    }

    #[test]
    fn ste_gates_block_out_of_range_gradients() {
        // Radius pushed past r_max: clipped forward, gated backward.
        let c = compose(&single(16.0, 16.0, 99.0, 1.0), &cfg(32));
        let ones = Grid2D::new(32, 32, 1.0);
        let grads = c.backward(&ones);
        assert_eq!(grads[2], 0.0, "radius gradient must be gated off");
        assert!(grads[3] > 0.0, "q gradient still flows");
    }

    #[test]
    fn backward_matches_finite_differences_continuous() {
        // Validate Eq. 12–14 against finite differences of the
        // continuous (unquantized) composition with a fixed random-ish
        // pixel weighting: J = Σ w · M̄.
        let n = 32;
        let mut config = cfg(n);
        config.quantize = false;
        let weights: Vec<f64> = (0..n * n)
            .map(|i| ((i as f64 * 0.61803).sin() * 0.5 + 0.5) * 0.1)
            .collect();
        let w_grid = Grid2D::from_vec(n, n, weights);
        let j = |circles: &SparseCircles| -> f64 {
            let c = compose(circles, &config);
            c.mask
                .as_slice()
                .iter()
                .zip(w_grid.as_slice())
                .map(|(&m, &w)| m * w)
                .sum()
        };
        let base = SparseCircles {
            circles: vec![
                CircleParams {
                    x: 12.3,
                    y: 15.1,
                    r: 5.2,
                    q: 0.9,
                },
                CircleParams {
                    x: 20.7,
                    y: 18.4,
                    r: 4.1,
                    q: 0.7,
                },
            ],
        };
        let composite = compose(&base, &config);
        let analytic = composite.backward(&w_grid);
        let eps = 1e-6;
        for p in 0..8 {
            let mut plus = base.clone();
            let mut flat = plus.to_flat();
            flat[p] += eps;
            plus.set_from_flat(&flat);
            let mut minus = base.clone();
            let mut flat = minus.to_flat();
            flat[p] -= eps;
            minus.set_from_flat(&flat);
            let fd = (j(&plus) - j(&minus)) / (2.0 * eps);
            assert!(
                (fd - analytic[p]).abs() < 1e-4 * fd.abs().max(analytic[p].abs()).max(1.0),
                "param {p}: fd={fd} analytic={}",
                analytic[p]
            );
        }
    }

    #[test]
    fn gradient_pushes_circle_toward_bright_pixels() {
        // Loss gradient negative on the right rim (wants more mask
        // there): ∂L/∂x must be negative so descending x += -grad moves
        // the circle right (paper Figure 5(a)).
        let n = 32;
        let circles = single(16.0, 16.0, 5.0, 1.0);
        let c = compose(&circles, &cfg(n));
        let mut grad = Grid2D::new(n, n, 0.0);
        for y in 12..21 {
            grad[(21, y)] = -1.0; // right rim pixels want to be brighter
        }
        let grads = c.backward(&grad);
        assert!(
            grads[0] < 0.0,
            "x gradient should point left (descend → right)"
        );
        assert!(grads[1].abs() < grads[0].abs() * 0.2, "y roughly balanced");
    }

    #[test]
    fn outside_pixel_gradients_grow_the_radius() {
        // Paper Figure 5(b): bright demand just outside the rim makes
        // ∂L/∂r negative (descent grows the circle).
        let n = 32;
        let circles = single(16.0, 16.0, 5.0, 1.0);
        let c = compose(&circles, &cfg(n));
        let mut grad = Grid2D::new(n, n, 0.0);
        for y in 10..23 {
            for x in 10..23 {
                let d = (((x - 16) * (x - 16) + (y - 16) * (y - 16)) as f64).sqrt();
                if d > 5.0 && d < 8.0 {
                    grad[(x as usize, y as usize)] = -1.0;
                }
            }
        }
        let grads = c.backward(&grad);
        assert!(
            grads[2] < 0.0,
            "radius gradient should be negative, got {}",
            grads[2]
        );
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn backward_checks_shape() {
        let c = compose(&single(16.0, 16.0, 5.0, 1.0), &cfg(32));
        let wrong = Grid2D::new(8, 8, 0.0);
        let _ = c.backward(&wrong);
    }
}
