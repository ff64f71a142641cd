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
//! [`ComposeWorkspace`] is the one way to run the transformation. It is
//! built for one [`ComposeConfig`] and one [`Composition`] — the hard max
//! above, or the softmax alternative of [`crate::soft`] — and owns every
//! buffer that composition reads, so the CircleOpt inner loop is
//! allocation-free after its first iteration. Work scales with **active
//! shot area**, not grid area:
//!
//! * Placed circles are binned into fixed [`TILE`]`×`[`TILE`] buckets by
//!   their window `U`. Tiles no circle touches are skipped outright —
//!   they are neither cleared nor rendered (a per-tile dirty flag clears
//!   tiles that *were* covered on the previous render).
//! * The **active tiles** (non-empty bucket now, or dirty from the
//!   previous render) form a worklist that workers claim dynamically
//!   (`par_index_claim` on the persistent pool), so sparse circle sets
//!   never pay for empty bands and clustered sets self-balance. Both
//!   compositions share this tile walk ([`render_tiles`]) and supply only
//!   their per-pixel body ([`TileBody`]). Tiles are disjoint pixel sets,
//!   so the claimed writes (through [`DisjointSliceMut`] row-segment
//!   views) are race-free, and within a bucket circles keep their index
//!   order, so per-pixel updates replay the serial sequence exactly: the
//!   result is **bit-identical** to the retained serial reference
//!   ([`compose_serial`]) for every worker count.
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
//!   ascending-band reduction merges into the flat gradient vector (the
//!   band frame both compositions share, [`backward_bands`]). Bands scan
//!   row-major (y, then ascending tiles, then x), which visits each
//!   circle's winning pixels in exactly the order the band-blocked serial
//!   reference ([`Composite::backward_serial`]) accumulates them, so the
//!   parallel pass is bit-identical to it at any worker count.

use crate::repr::{CircleParams, SparseCircles};
use crate::simd::{fill_dist_row, sigmoid_sat};
use crate::soft::SoftBuffers;
use crate::ste::ste;
use cfaopc_fft::parallel::{par_index_claim, DisjointSliceMut};
use cfaopc_grid::Grid2D;
use cfaopc_litho::sigmoid;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// How circles combine into the dense mask (see
/// [`CircleOptConfig::composition`](crate::CircleOptConfig::composition)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Composition {
    /// Paper Eq. 11: per-pixel max, gradients through the argmax only.
    Max,
    /// Softmax-weighted blend with sharpness `beta`; gradients reach
    /// every circle covering a pixel.
    Softmax {
        /// Sharpness; `→ ∞` recovers [`Composition::Max`].
        beta: f64,
    },
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

/// Tile buckets for one grid: which circles touch which
/// [`TILE`]`×`[`TILE`] tile, plus a dirty flag per tile so a render only
/// clears tiles that held content on the previous one.
///
/// The buckets are one flat index array in tile order, bucket `t` being
/// `indices[start[t]..start[t + 1]]` (a counting sort: per-tile counts,
/// their prefix sums, then the indices). Its capacity is reserved for
/// every circle touching the most tiles a window can touch, so a run
/// whose circles move, grow or come back above the activation floor
/// never reallocates it after its first `bin`.
#[derive(Debug)]
pub(crate) struct TileGrid {
    size: usize,
    margin: i32,
    tiles_x: usize,
    /// The most tiles one placed circle's window can touch along an axis.
    per_axis: usize,
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
    /// The buckets of `config`'s grid. Every tile starts *dirty*, so the
    /// first render clears (and counts) every tile.
    fn new(config: &ComposeConfig) -> Self {
        let tiles_x = config.size.div_ceil(TILE);
        let tiles = tiles_x * tiles_x;
        // A window's span is at most `2·(r_max + margin) + 1` pixels when
        // the STE clips radii to `r_max`, and any span touches at most
        // `⌈(span − 1)/TILE⌉ + 1` tiles. Unquantized radii are unbounded,
        // so there it is the whole grid.
        let per_axis = if config.quantize {
            let span = (2 * (config.r_max + config.window_margin) + 1).max(1) as usize;
            ((span - 1).div_ceil(TILE) + 1).min(tiles_x)
        } else {
            tiles_x
        };
        TileGrid {
            size: config.size,
            margin: config.window_margin,
            tiles_x,
            per_axis,
            start: vec![0; tiles + 1],
            cursor: vec![0; tiles],
            indices: Vec::new(),
            dirty: vec![true; tiles],
            active: Vec::with_capacity(tiles),
        }
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
                let (tx0, tx1) = (x0 as usize / TILE, x1 as usize / TILE);
                (y0 as usize / TILE..=y1 as usize / TILE)
                    .flat_map(move |ty| (tx0..=tx1).map(move |tx| ty * tiles_x + tx))
            })
    }

    /// Bins circles into tile buckets by their window `U`, preserving
    /// circle index order within each bucket (which is what keeps tiled
    /// rendering bit-identical to the serial reference). Circles with an
    /// off-grid window are dropped, and with `prune` (the hard max) so
    /// are circles with `q ≤ 0`.
    fn bin(&mut self, placed: &[PlacedCircle], prune: bool) {
        let (n, margin, tiles_x) = (self.size, self.margin, self.tiles_x);
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
        self.indices.clear();
        self.indices
            .reserve(placed.len() * self.per_axis * self.per_axis);
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

    /// The circle indices binned into tile `t` (row-major tile order).
    fn bucket(&self, t: usize) -> &[u32] {
        &self.indices[self.start[t] as usize..self.start[t + 1] as usize]
    }

    /// Records which tiles now hold content, for the next render's
    /// skip-or-clear decision.
    fn commit_dirty(&mut self) {
        for (t, d) in self.dirty.iter_mut().enumerate() {
            *d = self.start[t + 1] > self.start[t];
        }
    }
}

/// How many active tiles one scheduler claim hands a worker. Small
/// enough to balance clustered layouts, large enough that the atomic
/// claim cost is amortized over ~4 KiB of rendered pixels.
const RENDER_GRAIN: usize = 4;

/// One composition's per-pixel work on the shared tile walk
/// ([`render_tiles`]): what a cleared pixel holds, and how a circle's
/// window updates the pixels it covers. The walk is generic over the
/// body, so neither method is dispatched dynamically.
///
/// Both methods write through [`DisjointSliceMut`] views of the
/// workspace's row-major grids.
#[allow(unsafe_code)]
pub(crate) trait TileBody: Sync {
    /// Resets pixels `xs` of rows `ys` to the background.
    ///
    /// # Safety
    ///
    /// The pixels must lie in one tile that the calling worker has
    /// claimed alone, so no other live view overlaps them.
    // SAFETY: the contract is the `# Safety` section above.
    unsafe fn clear(&self, xs: Range<usize>, ys: Range<usize>);

    /// Renders circle `ci` (`pc`) at pixels `xs` of rows `ys`, all inside
    /// its window; `dist` is the worker's distance-row scratch.
    ///
    /// # Safety
    ///
    /// As for [`TileBody::clear`].
    // SAFETY: the contract is the `# Safety` section above.
    unsafe fn draw(
        &self,
        ci: usize,
        pc: &PlacedCircle,
        xs: Range<usize>,
        ys: Range<usize>,
        dist: &mut [f64; TILE],
    );
}

/// The tile walk both renders share: workers claim the active tiles
/// ([`RENDER_GRAIN`] at a time), and each claimed tile is cleared and
/// then drawn from its bucket, circle by circle in index order, each
/// window intersected with the tile.
///
/// Inactive tiles (untouched now *and* on the previous render) are never
/// visited. Tiles are disjoint pixel sets and each worklist index is
/// claimed exactly once per region, so `body`'s writes are race-free and
/// every pixel replays the serial update sequence at any worker count.
pub(crate) fn render_tiles<B: TileBody>(tiles: &TileGrid, placed: &[PlacedCircle], body: &B) {
    let (n, tiles_x) = (tiles.size, tiles.tiles_x);
    let active = &tiles.active;
    cfaopc_trace::counters::TILES_RENDERED.add(active.len() as u64);
    cfaopc_trace::counters::TILES_SKIPPED.add((tiles_x * tiles_x - active.len()) as u64);
    let started = std::time::Instant::now();
    par_index_claim(active.len(), RENDER_GRAIN, |k| {
        let t = active[k] as usize;
        let (ty, tx) = (t / tiles_x, t % tiles_x);
        let c0 = tx * TILE;
        let c1 = (c0 + TILE).min(n);
        let t_y0 = ty * TILE;
        let t_y1 = (t_y0 + TILE).min(n);
        // SAFETY: tile `t` is claimed by exactly one worker per region
        // and tiles are disjoint pixel sets.
        #[allow(unsafe_code)]
        unsafe {
            body.clear(c0..c1, t_y0..t_y1)
        };
        let mut dist = [0.0f64; TILE];
        for &ci in tiles.bucket(t) {
            let pc = &placed[ci as usize];
            let (wx0, wx1, wy0, wy1) = pc
                .window(n, tiles.margin)
                .expect("binned circles have on-grid windows");
            let x0 = (wx0 as usize).max(c0);
            let x1 = (wx1 as usize + 1).min(c1);
            let y0 = (wy0 as usize).max(t_y0);
            let y1 = (wy1 as usize + 1).min(t_y1);
            if x0 >= x1 {
                continue;
            }
            // SAFETY: the window intersected with tile `t`, which this
            // worker claimed alone.
            #[allow(unsafe_code)]
            unsafe {
                body.draw(ci as usize, pc, x0..x1, y0..y1, &mut dist)
            };
        }
    });
    cfaopc_trace::counters::COMPOSE_RENDER_NS.add(started.elapsed().as_nanos() as u64);
}

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
#[derive(Debug)]
struct SigmaTable {
    r_min: i32,
    /// `dtable[d²] = (d² as f64).sqrt()`.
    dtable: Vec<f64>,
    /// `ftable[(r − r_min)·(cap + 1) + d²] = σ(α·(r − dtable[d²]))`.
    ftable: Vec<f64>,
    /// Largest reachable `d²`: `2·(r_max + margin)²`.
    cap: usize,
}

impl SigmaTable {
    fn new(config: &ComposeConfig) -> Self {
        let half = (config.r_max + config.window_margin).max(0) as usize;
        let cap = 2 * half * half;
        let dtable: Vec<f64> = (0..=cap).map(|d2| (d2 as f64).sqrt()).collect();
        let nr = (config.r_max - config.r_min).max(0) as usize + 1;
        let mut ftable = Vec::with_capacity(nr * (cap + 1));
        for ri in 0..nr {
            let r = (config.r_min + ri as i32) as f64;
            ftable.extend(dtable.iter().map(|&d| sigmoid(ALPHA * (r - d))));
        }
        SigmaTable {
            r_min: config.r_min,
            dtable,
            ftable,
            cap,
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

/// The hard max's own buffers: the argmax routing map, the winner caches
/// its backward reads, and the quantized render's lookup tables.
#[derive(Debug)]
struct MaxBuffers {
    argmax: Grid2D<i32>,
    /// Winning pixels' sigmoid values, written by the render alongside
    /// argmax; read by the fused backward (valid wherever `argmax ≥ 0`).
    fwin: Vec<f64>,
    /// Winning pixels' center distances (same validity as `fwin`).
    dwin: Vec<f64>,
    /// Sigmoid/distance lookup tables; `None` when `quantize` is off.
    table: Option<SigmaTable>,
}

impl MaxBuffers {
    fn new(config: &ComposeConfig) -> Self {
        let n = config.size;
        MaxBuffers {
            argmax: Grid2D::new(n, n, -1),
            fwin: vec![0.0; n * n],
            dwin: vec![0.0; n * n],
            // Integer centers/radii (quantize = true) make the sigmoid a
            // finite function of (r, d²) — serve it from lookup tables.
            table: config.quantize.then(|| SigmaTable::new(config)),
        }
    }

    /// Renders the hard max over the active tiles into `mask`, the argmax
    /// and the winner caches.
    fn render(&mut self, tiles: &TileGrid, placed: &[PlacedCircle], mask: &mut Grid2D<f64>) {
        let body = MaxRender {
            n: tiles.size,
            table: self.table.as_ref(),
            mask: DisjointSliceMut::new(mask.as_mut_slice()),
            argmax: DisjointSliceMut::new(self.argmax.as_mut_slice()),
            fwin: DisjointSliceMut::new(&mut self.fwin),
            dwin: DisjointSliceMut::new(&mut self.dwin),
        };
        render_tiles(tiles, placed, &body);
    }

    /// Band `b`'s share of the hard-max backward (Eq. 12–14): its rows
    /// left to right across the content tiles, scattering each winning
    /// pixel into `part`. A winner costs no sqrt and no exp: a saturated
    /// one (`f = 1.0` exactly, so `h = f(1−f) = 0`) collapses to
    /// `∂q += g`, and a rim pixel reuses the recorded sigmoid and
    /// distance. The skipped `±0.0` terms cannot change a
    /// `+0.0`-initialized sum, so the partials equal the serial
    /// reference's bit for bit.
    fn scan_band(
        &self,
        b: usize,
        part: &mut [f64],
        placed: &[PlacedCircle],
        tiles: &TileGrid,
        gm: &[f64],
    ) {
        let (n, tiles_x) = (tiles.size, tiles.tiles_x);
        let (am, fc, dc) = (self.argmax.as_slice(), &self.fwin[..], &self.dwin[..]);
        let y0 = b * TILE;
        let y1 = (y0 + TILE).min(n);
        for y in y0..y1 {
            let row = y * n;
            for tx in 0..tiles_x {
                if tiles.bucket(b * tiles_x + tx).is_empty() {
                    continue; // no circle rendered here: no winners
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
                    let f = fc[row + x];
                    if f == 1.0 {
                        // Saturated winner: h = f(1−f) = 0 exactly.
                        part[slot + 3] += g;
                        continue;
                    }
                    let d = dc[row + x];
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
    }
}

/// The hard max's per-pixel body (Eq. 10–11): a pixel keeps the largest
/// `q·f` and its circle, and records the winner's sigmoid value and
/// center distance (`fwin`/`dwin`) — the exact intermediates the backward
/// pass would otherwise recompute. The caches carry no validity state of
/// their own: they are written exactly when argmax is, and the backward
/// reads them only where `argmax ≥ 0`, so they never need clearing.
struct MaxRender<'a> {
    n: usize,
    table: Option<&'a SigmaTable>,
    mask: DisjointSliceMut<'a, f64>,
    argmax: DisjointSliceMut<'a, i32>,
    fwin: DisjointSliceMut<'a, f64>,
    dwin: DisjointSliceMut<'a, f64>,
}

// The `slice_mut` views below are the only live ones over their pixels:
// each method's caller upholds the `TileBody` contract.
#[allow(unsafe_code)]
impl TileBody for MaxRender<'_> {
    // SAFETY: the caller upholds `TileBody::clear`'s contract.
    unsafe fn clear(&self, xs: Range<usize>, ys: Range<usize>) {
        for y in ys {
            let at = y * self.n + xs.start;
            self.mask.slice_mut(at, xs.len()).fill(0.0);
            self.argmax.slice_mut(at, xs.len()).fill(-1);
        }
    }

    // SAFETY: the caller upholds `TileBody::draw`'s contract.
    unsafe fn draw(
        &self,
        ci: usize,
        pc: &PlacedCircle,
        xs: Range<usize>,
        ys: Range<usize>,
        dist: &mut [f64; TILE],
    ) {
        let (x0, seg_len) = (xs.start, xs.len());
        let lookup = self.table.map(|tb| tb.rows(pc.r));
        for y in ys {
            let dyv = y as f64 - pc.cy;
            let at = y * self.n + x0;
            let mrow = self.mask.slice_mut(at, seg_len);
            let arow = self.argmax.slice_mut(at, seg_len);
            let frow = self.fwin.slice_mut(at, seg_len);
            let drow = self.dwin.slice_mut(at, seg_len);
            if let Some((ft, dt)) = lookup {
                // Quantized render: d² is a small exact integer, so the
                // sigmoid and distance come from the lookup tables — no
                // sqrt, no exp, bit-identical entries.
                let dy2 = dyv * dyv;
                for j in 0..seg_len {
                    // v = q·f ≤ q (f ≤ 1, rounding is monotone), so a
                    // circle whose activation does not exceed the running
                    // max can never win: skip the lookup.
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
                // Same early-skip as above: q ≤ running max can never
                // produce a strictly greater v. The serial reference
                // evaluates the sigmoid anyway and reaches the same
                // (no-update) outcome.
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
}

/// The band frame both backward passes share. Bands (tile rows) are
/// claimed dynamically, and `scan(b, part)` accumulates band `b`'s
/// per-circle partial gradients into its own `4·placed.len()` block of
/// `partials`. The blocks are then merged in ascending band order and the
/// STE gates applied: the summation tree of the band-blocked serial
/// references ([`Composite::backward_serial`],
/// [`SoftComposite::backward_serial`](crate::SoftComposite::backward_serial)),
/// so `grads` is bit-identical to theirs at any worker count.
fn backward_bands<F>(
    placed: &[PlacedCircle],
    n: usize,
    partials: &mut Vec<f64>,
    grads: &mut [f64],
    scan: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    debug_assert_eq!(grads.len(), placed.len() * 4);
    if placed.is_empty() {
        return;
    }
    let bands = n.div_ceil(TILE);
    let stride = placed.len() * 4;
    partials.clear();
    partials.resize(bands * stride, 0.0);
    let started = std::time::Instant::now();
    let part_sh = DisjointSliceMut::new(partials.as_mut_slice());
    par_index_claim(bands, 1, |b| {
        // SAFETY: band `b` is claimed by exactly one worker per region
        // and bands own disjoint `stride`-sized blocks of the partials
        // buffer.
        #[allow(unsafe_code)]
        let part = unsafe { part_sh.slice_mut(b * stride, stride) };
        scan(b, part);
    });
    cfaopc_trace::counters::BACKWARD_SCAN_NS.add(started.elapsed().as_nanos() as u64);

    // Ordered reduction: ascending bands, then the STE gates — the same
    // fixed merge tree the serial references use, at every worker count.
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

/// The buffers only one composition reads.
#[derive(Debug)]
enum Buffers {
    Max(MaxBuffers),
    Softmax(SoftBuffers),
}

/// The composition engine for one [`ComposeConfig`] and one
/// [`Composition`]: the dense mask, placed circles, tile buckets and
/// band partials, plus the buffers of that composition alone (the hard
/// max's argmax, winner caches and lookup tables, or the softmax's
/// normalizer). Everything is sized at construction, so the CircleOpt
/// inner loop performs **zero steady-state heap allocations** in the
/// circle→pixel direction.
///
/// # Examples
///
/// ```
/// use cfaopc_core::{CircleParams, ComposeConfig, ComposeWorkspace, Composition, SparseCircles};
/// use cfaopc_grid::Grid2D;
///
/// let circles = SparseCircles {
///     circles: vec![CircleParams { x: 16.0, y: 16.0, r: 6.0, q: 1.0 }],
/// };
/// let mut ws = ComposeWorkspace::new(ComposeConfig::new(32, 3, 19), Composition::Max);
/// ws.compose(&circles);
/// assert!(ws.mask()[(16, 16)] > 0.99); // deep inside the circle
/// assert!(ws.mask()[(0, 0)] < 1e-6); // background
/// let mut grads = Vec::new();
/// ws.backward_into(&Grid2D::new(32, 32, 1.0), &mut grads);
/// assert_eq!(grads.len(), 4);
/// ```
#[derive(Debug)]
pub struct ComposeWorkspace {
    config: ComposeConfig,
    /// The dense mask `M̄` (the softmax's numerator until its divide).
    mask: Grid2D<f64>,
    placed: Vec<PlacedCircle>,
    tiles: TileGrid,
    partials: Vec<f64>,
    buffers: Buffers,
}

impl ComposeWorkspace {
    /// A workspace for `config`'s grid under `composition`, every buffer
    /// sized here and reused by each [`ComposeWorkspace::compose`].
    pub fn new(config: ComposeConfig, composition: Composition) -> Self {
        let n = config.size;
        let buffers = match composition {
            Composition::Max => Buffers::Max(MaxBuffers::new(&config)),
            Composition::Softmax { beta } => Buffers::Softmax(SoftBuffers::new(n, beta)),
        };
        ComposeWorkspace {
            mask: Grid2D::new(n, n, 0.0),
            placed: Vec::new(),
            tiles: TileGrid::new(&config),
            partials: Vec::new(),
            buffers,
            config,
        }
    }

    /// Renders the dense mask for `circles` into the workspace buffers
    /// (tile-parallel, skipping untouched tiles; the hard max also skips
    /// circles with `q ≤ 0`). Bit-identical to [`compose_serial`] or
    /// [`compose_soft_serial`](crate::compose_soft_serial) at any worker
    /// count, whether the workspace is fresh or reused.
    pub fn compose(&mut self, circles: &SparseCircles) {
        place_circles(circles, &self.config, &mut self.placed);
        match &mut self.buffers {
            Buffers::Max(max) => {
                self.tiles.bin(&self.placed, true);
                max.render(&self.tiles, &self.placed, &mut self.mask);
            }
            Buffers::Softmax(soft) => {
                // No pruning: every circle, even at q ≤ 0, feeds the
                // softmax normalizer.
                self.tiles.bin(&self.placed, false);
                soft.render(&self.tiles, &self.placed, &mut self.mask);
            }
        }
        self.tiles.commit_dirty();
    }

    /// The dense mask `M̄` from the last [`ComposeWorkspace::compose`].
    pub fn mask(&self) -> &Grid2D<f64> {
        &self.mask
    }

    /// The argmax routing map from the last compose (`-1` = background);
    /// `None` under [`Composition::Softmax`], which routes no pixel to a
    /// single circle.
    pub fn argmax(&self) -> Option<&Grid2D<i32>> {
        match &self.buffers {
            Buffers::Max(max) => Some(&max.argmax),
            Buffers::Softmax(_) => None,
        }
    }

    /// Backward pass: chains `∂L/∂M̄` (from the lithography adjoint)
    /// through the last compose into the flat `4n` parameter gradient
    /// `[∂x₀, ∂y₀, ∂r₀, ∂q₀, ∂x₁, …]`. `grads` is resized and fully
    /// overwritten, so a buffer reused across iterations never
    /// accumulates stale gradients; before any compose there are no
    /// circles and it is left empty.
    ///
    /// The hard max routes each pixel's gradient to its argmax circle
    /// only (Eq. 12–14), in one pixel-major sweep over the content tiles
    /// that reuses the render's winner caches; the softmax spreads it over
    /// every circle covering the pixel. Either result is bit-identical to
    /// its serial reference ([`Composite::backward_serial`],
    /// [`SoftComposite::backward_serial`](crate::SoftComposite::backward_serial))
    /// at any worker count. The band-partial scratch lives in the
    /// workspace (hence `&mut self`).
    ///
    /// # Panics
    ///
    /// Panics when `grad_mask` does not match the grid size.
    pub fn backward_into(&mut self, grad_mask: &Grid2D<f64>, grads: &mut Vec<f64>) {
        let n = self.config.size;
        assert!(
            grad_mask.width() == n && grad_mask.height() == n,
            "gradient shape mismatch"
        );
        grads.clear();
        grads.resize(self.placed.len() * 4, 0.0);
        let (config, placed, tiles, mask) = (&self.config, &self.placed, &self.tiles, &self.mask);
        let gm = grad_mask.as_slice();
        let partials = &mut self.partials;
        match &self.buffers {
            Buffers::Max(max) => backward_bands(placed, n, partials, grads, |b, part| {
                max.scan_band(b, part, placed, tiles, gm)
            }),
            Buffers::Softmax(soft) => backward_bands(placed, n, partials, grads, |b, part| {
                soft.scan_band(b, part, placed, config, mask, gm)
            }),
        }
    }
}

/// What [`compose_serial`] returns: the dense mask, its argmax routing
/// map, and what [`Composite::backward_serial`] reads.
#[derive(Debug, Clone)]
pub struct Composite {
    /// The dense mask `M̄` (Eq. 11); zero where no circle wins.
    pub mask: Grid2D<f64>,
    /// Winning circle per pixel; `-1` = background (no positive window).
    pub argmax: Grid2D<i32>,
    placed: Vec<PlacedCircle>,
    config: ComposeConfig,
}

/// The retained serial reference of the hard-max render
/// ([`ComposeWorkspace::compose`] under [`Composition::Max`]): one flat
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
    /// The retained serial reference of the hard-max backward
    /// ([`ComposeWorkspace::backward_into`]) — ground truth for the
    /// property tests and the benchmark baseline. It chains `∂L/∂M̄`
    /// through Eq. 12–14 into the flat `4n` parameter gradient, each
    /// circle's sum taken only over the pixels it wins (the argmax
    /// routing of Eq. 12).
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

    /// A hard-max workspace that has composed `circles`.
    fn composed(circles: &SparseCircles, config: ComposeConfig) -> ComposeWorkspace {
        let mut ws = ComposeWorkspace::new(config, Composition::Max);
        ws.compose(circles);
        ws
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
    fn single_circle_window_shape() {
        let ws = composed(&single(16.0, 16.0, 6.0, 1.0), cfg(32));
        let (mask, argmax) = (ws.mask(), ws.argmax().unwrap());
        assert!(mask[(16, 16)] > 0.99);
        assert!(mask[(22, 16)] >= 0.45 && mask[(22, 16)] <= 0.55); // on the rim
        assert!(mask[(28, 16)] < 1e-6);
        assert_eq!(argmax[(16, 16)], 0);
        assert_eq!(argmax[(0, 0)], -1);
    }

    #[test]
    fn activation_scales_the_window() {
        let ws = composed(&single(16.0, 16.0, 6.0, 0.4), cfg(32));
        assert!((ws.mask()[(16, 16)] - 0.4).abs() < 0.01);
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
        let ws = composed(&circles, cfg(32));
        let argmax = ws.argmax().unwrap();
        // Deep inside circle 0 only.
        assert_eq!(argmax[(10, 16)], 0);
        // Deep inside circle 1 only — weaker q wins where circle 0's
        // window has fallen off.
        assert_eq!(argmax[(25, 16)], 1);
        // In the overlap, the stronger activation wins.
        assert_eq!(argmax[(17, 16)], 0);
    }

    #[test]
    fn negative_activation_never_claims_pixels() {
        let ws = composed(&single(16.0, 16.0, 6.0, -0.5), cfg(32));
        assert!(ws.mask().as_slice().iter().all(|&v| v == 0.0));
        assert!(ws.argmax().unwrap().as_slice().iter().all(|&v| v == -1));
    }

    #[test]
    fn quantization_rounds_centers() {
        let a = composed(&single(16.4, 16.0, 6.3, 1.0), cfg(32));
        let b = composed(&single(16.0, 16.0, 6.0, 1.0), cfg(32));
        assert_eq!(a.mask(), b.mask());
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
            let mut ws = composed(&circles, config);
            assert!(ws.mask().as_slice().iter().all(|&v| v == 0.0), "({x},{y})");
            assert!(ws.argmax().unwrap().as_slice().iter().all(|&v| v == -1));
            let grads = backward(&mut ws, &Grid2D::new(32, 32, 1.0));
            assert_eq!(bits(&grads), bits(&[0.0; 4]));
            // And the serial reference agrees bit-for-bit.
            let s = compose_serial(&circles, &config);
            assert_eq!(&s.mask, ws.mask());
            assert_eq!(Some(&s.argmax), ws.argmax());
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
        let mut ws = composed(&circles, config);
        assert!(ws.mask()[(10, 10)] == 0.0, "pruned circle must not render");
        assert!(ws.mask()[(22, 22)] > 0.9);
        // Serial reference implements the same pruning.
        let s = compose_serial(&circles, &config);
        assert_eq!(&s.mask, ws.mask());
        let grads = backward(&mut ws, &Grid2D::new(32, 32, 1.0));
        assert_eq!(
            bits(&grads[..4]),
            bits(&[0.0; 4]),
            "pruned circle gets no gradient"
        );
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
        let mut ws = composed(&big, config);
        ws.compose(&small);
        let mut fresh = composed(&small, config);
        assert_eq!(ws.mask(), fresh.mask());
        assert_eq!(ws.argmax(), fresh.argmax());
        let grad = Grid2D::new(32, 32, 0.3);
        let mut grads = vec![99.0; 2]; // wrong size and stale values
        ws.backward_into(&grad, &mut grads);
        assert_eq!(bits(&grads), bits(&backward(&mut fresh, &grad)));
    }

    #[test]
    fn backward_before_any_compose_is_empty() {
        for composition in [Composition::Max, Composition::Softmax { beta: 20.0 }] {
            let mut ws = ComposeWorkspace::new(cfg(32), composition);
            let mut grads = vec![99.0; 3];
            ws.backward_into(&Grid2D::new(32, 32, 1.0), &mut grads);
            assert!(grads.is_empty(), "{composition:?}");
        }
    }

    #[test]
    fn ste_gates_block_out_of_range_gradients() {
        // Radius pushed past r_max: clipped forward, gated backward.
        let mut ws = composed(&single(16.0, 16.0, 99.0, 1.0), cfg(32));
        let grads = backward(&mut ws, &Grid2D::new(32, 32, 1.0));
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
            composed(circles, config)
                .mask()
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
        let analytic = backward(&mut composed(&base, config), &w_grid);
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
        let mut ws = composed(&single(16.0, 16.0, 5.0, 1.0), cfg(n));
        let mut grad = Grid2D::new(n, n, 0.0);
        for y in 12..21 {
            grad[(21, y)] = -1.0; // right rim pixels want to be brighter
        }
        let grads = backward(&mut ws, &grad);
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
        let mut ws = composed(&single(16.0, 16.0, 5.0, 1.0), cfg(n));
        let mut grad = Grid2D::new(n, n, 0.0);
        for y in 10..23 {
            for x in 10..23 {
                let d = (((x - 16) * (x - 16) + (y - 16) * (y - 16)) as f64).sqrt();
                if d > 5.0 && d < 8.0 {
                    grad[(x as usize, y as usize)] = -1.0;
                }
            }
        }
        let grads = backward(&mut ws, &grad);
        assert!(
            grads[2] < 0.0,
            "radius gradient should be negative, got {}",
            grads[2]
        );
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn backward_checks_shape() {
        let mut ws = composed(&single(16.0, 16.0, 5.0, 1.0), cfg(32));
        let _ = backward(&mut ws, &Grid2D::new(8, 8, 0.0));
    }
}
