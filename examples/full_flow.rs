//! Full CFAOPC flow on one benchmark tile, end to end, with artifacts:
//! layout → GLP text → raster target → CircleOpt → circular mask →
//! lithography prints at all corners → metrics → SVG + PGM dumps.
//!
//! ```sh
//! cargo run --release --example full_flow -- 2     # benchmark case 2
//! ```

use cfaopc::prelude::*;
use cfaopc_litho::loss_only;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let case: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2);
    let config = LithoConfig {
        size: 256,
        kernel_count: 8,
        ..LithoConfig::default()
    };
    let pixel_nm = config.pixel_nm();
    let sim = LithoSimulator::new(config)?;
    let n = sim.size();
    let out_dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(out_dir)?;

    // 1. Layout and its interchange format.
    let layout = benchmark_case(case)?;
    let glp_path = out_dir.join(format!("{}.glp", layout.name));
    std::fs::write(&glp_path, layout.to_glp())?;
    println!(
        "[1] {} ({} nm² over {} rects) -> {}",
        layout.name,
        layout.area_nm2(),
        layout.rects.len(),
        glp_path.display()
    );

    // 2. Raster target.
    let target = Layout::from_glp(&std::fs::read_to_string(&glp_path)?)?.rasterize(n);
    println!(
        "[2] rasterized at {n}x{n} px ({pixel_nm} nm/px): {} px set",
        target.count_ones()
    );

    // 3. CircleOpt.
    let opt_cfg = CircleOptConfig {
        init_iterations: 10,
        circle_iterations: 30,
        ..CircleOptConfig::default()
    };
    let result = run_circleopt(&sim, &target, &opt_cfg, RunCtx::default())?;
    println!(
        "[3] CircleOpt: {} shots after {} circle iterations (stage-1 mask had {} px)",
        result.shot_count(),
        result.history.len(),
        result.init_mask.count_ones()
    );
    if let (Some(first), Some(last)) = (result.history.first(), result.history.last()) {
        println!(
            "    relaxed loss {:.0} -> {:.0} (L2 {:.0} -> {:.0})",
            first.loss.total, last.loss.total, first.loss.l2, last.loss.l2
        );
    }

    // 4. Prints at every process corner.
    let [nominal, pmax, pmin] = sim.print_corners(&result.mask_raster)?;
    println!(
        "[4] printed px — nominal {}, max-dose {}, defocused-min {}",
        nominal.count_ones(),
        pmax.count_ones(),
        pmin.count_ones()
    );

    // 5. Metrics.
    let mut metrics = evaluate_mask(&sim, &result.mask_raster, &target, &EpeConfig::default())?;
    metrics.shots = result.shot_count();
    let relaxed = loss_only(
        &sim,
        &result.mask_raster.to_real(),
        &target.to_real(),
        LossWeights::default(),
    )?;
    println!(
        "[5] L2 {:.0} nm²  PVB {:.0} nm²  EPE {}  #Shot {}  (relaxed total {:.0})",
        metrics.l2, metrics.pvb, metrics.epe, metrics.shots, relaxed.total
    );

    // 6. Artifacts.
    let svg_path = out_dir.join(format!("{}_circleopt.svg", layout.name));
    SvgScene::new(n, n)
        .mask(&target, "#4477aa", 0.35)
        .circles(&result.mask, "#cc3311")
        .contour(&nominal, "#228833")
        .save(&svg_path)?;
    let aerial = sim.aerial_image(&result.mask_raster.to_real(), ProcessCorner::Nominal)?;
    let pgm_path = out_dir.join(format!("{}_aerial.pgm", layout.name));
    save_pgm(&aerial, &pgm_path)?;
    println!(
        "[6] wrote {} and {}",
        svg_path.display(),
        pgm_path.display()
    );
    Ok(())
}
