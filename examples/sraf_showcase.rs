//! SRAF showcase: an isolated contact (benchmark case 10) printed with
//! and without sub-resolution assist features, and what each costs in
//! circular shots. Renders SVG artifacts next to the binary.
//!
//! ```sh
//! cargo run --release --example sraf_showcase
//! ```

use cfaopc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = LithoConfig {
        size: 256,
        kernel_count: 8,
        ..LithoConfig::default()
    };
    let pixel_nm = config.pixel_nm();
    let sim = LithoSimulator::new(config)?;
    let n = sim.size();
    let target = benchmark_case(10)?.rasterize(n);
    let epe_cfg = EpeConfig::default();
    let out_dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(out_dir)?;

    println!("=== SRAF showcase (case10: isolated 320nm square) ===\n");

    // SRAF-free baseline: the DevelSet-like level set, whose front moves
    // from the target but nucleates nothing new.
    let plain = run_engine(&sim, &target, IltEngine::DevelSetLike, 25)?;
    // SRAF-rich: MultiILT-like (full-domain, assists can nucleate).
    let sraf = run_engine(&sim, &target, IltEngine::MultiIltLike, 25)?;

    for (name, result) in [
        ("no-SRAF (DevelSet-like)", &plain),
        ("SRAF (MultiILT-like)", &sraf),
    ] {
        let circles = circle_rule(&result.mask_binary, &CircleRuleConfig::default(), pixel_nm);
        let raster = circles.rasterize(n, n);
        let mut metrics = evaluate_mask(&sim, &raster, &target, &epe_cfg)?;
        metrics.shots = circles.shot_count();
        println!(
            "{name:>24}: L2 {:>9.0}  PVB {:>9.0}  EPE {:>2}  #Shot {:>4}",
            metrics.l2, metrics.pvb, metrics.epe, metrics.shots
        );

        let printed = sim.print(&raster, ProcessCorner::Nominal)?;
        let svg = SvgScene::new(n, n)
            .mask(&target, "#4477aa", 0.35)
            .circles(&circles, "#cc3311")
            .contour(&printed, "#228833");
        let file = out_dir.join(format!(
            "sraf_{}.svg",
            name.split_whitespace()
                .next()
                .unwrap()
                .trim_end_matches(',')
        ));
        svg.save(&file)?;
        println!("{:>24}  wrote {}", "", file.display());
    }

    println!("\nSRAFs widen the process window (lower PVB) at the price of");
    println!("extra shots — the trade-off the circular writer makes cheap.");
    Ok(())
}
