//! Process-window study: the depth-of-focus argument behind the circular
//! e-beam writer (paper ref. [7]) measured on our own masks.
//!
//! Compares the focus–exposure window of (a) the raw target used as a
//! mask, and (b) the CircleOpt mask, for the isolated contact of
//! benchmark case 10. Writes a Bossung CSV.
//!
//! ```sh
//! cargo run --release --example process_window
//! ```

use cfaopc::litho::{bossung_surface, standard_sweep, CdAxis, CdProbe};
use cfaopc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = LithoConfig {
        size: 256,
        kernel_count: 8,
        ..LithoConfig::default()
    };
    let sim = LithoSimulator::new(config)?;
    let n = sim.size();
    let target = benchmark_case(10)?.rasterize(n);

    // The 320 nm square's horizontal CD through its center.
    let probe = CdProbe {
        at: Point::new(n as i32 / 2, n as i32 / 2),
        axis: CdAxis::Horizontal,
    };
    let cd_target = 320.0;
    let (focus, doses) = standard_sweep(80.0, 4, 0.04, 4);

    let opt = run_circleopt(
        &sim,
        &target,
        &CircleOptConfig {
            init_iterations: 10,
            circle_iterations: 30,
            gamma: scaled_gamma(n),
            ..CircleOptConfig::default()
        },
        RunCtx::default(),
    )?;

    let out_dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(out_dir)?;
    let mut csv = String::from("mask,defocus_nm,dose,cd_nm\n");

    println!("=== process window (case10, CD target {cd_target} nm ±10%) ===\n");
    for (name, mask) in [("raw-target", &target), ("circleopt", &opt.mask_raster)] {
        let surface = bossung_surface(&sim, mask, &probe, &focus, &doses)?;
        for p in &surface.points {
            csv.push_str(&format!(
                "{name},{},{:.3},{}\n",
                p.defocus_nm,
                p.dose,
                p.cd_nm.map_or(String::from("fail"), |c| format!("{c:.1}")),
            ));
        }
        let window = surface.window_fraction(cd_target, 0.10);
        println!(
            "{name:>12}: {:.0}% of the focus-exposure sweep holds CD within ±10%",
            window * 100.0
        );
        let through_focus: Vec<String> = focus
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let cd = surface.cd(i, doses.len() / 2);
                format!(
                    "{f:>4.0}nm:{}",
                    cd.map_or("  fail".into(), |c| format!("{c:>6.1}"))
                )
            })
            .collect();
        println!(
            "{:>12}  CD through focus @nominal dose: {}",
            "",
            through_focus.join("  ")
        );
    }
    let path = out_dir.join("process_window.csv");
    std::fs::write(&path, csv)?;
    println!("\n-> {}", path.display());
    println!(
        "({} circular shots in the CircleOpt mask)",
        opt.shot_count()
    );
    Ok(())
}
