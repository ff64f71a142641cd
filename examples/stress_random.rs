//! Stress test on generated layouts: run the full CFAOPC flow over a
//! batch of seeded random M1-style tiles (geometry the ten benchmark
//! cases do not cover) and verify invariants hold on every one.
//!
//! ```sh
//! cargo run --release --example stress_random -- 5   # number of seeds
//! ```

use cfaopc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let config = LithoConfig {
        size: 256,
        kernel_count: 8,
        ..LithoConfig::default()
    };
    let pixel_nm = config.pixel_nm();
    let sim = LithoSimulator::new(config)?;
    let n = sim.size();
    let (r_min, r_max) = CircleRuleConfig::default().radius_range_px(pixel_nm);

    let mut table = MetricTable::new(format!("random stress ({seeds} tiles)"));
    for seed in 0..seeds {
        let layout = generate_layout(seed);
        let target = layout.rasterize(n);
        let result = run_circleopt(
            &sim,
            &target,
            &CircleOptConfig::for_grid(n, 10, 25),
            RunCtx::default(),
        )?;
        // Invariants: every shot within writer limits, raster = union.
        let report = check_mrc(
            &result.mask,
            &MrcRules {
                r_min,
                r_max,
                min_spacing: 0.0,
            },
        );
        assert!(report.is_clean(), "seed {seed}: MRC violations");
        assert_eq!(result.mask_raster, result.mask.rasterize(n, n));

        let mut metrics = evaluate_mask(&sim, &result.mask_raster, &target, &EpeConfig::default())?;
        metrics.shots = result.shot_count();
        table.push(MetricRow::new(layout.name, metrics));
    }
    print!("{table}");
    println!("all tiles passed the MRC and union invariants");
    Ok(())
}
