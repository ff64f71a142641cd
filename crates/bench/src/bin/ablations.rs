//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Gradient window `U`** (Eq. 16): windowed vs full-plane gradient
//!    aggregation — same gradients, very different cost.
//! 2. **STE clipping gates** (Eq. 9): with vs without, counting the
//!    active circles whose continuous radius ends outside the writer's
//!    `[R_min, R_max]`. The gates do not keep every radius in range: at
//!    CI's settings (`CFAOPC_SIZE=64 CFAOPC_CASES=3,7 CFAOPC_ITERS=2`)
//!    `ablation_ste.csv` counts 2 with the gates and 1 without, with
//!    equal metrics.
//! 3. **Max vs softmax composition** (Eq. 11): argmax routing vs smooth
//!    blending.
//! 4. **CircleRule radius policy**: last-radius-covering (default) vs
//!    the literal pseudocode first-below-threshold.
//!
//! Runs on one benchmark case (override with `CFAOPC_CASES`). Each study
//! writes its numbers under `target/experiments/`: [1]'s gradient gap as
//! `ablation_window.csv`, [2]–[4] as metric tables (`ablation_ste.csv`,
//! `ablation_composition.csv`, `ablation_radius_policy.csv`). Timings go
//! to stdout only.

use cfaopc_bench::{banner, Experiment};
use cfaopc_core::{
    CircleOptConfig, ComposeConfig, ComposeWorkspace, Composition, SparseCircles, Q_THRESHOLD,
};
use cfaopc_fracture::{circle_rule, CircleRuleConfig};
use cfaopc_grid::Grid2D;
use cfaopc_metrics::{MetricRow, MetricTable};
use std::time::Instant;

fn main() {
    let exp = Experiment::from_env();
    banner("Ablations", &exp);
    let layout = exp.cases.first().expect("at least one case").clone();
    let target = exp.target(&layout);
    let n = exp.size();
    let pixel_nm = exp.pixel_nm();
    println!("--- running all ablations on {} ---\n", layout.name);

    // ------------------------------------------------------------------
    // 1. Gradient window U: windowed vs full-plane aggregation.
    // ------------------------------------------------------------------
    let pixel = exp.pixel_mask(cfaopc_ilt::IltEngine::Mosaic, &target);
    let circles = SparseCircles::from_circular_mask(&circle_rule(
        &pixel,
        &CircleRuleConfig::default(),
        pixel_nm,
    ));
    let rule = CircleRuleConfig::default();
    let (r_min, r_max) = rule.radius_range_px(pixel_nm);
    let grad_field = Grid2D::from_vec(
        n,
        n,
        (0..n * n)
            .map(|i| ((i as f64) * 0.37).sin() * 0.01)
            .collect(),
    );

    let windowed_cfg = ComposeConfig::new(n, r_min, r_max);
    let full_cfg = ComposeConfig {
        window_margin: n as i32, // the window now spans the whole plane
        ..windowed_cfg
    };
    let backward = |config| {
        let mut ws = ComposeWorkspace::new(config, Composition::Max);
        ws.compose(&circles);
        let mut grads = Vec::new();
        ws.backward_into(&grad_field, &mut grads);
        grads
    };
    let t0 = Instant::now();
    let windowed = backward(windowed_cfg);
    let t_windowed = t0.elapsed();
    let t0 = Instant::now();
    let full = backward(full_cfg);
    let t_full = t0.elapsed();
    let max_diff = windowed
        .iter()
        .zip(&full)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let max_mag = full.iter().map(|g| g.abs()).fold(0.0f64, f64::max);
    println!("[1] gradient window U ({} circles):", circles.len());
    println!(
        "    windowed backward: {t_windowed:?}, full-plane: {t_full:?} ({:.1}x slower)",
        t_full.as_secs_f64() / t_windowed.as_secs_f64().max(1e-9)
    );
    println!("    max |Δgrad| = {max_diff:.3e} (max |grad| = {max_mag:.3e})\n");
    let path = exp.artifact("ablation_window.csv");
    let csv = format!(
        "circles,max_abs_dgrad,max_abs_grad\n{},{max_diff:e},{max_mag:e}\n",
        circles.len()
    );
    std::fs::write(&path, csv).expect("write csv");
    println!("-> {}\n", path.display());

    // ------------------------------------------------------------------
    // 2. STE clipping gates on vs off.
    // ------------------------------------------------------------------
    let base = CircleOptConfig {
        init_iterations: 10,
        circle_iterations: 30,
        ..exp.circleopt_config()
    };
    let mut table = MetricTable::new("Ablation [2]: STE clipping gates");
    for (label, gates) in [("with STE gates", true), ("without STE gates", false)] {
        let cfg = CircleOptConfig {
            ste_gates: gates,
            ..base.clone()
        };
        let (metrics, result) = exp.eval_circleopt(&target, &cfg);
        let out_of_range = result
            .circles
            .circles
            .iter()
            .filter(|c| c.q > Q_THRESHOLD)
            .filter(|c| c.r < r_min as f64 - 0.5 || c.r > r_max as f64 + 0.5)
            .count();
        table.push(MetricRow::new(
            format!("{label} ({out_of_range} radii outside {r_min}..{r_max})"),
            metrics,
        ));
    }
    exp.emit("ablation_ste", &table);

    // ------------------------------------------------------------------
    // 3. Max vs softmax composition.
    // ------------------------------------------------------------------
    let mut table = MetricTable::new("Ablation [3]: max vs softmax composition");
    for (label, composition) in [
        ("max composition (paper)", Composition::Max),
        (
            "softmax composition β=20",
            Composition::Softmax { beta: 20.0 },
        ),
    ] {
        let cfg = CircleOptConfig {
            composition,
            ..base.clone()
        };
        let t0 = Instant::now();
        let (metrics, _) = exp.eval_circleopt(&target, &cfg);
        println!("[3] {label}: {:?}", t0.elapsed());
        table.push(MetricRow::new(label, metrics));
    }
    exp.emit("ablation_composition", &table);

    // ------------------------------------------------------------------
    // 4. CircleRule radius policy.
    // ------------------------------------------------------------------
    let mut table = MetricTable::new("Ablation [4]: CircleRule radius policy");
    for (label, literal) in [
        ("last r with cover ≥ I (default)", false),
        ("first r below I (literal)", true),
    ] {
        let rule = CircleRuleConfig {
            first_below_threshold: literal,
            ..CircleRuleConfig::default()
        };
        let (metrics, mask) = exp.eval_circle_rule(&pixel, &target, &rule);
        let avg_r =
            mask.shots().iter().map(|s| s.r as f64).sum::<f64>() / mask.shot_count().max(1) as f64;
        table.push(MetricRow::new(
            format!("{label}: mean radius {avg_r:.2} px"),
            metrics,
        ));
    }
    exp.emit("ablation_radius_policy", &table);
}
