//! Demonstrates why the circular writer wins: VSB rectangle counts grow
//! linearly with raster resolution (one shot per curved boundary row),
//! while circular shot counts are resolution-invariant. Extrapolating the
//! doubling to the writer's native 1 nm grid gives about 5x fewer circles
//! than rectangles, near the paper's Figure 1 ratio (~6x for curvilinear
//! masks).
//!
//! ```sh
//! cargo run --release -p cfaopc-bench --example shot_scaling
//! ```

use cfaopc_fracture::*;
use cfaopc_ilt::*;
use cfaopc_litho::*;

fn main() {
    for size in [256usize, 512, 1024] {
        let cfg = LithoConfig {
            size,
            kernel_count: 6,
            ..LithoConfig::default()
        };
        let px = cfg.pixel_nm();
        let sim = LithoSimulator::new(cfg).unwrap();
        let target = cfaopc_layouts::benchmark_case(4).unwrap().rasterize(size);
        let t0 = std::time::Instant::now();
        let r = run_engine(&sim, &target, IltEngine::DevelSetLike, 20).unwrap();
        let mask = CircleRuleConfig::default().writable_mask(&r.mask_binary, px);
        let rects = rect_shot_count(&mask);
        let circles = circle_rule(&mask, &CircleRuleConfig::default(), px).shot_count();
        println!(
            "size {size} ({px} nm/px): rects {rects}, circles {circles}, ratio {:.2} [{:?}]",
            rects as f64 / circles as f64,
            t0.elapsed()
        );
    }
}
