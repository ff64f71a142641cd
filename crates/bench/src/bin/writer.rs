//! **Writer fidelity** (supporting the paper's §1 motivation): simulate
//! actually *writing* the fractured masks on an e-beam machine with
//! 20–40 nm forward blur and flash-dose noise, and compare
//!
//! * rectangular (VSB) fracturing of a pixel-ILT mask, vs
//! * CircleRule circular fracturing of the same mask,
//!
//! on writing error (written vs intended pattern) and write time. The
//! paper asserts rectangular fracturing of curvilinear masks is "prone
//! to writing errors due to short-range e-beam blur"; this binary
//! measures that, including the shot-count → dose-noise coupling.

use cfaopc_bench::{banner, Experiment};
use cfaopc_ebeam::{correct_proximity, intended_pattern, EbeamPsf, WriterModel};
use cfaopc_fracture::{circle_rule, rect_fracture, CircleRuleConfig};
use cfaopc_ilt::IltEngine;

fn main() {
    let exp = Experiment::from_env();
    banner("Writer fidelity: VSB rectangles vs circular shots", &exp);
    let n = exp.size();
    let px = exp.pixel_nm();
    // Photomasks are written at 4x magnification: the writer sees
    // mask-scale geometry, 4x the wafer-scale pitch of the simulation.
    let writer = WriterModel::new(n, px * 4.0, EbeamPsf::forward_only(30.0))
        .expect("experiment grid sizes are powers of two");
    let noise_sigma = 0.08;

    let mut csv =
        String::from("case,fracturing,shots,write_time_ms,clean_error_px,noisy_error_px\n");
    println!(
        "{:<8} {:>12} {:>7} {:>12} {:>12} {:>12}",
        "case", "fracturing", "#shots", "t_write(ms)", "err_clean", "err_noisy"
    );
    for layout in &exp.cases {
        let target = exp.target(layout);
        let pixel = exp.pixel_mask(IltEngine::MultiIltLike, &target);

        let rect_shots = WriterModel::dose_rects(&rect_fracture(&pixel));
        let circles = circle_rule(&pixel, &CircleRuleConfig::default(), px);
        let circle_shots = WriterModel::dose_circles(&circles);

        for (name, shots) in [("rect", rect_shots), ("circle", circle_shots)] {
            let intended = intended_pattern(&shots, n);
            // PEC first — both writers get the same correction budget.
            let corrected = correct_proximity(&writer, &shots).shots;
            let clean = writer.writing_error(&corrected, &intended);
            let noisy: usize = (0..4)
                .map(|seed| {
                    let noisy_shots = WriterModel::with_dose_noise(&corrected, noise_sigma, seed);
                    writer.writing_error(&noisy_shots, &intended)
                })
                .sum::<usize>()
                / 4;
            let t_ms = WriterModel::write_time_s(shots.len(), 0.2, 0.3) * 1e3;
            println!(
                "{:<8} {:>12} {:>7} {:>12.2} {:>12} {:>12}",
                layout.name,
                name,
                shots.len(),
                t_ms,
                clean,
                noisy
            );
            csv.push_str(&format!(
                "{},{},{},{:.3},{},{}\n",
                layout.name,
                name,
                shots.len(),
                t_ms,
                clean,
                noisy
            ));
        }
    }
    std::fs::write(exp.artifact("writer_fidelity.csv"), csv).expect("write csv");
    println!(
        "\nExpected shape: circles need far fewer shots (lower write time) and\n\
         accumulate less flash-dose noise along the pattern boundary."
    );
    println!("-> {}", exp.artifact("writer_fidelity.csv").display());
}
