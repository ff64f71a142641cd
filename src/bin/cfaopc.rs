//! `cfaopc` — command-line front end for the CFAOPC library.
//!
//! ```text
//! cfaopc cases
//! cfaopc fracture --case 3 [--size 256] [--method opt|rule] [--iters 30]
//!                 [--out mask.cshot] [--svg mask.svg] [--trace run.jsonl]
//! cfaopc evaluate --shots mask.cshot --case 3
//! cfaopc eval [--suite small] [--out RESULTS.json] [--md table.md]
//!             [--check eval/golden.json] [--tol 0.02] [--tol-abs 0.5]
//!             [--timing]
//! cfaopc chip [--suite chip-tiny] [--out CHIP_RESULTS.json] [--md table.md]
//!             [--check eval/golden_chip.json] [--tol 0.02] [--tol-abs 0.5]
//!             [--shots-dir DIR]
//! ```
//!
//! `--trace FILE.jsonl` (with `--method opt`) enables the observability
//! layer for the run and streams one JSON line per optimizer iteration
//! (loss terms, sparsity, active shots, gradient norms), followed by a
//! counter summary and the span tree.
//!
//! `eval` runs a whole benchmark suite end to end (CircleRule and
//! CircleOpt on every testcase), sharded across the worker pool, and
//! writes a deterministic `RESULTS.json` — byte-identical across runs
//! and `CFAOPC_THREADS` values unless `--timing` is given. With
//! `--check` it compares every metric against a golden file and exits
//! non-zero on drift beyond tolerance.
//!
//! `chip` runs a full-chip decomposition suite: each chip splits into
//! overlapping halo windows, every window runs the per-tile pipeline in
//! parallel, interior-owned shots merge into one chip-level CSHOT list
//! (written per chip and method with `--shots-dir`), and seams blend
//! under partition-of-unity weights into chip-level L2/PVB/EPE plus
//! cross-seam MRC counts. `CHIP_RESULTS.json` is byte-identical across
//! runs and `CFAOPC_THREADS` values; `--check` works as for `eval`.

use cfaopc::fracture::ShotList;
use cfaopc::litho::loss_only;
use cfaopc::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("cases") => cmd_cases(),
        Some("fracture") => parse_flags(&args[1..], FRACTURE_FLAGS)
            .map_err(Into::into)
            .and_then(|f| cmd_fracture(&f)),
        Some("evaluate") => parse_flags(&args[1..], EVALUATE_FLAGS)
            .map_err(Into::into)
            .and_then(|f| cmd_evaluate(&f)),
        Some("eval") => parse_flags(&args[1..], EVAL_FLAGS)
            .map_err(Into::into)
            .and_then(|f| cmd_eval(&f)),
        Some("chip") => parse_flags(&args[1..], CHIP_FLAGS)
            .map_err(Into::into)
            .and_then(|f| cmd_chip(&f)),
        Some("serve") => parse_flags(&args[1..], SERVE_FLAGS)
            .map_err(Into::into)
            .and_then(|f| cmd_serve(&f)),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `cfaopc help`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "cfaopc — fracturing-aware curvilinear ILT\n\n\
         USAGE:\n  cfaopc cases\n  cfaopc fracture --case <1-10> [--glp FILE] [--size N] \
         [--method opt|rule] [--iters N] [--out FILE.cshot] [--svg FILE.svg] \
         [--trace FILE.jsonl]\n  \
         cfaopc evaluate --shots FILE.cshot (--case <1-10> | --glp FILE)\n  \
         cfaopc eval [--suite tiny|small|paper] [--out RESULTS.json] [--md FILE] \
         [--check GOLDEN.json] [--tol REL] [--tol-abs ABS] [--timing]\n  \
         cfaopc chip [--suite chip-tiny|chip-small] [--out CHIP_RESULTS.json] [--md FILE] \
         [--check GOLDEN.json] [--tol REL] [--tol-abs ABS] [--shots-dir DIR]\n  \
         cfaopc serve [--addr HOST:PORT] [--queue N] [--jobs N] [--timeout-ms MS]\n"
    );
}

type Flags = HashMap<String, String>;

/// One allowed flag for a subcommand: its name (without `--`) and
/// whether it consumes a value.
struct FlagSpec {
    name: &'static str,
    takes_value: bool,
}

const fn flag(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
    }
}

const fn switch(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
    }
}

const FRACTURE_FLAGS: &[FlagSpec] = &[
    flag("case"),
    flag("glp"),
    flag("size"),
    flag("method"),
    flag("iters"),
    flag("out"),
    flag("svg"),
    flag("trace"),
];
const EVALUATE_FLAGS: &[FlagSpec] = &[flag("shots"), flag("case"), flag("glp")];
const EVAL_FLAGS: &[FlagSpec] = &[
    flag("suite"),
    flag("out"),
    flag("md"),
    flag("check"),
    flag("tol"),
    flag("tol-abs"),
    switch("timing"),
];
const CHIP_FLAGS: &[FlagSpec] = &[
    flag("suite"),
    flag("out"),
    flag("md"),
    flag("check"),
    flag("tol"),
    flag("tol-abs"),
    flag("shots-dir"),
];
const SERVE_FLAGS: &[FlagSpec] = &[
    flag("addr"),
    flag("queue"),
    flag("jobs"),
    flag("timeout-ms"),
];

/// Strict flag parser: every token must be a `--flag` from `allowed`
/// (or its value). Unknown flags, stray positionals, missing values,
/// values handed to switches, and duplicated valued flags are all
/// errors naming the offending token — a typo'd run fails loudly
/// instead of silently dropping the option (the old parser accepted
/// anything and ignored what no subcommand read).
///
/// Accepted shapes: `--flag value`, `--flag=value`, bare `--switch`
/// (repeating a switch is idempotent, not an error).
fn parse_flags(args: &[String], allowed: &[FlagSpec]) -> Result<Flags, String> {
    let known = || {
        allowed
            .iter()
            .map(|s| format!("--{}", s.name))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut flags = Flags::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(body) = arg.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument {arg:?} (flags are {})",
                known()
            ));
        };
        let (key, inline_value) = match body.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (body, None),
        };
        let Some(spec) = allowed.iter().find(|s| s.name == key) else {
            return Err(format!("unknown flag --{key} (flags are {})", known()));
        };
        let value = if spec.takes_value {
            match inline_value {
                Some(v) => v,
                None => match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().cloned().unwrap_or_default(),
                    _ => return Err(format!("flag --{key} requires a value")),
                },
            }
        } else {
            if inline_value.is_some() {
                return Err(format!("flag --{key} does not take a value"));
            }
            String::new()
        };
        if flags.insert(key.to_string(), value).is_some() && spec.takes_value {
            return Err(format!("duplicate flag --{key}"));
        }
    }
    Ok(flags)
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn cmd_cases() -> CliResult {
    println!("{:<8} {:>12} {:>7}", "case", "area (nm^2)", "rects");
    for layout in all_cases() {
        println!(
            "{:<8} {:>12} {:>7}",
            layout.name,
            layout.area_nm2(),
            layout.rects.len()
        );
    }
    Ok(())
}

fn load_layout(flags: &Flags) -> Result<Layout, Box<dyn std::error::Error>> {
    if let Some(case) = flags.get("case") {
        return Ok(benchmark_case(case.parse()?)?);
    }
    if let Some(path) = flags.get("glp") {
        return Ok(Layout::from_glp(&std::fs::read_to_string(path)?)?);
    }
    Err("need --case <1-10> or --glp FILE".into())
}

fn build_sim(flags: &Flags) -> Result<LithoSimulator, Box<dyn std::error::Error>> {
    let size: usize = flags
        .get("size")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(256);
    Ok(LithoSimulator::new(LithoConfig {
        size,
        kernel_count: 8,
        ..LithoConfig::default()
    })?)
}

fn cmd_fracture(flags: &Flags) -> CliResult {
    let layout = load_layout(flags)?;
    let sim = build_sim(flags)?;
    let n = sim.size();
    let pixel_nm = sim.config().pixel_nm();
    let target = layout.rasterize(n);
    let iters: usize = flags
        .get("iters")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(30);
    let method = flags.get("method").map(String::as_str).unwrap_or("opt");

    let (mask, raster, label) = match method {
        "rule" => {
            let pixel = run_engine(&sim, &target, IltEngine::MultiIltLike, iters)?;
            let mask = circle_rule(&pixel.mask_binary, &CircleRuleConfig::default(), pixel_nm);
            let raster = mask.rasterize(n, n);
            (mask, raster, "MultiILT+CircleRule")
        }
        "opt" => {
            let config = CircleOptConfig {
                init_iterations: iters.div_ceil(2),
                circle_iterations: iters + 10,
                gamma: scaled_gamma(n),
                ..CircleOptConfig::default()
            };
            let mut trace = match flags.get("trace") {
                Some(path) => {
                    cfaopc::trace::set_enabled(true);
                    let file = std::io::BufWriter::new(std::fs::File::create(path)?);
                    Some((path, JsonlSink::new(file)))
                }
                None => None,
            };
            let ctx = RunCtx {
                sink: trace.as_mut().map(|(_, s)| s as &mut dyn TelemetrySink),
                ..RunCtx::default()
            };
            let result = run_circleopt(&sim, &target, &config, ctx);
            if let Some((path, mut sink)) = trace {
                sink.write_summary()?;
                sink.flush()?;
                println!("wrote {path}");
            }
            let result = result?;
            // `mask_raster` is the run's cached rasterization — no need
            // to re-rasterize here.
            (result.mask, result.mask_raster, "CircleOpt")
        }
        other => return Err(format!("unknown method {other:?} (use opt|rule)").into()),
    };
    let mut metrics = evaluate_mask(&sim, &raster, &target, &EpeConfig::default())?;
    metrics.shots = mask.shot_count();
    println!(
        "{label} on {} @{n}px: L2 {:.0} nm², PVB {:.0} nm², EPE {}, #Shot {}",
        layout.name, metrics.l2, metrics.pvb, metrics.epe, metrics.shots
    );

    if let Some(path) = flags.get("out") {
        let list = ShotList::new(mask.clone(), n, n, pixel_nm);
        std::fs::write(path, list.to_text())?;
        println!("wrote {path}");
    }
    if let Some(path) = flags.get("svg") {
        let printed = sim.print(&raster, ProcessCorner::Nominal)?;
        SvgScene::new(n, n)
            .mask(&target, "#4477aa", 0.35)
            .circles(&mask, "#cc3311")
            .contour(&printed, "#228833")
            .save(path)?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_eval(flags: &Flags) -> CliResult {
    let suite_name = flags.get("suite").map(String::as_str).unwrap_or("small");
    let spec = cfaopc::eval::SuiteSpec::named(suite_name).ok_or_else(|| {
        format!(
            "unknown suite {suite_name:?} (available: {})",
            cfaopc::eval::SuiteSpec::NAMES.join(", ")
        )
    })?;
    let timing = flags.contains_key("timing");
    println!(
        "running suite {:?}: {} cases at {}px, {} workers",
        spec.name,
        spec.cases.len(),
        spec.size,
        cfaopc::fft::parallel::worker_count()
    );
    let report = if timing {
        run_suite_timed(&spec)?
    } else {
        run_suite(&spec)?
    };
    for c in &report.cases {
        let wall = c
            .wall_ms
            .map(|ms| format!(" [{ms:.0} ms]"))
            .unwrap_or_default();
        println!(
            "{:<10} rule: L2 {:>9.0} PVB {:>9.0} EPE {:>3} #Shot {:>4} PW {:.2} | \
             opt: L2 {:>9.0} PVB {:>9.0} EPE {:>3} #Shot {:>4} PW {:.2}{wall}",
            c.name,
            c.rule.l2,
            c.rule.pvb,
            c.rule.epe,
            c.rule.shots,
            c.rule.window,
            c.opt.l2,
            c.opt.pvb,
            c.opt.epe,
            c.opt.shots,
            c.opt.window,
        );
    }
    let out = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("RESULTS.json");
    std::fs::write(out, report.to_json_string())?;
    println!("wrote {out}");
    if let Some(md) = flags.get("md") {
        std::fs::write(md, report.markdown_table())?;
        println!("wrote {md}");
    }
    if let Some(golden_path) = flags.get("check") {
        let tol = parse_tolerance(flags)?;
        let golden = EvalReport::from_json_str(&std::fs::read_to_string(golden_path)?)
            .map_err(|e| format!("cannot load golden file {golden_path}: {e}"))?;
        let drifts = compare_reports(&golden, &report, &tol);
        if drifts.is_empty() {
            println!(
                "golden check OK: {} cases within tolerance (rel {}, abs {}) of {golden_path}",
                report.cases.len(),
                tol.rel,
                tol.abs
            );
        } else {
            eprintln!("golden check FAILED against {golden_path}:");
            for d in &drifts {
                eprintln!("  {d}");
            }
            return Err(format!("{} metric(s) drifted beyond tolerance", drifts.len()).into());
        }
    }
    Ok(())
}

/// `--tol` / `--tol-abs` with the library defaults, shared by the
/// `eval` and `chip` golden checks.
fn parse_tolerance(flags: &Flags) -> Result<Tolerance, Box<dyn std::error::Error>> {
    Ok(Tolerance {
        rel: flags
            .get("tol")
            .map(|s| s.parse())
            .transpose()?
            .unwrap_or(Tolerance::default().rel),
        abs: flags
            .get("tol-abs")
            .map(|s| s.parse())
            .transpose()?
            .unwrap_or(Tolerance::default().abs),
    })
}

fn cmd_chip(flags: &Flags) -> CliResult {
    let suite_name = flags
        .get("suite")
        .map(String::as_str)
        .unwrap_or("chip-tiny");
    let spec = ChipSpec::named(suite_name).ok_or_else(|| {
        format!(
            "unknown chip suite {suite_name:?} (available: {})",
            ChipSpec::NAMES.join(", ")
        )
    })?;
    println!(
        "running chip suite {:?}: {} chips at {} px tiles ({} px windows, {} px halo), {} workers",
        spec.name,
        spec.chips.len(),
        spec.tile_px,
        2 * spec.tile_px,
        spec.tile_px / 2,
        cfaopc::fft::parallel::worker_count()
    );
    let sim = LithoSimulator::new(spec.litho_config())?;
    let shots_dir = flags.get("shots-dir");
    if let Some(dir) = shots_dir {
        std::fs::create_dir_all(dir)?;
    }

    let mut records = Vec::with_capacity(spec.chips.len());
    for source in &spec.chips {
        let chip = source.chip();
        let outcome = run_chip_case_full(&spec, &sim, &chip)?;
        let r = &outcome.record;
        println!(
            "{:<14} {}x{} tiles | rule: L2 {:>9.0} PVB {:>9.0} EPE {:>3} #Shot {:>5} xMRC {:>2} | \
             opt: L2 {:>9.0} PVB {:>9.0} EPE {:>3} #Shot {:>5} xMRC {:>2}",
            r.name,
            r.tiles_x,
            r.tiles_y,
            r.rule.l2,
            r.rule.pvb,
            r.rule.epe,
            r.rule.shots,
            r.rule.cross_seam_violations,
            r.opt.l2,
            r.opt.pvb,
            r.opt.epe,
            r.opt.shots,
            r.opt.cross_seam_violations,
        );
        if let Some(dir) = shots_dir {
            let geom = spec.geometry(&chip);
            let (cw, ch) = (geom.chip_width_px(), geom.chip_height_px());
            for (mask, tag) in [(&outcome.rule_mask, "rule"), (&outcome.opt_mask, "opt")] {
                let path = format!("{dir}/{}_{tag}.cshot", chip.name);
                let list = ShotList::new(mask.clone(), cw, ch, spec.pixel_nm());
                std::fs::write(&path, list.to_text())?;
                println!("wrote {path}");
            }
        }
        records.push(outcome.record);
    }
    let geom = ChipGeometry::new(1, 1, spec.tile_px);
    let report = ChipReport {
        suite: spec.name.clone(),
        tile_px: spec.tile_px,
        window_px: geom.window_px(),
        halo_px: geom.halo_px(),
        kernel_count: spec.kernel_count,
        chips: records,
    };

    let out = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("CHIP_RESULTS.json");
    std::fs::write(out, report.to_json_string())?;
    println!("wrote {out}");
    if let Some(md) = flags.get("md") {
        std::fs::write(md, report.markdown_table())?;
        println!("wrote {md}");
    }
    if let Some(golden_path) = flags.get("check") {
        let tol = parse_tolerance(flags)?;
        let golden = ChipReport::from_json_str(&std::fs::read_to_string(golden_path)?)
            .map_err(|e| format!("cannot load golden file {golden_path}: {e}"))?;
        let drifts = compare_chip_reports(&golden, &report, &tol);
        if drifts.is_empty() {
            println!(
                "golden check OK: {} chips within tolerance (rel {}, abs {}) of {golden_path}",
                report.chips.len(),
                tol.rel,
                tol.abs
            );
        } else {
            eprintln!("golden check FAILED against {golden_path}:");
            for d in &drifts {
                eprintln!("  {d}");
            }
            return Err(format!("{} metric(s) drifted beyond tolerance", drifts.len()).into());
        }
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> CliResult {
    let config = cfaopc::serve::ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:0".to_string()),
        queue_capacity: flags
            .get("queue")
            .map(|s| s.parse())
            .transpose()?
            .unwrap_or(32),
        runners: flags
            .get("jobs")
            .map(|s| s.parse())
            .transpose()?
            .unwrap_or(0),
        default_timeout_ms: flags.get("timeout-ms").map(|s| s.parse()).transpose()?,
    };
    let server = cfaopc::serve::Server::bind(config)?;
    // Flush explicitly: when stdout is a pipe (scripts waiting for the
    // address), line buffering alone would sit on this until exit.
    use std::io::Write as _;
    println!("cfaopc serve: listening on {}", server.local_addr());
    std::io::stdout().flush()?;
    server.run()?;
    println!("cfaopc serve: shut down");
    Ok(())
}

fn cmd_evaluate(flags: &Flags) -> CliResult {
    let shots_path = flags.get("shots").ok_or("need --shots FILE.cshot")?;
    let list = ShotList::from_text(&std::fs::read_to_string(shots_path)?)?;
    let layout = load_layout(flags)?;
    let size = list.width;
    if list.height != size {
        return Err("non-square shot grids are not supported".into());
    }
    let sim = LithoSimulator::new(LithoConfig {
        size,
        kernel_count: 8,
        ..LithoConfig::default()
    })?;
    let target = layout.rasterize(size);
    let raster = list.mask.rasterize(size, size);
    let mut metrics = evaluate_mask(&sim, &raster, &target, &EpeConfig::default())?;
    metrics.shots = list.mask.shot_count();
    let relaxed = loss_only(
        &sim,
        &raster.to_real(),
        &target.to_real(),
        LossWeights::default(),
    )?;
    println!(
        "{} vs {}: L2 {:.0} nm², PVB {:.0} nm², EPE {}, #Shot {} (relaxed total {:.0})",
        shots_path, layout.name, metrics.l2, metrics.pvb, metrics.epe, metrics.shots, relaxed.total
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_space_and_equals_forms() {
        let flags = parse_flags(
            &args(&["--case", "3", "--size=256", "--method", "opt"]),
            FRACTURE_FLAGS,
        )
        .unwrap();
        assert_eq!(flags.get("case").map(String::as_str), Some("3"));
        assert_eq!(flags.get("size").map(String::as_str), Some("256"));
        assert_eq!(flags.get("method").map(String::as_str), Some("opt"));
    }

    #[test]
    fn unknown_flags_error_and_name_the_allowlist() {
        let err = parse_flags(&args(&["--sizr", "256"]), FRACTURE_FLAGS).unwrap_err();
        assert!(err.contains("--sizr"), "{err}");
        assert!(
            err.contains("--size"),
            "error should list valid flags: {err}"
        );
        // A flag valid for one subcommand is still unknown for another.
        let err = parse_flags(&args(&["--timing"]), FRACTURE_FLAGS).unwrap_err();
        assert!(err.contains("--timing"), "{err}");
    }

    #[test]
    fn stray_positionals_error() {
        let err = parse_flags(&args(&["RESULTS.json"]), EVAL_FLAGS).unwrap_err();
        assert!(err.contains("RESULTS.json"), "{err}");
    }

    #[test]
    fn switches_take_no_value_and_may_repeat() {
        let flags = parse_flags(
            &args(&["--timing", "--timing", "--check", "g.json"]),
            EVAL_FLAGS,
        )
        .unwrap();
        assert!(flags.contains_key("timing"));
        assert_eq!(flags.get("check").map(String::as_str), Some("g.json"));
        let err = parse_flags(&args(&["--timing=yes"]), EVAL_FLAGS).unwrap_err();
        assert!(err.contains("does not take a value"), "{err}");
    }

    #[test]
    fn valued_flags_require_values_and_reject_duplicates() {
        let err = parse_flags(&args(&["--suite"]), EVAL_FLAGS).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        // A following flag token is not a value.
        let err = parse_flags(&args(&["--suite", "--timing"]), EVAL_FLAGS).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err =
            parse_flags(&args(&["--suite", "tiny", "--suite", "small"]), EVAL_FLAGS).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn empty_args_parse_to_no_flags() {
        assert!(parse_flags(&[], SERVE_FLAGS).unwrap().is_empty());
    }

    #[test]
    fn chip_flags_accept_the_ci_invocation() {
        let flags = parse_flags(
            &args(&[
                "--suite",
                "chip-tiny",
                "--out=CHIP_RESULTS.json",
                "--check",
                "eval/golden_chip.json",
                "--shots-dir",
                "shots",
            ]),
            CHIP_FLAGS,
        )
        .unwrap();
        assert_eq!(flags.get("suite").map(String::as_str), Some("chip-tiny"));
        assert_eq!(flags.get("shots-dir").map(String::as_str), Some("shots"));
        // `--timing` belongs to eval, not chip.
        let err = parse_flags(&args(&["--timing"]), CHIP_FLAGS).unwrap_err();
        assert!(err.contains("--timing"), "{err}");
    }
}
