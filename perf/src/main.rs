//! `cfaopc-perf` — run one benchmark workload, or compare two sets of
//! runs.
//!
//! ```text
//! cfaopc-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! cfaopc-perf compare <parent.json>... -- <change.json>...
//! ```
//!
//! A run prints every metric with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits 0 when every output check passed,
//! 1 when a check failed, and 2 when the run could not complete.

use cfaopc_eval::Json;
use cfaopc_perf::{compare, run_workload, Catalog, RunConfig, Scale};
use std::process::ExitCode;

struct Args {
    workload: String,
    cfg: RunConfig,
    out: Option<String>,
}

fn parse_args(args: &[String], catalog: &Catalog) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            "--out" => &mut out,
            other => return Err(format!("unknown flag {other:?}")),
        };
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            catalog.workloads.join(", ")
        ));
    }
    let seed = match seed {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
        None => 1,
    };
    let seconds: f64 = match seconds {
        Some(s) => s.parse().map_err(|_| format!("bad --seconds {s:?}"))?,
        None => catalog.run_seconds as f64,
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed,
            seconds,
            trace,
            scale: Scale::Full,
        },
        out,
    })
}

fn run(args: &[String]) -> Result<bool, String> {
    let catalog = Catalog::embedded()?;
    let args = parse_args(args, &catalog)?;
    let outcome = run_workload(&args.workload, &args.cfg)?;
    let wanted = catalog.printed(args.cfg.trace);

    let mut metrics = Vec::with_capacity(wanted.len());
    for def in wanted {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", def.name));
        }
        println!("{:<24} {:>16.6} {}", def.name, value, def.unit);
        metrics.push((
            def.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(def.unit.clone())),
            ]),
        ));
    }
    if let Some((extra, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !wanted.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {extra} is not in BENCHMARK.json"));
    }
    for failure in &outcome.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = outcome.failures.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failures.len() as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    if let Some(path) = &args.out {
        let record = Json::Obj(vec![
            ("schema".into(), Json::Str(compare::SCHEMA.into())),
            ("workload".into(), Json::Str(args.workload.clone())),
            ("seed".into(), Json::Num(args.cfg.seed as f64)),
            ("seconds".into(), Json::Num(args.cfg.seconds)),
            ("trace".into(), Json::Bool(args.cfg.trace)),
            (
                "workers".into(),
                Json::Num(cfaopc_fft::parallel::worker_count() as f64),
            ),
            ("result".into(), result.clone()),
            (
                "failures".into(),
                Json::Arr(
                    outcome
                        .failures
                        .iter()
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("details".into(), Json::Obj(outcome.details)),
        ]);
        std::fs::write(path, record.to_string_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.to_string_compact());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("cfaopc-perf compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    // Pin the pool to the machine's cores whatever the caller's
    // environment says, before anything reads it: the load comes from
    // this one process with at most `nproc` workers.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("CFAOPC_THREADS", nproc.to_string());
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cfaopc-perf: {e}");
            ExitCode::from(2)
        }
    }
}
