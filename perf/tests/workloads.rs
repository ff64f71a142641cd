//! Every workload on its small counterpart — suite `tiny`, `chip-tiny`,
//! a 64 px `tile_large` and three serve jobs — untraced and traced: each
//! must pass its output checks and emit exactly the catalogue's metrics,
//! all finite.
//!
//! The worker pool and the trace registry are process-wide, so the runs
//! share one test function instead of racing on parallel test threads.

use cfaopc_chip::{ChipSource, ChipSpec};
use cfaopc_eval::SuiteSpec;
use cfaopc_perf::{chip, eval, run_workload, serve, Catalog, RunConfig, Scale};

fn small(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.01,
        trace,
        scale: Scale::Small,
    }
}

#[test]
fn every_workload_emits_the_catalogue_and_passes_its_checks() {
    let catalog = Catalog::embedded().unwrap();
    for workload in &catalog.workloads {
        for trace in [false, true] {
            let out = run_workload(workload, &small(5, trace))
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            let wanted = catalog.printed(trace);
            for def in wanted {
                assert!(!def.unit.is_empty(), "{} has no unit", def.name);
                let value = out
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == def.name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: {} missing", def.name));
                assert!(value.is_finite(), "{workload}: {} = {value}", def.name);
            }
            assert_eq!(out.metrics.len(), wanted.len(), "{workload}: extra metrics");
        }
    }
    assert!(run_workload("nope", &small(1, false)).is_err());
}

#[test]
fn a_seed_always_generates_the_same_inputs() {
    for scale in [Scale::Full, Scale::Small] {
        let cfg = |seed| RunConfig {
            scale,
            ..small(seed, false)
        };
        assert_eq!(
            eval::plan_eval_small(&cfg(4)).specs,
            eval::plan_eval_small(&cfg(4)).specs
        );
        assert_ne!(
            eval::plan_eval_small(&cfg(4)).specs,
            eval::plan_eval_small(&cfg(5)).specs
        );
        assert_eq!(
            eval::plan_tile_large(&cfg(4)).specs,
            eval::plan_tile_large(&cfg(4)).specs
        );
        assert_eq!(chip::plan(&cfg(4)), chip::plan(&cfg(4)));
        assert_ne!(chip::plan(&cfg(4)), chip::plan(&cfg(5)));
        assert_eq!(serve::job_cycle(&cfg(4)), serve::job_cycle(&cfg(4)));
        let chips: Vec<_> = chip::plan(&cfg(4)).chips.iter().map(|c| c.chip()).collect();
        let again: Vec<_> = chip::plan(&cfg(4)).chips.iter().map(|c| c.chip()).collect();
        assert_eq!(chips, again);
    }
}

#[test]
fn seed_one_is_the_committed_suites() {
    let cfg = RunConfig {
        scale: Scale::Full,
        ..small(1, false)
    };
    let plan = eval::plan_eval_small(&cfg);
    assert_eq!(plan.specs, vec![SuiteSpec::named("small").unwrap()]);
    assert!(plan.golden.is_some());
    let chip_plan = chip::plan(&cfg);
    let chip_small = ChipSpec::named("chip-small").unwrap();
    assert_eq!(
        ChipSpec {
            chips: chip_plan.chips.clone(),
            ..chip_small.clone()
        },
        chip_plan
    );
    assert!(matches!(
        (&chip_plan.chips[0], &chip_small.chips[0]),
        (
            ChipSource::Generated { seed: 3, .. },
            ChipSource::Generated { seed: 3, .. }
        )
    ));
    assert!(eval::plan_eval_small(&RunConfig { seed: 2, ..cfg })
        .golden
        .is_none());
}
