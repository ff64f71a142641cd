//! The `cfaopc` binary end to end: a shot file written by `fracture`
//! scores the same under `evaluate`, `evaluate` refuses a shot file
//! whose field is not one benchmark tile, and a numeric flag that does
//! not parse stops every command before it does any work, naming the flag
//! and the value.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cfaopc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cfaopc"))
        .args(args)
        .output()
        .expect("the cfaopc binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `L2 …, PVB …, EPE …, #Shot N` part of a metrics line, which
/// `fracture` and `evaluate` print alike.
fn metrics(text: &str) -> String {
    let line = text
        .lines()
        .find(|l| l.contains(": L2 "))
        .unwrap_or_else(|| panic!("no metrics line in:\n{text}"));
    let start = line.find("L2 ").unwrap();
    let shots = line.find("#Shot ").unwrap();
    let end = line[shots + 6..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(line.len(), |e| shots + 6 + e);
    line[start..end].to_string()
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{name}", std::process::id()))
}

#[test]
fn evaluate_scores_a_fracture_shot_file_as_fracture_did() {
    for method in ["rule", "opt"] {
        let path = scratch(&format!("{method}.cshot"));
        let file = path.to_str().unwrap();
        let fractured = stdout(&cfaopc(&[
            "fracture", "--case", "3", "--size", "64", "--iters", "2", "--method", method, "--out",
            file,
        ]));
        let evaluated = stdout(&cfaopc(&["evaluate", "--shots", file, "--case", "3"]));
        assert_eq!(
            metrics(&evaluated),
            metrics(&fractured),
            "--method {method}"
        );

        // The same shots at twice the pitch span two tiles' width.
        let text = std::fs::read_to_string(&path).unwrap();
        let grid = text.lines().nth(1).unwrap();
        assert_eq!(grid, "GRID 64 64 32", "--method {method}");
        let doubled = scratch(&format!("{method}-doubled.cshot"));
        std::fs::write(&doubled, text.replacen(grid, "GRID 64 64 64", 1)).unwrap();
        let out = cfaopc(&[
            "evaluate",
            "--shots",
            doubled.to_str().unwrap(),
            "--case",
            "3",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--method {method}: exit 0");
        assert!(
            stderr.contains("4096 nm") && stderr.contains("2048 nm"),
            "--method {method}: {stderr}"
        );
        for p in [&path, &doubled] {
            std::fs::remove_file(p).unwrap();
        }
    }
}

#[test]
fn numeric_flags_that_do_not_parse_stop_before_any_work() {
    let out_file = scratch("never-written.json");
    let out_path = out_file.to_str().unwrap();
    let cases: [(&[&str], &str, &str); 6] = [
        (
            &["fracture", "--case", "1", "--iters", "two"],
            "--iters",
            "\"two\"",
        ),
        (&["fracture", "--case", "x"], "--case", "\"x\""),
        (&["serve", "--jobs", "x"], "--jobs", "\"x\""),
        (
            &["evaluate", "--shots", out_path, "--case", "z"],
            "--case",
            "\"z\"",
        ),
        (
            &[
                "eval",
                "--suite",
                "tiny",
                "--tol",
                "abc",
                "--check",
                "eval/golden.json",
                "--out",
                out_path,
            ],
            "--tol",
            "\"abc\"",
        ),
        (
            &["chip", "--tol-abs", "q", "--out", out_path],
            "--tol-abs",
            "\"q\"",
        ),
    ];
    for (args, flag, value) in cases {
        let out = cfaopc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}: exit 0");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{args:?}: {stderr}"
        );
        // Nothing ran: no progress line, no report.
        assert!(
            out.stdout.is_empty(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(!out_file.exists(), "{args:?} wrote {out_path}");
    }
}
