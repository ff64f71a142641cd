//! The daemon's wire protocol: newline-delimited JSON, both directions.
//!
//! Requests are parsed with `cfaopc_eval::Json`'s strict parser (a
//! malformed line gets an `error` response, never a guess) and responses
//! are built as ordered `Json` objects, so every line the daemon emits
//! is deterministic: same fields, same order, same float formatting.
//!
//! ## Requests (client → daemon)
//!
//! | `cmd` | fields |
//! |---|---|
//! | `submit` | `id` (required), `case` *or* `seed`, `size`, `kernels`, `init_iters`, `iters`, `priority`, `stream`, `timeout_ms`, `weight_l2`, `weight_pvb` |
//! | `cancel` | `id` |
//! | `status` | — |
//! | `ping` | — |
//! | `shutdown` | — |
//!
//! A request is rejected with an `error` naming the bound it exceeds:
//!
//! | field | bound |
//! |---|---|
//! | the request line | ≤ [`MAX_REQUEST_BYTES`] (64 KiB); past it the daemon also closes the connection |
//! | `size` | ≤ [`MAX_SIZE`] (2048) |
//! | `kernels` | ≤ [`MAX_KERNELS`] (64) |
//! | `init_iters`, `iters` | ≤ [`MAX_ITERATIONS`] (100 000) |
//!
//! ## Responses (daemon → client)
//!
//! `ack`, `rejected`, `iter` (streamed telemetry, tagged with `job`),
//! `result`, `cancelled`, `failed`, `status`, `pong`, `shutting_down`,
//! `error`. Every job-related line carries the job `id`, and an accepted
//! job's `ack` precedes its other lines. An accepted job ends in exactly
//! one `result`, `cancelled` or `failed` line.

use cfaopc_eval::{CaseSource, Json};
use cfaopc_metrics::MaskMetrics;

/// Hard ceiling on one request line, in bytes (without its newline): the
/// daemon buffers at most this much of a line, so a client cannot grow
/// its heap without limit. A valid request is under 1 KiB (ids are at
/// most 128 characters).
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Hard ceiling on requested grid edges: a submit asking for more is
/// rejected before it can make the daemon allocate gigabytes.
pub const MAX_SIZE: usize = 2048;

/// Hard ceiling on requested SOCS kernels per process corner: the
/// kernel stack is allocated up front, so an unbounded count would abort
/// the daemon on allocation failure. The paper's model uses 24 kernels.
pub const MAX_KERNELS: usize = 64;

/// Hard ceiling on requested iteration counts (either stage).
pub const MAX_ITERATIONS: usize = 100_000;

/// A parsed job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen job identifier; echoed on every response line.
    pub id: String,
    /// Which layout to optimize.
    pub source: CaseSource,
    /// Simulation grid edge in pixels (power of two).
    pub size: usize,
    /// SOCS kernels per process corner.
    pub kernel_count: usize,
    /// CircleOpt stage-1 (pixel init) iterations.
    pub init_iterations: usize,
    /// CircleOpt stage-2 (circle-level) iterations.
    pub circle_iterations: usize,
    /// Queue priority; higher runs sooner.
    pub priority: i64,
    /// Stream per-iteration telemetry (`iter` lines) to the client.
    pub stream: bool,
    /// Per-job timeout override, milliseconds.
    pub timeout_ms: Option<u64>,
    /// L2 loss weight override (default 1.0).
    pub weight_l2: Option<f64>,
    /// PVB loss weight override (default 1.0).
    pub weight_pvb: Option<f64>,
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job.
    Submit(JobSpec),
    /// Cancel a queued or running job by id.
    Cancel {
        /// The job to cancel.
        id: String,
    },
    /// Report queue/runner/cache occupancy.
    Status,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: finish nothing, cancel everything, exit.
    Shutdown,
}

fn field_usize(obj: &Json, key: &str, default: usize) -> Result<usize, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn field_f64(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a number")),
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, an unknown
    /// `cmd`, or missing/invalid fields; the daemon relays it verbatim
    /// in an `error` response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let cmd = json
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing string field \"cmd\"".to_string())?;
        match cmd {
            "submit" => Ok(Request::Submit(JobSpec::from_json(&json)?)),
            "cancel" => {
                let id = json
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "cancel needs a string field \"id\"".to_string())?;
                Ok(Request::Cancel { id: id.to_string() })
            }
            "status" => Ok(Request::Status),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown cmd {other:?} (expected submit, cancel, status, ping or shutdown)"
            )),
        }
    }
}

impl JobSpec {
    /// Parses the body of a `submit` request.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(json: &Json) -> Result<JobSpec, String> {
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| "submit needs a string field \"id\"".to_string())?;
        if id.is_empty() || id.len() > 128 {
            return Err("job id must be 1..=128 characters".to_string());
        }
        let source = match (json.get("case"), json.get("seed")) {
            (Some(_), Some(_)) => {
                return Err("give either \"case\" or \"seed\", not both".to_string())
            }
            (Some(c), None) => CaseSource::Benchmark(
                c.as_usize()
                    .ok_or_else(|| "field \"case\" must be a non-negative integer".to_string())?,
            ),
            (None, Some(s)) => CaseSource::Generated(
                s.as_usize()
                    .ok_or_else(|| "field \"seed\" must be a non-negative integer".to_string())?
                    as u64,
            ),
            (None, None) => return Err("submit needs \"case\" or \"seed\"".to_string()),
        };
        let size = field_usize(json, "size", 128)?;
        if size > MAX_SIZE {
            return Err(format!("size {size} exceeds the maximum {MAX_SIZE}"));
        }
        let kernel_count = field_usize(json, "kernels", 6)?;
        if kernel_count > MAX_KERNELS {
            return Err(format!(
                "field \"kernels\": {kernel_count} exceeds the maximum {MAX_KERNELS}"
            ));
        }
        let init_iterations = field_usize(json, "init_iters", 4)?;
        let circle_iterations = field_usize(json, "iters", 12)?;
        if init_iterations > MAX_ITERATIONS || circle_iterations > MAX_ITERATIONS {
            return Err(format!(
                "iteration counts above {MAX_ITERATIONS} are rejected"
            ));
        }
        let priority = match json.get("priority") {
            None => 0,
            Some(v) => {
                let p = v
                    .as_f64()
                    .ok_or_else(|| "field \"priority\" must be a number".to_string())?;
                if p.fract() != 0.0 || p.abs() > 1e9 {
                    return Err("priority must be an integer in [-1e9, 1e9]".to_string());
                }
                p as i64
            }
        };
        let stream = match json.get("stream") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("field \"stream\" must be a boolean".to_string()),
        };
        let timeout_ms =
            match json.get("timeout_ms") {
                None => None,
                Some(v) => Some(v.as_usize().ok_or_else(|| {
                    "field \"timeout_ms\" must be a non-negative integer".to_string()
                })? as u64),
            };
        Ok(JobSpec {
            id: id.to_string(),
            source,
            size,
            kernel_count,
            init_iterations,
            circle_iterations,
            priority,
            stream,
            timeout_ms,
            weight_l2: field_f64(json, "weight_l2")?,
            weight_pvb: field_f64(json, "weight_pvb")?,
        })
    }
}

// --- response builders ------------------------------------------------------

fn line(pairs: Vec<(String, Json)>) -> String {
    let mut s = Json::Obj(pairs).to_string_compact();
    s.push('\n');
    s
}

fn kv(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

/// `ack`: the job was queued; `queued` is the depth after insertion.
pub fn ack(id: &str, queued: usize) -> String {
    line(vec![
        kv("kind", Json::Str("ack".into())),
        kv("id", Json::Str(id.into())),
        kv("queued", Json::Num(queued as f64)),
    ])
}

/// `rejected`: the job was not queued (backpressure, duplicate id,
/// shutdown); the reason says which.
pub fn rejected(id: &str, reason: &str) -> String {
    line(vec![
        kv("kind", Json::Str("rejected".into())),
        kv("id", Json::Str(id.into())),
        kv("reason", Json::Str(reason.into())),
    ])
}

/// `result`: the job finished; metrics in suite-report order.
pub fn result(id: &str, metrics: &MaskMetrics, iterations: usize) -> String {
    line(vec![
        kv("kind", Json::Str("result".into())),
        kv("id", Json::Str(id.into())),
        kv("l2", Json::Num(metrics.l2)),
        kv("pvb", Json::Num(metrics.pvb)),
        kv("epe", Json::Num(metrics.epe as f64)),
        kv("shots", Json::Num(metrics.shots as f64)),
        kv("iterations", Json::Num(iterations as f64)),
    ])
}

/// `cancelled`: the job stopped early; `reason` is `"cancel"` (a client
/// cancel, or a dropped client's streaming job), `"timeout"` or
/// `"shutdown"`.
pub fn cancelled(id: &str, reason: &str) -> String {
    line(vec![
        kv("kind", Json::Str("cancelled".into())),
        kv("id", Json::Str(id.into())),
        kv("reason", Json::Str(reason.into())),
    ])
}

/// `failed`: the job errored (typed litho/layout error, rendered).
pub fn failed(id: &str, error: &str) -> String {
    line(vec![
        kv("kind", Json::Str("failed".into())),
        kv("id", Json::Str(id.into())),
        kv("error", Json::Str(error.into())),
    ])
}

/// `status`: current occupancy — jobs waiting to start, jobs running,
/// and accepted jobs that have ended since the daemon started.
pub fn status(queued: usize, running: usize, done: usize, cached_sims: usize) -> String {
    line(vec![
        kv("kind", Json::Str("status".into())),
        kv("queued", Json::Num(queued as f64)),
        kv("running", Json::Num(running as f64)),
        kv("done", Json::Num(done as f64)),
        kv("cached_sims", Json::Num(cached_sims as f64)),
    ])
}

/// `pong`: liveness reply.
pub fn pong() -> String {
    line(vec![kv("kind", Json::Str("pong".into()))])
}

/// `shutting_down`: acknowledgment of a `shutdown` request.
pub fn shutting_down() -> String {
    line(vec![kv("kind", Json::Str("shutting_down".into()))])
}

/// `error`: the request line itself was invalid.
pub fn error(message: &str) -> String {
    line(vec![
        kv("kind", Json::Str("error".into())),
        kv("message", Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_parses_with_defaults() {
        let req = Request::parse(r#"{"cmd":"submit","id":"j1","case":4}"#).unwrap();
        match req {
            Request::Submit(spec) => {
                assert_eq!(spec.id, "j1");
                assert_eq!(spec.source, CaseSource::Benchmark(4));
                assert_eq!(spec.size, 128);
                assert_eq!(spec.kernel_count, 6);
                assert_eq!(spec.init_iterations, 4);
                assert_eq!(spec.circle_iterations, 12);
                assert_eq!(spec.priority, 0);
                assert!(!spec.stream);
                assert_eq!(spec.timeout_ms, None);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn submit_parses_every_field() {
        let req = Request::parse(
            r#"{"cmd":"submit","id":"j2","seed":7,"size":64,"kernels":4,"init_iters":2,"iters":3,"priority":5,"stream":true,"timeout_ms":250,"weight_l2":2.5}"#,
        )
        .unwrap();
        match req {
            Request::Submit(spec) => {
                assert_eq!(spec.source, CaseSource::Generated(7));
                assert_eq!(spec.size, 64);
                assert_eq!(spec.kernel_count, 4);
                assert_eq!(spec.init_iterations, 2);
                assert_eq!(spec.circle_iterations, 3);
                assert_eq!(spec.priority, 5);
                assert!(spec.stream);
                assert_eq!(spec.timeout_ms, Some(250));
                assert_eq!(spec.weight_l2, Some(2.5));
                assert_eq!(spec.weight_pvb, None);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn submit_rejects_bad_fields() {
        for (line, needle) in [
            (r#"{"cmd":"submit","case":4}"#, "id"),
            (r#"{"cmd":"submit","id":"x"}"#, "case"),
            (r#"{"cmd":"submit","id":"x","case":1,"seed":2}"#, "not both"),
            (
                r#"{"cmd":"submit","id":"x","case":1,"size":4096}"#,
                "maximum",
            ),
            (
                r#"{"cmd":"submit","id":"x","case":1,"stream":3}"#,
                "boolean",
            ),
            (r#"{"cmd":"nope"}"#, "unknown cmd"),
            (r#"{"id":"x"}"#, "cmd"),
            ("not json", "malformed"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(
                err.contains(needle),
                "{line}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn kernel_count_is_bounded() {
        let submit = |kernels: &str| {
            Request::parse(&format!(
                r#"{{"cmd":"submit","id":"x","case":1,"size":64,"kernels":{kernels}}}"#
            ))
        };
        match submit("64").unwrap() {
            Request::Submit(spec) => assert_eq!(spec.kernel_count, MAX_KERNELS),
            other => panic!("expected Submit, got {other:?}"),
        }
        for kernels in ["65", "1000000000000"] {
            let err = submit(kernels).unwrap_err();
            assert!(
                err.contains("\"kernels\"") && err.contains("64"),
                "kernels {kernels}: {err}"
            );
        }
    }

    #[test]
    fn control_commands_parse() {
        assert_eq!(
            Request::parse(r#"{"cmd":"cancel","id":"j1"}"#).unwrap(),
            Request::Cancel { id: "j1".into() }
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(Request::parse(r#"{"cmd":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            Request::parse(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn response_lines_are_single_json_lines() {
        for s in [
            ack("j", 3),
            rejected("j", "queue full"),
            cancelled("j", "timeout"),
            failed("j", "boom"),
            status(1, 2, 3, 4),
            pong(),
            shutting_down(),
            error("bad"),
        ] {
            assert!(s.ends_with('\n'));
            assert_eq!(s.lines().count(), 1);
            cfaopc_eval::Json::parse(s.trim()).expect("response must be valid JSON");
        }
    }

    #[test]
    fn evil_ids_are_escaped_in_responses() {
        let s = ack("evil\"id\\\n", 1);
        let parsed = cfaopc_eval::Json::parse(s.trim()).unwrap();
        assert_eq!(
            parsed.get("id").and_then(Json::as_str),
            Some("evil\"id\\\n")
        );
    }

    #[test]
    fn infinity_weights_parse_for_health_guard_tests() {
        // Rust's f64 parser maps the overflowing literal to infinity;
        // the integration tests use this to force a NonFinite abort.
        let req =
            Request::parse(r#"{"cmd":"submit","id":"x","case":1,"weight_l2":1e999}"#).unwrap();
        match req {
            Request::Submit(spec) => assert_eq!(spec.weight_l2, Some(f64::INFINITY)),
            other => panic!("expected Submit, got {other:?}"),
        }
    }
}
