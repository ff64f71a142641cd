//! End-to-end daemon tests over real loopback sockets.
//!
//! One umbrella test pins `CFAOPC_THREADS=4` before the first pool
//! consult (each integration-test file is its own process, so this is
//! safe) and then drives several daemon instances through the full
//! lifecycle: concurrent-vs-serial byte identity, mid-run cancellation,
//! client disconnect, the numerical-health abort path, backpressure,
//! timeouts and graceful shutdown.

use cfaopc_eval::Json;
use cfaopc_serve::{ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A line-oriented test client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    /// Sends `line` and its newline in one write: split in two, the
    /// newline would wait on Nagle's algorithm for the daemon's delayed
    /// ACK (about 40 ms a request).
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send line");
    }

    fn next_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read line");
        assert!(n > 0, "daemon closed the connection unexpectedly");
        line
    }

    /// Reads lines (skipping non-matching ones, e.g. streamed `iter`
    /// records) until `pred` matches; returns the raw line.
    fn wait_for(&mut self, what: &str, pred: impl Fn(&Json) -> bool) -> String {
        for _ in 0..100_000 {
            let line = self.next_line();
            let json = Json::parse(line.trim()).unwrap_or_else(|e| {
                panic!("daemon emitted invalid JSON {line:?}: {e}");
            });
            if pred(&json) {
                return line;
            }
        }
        panic!("gave up waiting for {what}");
    }

    fn wait_for_kind_id(&mut self, kind: &str, id: &str) -> String {
        self.wait_for(&format!("{kind}/{id}"), |j| {
            j.get("kind").and_then(Json::as_str) == Some(kind)
                && j.get("id").and_then(Json::as_str) == Some(id)
        })
    }
}

fn submit_small(id: &str, source: &str) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"id\":\"{id}\",{source},\"size\":64,\"kernels\":4,\"init_iters\":2,\"iters\":3}}"
    )
}

/// A job that cannot finish on its own within the test: tiny grid, huge
/// iteration budget. Streaming, so the test can observe it running.
fn submit_long(id: &str, extra: &str) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"id\":\"{id}\",\"seed\":11,\"size\":64,\"kernels\":4,\"init_iters\":2,\"iters\":100000,\"stream\":true{extra}}}"
    )
}

fn reason_of(line: &str) -> String {
    Json::parse(line.trim())
        .expect("valid JSON")
        .get("reason")
        .and_then(Json::as_str)
        .expect("cancelled line carries a reason")
        .to_string()
}

#[test]
fn daemon_lifecycle_under_forced_pool() {
    // One process-wide pool for every daemon below; latched before the
    // first worker_count() consult inside Server::bind.
    std::env::set_var("CFAOPC_THREADS", "4");

    let jobs: [(&str, &str); 3] = [
        ("j-bench1", "\"case\":1"),
        ("j-seed7", "\"seed\":7"),
        ("j-bench4", "\"case\":4"),
    ];

    // --- serial reference: one runner, jobs submitted one at a time ---
    let serial = Server::spawn(ServeConfig {
        runners: 1,
        ..ServeConfig::default()
    })
    .expect("spawn serial daemon");
    let mut reference = Vec::new();
    {
        let mut client = Client::connect(serial.addr());
        client.send("{\"cmd\":\"ping\"}");
        client.wait_for("pong", |j| {
            j.get("kind").and_then(Json::as_str) == Some("pong")
        });
        for (id, source) in &jobs {
            client.send(&submit_small(id, source));
            client.wait_for_kind_id("ack", id);
            reference.push((id.to_string(), client.wait_for_kind_id("result", id)));
        }
        shutdown_and_join(client, serial);
    }

    // --- concurrent: four runners, all jobs in flight at once ---------
    let concurrent = Server::spawn(ServeConfig {
        runners: 4,
        ..ServeConfig::default()
    })
    .expect("spawn concurrent daemon");
    {
        let mut client = Client::connect(concurrent.addr());
        for (id, source) in &jobs {
            client.send(&submit_small(id, source));
        }
        // Results complete in any order; collect all three, then match.
        let mut results: Vec<(String, String)> = Vec::new();
        while results.len() < jobs.len() {
            let line = client.wait_for("a result", |j| {
                j.get("kind").and_then(Json::as_str) == Some("result")
            });
            let id = Json::parse(line.trim())
                .expect("result JSON")
                .get("id")
                .and_then(Json::as_str)
                .expect("result id")
                .to_string();
            results.push((id, line));
        }
        for (id, _) in &jobs {
            let got = &results
                .iter()
                .find(|(rid, _)| rid == id)
                .expect("concurrent result")
                .1;
            let expected = &reference
                .iter()
                .find(|(rid, _)| rid == id)
                .expect("reference result")
                .1;
            assert_eq!(
                got, expected,
                "concurrent result for {id} must be byte-identical to serial"
            );
        }
        // The shared-simulator cache should hold exactly one setup.
        client.send("{\"cmd\":\"status\"}");
        let status = client.wait_for("status", |j| {
            j.get("kind").and_then(Json::as_str) == Some("status")
        });
        let parsed = Json::parse(status.trim()).expect("status JSON");
        assert_eq!(parsed.get("cached_sims").and_then(Json::as_usize), Some(1));
        assert_eq!(parsed.get("done").and_then(Json::as_usize), Some(3));
        shutdown_and_join(client, concurrent);
    }

    // --- interactive daemon: cancel, disconnect, NonFinite, timeout ---
    let main = Server::spawn(ServeConfig {
        runners: 2,
        ..ServeConfig::default()
    })
    .expect("spawn main daemon");
    let mut client = Client::connect(main.addr());

    // Mid-run cancel: watch two streamed iterations, then cancel.
    client.send(&submit_long("long-cancel", ""));
    client.wait_for_kind_id("ack", "long-cancel");
    for _ in 0..2 {
        client.wait_for("streamed iter", |j| {
            j.get("job").and_then(Json::as_str) == Some("long-cancel")
                && j.get("kind").and_then(Json::as_str) == Some("iter")
        });
    }
    client.send("{\"cmd\":\"cancel\",\"id\":\"long-cancel\"}");
    let line = client.wait_for_kind_id("cancelled", "long-cancel");
    assert_eq!(reason_of(&line), "cancel");

    // The daemon keeps serving after a cancel.
    client.send(&submit_small("after-cancel", "\"case\":2"));
    client.wait_for_kind_id("result", "after-cancel");

    // Client disconnect: a second connection starts a streaming job and
    // vanishes; the latched socket error cancels the job and the daemon
    // keeps serving.
    {
        let mut doomed = Client::connect(main.addr());
        doomed.send(&submit_long("long-disconnect", ""));
        doomed.wait_for("first streamed iter", |j| {
            j.get("job").and_then(Json::as_str) == Some("long-disconnect")
                && j.get("kind").and_then(Json::as_str) == Some("iter")
        });
        // Drop both halves of the socket: reads EOF server-side, writes
        // start failing once the peer is gone.
    }
    // Poll status until the orphaned job has torn down.
    let mut settled = false;
    for _ in 0..600 {
        client.send("{\"cmd\":\"status\"}");
        let status = client.wait_for("status", |j| {
            j.get("kind").and_then(Json::as_str) == Some("status")
        });
        let parsed = Json::parse(status.trim()).expect("status JSON");
        if parsed.get("running").and_then(Json::as_usize) == Some(0)
            && parsed.get("queued").and_then(Json::as_usize) == Some(0)
        {
            settled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(settled, "disconnected client's job must tear down");
    client.send(&submit_small("after-disconnect", "\"case\":3"));
    client.wait_for_kind_id("result", "after-disconnect");

    // Numerical-health abort: an infinite loss weight trips the
    // NonFinite guard; the daemon reports `failed` and stays up.
    client.send(&submit_small(
        "non-finite",
        "\"seed\":5,\"weight_l2\":1e999",
    ));
    let line = client.wait_for_kind_id("failed", "non-finite");
    assert!(
        line.contains("non-finite"),
        "failed line should carry the typed error: {line}"
    );
    client.send(&submit_small("after-nonfinite", "\"case\":5"));
    client.wait_for_kind_id("result", "after-nonfinite");

    // Request timeout: the deadline on its token cancels an overrunning job.
    client.send(&submit_long("long-timeout", ",\"timeout_ms\":200"));
    let line = client.wait_for_kind_id("cancelled", "long-timeout");
    assert_eq!(reason_of(&line), "timeout");

    // Unknown-id cancels are an error, not a crash.
    client.send("{\"cmd\":\"cancel\",\"id\":\"no-such-job\"}");
    client.wait_for("unknown-id error", |j| {
        j.get("kind").and_then(Json::as_str) == Some("error")
    });

    // A hostile kernel count is an error before anything is allocated:
    // the reply is an error (not an ack), the daemon still answers a
    // ping, and a normal job still ends in a result.
    client
        .send("{\"cmd\":\"submit\",\"id\":\"x\",\"case\":1,\"size\":64,\"kernels\":1000000000000}");
    let line = client.wait_for("reply to the hostile submit", |j| {
        j.get("kind").and_then(Json::as_str) != Some("iter")
    });
    let parsed = Json::parse(line.trim()).expect("reply JSON");
    assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("error"));
    assert!(
        line.contains("kernels"),
        "error must name the field: {line}"
    );
    client.send("{\"cmd\":\"ping\"}");
    client.wait_for("pong", |j| {
        j.get("kind").and_then(Json::as_str) == Some("pong")
    });
    client.send(&submit_small("after-kernels", "\"case\":6"));
    client.wait_for_kind_id("result", "after-kernels");

    // Graceful shutdown with a job still running: it is cancelled with
    // reason "shutdown" and the daemon thread exits cleanly.
    client.send(&submit_long("long-shutdown", ""));
    client.wait_for("streamed iter", |j| {
        j.get("job").and_then(Json::as_str) == Some("long-shutdown")
            && j.get("kind").and_then(Json::as_str) == Some("iter")
    });
    client.send("{\"cmd\":\"shutdown\"}");
    client.wait_for("shutdown ack", |j| {
        j.get("kind").and_then(Json::as_str) == Some("shutting_down")
    });
    let line = client.wait_for_kind_id("cancelled", "long-shutdown");
    assert_eq!(reason_of(&line), "shutdown");
    main.join().expect("daemon exits cleanly");

    // --- backpressure: capacity-1 queue rejects the overflow ----------
    let tight = Server::spawn(ServeConfig {
        queue_capacity: 1,
        runners: 1,
        ..ServeConfig::default()
    })
    .expect("spawn tight daemon");
    let mut client = Client::connect(tight.addr());
    client.send(&submit_long("occupant", ""));
    client.wait_for("streamed iter", |j| {
        j.get("job").and_then(Json::as_str) == Some("occupant")
            && j.get("kind").and_then(Json::as_str) == Some("iter")
    });
    client.send(&submit_small("waiter", "\"case\":6"));
    client.wait_for_kind_id("ack", "waiter");
    client.send(&submit_small("overflow", "\"case\":7"));
    let line = client.wait_for_kind_id("rejected", "overflow");
    assert!(line.contains("queue full"), "expected backpressure: {line}");
    // Duplicate ids of *active* jobs are rejected too.
    client.send(&submit_small("waiter", "\"case\":8"));
    let line = client.wait_for_kind_id("rejected", "waiter");
    assert!(line.contains("duplicate id"), "{line}");
    // Cancelling the queued job frees the slot before it ever ran.
    client.send("{\"cmd\":\"cancel\",\"id\":\"waiter\"}");
    let line = client.wait_for_kind_id("cancelled", "waiter");
    assert_eq!(reason_of(&line), "cancel");
    client.send("{\"cmd\":\"cancel\",\"id\":\"occupant\"}");
    client.wait_for_kind_id("cancelled", "occupant");
    shutdown_and_join(client, tight);
}

fn shutdown_and_join(mut client: Client, handle: ServerHandle) {
    client.send("{\"cmd\":\"shutdown\"}");
    client.wait_for("shutdown ack", |j| {
        j.get("kind").and_then(Json::as_str) == Some("shutting_down")
    });
    handle.join().expect("daemon exits cleanly");
}
