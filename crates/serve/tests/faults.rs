//! Daemon fault and bookkeeping tests over real loopback sockets: an
//! oversized request line, `ack` ordering under load, the `done` count
//! past thousands of jobs, start order by priority, and a seeded cancel
//! storm with a client that vanishes mid-run.
//!
//! Every daemon here runs on the process's default worker pool; results
//! are not compared across daemons, so the pool size does not matter.

use cfaopc_eval::Json;
use cfaopc_serve::protocol::MAX_REQUEST_BYTES;
use cfaopc_serve::{ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
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

    fn send(&mut self, line: &str) {
        send_line(&mut self.writer, line);
    }

    /// The next line, or `None` once the daemon has closed the
    /// connection.
    fn next_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line),
        }
    }

    /// Reads lines, skipping the others, until one has `kind` (and `id`,
    /// when given); returns it parsed.
    fn wait_for(&mut self, kind: &str, id: Option<&str>) -> Json {
        loop {
            let line = self
                .next_line()
                .unwrap_or_else(|| panic!("connection closed before {kind}/{id:?}"));
            let json = parse(&line);
            if field(&json, "kind") == Some(kind) && (id.is_none() || field(&json, "id") == id) {
                return json;
            }
        }
    }

    fn status(&mut self) -> (usize, usize, usize) {
        self.send("{\"cmd\":\"status\"}");
        let status = self.wait_for("status", None);
        let count = |key| status.get(key).and_then(Json::as_usize).expect(key);
        (count("queued"), count("running"), count("done"))
    }

    /// Polls `status` until `running` jobs run and none waits.
    fn wait_until_running(&mut self, running: usize) {
        for _ in 0..1000 {
            let (q, r, _) = self.status();
            if (q, r) == (0, running) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("never saw {running} running jobs and an empty queue");
    }
}

/// Sends `line` and its newline in one write: a second small write would
/// wait on Nagle's algorithm for the daemon's delayed ACK.
fn send_line(stream: &mut TcpStream, line: &str) {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send line");
}

fn parse(line: &str) -> Json {
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("daemon emitted invalid JSON {line:?}: {e}"))
}

fn field<'a>(json: &'a Json, key: &str) -> Option<&'a str> {
    json.get(key).and_then(Json::as_str)
}

/// The job a line belongs to: `id` on job replies, `job` on `iter`.
fn job_of(json: &Json) -> Option<&str> {
    field(json, "id").or_else(|| field(json, "job"))
}

/// A job of a few iterations at 64 px.
const SMALL: &str = "\"seed\":3,\"size\":64,\"kernels\":4,\"init_iters\":1,\"iters\":2";

/// A job that cannot finish on its own within a test.
const LONG: &str = "\"seed\":11,\"size\":64,\"kernels\":4,\"init_iters\":2,\"iters\":100000";

/// A job that fails as soon as it starts: its grid is not a power of two.
const FAILING: &str = "\"seed\":3,\"size\":96,\"kernels\":4";

fn submit(id: &str, fields: &str) -> String {
    format!("{{\"cmd\":\"submit\",\"id\":\"{id}\",{fields}}}")
}

fn shutdown_and_join(mut client: Client, daemon: ServerHandle) {
    client.send("{\"cmd\":\"shutdown\"}");
    client.wait_for("shutting_down", None);
    daemon.join().expect("daemon exits cleanly");
}

/// Checks that each job's `ack` is its first line in `lines`, and that
/// each acknowledged job has exactly one terminal line; returns the ids
/// acknowledged, in order.
fn check_transcript(lines: &[String]) -> Vec<String> {
    let mut acked: Vec<String> = Vec::new();
    let mut terminals: Vec<(String, usize)> = Vec::new();
    for line in lines {
        let json = parse(line);
        let (Some(kind), Some(id)) = (field(&json, "kind"), job_of(&json)) else {
            continue;
        };
        if kind == "ack" {
            assert!(!acked.iter().any(|a| a == id), "second ack for {id}");
            acked.push(id.to_string());
            continue;
        }
        if kind == "rejected" {
            continue;
        }
        assert!(
            acked.iter().any(|a| a == id),
            "{kind} line for {id} before its ack"
        );
        if matches!(kind, "result" | "cancelled" | "failed") {
            match terminals.iter_mut().find(|(t, _)| t == id) {
                Some((_, n)) => *n += 1,
                None => terminals.push((id.to_string(), 1)),
            }
        }
    }
    for id in &acked {
        let n = terminals.iter().find(|(t, _)| t == id).map_or(0, |t| t.1);
        assert_eq!(n, 1, "job {id} ended in {n} terminal lines");
    }
    acked
}

#[test]
fn oversized_request_line_gets_an_error_and_a_closed_connection() {
    let daemon = Server::spawn(ServeConfig {
        runners: 1,
        ..ServeConfig::default()
    })
    .expect("spawn daemon");

    // A ping of exactly the bound is a request like any other.
    let mut client = Client::connect(daemon.addr());
    let ping = "{\"cmd\":\"ping\"}";
    let pad = |len: usize| format!("{ping}{}", " ".repeat(len - ping.len()));
    client.send(&pad(MAX_REQUEST_BYTES));
    client.wait_for("pong", None);

    // One byte more: an error naming the bound, then the daemon hangs up.
    let mut oversized = Client::connect(daemon.addr());
    oversized.send(&pad(MAX_REQUEST_BYTES + 1));
    let line = oversized
        .next_line()
        .expect("a reply to the oversized line");
    let reply = parse(&line);
    assert_eq!(field(&reply, "kind"), Some("error"), "{line}");
    assert!(
        field(&reply, "message").is_some_and(|m| m.contains(&MAX_REQUEST_BYTES.to_string())),
        "the error names the bound: {line}"
    );
    assert_eq!(oversized.next_line(), None, "the connection is closed");

    // A line far past the bound, with no newline in sight, gets the same.
    let mut endless = Client::connect(daemon.addr());
    let pad = "x".repeat(4 * MAX_REQUEST_BYTES);
    let _ = endless
        .writer
        .write_all(format!("{{\"cmd\":\"ping\",\"pad\":\"{pad}").as_bytes());
    let line = endless.next_line().expect("a reply to the endless line");
    assert_eq!(field(&parse(&line), "kind"), Some("error"), "{line}");

    // The daemon keeps serving fresh connections and the old one.
    let mut fresh = Client::connect(daemon.addr());
    fresh.send(ping);
    fresh.wait_for("pong", None);
    client.send(ping);
    client.wait_for("pong", None);
    shutdown_and_join(client, daemon);
}

#[test]
fn every_ack_precedes_its_jobs_other_lines() {
    let daemon = Server::spawn(ServeConfig {
        runners: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("spawn daemon");
    let mut client = Client::connect(daemon.addr());
    // Back to back in one write: every third job streams, every third
    // fails at once (a grid that is not a power of two), so a runner's
    // first line for a job can race its submit's `ack`.
    let jobs = 60;
    let mut batch = String::new();
    for i in 0..jobs {
        let fields = match i % 3 {
            0 => SMALL.to_string(),
            1 => format!("{SMALL},\"stream\":true"),
            _ => FAILING.to_string(),
        };
        batch.push_str(&submit(&format!("j{i}"), &fields));
        batch.push('\n');
    }
    client
        .writer
        .write_all(batch.as_bytes())
        .expect("send batch");

    let mut lines = Vec::new();
    let mut ended = 0;
    while ended < jobs {
        let line = client.next_line().expect("daemon closed the connection");
        let kind = field(&parse(&line), "kind").map(str::to_string);
        if matches!(
            kind.as_deref(),
            Some("result" | "cancelled" | "failed" | "rejected")
        ) {
            ended += 1;
        }
        lines.push(line);
    }
    assert_eq!(check_transcript(&lines).len(), jobs, "every job is acked");
    shutdown_and_join(client, daemon);
}

#[test]
fn done_counts_every_ended_job() {
    let daemon = Server::spawn(ServeConfig {
        runners: 1,
        ..ServeConfig::default()
    })
    .expect("spawn daemon");
    let mut client = Client::connect(daemon.addr());
    client.send(&submit("occupant", LONG));
    client.wait_for("ack", Some("occupant"));
    client.wait_until_running(1);

    let rounds = 4200;
    for i in 0..rounds {
        let id = format!("r{i}");
        client.send(&submit(&id, SMALL));
        client.wait_for("ack", Some(&id));
        client.send(&format!("{{\"cmd\":\"cancel\",\"id\":\"{id}\"}}"));
        let cancelled = client.wait_for("cancelled", Some(&id));
        assert_eq!(field(&cancelled, "reason"), Some("cancel"));
    }
    assert_eq!(client.status(), (0, 1, rounds));

    client.send("{\"cmd\":\"cancel\",\"id\":\"occupant\"}");
    client.wait_for("cancelled", Some("occupant"));
    assert_eq!(client.status(), (0, 0, rounds + 1));
    shutdown_and_join(client, daemon);
}

#[test]
fn waiting_jobs_start_by_priority_then_in_submit_order() {
    let daemon = Server::spawn(ServeConfig {
        runners: 1,
        ..ServeConfig::default()
    })
    .expect("spawn daemon");
    let mut client = Client::connect(daemon.addr());
    client.send(&submit("occupant", LONG));
    client.wait_for("ack", Some("occupant"));
    client.wait_until_running(1);
    for (id, priority) in [("a", 0), ("b", 5), ("c", 0), ("d", 5), ("e", -1)] {
        client.send(&submit(id, &format!("{SMALL},\"priority\":{priority}")));
        client.wait_for("ack", Some(id));
    }
    client.send("{\"cmd\":\"cancel\",\"id\":\"occupant\"}");
    // One runner: results arrive in start order.
    let order: Vec<String> = (0..5)
        .map(|_| {
            let result = client.wait_for("result", None);
            field(&result, "id").expect("result id").to_string()
        })
        .collect();
    assert_eq!(order, ["b", "d", "a", "c", "e"]);
    shutdown_and_join(client, daemon);
}

/// Panics on unnamed threads — the daemon's — since the hook went in.
static DAEMON_PANICS: AtomicUsize = AtomicUsize::new(0);

fn count_daemon_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name().is_none() {
                DAEMON_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            previous(info);
        }));
    });
}

/// SplitMix64: the storm's seeded plan.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// One client's part of the storm: submits, then cancels after pauses.
struct Plan {
    submits: Vec<String>,
    cancels: Vec<(u64, String)>,
}

/// Collects every line of `stream` until the daemon closes it.
fn read_all(stream: TcpStream) -> std::thread::JoinHandle<Vec<String>> {
    std::thread::Builder::new()
        .name("storm reader".into())
        .spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut lines = Vec::new();
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                lines.push(std::mem::take(&mut line));
            }
            lines
        })
        .expect("spawn reader")
}

#[test]
fn cancel_storm_ends_every_acked_job_exactly_once() {
    count_daemon_panics();
    let daemon = Server::spawn(ServeConfig {
        runners: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("spawn daemon");
    let addr = daemon.addr();

    let mut rng = Rng(0x5eed_0031);
    let plans: Vec<Plan> = (0..3)
        .map(|c| {
            let jobs = 8;
            let ids: Vec<String> = (0..jobs).map(|j| format!("c{c}-{j}")).collect();
            let submits = ids
                .iter()
                .map(|id| {
                    // Small jobs start first, so some of them finish
                    // before the long ones take the runners.
                    if rng.below(5) < 2 {
                        submit(id, &format!("{LONG},\"stream\":true"))
                    } else {
                        let priority = 1 + rng.below(2);
                        submit(id, &format!("{SMALL},\"priority\":{priority}"))
                    }
                })
                .collect();
            let mut order: Vec<usize> = (0..jobs).collect();
            for i in (1..jobs).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let cancels = order[..jobs / 2]
                .iter()
                .map(|&j| (rng.below(400), ids[j].clone()))
                .collect();
            Plan { submits, cancels }
        })
        .collect();
    let doomed_delay = rng.below(100);

    // The doomed client's streaming job runs before the storm starts;
    // its socket drops during the storm.
    let mut doomed = Client::connect(addr);
    doomed.send(&submit("doomed", &format!("{LONG},\"stream\":true")));
    doomed.send(&submit("doomed-small", SMALL));
    doomed.wait_for("iter", None);

    let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
        let dropper = std::thread::Builder::new()
            .name("storm dropper".into())
            .spawn_scoped(scope, move || {
                std::thread::sleep(Duration::from_millis(doomed_delay));
                drop(doomed);
            })
            .expect("spawn dropper");
        let clients: Vec<_> = plans
            .iter()
            .map(|plan| {
                std::thread::Builder::new()
                    .name("storm client".into())
                    .spawn_scoped(scope, move || {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        stream
                            .set_read_timeout(Some(Duration::from_secs(30)))
                            .expect("set read timeout");
                        let reader = read_all(stream.try_clone().expect("clone stream"));
                        for submit in &plan.submits {
                            send_line(&mut stream, submit);
                        }
                        for (pause, id) in &plan.cancels {
                            std::thread::sleep(Duration::from_millis(*pause));
                            send_line(
                                &mut stream,
                                &format!("{{\"cmd\":\"cancel\",\"id\":\"{id}\"}}"),
                            );
                        }
                        (stream, reader)
                    })
                    .expect("spawn client")
            })
            .collect();
        let clients: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        dropper.join().expect("dropper thread");

        shutdown_and_join(Client::connect(addr), daemon);
        clients
            .into_iter()
            .map(|(stream, reader)| {
                // The daemon closes the socket once this side is done and
                // its last job's line is out.
                stream.shutdown(Shutdown::Write).expect("half-close");
                reader.join().expect("reader thread")
            })
            .collect()
    });

    for (plan, lines) in plans.iter().zip(&transcripts) {
        let acked = check_transcript(lines);
        assert_eq!(acked.len(), plan.submits.len(), "every submit is acked");
        for line in lines {
            let json = parse(line);
            if field(&json, "kind") == Some("cancelled") {
                let reason = field(&json, "reason");
                assert!(
                    matches!(reason, Some("cancel" | "shutdown")),
                    "unexpected reason: {line}"
                );
            }
        }
    }
    assert_eq!(
        DAEMON_PANICS.load(Ordering::SeqCst),
        0,
        "a daemon thread panicked"
    );
}
