//! Streaming job telemetry onto a shared client socket.
//!
//! A connection serves many jobs at once, so its socket is a shared,
//! line-atomic channel: [`SharedWriter`] serializes whole lines under a
//! mutex. A streaming job's per-iteration records go through the
//! ordinary `cfaopc_trace::JsonlSink` — the same code path as
//! `--trace` files — wrapped around a [`TaggedLineWriter`] that buffers
//! until a full line is available and rewrites `{...}` into
//! `{"job":"<id>",...}` so the client can demultiplex.
//!
//! Client death is detected *through* the sink: a failed socket write
//! latches in the `JsonlSink` (the satellite hardening), and
//! [`StreamSink`] checks the latch after every record, cancelling the
//! job's token so the optimizer aborts at the next iteration boundary.

use cfaopc_litho::CancelToken;
use cfaopc_trace::{IterationRecord, JsonlSink, TelemetrySink};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Clonable handle writing whole lines to a shared writer (typically a
/// `TcpStream` clone). Each line is written and flushed under one lock
/// acquisition, so concurrent jobs never interleave partial lines.
pub struct SharedWriter<W: Write> {
    inner: Arc<Mutex<W>>,
}

impl<W: Write> Clone for SharedWriter<W> {
    fn clone(&self) -> Self {
        SharedWriter {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<W: Write> SharedWriter<W> {
    /// Wraps `out` for line-atomic shared writing.
    pub fn new(out: W) -> Self {
        SharedWriter {
            inner: Arc::new(Mutex::new(out)),
        }
    }

    /// Writes `line` (which should end in `\n`) atomically and flushes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's error (e.g. a dead socket).
    pub fn write_line(&self, line: &[u8]) -> io::Result<()> {
        self.send_with(|| line)
    }

    /// Takes the writer's lock, runs `make`, and writes the line it
    /// returns before releasing the lock, so no other line reaches the
    /// writer between `make`'s effects and that line: the daemon
    /// publishes a job inside `make` and returns its `ack`, and the job's
    /// own lines wait for the lock.
    ///
    /// # Errors
    ///
    /// As [`SharedWriter::write_line`].
    pub fn send_with<L: AsRef<[u8]>>(&self, make: impl FnOnce() -> L) -> io::Result<()> {
        let mut out = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let line = make();
        let line = line.as_ref();
        out.write_all(line)?;
        out.flush()
    }

    /// Convenience for string lines.
    ///
    /// # Errors
    ///
    /// As [`SharedWriter::write_line`].
    pub fn send(&self, line: &str) -> io::Result<()> {
        self.write_line(line.as_bytes())
    }
}

/// An `io::Write` adapter that buffers bytes until a complete line and
/// forwards each line to a [`SharedWriter`], tagging JSON object lines
/// with the owning job's id.
///
/// `JsonlSink` emits exactly one `{...}\n` object per record, so the
/// rewrite is a prefix splice: `{"kind":...` becomes
/// `{"job":"<id>","kind":...`. Non-object lines (defensive case) pass
/// through untagged.
pub struct TaggedLineWriter<W: Write> {
    out: SharedWriter<W>,
    /// Pre-rendered `{"job":"<escaped id>",` prefix.
    tag: Vec<u8>,
    pending: Vec<u8>,
    scratch: Vec<u8>,
}

impl<W: Write> TaggedLineWriter<W> {
    /// Tags every line with `job_id` and multiplexes onto `out`.
    pub fn new(out: SharedWriter<W>, job_id: &str) -> Self {
        let mut tag = String::from("{\"job\":");
        cfaopc_trace::json::write_str(&mut tag, job_id);
        tag.push(',');
        TaggedLineWriter {
            out,
            tag: tag.into_bytes(),
            pending: Vec::with_capacity(256),
            scratch: Vec::with_capacity(256),
        }
    }
}

impl<W: Write> Write for TaggedLineWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
            self.scratch.clear();
            {
                let line = &self.pending[..=nl];
                if line.first() == Some(&b'{') && line.len() > 2 {
                    self.scratch.extend_from_slice(&self.tag);
                    self.scratch.extend_from_slice(&line[1..]);
                } else {
                    self.scratch.extend_from_slice(line);
                }
            }
            self.pending.drain(..=nl);
            self.out.write_line(&self.scratch)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Lines are forwarded (and flushed) eagerly as they complete;
        // a partial line stays buffered until its newline arrives.
        Ok(())
    }
}

/// The [`TelemetrySink`] a streaming job runs under: records flow
/// through a hardened `JsonlSink` onto the client socket, and a latched
/// write error cancels the job — mid-run teardown via the same token
/// path a client `cancel` uses.
pub struct StreamSink<W: Write> {
    jsonl: JsonlSink<TaggedLineWriter<W>>,
    cancel: CancelToken,
}

impl<W: Write> StreamSink<W> {
    /// Streams records for job `job_id` to `out`; flips `cancel` when
    /// the client stops accepting them.
    pub fn new(out: SharedWriter<W>, job_id: &str, cancel: CancelToken) -> Self {
        StreamSink {
            jsonl: JsonlSink::new(TaggedLineWriter::new(out, job_id)),
            cancel,
        }
    }

    /// Whether the underlying socket has failed (and the job's token
    /// has therefore been cancelled).
    pub fn client_gone(&self) -> bool {
        self.jsonl.write_error().is_some()
    }
}

impl<W: Write> TelemetrySink for StreamSink<W> {
    fn record(&mut self, rec: &IterationRecord) {
        self.jsonl.record(rec);
        if self.jsonl.write_error().is_some() {
            self.cancel.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_eval::Json;
    use cfaopc_trace::Stage;

    fn rec(iteration: usize) -> IterationRecord {
        IterationRecord {
            stage: Stage::CircleOpt,
            iteration,
            loss_l2: 1.0,
            loss_pvb: 2.0,
            loss_total: 3.0,
            sparsity: 0.0,
            active: 5,
            grad_l2: 0.5,
            grad_linf: 0.25,
        }
    }

    /// Shared sink capturing everything written, for assertions.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Capture {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()).unwrap()
        }
    }

    #[test]
    fn records_are_tagged_with_the_job_id() {
        let cap = Capture::default();
        let writer = SharedWriter::new(cap.clone());
        let mut sink = StreamSink::new(writer, "job-1", CancelToken::new());
        sink.record(&rec(0));
        sink.record(&rec(1));
        let text = cap.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let parsed = Json::parse(line).expect("tagged line stays valid JSON");
            assert_eq!(parsed.get("job").and_then(Json::as_str), Some("job-1"));
            assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("iter"));
            assert_eq!(parsed.get("iteration").and_then(Json::as_usize), Some(i));
        }
    }

    #[test]
    fn evil_job_ids_stay_valid_json() {
        let cap = Capture::default();
        let writer = SharedWriter::new(cap.clone());
        let mut sink = StreamSink::new(writer, "a\"b\\c", CancelToken::new());
        sink.record(&rec(0));
        let text = cap.text();
        let parsed = Json::parse(text.trim()).unwrap();
        assert_eq!(parsed.get("job").and_then(Json::as_str), Some("a\"b\\c"));
    }

    #[test]
    fn dead_writer_cancels_the_token() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let token = CancelToken::new();
        let mut sink = StreamSink::new(SharedWriter::new(Dead), "j", token.clone());
        assert!(!token.is_cancelled());
        sink.record(&rec(0));
        assert!(token.is_cancelled(), "write failure must cancel the job");
        assert!(sink.client_gone());
        // Further records are dropped by the latch, not retried.
        sink.record(&rec(1));
        assert!(sink.client_gone());
    }

    #[test]
    fn interleaved_writers_emit_whole_lines() {
        let cap = Capture::default();
        let writer = SharedWriter::new(cap.clone());
        let mut a = TaggedLineWriter::new(writer.clone(), "a");
        let mut b = TaggedLineWriter::new(writer, "b");
        // Partial writes: neither side forwards until its newline lands.
        a.write_all(b"{\"x\":1").unwrap();
        b.write_all(b"{\"x\":2}\n").unwrap();
        a.write_all(b"}\n").unwrap();
        let text = cap.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"job\":\"b\",\"x\":2}");
        assert_eq!(lines[1], "{\"job\":\"a\",\"x\":1}");
    }
}
