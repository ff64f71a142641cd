//! `cfaopc-serve`: a concurrent mask-optimization daemon.
//!
//! The ROADMAP's production framing is a long-running service fed by a
//! mask-data-prep pipeline, not a one-shot CLI. This crate turns the
//! workspace's foundations — the persistent worker pool, the
//! shareable-and-reentrant [`LithoSimulator`], typed mid-run aborts, the
//! hardened `JsonlSink` — into exactly that, with zero dependencies
//! beyond `std::net`.
//!
//! # Architecture
//!
//! ```text
//!  client ──JSONL over TCP──▶ connection thread ──▶ job table (one lock)
//!                                   ▲                        │
//!                                   │ (ack/iter/result)      ▼ (start)
//!                             shared writer ◀── runner threads (fixed N)
//!                                                      │
//!                                            with_worker_limit(share)
//!                                                      │
//!                                        Arc<LithoSimulator> cache
//! ```
//!
//! * **Protocol** ([`protocol`]) — newline-delimited JSON both ways,
//!   built on `cfaopc_eval::Json` so every response line is
//!   deterministic (ordered keys, shortest-roundtrip floats).
//! * **Job table** ([`server`]) — one mutex over the waiting jobs, the
//!   running jobs' cancel tokens, the count of ended jobs and the closed
//!   flag; each transition (submit, start, cancel, finish, shutdown) is
//!   one critical section. The waiting line is bounded: a full one
//!   *rejects* the submission immediately (backpressure the client can
//!   see) instead of buffering unboundedly. Higher priorities start
//!   first, FIFO within a priority.
//! * **Scheduling** — a fixed set of runner threads starts jobs; runner
//!   `i` caps its inner parallel regions at
//!   `worker_shares(worker_count(), runners)[i]`, the same
//!   remainder-distributing share logic the eval harness shards with.
//!   Since inner regions are bit-identical at any worker limit,
//!   concurrent results equal serial ones byte for byte.
//! * **Cache** ([`cache`]) — one [`Arc<LithoSimulator>`] per
//!   `(size, kernel_count)`, built once and shared: SOCS kernels, FFT
//!   plans and scratch buffer pools are reused across jobs and across
//!   concurrently-running jobs (the simulator is `&self`-based and
//!   `Sync`; its buffer pools hand out fully-overwritten scratch, so
//!   sharing cannot perturb results).
//! * **Streaming** ([`stream`]) — per-iteration [`IterationRecord`]s
//!   flow through the ordinary `TelemetrySink` trait into a `JsonlSink`
//!   whose writer tags each line with the job id and multiplexes it
//!   onto the client socket. A dead client surfaces as the sink's
//!   latched write error, which cancels the job.
//! * **Cancellation** — every job carries a `CancelToken` polled at
//!   optimizer-iteration boundaries (`RunCtx::cancel`), the
//!   same clean exit as the `NonFinite` health guard; a timeout is a
//!   deadline on the token, set when the job starts, client cancels flip
//!   it over the wire, and shutdown flips them all.
//!
//! [`LithoSimulator`]: cfaopc_litho::LithoSimulator
//! [`Arc<LithoSimulator>`]: cfaopc_litho::LithoSimulator
//! [`IterationRecord`]: cfaopc_trace::IterationRecord

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod protocol;
pub mod server;
pub mod stream;

pub use cache::SimulatorCache;
pub use protocol::{JobSpec, Request};
pub use server::{ServeConfig, Server, ServerHandle};
pub use stream::{SharedWriter, StreamSink, TaggedLineWriter};
