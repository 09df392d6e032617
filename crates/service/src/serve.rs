//! The JSON-lines serve loop behind the `crowdval-serve` binary, factored
//! out so tests can drive it over in-memory buffers — graceful-shutdown
//! draining and the concurrent dispatcher included.
//!
//! Two modes:
//!
//! * **Serial** (`shards == 0`): one in-process [`ValidationService`], one
//!   reply line per request line, in input order. Deterministic — the mode
//!   the golden-transcript check runs.
//! * **Sharded** (`shards ≥ 1`): a [`ShardRuntime`] dispatches requests
//!   concurrently; a writer thread flushes replies as they complete, so
//!   replies to different tasks may be written out of input order and
//!   clients match them by the echoed `request_id`. Per-task order is
//!   still input order.
//!
//! In both modes the loop exits on EOF only after every accepted request
//! has been processed and its reply written: the sharded path closes the
//! mailboxes, joins the workers (each drains its queue first) and then
//! lets the writer thread consume the reply channel to disconnect. No
//! accepted request is ever silently dropped.

use crate::protocol::{Reply, RequestEnvelope, ServiceError};
use crate::runtime::{Dispatch, OverloadPolicy, RuntimeConfig, ShardRuntime};
use crate::service::ValidationService;
use crate::supervisor::SupervisionConfig;
use std::io::{BufRead, Write};
use std::panic::AssertUnwindSafe;

/// Configuration of one serve run.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// 0 = serial in-process service; N ≥ 1 = sharded runtime with N
    /// worker threads.
    pub shards: usize,
    /// Mailbox capacity per shard (sharded mode only).
    pub mailbox_capacity: usize,
    /// Full-mailbox behavior (sharded mode only). The driver defaults to
    /// [`OverloadPolicy::Block`]: a JSON-lines conversation is a lossless
    /// stream, so back-pressure stalls the reader instead of dropping
    /// requests.
    pub overload: OverloadPolicy,
    /// Crash recovery, deadlines and shedding for the sharded runtime
    /// (sharded mode only; the serial path has no workers to supervise).
    pub supervision: SupervisionConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            shards: 0,
            mailbox_capacity: 1024,
            overload: OverloadPolicy::Block,
            supervision: SupervisionConfig::default(),
        }
    }
}

/// What a serve run did, for logging and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines consumed (blank and comment lines excluded).
    pub requests: usize,
    /// Reply lines written. Always equals `requests` unless the output
    /// pipe broke mid-run.
    pub replies: usize,
    /// Lines that failed to parse as a [`RequestEnvelope`] (each still
    /// produced a `MalformedRequest` reply line).
    pub malformed: usize,
    /// Requests rejected by back-pressure (each still produced an
    /// `Overloaded` reply line; only with [`OverloadPolicy::Reject`]).
    pub overloaded: usize,
    /// Requests refused by the shed policy (supervised sharded mode; each
    /// still produced an `Unavailable { reason: Shed }` reply line).
    pub shed: usize,
    /// Shard workers that died with an unresolved panic (typed
    /// [`crate::supervisor::ShardFailure`]s from shutdown, logged to
    /// stderr — never re-panicked).
    pub shard_failures: usize,
    /// Accepted requests whose reply was lost to a worker crash and
    /// flushed as `Unavailable { reason: RequestLost }` at shutdown.
    pub requests_flushed: usize,
    /// The writer thread panicked; the output writer was lost with it and
    /// `serve` returned `None` in its place.
    pub writer_panicked: bool,
}

/// Runs the JSON-lines loop: one [`RequestEnvelope`] per input line, one
/// [`Reply`] per output line. Blank lines and `#`-comments are skipped.
/// Returns the output writer (handed back from the writer thread in
/// sharded mode; `None` only if the writer thread panicked — see
/// [`ServeSummary::writer_panicked`]) and the run summary.
///
/// The writer must be `Send + 'static` because sharded mode moves it into
/// the writer thread; `io::Stdout` and `Vec<u8>` both qualify.
pub fn serve<R: BufRead, W: Write + Send + 'static>(
    input: R,
    output: W,
    options: &ServeOptions,
) -> (Option<W>, ServeSummary) {
    if options.shards == 0 {
        serve_serial(input, output)
    } else {
        serve_sharded(input, output, options)
    }
}

/// One reply serialized into a reused buffer, one line. `false` when the
/// downstream pipe is gone.
fn write_reply<W: Write>(out: &mut W, buf: &mut Vec<u8>, reply: &Reply) -> bool {
    buf.clear();
    match serde_json::to_writer(&mut *buf, reply) {
        Ok(()) => {
            buf.push(b'\n');
            out.write_all(buf).is_ok()
        }
        Err(e) => {
            eprintln!("failed to serialize reply: {e}");
            true
        }
    }
}

fn serve_serial<R: BufRead, W: Write>(input: R, mut output: W) -> (Option<W>, ServeSummary) {
    let mut service = ValidationService::new();
    let mut summary = ServeSummary::default();
    // One reply buffer for the whole conversation: each line serializes
    // into the cleared buffer instead of allocating a fresh `String` per
    // reply, so steady-state serving does not churn the allocator.
    let mut reply_buf: Vec<u8> = Vec::with_capacity(4096);
    for line in input.lines() {
        let Ok(line) = line else {
            break; // input closed or unreadable: clean shutdown
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        summary.requests += 1;
        let reply = match serde_json::from_str::<RequestEnvelope>(trimmed) {
            Ok(envelope) => service.reply(&envelope),
            Err(e) => {
                summary.malformed += 1;
                Reply::err(
                    0,
                    ServiceError::MalformedRequest {
                        message: e.to_string(),
                    },
                )
            }
        };
        if !write_reply(&mut output, &mut reply_buf, &reply) {
            break; // downstream closed the pipe
        }
        summary.replies += 1;
    }
    (Some(output), summary)
}

fn serve_sharded<R: BufRead, W: Write + Send + 'static>(
    input: R,
    output: W,
    options: &ServeOptions,
) -> (Option<W>, ServeSummary) {
    let (runtime, replies) = ShardRuntime::start(RuntimeConfig {
        num_shards: options.shards,
        mailbox_capacity: options.mailbox_capacity,
        overload: options.overload,
        supervision: options.supervision,
    });
    // Malformed-line replies join the same channel the shards answer on:
    // a single writer, a single output path, no interleaving hazards.
    let malformed_tx = runtime.reply_sender();
    let writer = std::thread::Builder::new()
        .name("crowdval-serve-writer".to_string())
        .spawn(move || {
            // The writer lives in an `Option` outside the unwind boundary
            // so the already-written output survives a panic in the write
            // loop (and the caller gets its buffer back even then).
            let mut output_slot = Some(output);
            let mut written = 0usize;
            let mut panicked = false;
            {
                let out = output_slot.as_mut().expect("writer output installed above");
                let mut reply_buf: Vec<u8> = Vec::with_capacity(4096);
                let mut drain = || {
                    for reply in replies.iter() {
                        if !write_reply(out, &mut reply_buf, &reply) {
                            break; // downstream closed; stop writing
                        }
                        written += 1;
                    }
                };
                if std::panic::catch_unwind(AssertUnwindSafe(&mut drain)).is_err() {
                    panicked = true;
                }
            }
            (output_slot, written, panicked)
        })
        .expect("spawn serve writer thread");

    let mut summary = ServeSummary::default();
    for line in input.lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        summary.requests += 1;
        match serde_json::from_str::<RequestEnvelope>(trimmed) {
            Ok(envelope) => match runtime.submit(envelope) {
                Dispatch::Rejected { .. } => summary.overloaded += 1,
                Dispatch::Shed { .. } => summary.shed += 1,
                Dispatch::Enqueued { .. } | Dispatch::Answered => {}
            },
            Err(e) => {
                summary.malformed += 1;
                let _ = malformed_tx.send(Reply::err(
                    0,
                    ServiceError::MalformedRequest {
                        message: e.to_string(),
                    },
                ));
            }
        }
    }
    // EOF: drain every shard mailbox and flush all replies before exit.
    drop(malformed_tx);
    let report = runtime.shutdown();
    summary.shard_failures = report.failures.len();
    summary.requests_flushed = report.requests_flushed;
    for failure in &report.failures {
        eprintln!("crowdval-serve: {failure}");
    }
    // A writer panic costs us the writer, never the process: surface it in
    // the summary as typed data instead of re-panicking the join.
    let (output, written, panicked) = match writer.join() {
        Ok((output, written, panicked)) => (output, written, panicked),
        Err(_) => (None, 0, true),
    };
    summary.replies = written;
    summary.writer_panicked = panicked;
    (output, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;

    fn conversation() -> String {
        let mut lines = vec![
            "# a comment".to_string(),
            String::new(),
            r#"{"version":5,"request_id":1,"request":{"CreateTask":{"task":"t","labels":["a","b"],"config":{"strategy":"EntropyBaseline","seed":0,"budget":null,"handle_faulty_workers":true,"online_defense":false,"shortlist":null,"wal":false,"triage":false}}}}"#.to_string(),
            r#"{"version":5,"request_id":2,"request":{"SubmitVotes":{"task":"t","votes":[{"worker":"w","object":"o","label":"a"}]}}}"#.to_string(),
            "this is junk".to_string(),
            r#"{"version":5,"request_id":3,"request":"RuntimeStats"}"#.to_string(),
        ];
        lines.push(String::new());
        lines.join("\n")
    }

    #[test]
    fn serial_mode_replies_in_input_order() {
        let (out, summary) = serve(
            conversation().as_bytes(),
            Vec::new(),
            &ServeOptions::default(),
        );
        let text = String::from_utf8(out.expect("serial mode always returns the writer")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.replies, 4);
        assert_eq!(summary.malformed, 1);
        assert!(!summary.writer_panicked);
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"request_id\":1"));
        assert!(lines[1].contains("\"request_id\":2"));
        assert!(lines[2].contains("MalformedRequest"));
        assert!(lines[3].contains("RuntimeStats"));
    }

    #[test]
    fn sharded_mode_answers_every_line_and_drains_on_eof() {
        let (out, summary) = serve(
            conversation().as_bytes(),
            Vec::new(),
            &ServeOptions {
                shards: 2,
                ..ServeOptions::default()
            },
        );
        let text = String::from_utf8(out.expect("no writer panic, writer comes back")).unwrap();
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.replies, 4, "a reply line per request line");
        assert_eq!(summary.malformed, 1);
        assert_eq!(summary.shard_failures, 0);
        assert_eq!(text.lines().count(), 4);
        // Out-of-order is allowed; completeness is not negotiable.
        for id in [1, 2, 3] {
            assert!(
                text.contains(&format!("\"request_id\":{id}")),
                "missing reply for request {id}"
            );
        }
        assert!(text.contains("MalformedRequest"));
    }

    #[test]
    fn a_too_deeply_nested_line_is_malformed_and_serving_continues() {
        let input = format!(
            "{}\n{}\n",
            "[".repeat(100_000),
            r#"{"version":5,"request_id":7,"request":"Health"}"#
        );
        for shards in [0, 2] {
            let (out, summary) = serve(
                input.as_bytes(),
                Vec::new(),
                &ServeOptions {
                    shards,
                    ..ServeOptions::default()
                },
            );
            let text = String::from_utf8(out.expect("writer comes back")).unwrap();
            assert_eq!((summary.requests, summary.malformed), (2, 1), "{text}");
            let replies: Vec<Reply> = text
                .lines()
                .map(|line| serde_json::from_str(line).unwrap())
                .collect();
            assert_eq!(replies.len(), 2);
            let malformed = replies.iter().find(|r| r.request_id == 0).unwrap();
            assert!(
                matches!(malformed.result(), Err(ServiceError::MalformedRequest { message }) if message.contains("recursion limit")),
                "{text}"
            );
            let health = replies.iter().find(|r| r.request_id == 7).unwrap();
            assert!(health.result().is_ok(), "{text}");
        }
    }

    #[test]
    fn a_surrogate_pair_escape_names_the_same_worker_as_raw_utf8() {
        // `w😀` once as raw UTF-8 and once as Python's default `json.dumps`
        // writes it (ASCII only, the emoji as a UTF-16 surrogate pair).
        let escaped_worker = format!("w{}ud83d{}ude00", '\\', '\\');
        let lines = [
            r#"{"version":5,"request_id":1,"request":{"CreateTask":{"task":"t","labels":["a","b"],"config":{"strategy":"EntropyBaseline","seed":0,"budget":null,"handle_faulty_workers":true,"online_defense":false,"shortlist":null,"wal":false,"triage":false}}}}"#.to_string(),
            r#"{"version":5,"request_id":2,"request":{"SubmitVotes":{"task":"t","votes":[{"worker":"w😀","object":"o1","label":"a"}]}}}"#.to_string(),
            format!(r#"{{"version":5,"request_id":3,"request":{{"SubmitVotes":{{"task":"t","votes":[{{"worker":"{escaped_worker}","object":"o2","label":"a"}}]}}}}}}"#),
            r#"{"version":5,"request_id":4,"request":{"QueryWorkerTrust":{"task":"t"}}}"#.to_string(),
        ];
        let (out, summary) = serve(
            lines.join("\n").as_bytes(),
            Vec::new(),
            &ServeOptions::default(),
        );
        let text = String::from_utf8(out.unwrap()).unwrap();
        assert_eq!(summary.malformed, 0, "{text}");
        let replies: Vec<Reply> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        match replies[2].result() {
            Ok(Response::VotesAccepted { new_workers, .. }) => assert_eq!(*new_workers, 0),
            other => panic!("unexpected reply {other:?}"),
        }
        match replies[3].result() {
            Ok(Response::WorkerTrust { workers, .. }) => {
                assert_eq!(workers.len(), 1);
                assert_eq!(workers[0].worker, "w😀");
                assert_eq!(workers[0].votes, 2);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
}
