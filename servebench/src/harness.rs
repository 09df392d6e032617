//! The harness around `serve()`: a paced input that hands request lines
//! over at their due times, and an output that timestamps every reply line
//! by its echoed `request_id` and lets the client react to it (closed
//! loops, bounded windows).
//!
//! Load comes from one thread — the thread that runs the serve loop pulls
//! the next due line from [`Outbox`] — so decode, dispatch, queue wait,
//! service and encode are all inside the measured path.

use crowdval_service::serve::{serve, ServeOptions};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::io::{self, BufRead, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Nanoseconds since the start of one serve run.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn instant(&self, ns: u64) -> Instant {
        self.0 + Duration::from_nanos(ns)
    }
}

struct Queued {
    due_ns: u64,
    seq: u64,
    id: u64,
    line: Arc<str>,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        (self.due_ns, self.seq) == (other.due_ns, other.seq)
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.due_ns, self.seq).cmp(&(other.due_ns, other.seq))
    }
}

#[derive(Default)]
struct OutboxState {
    heap: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    closed: bool,
}

/// Request lines waiting for their due time, earliest first (ties in push
/// order). Open-loop schedules are pushed whole; closed loops push the next
/// line, due now, from the reply handler.
#[derive(Default)]
pub struct Outbox {
    state: Mutex<OutboxState>,
    ready: Condvar,
}

impl Outbox {
    fn lock(&self) -> std::sync::MutexGuard<'_, OutboxState> {
        self.state
            .lock()
            .expect("outbox lock poisoned by a panicking client")
    }

    /// Queues `line` (newline-terminated) for hand-over at `due_ns`.
    pub fn push(&self, due_ns: u64, id: u64, line: Arc<str>) {
        let mut state = self.lock();
        state.seq += 1;
        let seq = state.seq;
        state.heap.push(Reverse(Queued {
            due_ns,
            seq,
            id,
            line,
        }));
        self.ready.notify_one();
    }

    /// No more lines will be pushed: the input reaches EOF once drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_one();
    }

    /// Blocks until the earliest line is due; `None` at EOF.
    fn pop_due(&self, clock: &Clock) -> Option<(u64, Arc<str>)> {
        let mut state = self.lock();
        loop {
            let head_due = state.heap.peek().map(|Reverse(q)| q.due_ns);
            match head_due {
                Some(due) => {
                    let now = Instant::now();
                    let at = clock.instant(due);
                    if at <= now {
                        let Reverse(q) = state.heap.pop().expect("peeked above");
                        return Some((q.id, q.line));
                    }
                    state = self
                        .ready
                        .wait_timeout(state, at - now)
                        .expect("outbox lock poisoned by a panicking client")
                        .0;
                }
                None if state.closed => return None,
                None => {
                    state = self
                        .ready
                        .wait(state)
                        .expect("outbox lock poisoned by a panicking client")
                }
            }
        }
    }
}

/// When each request line was handed to the serve loop, in hand-over order
/// (which is the order the runtime receives them in).
pub type SentLog = Vec<(u64, u64)>;

/// The serve loop's input: a `BufRead` over the [`Outbox`].
pub struct PacedInput {
    outbox: Arc<Outbox>,
    clock: Clock,
    current: Option<Arc<str>>,
    pos: usize,
    sent: SentLog,
    sent_out: Arc<Mutex<SentLog>>,
}

impl PacedInput {
    pub fn new(outbox: Arc<Outbox>, clock: Clock, sent_out: Arc<Mutex<SentLog>>) -> Self {
        Self {
            outbox,
            clock,
            current: None,
            pos: 0,
            sent: Vec::new(),
            sent_out,
        }
    }
}

impl Read for PacedInput {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedInput {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let exhausted = self.current.as_ref().is_none_or(|l| self.pos >= l.len());
        if exhausted {
            self.current = None;
            self.pos = 0;
            if let Some((id, line)) = self.outbox.pop_due(&self.clock) {
                self.sent.push((id, self.clock.now_ns()));
                self.current = Some(line);
            }
        }
        Ok(match &self.current {
            Some(line) => &line.as_bytes()[self.pos..],
            None => &[],
        })
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

impl Drop for PacedInput {
    fn drop(&mut self) {
        if let Ok(mut out) = self.sent_out.lock() {
            *out = std::mem::take(&mut self.sent);
        }
    }
}

/// What the benchmark's load generator does with replies.
pub trait Client: Send + 'static {
    /// Queues the first lines. Called just before the serve loop starts.
    fn start(&mut self, now_ns: u64);
    /// One reply line (newline excluded) arrived for request `id`.
    fn on_reply(&mut self, id: u64, ok: bool, line: &[u8], now_ns: u64);
}

/// The serve loop's output: timestamps each reply line and hands it to the
/// client.
pub struct ReplySink<C: Client> {
    clock: Clock,
    partial: Vec<u8>,
    pub client: C,
}

impl<C: Client> ReplySink<C> {
    pub fn new(clock: Clock, client: C) -> Self {
        Self {
            clock,
            partial: Vec::new(),
            client,
        }
    }

    fn line(&mut self, line: &[u8], now_ns: u64) {
        let (id, ok) = reply_head(line);
        self.client.on_reply(id, ok, line, now_ns);
    }
}

/// The echoed `request_id` and whether the outcome is `Ok`, read from the
/// fixed head of a reply line (`{"request_id":N,"outcome":{"Ok"…`).
pub fn reply_head(line: &[u8]) -> (u64, bool) {
    const ID: &[u8] = b"{\"request_id\":";
    const OK: &[u8] = b",\"outcome\":{\"Ok\"";
    assert!(line.starts_with(ID), "reply line without a request id");
    let digits = line[ID.len()..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let id = line[ID.len()..ID.len() + digits]
        .iter()
        .fold(0u64, |acc, &b| acc * 10 + u64::from(b - b'0'));
    let ok = line[ID.len() + digits..].starts_with(OK);
    (id, ok)
}

impl<C: Client> Write for ReplySink<C> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = self.clock.now_ns();
        let mut rest = buf;
        // The serve loop writes whole lines; a split line is reassembled.
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            if self.partial.is_empty() {
                self.line(&rest[..nl], now);
            } else {
                let mut joined = std::mem::take(&mut self.partial);
                joined.extend_from_slice(&rest[..nl]);
                self.line(&joined, now);
            }
            rest = &rest[nl + 1..];
        }
        self.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One finished serve run.
pub struct Finished<C> {
    pub client: C,
    pub sent: SentLog,
}

/// Runs `serve()` over the client's traffic until the client closes the
/// outbox and every reply is written.
pub fn run_serve<C: Client>(
    mut client: C,
    outbox: Arc<Outbox>,
    clock: Clock,
    options: &ServeOptions,
) -> Finished<C> {
    let sent_out = Arc::new(Mutex::new(Vec::new()));
    client.start(clock.now_ns());
    let input = PacedInput::new(outbox, clock, Arc::clone(&sent_out));
    let (sink, _) = serve(input, ReplySink::new(clock, client), options);
    let sink = sink.expect("the serve writer thread panicked");
    let sent = std::mem::take(&mut *sent_out.lock().expect("sent log lock"));
    Finished {
        client: sink.client,
        sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_head_reads_id_and_outcome() {
        let ok = br#"{"request_id":1234,"outcome":{"Ok":{"Guidance":{"task":"t","object":null}}}}"#;
        assert_eq!(reply_head(ok), (1234, true));
        let err = br#"{"request_id":7,"outcome":{"Err":{"TaskNotFound":{"task":"t"}}}}"#;
        assert_eq!(reply_head(err), (7, false));
    }

    #[test]
    fn outbox_releases_lines_in_due_order() {
        let clock = Clock::start();
        let outbox = Outbox::default();
        let now = clock.now_ns();
        outbox.push(now + 2_000_000, 2, Arc::from("b\n"));
        outbox.push(now, 1, Arc::from("a\n"));
        outbox.push(now, 3, Arc::from("c\n"));
        outbox.close();
        let order: Vec<u64> =
            std::iter::from_fn(|| outbox.pop_due(&clock).map(|(id, _)| id)).collect();
        assert_eq!(order, vec![1, 3, 2]);
        assert!(clock.now_ns() >= now + 2_000_000, "line 2 released early");
    }
}
