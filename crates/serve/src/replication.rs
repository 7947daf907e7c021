//! Primary-side journal shipping: hot-standby replication.
//!
//! A replicating primary (`--replicate-to ADDR`) runs one **sender
//! thread** that dials the follower's ordinary NDJSON listener and
//! speaks the replication subset of the wire protocol
//! ([`crate::protocol`]):
//!
//! 1. `"ReplHello"` → the follower answers with its journal position
//!    (`ReplPosition {seq, offset}`), which the sender validates against
//!    its own copy of that segment (the offset must land exactly on a
//!    record boundary — anything else means the follower's history
//!    diverged and replication stops rather than corrupt it).
//! 2. The sender tails the journal *files* from that position, shipping
//!    each complete framed line verbatim as `ReplRecord {frame}` and
//!    each segment transition as `ReplSegment {seq}`. Shipping raw
//!    frames (not re-encoded records) makes the follower's journal a
//!    byte-for-byte mirror and lets the follower re-verify every CRC.
//! 3. The follower acknowledges each message with its new durable
//!    position (`ReplAck`). At most `REPL_WINDOW` messages are in
//!    flight; a slow follower backpressures the sender, never the
//!    primary's clients (replication is asynchronous — the primary
//!    acknowledges clients after its *local* append, and `stats`
//!    exposes the acked position so lag is observable).
//!
//! A dropped connection reconnects with backoff and re-handshakes, so
//! the stream resumes from the last position the follower made durable.
//! A *protocol* failure — the follower refuses a frame, was promoted, or
//! reports a diverged position — is fatal: the sender stops permanently
//! and the primary keeps serving unreplicated (loudly, on stderr).
//!
//! Reading the journal files (rather than an in-process channel) keeps
//! the scheduler loop decoupled: the loop only bumps a notification
//! epoch after each append, and the sender catches up from disk —
//! which is also exactly what lets a late-joining follower receive
//! segments written before it ever connected.
//!
//! A scheduler round's one append ([`crate::server`]) is invisible here:
//! it writes exactly the concatenation of the per-record frames, so the
//! tailer ships them one `ReplRecord` each and the follower's mirror is
//! the same bytes whatever the round boundaries were.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde::Deserialize;

use crate::journal::segment_name;
use crate::protocol::{read_line, Line, ReplicationStats, Request, MAX_LINE_BYTES};
use crate::store::Store;

/// Messages (frames + segment markers) the sender keeps in flight before
/// waiting for the follower to acknowledge.
const REPL_WINDOW: u64 = 64;

/// How the replies a follower may send deserialize on the primary side
/// (a subset of [`crate::protocol::Response`]; anything else on the link
/// is a protocol violation).
#[derive(Debug, Deserialize)]
enum ReplReply {
    /// The follower's durable journal position.
    #[allow(missing_docs)]
    ReplPosition { seq: u64, offset: u64 },
    /// One message acknowledged; durable through `(seq, offset)`.
    #[allow(missing_docs)]
    ReplAck { seq: u64, offset: u64 },
    /// The follower refused: wrong role, bad frame, or local failure.
    #[allow(missing_docs)]
    Error { message: String },
}

/// Shared state between the scheduler loop and the sender thread; a
/// fresh one is unconnected.
#[derive(Debug, Default)]
pub(crate) struct ReplLink {
    /// The follower's address (the `--replicate-to` value).
    target: String,
    /// Bumped by the scheduler loop after every journal append or
    /// rotation; the sender waits on it instead of polling hot.
    epoch: Mutex<u64>,
    cv: Condvar,
    stop: AtomicBool,
    connected: AtomicBool,
    fatal: AtomicBool,
    sent: AtomicU64,
    acked: AtomicU64,
    acked_seq: AtomicU64,
    acked_offset: AtomicU64,
}

impl ReplLink {
    /// Wakes the sender: new journal bytes exist (or state changed).
    pub(crate) fn notify(&self) {
        let mut epoch = self.epoch.lock().expect("repl epoch lock");
        *epoch += 1;
        self.cv.notify_all();
    }

    /// Asks the sender thread to exit (server shutdown).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.notify();
    }

    /// The primary's `stats` replication block: whether the link is up,
    /// the follower's last acknowledged position, and the messages
    /// acknowledged over the current connection.
    pub fn stats(&self) -> ReplicationStats {
        ReplicationStats {
            role: "primary".into(),
            peer: self.target.clone(),
            connected: self.connected.load(Ordering::SeqCst),
            seq: self.acked_seq.load(Ordering::SeqCst),
            offset: self.acked_offset.load(Ordering::SeqCst),
            records: self.acked.load(Ordering::SeqCst),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn is_fatal(&self) -> bool {
        self.fatal.load(Ordering::SeqCst)
    }

    fn set_fatal(&self, why: &str) {
        self.fatal.store(true, Ordering::SeqCst);
        eprintln!(
            "lumos-serve: replication to {} stopped permanently: {why}",
            self.target
        );
        self.notify();
    }

    fn record_ack(&self, seq: u64, offset: u64) {
        self.acked_seq.store(seq, Ordering::SeqCst);
        self.acked_offset.store(offset, Ordering::SeqCst);
        self.acked.fetch_add(1, Ordering::SeqCst);
        self.notify();
    }

    fn in_flight(&self) -> u64 {
        self.sent
            .load(Ordering::SeqCst)
            .saturating_sub(self.acked.load(Ordering::SeqCst))
    }

    /// Blocks until [`ReplLink::notify`] fires or `timeout` passes.
    fn wait(&self, timeout: Duration) {
        let epoch = self.epoch.lock().expect("repl epoch lock");
        let before = *epoch;
        let _ = self.cv.wait_timeout_while(epoch, timeout, |e| *e == before);
    }
}

/// Spawns the sender thread for a primary journaling into `store`, and
/// returns its link to the follower at `target`.
pub(crate) fn spawn_sender(store: Arc<dyn Store>, target: &str) -> Arc<ReplLink> {
    let target = target.to_owned();
    let link = Arc::new(ReplLink {
        target,
        ..ReplLink::default()
    });
    let sender = Arc::clone(&link);
    std::thread::spawn(move || sender_loop(&*store, &sender));
    link
}

fn sender_loop(store: &dyn Store, link: &ReplLink) {
    let mut announced_wait = false;
    while !link.stopped() && !link.is_fatal() {
        match TcpStream::connect(&link.target) {
            Ok(stream) => {
                announced_wait = false;
                eprintln!("lumos-serve: replicating to {}", link.target);
                if let Err(e) = ship(store, link, stream) {
                    if !link.is_fatal() && !link.stopped() {
                        eprintln!(
                            "lumos-serve: replication link to {} lost: {e}; reconnecting",
                            link.target
                        );
                    }
                }
                link.connected.store(false, Ordering::SeqCst);
            }
            Err(_) if !announced_wait => {
                // Log once per outage, then retry quietly.
                announced_wait = true;
                eprintln!(
                    "lumos-serve: waiting for follower at {} to accept connections",
                    link.target
                );
            }
            Err(_) => {}
        }
        if !link.stopped() && !link.is_fatal() {
            std::thread::sleep(Duration::from_millis(300));
        }
    }
}

/// One connection's worth of streaming: handshake, then tail-and-ship
/// until the link drops, a fatal protocol error, or server shutdown.
fn ship(store: &dyn Store, link: &ReplLink, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut writer = io::BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);

    // Handshake: where is the follower?
    writeln!(writer, "{}", Request::ReplHello.to_line())?;
    writer.flush()?;
    let mut buf = Vec::new();
    let Some(line) = read_line(&mut reader, &mut buf)? else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "follower closed during handshake",
        ));
    };
    let (seq, offset) = match decode_reply(line) {
        Ok(ReplReply::ReplPosition { seq, offset }) => (seq, offset),
        other => {
            link.set_fatal(&misfit(other, "the handshake", "handshake reply"));
            return Ok(());
        }
    };
    if let Err(why) = validate_position(store, seq, offset) {
        link.set_fatal(&why);
        return Ok(());
    }

    // In-flight accounting restarts per connection (unacked messages of
    // a previous link were implicitly resent by resuming at the
    // follower's durable position).
    link.sent.store(0, Ordering::SeqCst);
    link.acked.store(0, Ordering::SeqCst);
    link.acked_seq.store(seq, Ordering::SeqCst);
    link.acked_offset.store(offset, Ordering::SeqCst);
    link.connected.store(true, Ordering::SeqCst);

    // Ack reader: drains the follower's replies concurrently so up to
    // REPL_WINDOW messages ride the wire at once. Scoped, so it may
    // borrow `link`; the socket shutdown below unblocks its final read
    // and the scope joins it before returning.
    let dead = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            ack_reader(&mut reader, link, &dead);
        });
        let result = stream_records(store, link, &mut writer, &dead, seq, offset);
        let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
        result
    })
}

/// Decodes one line from the follower; a line over the cap is as
/// unparseable as bad JSON.
fn decode_reply(line: Line<'_>) -> Result<ReplReply, String> {
    match line {
        Line::Text(text) => serde_json::from_str(text.trim()).map_err(|e| e.to_string()),
        Line::TooLong => Err(format!("line longer than {MAX_LINE_BYTES} bytes")),
    }
}

/// Why a follower reply other than the expected one ends the link: the
/// follower refused `what`, or sent an unexpected or unparseable `kind`.
fn misfit(reply: Result<ReplReply, String>, what: &str, kind: &str) -> String {
    match reply {
        Ok(ReplReply::Error { message }) => format!("follower refused {what}: {message}"),
        Ok(other) => format!("unexpected {kind}: {other:?}"),
        Err(e) => format!("unparseable {kind}: {e}"),
    }
}

/// Reads follower replies until the link drops or a protocol error.
fn ack_reader<R: BufRead>(reader: &mut R, link: &ReplLink, dead: &AtomicBool) {
    let mut buf = Vec::new();
    loop {
        match read_line(reader, &mut buf) {
            Ok(None) | Err(_) => break,
            Ok(Some(line)) => match decode_reply(line) {
                Ok(ReplReply::ReplAck { seq, offset }) => link.record_ack(seq, offset),
                other => {
                    link.set_fatal(&misfit(other, "a frame", "reply on the link"));
                    break;
                }
            },
        }
    }
    dead.store(true, Ordering::SeqCst);
    link.notify();
}

/// Tails the journal from `(seq, offset)`, shipping complete frames and
/// segment transitions until the connection dies or the server stops.
fn stream_records(
    store: &dyn Store,
    link: &ReplLink,
    writer: &mut io::BufWriter<TcpStream>,
    dead: &AtomicBool,
    mut seq: u64,
    offset: u64,
) -> io::Result<()> {
    let done = || link.stopped() || link.is_fatal() || dead.load(Ordering::SeqCst);
    let mut file = store.read_from(&segment_name(seq), offset)?;
    // Bytes read from the file but not yet shipped: a read may end in the
    // middle of a line the primary is still writing — only complete,
    // newline-terminated frames go on the wire.
    let mut carry: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    while !done() {
        // Window: bounded in-flight messages, so a stalled follower
        // pauses shipping instead of buffering the whole journal.
        if link.in_flight() >= REPL_WINDOW {
            link.wait(Duration::from_millis(100));
            continue;
        }
        // Sampling the next segment's existence *before* reading matters:
        // rotation creates segment N+1 only after the last append to N,
        // so "N+1 existed, then N hit EOF" proves N is complete.
        let next_exists = store.exists(&segment_name(seq + 1));
        let n = file.read(&mut buf)?;
        if n == 0 {
            if carry.is_empty() && next_exists {
                writeln!(
                    writer,
                    "{}",
                    Request::ReplSegment { seq: seq + 1 }.to_line()
                )?;
                writer.flush()?;
                link.sent.fetch_add(1, Ordering::SeqCst);
                seq += 1;
                file = store.read_from(&segment_name(seq), 0)?;
                continue;
            }
            // Caught up: sleep until the scheduler appends again.
            link.wait(Duration::from_millis(100));
            continue;
        }
        carry.extend_from_slice(&buf[..n]);
        let mut start = 0usize;
        while let Some(nl) = carry[start..].iter().position(|&b| b == b'\n') {
            while link.in_flight() >= REPL_WINDOW && !done() {
                link.wait(Duration::from_millis(100));
            }
            if done() {
                return Ok(());
            }
            let frame = String::from_utf8_lossy(&carry[start..start + nl]).into_owned();
            writeln!(writer, "{}", Request::ReplRecord { frame }.to_line())?;
            link.sent.fetch_add(1, Ordering::SeqCst);
            start += nl + 1;
        }
        carry.drain(..start);
        writer.flush()?;
    }
    Ok(())
}

/// Checks that `(seq, offset)` names a record boundary in this journal's
/// copy of segment `seq` — the resume contract: the follower's next byte
/// must be the first byte of a record the primary also has.
fn validate_position(store: &dyn Store, seq: u64, offset: u64) -> Result<(), String> {
    let data = store.read(&segment_name(seq)).map_err(|e| {
        format!(
            "follower is at segment {seq} which this primary cannot read ({e}); \
             refusing to replicate into diverged history"
        )
    })?;
    if offset > data.len() as u64 {
        return Err(format!(
            "follower is ahead of this primary (segment {seq}: {offset} > {} bytes); \
             refusing to replicate into diverged history",
            data.len()
        ));
    }
    let mut pos = 0u64;
    while pos < offset {
        match data[usize::try_from(pos).expect("offset fits usize")..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(nl) => pos += nl as u64 + 1,
            None => break,
        }
    }
    if pos != offset {
        return Err(format!(
            "follower offset {offset} in segment {seq} is not a record boundary; \
             refusing to replicate into diverged history"
        ));
    }
    Ok(())
}
