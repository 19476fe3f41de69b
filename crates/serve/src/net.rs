//! TCP front end for the inference engine (`deepod serve --listen`),
//! plus the request-decoding path shared with stdin mode — std-only, no
//! async runtime.
//!
//! Topology:
//!
//! ```text
//! accept loop (nonblocking poll, shutdown flag)
//!   ├─ connection cap: beyond max_connections, a typed
//!   │  connection_limit frame is written and the socket dropped
//!   └─ per connection: reader thread + writer thread
//!        reader: newline-delimited frames → decode → per-connection
//!                in-flight cap → admission-controlled engine submit
//!        writer: replies in submission order (mpsc), one line each
//! ```
//!
//! **Per-client admission control.** Stdin mode has one client, so global
//! queue backpressure is per-client backpressure. On TCP that breaks: one
//! greedy client pipelining thousands of frames would fill the shared
//! queue and turn everyone's requests into `queue full`. Two gates keep
//! the blast radius per-client: a per-connection in-flight cap (frames
//! beyond it come back as typed `in_flight_limit` rejects — sized below
//! the queue capacity, so a single connection cannot fill the shared
//! queue) and a max-connections gate (typed `connection_limit` at
//! accept). TCP submissions always run the non-blocking `try_submit`
//! path — a full queue is a typed `queue_full` reject after a bounded
//! retry, where a blocking `submit` would park the greedy client's
//! reader on the full queue and stall polite clients behind it.
//!
//! Every thread here is born via the supervised spawn in
//! [`crate::supervisor`]: a panicking connection loop is counted and
//! logged, and takes down its own connection only.
//!
//! Exactly-one-reply: every decoded frame yields exactly one line —
//! answered, typed engine error, or typed protocol reject — in
//! per-connection submission order. On listener shutdown, readers stop
//! accepting new frames (after a bounded drain of what is already
//! buffered) and writers flush every reply already owed before the
//! socket closes.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use deepod_core::obs::registry;
use deepod_core::PredictRequest;
use deepod_roadnet::Point;
use deepod_traj::{CityDataset, OdInput};

use crate::engine::{EngineReply, InferenceEngine, ReplyHandle, ServeError};
use crate::protocol::{self, ErrorKind, WireError, WireRequest, WireResponse};
use crate::supervisor::spawn_net;

/// How often blocked reads wake up to poll the shutdown flag, and how
/// often the accept loop polls for new connections.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Tunables of the TCP front end.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Concurrent connections accepted; beyond it new connections get a
    /// typed `connection_limit` frame and are dropped.
    pub max_connections: usize,
    /// Per-connection cap on requests submitted but not yet answered;
    /// frames beyond it are rejected with `in_flight_limit`. Keep this
    /// below the engine queue capacity so one connection cannot fill the
    /// shared queue.
    pub max_in_flight: usize,
    /// Largest accepted request line in bytes; longer frames get a typed
    /// `frame_too_large` reject (the connection survives).
    pub max_frame_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            max_in_flight: 32,
            max_frame_bytes: 64 * 1024,
        }
    }
}

/// Registers every `serve.net_*` metric eagerly so snapshots show zeros
/// from the first scrape instead of names popping into existence.
fn register_metrics() {
    registry::counter_add("serve.net_accepted", 0);
    registry::counter_add("serve.net_conn_rejected", 0);
    registry::counter_add("serve.net_frames_in", 0);
    registry::counter_add("serve.net_frames_out", 0);
    registry::counter_add("serve.net_frame_errors", 0);
    registry::counter_add("serve.net_inflight_rejected", 0);
    registry::counter_add("serve.net_thread_panics", 0);
    registry::register_gauge("serve.net_connections");
}

/// How a decoded request enters the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Block the producer when the queue is full (stdin backpressure —
    /// the historical single-client behavior).
    Block,
    /// Reject with `queue_full` instead of blocking when the queue stays
    /// full through the retry budget (`--reject-when-full`, and always
    /// on TCP).
    Shed,
}

/// A request line decoded and validated, ready to submit.
pub struct DecodedRequest {
    /// Correlation id echoed in the reply.
    pub id: u64,
    /// The engine-level request.
    pub req: PredictRequest,
}

/// One unit of output owed to a client: either a fully rendered line, or
/// a submitted request whose reply line is rendered once the engine
/// answers. Writers emit these strictly in submission order.
pub enum Submission {
    /// A rendered reply line (reject, parse error, or protocol error).
    Ready(String),
    /// A request accepted by the engine; the writer waits on the handle.
    Pending(u64, ReplyHandle),
}

/// Decodes one request line, shared by stdin and TCP so the two modes
/// cannot drift. Returns `None` for blank lines (no reply owed);
/// `Some(Err(line))` is a fully rendered error reply (bad JSON, invalid
/// fields, pre-epoch departure, or an unsupported version).
pub fn decode_line(ds: &CityDataset, line: &str) -> Option<Result<DecodedRequest, String>> {
    if line.trim().is_empty() {
        return None;
    }
    let reject = |id, error| Some(Err(WireResponse::Err { id, error }.to_line()));
    let wire = match WireRequest::parse(line) {
        Ok(wire) => wire,
        Err((id, error)) => return reject(id, error),
    };
    // Pre-epoch (or non-finite) departures cannot be attributed to a
    // time slot; reject them per request instead of letting the encoder
    // clamp them onto slot 0's conditions.
    if let Err(why) = protocol::validate_depart(wire.depart) {
        return reject(Some(wire.id), WireError::new(ErrorKind::BadRequest, why));
    }
    let od = OdInput {
        origin: Point::new(wire.from.0, wire.from.1),
        destination: Point::new(wire.to.0, wire.to.1),
        depart: wire.depart,
        weather: ds.traffic.weather().at(wire.depart),
    };
    Some(Ok(DecodedRequest {
        id: wire.id,
        req: PredictRequest::Raw(od),
    }))
}

/// Hands a decoded request to the engine under the chosen admission
/// policy. A typed rejection becomes an immediately-ready reply line, so
/// every decoded frame still yields exactly one response.
pub fn submit_decoded(
    engine: &InferenceEngine,
    decoded: DecodedRequest,
    admission: Admission,
) -> Submission {
    let DecodedRequest { id, req } = decoded;
    let submitted = match admission {
        Admission::Block => engine.submit(req),
        Admission::Shed => engine.try_submit(req),
    };
    match submitted {
        Ok(handle) => Submission::Pending(id, handle),
        Err(e) => Submission::Ready(render_reply(id, Err(e))),
    }
}

/// Decode + submit in one step — the whole per-line serving path, shared
/// verbatim by the stdin loop and the TCP reader.
pub fn process_line(
    engine: &InferenceEngine,
    ds: &CityDataset,
    line: &str,
    admission: Admission,
) -> Option<Submission> {
    match decode_line(ds, line)? {
        Ok(decoded) => Some(submit_decoded(engine, decoded, admission)),
        Err(rendered) => Some(Submission::Ready(rendered)),
    }
}

/// Renders the final reply line for a request: the answer, the
/// per-request model error, or the typed engine failure (an admission
/// reject, a worker crash past its retry budget, an expired deadline, or
/// shutdown — a handle resolves rather than hangs, so exactly one line
/// per id).
pub fn render_reply(id: u64, reply: Result<EngineReply, ServeError>) -> String {
    let frame = match reply {
        Ok(EngineReply {
            result: Ok(resp),
            degraded,
        }) => WireResponse::Ok {
            id,
            eta_seconds: resp.eta_seconds,
            degraded,
        },
        Ok(EngineReply { result: Err(e), .. }) => WireResponse::Err {
            id: Some(id),
            error: WireError::new(ErrorKind::Model, e.to_string()),
        },
        Err(e) => WireResponse::Err {
            id: Some(id),
            error: (&e).into(),
        },
    };
    frame.to_line()
}

/// A running TCP listener bound to one engine. Dropping (or calling
/// [`NetServer::shutdown`]) stops accepting, drains every connection's
/// owed replies, and joins all threads.
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, port `0` for an ephemeral
    /// port) and starts serving the engine over TCP.
    pub fn start(
        engine: Arc<InferenceEngine>,
        ds: Arc<CityDataset>,
        addr: &str,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        register_metrics();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept = spawn_net("accept", move || {
            accept_loop(&listener, &engine, &ds, config, &flag);
        });
        Ok(NetServer {
            local_addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the actual port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, lets every connection drain the replies it owes,
    /// and joins all serving threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decrements the active-connection count (and gauge) when a connection
/// thread exits — by any path, including a panic unwinding to the
/// supervised spawn.
struct ConnGuard {
    active: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let now = self.active.fetch_sub(1, Ordering::AcqRel).saturating_sub(1);
        registry::gauge_set("serve.net_connections", now as f64);
    }
}

fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<InferenceEngine>,
    ds: &Arc<CityDataset>,
    config: NetConfig,
    shutdown: &Arc<AtomicBool>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Reap finished connection threads so the handle list
                // stays bounded by the live-connection count.
                conns.retain(|h| !h.is_finished());
                if active.load(Ordering::Acquire) >= config.max_connections {
                    reject_connection(stream, config.max_connections);
                    continue;
                }
                registry::counter_inc("serve.net_accepted");
                let now = active.fetch_add(1, Ordering::AcqRel) + 1;
                registry::gauge_set("serve.net_connections", now as f64);
                let engine = Arc::clone(engine);
                let ds = Arc::clone(ds);
                let shutdown = Arc::clone(shutdown);
                let guard = ConnGuard {
                    active: Arc::clone(&active),
                };
                conns.push(spawn_net("connection", move || {
                    let _guard = guard;
                    serve_connection(stream, &engine, &ds, config, &shutdown);
                }));
            }
            // Nonblocking accept: nothing waiting — poll the shutdown
            // flag again shortly. Transient accept errors (e.g. the peer
            // resetting mid-handshake) take the same nap.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// Answers a connection beyond the cap with one typed frame, then drops
/// the socket — the client learns *why* instead of seeing a bare RST.
fn reject_connection(mut stream: TcpStream, cap: usize) {
    registry::counter_inc("serve.net_conn_rejected");
    let mut frame = WireResponse::Err {
        id: None,
        error: WireError::new(
            ErrorKind::ConnectionLimit,
            format!("server is at its connection limit ({cap}); retry later"),
        ),
    }
    .to_line();
    frame.push('\n');
    let _ = stream.write_all(frame.as_bytes());
}

/// One connection: a reader loop on this thread plus a writer thread,
/// joined before the sockets close so every owed reply is flushed.
fn serve_connection(
    stream: TcpStream,
    engine: &Arc<InferenceEngine>,
    ds: &Arc<CityDataset>,
    config: NetConfig,
    shutdown: &Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    // Short read timeouts let the reader poll the shutdown flag; partial
    // frames survive across timeouts because read_until retains
    // already-read bytes in its buffer.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let in_flight = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<Submission>();
    let writer_in_flight = Arc::clone(&in_flight);
    let writer = spawn_net("conn-writer", move || {
        conn_writer_loop(write_half, &rx, &writer_in_flight);
    });
    conn_reader_loop(stream, engine, ds, config, shutdown, &in_flight, &tx);
    // Close the intake; the writer drains every reply already owed (all
    // handles resolve — a dead worker surfaces as a typed error), then
    // the sockets drop and the client sees EOF after its last reply.
    drop(tx);
    let _ = writer.join();
}

/// Reads newline-delimited frames until EOF, a connection error, or
/// listener shutdown (after a bounded drain of frames already buffered).
fn conn_reader_loop(
    stream: TcpStream,
    engine: &Arc<InferenceEngine>,
    ds: &Arc<CityDataset>,
    config: NetConfig,
    shutdown: &Arc<AtomicBool>,
    in_flight: &AtomicUsize,
    tx: &mpsc::Sender<Submission>,
) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    // An oversized frame is answered once, then its remaining bytes are
    // discarded up to the next newline — the connection survives.
    let mut discarding = false;
    // On shutdown, frames already buffered are still served (bounded by
    // the in-flight cap so a client streaming forever cannot pin the
    // listener open), but the first quiet read ends the connection.
    let mut draining = false;
    let mut drained: usize = 0;
    loop {
        if !draining && shutdown.load(Ordering::Acquire) {
            draining = true;
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                // EOF. A final unterminated frame (bytes retained from
                // earlier timeouts) is still served, matching how stdin
                // treats a last line without a newline.
                if !buf.is_empty() && !discarding {
                    let _ = handle_frame(&buf, engine, ds, config, in_flight, tx);
                }
                return;
            }
            Ok(_) => {
                // read_until returns a buffer without the delimiter only
                // at EOF.
                let complete = buf.ends_with(b"\n");
                if discarding {
                    buf.clear();
                    if !complete {
                        return;
                    }
                    discarding = false;
                } else if buf.len() > config.max_frame_bytes {
                    if !reject_oversized(tx, config.max_frame_bytes) {
                        return;
                    }
                    buf.clear();
                    if !complete {
                        return;
                    }
                } else {
                    let ok = handle_frame(&buf, engine, ds, config, in_flight, tx);
                    buf.clear();
                    if !ok || !complete {
                        return;
                    }
                }
                if draining {
                    drained = drained.saturating_add(1);
                    if drained >= config.max_in_flight {
                        return;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if draining {
                    // Quiet socket during drain: everything buffered has
                    // been served; stop reading.
                    return;
                }
                if discarding {
                    // Bound memory while skipping an oversized frame.
                    buf.clear();
                } else if buf.len() > config.max_frame_bytes {
                    if !reject_oversized(tx, config.max_frame_bytes) {
                        return;
                    }
                    discarding = true;
                    buf.clear();
                }
            }
            Err(_) => return,
        }
    }
}

/// Sends the typed `frame_too_large` reject; `false` when the writer is
/// gone and the connection should end.
fn reject_oversized(tx: &mpsc::Sender<Submission>, cap: usize) -> bool {
    registry::counter_inc("serve.net_frame_errors");
    let frame = WireResponse::Err {
        id: None,
        error: WireError::new(
            ErrorKind::FrameTooLarge,
            format!("request frame exceeds {cap} bytes"),
        ),
    }
    .to_line();
    tx.send(Submission::Ready(frame)).is_ok()
}

/// Decodes and submits one complete frame; `false` when the writer is
/// gone and the connection should end.
fn handle_frame(
    raw: &[u8],
    engine: &Arc<InferenceEngine>,
    ds: &Arc<CityDataset>,
    config: NetConfig,
    in_flight: &AtomicUsize,
    tx: &mpsc::Sender<Submission>,
) -> bool {
    let mut end = raw.len();
    if end > 0 && raw.get(end - 1) == Some(&b'\n') {
        end -= 1;
    }
    if end > 0 && raw.get(end - 1) == Some(&b'\r') {
        end -= 1;
    }
    let line = String::from_utf8_lossy(raw.get(..end).unwrap_or(raw));
    if line.trim().is_empty() {
        return true;
    }
    registry::counter_inc("serve.net_frames_in");
    let item = match decode_line(ds, &line) {
        None => return true,
        Some(Err(rendered)) => {
            registry::counter_inc("serve.net_frame_errors");
            Submission::Ready(rendered)
        }
        Some(Ok(decoded)) => {
            if in_flight.load(Ordering::Acquire) >= config.max_in_flight {
                // Per-client admission: this connection is over its own
                // cap; reject *its* frame without touching the shared
                // queue other clients depend on.
                registry::counter_inc("serve.net_inflight_rejected");
                Submission::Ready(
                    WireResponse::Err {
                        id: Some(decoded.id),
                        error: WireError::new(
                            ErrorKind::InFlightLimit,
                            format!(
                                "too many requests in flight on this connection (cap {})",
                                config.max_in_flight
                            ),
                        ),
                    }
                    .to_line(),
                )
            } else {
                let sub = submit_decoded(engine, decoded, Admission::Shed);
                if matches!(sub, Submission::Pending(..)) {
                    in_flight.fetch_add(1, Ordering::AcqRel);
                }
                sub
            }
        }
    };
    tx.send(item).is_ok()
}

/// Writes replies in submission order; pending handles always resolve
/// (a dead worker surfaces as a typed error), so this loop cannot hang.
fn conn_writer_loop(stream: TcpStream, rx: &mpsc::Receiver<Submission>, in_flight: &AtomicUsize) {
    let mut out = BufWriter::new(stream);
    for item in rx.iter() {
        let line = match item {
            Submission::Ready(line) => line,
            Submission::Pending(id, handle) => {
                let line = render_reply(id, handle.recv());
                in_flight.fetch_sub(1, Ordering::AcqRel);
                line
            }
        };
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .is_err()
        {
            // Client gone: stop writing. Dropping the receiver makes the
            // reader's next send fail, ending the connection; unreceived
            // handles resolve harmlessly when dropped.
            return;
        }
        registry::counter_inc("serve.net_frames_out");
    }
}
