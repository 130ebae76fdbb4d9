//! TCP transport over the wire protocol — a thin frame pump around
//! [`ServeHandle`].
//!
//! One thread accepts; one thread per connection reads frames, routes
//! them through the *same* `call` path the in-process tests use, and
//! writes reply frames back. All protocol decisions live in
//! [`crate::server`]; this module only moves bytes and detects
//! disconnects.
//!
//! Malformed input never panics or hangs the server: a frame whose
//! *payload* fails to decode gets a typed `BadFrame` reply and the
//! connection continues (framing is still sound); a frame whose
//! *header or checksum* is wrong gets a `BadFrame` reply and a clean
//! disconnect (the byte stream can no longer be trusted); a peer that
//! stops mid-frame is a clean disconnect.
//!
//! While a request waits on a coalesced or pooled flight, the
//! connection thread probes its own socket for EOF
//! ([`TcpStream::peek`] in non-blocking mode) — a vanished client flips
//! the request's [`CancelToken`], and the pooled job sheds the work at
//! its next phase boundary.

use crate::server::{CallOpts, CancelToken, ServeHandle};
use crate::wire::{self, ErrorCode, Reply, Request, WireError, FRAME_HEADER_LEN};
use freehgc_parallel::relock;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked connection read waits before re-checking the
/// server's stop flag.
const READ_SLICE: Duration = Duration::from_millis(25);
/// Accept-loop poll interval (the listener runs non-blocking so
/// shutdown never needs a self-connection to unblock it).
const ACCEPT_SLICE: Duration = Duration::from_millis(5);

/// A running TCP front end. [`TcpServer::shutdown`] (also run on drop)
/// stops accepting, joins every connection thread, then drains the
/// underlying [`ServeHandle`] — no detached threads survive it.
pub struct TcpServer {
    handle: ServeHandle,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `handle` on it.
    pub fn bind(handle: ServeHandle, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("freehgc-serve-accept".into())
                .spawn(move || accept_loop(&listener, &handle, &stop, &conns))?
        };
        Ok(TcpServer {
            handle,
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn handle(&self) -> &ServeHandle {
        &self.handle
    }

    /// Stops accepting, lets every connection finish its in-flight
    /// frame, joins all transport threads, then drains the server
    /// itself ([`ServeHandle::shutdown`]). Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in relock(&self.conn_threads).drain(..) {
            let _ = t.join();
        }
        self.handle.shutdown();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    handle: &ServeHandle,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                let stop = Arc::clone(stop);
                let spawned = std::thread::Builder::new()
                    .name("freehgc-serve-conn".into())
                    .spawn(move || {
                        // A connection that errors out just ends; the
                        // server and its other connections are
                        // untouched.
                        let _ = serve_connection(stream, &handle, &stop);
                    });
                if let Ok(t) = spawned {
                    let mut held = relock(conns);
                    // Keep the list from growing unboundedly under
                    // connection churn.
                    held.retain(|h| !h.is_finished());
                    held.push(t);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_SLICE);
            }
            Err(_) => std::thread::sleep(ACCEPT_SLICE),
        }
    }
}

/// Outcome of pulling `n` bytes: the bytes, a clean peer disconnect, or
/// a server-stop interruption.
enum Pull {
    Bytes(Vec<u8>),
    Disconnected,
    Stopping,
}

fn read_full(stream: &mut TcpStream, n: usize, stop: &AtomicBool) -> io::Result<Pull> {
    let mut buf = vec![0u8; n];
    let mut filled = 0;
    while filled < n {
        if stop.load(Ordering::Relaxed) {
            return Ok(Pull::Stopping);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(Pull::Disconnected),
            Ok(k) => filled += k,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Pull::Bytes(buf))
}

/// True when the peer has hung up: a non-blocking `peek` that returns
/// EOF. Pending unread bytes (a pipelined next request) mean "alive".
fn peer_disconnected(probe: &TcpStream) -> bool {
    if probe.set_nonblocking(true).is_err() {
        return false;
    }
    let mut one = [0u8; 1];
    let gone = match probe.peek(&mut one) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = probe.set_nonblocking(false);
    gone
}

fn serve_connection(
    mut stream: TcpStream,
    handle: &ServeHandle,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_SLICE))?;
    stream.set_nodelay(true).ok();
    let probe_stream = stream.try_clone()?;
    loop {
        let header = match read_full(&mut stream, FRAME_HEADER_LEN, stop)? {
            Pull::Bytes(b) => b,
            Pull::Disconnected | Pull::Stopping => return Ok(()),
        };
        let (kind, req_id, len) = match wire::decode_header(&header) {
            Ok(h) => h,
            Err(e) => {
                // The stream is desynchronized; answer and hang up.
                send_bad_frame(&mut stream, salvage_req_id(&header), &e);
                return Ok(());
            }
        };
        let payload = match read_full(&mut stream, len, stop)? {
            Pull::Bytes(b) => b,
            Pull::Disconnected | Pull::Stopping => return Ok(()),
        };
        let expected = u64::from_le_bytes(
            header[FRAME_HEADER_LEN - 8..FRAME_HEADER_LEN]
                .try_into()
                .expect("checksum slice is 8 bytes"),
        );
        if let Err(e) = wire::check_frame(kind, req_id, expected, &payload) {
            send_bad_frame(&mut stream, req_id, &e);
            return Ok(());
        }
        let reply = match wire::decode_request_payload(kind, &payload) {
            Ok(req) => dispatch(handle, &req, &probe_stream),
            // Framing held — this frame alone was bad; keep serving.
            Err(e) => Reply::Error {
                code: ErrorCode::BadFrame,
                message: e.to_string(),
            },
        };
        if stream
            .write_all(&wire::encode_reply(req_id, &reply))
            .is_err()
        {
            // Client vanished between request and reply.
            return Ok(());
        }
    }
}

fn dispatch(handle: &ServeHandle, req: &Request, probe_stream: &TcpStream) -> Reply {
    let cancel = CancelToken::new();
    let probe = move || peer_disconnected(probe_stream);
    let opts = CallOpts {
        cancel: Some(cancel),
        disconnect_probe: Some(&probe),
    };
    handle.call_with(req, &opts)
}

fn salvage_req_id(header: &[u8]) -> u64 {
    // The id sits at a fixed offset; echo it only when magic+version
    // held (otherwise these bytes are noise, and 0 is the honest echo).
    if header.len() >= 15 && header[..4] == wire::WIRE_MAGIC {
        u64::from_le_bytes(header[7..15].try_into().expect("req_id slice is 8 bytes"))
    } else {
        0
    }
}

fn send_bad_frame(stream: &mut TcpStream, req_id: u64, e: &WireError) {
    let reply = Reply::Error {
        code: ErrorCode::BadFrame,
        message: e.to_string(),
    };
    let _ = stream.write_all(&wire::encode_reply(req_id, &reply));
}

/// Blocking client for the wire protocol — used by the serve
/// equivalence and adversarial tests.
pub struct ServeClient {
    stream: TcpStream,
    next_id: u64,
}

impl ServeClient {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(ServeClient { stream, next_id: 1 })
    }

    /// Sends `req` and blocks for its reply, checking the echoed id.
    pub fn call(&mut self, req: &Request) -> io::Result<Reply> {
        let req_id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&wire::encode_request(req_id, req))?;
        let (rid, reply) = self.read_reply()?;
        if rid != req_id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply id {rid} does not echo request id {req_id}"),
            ));
        }
        Ok(reply)
    }

    /// Writes raw bytes verbatim — the adversarial tests' way of
    /// putting malformed frames on the wire.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one reply frame. `Ok(None)`-style clean disconnects
    /// surface as `ErrorKind::UnexpectedEof`.
    pub fn read_reply(&mut self) -> io::Result<(u64, Reply)> {
        let mut header = vec![0u8; FRAME_HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let (kind, req_id, len) = wire::decode_header(&header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        let expected = u64::from_le_bytes(
            header[FRAME_HEADER_LEN - 8..FRAME_HEADER_LEN]
                .try_into()
                .expect("checksum slice is 8 bytes"),
        );
        wire::check_frame(kind, req_id, expected, &payload)
            .and_then(|()| wire::decode_reply_payload(kind, &payload))
            .map(|reply| (req_id, reply))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
