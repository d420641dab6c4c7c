//! The benchmark's connection to a `tirm_server`: the wire crate's own
//! framing and codecs, with a span around each request phase so the
//! traced round can tell encoding, the round trip and decoding apart.

use crate::trace::Tracer;
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tirm_online::AllocationSnapshot;
use tirm_wire::{read_frame, write_frame, Request, Response, StatsView, PROTOCOL_VERSION};

/// Sleep between two visibility polls: long enough that waiting does
/// not spin a core the program needs (README, N4), short against the
/// latencies it resolves.
pub const POLL_SLEEP: Duration = Duration::from_micros(200);
/// An op not visible after this long has failed.
pub const VISIBLE_DEADLINE: Duration = Duration::from_secs(5);

/// One request/response connection.
pub struct Conn {
    stream: TcpStream,
}

fn protocol_err(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

impl Conn {
    /// Connects with `TCP_NODELAY` and checks the protocol version.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut conn = Conn { stream };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        match conn.request(&hello, &mut Tracer::disabled(), 0)? {
            Response::Hello { version, .. } if version == PROTOCOL_VERSION => Ok(conn),
            other => Err(protocol_err(format!("bad handshake: {other:?}"))),
        }
    }

    /// Sends one frame and reads the answering frame.
    pub fn roundtrip(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, body)?;
        read_frame(&mut self.stream)?
            .ok_or_else(|| protocol_err("server closed the connection".to_string()))
    }

    /// One request, with `client.encode`, `client.roundtrip` and
    /// `client.decode` spans under the caller's open span.
    pub fn request(&mut self, req: &Request, tr: &mut Tracer, op: u64) -> io::Result<Response> {
        let h = tr.begin("client.encode", op);
        let body = req.encode();
        tr.end(h);
        let h = tr.begin("client.roundtrip", op);
        let frame = self.roundtrip(body.as_bytes());
        tr.end(h);
        let frame = frame?;
        let h = tr.begin("client.decode", op);
        let resp = Response::decode(&frame).map_err(protocol_err);
        tr.end(h);
        resp
    }

    /// `stats`, untraced (the visibility poll).
    pub fn stats(&mut self) -> io::Result<StatsView> {
        match self.request(&Request::Stats, &mut Tracer::disabled(), 0)? {
            Response::Stats(s) => Ok(s),
            other => Err(protocol_err(format!("expected stats, got {other:?}"))),
        }
    }

    /// The full standing allocation.
    pub fn allocation(&mut self) -> io::Result<AllocationSnapshot> {
        match self.request(&Request::AllocationQuery, &mut Tracer::disabled(), 0)? {
            Response::Allocation(snap) => Ok(snap),
            other => Err(protocol_err(format!("expected allocation, got {other:?}"))),
        }
    }

    /// The program's registry dump.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.request(&Request::Metrics, &mut Tracer::disabled(), 0)? {
            Response::Metrics { json } => Ok(json),
            other => Err(protocol_err(format!("expected metrics, got {other:?}"))),
        }
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown, &mut Tracer::disabled(), 0)? {
            Response::ShuttingDown => Ok(()),
            other => Err(protocol_err(format!(
                "expected shutting_down, got {other:?}"
            ))),
        }
    }

    /// Polls `stats` until the published epoch reaches `epoch`, sleeping
    /// [`POLL_SLEEP`] between polls. Returns the instant the poll that
    /// saw it returned and the stats it saw; `Ok(None)` when the
    /// deadline passed first. `on_poll` sees every poll's stats and
    /// round-trip time.
    pub fn wait_epoch(
        &mut self,
        epoch: u64,
        mut on_poll: impl FnMut(&StatsView, Duration),
    ) -> io::Result<Option<(Instant, StatsView)>> {
        let t0 = Instant::now();
        loop {
            let sent = Instant::now();
            let stats = self.stats()?;
            let now = Instant::now();
            on_poll(&stats, now - sent);
            if stats.epoch >= epoch {
                return Ok(Some((now, stats)));
            }
            if t0.elapsed() > VISIBLE_DEADLINE {
                return Ok(None);
            }
            std::thread::sleep(POLL_SLEEP);
        }
    }
}
