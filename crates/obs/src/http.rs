//! Minimal HTTP/1.0 exposition endpoint over std TCP — enough for
//! `curl` and a Prometheus scraper, with no new dependencies.
//!
//! Routes:
//! - `GET /metrics`       → Prometheus text exposition of the registry
//! - `GET /metrics.json`  → the structured JSON dump (same payload as
//!   the `metrics` wire request)
//! - `GET /trace.json`    → the flight-recorder lineage dump in Chrome
//!   trace-event format (load in `about:tracing` or Perfetto)
//!
//! The acceptor runs on its own thread, blocked in `accept` between
//! scrapes and serving each scrape itself; [`MetricsServer::stop`] (or
//! drop) wakes it with a throwaway connection. Serving a scrape only
//! *reads* metrics, so the endpoint cannot perturb the instrumented
//! process beyond scheduler noise.

use crate::{flight, prom, registry};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Total wall-clock budget for writing one response. Generous because a
/// legitimate scraper draining a multi-megabyte trace dump through small
/// reads is slow, not broken; a truly dead peer still can't hold the
/// single acceptor thread past this.
const RESPONSE_WRITE_DEADLINE: Duration = Duration::from_secs(15);

/// Handle to a running exposition endpoint.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with a `:0` port request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor and joins its thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            // Wake the blocked accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Writes all of `buf`, riding out partial writes and transient
/// `WouldBlock`/`TimedOut` stalls until `deadline`.
///
/// A short write timeout turns a slow reader into a spurious `TimedOut`
/// mid-body, so a plain `write_all` could silently truncate a large
/// `/metrics.json` or `/trace.json` response. Here a stall only fails
/// the response once the overall deadline passes.
fn write_fully(stream: &mut TcpStream, mut buf: &[u8], deadline: Instant) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped reading",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "response write deadline exceeded",
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let deadline = Instant::now() + RESPONSE_WRITE_DEADLINE;
    // A peer that dies mid-response is its problem, not ours — but a
    // slow one gets the whole body (see `write_fully`).
    let _ = write_fully(stream, head.as_bytes(), deadline)
        .and_then(|()| write_fully(stream, body.as_bytes(), deadline))
        .and_then(|()| stream.flush());
}

/// How long a peer has, from accept, to send its request head. Scrapes
/// are served one at a time, so a peer trickling its head must not hold
/// the endpoint longer than this.
const REQUEST_HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Bytes of request head read before it is parsed as it stands.
const REQUEST_HEAD_CAP: usize = 8192;

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Metrics,
    MetricsJson,
    Trace,
}

/// Why a request gets no route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Refusal {
    /// No request line at all: closed without a response.
    Empty,
    /// Anything but `GET`: 405.
    Method,
    /// A path the endpoint does not serve: 404.
    NotFound,
}

/// Routes a request head, as much of it as was read: its request line
/// (up to the first `\r`, or all of it) is read lossily as UTF-8 and
/// split on whitespace into a method and a path.
fn route(head: &[u8]) -> Result<Route, Refusal> {
    let line = head.split(|&b| b == b'\r').next().unwrap_or_default();
    if line.is_empty() {
        return Err(Refusal::Empty);
    }
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    if parts.next() != Some("GET") {
        return Err(Refusal::Method);
    }
    match parts.next() {
        Some("/metrics") => Ok(Route::Metrics),
        Some("/metrics.json") => Ok(Route::MetricsJson),
        Some("/trace.json") => Ok(Route::Trace),
        _ => Err(Refusal::NotFound),
    }
}

/// Reads until the end of the request head, [`REQUEST_HEAD_CAP`] bytes,
/// EOF, an error or `deadline`, whichever is first.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> Vec<u8> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 256];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return buf;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return buf,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > REQUEST_HEAD_CAP {
                    return buf;
                }
            }
            Err(_) => return buf,
        }
    }
}

fn handle(mut stream: TcpStream) {
    let deadline = Instant::now() + REQUEST_HEAD_DEADLINE;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(2_000)));
    let (content_type, body) = match route(&read_head(&mut stream, deadline)) {
        Ok(Route::Metrics) => (
            "text/plain; version=0.0.4; charset=utf-8",
            prom::render(&registry::snapshot()),
        ),
        Ok(Route::MetricsJson) => ("application/json", registry::dump_json()),
        Ok(Route::Trace) => ("application/json", flight::dump_chrome_json()),
        Err(Refusal::Empty) => return,
        Err(Refusal::Method) => {
            let body = "method not allowed\n";
            return respond(&mut stream, "405 Method Not Allowed", "text/plain", body);
        }
        Err(Refusal::NotFound) => {
            return respond(&mut stream, "404 Not Found", "text/plain", "not found\n")
        }
    };
    respond(&mut stream, "200 OK", content_type, &body);
}

/// Binds `addr` and serves the exposition endpoint on a background
/// thread until the returned handle is stopped or dropped.
pub fn serve(addr: impl ToSocketAddrs) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("tirm-metrics-http".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                // Scrapes are serialized on the acceptor thread:
                // exposition is rare (seconds apart) and cheap, and a
                // single thread keeps the endpoint's footprint on the
                // instrumented process minimal.
                if let Ok(stream) = stream {
                    handle(stream);
                }
            }
        })?;
    Ok(MetricsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// Blocking one-shot HTTP GET against an exposition endpoint, returning
/// the response body. Shared by tests, the suite probe, and the soak
/// binaries' scrapes (none of which want a real HTTP client dep).
pub fn fetch(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body separator"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(io::Error::other(format!("non-200 response: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_prometheus_and_json_then_stops() {
        let mut server = serve("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let timeout = Duration::from_secs(5);
        crate::registry::SERVER_ACCEPTED.inc();

        let text = fetch(addr, "/metrics", timeout).expect("scrape /metrics");
        let samples = prom::parse(&text).expect("exposition parses");
        assert!(prom::sample_value(&samples, "tirm_server_accepted_total").unwrap() >= 1.0);

        let json = fetch(addr, "/metrics.json", timeout).expect("scrape /metrics.json");
        assert!(json.starts_with("{\"counters\":{"));

        crate::flight::record_since(
            9_200_001,
            crate::flight::Stage::Apply,
            crate::flight::now_ns(),
        );
        let trace = fetch(addr, "/trace.json", timeout).expect("scrape /trace.json");
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"cat\":\"lineage\""));

        assert!(fetch(addr, "/nope", timeout).is_err());
        server.stop();
        // Port is released once stopped.
        assert!(TcpListener::bind(addr).is_ok());
    }

    /// A peer that trickles its request head one byte at a time holds
    /// the one acceptor thread until the head deadline, not for as long
    /// as it keeps trickling: a scrape that arrives behind it is served
    /// within a few seconds.
    #[test]
    fn a_trickling_peer_does_not_hold_the_endpoint() {
        let mut server = serve("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        // 20 bytes 400 ms apart: 8 s, unless the server hangs up first.
        let trickler = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            for &b in b"GET /slow HTTP/1.0\r\nX-Slow: x".iter().take(20) {
                if s.write_all(&[b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(400));
            }
        });
        // Let the acceptor take the trickling peer first.
        std::thread::sleep(Duration::from_millis(300));
        let start = Instant::now();
        let text = fetch(addr, "/metrics", Duration::from_secs(10)).expect("scrape /metrics");
        let waited = start.elapsed();
        assert!(prom::parse(&text).is_ok());
        assert!(
            waited < REQUEST_HEAD_DEADLINE + Duration::from_secs(2),
            "scrape waited {waited:?} behind a trickling peer"
        );
        trickler.join().unwrap();
        server.stop();
    }

    #[test]
    fn request_lines_route() {
        for (head, want) in [
            (&b"GET /metrics HTTP/1.0\r\n\r\n"[..], Ok(Route::Metrics)),
            (
                b"GET /metrics.json HTTP/1.1\r\nHost: x\r\n\r\n",
                Ok(Route::MetricsJson),
            ),
            (b"GET /trace.json", Ok(Route::Trace)),
            (b"  GET\t/metrics  ", Ok(Route::Metrics)),
            (b"GET /metrics\xff HTTP/1.0\r\n", Err(Refusal::NotFound)),
            (b"GET /nope HTTP/1.0\r\n", Err(Refusal::NotFound)),
            (b"GET", Err(Refusal::NotFound)),
            (b"POST /metrics HTTP/1.0\r\n", Err(Refusal::Method)),
            (b"get /metrics", Err(Refusal::Method)),
            (b" ", Err(Refusal::Method)),
            (b"\r\nGET /metrics", Err(Refusal::Empty)),
            (b"", Err(Refusal::Empty)),
        ] {
            assert_eq!(route(head), want, "{:?}", String::from_utf8_lossy(head));
        }
    }

    /// Up to `max` arbitrary bytes.
    fn bytes(max: usize) -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..=255, 0..max)
    }

    /// A request line from parts that each may or may not be the real
    /// thing, then anything, and the route it must get.
    fn request_head() -> impl proptest::strategy::Strategy<Value = (Vec<u8>, Option<Route>)> {
        use proptest::strategy::Strategy;
        let method = (0usize..5, bytes(6)).prop_map(|(k, any)| match k {
            0 | 1 => b"GET".to_vec(),
            2 => b"PUT".to_vec(),
            3 => b"G\xffT".to_vec(),
            _ => any,
        });
        let path = (0usize..6, bytes(12)).prop_map(|(k, any)| match k {
            0 => (b"/metrics".to_vec(), Some(Route::Metrics)),
            1 => (b"/metrics.json".to_vec(), Some(Route::MetricsJson)),
            2 => (b"/trace.json".to_vec(), Some(Route::Trace)),
            3 => (b"/metrics.jsonx".to_vec(), None),
            4 => (b"/\xc3\x28".to_vec(), None),
            _ => (any, None),
        });
        // The gap after the method, the one after the path, and whether
        // the head runs past the read cap.
        let layout = (0usize..3, 0usize..3, 0usize..2);
        ((method, path), layout, bytes(64)).prop_map(
            |((method, (path, route)), (lead, sep, pad), rest)| {
                let gaps: [&[u8]; 3] = [b" ", b"\t ", b""];
                let mut head = method.clone();
                head.extend_from_slice(gaps[lead]);
                head.extend_from_slice(&path);
                head.extend_from_slice(gaps[sep]);
                head.extend_from_slice(b"\r\n");
                head.extend(rest);
                head.resize(head.len() + pad * (REQUEST_HEAD_CAP + 100), b'a');
                // Routed only as a GET, a gap and the path.
                let clean = method == b"GET" && !gaps[lead].is_empty();
                (head, route.filter(|_| clean))
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Any bytes at all, an 8 kB+ head or no `\r` in it: no panic,
        /// and a route only for a `GET` of one of the three paths.
        #[test]
        fn arbitrary_heads_never_panic_and_route_only_the_three_gets(
            bytes in bytes(9000),
        ) {
            if let Ok(r) = route(&bytes) {
                let line = bytes.split(|&b| b == b'\r').next().unwrap();
                let line = String::from_utf8_lossy(line);
                let words: Vec<&str> = line.split_whitespace().take(2).collect();
                let path = match r {
                    Route::Metrics => "/metrics",
                    Route::MetricsJson => "/metrics.json",
                    Route::Trace => "/trace.json",
                };
                proptest::prop_assert_eq!(words, ["GET", path]);
            }
        }

        #[test]
        fn request_lines_route_exactly_the_three_gets((head, want) in request_head()) {
            let got = route(&head);
            match want {
                Some(r) => proptest::prop_assert_eq!(got, Ok(r)),
                None => proptest::prop_assert!(got.is_err(), "{:?} routed", String::from_utf8_lossy(&head)),
            }
        }
    }

    /// The satellite fix behind `write_fully`: a reader draining a large
    /// response in dribs through a socket forced into nonblocking mode
    /// (the historical failure: accepted streams inheriting the
    /// listener's nonblocking flag) still receives every byte.
    #[test]
    fn write_fully_rides_out_a_slow_nonblocking_reader() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut total = 0usize;
            let mut chunk = [0u8; 4096];
            loop {
                std::thread::sleep(Duration::from_millis(1));
                match s.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => total += n,
                    Err(_) => break,
                }
            }
            total
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nonblocking(true).expect("nonblocking");
        // Big enough to overrun any kernel send buffer, so the writer
        // must hit WouldBlock and wait for the slow reader.
        let body = vec![b'x'; 2 << 20];
        write_fully(&mut stream, &body, Instant::now() + Duration::from_secs(30))
            .expect("full body written despite slow reader");
        drop(stream);
        assert_eq!(reader.join().unwrap(), body.len());
    }
}
