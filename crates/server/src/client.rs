//! A small blocking client for the wire protocol — what the load
//! generator, the soak test and the equivalence harness speak.

use crate::protocol::{
    hex_decode, read_frame, write_frame, ClientOptions, Request, Response, Role, StatsView,
    PROTOCOL_VERSION,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use tirm_online::{AllocationSnapshot, OnlineEvent};

/// What the server announced in its `hello` response: the recovery
/// anchors a reconnecting client resumes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloInfo {
    /// The server's protocol version (equal to ours, or
    /// [`Client::connect_with`] would have failed typed).
    pub version: u32,
    /// Snapshot epoch at handshake time.
    pub epoch: u64,
    /// The server's durable frontier: admitted mutations logged and
    /// fsynced so far. A client replaying an event log resumes at the
    /// `wal_seq`-th mutation — everything before it survived.
    pub wal_seq: u64,
    /// Whether this endpoint admits mutations ([`Role::Leader`]) or
    /// redirects them ([`Role::Follower`]). v1 servers announce no
    /// role and decode as leaders.
    pub role: Role,
    /// The fencing epoch the server serves under (0 until a promotion
    /// ever happened in its state dir's lineage).
    pub fencing_epoch: u64,
}

/// One page of a checkpoint download
/// ([`Client::replicate_checkpoint`]), already decoded from the wire's
/// hex transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointChunk {
    /// The WAL frontier the checkpoint covers — its identity. A seq
    /// that changes between chunks means the leader rotated
    /// checkpoints mid-download; restart from offset 0.
    pub checkpoint_seq: u64,
    /// Byte offset of this chunk within the checkpoint file.
    pub offset: u64,
    /// Total checkpoint file size (download done when
    /// `offset + data.len() >= total_bytes`).
    pub total_bytes: u64,
    /// The raw checkpoint bytes of this chunk.
    pub data: Vec<u8>,
}

/// One connection to a `tirm_server`. Requests are strictly
/// request/response on the connection; open several clients for
/// concurrency.
pub struct Client {
    stream: TcpStream,
    hello: Option<HelloInfo>,
}

/// A protocol-level failure surfaced as `io::Error` with context.
fn protocol_err(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

impl Client {
    /// Connects (with `TCP_NODELAY` — frames are small and
    /// latency-sensitive) without a handshake — the bare pre-`hello`
    /// client. Use [`connect_with`](Self::connect_with) for version
    /// checking, reconnection, and the resume anchor.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            hello: None,
        })
    }

    /// Connects per `opts`: bounded reconnect attempts with capped
    /// exponential backoff (for a server that is restarting), then the
    /// optional `hello` handshake — version skew is a typed
    /// `InvalidData` error here, not a mid-stream decode failure later.
    pub fn connect_with(
        addr: impl ToSocketAddrs + Clone,
        opts: &ClientOptions,
    ) -> io::Result<Client> {
        let mut attempt = 0;
        loop {
            match Self::connect_once(addr.clone(), opts) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if attempt >= opts.reconnect_attempts {
                        return Err(e);
                    }
                    std::thread::sleep(opts.backoff(attempt));
                    attempt += 1;
                }
            }
        }
    }

    fn connect_once(addr: impl ToSocketAddrs, opts: &ClientOptions) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        if opts.nodelay {
            stream.set_nodelay(true)?;
        }
        let mut client = Client {
            stream,
            hello: None,
        };
        if opts.handshake {
            match client.request(&Request::Hello {
                version: PROTOCOL_VERSION,
            })? {
                Response::Hello {
                    version,
                    epoch,
                    wal_seq,
                    role,
                    fencing_epoch,
                } => {
                    if version != PROTOCOL_VERSION {
                        return Err(protocol_err(format!(
                            "protocol version skew: server speaks v{version}, \
                             this client speaks v{PROTOCOL_VERSION}"
                        )));
                    }
                    client.hello = Some(HelloInfo {
                        version,
                        epoch,
                        wal_seq,
                        role,
                        fencing_epoch,
                    });
                }
                other => return Err(protocol_err(format!("expected hello, got {other:?}"))),
            }
        }
        Ok(client)
    }

    /// The server's `hello` announcement (`None` when connected without
    /// a handshake).
    pub fn hello(&self) -> Option<&HelloInfo> {
        self.hello.as_ref()
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.send_raw_frame(req.encode().as_bytes())
    }

    /// Sends an arbitrary frame body and reads the typed response —
    /// how harnesses probe the server's handling of malformed requests.
    pub fn send_raw_frame(&mut self, body: &[u8]) -> io::Result<Response> {
        write_frame(&mut self.stream, body)?;
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| protocol_err("server closed the connection".to_string()))?;
        Response::decode(&frame).map_err(protocol_err)
    }

    /// Sends a mutating event (or routes `RegretQuery` to the read
    /// path), returning the raw admission/read response.
    pub fn send_event(&mut self, ev: &OnlineEvent) -> io::Result<Response> {
        let req = match ev {
            OnlineEvent::RegretQuery => Request::RegretQuery,
            other => Request::Mutate(other.clone()),
        };
        self.request(&req)
    }

    /// [`send_event`](Self::send_event) with bounded retry on
    /// [`Response::Overloaded`] — the deterministic-delivery mode replay
    /// harnesses use (every mutation eventually lands, so the server's
    /// final snapshot is a pure function of the log). Backs off by
    /// `backoff` between attempts; gives up after `deadline`.
    pub fn send_event_retrying(
        &mut self,
        ev: &OnlineEvent,
        backoff: Duration,
        deadline: Duration,
    ) -> io::Result<Response> {
        let t0 = Instant::now();
        loop {
            match self.send_event(ev)? {
                Response::Overloaded { .. } if t0.elapsed() < deadline => {
                    std::thread::sleep(backoff);
                }
                other => return Ok(other),
            }
        }
    }

    /// The full standing allocation from the latest snapshot.
    pub fn allocation(&mut self) -> io::Result<AllocationSnapshot> {
        match self.request(&Request::AllocationQuery)? {
            Response::Allocation(snap) => Ok(snap),
            other => Err(protocol_err(format!("expected allocation, got {other:?}"))),
        }
    }

    /// The regret estimate from the latest snapshot.
    pub fn regret(&mut self) -> io::Result<(u64, f64)> {
        match self.request(&Request::RegretQuery)? {
            Response::Regret {
                epoch,
                regret_estimate,
                ..
            } => Ok((epoch, regret_estimate)),
            other => Err(protocol_err(format!("expected regret, got {other:?}"))),
        }
    }

    /// Serving statistics.
    pub fn stats(&mut self) -> io::Result<StatsView> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(protocol_err(format!("expected stats, got {other:?}"))),
        }
    }

    /// The server's observability registry dump as a JSON string
    /// (counters, gauges, histograms, build identity). The dump is
    /// process-lifetime state — it survives snapshot publishes and
    /// follower promotion, unlike the per-run [`Self::stats`] counters.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { json } => Ok(json),
            other => Err(protocol_err(format!("expected metrics, got {other:?}"))),
        }
    }

    /// Fetches the server's flight-recorder lineage dump (Chrome
    /// trace-event JSON, same payload as HTTP `/trace.json`).
    pub fn trace_dump(&mut self) -> io::Result<String> {
        match self.request(&Request::TraceDump)? {
            Response::TraceDump { json } => Ok(json),
            other => Err(protocol_err(format!("expected trace dump, got {other:?}"))),
        }
    }

    /// One replication poll: asks the server for WAL frames starting
    /// at `from_seq`, blocking up to `wait_ms` at the server while
    /// there are none. The response is returned raw because three
    /// outcomes are all legitimate protocol — `ReplicateFrames` (a
    /// page, empty when the wait ran out caught up),
    /// `ReplicateBootstrap` (the anchor was pruned; download the
    /// checkpoint first), `NotLeader` (re-target the stream).
    pub fn replicate_poll(
        &mut self,
        from_seq: u64,
        max_frames: u64,
        wait_ms: u64,
    ) -> io::Result<Response> {
        self.request(&Request::ReplicatePoll {
            from_seq,
            max_frames,
            wait_ms,
        })
    }

    /// One page of a checkpoint download, decoded from the wire's hex
    /// transport. An `offset` at or past `total_bytes` yields an empty
    /// `data` — the downloader's loop terminator.
    pub fn replicate_checkpoint(
        &mut self,
        offset: u64,
        max_bytes: u64,
    ) -> io::Result<CheckpointChunk> {
        match self.request(&Request::ReplicateCheckpoint { offset, max_bytes })? {
            Response::ReplicateCheckpointChunk {
                checkpoint_seq,
                offset,
                total_bytes,
                data_hex,
            } => Ok(CheckpointChunk {
                checkpoint_seq,
                offset,
                total_bytes,
                data: hex_decode(&data_hex).map_err(protocol_err)?,
            }),
            other => Err(protocol_err(format!(
                "expected checkpoint chunk, got {other:?}"
            ))),
        }
    }

    /// Asks a follower to promote itself to leader, returning the
    /// fencing epoch it will serve under. A current leader answers
    /// `Rejected`, surfaced here as an error.
    pub fn promote(&mut self) -> io::Result<u64> {
        match self.request(&Request::Promote)? {
            Response::Promoting { fencing_epoch } => Ok(fencing_epoch),
            other => Err(protocol_err(format!("expected promoting, got {other:?}"))),
        }
    }

    /// Asks the server to begin graceful shutdown.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(protocol_err(format!(
                "expected shutting_down, got {other:?}"
            ))),
        }
    }
}
