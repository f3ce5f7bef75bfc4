//! The loopback TCP workloads: one `NetClient` connection, closed loop,
//! at pipeline depth 1 (`tcp_get_d1`) or 16 (`tcp_set_spill_d16`). The
//! connection owns every key, so the client's model predicts every GET.

use crate::measure::{Latency, OpLog, Tally, Windowed};
use crate::stream::{Op, OpStream, BANKS};
use crate::trace::Spans;
use cachesim::net::{CacheServer, NetClient, Request, Response, ServerConfig, ServerError};
use std::sync::Arc;
use std::time::Instant;
use twod_cache::{CacheConfig, ConcurrentBankedCache};

/// Total tries per request, the first send included. A shed request is
/// re-sent after the server's retry-after hint (the client's own
/// `get_retry`/`set_retry`/`pipeline_retry`); one still shed after the
/// budget counts as failed.
pub const RETRY_BUDGET: u32 = 8;

/// A served cache with one connected client. The client is declared
/// first so it disconnects before the server shuts down on drop.
pub struct TcpRig {
    pub client: NetClient,
    pub server: CacheServer,
    pub cache: Arc<ConcurrentBankedCache>,
}

/// Builds the cache and server, connects, and SETs every key once
/// (pipelined 16 deep), checking every answer.
pub fn build_rig(keys: &[u64], values: &[u64]) -> TcpRig {
    let cache = Arc::new(ConcurrentBankedCache::new(CacheConfig::l1_64kb(), BANKS));
    let server = CacheServer::spawn(
        Arc::clone(&cache),
        None,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind a loopback port");
    let mut client = NetClient::connect(server.local_addr()).expect("connect to the local server");
    let mut reqs = Vec::with_capacity(16);
    for (ks, vs) in keys.chunks(16).zip(values.chunks(16)) {
        reqs.clear();
        reqs.extend(
            ks.iter()
                .zip(vs)
                .map(|(&key, &value)| Request::Set { key, value }),
        );
        let resps = client
            .pipeline_retry(&reqs, RETRY_BUDGET)
            .expect("prefill transport");
        assert!(
            resps.iter().all(|r| *r == Response::Ok),
            "prefill SET refused: {resps:?}"
        );
    }
    TcpRig {
        client,
        server,
        cache,
    }
}

/// One round trip of `reqs` with shed-aware retries; the final answers
/// land in `out`, position-matched to `reqs`. The server sheds whole
/// banks per batch, so the requests for one key are shed or served
/// together and keep their relative order: checking the answers in
/// request order is checking them in execution order.
fn send(
    client: &mut NetClient,
    reqs: &[Request],
    out: &mut Vec<Response>,
) -> Result<(), ServerError> {
    let single = match *reqs {
        [Request::Get { key }] => client.get_retry(key, RETRY_BUDGET)?,
        [Request::Set { key, value }] => client.set_retry(key, value, RETRY_BUDGET)?,
        _ => {
            *out = client.pipeline_retry(reqs, RETRY_BUDGET)?;
            return Ok(());
        }
    };
    out.clear();
    out.push(single);
    Ok(())
}

/// Checks one answer against the model, then applies it.
pub fn check(op: &Op, resp: &Response, model: &mut [u64], tally: &mut Tally) {
    tally.attempted += 1;
    match (op.write, resp) {
        (false, Response::Value(v)) => {
            if *v != model[op.key as usize] {
                tally.wrong += 1;
            }
        }
        (true, Response::Ok) => model[op.key as usize] = op.value,
        (_, Response::Busy { .. } | Response::Degraded { .. }) => {
            tally.failed += 1;
            tally.still_shed += 1;
        }
        _ => tally.failed += 1,
    }
}

pub fn request_of(op: &Op, keys: &[u64]) -> Request {
    let key = keys[op.key as usize];
    if op.write {
        Request::Set {
            key,
            value: op.value,
        }
    } else {
        Request::Get { key }
    }
}

/// The closed-loop TCP client as a windowed workload.
pub struct TcpWork<'a> {
    pub rig: &'a mut TcpRig,
    pub keys: &'a [u64],
    pub model: Vec<u64>,
    pub stream: OpStream,
    pub depth: usize,
    pub window_ops: usize,
    pub log: OpLog,
    pub spans: Option<Spans>,
    /// A transport failure ends the run: the connection's state, and so
    /// the model, can no longer be trusted.
    pub fatal: Option<ServerError>,
    ops: Vec<Op>,
    reqs: Vec<Request>,
    resps: Vec<Response>,
    next_req: u64,
}

impl<'a> TcpWork<'a> {
    pub fn new(
        rig: &'a mut TcpRig,
        keys: &'a [u64],
        model: Vec<u64>,
        stream: OpStream,
        depth: usize,
        window_ops: usize,
    ) -> Self {
        TcpWork {
            rig,
            keys,
            model,
            stream,
            depth,
            window_ops,
            log: OpLog::default(),
            spans: None,
            fatal: None,
            ops: Vec::with_capacity(window_ops),
            reqs: Vec::with_capacity(depth),
            resps: Vec::with_capacity(depth),
            next_req: 0,
        }
    }
}

impl Windowed for TcpWork<'_> {
    fn spans(&mut self) -> &mut Option<Spans> {
        &mut self.spans
    }

    fn latency(&mut self) -> &mut Latency {
        &mut self.log.latency
    }

    fn prepare(&mut self, _w: usize) {
        self.stream.fill(&mut self.ops, self.window_ops);
    }

    fn run(&mut self, _w: usize) -> u64 {
        if self.fatal.is_some() {
            return 0;
        }
        let name = if self.depth == 1 {
            "tcp.request"
        } else {
            "tcp.batch"
        };
        let mut done = 0;
        for chunk in self.ops.chunks(self.depth) {
            self.reqs.clear();
            self.reqs
                .extend(chunk.iter().map(|op| request_of(op, self.keys)));
            let t0 = Instant::now();
            let sent = send(&mut self.rig.client, &self.reqs, &mut self.resps);
            let t1 = Instant::now();
            if let Err(e) = sent {
                self.log.tally.attempted += chunk.len() as u64;
                self.log.tally.failed += chunk.len() as u64;
                self.fatal = Some(e);
                return done;
            }
            self.log.latency.record((t1 - t0).as_nanos() as u64);
            if let Some(spans) = self.spans.as_mut() {
                spans.record(self.next_req, name, None, t0, t1);
            }
            self.next_req += 1;
            for (op, resp) in chunk.iter().zip(&self.resps) {
                check(op, resp, &mut self.model, &mut self.log.tally);
            }
            done += chunk.len() as u64;
        }
        done
    }
}
