//! The cost ladder of the traced run: one seeded key stream replayed
//! through each layer's public entry point in turn — codec check,
//! `TwoDArray` word, `ConcurrentBankedCache` op, `execute_frames`, and a
//! loopback request — plus a bare loopback echo of the same frames, so
//! the rungs' costs can be set against the request's round trip.

use crate::hist::LogHist;
use crate::measure::median;
use crate::stream::{Op, BANKS};
use crate::trace::Spans;
use cachesim::net::protocol::{self, route_key, FrameRead, Request, Response, ResponseKind};
use cachesim::net::{BatchArena, CacheServer, ServerConfig};
use ecc::Bits;
use memarray::{ErrorShape, TwoDArray};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;
use twod_cache::{BatchOp, BatchOutcome, CacheConfig, ConcurrentBankedCache, TwoDScheme};

/// Data rows of one `l1_64kb` bank's data array.
const DATA_ROWS: usize = 2_048;
/// Passes over the stream for the in-process rungs; the median pass is
/// reported.
const PASSES: usize = 5;

#[derive(Debug, Default)]
pub struct Ladder {
    pub check_ns_per_word: f64,
    pub decode_dirty_ns: f64,
    pub read_word_ns: f64,
    pub write_word_ns: f64,
    /// Median recovery time in µs of a bit, an 8x8 and a 32x32 error.
    pub recover_us: [f64; 3],
    pub cache_op_ns: f64,
    pub exec_ns_per_req: f64,
    /// Round trips of the loopback rung (one per request or batch).
    pub rtt: LogHist,
    pub rtt_ns_per_req: f64,
    pub encode_ns_per_req: f64,
    pub decode_ns_per_req: f64,
    pub echo_ns_per_req: f64,
    /// Reads that disagreed with the model on the cache, frame or
    /// loopback rungs.
    pub wrong: u64,
    /// The served cache the rungs ran on, for layers the workload's own
    /// loop does not reach.
    pub cache: Option<Arc<ConcurrentBankedCache>>,
    pub server: Option<CacheServer>,
}

impl Ladder {
    pub fn transport_ns_per_req(&self) -> f64 {
        self.rtt_ns_per_req - self.exec_ns_per_req - self.encode_ns_per_req - self.decode_ns_per_req
    }

    /// Share of the round trip the measured rungs (encode, execute,
    /// decode, and the bare echo) do not cover.
    pub fn unattributed_share(&self) -> f64 {
        (self.transport_ns_per_req() - self.echo_ns_per_req) / self.rtt_ns_per_req
    }
}

/// Salts a written value per rung so a replayed SET never finds its own
/// value already stored (which the engine would suppress as silent).
fn salted(value: u64, rung: u64) -> u64 {
    value ^ rung.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The `(row, word)` a key index occupies in the standalone word rung.
fn word_slot(key: u32, words_per_row: usize) -> (usize, usize) {
    let w = key as usize % (DATA_ROWS * words_per_row);
    (w / words_per_row, w % words_per_row)
}

fn time_passes(mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Runs the ladder over `ops` (the workload's stream) at pipeline
/// `depth`, against a cache prefilled with `keys` = `values`.
pub fn run(keys: &[u64], values: &[u64], ops: &[Op], depth: usize, spans: &mut Spans) -> Ladder {
    let mut lad = Ladder::default();
    let n = ops.len() as f64;
    let mut model = values.to_vec();
    let data_cfg = TwoDScheme::l1_paper().bank_config(DATA_ROWS);

    // Rung 1: the horizontal codec of the cache's data array.
    let codec = data_cfg.horizontal.build_shared(data_cfg.data_bits);
    let words: Vec<(Bits, Bits, Bits)> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let data = Bits::from_u64(values[op.key as usize], 64);
            let check = codec.encode(&data);
            let mut dirty = data.clone();
            dirty.flip(i % 64);
            (data, check, dirty)
        })
        .collect();
    let t0 = Instant::now();
    let ns = time_passes(|| {
        for (data, check, _) in &words {
            std::hint::black_box(codec.check_clean(data, check));
        }
    });
    spans.record(1, "ladder.ecc.check", None, t0, Instant::now());
    lad.check_ns_per_word = ns / n;
    let t0 = Instant::now();
    let ns = time_passes(|| {
        for (_, check, dirty) in &words {
            std::hint::black_box(codec.decode(dirty, check));
        }
    });
    spans.record(1, "ladder.ecc.decode_dirty", None, t0, Instant::now());
    lad.decode_dirty_ns = ns / n;

    // Rung 2: TwoDArray u64 word lanes, the calls the cache's hot path makes.
    let mut bank = TwoDArray::new(data_cfg);
    let wpr = bank.words_per_row();
    for (i, &v) in values.iter().enumerate() {
        let (row, word) = word_slot(i as u32, wpr);
        let _ = bank.try_write_word_u64(row, word, 0, v, 64);
    }
    let reads: Vec<(usize, usize)> = ops
        .iter()
        .filter(|op| !op.write)
        .map(|op| word_slot(op.key, wpr))
        .collect();
    let writes: Vec<(usize, usize, u64)> = ops
        .iter()
        .filter(|op| op.write)
        .map(|op| {
            let (r, w) = word_slot(op.key, wpr);
            (r, w, op.value)
        })
        .collect();
    let t0 = Instant::now();
    let ns = time_passes(|| {
        for &(row, word) in &reads {
            std::hint::black_box(bank.try_read_word_u64(row, word, 0, 64));
        }
    });
    spans.record(2, "ladder.memarray.read_word", None, t0, Instant::now());
    lad.read_word_ns = ns / reads.len().max(1) as f64;
    let mut pass = 0u64;
    let t0 = Instant::now();
    let ns = time_passes(|| {
        pass += 1;
        for &(row, word, v) in &writes {
            std::hint::black_box(bank.try_write_word_u64(row, word, 0, salted(v, pass), 64));
        }
    });
    spans.record(2, "ladder.memarray.write_word", None, t0, Instant::now());
    lad.write_word_ns = ns / writes.len().max(1) as f64;
    lad.recover_us = recover_times(data_cfg);

    // Rung 3: the banked cache, in process.
    let cache = Arc::new(ConcurrentBankedCache::new(CacheConfig::l1_64kb(), BANKS));
    for (&k, &v) in keys.iter().zip(values) {
        cache.write(route_key(k), v).expect("ladder prefill");
    }
    let addrs: Vec<u64> = keys.iter().map(|&k| route_key(k)).collect();
    let mut batch = Vec::with_capacity(depth);
    let mut outcomes = Vec::with_capacity(depth);
    let t0 = Instant::now();
    for chunk in ops.chunks(depth) {
        if let [op] = chunk {
            let addr = addrs[op.key as usize];
            let v = salted(op.value, 3);
            if op.write {
                cache.write(addr, v).expect("ladder cache write");
                model[op.key as usize] = v;
            } else if cache.read(addr) != Ok(model[op.key as usize]) {
                lad.wrong += 1;
            }
            continue;
        }
        batch.clear();
        batch.extend(chunk.iter().map(|op| {
            let addr = addrs[op.key as usize];
            if op.write {
                BatchOp::Write(addr, salted(op.value, 3))
            } else {
                BatchOp::Read(addr)
            }
        }));
        cache.execute_batch(&batch, &mut outcomes);
        for (op, out) in chunk.iter().zip(&outcomes) {
            match (op.write, out) {
                (true, BatchOutcome::Written) => model[op.key as usize] = salted(op.value, 3),
                (false, BatchOutcome::Value(v)) if *v == model[op.key as usize] => {}
                _ => lad.wrong += 1,
            }
        }
    }
    let t1 = Instant::now();
    spans.record(3, "ladder.cache.op", None, t0, t1);
    lad.cache_op_ns = (t1 - t0).as_nanos() as f64 / n;

    // Rung 4: the server's frame executor, no socket.
    let server = CacheServer::spawn(
        Arc::clone(&cache),
        None,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind a loopback port");
    let mut frames = Vec::new();
    let mut out = Vec::new();
    let mut arena = BatchArena::new();
    let mut reqs: Vec<Request> = Vec::with_capacity(depth);
    let mut exec_ns = 0u128;
    for (c, chunk) in ops.chunks(depth).enumerate() {
        fill_requests(&mut reqs, chunk, keys, 4);
        frames.clear();
        for (j, r) in reqs.iter().enumerate() {
            protocol::encode_request(j as u32, r, &mut frames);
        }
        out.clear();
        let t0 = Instant::now();
        server
            .execute_frames(&frames, &mut out, &mut arena)
            .expect("well-formed frames");
        let t1 = Instant::now();
        exec_ns += (t1 - t0).as_nanos();
        spans.record(c as u64, "ladder.exec_frames", None, t0, t1);
        let mut rest = &out[..];
        for (op, r) in chunk.iter().zip(&reqs) {
            let len = u32::from_le_bytes(rest[..4].try_into().expect("length prefix")) as usize;
            let (_, resp) = protocol::decode_response(&rest[4..4 + len], ResponseKind::of(r))
                .expect("well-formed response");
            rest = &rest[4 + len..];
            lad.wrong += u64::from(!apply(op, &resp, &mut model, 4));
        }
    }
    lad.exec_ns_per_req = exec_ns as f64 / n;

    // Rung 5: the same requests over a loopback connection, with the
    // client's encode and decode timed as child spans.
    let stream = TcpStream::connect(server.local_addr()).expect("connect to the ladder server");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = BufWriter::new(stream);
    let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); depth];
    let (mut enc_ns, mut dec_ns, mut rtt_ns) = (0u128, 0u128, 0u128);
    for (c, chunk) in ops.chunks(depth).enumerate() {
        fill_requests(&mut reqs, chunk, keys, 5);
        let t0 = Instant::now();
        frames.clear();
        for (j, r) in reqs.iter().enumerate() {
            protocol::encode_request(j as u32, r, &mut frames);
        }
        let t1 = Instant::now();
        round_trip(
            &mut writer,
            &mut reader,
            &frames,
            &mut payloads[..chunk.len()],
        );
        let t2 = Instant::now();
        let mut ok = 0;
        for ((op, r), p) in chunk.iter().zip(&reqs).zip(&payloads) {
            let (_, resp) = protocol::decode_response(p, ResponseKind::of(r)).expect("response");
            ok += u64::from(apply(op, &resp, &mut model, 5));
        }
        let t3 = Instant::now();
        lad.wrong += chunk.len() as u64 - ok;
        let id = c as u64;
        spans.record(id, "net.request", None, t0, t3);
        spans.record(id, "net.encode", Some("net.request"), t0, t1);
        spans.record(id, "net.wait", Some("net.request"), t1, t2);
        spans.record(id, "net.decode", Some("net.request"), t2, t3);
        enc_ns += (t1 - t0).as_nanos();
        dec_ns += (t3 - t2).as_nanos();
        rtt_ns += (t3 - t0).as_nanos();
        lad.rtt.record((t3 - t0).as_nanos() as u64);
    }
    drop((reader, writer));
    lad.encode_ns_per_req = enc_ns as f64 / n;
    lad.decode_ns_per_req = dec_ns as f64 / n;
    lad.rtt_ns_per_req = rtt_ns as f64 / n;

    // Rung 6: a bare echo of the same frames, answered with responses of
    // the real sizes: the loopback transport and wake-ups alone.
    lad.echo_ns_per_req = echo_ns(ops, keys, depth, spans) / n;
    lad.cache = Some(cache);
    lad.server = Some(server);
    lad
}

fn fill_requests(reqs: &mut Vec<Request>, chunk: &[Op], keys: &[u64], rung: u64) {
    reqs.clear();
    reqs.extend(chunk.iter().map(|op| {
        let key = keys[op.key as usize];
        if op.write {
            Request::Set {
                key,
                value: salted(op.value, rung),
            }
        } else {
            Request::Get { key }
        }
    }));
}

/// Checks a rung's answer against the model and applies it; `false` on
/// a wrong or refused answer.
fn apply(op: &Op, resp: &Response, model: &mut [u64], rung: u64) -> bool {
    match (op.write, resp) {
        (true, Response::Ok) => {
            model[op.key as usize] = salted(op.value, rung);
            true
        }
        (false, Response::Value(v)) => *v == model[op.key as usize],
        _ => false,
    }
}

/// Writes `frames` and reads one response payload per slot.
fn round_trip(
    writer: &mut BufWriter<TcpStream>,
    reader: &mut BufReader<TcpStream>,
    frames: &[u8],
    payloads: &mut [Vec<u8>],
) {
    protocol::write_all(writer, frames).expect("send frames");
    writer.flush().expect("flush frames");
    for p in payloads.iter_mut() {
        loop {
            match protocol::read_frame(reader, p).expect("read response") {
                FrameRead::Frame => break,
                FrameRead::Idle => continue,
                FrameRead::Eof => panic!("server closed the ladder connection"),
            }
        }
    }
}

fn echo_ns(ops: &[Op], keys: &[u64], depth: usize, spans: &mut Spans) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo port");
    let addr = listener.local_addr().expect("echo address");
    let echo = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept echo client");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut writer = BufWriter::new(stream);
        let (mut payload, mut out) = (Vec::new(), Vec::new());
        while let Ok(FrameRead::Frame) = protocol::read_frame(&mut reader, &mut payload) {
            let id = u32::from_le_bytes(payload[1..5].try_into().expect("request id"));
            let resp = if payload[0] == protocol::opcode::GET {
                Response::Value(0)
            } else {
                Response::Ok
            };
            out.clear();
            protocol::encode_response(id, &resp, &mut out);
            writer.write_all(&out).expect("echo write");
            if reader.buffer().is_empty() {
                writer.flush().expect("echo flush");
            }
        }
    });
    let stream = TcpStream::connect(addr).expect("connect to echo");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = BufWriter::new(stream);
    let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); depth];
    let (mut frames, mut reqs) = (Vec::new(), Vec::new());
    let mut total = 0u128;
    for (c, chunk) in ops.chunks(depth).enumerate() {
        fill_requests(&mut reqs, chunk, keys, 6);
        frames.clear();
        for (j, r) in reqs.iter().enumerate() {
            protocol::encode_request(j as u32, r, &mut frames);
        }
        let t0 = Instant::now();
        round_trip(
            &mut writer,
            &mut reader,
            &frames,
            &mut payloads[..chunk.len()],
        );
        let t1 = Instant::now();
        spans.record(c as u64, "ladder.echo", None, t0, t1);
        total += (t1 - t0).as_nanos();
    }
    drop((reader, writer));
    echo.join().expect("echo thread");
    total as f64
}

/// Median time of `recover()` after injecting a bit, an 8x8 and a 32x32
/// error into a filled bank.
fn recover_times(cfg: memarray::TwoDConfig) -> [f64; 3] {
    let mut bank = TwoDArray::new(cfg);
    let wpr = bank.words_per_row();
    for row in 0..DATA_ROWS {
        for word in 0..wpr {
            let v = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ word as u64;
            let _ = bank.try_write_word_u64(row, word, 0, v, 64);
        }
    }
    let sizes = [1usize, 8, 32];
    sizes.map(|size| {
        let times: Vec<f64> = (0..PASSES)
            .map(|rep| {
                let shape = ErrorShape::Cluster {
                    row: 100 + rep * 300,
                    col: 7 + rep * 11,
                    height: size,
                    width: size,
                };
                bank.inject(shape);
                let t0 = Instant::now();
                let report = bank.recover();
                let us = t0.elapsed().as_nanos() as f64 / 1e3;
                assert!(report.is_ok(), "a {size}x{size} error must be recoverable");
                us
            })
            .collect();
        median(&times)
    })
}

/// One full scrub sweep of every bank in `SCRUB_ROWS`-row slices:
/// `(slice times in ns, rows scanned, dirty rows found)`.
pub fn scrub_sweep(cache: &ConcurrentBankedCache) -> (LogHist, u64, u64) {
    let mut slices = LogHist::new();
    let (mut rows, mut errors) = (0u64, 0u64);
    for bank in 0..cache.banks() {
        for _ in 0..DATA_ROWS.div_ceil(crate::fault::SCRUB_ROWS) {
            let t0 = Instant::now();
            let slice = cache
                .scrub_bank_step(bank, crate::fault::SCRUB_ROWS)
                .expect("a fault-free cache scrubs clean");
            slices.record(t0.elapsed().as_nanos() as u64);
            rows += slice.rows_scanned as u64;
            errors += slice.dirty_rows as u64;
        }
    }
    (slices, rows, errors)
}
