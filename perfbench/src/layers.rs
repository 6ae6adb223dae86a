//! Offline re-timings of single layers for the traced run: the wire
//! codec on the run's own frames, fast and slow dispatch on the run's
//! own request stream, and the store on the run's own payloads.

use crate::spans::Tracer;
use crate::stats::median;
use crate::world::Logged;
use da_proto::codec::{Frame, FrameKind, WireRead, WireReader, WireWrite, WireWriter};
use da_proto::request::Request;
use da_proto::types::SoundType;
use da_server::{AudioServer, ServerConfig};
use std::hint::black_box;
use std::time::Instant;

/// Passes over the frames; the median pass is reported.
const CODEC_PASSES: usize = 5;

fn encode(seq: u32, req: &Request) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(seq);
    req.write(&mut w);
    Frame {
        kind: FrameKind::Request,
        payload: w.finish(),
    }
    .encode()
}

/// Mean encode and decode time per request frame, ns.
pub fn codec_ns(log: &[Logged], t: &mut Tracer) -> (f64, f64) {
    if log.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let frames: Vec<Vec<u8>> = log.iter().map(|l| encode(l.seq, &l.req)).collect();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..CODEC_PASSES {
        t.enter("proto.encode", 0);
        let t0 = Instant::now();
        for l in log {
            black_box(encode(black_box(l.seq), black_box(&l.req)));
        }
        enc.push(t0.elapsed().as_nanos() as f64 / log.len() as f64);
        t.exit();
        t.enter("proto.decode", 0);
        let t0 = Instant::now();
        for f in &frames {
            let mut buf = bytes::BytesMut::from(&f[..]);
            let frame = Frame::decode(&mut buf)
                .expect("own frame")
                .expect("complete frame");
            let mut r = WireReader::new(&frame.payload);
            let seq = r.u32().expect("seq");
            black_box((seq, Request::read(&mut r).expect("own request")));
        }
        dec.push(t0.elapsed().as_nanos() as f64 / frames.len() as f64);
        t.exit();
    }
    (median(&enc), median(&dec))
}

/// Dispatch times of the window's requests replayed in order on a fresh
/// manual-tick server: (fast-path µs, slow-path µs), medians. Requests
/// logged before `window_start` rebuild the state untimed; one tick runs
/// per quantum of the original send times.
pub fn dispatch_us(
    log: &[Logged],
    window_start: Instant,
    t: &mut Tracer,
) -> Result<(f64, f64), String> {
    let server = AudioServer::start(ServerConfig {
        manual_ticks: true,
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let control = server.control();
    // The first connection of a fresh server gets the same client id and
    // id range as the logged one did.
    let mut conn = da_alib::Connection::establish(server.connect_pipe(), "perfbench-replay")
        .map_err(|e| e.to_string())?;
    let client = conn.setup().client;
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    let mut last_tick = log.first().map(|l| l.at);
    for (i, l) in log.iter().enumerate() {
        let timed = l.at >= window_start;
        if let Some(lt) = last_tick {
            if l.at.saturating_duration_since(lt) >= crate::window::QUANTUM {
                control.tick_n(1);
                last_tick = Some(l.at);
            }
        }
        t.enter("dispatch.replay", u64::from(l.seq));
        let t0 = Instant::now();
        let on_fast = control.fast_dispatch(client, l.seq, &l.req);
        let fast_us = t0.elapsed().as_secs_f64() * 1e6;
        if !on_fast {
            let req = l.req.clone();
            let t0 = Instant::now();
            control.with_core(|c| da_server::dispatch::dispatch(c, client, l.seq, req));
            if timed {
                slow.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        } else if timed {
            fast.push(fast_us);
        }
        t.exit();
        if i % 32 == 31 {
            while conn.poll_event().map_err(|e| e.to_string())?.is_some() {}
        }
    }
    drop(conn);
    server.shutdown();
    Ok((median(&fast), median(&slow)))
}

/// Store costs on the run's payloads, on a store of their own: (intern
/// µs, cold decode-window build µs), means per payload.
pub fn store_us(payloads: &[(SoundType, Vec<u8>)], t: &mut Tracer) -> (f64, f64) {
    let registry = da_telemetry::Registry::new();
    let metrics = da_server::telem::ServerMetrics::new(&registry);
    let store = da_server::store::SoundStore::new(&metrics);
    let mut intern = Vec::new();
    let mut build = Vec::new();
    for (i, (stype, data)) in payloads.iter().enumerate() {
        let owned = data.clone();
        t.enter("store.intern_payload", i as u64);
        let t0 = Instant::now();
        let (arc, hash) = store.intern_payload(*stype, owned);
        intern.push(t0.elapsed().as_secs_f64() * 1e6);
        t.exit();
        let id = da_proto::ids::SoundId(i as u32 + 1);
        let mut snd = da_server::sound::Sound::new(id, da_proto::ids::ClientId(1), *stype);
        snd.data = arc.to_vec();
        snd.complete = true;
        snd.content_hash = Some(hash);
        let mut out = Vec::new();
        let mut ns = 0u64;
        t.run("store.decode_window", i as u64, || {
            store.decode_window(&snd, 0, 80, &mut out, &mut ns)
        });
        build.push(ns as f64 / 1e3);
    }
    (crate::stats::mean(&intern), crate::stats::mean(&build))
}
