//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload interactive|mix-shared|voicemail --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the shipped server in-process five times. Each time it sets the
//! workload up, runs the engine window (manual-tick workloads) and a
//! seeded open-loop user window, and checks the outputs. It then bisects
//! the sessions one server sustains at 10% of a CPU, and prints one JSON
//! line last: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Any failed check exits non-zero. See
//! `perfbench/DESIGN.md` for the design.

mod capacity;
mod checks;
mod cpu;
mod layers;
mod sched;
mod spans;
mod stats;
mod window;
mod world;

use da_proto::reply::TraceStage;
use stats::{median, percentile};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;
use world::{Workload, World};

/// Set-ups (server populations) per run; `setup_s` is their mean.
const SETUPS: usize = 5;
/// A run whose generator issued its actions more than two quanta late at
/// p95 fell behind its schedule: it is invalid, not reported.
const LATE_LIMIT_US: f64 = 20_000.0;
/// Least run that yields a hundred session opens (p90).
const MIN_SECONDS: u64 = 10;
/// Longest run the sounds outlast (voicemail's 40 s messages play
/// through an engine window and a fifth of the run).
const MAX_SECONDS: u64 = 60;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(MIN_SECONDS..=MAX_SECONDS).contains(&seconds) {
        return Err(format!(
            "--seconds must lie between {MIN_SECONDS} and {MAX_SECONDS}"
        ));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let code = match parse_args() {
        Ok(args) => run(&args).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            1
        }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn delta(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn run(a: &Args) -> Result<i32, String> {
    let epoch = Instant::now();
    let wl = a.workload;
    let mut t = spans::Tracer::new(a.trace, epoch);
    let payloads = std::rc::Rc::new(world::background_payloads(wl, a.seed));

    // Every set-up is a fresh population on a fresh server, and each runs
    // both windows: how a population's per-session state lands in memory
    // moves the engine's costs by up to a quarter, so CPU is averaged and
    // tick times are the median over the five populations, and latencies
    // are pooled over all five.
    let window_ms = a.seconds * 1000 / SETUPS as u64;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engines = Vec::with_capacity(SETUPS);
    let mut lat = world::Latencies::default();
    let mut tally = stats::Tally::default();
    let mut kept = None;
    for r in 0..SETUPS {
        let last = r + 1 == SETUPS;
        let (mut w, s) = World::setup(wl, a.seed, &payloads, a.trace && last, &mut t)?;
        setups.push(s);
        // The caller keys digits at a fixed cadence over both windows.
        let audio_s = (wl.engine_ticks() * 10 + window_ms) as f64 / 1000.0;
        let dtmf_sent = match w.call {
            Some(party) => {
                let digits = sched::dtmf_digits(a.seed, ((audio_s - 1.0) / 0.16) as usize);
                w.control.with_party(party, |p, _| p.send_dtmf(&digits));
                digits
            }
            None => String::new(),
        };
        let (engine, capture, user) = if wl.manual() {
            let engine = window::engine_window(&mut w, wl.engine_ticks(), &mut t, epoch);
            let capture = w.control.take_captured(0);
            // The user window sees the server the engine window leaves,
            // with the background unmapped: 400 mapped roots make every
            // session open and close rebuild the route plan for 5 ms, and
            // sixteen cache-missing sessions hold the engine lock for half
            // of real time. Beside either, the user's latencies measured
            // that queue and moved by half between runs.
            w.unmap_background(&mut t)
                .map_err(|e| format!("unmapping the background: {e}"))?;
            let user = window::user_window(&mut w, r as u64, window_ms, &mut t, epoch);
            (engine, capture, user)
        } else {
            let user = window::user_window(&mut w, r as u64, window_ms, &mut t, epoch);
            (user.m.clone(), w.control.take_captured(0), user)
        };
        println!(
            "population {r}: set-up {s:.4} s; engine {} ticks in {:.3} s, {:.2} ms CPU per audio-second; \
             user window {:.3} s, {} plays, {} opens, {} events",
            engine.ticks,
            engine.seconds,
            engine.cpu_ms_per_audio_s().unwrap_or(f64::NAN),
            user.m.seconds,
            user.plays,
            user.opens,
            user.m.events
        );
        let first = if wl.manual() {
            &engine.before
        } else {
            &user.m.before
        };
        let ck = checks::run(
            &mut w,
            &user,
            (first, &user.m.after),
            &capture,
            &dtmf_sent,
            &mut t,
        );
        engines.push(engine);
        if last {
            kept = Some((w, user, ck));
        } else {
            lat.absorb(std::mem::take(&mut w.lat));
            tally.add(w.tally.attempted, w.tally.failed);
            w.shutdown();
        }
    }
    let (mut w, user, ck) = kept.expect("at least one set-up");
    let engine = engines.last().expect("one per set-up").clone();
    // The mean, not the median: under the real-time engine the last
    // PlayStarted waits for the next tick, so one set-up reads whole
    // ticks apart from the next and a median of five flips between them.
    let setup_s = stats::mean(&setups);
    lat.absorb(w.lat.clone());
    tally.add(w.tally.attempted, w.tally.failed);
    let late_p50 = percentile(&lat.lateness_us, 0.5)?;
    let late_p95 = percentile(&lat.lateness_us, 0.95)?;
    println!(
        "generator lateness: p50 {late_p50:.1} us, p95 {late_p95:.1} us over {} actions",
        lat.lateness_us.len()
    );
    if late_p95 > LATE_LIMIT_US {
        eprintln!("perfbench: invalid run: the generator fell behind its schedule (p95 lateness {late_p95:.0} us)");
        return Ok(3);
    }
    let cpus: Option<Vec<f64>> = engines
        .iter()
        .map(window::Measured::cpu_ms_per_audio_s)
        .collect();
    let cpu_ms_per_audio_s = stats::mean(&cpus.ok_or("thread CPU (schedstat) unavailable")?);
    let tick_p90s: Result<Vec<f64>, String> = engines
        .iter()
        .map(|e| percentile(&e.tick_wall_us, 0.90))
        .collect();
    let tick_p90_us = median(&tick_p90s?);

    let mut report = String::new();
    let layers = if a.trace {
        Some(per_layer(&mut w, &engine, &user, &ck, &mut t, &mut report)?)
    } else {
        None
    };
    w.shutdown();

    let cap = capacity::search(wl, a.seed, &mut t)?;
    for (k, c) in &cap.probes {
        let _ = writeln!(
            report,
            "capacity probe: {k} sessions -> {c:.2} ms CPU per audio-second"
        );
    }
    let e2e = vec![
        m("setup_s", setup_s, "s"),
        m(
            "play_start_p50_ms",
            percentile(&lat.play_start_ms, 0.5)?,
            "ms",
        ),
        m(
            "play_start_p90_ms",
            percentile(&lat.play_start_ms, 0.90)?,
            "ms",
        ),
        m(
            "session_open_p50_ms",
            percentile(&lat.session_open_ms, 0.5)?,
            "ms",
        ),
        m(
            "session_open_p90_ms",
            percentile(&lat.session_open_ms, 0.90)?,
            "ms",
        ),
        m(
            "request_rtt_p50_us",
            percentile(&lat.request_rtt_us, 0.5)?,
            "us",
        ),
        m("cpu_ms_per_audio_s", cpu_ms_per_audio_s, "ms/s"),
        m("tick_p90_us", tick_p90_us, "us"),
        m("sessions_at_10pct_cpu", cap.sessions, "count"),
    ];
    let metrics = match layers {
        Some(layers) => {
            for x in &e2e {
                println!("  {:<40} {:>16.4} {} (end to end)", x.name, x.value, x.unit);
            }
            layers
                .into_iter()
                .chain([
                    m("gen.lateness_p50_us", late_p50, "us"),
                    m("gen.lateness_p95_us", late_p95, "us"),
                ])
                .collect()
        }
        None => e2e,
    };

    let tail = |p| percentile(&lat.request_rtt_us, p).unwrap_or(f64::NAN);
    let _ = writeln!(
        report,
        "request round trip tail (not gated): p90 {:.1} us, p95 {:.1} us",
        tail(0.90),
        tail(0.95)
    );
    print!("{report}");
    println!(
        "workload {} seed {} trace {}: {} plays, {} opens, {} control requests over {SETUPS} populations",
        wl.name(),
        a.seed,
        u8::from(a.trace),
        lat.play_start_ms.len(),
        lat.session_open_ms.len(),
        lat.request_rtt_us.len(),
    );
    println!(
        "operations: {} attempted, {} failed (share {:.4})",
        tally.attempted,
        tally.failed,
        tally.failed_share()
    );
    for x in &metrics {
        println!("  {:<40} {:>16.4} {}", x.name, x.value, x.unit);
    }
    let bad: Vec<&str> = metrics
        .iter()
        .filter(|x| !x.value.is_finite())
        .map(|x| x.name)
        .collect();
    if !bad.is_empty() {
        return Err(format!("metrics without a value: {}", bad.join(", ")));
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(if tally.failed == 0 { 0 } else { 1 })
}

/// The traced run's per-layer metrics, plus the span report and the
/// outside-vs-inside cross-checks appended to `report`. Engine, store and
/// DSP figures come from the engine window; wire, dispatch and plan
/// figures from the user window.
fn per_layer(
    w: &mut World,
    engine: &window::Measured,
    user: &window::UserOut,
    ck: &checks::Checked,
    t: &mut spans::Tracer,
    report: &mut String,
) -> Result<Vec<Metric>, String> {
    let (eb, ea) = (&engine.before, &engine.after);
    let (ub, ua) = (&user.m.before, &user.m.after);
    let ticks = engine.ticks as f64;
    let lat = &w.lat;

    // Requests of the foreground connection, and the part in the window.
    let log = w.clients[0].log.take().unwrap_or_default();
    let (i0, r0) = user.recorder_clock.expect("set when the window starts");
    let window_log: Vec<world::Logged> = log.iter().filter(|l| l.at >= i0).cloned().collect();
    let (enc_ns, dec_ns) = layers::codec_ns(&window_log, t);
    let (fast_us, slow_us) = layers::dispatch_us(&log, i0, t)?;
    let (intern_us, build_us) = layers::store_us(&w.payloads, t);

    // Flight-recorder stages; ingress measured from the client's send.
    let me = w.clients[0].conn.setup().client;
    let sent: HashMap<u32, Instant> = window_log.iter().map(|l| (l.seq, l.at)).collect();
    let mut ingress = Vec::new();
    for tr in user.traces.iter().filter(|tr| tr.client == me) {
        let (Some(at), Some(first)) = (sent.get(&tr.seq), tr.stages.first()) else {
            continue;
        };
        if first.stage == TraceStage::Ingress {
            let send_us = r0 as f64 + at.saturating_duration_since(i0).as_secs_f64() * 1e6;
            ingress.push(first.at_us as f64 - send_us);
        }
    }
    let stage = |s: TraceStage, queued: Option<bool>| -> Vec<f64> {
        user.traces
            .iter()
            .filter(|tr| {
                queued.is_none_or(|q| q == tr.stages.iter().any(|x| x.stage == TraceStage::Engine))
            })
            .filter_map(|tr| da_alib::stage_duration_us(tr, s))
            .map(|v| v as f64)
            .collect()
    };
    // Outbound after dispatch: replies, not the completion events of
    // queued commands (whose gap is the command's own playing time).
    let outbound = stage(TraceStage::Outbound, Some(false));
    let (drain, engine_wait) = (
        stage(TraceStage::Drain, None),
        stage(TraceStage::Engine, None),
    );

    // Span self times over the windows.
    let mut cover = Vec::new();
    if let Some(r) = user.root_span {
        cover.push(("user window, generator", spans::coverage(t.spans(), r)));
    }
    if let Some(r) = t.spans().iter().rposition(|s| s.name == "engine_window") {
        cover.push(("engine window, drain", spans::coverage(t.spans(), r)));
    }
    for (what, sp) in [
        ("engine window, ticker", &engine.ticker_spans),
        ("user window, pacer", &user.m.ticker_spans),
    ] {
        if !sp.is_empty() {
            cover.push((what, spans::coverage(sp, 0)));
        }
    }
    for (what, sp) in [
        ("main", t.spans()),
        ("engine-window ticker", &engine.ticker_spans[..]),
        ("pacer", &user.m.ticker_spans[..]),
    ] {
        if sp.is_empty() {
            continue;
        }
        let _ = writeln!(report, "span self time ({what} thread):");
        for (name, (ns, n)) in spans::self_time_by_name(sp) {
            let _ = writeln!(
                report,
                "  {name:<28} {:>12.3} ms {n:>8} spans",
                ns as f64 / 1e6
            );
        }
    }
    for (what, c) in &cover {
        let _ = writeln!(report, "span coverage of the {what}: {c:.4}");
    }
    write_spans(
        w.workload,
        w.seed,
        &[
            ("main", t.spans()),
            ("ticker", &engine.ticker_spans),
            ("pacer", &user.m.ticker_spans),
        ],
    );

    // Outside-vs-inside cross-checks, on the engine window.
    let tick_sum_ns: f64 = if w.workload.manual() {
        engine.tick_wall_us.iter().sum::<f64>() * 1e3
    } else {
        stats::mean(&engine.tick_wall_us) * 1e3 * ticks
    };
    let busy_ns = delta(eb.busy_ns, ea.busy_ns);
    let sessions = (w.bg.len() + usize::from(w.call.is_some())) as f64;
    // A foreground message fills exactly one quantum, so its player reads
    // a second, empty window before it sees the end of the sound.
    let fg_plays = if w.workload.manual() {
        0.0
    } else {
        (user.plays + user.opens) as f64
    };
    let windows_expected = ticks * sessions + 2.0 * fg_plays;
    let windows_served = delta(eb.hits, ea.hits) + delta(eb.misses, ea.misses);
    let xbusy = ratio(tick_sum_ns - busy_ns, busy_ns);
    let xmarks = ratio(
        ck.marks_received as f64 - ck.marks_expected as f64,
        ck.marks_expected as f64,
    );
    let xwin = ratio(windows_served - windows_expected, windows_expected);
    let _ = writeln!(
        report,
        "cross-check: tick wall {:.1} ms vs EngineStats.busy {:.1} ms ({:+.2}%); sync marks {} received vs {} expected; \
         transcode windows {} served vs {} expected ({:+.2}%)",
        tick_sum_ns / 1e6,
        busy_ns / 1e6,
        xbusy * 100.0,
        ck.marks_received,
        ck.marks_expected,
        windows_served,
        windows_expected,
        xwin * 100.0
    );

    let engine_cpu = engine.engine_cpu_ns.unwrap_or(0) as f64;
    let tick_wall = stats::mean(&engine.tick_wall_us);
    let tick_cpu = engine_cpu / 1e3 / ticks;
    Ok(vec![
        m("proto.encode_ns_per_frame", enc_ns, "ns"),
        m("proto.decode_ns_per_frame", dec_ns, "ns"),
        m(
            "proto.bytes_per_session_open",
            median(&lat.open_bytes),
            "bytes",
        ),
        m("alib.round_trip_us.query", median(&lat.query_rtt_us), "us"),
        m("alib.round_trip_us.sync", median(&lat.sync_rtt_us), "us"),
        m(
            "alib.round_trip_us.write_sound",
            median(&w.upload_rtt_us),
            "us",
        ),
        m("connplane.ingress_us", median(&ingress), "us"),
        m("connplane.outbound_us", median(&outbound), "us"),
        m("connplane.drain_us", median(&drain), "us"),
        m(
            "connplane.worker_cpu_ms_per_audio_s",
            engine.worker_cpu_ns.unwrap_or(0) as f64 / 1e6 / engine.audio_s(),
            "ms/s",
        ),
        m(
            "connplane.events_delivered_per_tick",
            engine.events as f64 / ticks,
            "count",
        ),
        m(
            "dispatch.fast_share",
            ratio(
                delta(ub.dispatch.1, ua.dispatch.1),
                delta(ub.dispatch.0, ua.dispatch.0),
            ),
            "ratio",
        ),
        m("dispatch.fast_us", fast_us, "us"),
        m("dispatch.slow_us", slow_us, "us"),
        m(
            "plan.rebuilds_per_session_open",
            ratio(delta(ub.plan_rebuilds, ua.plan_rebuilds), user.opens as f64),
            "ratio",
        ),
        m(
            "plan.build_us",
            ratio(
                delta(ub.plan_build_us.0, ua.plan_build_us.0),
                delta(ub.plan_build_us.1, ua.plan_build_us.1),
            ),
            "us",
        ),
        m("engine.tick_wall_us", tick_wall, "us"),
        m("engine.tick_cpu_us", tick_cpu, "us"),
        m("engine.tick_wait_us", tick_wall - tick_cpu, "us"),
        m(
            "engine.cpu_ns_per_session_tick",
            engine_cpu / ticks / sessions,
            "ns",
        ),
        m("engine.wait_for_tick_us", median(&engine_wait), "us"),
        m(
            "store.transcode_hit_ratio",
            ratio(delta(eb.hits, ea.hits), windows_served),
            "ratio",
        ),
        m("store.miss_build_us", build_us, "us"),
        m("store.intern_us", intern_us, "us"),
        m("store.dedupe_hits", delta(0, ua.dedupe), "count"),
        m(
            "dsp.convert_ns_per_tick",
            delta(eb.dsp_ns.0, ea.dsp_ns.0) / ticks,
            "ns",
        ),
        m(
            "dsp.mix_ns_per_tick",
            delta(eb.dsp_ns.1, ea.dsp_ns.1) / ticks,
            "ns",
        ),
        m(
            "dsp.resample_ns_per_tick",
            delta(eb.dsp_ns.2, ea.dsp_ns.2) / ticks,
            "ns",
        ),
        m(
            "hw.underrun_frames",
            delta(eb.underrun_frames, ua.underrun_frames),
            "count",
        ),
        m("hw.dtmf_detected_ratio", ck.dtmf_ratio, "ratio"),
        m("xcheck.tick_busy_gap", xbusy, "ratio"),
        m("xcheck.sync_marks_gap", xmarks, "ratio"),
        m("xcheck.store_windows_gap", xwin, "ratio"),
        m(
            "trace.window_coverage",
            cover.iter().map(|c| c.1).fold(1.0, f64::min),
            "ratio",
        ),
    ])
}

/// Writes the run's spans, one JSON line each, under `perfbench/out/`.
fn write_spans(wl: Workload, seed: u64, threads: &[(&str, &[spans::Span])]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", wl.name()));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (name, sp) in threads {
            spans::write_jsonl(&mut f, name, sp)?;
        }
        std::io::Write::flush(&mut f)
    };
    match write() {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing spans: {e}"),
    }
}
