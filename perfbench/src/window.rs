//! The timed windows.
//!
//! - The *engine window* (manual-tick workloads only) runs a fixed number
//!   of back-to-back `tick_n(1)` calls on a ticking thread while the wire
//!   is idle, so the server's CPU per audio-second and its tick times are
//!   the engine's alone.
//! - The *user window* (every workload) runs `--seconds` of real time: one
//!   generator thread issues the foreground user's open-loop schedule
//!   while the background sessions play; under manual ticks a pacer
//!   thread drives `tick_n(1)` on the quantum grid, under the engine
//!   thread the server paces itself.

use crate::cpu;
use crate::sched::{self, Action, CtrlOp, Planned};
use crate::spans::{Span, Tracer};
use crate::world::{Waiting, World};
use da_proto::reply::TraceData;
use da_proto::request::Request;
use da_server::ServerControl;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine quantum of the shipped configuration.
pub const QUANTUM: Duration = Duration::from_millis(10);
/// Ticks per block of the engine window.
const ENGINE_BLOCK: u64 = 100;
/// The engine window runs at most ten times faster than real time. Run
/// flat out, `mix-shared` emits some 26 000 events a second; a connection
/// worker then only has to lose the CPU for 10 ms for its 256-deep client
/// channel to overflow, and runs dropped events now and then.
const ENGINE_MIN_PERIOD: Duration = Duration::from_millis(1);
/// How long after the window a foreground `PlayStarted` may still come.
const GRACE: Duration = Duration::from_secs(1);
/// The generator never blocks longer than this, so the background
/// connection is drained and engine statistics are sampled in time.
const MAX_WAIT: Duration = Duration::from_millis(2);
/// Interval of the engine-statistics samples under the engine thread
/// (below the quantum, so every tick's duration is seen).
const STATS_EVERY: Duration = Duration::from_millis(3);
/// Interval of flight-recorder snapshots in a traced run (the ring keeps
/// the last 256 completed requests).
const TRACE_EVERY: Duration = Duration::from_millis(100);
/// Speaker capture taken at the end of the engine window for the tone
/// check.
pub const CAPTURE_FRAMES: usize = 8000;

/// Server counters read at window boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Engine ticks run.
    pub ticks: u64,
    /// `EngineStats.busy`, ns.
    pub busy_ns: u64,
    /// Route-plan rebuilds.
    pub plan_rebuilds: u64,
    /// Summed plan build time, µs, and builds timed.
    pub plan_build_us: (u64, u64),
    /// Transcode-cache hits.
    pub hits: u64,
    /// Transcode-cache misses.
    pub misses: u64,
    /// Store dedupe hits.
    pub dedupe: u64,
    /// Events the server dropped.
    pub events_dropped: u64,
    /// Clients the server evicted.
    pub evicted: u64,
    /// Requests dispatched, and on the fast path.
    pub dispatch: (u64, u64),
    /// Summed DSP leaf times, ns: convert, mix, resample.
    pub dsp_ns: (u64, u64, u64),
    /// Speaker underrun frames.
    pub underrun_frames: u64,
}

impl Counters {
    /// Reads the counters (takes the core lock once).
    pub fn read(control: &ServerControl) -> Counters {
        let stats = control.stats();
        let underrun_frames = control.speaker_stats(0).underrun_frames;
        control.with_core(|c| {
            let m = &c.tel.metrics;
            let pb = m.plan_build_us.snapshot();
            Counters {
                ticks: stats.ticks,
                busy_ns: u64::try_from(stats.busy.as_nanos()).unwrap_or(u64::MAX),
                plan_rebuilds: stats.plan_rebuilds,
                plan_build_us: (pb.sum, pb.count),
                hits: m.transcode_cache_hits_total.get(),
                misses: m.transcode_cache_misses_total.get(),
                dedupe: m.store_dedupe_hits_total.get(),
                events_dropped: m.events_dropped_total.get(),
                evicted: m.clients_evicted_total.get(),
                dispatch: (m.dispatch_requests_total.get(), m.dispatch_fast_total.get()),
                dsp_ns: (
                    m.dsp_convert_ns.snapshot().sum,
                    m.dsp_mix_ns.snapshot().sum,
                    m.dsp_resample_ns.snapshot().sum,
                ),
                underrun_frames,
            }
        })
    }
}

/// What one window measured on the server side.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Wall time of the window.
    pub seconds: f64,
    /// Ticks run in the window.
    pub ticks: u64,
    /// Tick wall times, µs: every `tick_n(1)` under manual ticks, the
    /// engine's own `last_tick` sampled once per tick under the engine
    /// thread.
    pub tick_wall_us: Vec<f64>,
    /// CPU of the ticking thread (the benchmark's, or `da-engine`), ns.
    pub engine_cpu_ns: Option<u64>,
    /// CPU of the connection-plane workers, ns.
    pub worker_cpu_ns: Option<u64>,
    /// Counters at the window start.
    pub before: Counters,
    /// Counters at the window end.
    pub after: Counters,
    /// Events received in the window.
    pub events: u64,
    /// Spans of the ticking thread.
    pub ticker_spans: Vec<Span>,
    /// Server CPU per audio-second of each block of the window, ms (the
    /// engine window only).
    pub block_rates: Vec<f64>,
}

impl Measured {
    /// Seconds of audio the window played.
    pub fn audio_s(&self) -> f64 {
        self.ticks as f64 * QUANTUM.as_secs_f64()
    }

    /// Server CPU (ticking thread plus connection plane) per second of
    /// audio, in ms: the median block's when the window was read in
    /// blocks, else the whole window's.
    pub fn cpu_ms_per_audio_s(&self) -> Option<f64> {
        if !self.block_rates.is_empty() {
            return Some(crate::stats::median(&self.block_rates));
        }
        Some((self.engine_cpu_ns? + self.worker_cpu_ns?) as f64 / 1e6 / self.audio_s())
    }

    fn start(w: &World) -> (Measured, Option<u64>) {
        let m = Measured {
            before: Counters::read(&w.control),
            events: w.events_received,
            ..Measured::default()
        };
        (m, threads_cpu("da-io"))
    }

    fn finish(&mut self, w: &World, workers0: Option<u64>, started: Instant) {
        if workers0.is_some() {
            self.worker_cpu_ns = workers0.zip(threads_cpu("da-io")).map(|(a, b)| b - a);
        }
        self.seconds = started.elapsed().as_secs_f64();
        self.after = Counters::read(&w.control);
        self.ticks = self.after.ticks - self.before.ticks;
        self.events = w.events_received - self.events;
    }
}

/// What the user window measured beyond [`Measured`].
#[derive(Debug, Default)]
pub struct UserOut {
    /// Server-side measures of the user window.
    pub m: Measured,
    /// Foreground plays issued.
    pub plays: u64,
    /// Session opens issued.
    pub opens: u64,
    /// Foreground actions still waiting for `PlayStarted` after the grace.
    pub unresolved: u64,
    /// Failed foreground requests.
    pub errors: u64,
    /// Flight-recorder traces (traced run), deduplicated.
    pub traces: Vec<TraceData>,
    /// The window start and the recorder clock (µs) at that instant, to
    /// place client send times on the recorder's clock.
    pub recorder_clock: Option<(Instant, u64)>,
    /// Index of the generator's root span.
    pub root_span: Option<usize>,
}

/// CPU of this process's threads named `prefix`.
fn threads_cpu(prefix: &str) -> Option<u64> {
    cpu::threads_ns(Path::new("/proc"), prefix).map(|(ns, _)| ns)
}

/// What a run of back-to-back ticks measured.
#[derive(Debug, Default)]
pub struct Ticked {
    /// Wall time of each `tick_n(1)`, µs.
    pub walls_us: Vec<f64>,
    /// Server CPU per audio-second of each block of ticks, ms.
    pub block_rates: Vec<f64>,
    /// Ticking-thread CPU, ns.
    pub tick_cpu_ns: Option<u64>,
    /// Connection-plane CPU, ns.
    pub worker_cpu_ns: Option<u64>,
    /// The ticking thread's spans.
    pub spans: Vec<Span>,
}

/// Runs `ticks` ticks in blocks of `per_block` on the calling thread, no
/// faster than one per `min_period`, reading thread CPU at block
/// boundaries only. The median block rate resists a neighbour briefly
/// sharing the core; per-block reads are cheap next to a block, unlike
/// per-tick reads.
pub fn tick_blocks(
    control: &ServerControl,
    ticks: u64,
    per_block: u64,
    min_period: Duration,
    capture_at: Option<u64>,
    t: &mut Tracer,
) -> Ticked {
    let mut out = Ticked::default();
    let (mut tick_cpu, mut worker_cpu) = (Some(0u64), Some(0u64));
    for b in 0..ticks / per_block {
        let (c0, w0) = (cpu::this_thread_ns(), threads_cpu("da-io"));
        for k in b * per_block..(b + 1) * per_block {
            if capture_at == Some(k) {
                t.run("server.set_speaker_capture", 0, || {
                    control.set_speaker_capture(0, CAPTURE_FRAMES)
                });
            }
            let t0 = Instant::now();
            t.run("server.tick_n", k, || control.tick_n(1));
            out.walls_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let spent = t0.elapsed();
            if spent < min_period {
                t.run("bench.pace_sleep", k, || {
                    std::thread::sleep(min_period - spent)
                });
            }
        }
        let c = c0.zip(cpu::this_thread_ns()).map(|(a, b)| b - a);
        let w = w0.zip(threads_cpu("da-io")).map(|(a, b)| b - a);
        tick_cpu = tick_cpu.zip(c).map(|(a, b)| a + b);
        worker_cpu = worker_cpu.zip(w).map(|(a, b)| a + b);
        if let (Some(c), Some(w)) = (c, w) {
            out.block_rates
                .push((c + w) as f64 / 1e6 / (per_block as f64 * QUANTUM.as_secs_f64()));
        }
    }
    out.tick_cpu_ns = tick_cpu;
    out.worker_cpu_ns = worker_cpu;
    out
}

/// Ticks `ticks` quanta back to back on a thread of its own, timing each
/// tick, while this thread drains both connections; the speaker capture
/// covers [`CAPTURE_FRAMES`] frames from the second second on.
pub fn engine_window(w: &mut World, ticks: u64, t: &mut Tracer, epoch: Instant) -> Measured {
    let (mut m, _) = Measured::start(w);
    let started = Instant::now();
    let control = w.control.clone();
    let mut tr = Tracer::new(t.enabled(), epoch);
    let capture_at = ENGINE_BLOCK;
    let ticker = std::thread::Builder::new()
        .name("pb-ticker".into())
        .spawn(move || {
            tr.enter("ticker", 0);
            let mut out = tick_blocks(
                &control,
                ticks,
                ENGINE_BLOCK,
                ENGINE_MIN_PERIOD,
                Some(capture_at),
                &mut tr,
            );
            tr.exit();
            out.spans = tr.spans().to_vec();
            out
        })
        .expect("spawn ticking thread");
    t.enter("engine_window", 0);
    while !ticker.is_finished() {
        for c in 0..2 {
            if let Err(e) = w.pump(t, c) {
                eprintln!("perfbench: draining connection {c}: {e}");
                w.tally.check(false);
            }
        }
        t.run("bench.drain_sleep", 0, || {
            std::thread::sleep(Duration::from_micros(500))
        });
    }
    t.exit();
    let ticked = ticker.join().expect("ticking thread");
    m.tick_wall_us = ticked.walls_us;
    m.engine_cpu_ns = ticked.tick_cpu_ns;
    m.ticker_spans = ticked.spans;
    m.block_rates = ticked.block_rates;
    m.finish(w, None, started);
    m.worker_cpu_ns = ticked.worker_cpu_ns;
    m
}

/// Drives `tick_n(1)` on the quantum grid from `start` until `stop`.
fn pace(
    control: ServerControl,
    stop: Arc<AtomicBool>,
    start: Instant,
    mut t: Tracer,
) -> (Vec<f64>, Option<u64>, Vec<Span>) {
    t.enter("pacer", 0);
    let cpu0 = cpu::this_thread_ns();
    let mut walls_us = Vec::new();
    let mut k = 0u32;
    while !stop.load(Ordering::Acquire) {
        let due = start + QUANTUM * k;
        let now = Instant::now();
        if due > now {
            t.run("bench.pace_sleep", 0, || std::thread::sleep(due - now));
        }
        let t0 = Instant::now();
        t.run("server.tick_n", u64::from(k), || control.tick_n(1));
        walls_us.push(t0.elapsed().as_secs_f64() * 1e6);
        k += 1;
    }
    let cpu = cpu0.zip(cpu::this_thread_ns()).map(|(a, b)| b - a);
    t.exit();
    (walls_us, cpu, t.spans().to_vec())
}

/// Runs user window `round` (each has its own schedule), `millis` long,
/// on a set-up world.
pub fn user_window(
    w: &mut World,
    round: u64,
    millis: u64,
    t: &mut Tracer,
    epoch: Instant,
) -> UserOut {
    let plan = sched::schedule(w.seed, round, millis);
    let traced = t.enabled();
    let control = w.control.clone();
    let recorder = control.with_core(|c| Arc::clone(&c.tel.recorder));
    if traced {
        recorder.set_sampling(1, 5_000);
    }
    let (m, workers0) = Measured::start(w);
    let mut out = UserOut {
        m,
        ..UserOut::default()
    };
    let engine0 = if w.workload.manual() {
        None
    } else {
        threads_cpu("da-engine")
    };
    let start = Instant::now() + Duration::from_millis(20);
    out.recorder_clock = Some((start, recorder.now_us() + 20_000));
    let end = start + Duration::from_millis(millis);
    let stop = Arc::new(AtomicBool::new(false));
    let pacer = w.workload.manual().then(|| {
        let (c, s, tr) = (
            control.clone(),
            Arc::clone(&stop),
            Tracer::new(traced, epoch),
        );
        std::thread::Builder::new()
            .name("pb-pacer".into())
            .spawn(move || pace(c, s, start, tr))
            .expect("spawn pacer thread")
    });

    t.enter("user_window", 0);
    out.root_span = t.spans().len().checked_sub(1);
    let mut traces: HashMap<(u32, u32), TraceData> = HashMap::new();
    let mut next = 0usize;
    let mut last_stats = Instant::now();
    let mut seen_ticks = control.stats().ticks;
    let mut last_trace = Instant::now();
    let mut captured = w.workload.manual();
    // Control requests in flight: the generator never blocks on one, so
    // it stays on schedule while a reply waits for the engine.
    let mut inflight: std::collections::VecDeque<Inflight> = std::collections::VecDeque::new();
    loop {
        let now = Instant::now();
        let elapsed_us =
            u64::try_from(now.saturating_duration_since(start).as_micros()).unwrap_or(u64::MAX);
        if let Some(late_us) = sched::due_now(&plan, next, elapsed_us).filter(|_| now >= start) {
            let p = &plan[next];
            w.lat.lateness_us.push(late_us as f64);
            t.enter("action", next as u64);
            if let Err(e) = act(
                w,
                t,
                p,
                start + Duration::from_micros(p.due_us),
                &mut out,
                &mut inflight,
            ) {
                eprintln!("perfbench: action {next} failed: {e}");
                out.errors += 1;
            }
            t.exit();
            next += 1;
            continue;
        }
        let fg_waiting = w.pending.values().any(|x| *x != Waiting::Setup)
            || !w.closing.is_empty()
            || !inflight.is_empty();
        if next == plan.len() && now >= end && (!fg_waiting || now >= end + GRACE) {
            break;
        }
        if !captured && now + Duration::from_secs(1) >= end {
            t.run("server.set_speaker_capture", 0, || {
                control.set_speaker_capture(0, CAPTURE_FRAMES)
            });
            captured = true;
        }
        if !w.workload.manual() && now >= last_stats + STATS_EVERY {
            let s = t.run("server.stats", 0, || control.stats());
            if s.ticks != seen_ticks {
                out.m.tick_wall_us.push(s.last_tick.as_secs_f64() * 1e6);
                seen_ticks = s.ticks;
            }
            last_stats = now;
        }
        if traced && now >= last_trace + TRACE_EVERY {
            for tr in t.run("server.recorder_snapshot", 0, || recorder.snapshot(256)) {
                traces.insert((tr.client.0, tr.seq), tr);
            }
            last_trace = now;
        }
        if let Err(e) = w.pump(t, 1) {
            eprintln!("perfbench: background connection: {e}");
            out.errors += 1;
            break;
        }
        if let Err(e) = w.close_finished(t) {
            eprintln!("perfbench: closing a session: {e}");
            out.errors += 1;
        }
        let wake = plan.get(next).map_or(end.max(now + MAX_WAIT), |p| {
            start + Duration::from_micros(p.due_us)
        });
        let wait = wake.saturating_duration_since(Instant::now()).min(MAX_WAIT);
        let waited = match inflight.front() {
            // Replies arrive in request order: wait for the oldest.
            Some(f) => match w.clients[0].reply_within(t, f.seq, wait) {
                Ok(Some(_)) => {
                    let f = inflight.pop_front().expect("front exists");
                    w.lat
                        .request_rtt_us
                        .push(f.due.elapsed().as_secs_f64() * 1e6);
                    let rtt = f.sent.elapsed().as_secs_f64() * 1e6;
                    if f.op == CtrlOp::Sync {
                        w.lat.sync_rtt_us.push(rtt);
                    } else {
                        w.lat.query_rtt_us.push(rtt);
                    }
                    w.pump(t, 0)
                }
                Ok(None) => w.pump(t, 0),
                Err(e) => {
                    eprintln!("perfbench: control request {} failed: {e}", f.seq);
                    inflight.pop_front();
                    out.errors += 1;
                    Ok(())
                }
            },
            None => w.pump_wait(t, wait),
        };
        if let Err(e) = waited {
            eprintln!("perfbench: foreground connection: {e}");
            out.errors += 1;
            break;
        }
    }
    out.errors += inflight.len() as u64;
    t.exit();
    stop.store(true, Ordering::Release);
    if let Some(h) = pacer {
        let (walls, cpu, spans) = h.join().expect("pacer thread");
        out.m.tick_wall_us = walls;
        out.m.engine_cpu_ns = cpu;
        out.m.ticker_spans = spans;
    } else {
        out.m.engine_cpu_ns = engine0.zip(threads_cpu("da-engine")).map(|(a, b)| b - a);
    }
    out.m.finish(w, workers0, start);
    out.unresolved = w.pending.values().filter(|x| **x != Waiting::Setup).count() as u64;
    if traced {
        for tr in recorder.snapshot(256) {
            traces.insert((tr.client.0, tr.seq), tr);
        }
        out.traces = traces.into_values().collect();
    }
    out
}

/// A control request awaiting its reply.
struct Inflight {
    seq: u32,
    op: CtrlOp,
    due: Instant,
    sent: Instant,
}

/// Executes one planned action.
fn act(
    w: &mut World,
    t: &mut Tracer,
    p: &Planned,
    due: Instant,
    out: &mut UserOut,
    inflight: &mut std::collections::VecDeque<Inflight>,
) -> Result<(), String> {
    let e = |e: da_alib::AlibError| e.to_string();
    let session = |ordinal: usize| {
        w.sessions
            .get(&ordinal)
            .copied()
            .ok_or(format!("session {ordinal} is not open"))
    };
    match p.action {
        Action::Play { session: ordinal } => {
            let s = session(ordinal)?;
            w.clients[0].play(t, s.loud, s.player, s.sound).map_err(e)?;
            w.pending.insert(s.player.0, Waiting::Play(due));
            out.plays += 1;
        }
        Action::Ctrl {
            op,
            session: ordinal,
        } => {
            let s = session(ordinal)?;
            let req = match op {
                CtrlOp::QueryQueue => Request::QueryQueue { loud: s.loud },
                CtrlOp::QuerySound => Request::QuerySound { id: s.sound },
                CtrlOp::GetDeviceControl => Request::GetDeviceControl {
                    id: s.player,
                    name: w.gain_atom,
                },
                CtrlOp::Sync => Request::Sync,
            };
            let sent = Instant::now();
            let seq = w.clients[0].send(t, req).map_err(e)?;
            inflight.push_back(Inflight { seq, op, due, sent });
        }
        Action::Open { opened, close } => {
            w.open_session(t, opened, Waiting::Open(due, close))
                .map_err(e)?;
            out.opens += 1;
        }
    }
    Ok(())
}
