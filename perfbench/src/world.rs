//! A running server with the benchmark's two client connections and the
//! workload's session population, plus the event bookkeeping shared by
//! set-up and the timed window.

use crate::sched::{self, FG_POOL, SHARED_TONES};
use crate::spans::Tracer;
use crate::stats::Tally;
use da_alib::{AlibError, Connection};
use da_proto::command::{DeviceCommand, QueueEntry, RecordTermination};
use da_proto::event::{Event, EventMask};
use da_proto::ids::{Atom, LoudId, SoundId, VDeviceId, WireId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::{DeviceClass, SoundType, WireType};
use da_server::{AudioServer, ServerConfig, ServerControl};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Real-time engine thread, a few dozen background sessions.
    Interactive,
    /// Manual ticks, ~400 sessions sharing a handful of cached tones,
    /// one live telephone call.
    MixShared,
    /// Manual ticks, 16 sessions of distinct 60 s messages whose decoded
    /// working set exceeds the transcode cache.
    Voicemail,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "interactive" => Some(Workload::Interactive),
            "mix-shared" => Some(Workload::MixShared),
            "voicemail" => Some(Workload::Voicemail),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::MixShared => "mix-shared",
            Workload::Voicemail => "voicemail",
        }
    }

    /// Whether the benchmark drives the ticks (`tick_n`) instead of the
    /// server's own engine thread.
    pub fn manual(self) -> bool {
        self != Workload::Interactive
    }

    /// Background play sessions held during the window.
    pub fn background_sessions(self) -> usize {
        match self {
            Workload::Interactive => 32,
            Workload::MixShared => 400,
            Workload::Voicemail => 16,
        }
    }

    /// Whether background sessions play the shared tones (else each plays
    /// its own voicemail message).
    pub fn shared(self) -> bool {
        self != Workload::Voicemail
    }

    /// Set-up ticks over which background starts are spread (manual
    /// ticks only; with the engine thread everything starts at once).
    pub fn start_spread(self) -> usize {
        match self {
            Workload::MixShared => 40,
            _ => 1,
        }
    }

    /// Ticks of the engine window on each set-up (manual ticks only): at
    /// least 200, so a tick p95 has ten beyond it.
    pub fn engine_ticks(self) -> u64 {
        match self {
            Workload::Interactive => 0,
            Workload::MixShared => 1500,
            Workload::Voicemail => 400,
        }
    }

    /// Whether the background population is split over both connections.
    pub fn split(self) -> bool {
        self == Workload::MixShared
    }

    /// The server configuration: the shipped default apart from pacing.
    pub fn config(self) -> ServerConfig {
        if self.manual() {
            ServerConfig {
                manual_ticks: true,
                ..ServerConfig::default()
            }
        } else {
            ServerConfig {
                pacing: da_hw::clock::Pacing::RealTime,
                ..ServerConfig::default()
            }
        }
    }
}

/// A request the benchmark sent, kept for the offline re-timings of the
/// traced run.
#[derive(Debug, Clone)]
pub struct Logged {
    /// When it was handed to the transport.
    pub at: Instant,
    /// Its sequence number.
    pub seq: u32,
    /// The request.
    pub req: Request,
}

/// One client connection and, in a traced run, the log of what it sent.
pub struct Client {
    /// The alib connection.
    pub conn: Connection,
    /// Requests sent, when logging.
    pub log: Option<Vec<Logged>>,
}

impl Client {
    fn open(server: &AudioServer, name: &str, log: bool) -> Result<Client, AlibError> {
        let conn = Connection::establish(server.connect_pipe(), name)?;
        Ok(Client {
            conn,
            log: log.then(Vec::new),
        })
    }

    /// Sends one request asynchronously.
    pub fn send(&mut self, t: &mut Tracer, req: Request) -> Result<u32, AlibError> {
        t.enter("alib.send", 0);
        let r = self.conn.send(&req);
        t.exit();
        let seq = r?;
        if let Some(log) = &mut self.log {
            log.push(Logged {
                at: Instant::now(),
                seq,
                req,
            });
        }
        Ok(seq)
    }

    /// Waits for the reply to `seq`.
    pub fn wait_reply(&mut self, t: &mut Tracer, seq: u32) -> Result<Reply, AlibError> {
        t.run("alib.wait_reply", u64::from(seq), || {
            self.conn.wait_reply(seq)
        })
    }

    /// The reply to `seq` if it arrives within `wait`; `Ok(None)` if not
    /// yet. (alib has no non-blocking reply check, so this is a bounded
    /// `wait_reply`; a miss counts in alib's own timeout statistics.)
    pub fn reply_within(
        &mut self,
        t: &mut Tracer,
        seq: u32,
        wait: Duration,
    ) -> Result<Option<Reply>, AlibError> {
        let keep = std::mem::replace(&mut self.conn.timeout, wait);
        let r = t.run("alib.wait_reply", u64::from(seq), || {
            self.conn.wait_reply(seq)
        });
        self.conn.timeout = keep;
        match r {
            Ok(reply) => Ok(Some(reply)),
            Err(AlibError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Sends a request and waits for its reply.
    pub fn round_trip(&mut self, t: &mut Tracer, req: Request) -> Result<Reply, AlibError> {
        let seq = self.send(t, req)?;
        self.wait_reply(t, seq)
    }

    /// A fresh resource id from this client's range.
    pub fn alloc(&mut self) -> u32 {
        self.conn.alloc_id()
    }

    /// Uploads encoded bytes as a new sound through chunked
    /// `WriteSoundData` of `chunk` bytes.
    pub fn upload(
        &mut self,
        t: &mut Tracer,
        stype: SoundType,
        data: &[u8],
        chunk: usize,
    ) -> Result<SoundId, AlibError> {
        let id = SoundId(self.alloc());
        self.send(t, Request::CreateSound { id, stype })?;
        let n = data.len().div_ceil(chunk);
        for (k, piece) in data.chunks(chunk).enumerate() {
            self.send(
                t,
                Request::WriteSoundData {
                    id,
                    data: piece.to_vec(),
                    eof: k + 1 == n,
                },
            )?;
        }
        Ok(id)
    }

    /// A player→output LOUD, mapped, with `mask` selected on the player.
    pub fn play_tree(
        &mut self,
        t: &mut Tracer,
        mask: EventMask,
    ) -> Result<(LoudId, VDeviceId), AlibError> {
        let loud = LoudId(self.alloc());
        self.send(
            t,
            Request::CreateLoud {
                id: loud,
                parent: None,
            },
        )?;
        let player = VDeviceId(self.alloc());
        self.send(
            t,
            Request::CreateVDevice {
                id: player,
                loud,
                class: DeviceClass::Player,
                attrs: vec![],
            },
        )?;
        let output = VDeviceId(self.alloc());
        self.send(
            t,
            Request::CreateVDevice {
                id: output,
                loud,
                class: DeviceClass::Output,
                attrs: vec![],
            },
        )?;
        let wire = WireId(self.alloc());
        self.send(
            t,
            Request::CreateWire {
                id: wire,
                src: player,
                src_port: 0,
                dst: output,
                dst_port: 0,
                wire_type: WireType::Any,
            },
        )?;
        self.send(
            t,
            Request::SelectEvents {
                target: player.into(),
                mask,
            },
        )?;
        self.send(t, Request::MapLoud { id: loud })?;
        Ok((loud, player))
    }

    /// Enqueues a play of `sound` and starts the queue.
    pub fn play(
        &mut self,
        t: &mut Tracer,
        loud: LoudId,
        player: VDeviceId,
        sound: SoundId,
    ) -> Result<(), AlibError> {
        self.send(
            t,
            Request::Enqueue {
                loud,
                entries: vec![QueueEntry::Device {
                    vdev: player,
                    cmd: DeviceCommand::Play(sound),
                }],
            },
        )?;
        self.send(t, Request::StartQueue { loud })?;
        Ok(())
    }

    /// Round-trips a `Sync`.
    pub fn sync(&mut self, t: &mut Tracer) -> Result<(), AlibError> {
        self.round_trip(t, Request::Sync).map(|_| ())
    }
}

/// A foreground session: its own LOUD tree and message.
#[derive(Debug, Clone, Copy)]
pub struct FgSession {
    /// Root LOUD.
    pub loud: LoudId,
    /// Player device.
    pub player: VDeviceId,
    /// Its message.
    pub sound: SoundId,
    /// Wire bytes its open sent.
    pub bytes: u64,
}

/// A background play session.
#[derive(Debug, Clone, Copy)]
pub struct BgSession {
    /// Connection index (0 foreground, 1 background).
    pub conn: usize,
    /// Root LOUD.
    pub loud: LoudId,
    /// Player device.
    pub player: VDeviceId,
    /// Sound it plays.
    pub sound: SoundId,
    /// Sync-mark interval in frames (shared-tone sessions only).
    pub interval: Option<u32>,
    /// Set-up tick it starts at.
    pub start_tick: usize,
}

/// What an outstanding `PlayStarted` will close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiting {
    /// A set-up start (no latency kept).
    Setup,
    /// A foreground play due at the instant.
    Play(Instant),
    /// A foreground session open due at the instant; once it plays, the
    /// session with the second ordinal is closed.
    Open(Instant, usize),
}

/// Sync marks seen on one background player.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marks {
    /// The player's mark interval, in frames.
    pub interval: u64,
    /// Marks received.
    pub count: u64,
    /// Position of the last mark.
    pub last: u64,
    /// A mark arrived off the expected `last + interval` position.
    pub gap: bool,
}

/// Latency samples of the foreground user, timed from due time.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    /// Play due → `PlayStarted`, ms.
    pub play_start_ms: Vec<f64>,
    /// Open due → the new session's first `PlayStarted`, ms.
    pub session_open_ms: Vec<f64>,
    /// Control request due → reply, µs.
    pub request_rtt_us: Vec<f64>,
    /// Send → reply of query requests, µs (alib layer).
    pub query_rtt_us: Vec<f64>,
    /// Send → reply of `Sync`, µs (alib layer).
    pub sync_rtt_us: Vec<f64>,
    /// How late the generator issued each action, µs.
    pub lateness_us: Vec<f64>,
    /// Wire bytes sent per session open (open plus close).
    pub open_bytes: Vec<f64>,
}

impl Latencies {
    /// Adds another population's samples.
    pub fn absorb(&mut self, other: Latencies) {
        self.play_start_ms.extend(other.play_start_ms);
        self.session_open_ms.extend(other.session_open_ms);
        self.request_rtt_us.extend(other.request_rtt_us);
        self.query_rtt_us.extend(other.query_rtt_us);
        self.sync_rtt_us.extend(other.sync_rtt_us);
        self.lateness_us.extend(other.lateness_us);
        self.open_bytes.extend(other.open_bytes);
    }
}

/// Everything the benchmark holds while a server runs.
pub struct World {
    /// The traffic mix.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// The program under test.
    pub server: AudioServer,
    /// Its control handle.
    pub control: ServerControl,
    /// Connection 0 (foreground user) and 1 (background).
    pub clients: [Client; 2],
    /// Open foreground sessions by ordinal.
    pub sessions: HashMap<usize, FgSession>,
    /// Background sessions.
    pub bg: Vec<BgSession>,
    /// The remote party of the live telephone call, if any (an index for
    /// `ServerControl::with_party`).
    pub call: Option<usize>,
    /// Atom naming the control the foreground reads.
    pub gain_atom: Atom,
    /// Players awaiting `PlayStarted`.
    pub pending: HashMap<u32, Waiting>,
    /// Sync marks per background player.
    pub marks: HashMap<u32, Marks>,
    /// Sessions to close now that their successor plays.
    pub closing: Vec<usize>,
    /// DTMF digits the application received.
    pub dtmf_got: Vec<u8>,
    /// Events received on both connections.
    pub events_received: u64,
    /// Foreground latency samples.
    pub lat: Latencies,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Encoded payloads of the background sounds, with their types
    /// (shared by every set-up of a run).
    pub payloads: Rc<Payloads>,
    /// Upload-plus-`Sync` round trips of the set-up uploads, µs.
    pub upload_rtt_us: Vec<f64>,
}

/// Foreground message chunk: four `WriteSoundData` per message.
const FG_CHUNK: usize = sched::FG_MESSAGE_FRAMES / 4;
/// Background upload chunk, as alib's own uploads use.
const BG_CHUNK: usize = 64 * 1024;
/// Number the remote caller dials from.
const CALLER: &str = "555-7000";

impl World {
    /// Starts a server and builds the workload's population; returns it
    /// once every session has started playing, with the set-up time from
    /// server start to the last first `PlayStarted`.
    pub fn setup(
        workload: Workload,
        seed: u64,
        payloads: &Rc<Payloads>,
        log: bool,
        t: &mut Tracer,
    ) -> Result<(World, f64), String> {
        let t0 = Instant::now();
        let server =
            AudioServer::start(workload.config()).map_err(|e| format!("server start: {e}"))?;
        let control = server.control();
        let fg = Client::open(&server, "perfbench-fg", log).map_err(|e| e.to_string())?;
        let bgc = Client::open(&server, "perfbench-bg", false).map_err(|e| e.to_string())?;
        let mut w = World {
            workload,
            seed,
            server,
            control,
            clients: [fg, bgc],
            sessions: HashMap::new(),
            bg: Vec::new(),
            call: None,
            gain_atom: Atom(0),
            pending: HashMap::new(),
            marks: HashMap::new(),
            closing: Vec::new(),
            dtmf_got: Vec::new(),
            events_received: 0,
            lat: Latencies::default(),
            tally: Tally::default(),
            payloads: Rc::clone(payloads),
            upload_rtt_us: Vec::new(),
        };
        w.populate(t).map_err(|e| format!("set-up: {e}"))?;
        Ok((w, t0.elapsed().as_secs_f64()))
    }

    fn populate(&mut self, t: &mut Tracer) -> Result<(), AlibError> {
        let wl = self.workload;
        self.gain_atom = self.clients[0].conn.intern_atom("gain")?;
        // Background sounds: each connection holding background sessions
        // uploads its own copy (the store dedupes identical content).
        let holders: &[usize] = if wl.split() { &[0, 1] } else { &[1] };
        let mut sounds: [Vec<SoundId>; 2] = [Vec::new(), Vec::new()];
        let payloads = Rc::clone(&self.payloads);
        for &c in holders {
            for (stype, data) in payloads.iter() {
                let t0 = Instant::now();
                let id = self.clients[c].upload(t, *stype, data, BG_CHUNK)?;
                self.clients[c].sync(t)?;
                self.upload_rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
                sounds[c].push(id);
            }
        }
        for i in 0..wl.background_sessions() {
            let conn = if wl.split() { i % 2 } else { 1 };
            let (sound, interval, mask) = if wl.shared() {
                let iv = sched::sync_interval_frames(self.seed, i);
                (
                    sounds[conn][i % SHARED_TONES],
                    Some(iv),
                    EventMask::DEVICE | EventMask::SYNC,
                )
            } else {
                (sounds[conn][i], None, EventMask::DEVICE)
            };
            let (loud, player) = self.clients[conn].play_tree(t, mask)?;
            if let Some(iv) = interval {
                self.clients[conn].send(
                    t,
                    Request::SetSyncInterval {
                        vdev: player,
                        interval_frames: iv,
                    },
                )?;
                self.marks.insert(
                    player.0,
                    Marks {
                        interval: u64::from(iv),
                        ..Marks::default()
                    },
                );
            }
            let start_tick = sched::start_tick(self.seed, i, wl.start_spread());
            self.bg.push(BgSession {
                conn,
                loud,
                player,
                sound,
                interval,
                start_tick,
            });
        }
        for ordinal in 0..FG_POOL {
            self.open_session(t, ordinal, Waiting::Setup)?;
        }
        if wl == Workload::MixShared {
            self.place_call(t, sounds[1][0])?;
        }
        for c in 0..2 {
            self.clients[c].sync(t)?;
        }
        self.start_background(t)
    }

    /// Builds foreground session `ordinal` and plays its message. The
    /// LOUD selects queue events too, as an application waiting for its
    /// commands to complete does.
    pub fn open_session(
        &mut self,
        t: &mut Tracer,
        ordinal: usize,
        why: Waiting,
    ) -> Result<(), AlibError> {
        let msg = sched::fg_message(self.seed, ordinal);
        let c = &mut self.clients[0];
        let b0 = c.conn.wire_stats().bytes_sent;
        let (loud, player) = c.play_tree(t, EventMask::DEVICE)?;
        c.send(
            t,
            Request::SelectEvents {
                target: loud.into(),
                mask: EventMask::QUEUE,
            },
        )?;
        let sound = c.upload(t, SoundType::TELEPHONE, &msg, FG_CHUNK)?;
        c.play(t, loud, player, sound)?;
        let bytes = c.conn.wire_stats().bytes_sent - b0;
        self.pending.insert(player.0, why);
        self.sessions.insert(
            ordinal,
            FgSession {
                loud,
                player,
                sound,
                bytes,
            },
        );
        Ok(())
    }

    /// Closes the sessions whose successors started playing: destroys
    /// each tree and deletes its message.
    pub fn close_finished(&mut self, t: &mut Tracer) -> Result<(), AlibError> {
        for ordinal in std::mem::take(&mut self.closing) {
            let s = self
                .sessions
                .remove(&ordinal)
                .expect("schedule closes only open sessions");
            let c = &mut self.clients[0];
            let b0 = c.conn.wire_stats().bytes_sent;
            c.send(t, Request::DestroyLoud { id: s.loud })?;
            c.send(t, Request::DeleteSound { id: s.sound })?;
            self.lat
                .open_bytes
                .push((s.bytes + c.conn.wire_stats().bytes_sent - b0) as f64);
        }
        Ok(())
    }

    /// Dials the remote caller; once answered the application plays a
    /// prompt to them and records them.
    fn place_call(&mut self, t: &mut Tracer, prompt: SoundId) -> Result<(), AlibError> {
        let party = self.control.add_remote_party(CALLER);
        self.control
            .with_party(party, |p, _| p.auto_answer_after = Some(800));
        let c = &mut self.clients[1];
        let loud = LoudId(c.alloc());
        c.send(
            t,
            Request::CreateLoud {
                id: loud,
                parent: None,
            },
        )?;
        let mut dev = |c: &mut Client, class| -> Result<VDeviceId, AlibError> {
            let id = VDeviceId(c.alloc());
            c.send(
                t,
                Request::CreateVDevice {
                    id,
                    loud,
                    class,
                    attrs: vec![],
                },
            )?;
            Ok(id)
        };
        let telephone = dev(c, DeviceClass::Telephone)?;
        let player = dev(c, DeviceClass::Player)?;
        let recorder = dev(c, DeviceClass::Recorder)?;
        for (src, dst) in [(player, telephone), (telephone, recorder)] {
            let id = WireId(c.alloc());
            c.send(
                t,
                Request::CreateWire {
                    id,
                    src,
                    src_port: 0,
                    dst,
                    dst_port: 0,
                    wire_type: WireType::Any,
                },
            )?;
        }
        c.send(
            t,
            Request::SelectEvents {
                target: telephone.into(),
                mask: EventMask::DEVICE,
            },
        )?;
        c.send(
            t,
            Request::SelectEvents {
                target: player.into(),
                mask: EventMask::DEVICE,
            },
        )?;
        c.send(t, Request::MapLoud { id: loud })?;
        let recording = SoundId(c.alloc());
        c.send(
            t,
            Request::CreateSound {
                id: recording,
                stype: SoundType::TELEPHONE,
            },
        )?;
        let dev_cmd = |vdev, cmd| QueueEntry::Device { vdev, cmd };
        c.send(
            t,
            Request::Enqueue {
                loud,
                entries: vec![
                    dev_cmd(telephone, DeviceCommand::Dial(CALLER.into())),
                    QueueEntry::CoBegin,
                    dev_cmd(player, DeviceCommand::Play(prompt)),
                    dev_cmd(
                        recorder,
                        DeviceCommand::Record(recording, RecordTermination::Manual),
                    ),
                    QueueEntry::CoEnd,
                ],
            },
        )?;
        c.send(t, Request::StartQueue { loud })?;
        self.pending.insert(player.0, Waiting::Setup);
        self.call = Some(party);
        Ok(())
    }

    /// Starts the background sessions and waits until everything set-up
    /// started (foreground pool, call and background) is playing.
    fn start_background(&mut self, t: &mut Tracer) -> Result<(), AlibError> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let spread = self.workload.start_spread();
        let mut tick = 0usize;
        loop {
            if tick < spread {
                for i in 0..self.bg.len() {
                    let b = self.bg[i];
                    if b.start_tick == tick {
                        self.clients[b.conn].play(t, b.loud, b.player, b.sound)?;
                        self.pending.insert(b.player.0, Waiting::Setup);
                    }
                }
            }
            if self.workload.manual() {
                for c in 0..2 {
                    self.clients[c].sync(t)?;
                }
                t.run("server.tick_n", 0, || self.control.tick_n(1));
                self.pump(t, 0)?;
                self.pump(t, 1)?;
            } else {
                self.pump_wait(t, Duration::from_millis(2))?;
                self.pump(t, 1)?;
            }
            tick += 1;
            if tick >= spread && self.pending.is_empty() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(AlibError::Timeout);
            }
        }
    }

    /// Handles every event already buffered on connection `c`.
    pub fn pump(&mut self, t: &mut Tracer, c: usize) -> Result<(), AlibError> {
        loop {
            let ev = t.run("alib.poll_event", 0, || self.clients[c].conn.poll_event())?;
            match ev {
                Some(ev) => self.on_event(ev, Instant::now()),
                None => return Ok(()),
            }
        }
    }

    /// Blocks up to `timeout` for an event on the foreground connection,
    /// then handles everything buffered there.
    pub fn pump_wait(&mut self, t: &mut Tracer, timeout: Duration) -> Result<(), AlibError> {
        let ev = t.run("alib.next_event", 0, || {
            self.clients[0].conn.next_event(timeout)
        })?;
        if let Some(ev) = ev {
            self.on_event(ev, Instant::now());
            self.pump(t, 0)?;
        }
        Ok(())
    }

    /// Books one event received at `at`.
    pub fn on_event(&mut self, ev: Event, at: Instant) {
        self.events_received += 1;
        match ev {
            Event::PlayStarted { vdev, .. } => match self.pending.remove(&vdev.0) {
                Some(Waiting::Play(due)) => self.lat.play_start_ms.push(ms_since(due, at)),
                Some(Waiting::Open(due, close)) => {
                    self.lat.session_open_ms.push(ms_since(due, at));
                    self.closing.push(close);
                }
                Some(Waiting::Setup) | None => {}
            },
            Event::SyncMark { vdev, position, .. } => {
                if let Some(m) = self.marks.get_mut(&vdev.0) {
                    if position != m.last + m.interval {
                        m.gap = true;
                    }
                    m.last = position;
                    m.count += 1;
                }
            }
            Event::DtmfReceived { digit, .. } => self.dtmf_got.push(digit),
            _ => {}
        }
    }

    /// Unmaps every background session (the telephone call stays).
    pub fn unmap_background(&mut self, t: &mut Tracer) -> Result<(), AlibError> {
        for b in self.bg.clone() {
            self.clients[b.conn].send(t, Request::UnmapLoud { id: b.loud })?;
        }
        for c in 0..2 {
            self.clients[c].sync(t)?;
        }
        Ok(())
    }

    /// Closes both connections and stops the server, joining its threads.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }

    /// Counts and clears every asynchronous error either connection
    /// received.
    pub fn take_errors(&mut self) -> u64 {
        let mut n = 0;
        for c in &mut self.clients {
            while let Some((seq, e)) = c.conn.take_error() {
                if n < 5 {
                    eprintln!("perfbench: server error on request {seq}: {e:?}");
                }
                n += 1;
            }
        }
        n
    }
}

/// Milliseconds from `from` to `to`.
pub fn ms_since(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Encoded sounds with their types.
pub type Payloads = Vec<(SoundType, Vec<u8>)>;

/// The background sounds of a workload: shared tones or voicemail
/// messages, with their types.
pub fn background_payloads(workload: Workload, seed: u64) -> Payloads {
    if workload.shared() {
        (0..SHARED_TONES)
            .map(|i| (SoundType::TELEPHONE, sched::shared_tone(seed, i)))
            .collect()
    } else {
        (0..workload.background_sessions())
            .map(|i| sched::voicemail_message(seed, i))
            .collect()
    }
}
