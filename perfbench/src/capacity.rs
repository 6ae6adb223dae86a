//! `sessions_at_10pct_cpu`: the largest number of the workload's
//! background sessions one server sustains at no more than 100 ms of
//! server CPU per second of audio (the paper's "well under 10% of the
//! CPU"), found by bisection on a fresh manual-tick server.

use crate::sched;
use crate::spans::Tracer;
use crate::world::{Client, Workload};
use da_alib::Connection;
use da_proto::event::EventMask;
use da_proto::ids::{LoudId, SoundId, VDeviceId};
use da_proto::request::Request;
use da_proto::types::SoundType;
use da_server::{AudioServer, ServerConfig, ServerControl};

/// The CPU budget per second of audio, ms.
pub const BUDGET_MS: f64 = 100.0;
/// Bisection stops when the bracket is this tight.
const TOLERANCE: f64 = 0.05;
/// Ticks measured per probe (two seconds of audio). A probe's own noise
/// is mostly where its population landed in memory, so many short probes
/// beat a few long ones.
const PROBE_TICKS: u64 = 200;
/// Ticks per block; the median block's CPU rate is the probe's.
const PROBE_BLOCK: u64 = 50;
/// Ticks run before measuring, so first-play cache builds are excluded.
const WARMUP_TICKS: u64 = 10;
/// Session starts per connection per set-up tick (keeps start events
/// well inside the client channel).
const STARTS_PER_TICK: usize = 64;

/// Result of the search.
#[derive(Debug, Clone, Default)]
pub struct Capacity {
    /// Sessions at the budget, interpolated inside the final bracket.
    pub sessions: f64,
    /// Every probe: (sessions, CPU ms per audio-second).
    pub probes: Vec<(usize, f64)>,
}

struct Rig {
    server: AudioServer,
    control: ServerControl,
    clients: [Client; 2],
    sounds: [Vec<SoundId>; 2],
}

impl Rig {
    fn start() -> Result<Rig, String> {
        let server = AudioServer::start(ServerConfig {
            manual_ticks: true,
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let control = server.control();
        let open = |name| -> Result<Client, String> {
            let conn =
                Connection::establish(server.connect_pipe(), name).map_err(|e| e.to_string())?;
            Ok(Client { conn, log: None })
        };
        let clients = [open("perfbench-cap0")?, open("perfbench-cap1")?];
        Ok(Rig {
            server,
            control,
            clients,
            sounds: [Vec::new(), Vec::new()],
        })
    }

    /// Makes sure connection `c` holds at least `n` sounds of the kind.
    fn ensure_sounds(
        &mut self,
        wl: Workload,
        seed: u64,
        c: usize,
        n: usize,
        t: &mut Tracer,
    ) -> Result<(), String> {
        while self.sounds[c].len() < n {
            let i = self.sounds[c].len();
            let (stype, data) = if wl.shared() {
                (SoundType::TELEPHONE, sched::shared_tone(seed, i))
            } else {
                sched::voicemail_message(seed, i)
            };
            let id = self.clients[c]
                .upload(t, stype, &data, 64 * 1024)
                .map_err(|e| e.to_string())?;
            self.sounds[c].push(id);
        }
        Ok(())
    }

    fn pump(&mut self) -> Result<(), String> {
        for c in &mut self.clients {
            while c.conn.poll_event().map_err(|e| e.to_string())?.is_some() {}
        }
        Ok(())
    }

    /// CPU ms per audio-second with `k` sessions playing.
    fn probe(&mut self, wl: Workload, seed: u64, k: usize, t: &mut Tracer) -> Result<f64, String> {
        let e = |e: da_alib::AlibError| e.to_string();
        // Shared-tone sessions split over both connections, as in
        // `mix-shared`; voicemail sessions sit on one, as in `voicemail`.
        let split = wl.shared();
        let per_conn = if split {
            [k.div_ceil(2), k / 2]
        } else {
            [0, k]
        };
        for (c, &sessions) in per_conn.iter().enumerate() {
            let n = if wl.shared() {
                sched::SHARED_TONES.min(sessions)
            } else {
                sessions
            };
            self.ensure_sounds(wl, seed, c, n, t)?;
        }
        let mut sessions: Vec<(usize, LoudId, VDeviceId, SoundId)> = Vec::with_capacity(k);
        for i in 0..k {
            let c = if split { i % 2 } else { 1 };
            let j = i / if split { 2 } else { 1 };
            let cl = &mut self.clients[c];
            if wl.shared() {
                let (loud, player) = cl
                    .play_tree(t, EventMask::DEVICE | EventMask::SYNC)
                    .map_err(e)?;
                let iv = sched::sync_interval_frames(seed, i);
                cl.send(
                    t,
                    Request::SetSyncInterval {
                        vdev: player,
                        interval_frames: iv,
                    },
                )
                .map_err(e)?;
                sessions.push((c, loud, player, self.sounds[c][j % sched::SHARED_TONES]));
            } else {
                let (loud, player) = cl.play_tree(t, EventMask::DEVICE).map_err(e)?;
                sessions.push((c, loud, player, self.sounds[c][j]));
            }
        }
        for batch in sessions.chunks(2 * STARTS_PER_TICK) {
            for &(c, loud, player, sound) in batch {
                self.clients[c].play(t, loud, player, sound).map_err(e)?;
            }
            for c in 0..2 {
                self.clients[c].sync(t).map_err(e)?;
            }
            self.control.tick_n(1);
            self.pump()?;
        }
        for _ in 0..WARMUP_TICKS {
            self.control.tick_n(1);
            self.pump()?;
        }
        let control = self.control.clone();
        let ticker = std::thread::Builder::new()
            .name("pb-probe".into())
            .spawn(move || {
                let mut t = Tracer::new(false, std::time::Instant::now());
                crate::window::tick_blocks(
                    &control,
                    PROBE_TICKS,
                    PROBE_BLOCK,
                    std::time::Duration::ZERO,
                    None,
                    &mut t,
                )
            })
            .map_err(|e| e.to_string())?;
        while !ticker.is_finished() {
            self.pump()?;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let ticked = ticker
            .join()
            .map_err(|_| "probe ticker panicked".to_string())?;
        if ticked.block_rates.len() as u64 != PROBE_TICKS / PROBE_BLOCK {
            return Err("schedstat unavailable".into());
        }
        for &(c, loud, _, _) in &sessions {
            self.clients[c]
                .send(t, Request::DestroyLoud { id: loud })
                .map_err(e)?;
        }
        for c in 0..2 {
            self.clients[c].sync(t).map_err(e)?;
        }
        self.control.tick_n(1);
        self.pump()?;
        Ok(crate::stats::median(&ticked.block_rates))
    }
}

/// Where the least-squares line through the probes reaches the budget,
/// if the line rises.
fn crossing(probes: &[(usize, f64)]) -> Option<f64> {
    let n = probes.len() as f64;
    let (sx, sy) = probes
        .iter()
        .fold((0.0, 0.0), |(x, y), &(k, c)| (x + k as f64, y + c));
    let (mx, my) = (sx / n, sy / n);
    let (sxy, sxx) = probes.iter().fold((0.0, 0.0), |(xy, xx), &(k, c)| {
        (
            xy + (k as f64 - mx) * (c - my),
            xx + (k as f64 - mx).powi(2),
        )
    });
    let slope = sxy / sxx;
    (slope > 0.0).then(|| mx + (BUDGET_MS - my) / slope)
}

/// Bisects the session count at which CPU per audio-second reaches
/// [`BUDGET_MS`].
pub fn search(wl: Workload, seed: u64, t: &mut Tracer) -> Result<Capacity, String> {
    let mut rig = Rig::start()?;
    let (first, max) = if wl.shared() {
        (256usize, 8192usize)
    } else {
        (16, 64)
    };
    let mut cap = Capacity::default();
    let mut lo = (0usize, 0.0f64);
    let mut hi: Option<(usize, f64)> = None;
    let mut k = first;
    loop {
        t.enter("capacity.probe", k as u64);
        let c = rig.probe(wl, seed, k, t);
        t.exit();
        let c = c?;
        cap.probes.push((k, c));
        if c <= BUDGET_MS {
            lo = (k, c);
        } else {
            hi = Some((k, c));
        }
        let Some((h, hc)) = hi else {
            if k >= max {
                cap.sessions = k as f64;
                break;
            }
            k = (2 * k).min(max);
            continue;
        };
        if h - lo.0 <= 1 || h as f64 <= lo.0 as f64 * (1.0 + TOLERANCE) {
            let frac = ((BUDGET_MS - lo.1) / (hc - lo.1)).clamp(0.0, 1.0);
            cap.sessions = lo.0 as f64 + frac * (h - lo.0) as f64;
            break;
        }
        k = (lo.0 + h) / 2;
    }
    if wl.shared() {
        // Sessions sharing cached sounds cost the same each, so CPU is
        // linear in their number: more probes around the bracket and a
        // line through all of them average out the noise of any one.
        let around = cap.sessions;
        for f in [0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15] {
            let k = (around * f).round().max(1.0) as usize;
            t.enter("capacity.probe", k as u64);
            let c = rig.probe(wl, seed, k, t);
            t.exit();
            cap.probes.push((k, c?));
        }
        let near: Vec<(usize, f64)> = cap
            .probes
            .iter()
            .copied()
            .filter(|&(k, _)| (0.7..=1.3).contains(&(k as f64 / around)))
            .collect();
        if let Some(k) = crossing(&near) {
            cap.sessions = k;
        }
    }
    rig.server.shutdown();
    Ok(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_of_a_noisy_line() {
        // 0.1 ms per session plus 5 ms fixed, with ±3% noise.
        let probes = [
            (256, 30.6 * 1.03),
            (512, 56.2 * 0.97),
            (1024, 107.4 * 1.02),
            (768, 81.8 * 0.98),
            (896, 94.6),
        ];
        let k = crossing(&probes).expect("rising line");
        assert!((k - 950.0).abs() < 30.0, "{k}");
        assert_eq!(crossing(&[(1, 5.0), (2, 4.0)]), None);
    }
}
