//! Everything a run feeds the server, generated from `--seed` alone: the
//! open-loop action schedule of the foreground user and the sound set.
//! The same seed always gives the same inputs.

use da_proto::types::{Encoding, SoundType};

/// splitmix64: small, fast and good enough to draw workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of a seed; distinct `stream`
    /// values give independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Foreground sessions open at any time; every session open closes the
/// oldest one, so the pool stays this size.
pub const FG_POOL: usize = 64;
/// Plays and control requests per second: 900 of each over a 15 s run,
/// so their medians sit within a few percent of the true ones (a play's
/// arrival phase is uniform over the 10 ms quantum).
pub const PLAY_RATE: f64 = 60.0;
/// Control requests per second.
pub const CTRL_RATE: f64 = 60.0;
/// Session opens per second: 300 over a 15 s run, enough for a p90 with
/// thirty beyond it. Every open and every close rebuilds the route plan
/// of all mapped roots (5 ms with `mix-shared`'s 464), so opens stay
/// rare enough that the engine lock is not mostly held by the user's own
/// rebuilds. At the 75/s a p99 would need, `mix-shared`'s latencies
/// measured that queue rather than the server.
pub const OPEN_RATE: f64 = 20.0;
/// A session takes no new play until its previous one, due this long ago,
/// has surely finished (a foreground message is one 10 ms quantum).
const PLAY_GUARD_US: u64 = 40_000;
/// A session is closed only when its last action is this old, so no
/// `PlayStarted` is ever outstanding on a destroyed player.
const CLOSE_GUARD_US: u64 = 100_000;

/// A blocking control request of the foreground user.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlOp {
    /// `QueryQueue` on the session's LOUD.
    QueryQueue,
    /// `QuerySound` on the session's message.
    QuerySound,
    /// `GetDeviceControl` on the session's player (slow path).
    GetDeviceControl,
    /// `Sync`.
    Sync,
}

/// One user action; sessions are named by their open ordinal (the first
/// [`FG_POOL`] are opened during set-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Replay the session's message.
    Play {
        /// Session ordinal.
        session: usize,
    },
    /// One blocking control round trip.
    Ctrl {
        /// Which request.
        op: CtrlOp,
        /// Session ordinal it targets.
        session: usize,
    },
    /// Open session `opened` (build its tree, upload its message, play
    /// it), then close session `close`.
    Open {
        /// Ordinal of the new session.
        opened: usize,
        /// Ordinal of the session closed.
        close: usize,
    },
}

/// An action and the time it is due, relative to the window start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Due time in microseconds after the window starts.
    pub due_us: u64,
    /// The action.
    pub action: Action,
}

/// The open-loop schedule of window `round`, `millis` long: Poisson
/// arrivals (a uniform draw of a fixed count per kind), independent of
/// how fast the server answers.
pub fn schedule(seed: u64, round: u64, millis: u64) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 0x100 + round);
    let span = millis * 1000;
    let mut arrivals: Vec<(u64, u8)> = Vec::new();
    for (kind, rate) in [(0u8, PLAY_RATE), (1, CTRL_RATE), (2, OPEN_RATE)] {
        for _ in 0..(rate * millis as f64 / 1000.0).round() as usize {
            arrivals.push(((rng.unit() * span as f64) as u64, kind));
        }
    }
    arrivals.sort_unstable();
    // (ordinal, due time of its last play or open), in open order; the
    // pool opened at set-up is idle when the window starts.
    let mut open: Vec<(usize, Option<u64>)> = (0..FG_POOL).map(|s| (s, None)).collect();
    let idle_for = |last: Option<u64>, guard: u64, now: u64| last.is_none_or(|l| l + guard <= now);
    let mut next_ordinal = FG_POOL;
    let mut plan = Vec::with_capacity(arrivals.len());
    for (due_us, kind) in arrivals {
        let action = match kind {
            0 => {
                let idle: Vec<usize> = (0..open.len())
                    .filter(|&i| idle_for(open[i].1, PLAY_GUARD_US, due_us))
                    .collect();
                let i = if idle.is_empty() {
                    (0..open.len())
                        .min_by_key(|&i| open[i].1)
                        .expect("pool is never empty")
                } else {
                    idle[rng.below(idle.len())]
                };
                open[i].1 = Some(due_us);
                Action::Play { session: open[i].0 }
            }
            1 => {
                let op = [
                    CtrlOp::QueryQueue,
                    CtrlOp::QuerySound,
                    CtrlOp::GetDeviceControl,
                    CtrlOp::Sync,
                ][rng.below(4)];
                Action::Ctrl {
                    op,
                    session: open[rng.below(open.len())].0,
                }
            }
            _ => {
                let i = (0..open.len())
                    .find(|&i| idle_for(open[i].1, CLOSE_GUARD_US, due_us))
                    .unwrap_or(0);
                let close = open.remove(i).0;
                let opened = next_ordinal;
                next_ordinal += 1;
                open.push((opened, Some(due_us)));
                Action::Open { opened, close }
            }
        };
        plan.push(Planned { due_us, action });
    }
    plan
}

/// The open-loop rule: the next action is issued as soon as it is due,
/// however late the generator is running, and none is skipped or
/// re-timed; so a stall charges every action due during it. Returns the
/// action's lateness when `elapsed_us` into the window it is due.
pub fn due_now(plan: &[Planned], next: usize, elapsed_us: u64) -> Option<u64> {
    let p = plan.get(next)?;
    (p.due_us <= elapsed_us).then(|| elapsed_us - p.due_us)
}

/// Frames in one foreground message: exactly one 10 ms quantum at 8 kHz,
/// so a play is one transcode-cache window and never overlaps the next.
pub const FG_MESSAGE_FRAMES: usize = 80;

/// The unique message of foreground session `ordinal`, µ-law encoded: a
/// seeded tone between 1.5 and 3.4 kHz under a Hann window, so its
/// energy stays clear of the shared tones the speaker check listens for.
pub fn fg_message(seed: u64, ordinal: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0x1000 + ordinal as u64);
    let freq = 1500.0 + rng.unit() * 1900.0;
    let n = FG_MESSAGE_FRAMES as f64;
    let pcm: Vec<i16> = (0..FG_MESSAGE_FRAMES)
        .map(|i| {
            let x = i as f64;
            let window = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * x / (n - 1.0)).cos();
            ((2.0 * std::f64::consts::PI * freq * x / 8000.0).sin() * 600.0 * window) as i16
        })
        .collect();
    da_alib::connection::encode_for(SoundType::TELEPHONE, &pcm)
}

/// Shared tones per workload: a handful of sounds everyone plays.
pub const SHARED_TONES: usize = 4;
/// Length of each shared tone; outlasts set-up plus both windows. Four
/// decode to 5.8 MB, well inside the 8 MiB transcode cache.
pub const SHARED_TONE_SECONDS: usize = 90;
/// Amplitude of one shared-tone copy: 100 in-phase copies of all four
/// tones still sum below full scale, so the mix never clips.
const SHARED_TONE_AMPLITUDE: f64 = 70.0;

/// Frequencies of the shared tones: seeded around 437/611/823/1093 Hz,
/// placed so that successive 10 ms start offsets give distinct phases.
pub fn shared_tone_freqs(seed: u64) -> [f64; SHARED_TONES] {
    let mut rng = Rng::new(seed, 2);
    let mut f = [437.0, 611.0, 823.0, 1093.0];
    for x in &mut f {
        *x += (rng.unit() * 40.0 - 20.0).round();
    }
    f
}

/// The µ-law bytes of shared tone `i`.
pub fn shared_tone(seed: u64, i: usize) -> Vec<u8> {
    let freq = shared_tone_freqs(seed)[i];
    let frames = SHARED_TONE_SECONDS * 8000;
    let pcm: Vec<i16> = (0..frames)
        .map(|n| {
            ((2.0 * std::f64::consts::PI * freq * n as f64 / 8000.0).sin() * SHARED_TONE_AMPLITUDE)
                as i16
        })
        .collect();
    da_alib::connection::encode_for(SoundType::TELEPHONE, &pcm)
}

/// Seconds of audio in one voicemail message. Sixteen 40 s messages
/// decode to 10.9 MB, 1.3 times the 8 MiB transcode cache; every session
/// then misses on every tick, and the engine still keeps real time with
/// room for the foreground user.
pub const VOICEMAIL_SECONDS: usize = 40;

/// The sound type of voicemail message `i`: mostly µ-law, with one IMA
/// ADPCM and one 16 kHz PCM16 message (resampled on playback) in every
/// sixteen, so the mix of types is the same for every seed. ADPCM and
/// 16 kHz messages cost several times a µ-law one per cache miss; more of
/// them would push sixteen sessions past real time.
pub fn voicemail_type(i: usize) -> SoundType {
    match i % 16 {
        5 => SoundType {
            encoding: Encoding::ImaAdpcm,
            sample_rate: 8000,
            channels: 1,
        },
        11 => SoundType {
            encoding: Encoding::Pcm16,
            sample_rate: 16_000,
            channels: 1,
        },
        _ => SoundType::TELEPHONE,
    }
}

/// Voicemail message `i` as linear PCM at its type's rate: seeded
/// low-passed noise under a syllable-rate envelope, a cheap stand-in
/// for speech that is distinct for every message.
pub fn voicemail_pcm(seed: u64, i: usize) -> Vec<i16> {
    let stype = voicemail_type(i);
    let rate = stype.sample_rate as usize;
    let mut rng = Rng::new(seed, 0x2000 + i as u64);
    let mut state = 0.0f64;
    let syllable = rate / 5;
    let mut level = 0.0;
    (0..VOICEMAIL_SECONDS * rate)
        .map(|n| {
            if n % syllable == 0 {
                level = 1000.0 + rng.unit() * 5000.0;
            }
            let white = (rng.next_u64() >> 48) as f64 / 32768.0 - 1.0;
            state += 0.25 * (white - state);
            (state * level * 2.0) as i16
        })
        .collect()
}

/// Voicemail message `i`, encoded in its type.
pub fn voicemail_message(seed: u64, i: usize) -> (SoundType, Vec<u8>) {
    let stype = voicemail_type(i);
    (
        stype,
        da_alib::connection::encode_for(stype, &voicemail_pcm(seed, i)),
    )
}

/// Sync-mark interval of background session `i`: 200 ms to 1 s, a whole
/// number of quanta so marks land on exact multiples.
pub fn sync_interval_frames(seed: u64, i: usize) -> u32 {
    let mut rng = Rng::new(seed, 0x3000 + i as u64);
    80 * (20 + rng.below(81) as u32)
}

/// Set-up tick at which background session `i` starts, spread over the
/// first `spread` ticks so neither the start events nor the sync marks
/// arrive in one burst.
pub fn start_tick(seed: u64, i: usize, spread: usize) -> usize {
    Rng::new(seed, 0x4000 + i as u64).below(spread)
}

/// The DTMF digits the remote caller sends.
pub fn dtmf_digits(seed: u64, n: usize) -> String {
    let keys = b"0123456789*#";
    let mut rng = Rng::new(seed, 5);
    (0..n)
        .map(|_| keys[rng.below(keys.len())] as char)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        assert_eq!(schedule(7, 0, 3000), schedule(7, 0, 3000));
        assert_ne!(schedule(7, 0, 3000), schedule(8, 0, 3000));
        assert_ne!(schedule(7, 0, 3000), schedule(7, 1, 3000));
        assert_eq!(fg_message(7, 3), fg_message(7, 3));
        assert_ne!(fg_message(7, 3), fg_message(8, 3));
        assert_eq!(shared_tone_freqs(7), shared_tone_freqs(7));
        assert_ne!(shared_tone_freqs(7), shared_tone_freqs(8));
        assert_eq!(voicemail_pcm(7, 4), voicemail_pcm(7, 4));
        assert_ne!(voicemail_pcm(7, 4), voicemail_pcm(8, 4));
        assert_eq!(dtmf_digits(7, 20), dtmf_digits(7, 20));
        assert_ne!(dtmf_digits(7, 20), dtmf_digits(8, 20));
    }

    #[test]
    fn schedule_keeps_the_pool_and_its_guards() {
        let plan = schedule(3, 0, 12_000);
        assert_eq!(
            plan.len(),
            ((PLAY_RATE + CTRL_RATE + OPEN_RATE) * 12.0).round() as usize
        );
        assert!(plan.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        let mut open: Vec<usize> = (0..FG_POOL).collect();
        let mut last = std::collections::HashMap::new();
        for p in &plan {
            match p.action {
                Action::Play { session } => {
                    assert!(open.contains(&session), "play on a closed session");
                    if let Some(prev) = last.insert(session, p.due_us) {
                        assert!(prev + PLAY_GUARD_US <= p.due_us, "play within the guard");
                    }
                }
                Action::Ctrl { session, .. } => {
                    assert!(open.contains(&session), "control on a closed session")
                }
                Action::Open { opened, close } => {
                    let at = open
                        .iter()
                        .position(|&s| s == close)
                        .expect("close an open one");
                    open.remove(at);
                    open.push(opened);
                    if let Some(prev) = last.get(&close) {
                        assert!(prev + CLOSE_GUARD_US <= p.due_us, "close within the guard");
                    }
                    last.insert(opened, p.due_us);
                }
            }
        }
        assert_eq!(open.len(), FG_POOL);
    }

    #[test]
    fn a_stall_is_charged_to_the_actions_due_during_it() {
        let plan: Vec<Planned> = (0..10)
            .map(|i| Planned {
                due_us: i * 1000,
                action: Action::Play { session: 0 },
            })
            .collect();
        let service_us = 100;
        let (mut clock, mut next) = (0u64, 0usize);
        let (mut from_due, mut from_send) = (Vec::new(), Vec::new());
        while next < plan.len() {
            if (2001..7500).contains(&clock) {
                clock = 7500; // the generator stalls from 2 ms to 7.5 ms
            }
            match due_now(&plan, next, clock) {
                Some(late) => {
                    from_due.push(late + service_us);
                    from_send.push(service_us);
                    clock += 10;
                    next += 1;
                }
                None => clock = plan[next].due_us,
            }
        }
        // On time before the stall; afterwards the backlog is issued at
        // once, each action charged from its own due time.
        assert_eq!(&from_due[..3], &[100, 100, 100]);
        assert_eq!(&from_due[3..8], &[4600, 3610, 2620, 1630, 640]);
        assert_eq!(&from_due[8..], &[100, 100]);
        // Timed from the send, the stall would vanish.
        assert!(from_send.iter().all(|&l| l == service_us));
    }

    #[test]
    fn voicemail_types_rotate() {
        assert_eq!(voicemail_type(0), SoundType::TELEPHONE);
        assert_eq!(voicemail_type(5).encoding, Encoding::ImaAdpcm);
        assert_eq!(voicemail_type(11).sample_rate, 16_000);
    }
}
