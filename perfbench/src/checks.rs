//! Correctness checks after the window. Every failed check counts as a
//! failed operation; a run with any failure exits non-zero.

use crate::sched::{self, Rng};
use crate::spans::Tracer;
use crate::window::{Counters, UserOut};
use crate::world::{Workload, World};
use da_proto::event::EventMask;
use da_proto::request::Request;
use da_proto::types::SoundType;
use da_server::vdevice::ActiveOp;

/// What the checks observed, for the report and the cross-checks.
#[derive(Debug, Default)]
pub struct Checked {
    /// Sync marks the server should have sent (position / interval).
    pub marks_expected: u64,
    /// Sync marks received.
    pub marks_received: u64,
    /// DTMF digits detected over digits sent (1 when none were sent).
    pub dtmf_ratio: f64,
}

/// Runs every check that applies to the workload, booking the outcome in
/// the world's tally. `span` holds the counters before the first window
/// and after the last; `capture` is the speaker's last second of the
/// window that played the background alone or beside the user.
pub fn run(
    w: &mut World,
    user: &UserOut,
    span: (&Counters, &Counters),
    capture: &[i16],
    dtmf_sent: &str,
    t: &mut Tracer,
) -> Checked {
    let mut ck = Checked {
        dtmf_ratio: 1.0,
        ..Checked::default()
    };
    let tally = &mut w.tally;
    // Every foreground action got its reply or its PlayStarted.
    tally.add(user.plays + user.opens, user.unresolved);
    tally.add(w.lat.request_rtt_us.len() as u64 + user.errors, user.errors);
    // No event dropped, no client evicted, no speaker underrun.
    let (b, a) = span;
    for (what, n) in [
        ("events dropped", a.events_dropped - b.events_dropped),
        ("clients evicted", a.evicted - b.evicted),
        (
            "speaker underrun frames",
            a.underrun_frames - b.underrun_frames,
        ),
    ] {
        if n > 0 {
            eprintln!("perfbench: check failed: {n} {what}");
        }
        w.tally.check(n == 0);
    }
    marks(w, t, &mut ck);
    let errors = w.take_errors();
    w.tally.add(errors, errors);
    if w.workload.shared() {
        tones(w, capture);
    }
    if w.call.is_some() {
        let sent = dtmf_sent.as_bytes();
        let got = &w.dtmf_got;
        let matched = sent.iter().zip(got.iter()).filter(|(s, g)| s == g).count();
        ck.dtmf_ratio = matched as f64 / sent.len().max(1) as f64;
        let ok = got.as_slice() == sent;
        if !ok {
            eprintln!(
                "perfbench: check failed: DTMF sent {dtmf_sent:?}, detected {:?}",
                String::from_utf8_lossy(got)
            );
        }
        w.tally.check(ok);
    }
    if w.workload == Workload::Voicemail {
        let ok = voicemail_exact(w, t).unwrap_or_else(|e| {
            eprintln!("perfbench: voicemail replay: {e}");
            false
        });
        w.tally.check(ok);
    }
    ck
}

/// Every background player got exactly the marks its position implies,
/// at consecutive multiples of its interval.
fn marks(w: &mut World, t: &mut Tracer, ck: &mut Checked) {
    let players: Vec<u32> =
        w.bg.iter()
            .filter(|b| b.interval.is_some())
            .map(|b| b.player.0)
            .collect();
    if players.is_empty() {
        return;
    }
    let positions: Vec<Option<u64>> = w.control.with_core(|c| {
        players
            .iter()
            .map(|vid| match c.vdevs.get(vid).and_then(|v| v.op.as_ref()) {
                Some(ActiveOp::Play { pos, .. }) => Some(*pos),
                _ => None,
            })
            .collect()
    });
    // A Sync reply is queued behind every event sent before it.
    for c in 0..2 {
        if w.clients[c].sync(t).and_then(|_| w.pump(t, c)).is_err() {
            w.tally.check(false);
            return;
        }
    }
    let mut bad = 0u64;
    for (vid, pos) in players.iter().zip(positions) {
        let m = w.marks[vid];
        let Some(pos) = pos else {
            bad += 1;
            continue;
        };
        let expected = pos / m.interval;
        ck.marks_expected += expected;
        ck.marks_received += m.count;
        // The engine thread keeps ticking between the position read and
        // the Sync, so a couple of later marks may follow; none may miss.
        let slack = if w.workload.manual() { 0 } else { 2 };
        if m.gap || m.count < expected || m.count > expected + slack {
            bad += 1;
        }
    }
    if bad > 0 {
        eprintln!(
            "perfbench: check failed: sync marks wrong on {bad} of {} players",
            players.len()
        );
    }
    w.tally.add(players.len() as u64, bad);
}

/// Each shared tone stands out of the speaker capture by a wide margin.
fn tones(w: &mut World, capture: &[i16]) {
    let weakest = sched::shared_tone_freqs(w.seed)
        .iter()
        .map(|&f| {
            let on = da_dsp::analysis::goertzel_power(capture, 8000, f);
            let off = da_dsp::analysis::goertzel_power(capture, 8000, f + 37.0);
            on / off.max(1.0)
        })
        .fold(f64::INFINITY, f64::min);
    let ok = capture.len() == crate::window::CAPTURE_FRAMES && weakest > 100.0;
    if !ok {
        eprintln!("perfbench: check failed: shared tones missing from the speaker mix (weakest {weakest:.1}x its neighbour)");
    }
    w.tally.check(ok);
}

/// Replays one µ-law message alone after the window and compares the
/// speaker output with its decoded reference, sample for sample.
fn voicemail_exact(w: &mut World, t: &mut Tracer) -> Result<bool, String> {
    let e = |e: da_alib::AlibError| e.to_string();
    for b in w.bg.clone() {
        w.clients[b.conn]
            .send(t, Request::StopQueue { loud: b.loud })
            .map_err(e)?;
    }
    for c in 0..2 {
        w.clients[c].sync(t).map_err(e)?;
    }
    w.control.tick_n(2);
    let ulaw: Vec<usize> = (0..w.bg.len())
        .filter(|&i| sched::voicemail_type(i) == SoundType::TELEPHONE)
        .collect();
    let i = ulaw[Rng::new(w.seed, 6).below(ulaw.len())];
    let sound = w.bg[i].sound;
    let c = &mut w.clients[1];
    let (loud, player) = c.play_tree(t, EventMask::DEVICE).map_err(e)?;
    c.play(t, loud, player, sound).map_err(e)?;
    c.sync(t).map_err(e)?;
    let n = 8000usize;
    w.control.set_speaker_capture(0, n + 800);
    w.control.tick_n((n / 80 + 5) as u64);
    let cap = w.control.take_captured(0);
    w.pump(t, 1).map_err(e)?;
    let reference = da_alib::connection::decode_from(SoundType::TELEPHONE, &w.payloads[i].1);
    let Some(at) = cap.windows(8).position(|x| x == &reference[..8]) else {
        return Ok(false);
    };
    let ok = cap.get(at..at + n) == Some(&reference[..n]);
    if !ok {
        eprintln!(
            "perfbench: check failed: voicemail message {i} replay differs from its reference"
        );
    }
    Ok(ok)
}
