//! The load generator: one TCP connection, at most two threads. The
//! open-loop phase (`cruise`) sends on a schedule regardless of replies
//! and times each request from the instant it was *due*; the closed-loop
//! phase (`pipelined`) keeps a fixed number of requests outstanding.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use deepod_serve::{ServeClient, WireResponse};

use crate::gen::Od;

/// Sleep until this close to a due instant, then spin: a bare sleep
/// overshoots by the kernel's timer slack (~60 µs here).
const SPIN: Duration = Duration::from_micros(100);
/// A generator found this late after waiting for a due instant (not after
/// a slow send) was itself frozen — the whole sandbox was, since it shares
/// its two hardware threads with the server. It then moves the rest of
/// the schedule by the time lost instead of sending the backlog as one
/// burst, which would charge the host's freeze to the server's queue.
const FREEZE: Duration = Duration::from_millis(20);
/// A phase whose replies stop arriving fails after this long, so a lost
/// reply ends the run instead of hanging it.
const STALL: Duration = Duration::from_secs(20);

/// One request as the generator handled it.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    /// Correlation id (unique across the run).
    pub id: u64,
    /// Index into the workload's request table (for the reference).
    pub input: usize,
    /// When it was due (closed loop: when it was sent).
    pub due: Instant,
    /// When the send call started.
    pub send_start: Instant,
    /// When the send call returned.
    pub send_end: Instant,
}

/// One reply frame as received.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    /// Echoed id (`None`: a frame-level reject).
    pub id: Option<u64>,
    /// `eta_s` bits of an answered, non-degraded request.
    pub eta_bits: Option<u32>,
    /// When the frame had been read and parsed.
    pub at: Instant,
}

impl Reply {
    fn of(resp: &WireResponse, at: Instant) -> Reply {
        let eta_bits = match resp {
            WireResponse::Ok {
                eta_seconds,
                degraded: false,
                ..
            } => Some(eta_seconds.to_bits()),
            _ => None,
        };
        Reply {
            id: resp.id(),
            eta_bits,
            at,
        }
    }
}

/// What one phase sent and received, and how long it ran.
pub struct PhaseLog {
    /// Requests in send order.
    pub sent: Vec<Sent>,
    /// Replies in arrival order.
    pub replies: Vec<Reply>,
    /// First send to last reply, less the time the generator was frozen.
    pub wall: Duration,
    /// Time by which the generator moved its schedule after finding
    /// itself frozen (open loop only).
    pub frozen: Duration,
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        let Some(left) = due.checked_duration_since(now) else {
            return;
        };
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: request `i` of `inputs` is due at `start + schedule[i]`
/// and is sent then whether or not earlier replies have arrived. The
/// receiver thread collects exactly one frame per request.
pub fn cruise(
    addr: SocketAddr,
    table: &[Od],
    inputs: &[usize],
    schedule: &[Duration],
    first_id: u64,
) -> Result<PhaseLog, String> {
    let n = inputs.len().min(schedule.len());
    let client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (mut sender, mut receiver) = client.split();
    let (tx, rx) = mpsc::channel::<Result<Vec<Reply>, String>>();
    let collector = std::thread::spawn(move || {
        let mut replies = Vec::with_capacity(n);
        let outcome = (|| {
            for _ in 0..n {
                let resp = receiver.recv().map_err(|e| format!("recv: {e}"))?;
                replies.push(Reply::of(&resp, Instant::now()));
            }
            Ok(())
        })();
        let _ = tx.send(outcome.map(|()| replies));
    });
    let start = Instant::now() + Duration::from_millis(2);
    let mut sent: Vec<Sent> = Vec::with_capacity(n);
    let mut frozen = Duration::ZERO;
    for (i, (&input, &offset)) in inputs.iter().zip(schedule).enumerate() {
        let mut due = start + offset + frozen;
        wait_until(due);
        let id = first_id + i as u64;
        let send_start = Instant::now();
        let late = send_start.saturating_duration_since(due);
        if late > FREEZE && sent.last().is_none_or(|prev| prev.send_end <= due) {
            frozen += late;
            due = send_start;
        }
        sender
            .send(&table[input].wire(id))
            .map_err(|e| format!("send: {e}"))?;
        sent.push(Sent {
            id,
            input,
            due,
            send_start,
            send_end: Instant::now(),
        });
    }
    let replies = rx
        .recv_timeout(STALL)
        .map_err(|_| "replies stopped arriving".to_string())??;
    collector
        .join()
        .map_err(|_| "receiver thread panicked".to_string())?;
    let wall = replies
        .last()
        .map_or(Duration::ZERO, |r| r.at.saturating_duration_since(start))
        .saturating_sub(frozen);
    Ok(PhaseLog {
        sent,
        replies,
        wall,
        frozen,
    })
}

/// Closed loop: `window` requests outstanding for `duration`, each reply
/// immediately replaced by the next request of `inputs` (the phase ends
/// early if `inputs` runs out), then the window drains.
pub fn pipelined(
    addr: SocketAddr,
    table: &[Od],
    inputs: &[usize],
    window: usize,
    duration: Duration,
    first_id: u64,
) -> Result<PhaseLog, String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut sent: Vec<Sent> = Vec::with_capacity(inputs.len().min(1 << 20));
    let mut replies: Vec<Reply> = Vec::with_capacity(sent.capacity());
    let mut next = inputs.iter();
    let mut send_next = |client: &mut ServeClient, sent: &mut Vec<Sent>| -> Result<bool, String> {
        let Some(&input) = next.next() else {
            return Ok(false);
        };
        let id = first_id + sent.len() as u64;
        let send_start = Instant::now();
        client
            .send(&table[input].wire(id))
            .map_err(|e| format!("send: {e}"))?;
        sent.push(Sent {
            id,
            input,
            due: send_start,
            send_start,
            send_end: Instant::now(),
        });
        Ok(true)
    };
    let start = Instant::now();
    let deadline = start + duration;
    for _ in 0..window {
        if !send_next(&mut client, &mut sent)? {
            break;
        }
    }
    while replies.len() < sent.len() {
        let resp = client.recv().map_err(|e| format!("recv: {e}"))?;
        let at = Instant::now();
        replies.push(Reply::of(&resp, at));
        if at < deadline {
            send_next(&mut client, &mut sent)?;
        } else if at > deadline + STALL {
            return Err("window did not drain".into());
        }
    }
    Ok(PhaseLog {
        sent,
        replies,
        wall: start.elapsed(),
        frozen: Duration::ZERO,
    })
}

/// Outcome of checking one phase against the reference.
#[derive(Debug, Default, PartialEq)]
pub struct Verdict {
    /// Requests sent.
    pub attempted: usize,
    /// Requests without exactly one reply carrying the reference bits.
    pub failed: usize,
    /// Due-to-reply latency of each correct reply, milliseconds.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent relative to its due instant, ms.
    pub late_ms: Vec<f64>,
}

/// Checks that every request got exactly one reply and that the reply is
/// the reference answer, bit for bit. A failed, refused, missing, extra
/// or wrong reply is a failed operation and has no latency.
pub fn check(log: &PhaseLog, expected: impl Fn(usize) -> Option<u32>) -> Verdict {
    let base = log.sent.first().map_or(0, |s| s.id);
    // (reply count, bits and arrival of the first reply) per request.
    let mut seen: Vec<(usize, Option<u32>, Option<Instant>)> =
        vec![(0, None, None); log.sent.len()];
    let mut stray = 0usize;
    for r in &log.replies {
        let slot =
            r.id.and_then(|id| id.checked_sub(base))
                .and_then(|i| seen.get_mut(usize::try_from(i).ok()?));
        match slot {
            Some(slot) => {
                if slot.0 == 0 {
                    (slot.1, slot.2) = (r.eta_bits, Some(r.at));
                }
                slot.0 += 1;
            }
            None => stray += 1,
        }
    }
    let mut v = Verdict {
        attempted: log.sent.len(),
        failed: stray,
        ..Verdict::default()
    };
    for (s, (count, bits, at)) in log.sent.iter().zip(seen) {
        let want = expected(s.input);
        match at {
            Some(at) if count == 1 && want.is_some() && bits == want => {
                v.latency_ms
                    .push(at.saturating_duration_since(s.due).as_secs_f64() * 1e3);
            }
            _ => v.failed += 1,
        }
        v.late_ms
            .push(s.send_start.saturating_duration_since(s.due).as_secs_f64() * 1e3);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(replies: &[(Option<u64>, Option<u32>)]) -> PhaseLog {
        let t0 = Instant::now();
        let sent = (0..3)
            .map(|i| Sent {
                id: 100 + i,
                input: i as usize,
                due: t0,
                send_start: t0,
                send_end: t0,
            })
            .collect();
        let replies = replies
            .iter()
            .map(|&(id, eta_bits)| Reply {
                id,
                eta_bits,
                at: t0 + Duration::from_millis(4),
            })
            .collect();
        PhaseLog {
            sent,
            replies,
            wall: Duration::from_millis(4),
            frozen: Duration::ZERO,
        }
    }

    fn reference(i: usize) -> Option<u32> {
        Some([1.5f32, 2.5, 3.5][i].to_bits())
    }

    #[test]
    fn correct_replies_pass_with_one_latency_each() {
        let ok = log_of(&[
            (Some(100), reference(0)),
            (Some(102), reference(2)),
            (Some(101), reference(1)),
        ]);
        let v = check(&ok, reference);
        assert_eq!((v.attempted, v.failed, v.latency_ms.len()), (3, 0, 3));
        assert!(v.latency_ms.iter().all(|&ms| (ms - 4.0).abs() < 1e-9));
    }

    #[test]
    fn a_corrupted_reference_answer_fails_the_command() {
        let ok = log_of(&[
            (Some(100), reference(0)),
            (Some(101), reference(1)),
            (Some(102), reference(2)),
        ]);
        // Flip one bit of one reference answer: that request now fails,
        // and a failed request makes the process exit non-zero.
        let corrupted = |i| reference(i).map(|b| if i == 1 { b ^ 1 } else { b });
        let v = check(&ok, corrupted);
        assert_eq!((v.failed, v.latency_ms.len()), (1, 2));
        assert_ne!(crate::report::exit_code(v.failed == 0), 0);
        assert_eq!(
            crate::report::exit_code(check(&ok, reference).failed == 0),
            0
        );
    }

    #[test]
    fn missing_duplicate_refused_and_stray_replies_all_fail() {
        // 100 answered twice, 101 refused (no eta), 102 missing, plus a
        // frame-level reject without an id and one for an unknown id.
        let bad = log_of(&[
            (Some(100), reference(0)),
            (Some(100), reference(0)),
            (Some(101), None),
            (None, None),
            (Some(999), reference(0)),
        ]);
        let v = check(&bad, reference);
        assert_eq!((v.attempted, v.failed), (3, 5));
        assert!(v.latency_ms.is_empty());
    }
}
