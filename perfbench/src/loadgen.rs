//! Socket load generator for `esvm serve --socket`.
//!
//! `serve --socket` accepts one connection, so the generator is one
//! process with one connection and at most two threads: the caller's
//! thread writes and, in the pipelined and open-loop modes, a second
//! thread reads and timestamps the replies. Nothing spins: the closed
//! loop blocks in `read`, the open loop sleeps until each line is due,
//! so the generator never takes a processor away from the server.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::Child;
use std::thread;
use std::time::{Duration, Instant};

/// How long one reply may take before the session counts the rest as
/// missing; also bounds a blocked write to a stalled server.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection to a serving process.
pub struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

/// Polls `path` until the server listens. Fails if `child` exits first
/// or `timeout` passes. The pause between attempts is 2% of the time
/// waited so far (at least 50 µs): the start-up time is resolved to
/// about 2%, and the poller wakes rarely enough not to slow the
/// start-up it is timing.
pub fn connect_when_ready(
    path: &Path,
    child: &mut Child,
    timeout: Duration,
) -> Result<Conn, String> {
    let start = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Conn::new(stream).map_err(|e| format!("socket setup: {e}")),
            Err(e) if start.elapsed() >= timeout => {
                return Err(format!(
                    "no listener on {} after {timeout:?}: {e}",
                    path.display()
                ))
            }
            Err(_) => {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("esvm serve exited ({status}) before listening"));
                }
                thread::sleep((start.elapsed() / 50).max(Duration::from_micros(50)));
            }
        }
    }
}

impl Conn {
    fn new(stream: UnixStream) -> io::Result<Self> {
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Closes the write half: the server reads EOF, journals its final
    /// checkpoint and exits.
    pub fn close(self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// Reads up to `n` replies, stamping each with the seconds since
/// `epoch` at which it was read. Stops early at EOF or on an error,
/// which is returned beside the replies read so far.
fn read_replies(
    reader: &mut BufReader<UnixStream>,
    n: usize,
    epoch: Instant,
) -> (Vec<String>, Vec<f64>, Option<String>) {
    let mut replies = Vec::with_capacity(n);
    let mut stamps = Vec::with_capacity(n);
    let mut line = String::new();
    while replies.len() < n {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return (replies, stamps, Some("server closed the connection".into())),
            Ok(_) => {
                stamps.push(epoch.elapsed().as_secs_f64());
                replies.push(line.trim_end().to_owned());
            }
            Err(e) => return (replies, stamps, Some(format!("reading replies: {e}"))),
        }
    }
    (replies, stamps, None)
}

/// A closed-loop phase: each line is written only after the previous
/// reply arrived.
#[derive(Debug)]
pub struct Closed {
    /// One reply per answered line.
    pub replies: Vec<String>,
    /// Write-to-reply latency per answered line, in µs.
    pub latency_us: Vec<f64>,
    /// Seconds from the first write to the last reply.
    pub seconds: f64,
    /// Why the phase stopped early, if it did.
    pub error: Option<String>,
}

/// Runs `lines` (each ending in `\n`) as a closed loop.
pub fn closed(conn: &mut Conn, lines: &[String]) -> Closed {
    let mut out = Closed {
        replies: Vec::with_capacity(lines.len()),
        latency_us: Vec::with_capacity(lines.len()),
        seconds: 0.0,
        error: None,
    };
    let epoch = Instant::now();
    let mut reply = String::new();
    for line in lines {
        let start = Instant::now();
        if let Err(e) = conn.stream.write_all(line.as_bytes()) {
            out.error = Some(format!("writing requests: {e}"));
            break;
        }
        reply.clear();
        match conn.reader.read_line(&mut reply) {
            Ok(0) => {
                out.error = Some("server closed the connection".into());
                break;
            }
            Ok(_) => {
                out.latency_us.push(start.elapsed().as_secs_f64() * 1e6);
                out.replies.push(reply.trim_end().to_owned());
            }
            Err(e) => {
                out.error = Some(format!("reading replies: {e}"));
                break;
            }
        }
    }
    out.seconds = epoch.elapsed().as_secs_f64();
    out
}

/// A pipelined phase: every line is written back to back while the
/// second thread collects the replies.
#[derive(Debug)]
pub struct Pipelined {
    /// One reply per answered line.
    pub replies: Vec<String>,
    /// Seconds from the first write to the last reply.
    pub seconds: f64,
    /// Why the phase stopped early, if it did.
    pub error: Option<String>,
}

/// Runs `lines` (each ending in `\n`) pipelined.
pub fn pipelined(conn: &mut Conn, lines: &[String]) -> Pipelined {
    let Conn { stream, reader } = conn;
    let epoch = Instant::now();
    thread::scope(|s| {
        let collector = s.spawn(|| read_replies(reader, lines.len(), epoch));
        let mut writer = BufWriter::with_capacity(64 << 10, &*stream);
        let written = lines
            .iter()
            .try_for_each(|line| writer.write_all(line.as_bytes()))
            .and_then(|()| writer.flush());
        let (replies, stamps, read_error) = collector.join().expect("reply reader panicked");
        Pipelined {
            seconds: stamps.last().copied().unwrap_or(0.0),
            replies,
            error: written
                .err()
                .map(|e| format!("writing requests: {e}"))
                .or(read_error),
        }
    })
}

/// An open-loop phase at a fixed offered rate. Times are seconds since
/// the phase began.
#[derive(Debug)]
pub struct OpenLoop {
    /// One reply per answered line.
    pub replies: Vec<String>,
    /// When each line was due.
    pub due: Vec<f64>,
    /// When each line was written.
    pub sent: Vec<f64>,
    /// When each reply was read.
    pub replied: Vec<f64>,
    /// Why the phase stopped early, if it did.
    pub error: Option<String>,
}

/// Runs `lines` (each ending in `\n`) as an open loop: line `i` is due
/// `i / rate` seconds after the start and is written when due, or at
/// once if the generator is behind.
pub fn open_loop(conn: &mut Conn, lines: &[String], rate: f64) -> OpenLoop {
    let Conn { stream, reader } = conn;
    let epoch = Instant::now();
    thread::scope(|s| {
        let collector = s.spawn(|| read_replies(reader, lines.len(), epoch));
        let mut due = Vec::with_capacity(lines.len());
        let mut sent = Vec::with_capacity(lines.len());
        let mut write_error = None;
        for (i, line) in lines.iter().enumerate() {
            let at = i as f64 / rate;
            let now = epoch.elapsed().as_secs_f64();
            if now < at {
                thread::sleep(Duration::from_secs_f64(at - now));
            }
            sent.push(epoch.elapsed().as_secs_f64());
            due.push(at);
            if let Err(e) = (&*stream).write_all(line.as_bytes()) {
                write_error = Some(format!("writing requests: {e}"));
                sent.pop();
                due.pop();
                break;
            }
        }
        let (replies, replied, read_error) = collector.join().expect("reply reader panicked");
        OpenLoop {
            replies,
            due,
            sent,
            replied,
            error: write_error.or(read_error),
        }
    })
}

/// One open-loop request's latency, split by the generator's own
/// timestamps: `late + wait + service == latency`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Write time minus due time: how far the generator lagged.
    pub late: f64,
    /// Time the request sat behind the previous reply:
    /// `max(0, reply[i-1] - sent[i])`.
    pub wait: f64,
    /// `reply[i] - max(sent[i], reply[i-1])`.
    pub service: f64,
    /// Reply time minus due time.
    pub latency: f64,
}

/// Splits every answered request of an open-loop phase.
pub fn split(due: &[f64], sent: &[f64], replied: &[f64]) -> Vec<Split> {
    let mut previous = f64::NEG_INFINITY;
    due.iter()
        .zip(sent)
        .zip(replied)
        .map(|((&due, &sent), &reply)| {
            let split = Split {
                late: sent - due,
                wait: (previous - sent).max(0.0),
                service: reply - sent.max(previous),
                latency: reply - due,
            };
            previous = reply;
            split
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_parts_add_up_to_latency() {
        // Line 0 is served at once; line 1 is written while line 0 is
        // still in service and queues behind it; line 2 is written late,
        // after line 1's reply, so it waits for nothing.
        let due = [0.0, 0.001, 0.002];
        let sent = [0.0001, 0.0011, 0.0035];
        let replied = [0.0015, 0.0019, 0.0040];
        let parts = split(&due, &sent, &replied);
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert!(p.late >= 0.0 && p.wait >= 0.0 && p.service >= 0.0, "{p:?}");
            assert!(
                (p.late + p.wait + p.service - p.latency).abs() < 1e-12,
                "{p:?}"
            );
        }
        assert_eq!(parts[0].wait, 0.0);
        assert!((parts[1].wait - 0.0004).abs() < 1e-12);
        assert!((parts[1].service - 0.0004).abs() < 1e-12);
        assert_eq!(parts[2].wait, 0.0);
        assert!((parts[2].late - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn split_stops_at_the_last_reply() {
        assert_eq!(split(&[0.0, 1.0], &[0.0, 1.0], &[0.5]).len(), 1);
    }
}
