//! The load generator's side of the loopback sockets: a pipelined
//! preload, the standing-subscriber connection, and the open-loop phase
//! that sends on schedule from one thread and reads replies on another.

use crate::workload::Op;
use bytes::Bytes;
use nearpeer_bench::wire::FrameConn;
use nearpeer_core::codec;
use nearpeer_core::protocol::Message;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a reader waits for the server before declaring the rest of
/// a phase unanswered.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Nanoseconds since `epoch`.
pub fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// An error for a connection the server closed under us.
pub fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
}

/// The directory connection. Every op goes over it, so the server
/// answers them in send order. The framed reader and a raw writer share
/// one socket so that pacing and reading can run on separate threads.
pub struct DirConn {
    /// Framed reader (also usable for blocking request/reply calls).
    pub reader: FrameConn,
    writer: TcpStream,
}

impl DirConn {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        let reader = FrameConn::new(stream)?;
        reader.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self { reader, writer })
    }

    /// One request/reply round trip.
    pub fn call(&mut self, msg: &Message) -> io::Result<Message> {
        self.reader.send(msg)?;
        self.reader.recv()?.ok_or_else(closed)
    }
}

/// Closed-loop requests with up to `window` in flight; replies reach
/// `on_reply` in order. Used for set-up only, never for timed phases.
pub fn pipelined(
    conn: &mut FrameConn,
    msgs: &[Message],
    window: usize,
    mut on_reply: impl FnMut(usize, Message) -> io::Result<()>,
) -> io::Result<()> {
    let (mut sent, mut recvd) = (0usize, 0usize);
    while recvd < msgs.len() {
        while sent < msgs.len() && sent - recvd < window {
            conn.send(&msgs[sent])?;
            sent += 1;
        }
        let msg = conn.recv()?.ok_or_else(closed)?;
        on_reply(recvd, msg)?;
        recvd += 1;
    }
    Ok(())
}

/// The standing subscribers' connection. It stays idle during timed
/// phases: the pacing thread drains it without blocking between sends,
/// stamping each `DeltaPush` with its arrival time.
pub struct SubConn {
    conn: FrameConn,
    ctl: TcpStream,
    /// Every push received, with its arrival time (ns after the epoch).
    pub pushes: Vec<(u64, Message)>,
    pongs: Vec<u64>,
}

impl SubConn {
    /// Connects to a server (blocking mode, for the subscribe phase).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let ctl = stream.try_clone()?;
        let conn = FrameConn::new(stream)?;
        conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            conn,
            ctl,
            pushes: Vec::new(),
            pongs: Vec::new(),
        })
    }

    /// Subscribes every peer in `msgs` (pipelined), answering the acks in
    /// order, then switches the socket to non-blocking draining.
    pub fn subscribe(&mut self, msgs: &[Message], window: usize) -> io::Result<Vec<Message>> {
        let mut acks = Vec::with_capacity(msgs.len());
        pipelined(&mut self.conn, msgs, window, |_, msg| {
            acks.push(msg);
            Ok(())
        })?;
        self.ctl.set_nonblocking(true)?;
        Ok(acks)
    }

    /// Reads up to `max` frames that are already here, without blocking.
    pub fn poll(&mut self, epoch: Instant, max: usize) -> io::Result<()> {
        for _ in 0..max {
            match self.conn.recv() {
                Ok(Some(Message::ProbePong { nonce })) => self.pongs.push(nonce),
                Ok(Some(msg)) => self.pushes.push((now_ns(epoch), msg)),
                Ok(None) => return Err(closed()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Fences the push channel: the server flushes every queued push
    /// before answering a `ProbePing`, so once its pong is here, every
    /// delta queued before the ping has been received.
    pub fn fence(&mut self, epoch: Instant, nonce: u64) -> io::Result<()> {
        self.conn.send(&Message::ProbePing { nonce })?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while !self.pongs.contains(&nonce) {
            if Instant::now() > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "push fence"));
            }
            self.poll(epoch, usize::MAX)?;
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

/// What one open-loop phase observed.
pub struct PhaseOut {
    /// Actual send time of each op, ns after the epoch.
    pub sent_ns: Vec<u64>,
    /// Replies in arrival order, with their arrival times. The server
    /// answers in order, so reply `j` belongs to the `j`-th op that has
    /// a reply; replies missing at the end were never answered.
    pub replies: Vec<(u64, Message)>,
    /// CPU time the generator's two threads used, in clock ticks.
    pub cpu_ticks: u64,
    /// `(ops sent so far, probe reading)` at the start and at every
    /// [`PROBE_EVERY_NS`] of the phase, when a probe was given.
    pub probes: Vec<(usize, u64)>,
}

/// How often [`run_phase`] reads its probe.
pub const PROBE_EVERY_NS: u64 = 500_000_000;

/// Sends `ops` on their schedule and collects the replies.
///
/// The calling thread paces: it sleeps until the next op is due (so it
/// never spins on a core the server needs), writes the pre-encoded
/// frame, and between sends drains the subscriber connection, if any.
/// A second thread blocks on replies and stamps each one as it arrives.
/// `probe` (the server's CPU clock, say) is read by the pacing thread at
/// the first op and then every [`PROBE_EVERY_NS`], just before a send.
pub fn run_phase(
    dir: &mut DirConn,
    mut sub: Option<&mut SubConn>,
    epoch: Instant,
    ops: &[Op],
    frames: &[Bytes],
    probe: Option<&dyn Fn() -> u64>,
) -> io::Result<PhaseOut> {
    let expected = ops.iter().filter(|o| o.kind.has_reply()).count();
    let DirConn { reader, writer } = dir;
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let cpu0 = thread_cpu_ticks();
            let mut replies = Vec::with_capacity(expected);
            while replies.len() < expected {
                match reader.recv() {
                    Ok(Some(msg)) => replies.push((now_ns(epoch), msg)),
                    // Closed, timed out or broken: the rest is unanswered.
                    Ok(None) | Err(_) => break,
                }
            }
            (replies, thread_cpu_ticks().saturating_sub(cpu0))
        });
        let cpu0 = thread_cpu_ticks();
        let mut sent_ns = Vec::with_capacity(ops.len());
        let mut probes = Vec::new();
        let mut next_probe = ops.first().map_or(u64::MAX, |o| o.at_ns);
        let mut outcome = Ok(());
        for (i, (op, frame)) in ops.iter().zip(frames).enumerate() {
            let due = epoch + Duration::from_nanos(op.at_ns);
            loop {
                if let Some(sub) = sub.as_deref_mut() {
                    if let Err(e) = sub.poll(epoch, 64) {
                        outcome = Err(e);
                    }
                }
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep(due - now);
            }
            if let Some(read) = probe.filter(|_| op.at_ns >= next_probe) {
                probes.push((i, read()));
                next_probe += PROBE_EVERY_NS;
            }
            // Stamped before the write, so no reply can predate it.
            sent_ns.push(now_ns(epoch));
            if let Err(e) = writer.write_all(frame) {
                outcome = Err(e);
                break;
            }
        }
        let pace_ticks = thread_cpu_ticks().saturating_sub(cpu0);
        let (replies, rx_ticks) = receiver.join().expect("reply reader panicked");
        if let Some(read) = probe.filter(|_| outcome.is_ok()) {
            probes.push((ops.len(), read()));
        }
        outcome.map(|()| PhaseOut {
            sent_ns,
            replies,
            cpu_ticks: pace_ticks + rx_ticks,
            probes,
        })
    })
}

/// Encodes every op's frame ahead of time, so pacing only writes.
pub fn encode_all(ops: &[Op]) -> Vec<Bytes> {
    ops.iter().map(|o| codec::encode_to_bytes(&o.msg)).collect()
}

/// Asks the kernel to wake the main thread's sleeps without the default
/// 50 µs timer slack, so the ops it paces leave close to their due time.
/// Best effort: where the file is missing or read-only the default
/// slack stays.
pub fn tighten_timer_slack() -> bool {
    std::fs::write("/proc/self/timerslack_ns", "1").is_ok()
}

/// User plus system CPU of the calling thread, in clock ticks.
pub fn thread_cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .unwrap_or(0)
}

/// `utime + stime` from a `/proc/.../stat` line.
pub fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
pub const TICKS_PER_SEC: f64 = 100.0;
