//! `perfbench` — open-loop, answer-verified serving benchmark for
//! `nearpeerd`.
//!
//! ```text
//! perfbench --workload query_1r|churn_1r|fed_4r --seed N --seconds S \
//!           --trace 0|1 --daemon PATH [--out DIR] [--git SHA] [--command CMD]
//! ```
//!
//! `--trace 0` spawns the daemon, preloads it, offers the workload's mix
//! as open-loop Poisson arrivals at a fixed rate for `--seconds`, then
//! sweeps the rate for the highest one that keeps the all-ops median
//! within 1 ms, and prints the end-to-end metrics. `--trace 1` serves the same
//! plane in-process through a timing decorator and prints the per-layer
//! split. Both verify every answer against the synchronous mirror after
//! the clock stops, check the server's frame counters against what was
//! sent, and print one JSON result object as the last stdout line.
//! All traffic crosses the loopback interface only.

mod client;
mod daemon;
mod stats;
mod trace;
mod verify;
mod workload;

use bytes::BytesMut;
use client::{encode_all, now_ns, pipelined, run_phase, DirConn, PhaseOut, SubConn};
use daemon::Daemon;
use nearpeer_bench::wire::Mirror;
use nearpeer_bench::{Swarm, SwarmConfig};
use nearpeer_core::codec;
use nearpeer_core::protocol::Message;
use nearpeer_core::telemetry::find_metric;
use nearpeer_core::{PeerId, ServerConfig};
use stats::{median_f, pct, ratio, sorted, Metrics};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use verify::Sent;
use workload::{Generator, Kind, Op, Spec, K, LANDMARKS, PRELOAD};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Requests in flight while preloading and subscribing (set-up only).
const SETUP_WINDOW: usize = 16;
/// The latency limit `max_rate_rps` is judged against: the all-ops
/// median. (A p99 limit is out of reach on a host whose scheduler stalls
/// idle threads for milliseconds: p99 stays above 1 ms at any rate.)
const P50_LIMIT_US: f64 = 1_000.0;
/// A run is invalid, not just slow, when its generator sent the median
/// op later than this: it no longer offered the stated load.
const LATE_P50_LIMIT_US: f64 = 500.0;
/// Length of one rate step of the sweep.
const STEP_NS: u64 = 500_000_000;
/// Length of one tracing-on or tracing-off block of the traced run.
const BLOCK_NS: u64 = 1_000_000_000;

/// End-to-end metrics in the result line: measured on every workload
/// and steady from run to run on a shared 2-core host. The latencies,
/// `max_rate_rps` and the churn-only delta latencies are printed beside
/// them but swing by a third or more between runs there, as the host's
/// scheduler stalls the server's threads, so they cannot gate a
/// regression. `server_cpu_us_per_op` is the median over the fixed
/// phase's 0.5 s blocks, so a burst of host load in one block does not
/// move it. On `query_1r` even that swings by about a third between
/// runs: its queries are so light that the cost of waking an idle core,
/// which depends on the host's load, is a large share of an op's CPU.
/// So `query_1r` runs on request but is not one of the gated workloads.
const END_TO_END: [&str; 3] = ["setup_s", "server_cpu_us_per_op", "server_rss_mb"];

/// Codec kinds timed by the traced run (every workload carries them).
const CODEC_KINDS: [&str; 5] = [
    "join-request",
    "join-reply",
    "query-request",
    "query-reply",
    "handover-request",
];

/// Per-layer metrics in the traced result line: the ones every workload
/// measures. Layers a workload bypasses report zero counts; their
/// timings appear in the printed table only where they ran.
fn per_layer_names() -> Vec<String> {
    let mut v: Vec<String> = ["loadgen.late_p99_us", "loadgen.cpu_util"]
        .map(String::from)
        .to_vec();
    for k in ["query", "join", "handover"] {
        v.push(format!("wire.rtt_us.{k}.p50"));
        v.push(format!("wire.rtt_us.{k}.p99"));
        v.push(format!("wire.self_us.{k}.p50"));
        v.push(format!("wire.reply_bytes.{k}"));
    }
    for k in CODEC_KINDS {
        v.push(format!("codec.encode_ns.{k}.p50"));
        v.push(format!("codec.decode_ns.{k}.p50"));
        v.push(format!("codec.frame_bytes.{k}"));
    }
    for k in ["query", "join", "handover"] {
        v.push(format!("runtime.handle_us.{k}.p50"));
        v.push(format!("runtime.handle_us.{k}.p99"));
        v.push(format!("runtime.self_us.{k}.p50"));
    }
    v.extend(
        [
            "runtime.mailbox.batch_size.p50",
            "runtime.mailbox.queue_depth.max",
            "runtime.mailbox.items_per_batch",
            "directory.register_us.p50",
            "directory.register_us.p99",
            "directory.handover_us.p50",
            "directory.handover_us.p99",
            "directory.query_us.p50",
            "directory.query_us.p99",
            "directory.cross_fills_per_query",
            "federation.regions_per_query",
            "subscription.deltas_per_op",
            "subscription.coalesced_ratio",
            "subscription.dropped",
            "subscription.queue_depth.max",
            "telemetry.scrape_us",
            "telemetry.exposition_bytes",
            "trace.overhead_pct",
        ]
        .map(String::from),
    );
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
    git: String,
    command: String,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut out = Self {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            daemon: PathBuf::from(".bench_build/release/nearpeerd"),
            out: PathBuf::from(".bench_out"),
            git: "unknown".into(),
            command: String::new(),
        };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            let mut value = || iter.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => out.workload = value()?,
                "--seed" => out.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => out.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--daemon" => out.daemon = value()?.into(),
                "--out" => out.out = value()?.into(),
                "--git" => out.git = value()?,
                "--command" => out.command = value()?,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if out.seconds == 0 {
            return Err("--seconds must be >= 1".into());
        }
        Ok(out)
    }
}

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

fn config() -> ServerConfig {
    ServerConfig {
        neighbor_count: K,
        ..ServerConfig::default()
    }
}

/// Every op sent in the timed phases, with what came back.
#[derive(Default)]
struct Log {
    ops: Vec<Op>,
    sent_ns: Vec<u64>,
    recv_ns: Vec<Option<u64>>,
    replies: Vec<Option<Message>>,
    traced: Vec<bool>,
    gen_cpu_ticks: u64,
}

impl Log {
    /// Appends one phase; returns the index range of its ops.
    fn absorb(&mut self, ops: Vec<Op>, out: PhaseOut, traced: bool) -> std::ops::Range<usize> {
        let start = self.ops.len();
        let mut replies = out.replies.into_iter();
        for (i, op) in ops.into_iter().enumerate() {
            let (recv, reply) = if op.kind.has_reply() {
                match replies.next() {
                    Some((t, m)) => (Some(t), Some(m)),
                    None => (None, None),
                }
            } else {
                (None, None)
            };
            self.sent_ns
                .push(out.sent_ns.get(i).copied().unwrap_or(u64::MAX));
            self.recv_ns.push(recv);
            self.replies.push(reply);
            self.traced.push(traced);
            self.ops.push(op);
        }
        self.gen_cpu_ticks += out.cpu_ticks;
        start..self.ops.len()
    }

    /// Latencies from intended send to reply, ns, of `kind` (all
    /// reply-bearing kinds when `None`) within `range`.
    fn latencies(&self, range: std::ops::Range<usize>, kind: Option<Kind>) -> Vec<u64> {
        sorted(range.filter_map(|i| {
            let op = &self.ops[i];
            if kind.is_some_and(|k| k != op.kind) {
                return None;
            }
            self.recv_ns[i].map(|r| r.saturating_sub(op.at_ns))
        }))
    }

    /// How late the generator sent each op, ns.
    fn lateness(&self, range: std::ops::Range<usize>) -> Vec<u64> {
        sorted(range.map(|i| self.sent_ns[i].saturating_sub(self.ops[i].at_ns)))
    }

    fn unanswered(&self, range: std::ops::Range<usize>) -> usize {
        range
            .filter(|&i| self.ops[i].kind.has_reply() && self.replies[i].is_none())
            .count()
    }
}

/// A preloaded server and the client's connections to it.
struct Session {
    dir: DirConn,
    sub: Option<SubConn>,
    acks: Vec<Message>,
    sent: Sent,
}

/// Preloads `addr` and subscribes the standing subscribers.
fn set_up(addr: SocketAddr, preload: &[Message], subscribes: &[Message]) -> io::Result<Session> {
    let mut dir = DirConn::connect(addr)?;
    let mut sent = Sent::default();
    let check = |i: usize, reply: Message| match reply {
        Message::JoinReply { .. } => Ok(()),
        other => Err(other_reply(&format!("preload join {i}"), &other)),
    };
    // Half the preload goes over a second connection, so both server
    // cores take part; it closes before the subscriber connection opens.
    let (first, second) = preload.split_at(preload.len() / 2);
    let mut extra = DirConn::connect(addr)?;
    std::thread::scope(|s| {
        let other_half = s.spawn(|| pipelined(&mut extra.reader, second, SETUP_WINDOW, check));
        let this_half = pipelined(&mut dir.reader, first, SETUP_WINDOW, check);
        other_half
            .join()
            .expect("preload thread panicked")
            .and(this_half)
    })?;
    drop(extra);
    sent.add("join-request", preload.len() as u64);
    let (sub, acks) = if subscribes.is_empty() {
        (None, Vec::new())
    } else {
        let mut sub = SubConn::connect(addr)?;
        let acks = sub.subscribe(subscribes, SETUP_WINDOW)?;
        sent.add("subscribe", subscribes.len() as u64);
        (Some(sub), acks)
    };
    Ok(Session {
        dir,
        sub,
        acks,
        sent,
    })
}

/// Acknowledged shutdown, then reaping.
fn stop(daemon: Daemon, mut session: Session) -> io::Result<()> {
    match session.dir.call(&Message::Shutdown { nonce: u64::MAX })? {
        Message::ProbePong { .. } => {}
        other => return Err(other_reply("shutdown", &other)),
    }
    drop(session);
    daemon.finish(Duration::from_secs(5))?;
    Ok(())
}

/// Fences both connections, so every op is applied and every delta it
/// queued has been received.
fn fence(session: &mut Session, epoch: Instant) -> io::Result<()> {
    match session.dir.call(&Message::ProbePing { nonce: 1 })? {
        Message::ProbePong { nonce: 1 } => {}
        other => return Err(other_reply("directory fence", &other)),
    }
    session.sent.add("probe-ping", 1);
    if let Some(sub) = session.sub.as_mut() {
        sub.fence(epoch, 2)?;
        session.sent.add("probe-ping", 1);
    }
    Ok(())
}

fn other_reply(what: &str, msg: &Message) -> io::Error {
    other(format!("{what} answered {}", msg.kind_name()))
}

/// One `StatsRequest`: the exposition and the round trip, µs.
fn scrape(session: &mut Session) -> io::Result<(String, f64)> {
    let t = Instant::now();
    match session.dir.call(&Message::StatsRequest { nonce: 3 })? {
        Message::StatsReply { text, .. } => Ok((text, t.elapsed().as_nanos() as f64 / 1e3)),
        other => Err(other_reply("stats request", &other)),
    }
}

fn join_msgs(gen: &Generator) -> Vec<Message> {
    gen.preload()
        .into_iter()
        .map(|(peer, path)| Message::JoinRequest { peer, path })
        .collect()
}

fn subscribe_msgs(subs: u64) -> Vec<Message> {
    (0..subs)
        .map(|p| Message::Subscribe {
            nonce: p,
            peer: PeerId(p),
            k: K as u16,
            min_interval_ms: 0,
        })
        .collect()
}

/// Ops of one phase at `rate` for `dur_ns`, due from a little after now.
fn next_phase(gen: &mut Generator, epoch: Instant, rate: f64, dur_ns: u64) -> Vec<Op> {
    let mut ops = gen.schedule(rate, 0, dur_ns);
    let base = now_ns(epoch) + 2_000_000;
    for op in &mut ops {
        op.at_ns += base;
    }
    ops
}

/// Delta latency: from a churn op's intended send to the first push on
/// the subscriber connection that names its peer (ns, sorted).
fn delta_latencies(
    log: &Log,
    range: std::ops::Range<usize>,
    pushes: &[(u64, Message)],
) -> Vec<u64> {
    let mut pending: HashMap<PeerId, Vec<u64>> = HashMap::new();
    for op in &log.ops[range] {
        let peer = match &op.msg {
            Message::JoinRequest { peer, .. }
            | Message::HandoverRequest { peer, .. }
            | Message::Leave { peer } => *peer,
            _ => continue,
        };
        pending.entry(peer).or_default().push(op.at_ns);
    }
    let mut out = Vec::new();
    for (arrival, push) in pushes {
        let Message::DeltaPush { added, removed, .. } = push else {
            continue;
        };
        for peer in added.iter().map(|n| &n.peer).chain(removed) {
            if let Some(times) = pending.get_mut(peer) {
                times.retain(|&at| {
                    let due = at <= *arrival;
                    if due {
                        out.push(arrival - at);
                    }
                    !due
                });
            }
        }
    }
    sorted(out)
}

/// Checks every answer of a run on a fresh mirror: `(replay, failed
/// acks + failed views)`.
fn verify_all(
    spec: &Spec,
    gen_preload: Vec<(PeerId, nearpeer_core::PeerPath)>,
    session_acks: &[Message],
    log: &Log,
    pushes: &[(u64, Message)],
) -> io::Result<(verify::Replay, usize)> {
    let mut mirror =
        Mirror::build(LANDMARKS, spec.regions, config()).map_err(|e| other(e.to_string()))?;
    mirror.register_all(gen_preload);
    let (views, bad_acks) = verify::check_acks(&mirror, session_acks);
    let replay = verify::replay(&mut mirror, &log.ops, &log.replies);
    let bad_views = if spec.subs > 0 {
        verify::check_views(&mirror, views, pushes)
    } else {
        0
    };
    Ok((replay, bad_acks + bad_views))
}

struct Report {
    metrics: Metrics,
    json_names: Vec<String>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    invalid: Option<String>,
}

/// The end-to-end run against a `nearpeerd` child process.
fn end_to_end(args: &Args, spec: &Spec) -> io::Result<Report> {
    let epoch = Instant::now();
    let empty =
        Mirror::build(LANDMARKS, spec.regions, config()).map_err(|e| other(e.to_string()))?;
    let mut gen = Generator::new(spec, args.seed, &empty, PRELOAD);
    drop(empty);
    let preload = join_msgs(&gen);
    let subscribes = subscribe_msgs(spec.subs);

    let mut setup_s = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let daemon = Daemon::spawn(&args.daemon, spec.regions)?;
        let session = set_up(daemon.addr, &preload, &subscribes)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            stop(daemon, session)?;
        } else {
            live = Some((daemon, session));
        }
    }
    let (daemon, mut session) = live.expect("SETUPS >= 1");

    // Fixed-rate phase.
    let mut log = Log::default();
    let ops = next_phase(&mut gen, epoch, spec.rate, args.seconds * 1_000_000_000);
    let frames = encode_all(&ops);
    session.sent.add_ops(&ops);
    let clock = daemon.cpu_clock()?;
    let read = move || clock.read();
    let out = run_phase(
        &mut session.dir,
        session.sub.as_mut(),
        epoch,
        &ops,
        &frames,
        Some(&read),
    )?;
    let cpu_blocks = per_op_blocks(&out.probes);
    // Peak memory at the fixed rate; the sweep's overloaded steps
    // queue work and would make the peak a matter of how far they got.
    let rss_kb = daemon.peak_rss_kb()?;
    let fixed = log.absorb(ops, out, false);
    let fixed_gen_ticks = log.gen_cpu_ticks;
    let fixed_secs = args.seconds as f64;

    // Rate sweep: doubling (or halving) from the fixed rate to bracket
    // the knee, then three bisections. A step passes when its
    // all-ops median stays within the limit over the whole step and over
    // its last quarter (no growing backlog), with every op answered.
    let mut notes = Vec::new();
    let step = |gen: &mut Generator, log: &mut Log, session: &mut Session, rate: f64| {
        std::thread::sleep(Duration::from_millis(20));
        let ops = next_phase(gen, epoch, rate, STEP_NS);
        let frames = encode_all(&ops);
        session.sent.add_ops(&ops);
        let n = ops.len() as f64;
        let out = run_phase(
            &mut session.dir,
            session.sub.as_mut(),
            epoch,
            &ops,
            &frames,
            None,
        )?;
        let range = log.absorb(ops, out, false);
        let tail = range.start + range.len() * 3 / 4..range.end;
        let p50 = pct(&log.latencies(range.clone(), None), 0.5) / 1e3;
        let tail_p50 = pct(&log.latencies(tail, None), 0.5) / 1e3;
        let pass = p50 <= P50_LIMIT_US && tail_p50 <= P50_LIMIT_US && log.unanswered(range) == 0;
        io::Result::Ok((pass, n / (STEP_NS as f64 / 1e9), p50))
    };
    // A failing step runs once more before it counts: one scheduler stall
    // of the host should not end the sweep.
    let step = |gen: &mut Generator, log: &mut Log, session: &mut Session, rate: f64| {
        let first = step(gen, log, session, rate)?;
        if first.0 {
            return Ok(first);
        }
        step(gen, log, session, rate)
    };
    let (mut lo, mut hi) = (None::<f64>, None::<f64>);
    let mut best = 0.0f64;
    let mut factor = 2.0f64;
    for _ in 0..5 {
        let (pass, achieved, p50) = step(&mut gen, &mut log, &mut session, spec.rate * factor)?;
        notes.push(format!(
            "sweep {:.0}/s: p50 {p50:.0} us {}",
            spec.rate * factor,
            if pass { "pass" } else { "fail" }
        ));
        if pass {
            lo = Some(factor);
            best = best.max(achieved);
            if hi.is_some() {
                break;
            }
            factor *= 2.0;
        } else {
            hi = Some(factor);
            if lo.is_some() {
                break;
            }
            factor /= 2.0;
        }
    }
    if let (Some(mut l), Some(mut h)) = (lo, hi) {
        for _ in 0..3 {
            let mid = (l * h).sqrt();
            let (pass, achieved, p50) = step(&mut gen, &mut log, &mut session, spec.rate * mid)?;
            notes.push(format!(
                "sweep {:.0}/s: p50 {p50:.0} us {}",
                spec.rate * mid,
                if pass { "pass" } else { "fail" }
            ));
            if pass {
                l = mid;
                best = best.max(achieved);
            } else {
                h = mid;
            }
        }
    }

    fence(&mut session, epoch)?;
    let (exposition, _) = scrape(&mut session)?;
    let conservation = session.sent.mismatches(&exposition);
    let pushes = session
        .sub
        .as_mut()
        .map(|s| std::mem::take(&mut s.pushes))
        .unwrap_or_default();
    let acks = std::mem::take(&mut session.acks);
    stop(daemon, session)?;

    // The clock has stopped: check every answer.
    let t = Instant::now();
    let (replay, bad_views) = verify_all(spec, gen.preload(), &acks, &log, &pushes)?;
    notes.push(format!("verified in {:.1} s", t.elapsed().as_secs_f64()));
    let failed = replay.failures() + bad_views + conservation.len();
    notes.extend(replay.examples.iter().cloned());
    notes.extend(conservation);

    let mut m = Metrics::default();
    m.put("setup_s", median_f(&setup_s), "s");
    notes.push(format!(
        "set-ups: {}",
        setup_s
            .iter()
            .map(|v| format!("{v:.2} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let us = |v: &[u64], q: f64| pct(v, q) / 1e3;
    let join = log.latencies(fixed.clone(), Some(Kind::Join));
    let handover = log.latencies(fixed.clone(), Some(Kind::Handover));
    let query = log.latencies(fixed.clone(), Some(Kind::Query));
    m.put("join_p50_us", us(&join, 0.5), "us");
    m.put("join_p99_us", us(&join, 0.99), "us");
    m.put("handover_p99_us", us(&handover, 0.99), "us");
    m.put("query_p50_us", us(&query, 0.5), "us");
    m.put("query_p99_us", us(&query, 0.99), "us");
    m.put("max_rate_rps", best, "1/s");
    let fixed_ops = fixed.len() as f64;
    m.put("server_cpu_us_per_op", median_f(&cpu_blocks), "us");
    notes.push(format!(
        "server cpu us/op per {} ms block: {}",
        client::PROBE_EVERY_NS / 1_000_000,
        cpu_blocks
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    m.put("server_rss_mb", rss_kb as f64 / 1024.0, "MB");
    if spec.subs > 0 {
        let deltas = delta_latencies(&log, fixed.clone(), &pushes);
        m.put("delta_p50_us", us(&deltas, 0.5), "us");
        m.put("delta_p99_us", us(&deltas, 0.99), "us");
        m.put("delta_samples", deltas.len() as f64, "count");
    }
    scrape_counts(&mut m, &exposition);
    let attempted = log.ops.len() as u64;
    m.put(
        "fail_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    m.put("attempted", attempted as f64, "count");
    m.put("join_samples", join.len() as f64, "count");
    m.put("handover_samples", handover.len() as f64, "count");
    m.put("query_samples", query.len() as f64, "count");
    m.put(
        "all_p99_us",
        us(&log.latencies(fixed.clone(), None), 0.99),
        "us",
    );
    let late = log.lateness(fixed.clone());
    m.put("loadgen.late_p99_us", us(&late, 0.99), "us");
    m.put(
        "loadgen.cpu_util",
        fixed_gen_ticks as f64 / client::TICKS_PER_SEC / fixed_secs,
        "ratio",
    );
    m.put("offered_rate_rps", fixed_ops / fixed_secs, "1/s");
    match round1_sim(args.seed) {
        Ok((p50, p99)) => {
            m.put("round1_sim_ms.p50", p50, "ms");
            m.put("round1_sim_ms.p99", p99, "ms");
            m.put(
                "join_p99_over_round1_p99",
                ratio(us(&join, 0.99) / 1e3, p99),
                "ratio",
            );
        }
        Err(e) => notes.push(format!("round-1 simulation skipped: {e}")),
    }
    m.put("loadgen.late_p50_us", us(&late, 0.5), "us");
    let invalid = (us(&late, 0.5) > LATE_P50_LIMIT_US).then(|| {
        format!(
            "generator fell behind its schedule: late p50 {:.0} us > {LATE_P50_LIMIT_US:.0} us",
            us(&late, 0.5)
        )
    });
    Ok(Report {
        metrics: m,
        json_names: END_TO_END.map(String::from).to_vec(),
        attempted,
        failed: failed as u64,
        notes,
        invalid,
    })
}

/// Server CPU per op, µs, of each stretch between two probe readings
/// `(ops sent, CPU ns)`.
fn per_op_blocks(probes: &[(usize, u64)]) -> Vec<f64> {
    probes
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| w[1].1.saturating_sub(w[0].1) as f64 / 1e3 / (w[1].0 - w[0].0) as f64)
        .collect()
}

/// Simulated round-1 traceroute time of a small seeded swarm, ms
/// `(p50, p99)`: the paper's first round, beside the live second one.
fn round1_sim(seed: u64) -> Result<(f64, f64), String> {
    use nearpeer_topology::generators::{mapper, MapperConfig};
    let peers = 300;
    let topo = mapper(&MapperConfig::with_access(200, peers * 13 / 10 + 16), seed)
        .map_err(|e| e.to_string())?;
    let config = SwarmConfig {
        n_peers: peers,
        n_landmarks: LANDMARKS,
        neighbor_count: K,
        trace_threads: Some(1),
        ..SwarmConfig::default()
    };
    let swarm = Swarm::build(&topo, &config, seed)?;
    let t = sorted(swarm.join_cost.values().map(|c| c.trace_elapsed_us));
    Ok((pct(&t, 0.5) / 1e3, pct(&t, 0.99) / 1e3))
}

/// Median per-call time of `f` over `msgs`, ns, timing `reps` calls per
/// message so the clock read is amortised.
fn time_calls<T>(items: &[T], reps: u32, mut f: impl FnMut(&T)) -> f64 {
    let per = sorted(items.iter().map(|item| {
        let t = Instant::now();
        for _ in 0..reps {
            f(item);
        }
        t.elapsed().as_nanos() as u64 / u64::from(reps)
    }));
    pct(&per, 0.5)
}

/// Times the codec on up to `N` of the run's messages of each kind. A
/// decode also copies the frame into a fresh buffer, as the decoder
/// consumes its input.
fn codec_layer(m: &mut Metrics, log: &Log, pushes: &[(u64, Message)]) {
    const N: usize = 1_000;
    let mut by_kind: HashMap<&'static str, Vec<&Message>> = HashMap::new();
    let all = log
        .ops
        .iter()
        .map(|o| &o.msg)
        .chain(log.replies.iter().flatten())
        .chain(pushes.iter().map(|p| &p.1));
    for msg in all {
        let v = by_kind.entry(msg.kind_name()).or_default();
        if v.len() < N {
            v.push(msg);
        }
    }
    for kind in CODEC_KINDS.iter().copied().chain(["delta-push"]) {
        let Some(msgs) = by_kind.get(kind) else {
            continue;
        };
        let frames: Vec<_> = msgs.iter().map(|m| codec::encode_to_bytes(m)).collect();
        let enc = time_calls(msgs, 8, |m| {
            black_box(codec::encode_to_bytes(black_box(m)));
        });
        let dec = time_calls(&frames, 8, |f| {
            let mut buf = BytesMut::from(&f[..]);
            black_box(codec::decode(black_box(&mut buf)).expect("own frame decodes"));
        });
        let bytes = ratio(
            frames.iter().map(|f| f.len() as f64).sum(),
            frames.len() as f64,
        );
        m.put(format!("codec.encode_ns.{kind}.p50"), enc, "ns");
        m.put(format!("codec.decode_ns.{kind}.p50"), dec, "ns");
        m.put(format!("codec.frame_bytes.{kind}"), bytes, "bytes");
    }
}

/// Reads a scraped value (`0` when the server does not export it).
fn scraped(text: &str, name: &str) -> f64 {
    find_metric(text, name).unwrap_or(0) as f64
}

/// Records the server's own counts behind the ratios, as scraped.
fn scrape_counts(m: &mut Metrics, exposition: &str) {
    for base in [
        "mailbox_items_total",
        "mailbox_batches_total",
        "dir_queries_total",
        "dir_cross_landmark_fills_total",
        "fed_queries_total",
        "fed_remote_regions_consulted_total",
        "fed_cross_region_fills_total",
        "sub_pushed_total",
        "sub_coalesced_total",
        "sub_dropped_to_coalesce_total",
    ] {
        let labelled: f64 = scraped_all(exposition, base, "").iter().sum();
        m.put(
            format!("scrape.{base}"),
            scraped(exposition, base) + labelled,
            "count",
        );
    }
}

/// Every scraped value of `base` across its label sets (e.g. one per
/// mailbox), keeping the lines whose labels contain `with`.
fn scraped_all(text: &str, base: &str, with: &str) -> Vec<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(name, _)| {
            name.strip_prefix(base)
                .is_some_and(|rest| rest.starts_with('{') && rest.contains(with))
        })
        .filter_map(|(_, v)| v.trim().parse::<f64>().ok())
        .collect()
}

/// The traced run: the same plane served in-process through the timing
/// decorator, tracing toggled on and off in alternate one-second blocks
/// so its overhead is measured in the same run.
fn traced(args: &Args, spec: &Spec) -> io::Result<Report> {
    let epoch = Instant::now();
    let empty =
        Mirror::build(LANDMARKS, spec.regions, config()).map_err(|e| other(e.to_string()))?;
    let mut gen = Generator::new(spec, args.seed, &empty, PRELOAD);
    drop(empty);
    let preload = join_msgs(&gen);
    let subscribes = subscribe_msgs(spec.subs);
    // The directory connection, the preload's second one, and the
    // subscribers' one.
    let conns = if spec.subs > 0 { 3 } else { 2 };
    let server = trace::InProcess::start(spec.regions, conns, epoch)?;
    let mut session = set_up(server.addr, &preload, &subscribes)?;

    let mut log = Log::default();
    let blocks = args.seconds.max(2);
    for b in 0..blocks {
        let on = b % 2 == 1;
        server.service.set_tracing(on);
        let ops = next_phase(&mut gen, epoch, spec.rate, BLOCK_NS);
        let frames = encode_all(&ops);
        session.sent.add_ops(&ops);
        let out = run_phase(
            &mut session.dir,
            session.sub.as_mut(),
            epoch,
            &ops,
            &frames,
            None,
        )?;
        log.absorb(ops, out, on);
    }
    server.service.set_tracing(false);
    fence(&mut session, epoch)?;
    let (exposition, scrape_us) = scrape(&mut session)?;
    let conservation = session.sent.mismatches(&exposition);
    let pushes = session
        .sub
        .as_mut()
        .map(|s| std::mem::take(&mut s.pushes))
        .unwrap_or_default();
    let acks = std::mem::take(&mut session.acks);
    let (handles, drains) = server.service.take_spans();
    drop(session);
    server.join();

    let (replay, bad_views) = verify_all(spec, gen.preload(), &acks, &log, &pushes)?;
    let failed = replay.failures() + bad_views + conservation.len();
    let mut notes: Vec<String> = replay.examples.clone();
    notes.extend(conservation);

    // Join the decorator's spans to the client's ops: the service counts
    // directory ops from the first preload join.
    let handle_of: HashMap<usize, (u64, u64)> = handles
        .iter()
        .filter_map(|s| {
            let i = usize::try_from(s.id.checked_sub(PRELOAD)?).ok()?;
            Some((i, (s.start_ns, s.end_ns)))
        })
        .collect();
    let all = 0..log.ops.len();
    let traced_ops: Vec<usize> = all
        .clone()
        .filter(|&i| log.traced[i] && log.recv_ns[i].is_some())
        .collect();

    let mut m = Metrics::default();
    let us = |v: &[u64], q: f64| pct(v, q) / 1e3;
    let on: Vec<usize> = all.clone().filter(|&i| log.traced[i]).collect();
    let late = sorted(
        on.iter()
            .map(|&i| log.sent_ns[i].saturating_sub(log.ops[i].at_ns)),
    );
    m.put("loadgen.late_p99_us", us(&late, 0.99), "us");
    m.put(
        "loadgen.cpu_util",
        log.gen_cpu_ticks as f64 / client::TICKS_PER_SEC / blocks as f64,
        "ratio",
    );
    let mut span_rows = Vec::new();
    for kind in Kind::ALL {
        let of_kind: Vec<usize> = traced_ops
            .iter()
            .copied()
            .filter(|&i| log.ops[i].kind == kind)
            .collect();
        let rtt = sorted(
            of_kind
                .iter()
                .map(|&i| log.recv_ns[i].unwrap().saturating_sub(log.sent_ns[i])),
        );
        let handle = sorted(
            all.clone()
                .filter(|&i| log.ops[i].kind == kind)
                .filter_map(|i| handle_of.get(&i).map(|(s, e)| e - s)),
        );
        let wire_self = sorted(of_kind.iter().filter_map(|&i| {
            let (s, e) = handle_of.get(&i)?;
            log.recv_ns[i]?
                .saturating_sub(log.sent_ns[i])
                .checked_sub(e - s)
        }));
        let runtime_self = sorted(all.clone().filter(|&i| log.ops[i].kind == kind).filter_map(
            |i| {
                let (s, e) = handle_of.get(&i)?;
                Some((e - s).saturating_sub(replay.dir_ns[i]))
            },
        ));
        let dir = sorted(
            all.clone()
                .filter(|&i| log.ops[i].kind == kind)
                .map(|i| replay.dir_ns[i]),
        );
        let k = kind.name();
        if kind.has_reply() {
            m.put(format!("wire.rtt_us.{k}.p50"), us(&rtt, 0.5), "us");
            m.put(format!("wire.rtt_us.{k}.p99"), us(&rtt, 0.99), "us");
            m.put(format!("wire.self_us.{k}.p50"), us(&wire_self, 0.5), "us");
            let bytes: Vec<f64> = of_kind
                .iter()
                .filter_map(|&i| log.replies[i].as_ref())
                .map(|r| codec::encode_to_bytes(r).len() as f64)
                .collect();
            m.put(
                format!("wire.reply_bytes.{k}"),
                ratio(bytes.iter().sum(), bytes.len() as f64),
                "bytes",
            );
        }
        if !handle.is_empty() {
            m.put(format!("runtime.handle_us.{k}.p50"), us(&handle, 0.5), "us");
            m.put(
                format!("runtime.handle_us.{k}.p99"),
                us(&handle, 0.99),
                "us",
            );
            m.put(
                format!("runtime.self_us.{k}.p50"),
                us(&runtime_self, 0.5),
                "us",
            );
        }
        let dir_name = match kind {
            Kind::Query => "query_us",
            Kind::Join => "register_us",
            Kind::Handover => "handover_us",
            Kind::Leave => "leave_us",
        };
        if !dir.is_empty() {
            m.put(format!("directory.{dir_name}.p50"), us(&dir, 0.5), "us");
            m.put(format!("directory.{dir_name}.p99"), us(&dir, 0.99), "us");
        }
        if kind == Kind::Query && spec.regions > 1 {
            m.put("federation.query_us.p50", us(&handle, 0.5), "us");
            m.put("federation.query_us.p99", us(&handle, 0.99), "us");
            m.put("federation.sync_query_us.p50", us(&dir, 0.5), "us");
            m.put("federation.rpc_self_us.p50", us(&runtime_self, 0.5), "us");
        }
    }
    for &i in &traced_ops {
        let recv = log.recv_ns[i].unwrap();
        span_rows.push(format!("{i},request,,{},{recv}", log.ops[i].at_ns));
        span_rows.push(format!("{i},wire.rtt,request,{},{recv}", log.sent_ns[i]));
        if let Some((s, e)) = handle_of.get(&i) {
            span_rows.push(format!("{i},runtime.handle,wire.rtt,{s},{e}"));
            span_rows.push(format!(
                "{i},directory.replay,runtime.handle,0,{}",
                replay.dir_ns[i]
            ));
        }
    }
    codec_layer(&mut m, &log, &pushes);
    // Mailboxes are labelled per actor kind; report the busiest.
    let max_of = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    m.put(
        "runtime.mailbox.batch_size.p50",
        max_of(scraped_all(
            &exposition,
            "mailbox_batch_size",
            "quantile=\"0.5\"",
        )),
        "count",
    );
    m.put(
        "runtime.mailbox.queue_depth.max",
        max_of(scraped_all(&exposition, "mailbox_queue_depth_peak", "")),
        "count",
    );
    m.put(
        "runtime.mailbox.items_per_batch",
        ratio(
            scraped_all(&exposition, "mailbox_items_total", "")
                .iter()
                .sum(),
            scraped_all(&exposition, "mailbox_batches_total", "")
                .iter()
                .sum(),
        ),
        "count",
    );
    m.put(
        "directory.cross_fills_per_query",
        ratio(
            scraped(&exposition, "dir_cross_landmark_fills_total"),
            scraped(&exposition, "dir_queries_total"),
        ),
        "ratio",
    );
    m.put(
        "federation.regions_per_query",
        ratio(
            scraped(&exposition, "fed_remote_regions_consulted_total"),
            scraped(&exposition, "fed_queries_total"),
        ),
        "count",
    );
    let churn_ops = log
        .ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Join | Kind::Handover | Kind::Leave))
        .count();
    let pushed = scraped(&exposition, "sub_pushed_total");
    m.put(
        "subscription.deltas_per_op",
        ratio(pushed, churn_ops as f64),
        "ratio",
    );
    m.put(
        "subscription.coalesced_ratio",
        ratio(scraped(&exposition, "sub_coalesced_total"), pushed),
        "ratio",
    );
    m.put(
        "subscription.dropped",
        scraped(&exposition, "sub_dropped_to_coalesce_total"),
        "count",
    );
    m.put(
        "subscription.queue_depth.max",
        scraped(&exposition, "sub_queue_depth_peak"),
        "count",
    );
    if !drains.is_empty() {
        let d = sorted(drains.iter().map(|s| s.end_ns - s.start_ns));
        m.put("subscription.drain_us.p50", us(&d, 0.5), "us");
        m.put(
            "subscription.pushes_per_drain",
            ratio(
                drains.iter().map(|s| s.id as f64).sum(),
                drains.len() as f64,
            ),
            "count",
        );
    }
    scrape_counts(&mut m, &exposition);
    m.put("telemetry.scrape_us", scrape_us, "us");
    m.put(
        "telemetry.exposition_bytes",
        exposition.len() as f64,
        "bytes",
    );
    let e2e = |traced: bool| {
        let idx: Vec<usize> = all.clone().filter(|&i| log.traced[i] == traced).collect();
        sorted(
            idx.iter()
                .filter_map(|&i| Some(log.recv_ns[i]?.saturating_sub(log.ops[i].at_ns))),
        )
    };
    let (off, on_lat) = (e2e(false), e2e(true));
    m.put(
        "trace.overhead_pct",
        ratio(pct(&on_lat, 0.5) - pct(&off, 0.5), pct(&off, 0.5)) * 100.0,
        "%",
    );
    // Accounting: per traced op, wire self + runtime self + directory is
    // the round trip by construction; the table shows the mean split.
    let mean = |f: &dyn Fn(usize) -> Option<u64>| {
        let v: Vec<f64> = traced_ops
            .iter()
            .filter_map(|&i| f(i))
            .map(|x| x as f64)
            .collect();
        ratio(v.iter().sum(), v.len() as f64) / 1e3
    };
    let rtt_mean = mean(&|i| Some(log.recv_ns[i]?.saturating_sub(log.sent_ns[i])));
    let handle_mean = mean(&|i| handle_of.get(&i).map(|(s, e)| e - s));
    let dir_mean = mean(&|i| handle_of.get(&i).map(|_| replay.dir_ns[i]));
    notes.push(format!(
        "traced round trip, mean: {rtt_mean:.1} us = wire self {:.1} + runtime self {:.1} + directory {dir_mean:.1}",
        rtt_mean - handle_mean,
        handle_mean - dir_mean
    ));
    write_spans(args, spec, &span_rows, &drains);

    Ok(Report {
        metrics: m,
        json_names: per_layer_names(),
        attempted: log.ops.len() as u64,
        failed: failed as u64,
        notes,
        invalid: None,
    })
}

/// Writes the traced run's spans (`id,name,parent,start_ns,end_ns`) under
/// the output directory. Best effort: the result line does not need it.
fn write_spans(args: &Args, spec: &Spec, rows: &[String], drains: &[trace::Span]) {
    let mut text = String::from("id,name,parent,start_ns,end_ns\n");
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    for d in drains {
        text.push_str(&format!(
            "{},subscription.drain,,{},{}\n",
            d.id, d.start_ns, d.end_ns
        ));
    }
    let path = args
        .out
        .join(format!("{}-seed{}-spans.csv", spec.name, args.seed));
    if std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, text))
        .is_err()
    {
        eprintln!("perfbench: could not write {}", path.display());
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|x| x.1.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, spec: &Spec) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rate_rps\": {}, \
         \"regions\": {}, \"preload\": {PRELOAD}, \"subscribers\": {}, \"transport\": \"loopback\", \
         \"load_model\": \"open-loop poisson, one connection, latency from intended send\", \
         \"nproc\": {nproc}, \"cpu\": {}, \"git\": {}, \"command\": {}}}",
        stats::json_str(spec.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.rate,
        spec.regions,
        spec.subs,
        stats::json_str(&cpu_model()),
        stats::json_str(&args.git),
        stats::json_str(&args.command),
    )
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown --workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    if !client::tighten_timer_slack() {
        eprintln!("perfbench: timer slack stays at its default");
    }
    let result = if args.trace {
        traced(&args, &spec)
    } else {
        end_to_end(&args, &spec)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", spec.name);
            std::process::exit(1);
        }
    };
    let prov = provenance(&args, &spec);
    println!("provenance {prov}");
    println!(
        "{} ({}; loopback only) — {} ops attempted, {} failed",
        spec.name,
        if args.trace {
            "traced run"
        } else {
            "end-to-end"
        },
        report.attempted,
        report.failed
    );
    print!("{}", report.metrics.table("  "));
    for n in &report.notes {
        println!("  note: {n}");
    }
    if let Some(why) = &report.invalid {
        println!("  INVALID: {why}");
    }
    // The result line carries exactly the listed metrics.
    let picked = Metrics(
        report
            .json_names
            .iter()
            .map(|n| {
                let found = report.metrics.0.iter().find(|m| &m.0 == n);
                found.cloned().unwrap_or((n.clone(), 0.0, "count"))
            })
            .collect(),
    );
    let record = format!(
        "{{\"provenance\": {prov}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        report.attempted,
        report.failed,
        report.metrics.json()
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    if std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, record))
        .is_err()
    {
        eprintln!("perfbench: could not write {}", path.display());
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        picked.json()
    );
    if !correct {
        std::process::exit(1);
    }
    if report.invalid.is_some() {
        std::process::exit(3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_core::PeerPath;

    /// `(spec, preload, log, acks, pushes)` of a short run.
    type SmallRun = (
        Spec,
        Vec<(PeerId, PeerPath)>,
        Log,
        Vec<Message>,
        Vec<(u64, Message)>,
    );

    /// A short run of `name` against the in-process server on a small
    /// world.
    fn small_run(name: &str) -> SmallRun {
        let mut spec = workload::spec(name).unwrap();
        spec.subs = spec.subs.min(50);
        let epoch = Instant::now();
        let empty = Mirror::build(LANDMARKS, spec.regions, config()).unwrap();
        let mut gen = Generator::new(&spec, 11, &empty, 2_000);
        let conns = if spec.subs > 0 { 3 } else { 2 };
        let server = trace::InProcess::start(spec.regions, conns, epoch).unwrap();
        let mut session =
            set_up(server.addr, &join_msgs(&gen), &subscribe_msgs(spec.subs)).unwrap();
        let ops = next_phase(&mut gen, epoch, 2_000.0, 300_000_000);
        let frames = encode_all(&ops);
        session.sent.add_ops(&ops);
        let out = run_phase(
            &mut session.dir,
            session.sub.as_mut(),
            epoch,
            &ops,
            &frames,
            None,
        )
        .unwrap();
        let mut log = Log::default();
        log.absorb(ops, out, false);
        fence(&mut session, epoch).unwrap();
        let (exposition, _) = scrape(&mut session).unwrap();
        assert_eq!(session.sent.mismatches(&exposition), Vec::<String>::new());
        let pushes = session
            .sub
            .as_mut()
            .map(|s| std::mem::take(&mut s.pushes))
            .unwrap_or_default();
        let acks = std::mem::take(&mut session.acks);
        drop(session);
        server.join();
        (spec, gen.preload(), log, acks, pushes)
    }

    #[test]
    fn every_answer_verifies_on_every_workload() {
        for name in workload::NAMES {
            let (spec, preload, log, acks, pushes) = small_run(name);
            assert!(log.ops.len() > 100, "{name} sent too few ops");
            assert_eq!(log.unanswered(0..log.ops.len()), 0, "{name}");
            let (replay, bad_views) = verify_all(&spec, preload, &acks, &log, &pushes).unwrap();
            assert_eq!(replay.failures(), 0, "{name}: {:?}", replay.examples);
            assert_eq!(bad_views, 0, "{name}");
        }
    }

    #[test]
    fn a_corrupted_mirror_fails_the_run() {
        let (spec, mut preload, log, acks, pushes) = small_run("churn_1r");
        // The mirror also holds twins of the first peers, at their exact
        // paths: answers near them differ from what the server sent.
        let joins = nearpeer_bench::wire::world(LANDMARKS);
        preload.extend((0..200).map(|p| (PeerId(1 << 40 | p), joins.path(p))));
        let (replay, bad_views) = verify_all(&spec, preload, &acks, &log, &pushes).unwrap();
        assert!(replay.failures() > 0);
        assert!(bad_views > 0);
    }
}
