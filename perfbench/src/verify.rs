//! Answer checking, after the clock stops: every reply is compared
//! bit-for-bit with what the synchronous mirror answers when the same
//! ops are applied to it in the same order, and the subscribers'
//! delta-applied views are compared with the mirror's final answers.

use crate::workload::{Op, K};
use nearpeer_bench::wire::{world, Mirror};
use nearpeer_core::protocol::{Message, WireNeighbor};
use nearpeer_core::telemetry::find_metric;
use nearpeer_core::{Neighbor, PeerId};
use std::collections::HashMap;
use std::time::Instant;

fn to_wire(neighbors: Vec<Neighbor>) -> Vec<WireNeighbor> {
    neighbors
        .into_iter()
        .map(|n| WireNeighbor {
            peer: n.peer,
            dtree: n.dtree,
        })
        .collect()
}

/// Applies `op` to the mirror and returns the reply the server must have
/// sent, plus the time the mirror's directory call took, in ns.
pub fn apply(mirror: &mut Mirror, op: &Op) -> (Option<Message>, u64) {
    let t = Instant::now();
    let reply = match (&op.msg, mirror) {
        (
            Message::QueryRequest {
                nonce,
                path,
                k,
                exclude,
            },
            mirror,
        ) => {
            let neighbors = mirror.closest_to_path(path, *k as usize, *exclude);
            Some(Message::QueryReply {
                nonce: *nonce,
                neighbors: to_wire(neighbors),
            })
        }
        (Message::JoinRequest { peer, path }, Mirror::Single(srv)) => Some(join_reply(
            *peer,
            srv.register(*peer, path.clone())
                .map(|o| (o.neighbors, o.delegate)),
        )),
        (Message::JoinRequest { peer, path }, Mirror::Federated(fed)) => Some(join_reply(
            *peer,
            fed.register(*peer, path.clone())
                .map(|o| (o.neighbors, None)),
        )),
        (Message::HandoverRequest { peer, path }, Mirror::Single(srv)) => Some(join_reply(
            *peer,
            srv.handover(*peer, path.clone())
                .map(|o| (o.neighbors, o.delegate)),
        )),
        (Message::HandoverRequest { peer, path }, Mirror::Federated(fed)) => Some(join_reply(
            *peer,
            fed.handover(*peer, path.clone())
                .map(|o| (o.neighbors, None)),
        )),
        (Message::Leave { peer }, mirror) => {
            mirror.leave_all(&[*peer]);
            None
        }
        (other, _) => unreachable!("the generator never emits {}", other.kind_name()),
    };
    (reply, t.elapsed().as_nanos() as u64)
}

fn join_reply(
    peer: PeerId,
    outcome: Result<(Vec<Neighbor>, Option<PeerId>), nearpeer_core::CoreError>,
) -> Message {
    match outcome {
        Ok((neighbors, delegate)) => Message::JoinReply {
            peer,
            neighbors: to_wire(neighbors),
            delegate,
        },
        Err(e) => Message::JoinError {
            peer,
            reason: e.to_string(),
        },
    }
}

/// What the in-order replay found.
pub struct Replay {
    /// Per op: whether its answer failed (mismatch, `JoinError`, or no
    /// reply at all).
    pub failed: Vec<bool>,
    /// Per op: the mirror's directory time, ns.
    pub dir_ns: Vec<u64>,
    /// A few failures, described, for the log.
    pub examples: Vec<String>,
}

impl Replay {
    /// Number of failed ops.
    pub fn failures(&self) -> usize {
        self.failed.iter().filter(|f| **f).count()
    }
}

/// Replays `ops` on the mirror in order. `replies[i]` is the reply
/// received for op `i` (`None` for a `Leave`, or when none arrived).
pub fn replay(mirror: &mut Mirror, ops: &[Op], replies: &[Option<Message>]) -> Replay {
    let mut out = Replay {
        failed: Vec::with_capacity(ops.len()),
        dir_ns: Vec::with_capacity(ops.len()),
        examples: Vec::new(),
    };
    for (i, op) in ops.iter().enumerate() {
        let (want, ns) = apply(mirror, op);
        let got = replies.get(i).and_then(|r| r.as_ref());
        let bad = match (&want, got) {
            (None, _) => false,
            (Some(Message::JoinError { .. }), _) => true,
            (Some(w), Some(g)) => w != g,
            (Some(_), None) => true,
        };
        if bad && out.examples.len() < 5 {
            out.examples.push(format!(
                "op {i} ({}): got {:?}, expected {:?}",
                op.kind.name(),
                got,
                want
            ));
        }
        out.failed.push(bad);
        out.dir_ns.push(ns);
    }
    out
}

/// The mirror's current answer for subscriber `peer` (its home path).
fn subscriber_answer(mirror: &Mirror, peer: PeerId) -> Vec<WireNeighbor> {
    let path = world(crate::workload::LANDMARKS).path(peer.0);
    to_wire(mirror.closest_to_path(&path, K, Some(peer)))
}

/// Checks each `SubAck` (subscriber `i` is peer `i`) against the mirror
/// right after the preload; returns the initial views and the number of
/// mismatches.
pub fn check_acks(mirror: &Mirror, acks: &[Message]) -> (Vec<Vec<WireNeighbor>>, usize) {
    let mut bad = 0;
    let views = acks
        .iter()
        .enumerate()
        .map(|(i, ack)| {
            let peer = PeerId(i as u64);
            match ack {
                Message::SubAck {
                    peer: p, neighbors, ..
                } if *p == peer && *neighbors == subscriber_answer(mirror, peer) => {
                    neighbors.clone()
                }
                _ => {
                    bad += 1;
                    Vec::new()
                }
            }
        })
        .collect();
    (views, bad)
}

/// Applies every push, in arrival order, to the subscribers' views and
/// counts the views that differ (as `(peer, dtree)` sets) from the
/// mirror's final answer, plus pushes addressed to no subscriber.
pub fn check_views(
    mirror: &Mirror,
    mut views: Vec<Vec<WireNeighbor>>,
    pushes: &[(u64, Message)],
) -> usize {
    let mut stray = 0;
    for (_, push) in pushes {
        if let Message::DeltaPush {
            peer,
            added,
            removed,
            ..
        } = push
        {
            let Some(view) = views.get_mut(peer.0 as usize) else {
                stray += 1;
                continue;
            };
            view.retain(|n| !removed.contains(&n.peer));
            for a in added {
                match view.iter_mut().find(|n| n.peer == a.peer) {
                    Some(n) => n.dtree = a.dtree,
                    None => view.push(*a),
                }
            }
        }
    }
    let key = |v: &[WireNeighbor]| {
        let mut v: Vec<(u64, u32)> = v.iter().map(|n| (n.peer.0, n.dtree)).collect();
        v.sort_unstable();
        v
    };
    stray
        + views
            .iter()
            .enumerate()
            .filter(|(i, view)| key(view) != key(&subscriber_answer(mirror, PeerId(*i as u64))))
            .count()
}

/// Client-side frame counts per request kind, for conservation against
/// the server's `wire_frames_total`.
#[derive(Default)]
pub struct Sent(HashMap<&'static str, u64>);

impl Sent {
    /// Counts `n` frames of `kind`.
    pub fn add(&mut self, kind: &'static str, n: u64) {
        *self.0.entry(kind).or_default() += n;
    }

    /// Counts the ops of a phase.
    pub fn add_ops(&mut self, ops: &[Op]) {
        for op in ops {
            self.add(op.kind.wire_name(), 1);
        }
    }

    /// Kinds whose scraped count differs from the client's, described.
    pub fn mismatches(&self, exposition: &str) -> Vec<String> {
        let mut kinds: Vec<_> = self.0.iter().collect();
        kinds.sort();
        kinds
            .into_iter()
            .filter_map(|(kind, &sent)| {
                let name = format!("wire_frames_total{{kind=\"{kind}\"}}");
                let served = find_metric(exposition, &name).unwrap_or(0);
                (served != sent).then(|| format!("{name}: server {served}, client sent {sent}"))
            })
            .collect()
    }
}
