//! The three traffic mixes and their seeded, open-loop op schedules.
//!
//! Every op is generated up front from the workload seed, so the server
//! only ever sees the generated frames and a replay on the synchronous
//! mirror can check each answer in send order.

use nearpeer_bench::wire::{world, Mirror};
use nearpeer_bench::SyntheticJoins;
use nearpeer_core::protocol::Message;
use nearpeer_core::{LandmarkId, PeerId, PeerPath};
use std::collections::HashMap;

/// Landmarks of the synthetic world (`nearpeerd`'s default layout).
pub const LANDMARKS: usize = 8;
/// Neighbors per answer, for joins, queries and subscriptions alike.
pub const K: usize = 5;
/// Peers registered before any timed phase.
pub const PRELOAD: u64 = 100_000;

/// A directory op kind the generator emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `QueryRequest` for a registered peer's own path, excluding itself.
    Query,
    /// `JoinRequest` of a fresh peer.
    Join,
    /// `HandoverRequest` of a registered peer to another landmark.
    Handover,
    /// Fire-and-forget `Leave` of a registered peer.
    Leave,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 4] = [Kind::Query, Kind::Join, Kind::Handover, Kind::Leave];

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Join => "join",
            Kind::Handover => "handover",
            Kind::Leave => "leave",
        }
    }

    /// The request's codec kind name, as `wire_frames_total` labels it.
    pub fn wire_name(self) -> &'static str {
        match self {
            Kind::Query => "query-request",
            Kind::Join => "join-request",
            Kind::Handover => "handover-request",
            Kind::Leave => "leave",
        }
    }

    /// Whether the server answers this kind (a `Leave` gets no reply).
    pub fn has_reply(self) -> bool {
        self != Kind::Leave
    }
}

/// One traffic mix: the server it runs against and the ops it offers.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Fixed workload name.
    pub name: &'static str,
    /// `nearpeerd --regions`.
    pub regions: usize,
    /// Standing subscribers (peers `0..subs`, never churned).
    pub subs: u64,
    /// Offered rate of the fixed-rate phase, ops/s.
    pub rate: f64,
    /// Relative weight of each op kind.
    pub mix: [(Kind, u32); 4],
    /// Handovers move a peer to a landmark of another region.
    pub cross_region: bool,
}

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    // Fixed rates sit at a quarter to a fifth of the knee the rate sweep
    // finds on a 2-core host, so they hold when other tenants steal CPU.
    // Each mix carries every reply-bearing kind, so that every
    // end-to-end latency is measured on every workload.
    match name {
        "query_1r" => Some(Spec {
            name: "query_1r",
            regions: 1,
            subs: 0,
            rate: 5_000.0,
            mix: [
                (Kind::Query, 93),
                (Kind::Join, 5),
                (Kind::Handover, 2),
                (Kind::Leave, 0),
            ],
            cross_region: false,
        }),
        "churn_1r" => Some(Spec {
            name: "churn_1r",
            regions: 1,
            subs: 10_000,
            rate: 1_500.0,
            mix: [
                (Kind::Query, 8),
                (Kind::Join, 46),
                (Kind::Handover, 23),
                (Kind::Leave, 23),
            ],
            cross_region: false,
        }),
        "fed_4r" => Some(Spec {
            name: "fed_4r",
            regions: 4,
            subs: 0,
            rate: 1_500.0,
            mix: [
                (Kind::Query, 80),
                (Kind::Join, 10),
                (Kind::Handover, 10),
                (Kind::Leave, 0),
            ],
            cross_region: true,
        }),
        _ => None,
    }
}

/// Names of every workload, in run order.
pub const NAMES: [&str; 3] = ["query_1r", "churn_1r", "fed_4r"];

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6e70_6265_6e63_6821)
    }

    /// Next raw 64-bit value.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// One scheduled op: when it is due (ns after the run's epoch) and the
/// frame that carries it.
#[derive(Clone, Debug)]
pub struct Op {
    /// Intended send time, ns after the run epoch.
    pub at_ns: u64,
    /// What the op does.
    pub kind: Kind,
    /// The request frame.
    pub msg: Message,
}

/// Generates a workload's ops in order, tracking which peers are
/// registered where, so no generated op can legitimately fail.
pub struct Generator {
    spec: Spec,
    rng: Rng,
    joins: SyntheticJoins,
    /// Registered peers, for uniform draws (swap-remove on leave).
    alive: Vec<u64>,
    slot: HashMap<u64, usize>,
    /// Current landmark of every peer that has moved.
    moved: HashMap<u64, LandmarkId>,
    /// Landmarks per region, and each landmark's region.
    region_landmarks: Vec<Vec<LandmarkId>>,
    region_of: Vec<usize>,
    preload: u64,
    next_fresh: u64,
    next_nonce: u64,
    total_weight: u32,
}

impl Generator {
    /// A generator over `spec`'s world with peers `0..preload`
    /// registered; `mirror` (empty) supplies the region partition the
    /// server will use.
    pub fn new(spec: &Spec, seed: u64, mirror: &Mirror, preload: u64) -> Self {
        let region_landmarks: Vec<Vec<LandmarkId>> = match mirror {
            Mirror::Single(_) => vec![(0..LANDMARKS as u32).map(LandmarkId).collect()],
            Mirror::Federated(fed) => fed
                .regions()
                .iter()
                .map(|r| {
                    r.landmark_globals()
                        .iter()
                        .map(|&l| LandmarkId(l))
                        .collect()
                })
                .collect(),
        };
        let mut region_of = vec![0; LANDMARKS];
        for (r, lms) in region_landmarks.iter().enumerate() {
            for l in lms {
                region_of[l.0 as usize] = r;
            }
        }
        Self {
            spec: spec.clone(),
            rng: Rng::new(seed),
            joins: world(LANDMARKS),
            alive: (0..preload).collect(),
            slot: (0..preload).map(|p| (p, p as usize)).collect(),
            moved: HashMap::new(),
            region_landmarks,
            region_of,
            preload,
            next_fresh: preload,
            next_nonce: 0,
            total_weight: spec.mix.iter().map(|m| m.1).sum(),
        }
    }

    /// The preload set: peers `0..preload` at their home landmarks.
    pub fn preload(&self) -> Vec<(PeerId, PeerPath)> {
        (0..self.preload).map(|p| self.joins.join(p)).collect()
    }

    /// A registered peer's current path.
    pub fn path_now(&self, peer: u64) -> PeerPath {
        self.joins.path_to(peer, self.landmark_now(peer))
    }

    fn landmark_now(&self, peer: u64) -> LandmarkId {
        self.moved
            .get(&peer)
            .copied()
            .unwrap_or_else(|| self.joins.landmark_of(peer))
    }

    /// A registered peer that is not a standing subscriber.
    fn churnable(&mut self) -> u64 {
        loop {
            let p = self.alive[self.rng.below(self.alive.len() as u64) as usize];
            if p >= self.spec.subs {
                return p;
            }
        }
    }

    fn pick_kind(&mut self) -> Kind {
        let mut x = self.rng.below(u64::from(self.total_weight)) as u32;
        for (kind, w) in self.spec.mix {
            if x < w {
                return kind;
            }
            x -= w;
        }
        unreachable!("weights sum to total_weight")
    }

    fn next_op(&mut self, at_ns: u64) -> Op {
        let kind = self.pick_kind();
        let msg = match kind {
            Kind::Query => {
                let p = self.alive[self.rng.below(self.alive.len() as u64) as usize];
                self.next_nonce += 1;
                Message::QueryRequest {
                    nonce: self.next_nonce,
                    path: self.path_now(p),
                    k: K as u16,
                    exclude: Some(PeerId(p)),
                }
            }
            Kind::Join => {
                let p = self.next_fresh;
                self.next_fresh += 1;
                self.slot.insert(p, self.alive.len());
                self.alive.push(p);
                let (peer, path) = self.joins.join(p);
                Message::JoinRequest { peer, path }
            }
            Kind::Handover => {
                let p = self.churnable();
                let here = self.landmark_now(p);
                let dest = if self.spec.cross_region {
                    let n = self.region_landmarks.len() as u64;
                    let step = 1 + self.rng.below(n - 1) as usize;
                    let region = (self.region_of[here.0 as usize] + step) % n as usize;
                    let lms = &self.region_landmarks[region];
                    lms[self.rng.below(lms.len() as u64) as usize]
                } else {
                    let step = 1 + self.rng.below(LANDMARKS as u64 - 1) as u32;
                    LandmarkId((here.0 + step) % LANDMARKS as u32)
                };
                self.moved.insert(p, dest);
                Message::HandoverRequest {
                    peer: PeerId(p),
                    path: self.joins.path_to(p, dest),
                }
            }
            Kind::Leave => {
                let p = self.churnable();
                let i = self.slot.remove(&p).expect("alive peer has a slot");
                self.alive.swap_remove(i);
                if let Some(&moved) = self.alive.get(i) {
                    self.slot.insert(moved, i);
                }
                self.moved.remove(&p);
                Message::Leave { peer: PeerId(p) }
            }
        };
        Op { at_ns, kind, msg }
    }

    /// Poisson arrivals at `rate` ops/s from `start_ns` for `dur_ns`.
    pub fn schedule(&mut self, rate: f64, start_ns: u64, dur_ns: u64) -> Vec<Op> {
        let mut ops = Vec::with_capacity((rate * dur_ns as f64 / 1e9) as usize + 16);
        let mut t = 0.0f64;
        loop {
            t += -(1.0 - self.rng.unit()).ln() / rate * 1e9;
            if t >= dur_ns as f64 {
                return ops;
            }
            ops.push(self.next_op(start_ns + t as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_core::ServerConfig;

    fn mirror(spec: &Spec) -> Mirror {
        Mirror::build(LANDMARKS, spec.regions, ServerConfig::default()).unwrap()
    }

    #[test]
    fn same_seed_same_ops() {
        let spec = spec("churn_1r").unwrap();
        let m = mirror(&spec);
        let a = Generator::new(&spec, 7, &m, 20_000).schedule(spec.rate, 0, 50_000_000);
        let b = Generator::new(&spec, 7, &m, 20_000).schedule(spec.rate, 0, 50_000_000);
        let c = Generator::new(&spec, 8, &m, 20_000).schedule(spec.rate, 0, 50_000_000);
        assert!(!a.is_empty());
        assert_eq!(
            a.iter().map(|o| (o.at_ns, &o.msg)).collect::<Vec<_>>(),
            b.iter().map(|o| (o.at_ns, &o.msg)).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|o| &o.msg).collect::<Vec<_>>(),
            c.iter().map(|o| &o.msg).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fed_handovers_cross_regions() {
        let spec = spec("fed_4r").unwrap();
        let m = mirror(&spec);
        let mut gen = Generator::new(&spec, 3, &m, 1_000);
        let mut moves = 0;
        for _ in 0..2_000 {
            let before = gen.moved.clone();
            let op = gen.next_op(0);
            if let Message::HandoverRequest { peer, .. } = op.msg {
                let from = before
                    .get(&peer.0)
                    .copied()
                    .unwrap_or_else(|| gen.joins.landmark_of(peer.0));
                let to = gen.moved[&peer.0];
                assert_ne!(gen.region_of[from.0 as usize], gen.region_of[to.0 as usize]);
                moves += 1;
            }
        }
        assert!(moves > 100);
    }
}
