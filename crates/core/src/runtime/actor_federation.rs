//! The actorized federation: every operation on the caller's thread,
//! under one claims mutex for writes and ordered region guards.
//!
//! [`crate::Federation`] writes through `&mut self`. Here every [`Region`]
//! of the synchronous federation moves its `ManagementServer` behind an
//! `RwLock`, and a claims table (peer → region) is the membership
//! authority, so the front door serves through `&self` from any number of
//! threads (one per TCP connection in `nearpeerd`).
//!
//! Writes apply on the calling thread: take the claims mutex, decide
//! membership, and apply the region op under that region's write guard
//! while the claims mutex is still held. Claims and regions therefore
//! change together, and writes serialise on the claims mutex.
//!
//! Reads need no claims. A federated query takes a read guard on every
//! consulted region and runs the very merge and bridge fill the
//! synchronous front door runs — one shared function over the guarded
//! servers — so answers are bit-identical by construction.
//!
//! **Lock order.**
//! * A writer takes the claims mutex, then **at most one** region write
//!   guard at a time. A cross-region handover drops `from`'s guard before
//!   it takes `dest`'s.
//! * A reader holding more than one region acquires the read guards in
//!   ascending [`RegionId`] order, always, and never takes the claims
//!   mutex while it holds a region guard.
//!
//! std's `RwLock` parks new readers once a writer is queued, which is
//! what makes both rules matter. A writer holding `from` while it waits
//! for `dest` deadlocks against a reader that holds `dest` and is parked
//! on `from` behind it. Two readers that each hold one region and reach
//! for the other's (home region first, say) deadlock once writers are
//! queued on both regions. Writers serialised on the claims mutex never
//! queue on two regions at once, so that second cycle cannot form today;
//! the ascending order keeps it impossible should writes ever run in
//! parallel again. With both rules, no thread waits while holding what a
//! thread ahead of it needs.
//!
//! [`Region`]: crate::Region

use crate::error::CoreError;
use crate::federation::{FederatedJoin, FederationStats, FederationSweep, Routing};
use crate::federation::{Federation, FederationConfig, RegionId};
use crate::ids::{LandmarkId, PeerId};
use crate::path::PeerPath;
use crate::router_index::Neighbor;
use crate::server::ManagementServer;
use crate::telemetry::{Counter, Histogram, SlowQueryRecord, TelemetryRegistry};
use nearpeer_topology::RouterId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// The actorized federation front door: every region behind its own
/// lock, writes applied under the claims mutex, federated reads answered
/// under ordered region read guards, all operations `&self`.
///
/// Answers are bit-identical to a [`Federation`] fed the same operations
/// (same consult order, the same merge and bridge-fill code); super-peers
/// are rejected at construction exactly like the synchronous front door.
pub struct ActorFederation {
    routing: Routing,
    servers: Vec<RwLock<ManagementServer>>,
    /// Front-door membership authority: peer → current region. Held for
    /// the whole of every write (see the module docs for the lock order).
    claims: Mutex<HashMap<PeerId, RegionId>>,
    epoch: AtomicU64,
    handovers: AtomicU64,
    cross_region_handovers: AtomicU64,
    queries: Arc<Counter>,
    remote: Arc<Counter>,
    fills: Arc<Counter>,
    query_latency: Arc<Histogram>,
    telemetry: OnceLock<Arc<TelemetryRegistry>>,
}

impl ActorFederation {
    /// Builds the actorized federation from the same inputs as
    /// [`Federation::new`] (round-robin landmark partition, derived
    /// bridge matrix).
    pub fn new(
        landmark_routers: Vec<RouterId>,
        landmark_dist: Vec<Vec<u32>>,
        n_regions: usize,
        config: FederationConfig,
    ) -> Result<Self, CoreError> {
        // Reuse the synchronous constructor: validation, partition and
        // bridge derivation stay one implementation.
        let (routing, servers) =
            Federation::new(landmark_routers, landmark_dist, n_regions, config)?
                .into_runtime_parts();
        Ok(Self {
            routing,
            servers: servers.into_iter().map(RwLock::new).collect(),
            claims: Mutex::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            handovers: AtomicU64::new(0),
            cross_region_handovers: AtomicU64::new(0),
            queries: Arc::new(Counter::new()),
            remote: Arc::new(Counter::new()),
            fills: Arc::new(Counter::new()),
            query_latency: Arc::new(Histogram::new()),
            telemetry: OnceLock::new(),
        })
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.servers.len()
    }

    /// The global landmark routers, indexed by global [`LandmarkId`].
    pub fn landmarks(&self) -> &[RouterId] {
        &self.routing.landmark_routers
    }

    /// Registered peers across all regions.
    pub fn peer_count(&self) -> usize {
        self.claims().len()
    }

    /// The federation-wide heartbeat epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The region a peer is currently registered in, if any.
    pub fn region_of_peer(&self, peer: PeerId) -> Option<RegionId> {
        self.claims().get(&peer).copied()
    }

    /// Aggregate federation counters.
    pub fn stats(&self) -> FederationStats {
        FederationStats {
            queries: self.queries.get(),
            remote_regions_consulted: self.remote.get(),
            cross_region_fills: self.fills.get(),
            handovers: self.handovers.load(Ordering::Relaxed),
            cross_region_handovers: self.cross_region_handovers.load(Ordering::Relaxed),
        }
    }

    /// Adopts the federation's counters and query-latency histogram into
    /// `reg`, and arms query timing. Idempotent in the sense that only
    /// the first registry sticks.
    pub fn bind_telemetry(&self, reg: Arc<TelemetryRegistry>) {
        reg.adopt_counter("fed_queries_total", "", Arc::clone(&self.queries));
        reg.adopt_counter(
            "fed_remote_regions_consulted_total",
            "",
            Arc::clone(&self.remote),
        );
        reg.adopt_counter("fed_cross_region_fills_total", "", Arc::clone(&self.fills));
        reg.adopt_histogram("fed_query_latency_us", "", Arc::clone(&self.query_latency));
        let _ = self.telemetry.set(reg);
    }

    /// The registry bound via [`Self::bind_telemetry`], if any.
    pub fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        self.telemetry.get().cloned()
    }

    /// Forwarding tombstones currently held across all regions.
    pub fn tombstone_count(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.read().expect("region server poisoned").tombstone_count())
            .sum()
    }

    /// Advances every region's epoch in lockstep — the actorized
    /// [`Federation::advance_epoch`].
    pub fn advance_epoch(&self) -> u64 {
        let _claims = self.claims();
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        for r in 0..self.servers.len() {
            let e = self.write_region(RegionId(r as u32)).advance_epoch();
            debug_assert_eq!(e, epoch, "regions advance in lockstep");
        }
        epoch
    }

    /// Registers a newcomer — the actorized [`Federation::register`]:
    /// write-only insert in the home region, federated answer.
    pub fn register(&self, peer: PeerId, path: PeerPath) -> Result<FederatedJoin, CoreError> {
        let (region, global) = self.routing.home_of_path(&path)?;
        let query_path = path.clone();
        {
            let mut claims = self.claims();
            if claims.contains_key(&peer) {
                return Err(CoreError::DuplicatePeer(peer));
            }
            claims.insert(peer, region);
            let out = self
                .write_region(region)
                .register_batch_renewing(vec![(peer, path)]);
            debug_assert_eq!(out.joined, 1, "validated fresh insert");
        }
        let neighbors = self.closest_to_path(&query_path, self.routing.neighbor_count, Some(peer));
        Ok(FederatedJoin {
            region,
            landmark: LandmarkId(global),
            neighbors,
        })
    }

    /// Mobility handover — the actorized [`Federation::handover`]. The
    /// new path is validated first; a cross-region move applies the
    /// forwarding teardown and the destination insert under one
    /// claims-mutex critical section, one region write guard at a time.
    pub fn handover(&self, peer: PeerId, new_path: PeerPath) -> Result<FederatedJoin, CoreError> {
        let (dest, global) = self.routing.home_of_path(&new_path)?;
        let query_path = new_path.clone();
        {
            let mut claims = self.claims();
            let Some(&from) = claims.get(&peer) else {
                return Err(CoreError::UnknownPeer(peer));
            };
            if from == dest {
                self.write_region(dest).handover(peer, new_path)?;
            } else {
                // Each statement drops its guard: `from`'s is released
                // before `dest`'s is taken (the module's lock order).
                self.write_region(from)
                    .deregister_forwarding(peer, dest.0)
                    .expect("claims and regions agree");
                let out = self
                    .write_region(dest)
                    .register_batch_renewing(vec![(peer, new_path)]);
                debug_assert_eq!(out.joined, 1, "peer was only live in `from`");
                claims.insert(peer, dest);
                self.cross_region_handovers.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.handovers.fetch_add(1, Ordering::Relaxed);
        let neighbors = self.closest_to_path(&query_path, self.routing.neighbor_count, Some(peer));
        Ok(FederatedJoin {
            region: dest,
            landmark: LandmarkId(global),
            neighbors,
        })
    }

    /// Batched departures — the actorized [`Federation::leave_batch`].
    /// Peers partition by their claimed region (unknown ids are skipped
    /// without touching any region); returns the number removed.
    pub fn leave_batch(&self, peers: &[PeerId]) -> usize {
        let mut claims = self.claims();
        self.apply_by_region(
            peers,
            |peer| claims.remove(&peer),
            ManagementServer::leave_batch,
        )
    }

    /// Batched heartbeat renewal — the actorized
    /// [`Federation::renew_batch`]; returns the number renewed.
    pub fn renew_batch(&self, peers: &[PeerId]) -> usize {
        let claims = self.claims();
        self.apply_by_region(
            peers,
            |peer| claims.get(&peer).copied(),
            ManagementServer::renew_batch,
        )
    }

    /// Federated lease expiry — the actorized
    /// [`Federation::expire_stale`]. Regions sweep one after another
    /// under one claims-mutex critical section, so expired peers lose
    /// their claims atomically with the sweep that retired them.
    pub fn expire_stale(&self, max_age: u64) -> FederationSweep {
        let mut claims = self.claims();
        let mut out = FederationSweep::default();
        for r in 0..self.servers.len() {
            let id = RegionId(r as u32);
            let sweep = self.write_region(id).expire_stale_full(max_age);
            for peer in &sweep.expired {
                claims.remove(peer);
            }
            out.expired
                .extend(sweep.expired.into_iter().map(|p| (id, p)));
            // Tombstones retired here belong to peers now living in their
            // destination region — their claims stay.
            out.moved_swept
                .extend(sweep.moved.into_iter().map(|(p, _)| (id, p)));
        }
        out
    }

    /// Neighbors of a registered peer, through the federated query path.
    pub fn neighbors_of(&self, peer: PeerId, k: usize) -> Result<Vec<Neighbor>, CoreError> {
        let region = self
            .region_of_peer(peer)
            .ok_or(CoreError::UnknownPeer(peer))?;
        let path = {
            let srv = self.servers[region.index()]
                .read()
                .expect("region server poisoned");
            srv.path_of(peer)
                .ok_or(CoreError::UnknownPeer(peer))?
                .clone()
        };
        Ok(self.closest_to_path(&path, k, Some(peer)))
    }

    /// The closest registered peers to a query path — the actorized
    /// [`Federation::closest_to_path`], answered on the calling thread:
    /// read guards on every consulted region (taken by
    /// [`Self::read_regions`]), then the synchronous front door's own
    /// merge and bridge fill over them.
    pub fn closest_to_path(
        &self,
        path: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        self.queries.inc();
        let started = self
            .telemetry
            .get()
            .filter(|t| t.timing_enabled())
            .map(|_| Instant::now());
        let home = self.routing.home_of_path(path).ok();
        let consulted = self.routing.consulted(home.map(|(r, _)| r), |_| true);
        self.remote.add(consulted.len().saturating_sub(1) as u64);
        let (result, fills) = {
            let guards = self.read_regions(&consulted);
            let servers: Vec<Option<&ManagementServer>> =
                guards.iter().map(|g| g.as_deref()).collect();
            self.routing
                .closest(&servers, path, k, exclude, home.map(|(_, g)| g))
        };
        self.fills.add(fills as u64);
        if let (Some(start), Some(t)) = (started, self.telemetry.get()) {
            let us = start.elapsed().as_micros() as u64;
            self.query_latency.record(us);
            t.slow().offer(us, || SlowQueryRecord {
                latency_us: us,
                landmark: home.map(|(_, g)| g as u64),
                path_depth: path.depth() as usize,
                fanout: fills,
                answered: result.len(),
            });
        }
        result
    }

    /// Read guards on `regions`, indexed by [`RegionId`] (`None` for the
    /// rest), **acquired in ascending region order** whatever order
    /// `regions` lists them in — the lock order that keeps concurrent
    /// multi-region readers from deadlocking behind queued writers (see
    /// the module docs).
    fn read_regions(
        &self,
        regions: &[RegionId],
    ) -> Vec<Option<RwLockReadGuard<'_, ManagementServer>>> {
        let mut wanted = vec![false; self.servers.len()];
        for r in regions {
            wanted[r.index()] = true;
        }
        self.servers
            .iter()
            .zip(wanted)
            .map(|(server, wanted)| wanted.then(|| server.read().expect("region server poisoned")))
            .collect()
    }

    fn claims(&self) -> MutexGuard<'_, HashMap<PeerId, RegionId>> {
        self.claims.lock().expect("claims poisoned")
    }

    /// One region's write guard. Callers hold the claims mutex and at
    /// most this one guard (see the module docs).
    fn write_region(&self, region: RegionId) -> RwLockWriteGuard<'_, ManagementServer> {
        self.servers[region.index()]
            .write()
            .expect("region server poisoned")
    }

    /// Applies `op` to each region's share of `peers` — the peers
    /// `region_of` places there (`None` skips a peer) — one write guard
    /// at a time, summing the results. Callers hold the claims mutex.
    fn apply_by_region(
        &self,
        peers: &[PeerId],
        mut region_of: impl FnMut(PeerId) -> Option<RegionId>,
        op: impl Fn(&mut ManagementServer, &[PeerId]) -> usize,
    ) -> usize {
        let mut per_region = vec![Vec::new(); self.servers.len()];
        for &peer in peers {
            if let Some(region) = region_of(peer) {
                per_region[region.index()].push(peer);
            }
        }
        per_region
            .iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(r, batch)| op(&mut self.write_region(RegionId(r as u32)), batch))
            .sum()
    }
}

impl std::fmt::Debug for ActorFederation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorFederation")
            .field("regions", &self.servers.len())
            .field("peers", &self.peer_count())
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn four_landmarks() -> (Vec<RouterId>, Vec<Vec<u32>>) {
        let routers = vec![RouterId(0), RouterId(100), RouterId(200), RouterId(300)];
        let dist = (0..4u32)
            .map(|i| (0..4u32).map(|j| i.abs_diff(j) * 5).collect())
            .collect();
        (routers, dist)
    }

    fn fed(n_regions: usize) -> ActorFederation {
        let (routers, dist) = four_landmarks();
        ActorFederation::new(
            routers,
            dist,
            n_regions,
            FederationConfig {
                fanout: None,
                server: crate::ServerConfig {
                    neighbor_count: 3,
                    ..crate::ServerConfig::default()
                },
            },
        )
        .unwrap()
    }

    #[test]
    fn inline_fan_out_bridges_across_regions() {
        let f = fed(2);
        f.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        let out = f.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(out.landmark, LandmarkId(1));
        // Bridge fill from the foreign region: depth 2 + bridge 5 + depth 3.
        assert_eq!(out.neighbors.len(), 1);
        assert_eq!(out.neighbors[0].peer, PeerId(1));
        assert_eq!(out.neighbors[0].dtree, 10);
        assert_eq!(f.stats().cross_region_fills, 1);
        assert!(matches!(
            f.register(PeerId(1), path(&[111, 105, 100])),
            Err(CoreError::DuplicatePeer(_))
        ));
    }

    #[test]
    fn cross_region_handover_leaves_a_forwarding_tombstone() {
        let f = fed(2);
        f.register(PeerId(1), path(&[4, 2, 1, 0])).unwrap();
        f.register(PeerId(2), path(&[110, 105, 100])).unwrap();
        f.advance_epoch();
        let out = f.handover(PeerId(1), path(&[111, 105, 100])).unwrap();
        assert_eq!(out.region, RegionId(1));
        assert_eq!(out.neighbors[0].peer, PeerId(2));
        assert_eq!(f.region_of_peer(PeerId(1)), Some(RegionId(1)));
        assert_eq!(f.tombstone_count(), 1);
        for _ in 0..3 {
            f.advance_epoch();
            assert_eq!(f.renew_batch(&[PeerId(1)]), 1);
        }
        let sweep = f.expire_stale(2);
        assert_eq!(sweep.moved_swept, vec![(RegionId(0), PeerId(1))]);
        assert_eq!(sweep.expired, vec![(RegionId(1), PeerId(2))]);
        assert_eq!(f.peer_count(), 1);
        assert_eq!(f.tombstone_count(), 0);
        let stats = f.stats();
        assert_eq!((stats.handovers, stats.cross_region_handovers), (1, 1));
    }

    #[test]
    fn concurrent_federated_queries_and_writes() {
        let f = Arc::new(fed(4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let f = Arc::clone(&f);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let id = 1 + t * 25 + i;
                        let lm = (id % 4) as u32 * 100;
                        f.register(PeerId(id), path(&[1000 + id as u32, lm + 1, lm]))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(f.peer_count(), 100);
        for id in 1..=100u64 {
            let n = f.neighbors_of(PeerId(id), 3).unwrap();
            assert_eq!(n.len(), 3);
            assert!(n.iter().all(|x| x.peer != PeerId(id)));
        }
    }

    #[test]
    fn racing_writes_keep_claims_and_regions_in_agreement() {
        // Four writers race joins, moves and departures of the same 8
        // peers across 4 regions. Each write decides membership and
        // applies it under one claims critical section, so at rest the
        // claims table and the regions must tell the same story.
        let f = fed(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let f = &f;
                scope.spawn(move || {
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                    for _ in 0..20_000 {
                        // xorshift64: a fixed, per-thread op stream.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let id = x % 8;
                        let lm = ((x >> 8) % 4) as u32 * 100;
                        let p = path(&[1000 + id as u32, lm + 1, lm]);
                        match (x >> 16) % 3 {
                            0 => drop(f.register(PeerId(id), p)),
                            1 => drop(f.handover(PeerId(id), p)),
                            _ => drop(f.leave_batch(&[PeerId(id)])),
                        }
                    }
                });
            }
        });
        let claims = f.claims.lock().unwrap().clone();
        let live: usize = f
            .servers
            .iter()
            .map(|s| s.read().unwrap().peer_count())
            .sum();
        assert_eq!(live, claims.len(), "regions hold exactly the claimed peers");
        for id in 0..8u64 {
            let peer = PeerId(id);
            let holding: Vec<RegionId> = (0..f.n_regions())
                .filter(|&r| f.servers[r].read().unwrap().path_of(peer).is_some())
                .map(|r| RegionId(r as u32))
                .collect();
            let claimed: Vec<RegionId> = claims.get(&peer).copied().into_iter().collect();
            assert_eq!(holding, claimed, "peer {id} lives where its claim says");
        }
    }

    #[test]
    fn lock_order_survives_concurrent_queries_and_writes() {
        // Queries homed in every region hold read guards on all four
        // regions while a writer thread's cross-region handovers,
        // departures, epochs and sweeps queue for one region's write
        // guard at a time under the claims mutex. A writer holding one
        // region's guard while it takes another's would deadlock against
        // these readers (std's RwLock parks new readers once a writer
        // waits); one guard at a time cannot. The watchdog turns a hang
        // into a failure instead of a stuck test run.
        const BUDGET: Duration = Duration::from_secs(60);
        let f = Arc::new(fed(4));
        let homed = |id: u64, region: u64| {
            path(&[
                1000 + id as u32,
                region as u32 * 100 + 1,
                region as u32 * 100,
            ])
        };
        for id in 0..64u64 {
            f.register(PeerId(id), homed(id, id % 4)).unwrap();
        }
        let (done_tx, done_rx) = mpsc::channel();
        let shared = Arc::clone(&f);
        let stress = std::thread::spawn(move || {
            let f = &*shared;
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    scope.spawn(move || {
                        for i in 0..2_000u64 {
                            let region = (t + i) % 4;
                            let answer = f.closest_to_path(&homed(5000 + i, region), 3, None);
                            assert!(answer.len() <= 3);
                        }
                    });
                }
                scope.spawn(move || {
                    for round in 0..300u64 {
                        let id = round % 64;
                        // Cross-region move: teardown in one region,
                        // insert in another.
                        f.handover(PeerId(id), homed(id, (id + round + 1) % 4))
                            .unwrap();
                        if round % 5 == 0 {
                            assert_eq!(f.leave_batch(&[PeerId(id)]), 1);
                            f.register(PeerId(id), homed(id, round % 4)).unwrap();
                        }
                    }
                });
                scope.spawn(move || {
                    for _ in 0..100 {
                        f.advance_epoch();
                        f.expire_stale(1_000);
                    }
                });
            });
            let _ = done_tx.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(BUDGET) {
            panic!("federated reads deadlocked behind the region writers");
        }
        stress.join().expect("stress threads ran clean");
        // Every join, query and handover answered: 64 + 60 registrations,
        // 4 × 2000 queries, 300 handovers.
        assert_eq!(f.stats().queries, 64 + 60 + 4 * 2_000 + 300);
    }
}
