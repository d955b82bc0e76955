//! The actorized federation: per-region write workers, reads on the
//! caller's thread.
//!
//! [`crate::Federation`] writes through `&mut self`. Here every [`Region`]
//! of the synchronous federation becomes an **actor** on its write side:
//! its `ManagementServer` moves behind an `RwLock` and one write worker
//! drains the region's mailbox, so writes to different regions apply in
//! parallel while a claims table keeps each peer's ops in order.
//!
//! Reads need no actor. A federated query answers on the calling thread
//! (one per TCP connection in `nearpeerd`): it takes a read guard on every
//! consulted region and runs the very merge and bridge fill the
//! synchronous front door runs — one shared function over the guarded
//! servers — so answers are bit-identical by construction.
//!
//! **Lock order.** A reader holding more than one region acquires the
//! guards in ascending [`RegionId`] order, always. std's `RwLock` parks
//! new readers once a writer is queued, so two queries that each hold one
//! region and reach for the other's (home region first, say) would
//! deadlock behind the two regions' write workers. Write workers hold one
//! region each and never wait on another, so the ascending order leaves no
//! cycle to close.
//!
//! [`Region`]: crate::Region

use crate::error::CoreError;
use crate::federation::{FederatedJoin, FederationStats, FederationSweep, Routing};
use crate::federation::{Federation, FederationConfig, RegionId};
use crate::ids::{LandmarkId, PeerId};
use crate::path::PeerPath;
use crate::router_index::Neighbor;
use crate::server::{ChurnBatchOutcome, ManagementServer};
use crate::telemetry::{Counter, Histogram, SlowQueryRecord, TelemetryRegistry};
use crossbeam::channel::{unbounded, Sender};
use nearpeer_topology::RouterId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One write operation bound for a region's write worker.
enum RegionOp {
    /// `register_batch_renewing` — the federation's insert/renew path.
    Absorb {
        items: Vec<(PeerId, PeerPath)>,
        reply: mpsc::Sender<ChurnBatchOutcome>,
    },
    /// Same-region atomic handover.
    Handover {
        peer: PeerId,
        path: PeerPath,
        reply: mpsc::Sender<Result<(), CoreError>>,
    },
    /// Cross-region teardown: leave a forwarding tombstone.
    Forward {
        peer: PeerId,
        to_region: u32,
        reply: mpsc::Sender<Result<(), CoreError>>,
    },
    Leave {
        peers: Vec<PeerId>,
        reply: mpsc::Sender<usize>,
    },
    Renew {
        peers: Vec<PeerId>,
        reply: mpsc::Sender<usize>,
    },
    Advance {
        reply: mpsc::Sender<u64>,
    },
    Expire {
        max_age: u64,
        reply: mpsc::Sender<crate::directory::ShardSweep>,
    },
}

/// The actorized federation front door: every region behind its own
/// write mailbox, federated reads answered inline under ordered region
/// read guards, all operations `&self`.
///
/// Answers are bit-identical to a [`Federation`] fed the same operations
/// (same consult order, the same merge and bridge-fill code); super-peers
/// are rejected at construction exactly like the synchronous front door.
pub struct ActorFederation {
    routing: Routing,
    servers: Vec<Arc<RwLock<ManagementServer>>>,
    /// Front-door membership authority: peer → current region.
    claims: Mutex<HashMap<PeerId, RegionId>>,
    write_txs: Vec<Sender<RegionOp>>,
    workers: Vec<JoinHandle<()>>,
    epoch: AtomicU64,
    handovers: AtomicU64,
    cross_region_handovers: AtomicU64,
    queries: Arc<Counter>,
    remote: Arc<Counter>,
    fills: Arc<Counter>,
    query_latency: Arc<Histogram>,
    /// One merged mailbox view across every region's write worker.
    write_obs: super::mailbox::MailboxObs,
    telemetry: OnceLock<Arc<TelemetryRegistry>>,
}

impl ActorFederation {
    /// Builds the actorized federation from the same inputs as
    /// [`Federation::new`] (round-robin landmark partition, derived
    /// bridge matrix) and spawns each region's write worker.
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
        let servers: Vec<Arc<RwLock<ManagementServer>>> = servers
            .into_iter()
            .map(|s| Arc::new(RwLock::new(s)))
            .collect();
        let write_obs = super::mailbox::MailboxObs {
            batches: Arc::new(Counter::new()),
            items: Arc::new(Counter::new()),
            batch_size: Arc::new(Histogram::new()),
            queue_depth: Arc::new(crate::telemetry::Gauge::new()),
        };
        let mut write_txs = Vec::with_capacity(servers.len());
        let mut workers = Vec::with_capacity(servers.len());
        for (r, server) in servers.iter().enumerate() {
            let (wtx, wrx) = unbounded::<RegionOp>();
            let wserver = Arc::clone(server);
            workers.push(super::mailbox::spawn_batch_worker_observed(
                format!("region-{r}-write"),
                wrx,
                super::mailbox::DEFAULT_DRAIN_CAP,
                Some(write_obs.clone()),
                move |batch| {
                    let mut srv = wserver.write().expect("region server poisoned");
                    for op in batch {
                        apply_region_op(&mut srv, op);
                    }
                },
            ));
            write_txs.push(wtx);
        }
        Ok(Self {
            routing,
            servers,
            claims: Mutex::new(HashMap::new()),
            write_txs,
            workers,
            epoch: AtomicU64::new(0),
            handovers: AtomicU64::new(0),
            cross_region_handovers: AtomicU64::new(0),
            queries: Arc::new(Counter::new()),
            remote: Arc::new(Counter::new()),
            fills: Arc::new(Counter::new()),
            query_latency: Arc::new(Histogram::new()),
            write_obs,
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
        self.claims.lock().expect("claims poisoned").len()
    }

    /// The federation-wide heartbeat epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The region a peer is currently registered in, if any.
    pub fn region_of_peer(&self, peer: PeerId) -> Option<RegionId> {
        self.claims
            .lock()
            .expect("claims poisoned")
            .get(&peer)
            .copied()
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

    /// Adopts the federation's counters, query-latency histogram and
    /// mailbox views into `reg`, and arms query timing. Idempotent in
    /// the sense that only the first registry sticks; every region
    /// server also binds its own shard counters under a region label.
    pub fn bind_telemetry(&self, reg: Arc<TelemetryRegistry>) {
        reg.adopt_counter("fed_queries_total", "", Arc::clone(&self.queries));
        reg.adopt_counter(
            "fed_remote_regions_consulted_total",
            "",
            Arc::clone(&self.remote),
        );
        reg.adopt_counter("fed_cross_region_fills_total", "", Arc::clone(&self.fills));
        reg.adopt_histogram("fed_query_latency_us", "", Arc::clone(&self.query_latency));
        let (obs, label) = (&self.write_obs, "mailbox=\"region-write\"");
        reg.adopt_counter("mailbox_batches_total", label, Arc::clone(&obs.batches));
        reg.adopt_counter("mailbox_items_total", label, Arc::clone(&obs.items));
        reg.adopt_histogram("mailbox_batch_size", label, Arc::clone(&obs.batch_size));
        reg.adopt_gauge("mailbox_queue_depth", label, Arc::clone(&obs.queue_depth));
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
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let rxs = self.broadcast(|reply| RegionOp::Advance { reply });
        for rx in rxs {
            let e = rx.recv().expect("region worker alive");
            debug_assert_eq!(e, epoch, "regions advance in lockstep");
        }
        epoch
    }

    /// Registers a newcomer — the actorized [`Federation::register`]:
    /// write-only insert in the home region, federated answer.
    pub fn register(&self, peer: PeerId, path: PeerPath) -> Result<FederatedJoin, CoreError> {
        let (region, global) = self.routing.home_of_path(&path)?;
        let query_path = path.clone();
        let (tx, rx) = mpsc::channel();
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            if claims.contains_key(&peer) {
                return Err(CoreError::DuplicatePeer(peer));
            }
            claims.insert(peer, region);
            self.send_write(
                region,
                RegionOp::Absorb {
                    items: vec![(peer, path)],
                    reply: tx,
                },
            );
        }
        let out = rx.recv().expect("region worker alive");
        debug_assert_eq!(out.joined, 1, "validated fresh insert");
        let neighbors = self.closest_to_path(&query_path, self.routing.neighbor_count, Some(peer));
        Ok(FederatedJoin {
            region,
            landmark: LandmarkId(global),
            neighbors,
        })
    }

    /// Mobility handover — the actorized [`Federation::handover`]. The
    /// new path is validated first; a cross-region move enqueues the
    /// forwarding teardown and the destination insert under one
    /// claims-lock critical section.
    pub fn handover(&self, peer: PeerId, new_path: PeerPath) -> Result<FederatedJoin, CoreError> {
        let (dest, global) = self.routing.home_of_path(&new_path)?;
        let query_path = new_path.clone();
        enum Pending {
            Same(mpsc::Receiver<Result<(), CoreError>>),
            Cross(
                mpsc::Receiver<Result<(), CoreError>>,
                mpsc::Receiver<ChurnBatchOutcome>,
            ),
        }
        let pending = {
            let mut claims = self.claims.lock().expect("claims poisoned");
            let Some(&from) = claims.get(&peer) else {
                return Err(CoreError::UnknownPeer(peer));
            };
            if from == dest {
                let (tx, rx) = mpsc::channel();
                self.send_write(
                    dest,
                    RegionOp::Handover {
                        peer,
                        path: new_path,
                        reply: tx,
                    },
                );
                Pending::Same(rx)
            } else {
                claims.insert(peer, dest);
                let (ftx, frx) = mpsc::channel();
                let (atx, arx) = mpsc::channel();
                self.send_write(
                    from,
                    RegionOp::Forward {
                        peer,
                        to_region: dest.0,
                        reply: ftx,
                    },
                );
                self.send_write(
                    dest,
                    RegionOp::Absorb {
                        items: vec![(peer, new_path)],
                        reply: atx,
                    },
                );
                Pending::Cross(frx, arx)
            }
        };
        match pending {
            Pending::Same(rx) => rx.recv().expect("region worker alive")?,
            Pending::Cross(frx, arx) => {
                frx.recv()
                    .expect("region worker alive")
                    .expect("claims and regions agree");
                let out = arx.recv().expect("region worker alive");
                debug_assert_eq!(out.joined, 1, "peer was only live in `from`");
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
        let mut per_region: Vec<Vec<PeerId>> = vec![Vec::new(); self.servers.len()];
        let mut rxs = Vec::new();
        {
            let mut claims = self.claims.lock().expect("claims poisoned");
            for &peer in peers {
                if let Some(region) = claims.remove(&peer) {
                    per_region[region.index()].push(peer);
                }
            }
            for (r, batch) in per_region.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let (tx, rx) = mpsc::channel();
                self.send_write(
                    RegionId(r as u32),
                    RegionOp::Leave {
                        peers: batch,
                        reply: tx,
                    },
                );
                rxs.push(rx);
            }
        }
        rxs.into_iter()
            .map(|rx| rx.recv().expect("region worker alive"))
            .sum()
    }

    /// Batched heartbeat renewal — the actorized
    /// [`Federation::renew_batch`]; returns the number renewed.
    pub fn renew_batch(&self, peers: &[PeerId]) -> usize {
        let mut per_region: Vec<Vec<PeerId>> = vec![Vec::new(); self.servers.len()];
        let mut rxs = Vec::new();
        {
            let claims = self.claims.lock().expect("claims poisoned");
            for &peer in peers {
                if let Some(&region) = claims.get(&peer) {
                    per_region[region.index()].push(peer);
                }
            }
            for (r, batch) in per_region.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let (tx, rx) = mpsc::channel();
                self.send_write(
                    RegionId(r as u32),
                    RegionOp::Renew {
                        peers: batch,
                        reply: tx,
                    },
                );
                rxs.push(rx);
            }
        }
        rxs.into_iter()
            .map(|rx| rx.recv().expect("region worker alive"))
            .sum()
    }

    /// Federated lease expiry — the actorized
    /// [`Federation::expire_stale`]. All regions sweep concurrently.
    pub fn expire_stale(&self, max_age: u64) -> FederationSweep {
        let rxs = self.broadcast(|reply| RegionOp::Expire { max_age, reply });
        let mut out = FederationSweep::default();
        let mut gone: Vec<PeerId> = Vec::new();
        for (r, rx) in rxs.into_iter().enumerate() {
            let id = RegionId(r as u32);
            let sweep = rx.recv().expect("region worker alive");
            gone.extend(sweep.expired.iter().copied());
            out.expired
                .extend(sweep.expired.into_iter().map(|p| (id, p)));
            // Tombstones retired here belong to peers now living in their
            // destination region — their claims stay.
            out.moved_swept
                .extend(sweep.moved.into_iter().map(|(p, _)| (id, p)));
        }
        let mut claims = self.claims.lock().expect("claims poisoned");
        for p in gone {
            claims.remove(&p);
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
    /// multi-region readers from deadlocking behind queued write workers
    /// (see the module docs).
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

    fn send_write(&self, region: RegionId, op: RegionOp) {
        self.write_txs[region.index()]
            .send(op)
            .expect("region worker outlives the front door");
    }

    /// Enqueues one op (built by `make`) in every region's write mailbox
    /// under the claims lock, returning the reply receivers in region
    /// order.
    fn broadcast<T>(&self, make: impl Fn(mpsc::Sender<T>) -> RegionOp) -> Vec<mpsc::Receiver<T>> {
        let mut rxs = Vec::with_capacity(self.write_txs.len());
        let _claims = self.claims.lock().expect("claims poisoned");
        for r in 0..self.write_txs.len() {
            let (tx, rx) = mpsc::channel();
            self.send_write(RegionId(r as u32), make(tx));
            rxs.push(rx);
        }
        rxs
    }
}

impl Drop for ActorFederation {
    fn drop(&mut self) {
        self.write_txs.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
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

fn apply_region_op(srv: &mut ManagementServer, op: RegionOp) {
    match op {
        RegionOp::Absorb { items, reply } => {
            let _ = reply.send(srv.register_batch_renewing(items));
        }
        RegionOp::Handover { peer, path, reply } => {
            let _ = reply.send(srv.handover(peer, path).map(|_| ()));
        }
        RegionOp::Forward {
            peer,
            to_region,
            reply,
        } => {
            let _ = reply.send(srv.deregister_forwarding(peer, to_region));
        }
        RegionOp::Leave { peers, reply } => {
            let _ = reply.send(srv.leave_batch(&peers));
        }
        RegionOp::Renew { peers, reply } => {
            let _ = reply.send(srv.renew_batch(&peers));
        }
        RegionOp::Advance { reply } => {
            let _ = reply.send(srv.advance_epoch());
        }
        RegionOp::Expire { max_age, reply } => {
            let _ = reply.send(srv.expire_stale_full(max_age));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn cross_region_handover_through_mailboxes() {
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
    fn lock_order_survives_concurrent_queries_and_writes() {
        // Queries homed in every region hold read guards on all four
        // regions while cross-region handovers, departures, epochs and
        // sweeps keep each region's write worker queueing on its lock.
        // Acquired home-first, two such queries deadlock behind the queued
        // writers (std's RwLock parks new readers once a writer waits);
        // the ascending order cannot. The watchdog turns a hang into a
        // failure instead of a stuck test run.
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
                        // Cross-region move: teardown in one region's
                        // mailbox, insert in another's.
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
            panic!("federated reads deadlocked behind the region write workers");
        }
        stress.join().expect("stress threads ran clean");
        // Every join, query and handover answered: 64 + 60 registrations,
        // 4 × 2000 queries, 300 handovers.
        assert_eq!(f.stats().queries, 64 + 60 + 4 * 2_000 + 300);
    }
}
