//! The traced run's server: the serving plane `nearpeerd` builds
//! ([`build_service`]), wrapped in a timing decorator and served through
//! the daemon's own connection loop ([`serve_connection`]) on loopback,
//! inside the benchmark process so its spans share the client's clock.

use crate::client::now_ns;
use crate::workload::{K, LANDMARKS};
use nearpeer_bench::wire::{build_service, serve_connection};
use nearpeer_core::protocol::Message;
use nearpeer_core::{ServerConfig, TelemetryRegistry, WireService};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One timed call into the service, on the shared clock (ns after the
/// run epoch).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// For a directory op: how many directory ops the service had seen
    /// before it (the client turns this into its op index). For a push
    /// drain: the number of pushes drained.
    pub id: u64,
    /// Call start.
    pub start_ns: u64,
    /// Call end.
    pub end_ns: u64,
}

/// A [`WireService`] decorator timing every directory op and every push
/// drain while tracing is on. Everything else passes straight through.
pub struct Traced {
    inner: Arc<dyn WireService>,
    epoch: Instant,
    on: AtomicBool,
    seq: AtomicU64,
    handles: Mutex<Vec<Span>>,
    drains: Mutex<Vec<Span>>,
}

impl Traced {
    fn new(inner: Arc<dyn WireService>, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            on: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            handles: Mutex::new(Vec::new()),
            drains: Mutex::new(Vec::new()),
        }
    }

    /// Turns span recording on or off. The flag publishes no other data.
    pub fn set_tracing(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Takes the recorded `(op spans, drain spans)`.
    pub fn take_spans(&self) -> (Vec<Span>, Vec<Span>) {
        (
            std::mem::take(&mut *self.handles.lock().expect("span log poisoned")),
            std::mem::take(&mut *self.drains.lock().expect("span log poisoned")),
        )
    }
}

impl WireService for Traced {
    fn handle(&self, msg: Message) -> Option<Message> {
        self.handle_from(None, msg)
    }

    fn open_client(&self) -> Option<u64> {
        self.inner.open_client()
    }

    fn close_client(&self, client: u64) {
        self.inner.close_client(client)
    }

    fn handle_from(&self, client: Option<u64>, msg: Message) -> Option<Message> {
        let directory_op = matches!(
            msg,
            Message::QueryRequest { .. }
                | Message::JoinRequest { .. }
                | Message::HandoverRequest { .. }
                | Message::Leave { .. }
        );
        if !directory_op {
            return self.inner.handle_from(client, msg);
        }
        let id = self.seq.fetch_add(1, Ordering::Relaxed);
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.handle_from(client, msg);
        }
        let start_ns = now_ns(self.epoch);
        let reply = self.inner.handle_from(client, msg);
        let end_ns = now_ns(self.epoch);
        self.handles.lock().expect("span log poisoned").push(Span {
            id,
            start_ns,
            end_ns,
        });
        reply
    }

    fn drain_pushes(&self, client: u64, max: usize, out: &mut Vec<Message>) {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.drain_pushes(client, max, out);
        }
        let before = out.len();
        let start_ns = now_ns(self.epoch);
        self.inner.drain_pushes(client, max, out);
        let end_ns = now_ns(self.epoch);
        let drained = (out.len() - before) as u64;
        if drained > 0 {
            self.drains.lock().expect("span log poisoned").push(Span {
                id: drained,
                start_ns,
                end_ns,
            });
        }
    }

    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        self.inner.telemetry()
    }
}

/// The in-process server: a listener that accepts a fixed number of
/// connections and serves each on its own thread.
pub struct InProcess {
    /// Where it listens.
    pub addr: SocketAddr,
    /// The decorated service.
    pub service: Arc<Traced>,
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
}

impl InProcess {
    /// Builds the serving plane `nearpeerd --regions regions` would, and
    /// serves `conns` connections.
    pub fn start(regions: usize, conns: usize, epoch: Instant) -> io::Result<Self> {
        let config = ServerConfig {
            neighbor_count: K,
            ..ServerConfig::default()
        };
        let inner = build_service(LANDMARKS, regions, config)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let service = Arc::new(Traced::new(inner, epoch));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let served = Arc::clone(&service);
        let acceptor = std::thread::spawn(move || {
            let shutdown = Arc::new(AtomicBool::new(false));
            let mut serving = Vec::new();
            for _ in 0..conns {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                let service: Arc<dyn WireService> = served.clone();
                let shutdown = Arc::clone(&shutdown);
                serving.push(std::thread::spawn(move || {
                    serve_connection(stream, service, shutdown, addr, None)
                }));
            }
            serving
        });
        Ok(Self {
            addr,
            service,
            acceptor,
        })
    }

    /// Waits for every connection loop to end; call after the client
    /// closed its connections.
    pub fn join(self) {
        for serving in self.acceptor.join().expect("acceptor panicked") {
            serving.join().expect("serve loop panicked");
        }
    }
}
