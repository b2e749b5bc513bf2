//! Role hosts: the event-driven engine that runs [`WireRole`]s over real
//! sockets.
//!
//! Each role gets a *role thread* that owns the role, the write half of
//! every connection and an `mpsc` inbox, and blocks on that inbox. Two
//! kinds of helper thread feed it, each looping on one blocking call:
//!
//! * one **accept thread** per host blocks in `accept(2)`, sets
//!   `TCP_NODELAY`, hands the connection to the role thread, and only then
//!   starts its reader — so the role thread always knows a connection
//!   before its first frame. Backpressure is literal: at `max_conns` live
//!   inbound connections the thread waits for one to close instead of
//!   calling `accept(2)`, letting the kernel's SYN backlog absorb or shed
//!   the excess;
//! * one **reader thread** per connection, accepted or dialed, blocks in
//!   `read(2)` on its own handle of the socket, reassembles frames with
//!   [`FrameReader`] and sends them to the inbox in stream order, then a
//!   final `Closed`.
//!
//! Everything protocol-visible stays on the role thread, in per-connection
//! order: hello checks, the label-bus pop, `world.observe` and `on_frame`.
//! Writes go out from the role thread on the blocking socket, one `write`
//! per frame. No thread sleeps waiting for work.
//!
//! A host stops when its initiator finishes, when the run sends `Stop`,
//! when its deadline passes, or when its role errors or panics. Dropping
//! it then stops its accept thread (a per-host stop flag plus a
//! self-connect to wake `accept(2)`), shuts every connection down so its
//! reader wakes, and joins every thread the host started.
//!
//! ## Connection hello and the label side channel
//!
//! The first frame on every connection is a CONNECT hello:
//! `nonce:u64be ‖ sender:u16be`. In loopback mode the nonce must have
//! been pre-registered (single-use) by the sending host on the shared
//! [`LabelBus`] — a rogue local connection that invents a hello is
//! poisoned and observes nothing. Verified data frames then pop exactly
//! one label per frame from the bus's per-direction FIFO (valid because
//! TCP preserves order within a connection, each directed pair uses one
//! connection, and the role thread handles a connection's frames in
//! order), and the engine replays the simulator's delivery rule —
//! `world.observe(entity, &label)` *before* the role sees the frame. In
//! multi-process mode there is no shared bus or world: the hello only
//! identifies the peer, frames deliver with `Label::Public`, and the twin
//! check belongs to the loopback run.
//!
//! ## Fail-closed invariants
//!
//! * A decode error ([`FrameReader`]) closes that connection; no resync
//!   guessing.
//! * A frame before a (valid) hello, a second hello, or a data frame
//!   with no queued label closes the connection.
//! * A role panic tears down the run with [`ServeError::RoleCrash`];
//!   hostile *wire bytes* can never cause one (roles are written
//!   fail-closed, and `tests/serve_loopback.rs` fuzzes the decoder).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcp_core::role::RoleKind;
use dcp_core::{EntityId, Label, World};
use dcp_runtime::seam::{
    apply_effects, PeerId, RoleSpec, ServeSpec, WireCtx, WireEffects, WireMsg, WireRole,
};
use dcp_transport::frame::{Frame, FrameType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::{write_frame, FrameReader};
use crate::{ServeError, ServeOutcome};

/// Engine knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-host inbound connection cap; at the cap the host stops
    /// accepting (backpressure) until a connection closes.
    pub max_conns: usize,
    /// Seed for engine randomness (role RNGs, hello nonces). The same
    /// seed the simulated twin ran with, by convention.
    pub seed: u64,
    /// Wall-clock bound on the whole run: when it passes, every host
    /// stops regardless of progress (a hung peer must not hang the
    /// process forever).
    pub deadline: Duration,
    /// Loopback only: if set, the engine sends every role's bound
    /// address (indexed by peer id) here right after binding, before any
    /// role starts. Exists so tests can aim hostile traffic at live
    /// listeners; production callers leave it `None`.
    pub port_report: Option<std::sync::mpsc::Sender<Vec<SocketAddr>>>,
    /// Dial attempts per outbound connection (minimum 1). A peer that is
    /// still binding, or briefly restarting, refuses the first connect;
    /// the host retries with backoff instead of failing the run, and a
    /// peer still unreachable after the budget is a typed
    /// [`ServeError::DialExhausted`](crate::ServeError::DialExhausted).
    pub dial_attempts: u32,
    /// Base backoff between dial attempts; attempt `k` waits roughly
    /// `k × dial_backoff`, with ±50% seeded jitter so a herd of
    /// redialing hosts never re-synchronizes.
    pub dial_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_conns: 64,
            seed: 0,
            deadline: Duration::from_secs(30),
            port_report: None,
            dial_attempts: 4,
            dial_backoff: Duration::from_millis(25),
        }
    }
}

/// The loopback label side channel plus the hello-nonce registry.
///
/// Labels are verification shadow state — they never touch a socket.
/// Each directed role pair `(from, to)` keeps a FIFO of labels, pushed
/// by the sender *before* the frame bytes are written and popped by the
/// receiver per delivered frame; TCP's in-order delivery on the single
/// connection per pair keeps bytes and labels in lock-step.
#[derive(Default)]
pub(crate) struct LabelBus {
    queues: Mutex<HashMap<(u16, u16), VecDeque<Label>>>,
    nonces: Mutex<HashMap<u64, u16>>,
}

impl LabelBus {
    fn push(&self, from: u16, to: u16, label: Label) {
        self.queues
            .lock()
            .unwrap()
            .entry((from, to))
            .or_default()
            .push_back(label);
    }

    fn pop(&self, from: u16, to: u16) -> Option<Label> {
        self.queues
            .lock()
            .unwrap()
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
    }

    fn register_nonce(&self, nonce: u64, sender: u16) {
        self.nonces.lock().unwrap().insert(nonce, sender);
    }

    /// Single-use: a replayed hello finds its nonce gone and fails.
    fn take_nonce(&self, nonce: u64) -> Option<u16> {
        self.nonces.lock().unwrap().remove(&nonce)
    }
}

/// A connection's id within one host, from a per-host counter: the
/// accept thread and the role thread both draw from it.
type ConnId = u64;

/// What a role thread's inbox carries.
enum Event {
    /// The accept thread took an inbound connection; the stream is the
    /// role thread's write half. Always precedes the connection's frames.
    Accepted(ConnId, TcpStream),
    /// Frames a connection's reader decoded, in stream order.
    Frames(ConnId, Vec<Frame>),
    /// The connection's reader is done — end of stream, a socket error or
    /// an undecodable frame. Always its reader's last event.
    Closed(ConnId),
    /// Loopback only: the run is over.
    Stop,
}

/// The role thread's side of one full-duplex connection: either accepted
/// (peer learned from the hello) or dialed (peer known at connect time).
/// A directed role pair uses exactly one connection — replies ride the
/// requester's dial — so the label side channel's per-pair FIFO stays
/// aligned with TCP's in-order delivery.
struct Conn {
    /// The write half; the connection's reader thread holds a clone.
    stream: TcpStream,
    /// `Some(peer)` once identified: immediately for dialed connections,
    /// after a valid hello for accepted ones. Frames on an accepted
    /// connection before its hello are a protocol violation and close it.
    peer: Option<u16>,
    /// Accepted connections expect a hello; dialed ones must never see
    /// one.
    dialed: bool,
}

/// Lock, ignoring poison: the engine's own locks guard counters and
/// handle lists that a panic cannot leave half-written, and teardown must
/// still run while a role panic unwinds.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The accept thread's gate: the live inbound connection count that is
/// the backpressure, and the host's stop flag. Per host, because an
/// initiator's host stops before the rest of the run.
#[derive(Default)]
struct Gate {
    /// `(live inbound connections, stopped)`.
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Gate {
    /// Block while `cap` inbound connections are live; `false` once the
    /// host has stopped.
    fn admit(&self, cap: usize) -> bool {
        let mut state = lock(&self.state);
        while state.0 >= cap && !state.1 {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        !state.1
    }

    fn stopped(&self) -> bool {
        lock(&self.state).1
    }

    fn opened(&self) {
        lock(&self.state).0 += 1;
    }

    fn closed(&self) {
        lock(&self.state).0 -= 1;
        self.changed.notify_all();
    }

    fn stop(&self) {
        lock(&self.state).1 = true;
        self.changed.notify_all();
    }
}

/// Stack size of accept and reader threads. They run shallow loops;
/// a size well apart from the role threads' default keeps the C
/// library from handing them a role thread's cached, deeply touched
/// stack (and the reverse), which would grow resident memory run over
/// run.
const HELPER_STACK: usize = 256 << 10;

/// Start an accept or reader thread.
fn spawn_helper(
    name: &str,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name.into())
        .stack_size(HELPER_STACK)
        .spawn(body)
}

/// Every reader thread a host started, joined when the host drops.
#[derive(Default)]
struct Readers(Mutex<Vec<JoinHandle<()>>>);

impl Readers {
    /// Start connection `id`'s reader on `stream`; `on_exit` runs after
    /// its final `Closed`.
    fn spawn(
        &self,
        id: ConnId,
        stream: TcpStream,
        events: Sender<Event>,
        on_exit: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<()> {
        let handle = spawn_helper("dcp-serve-read", move || {
            read_frames(id, stream, &events);
            on_exit();
        })?;
        let mut all = lock(&self.0);
        // Join finished readers now (it cannot block) so a long-lived
        // service does not accumulate their handles.
        let (finished, mut live): (Vec<_>, Vec<_>) = all.drain(..).partition(|h| h.is_finished());
        live.push(handle);
        *all = live;
        drop(all);
        for reader in finished {
            let _ = reader.join();
        }
        Ok(())
    }

    fn join_all(&self) {
        for handle in std::mem::take(&mut *lock(&self.0)) {
            let _ = handle.join();
        }
    }
}

/// A connection's reader thread: blocking reads, fail-closed reassembly,
/// frames to the inbox in stream order, then `Closed`.
fn read_frames(id: ConnId, mut stream: TcpStream, events: &Sender<Event>) {
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        match reader.push(&buf[..n]) {
            Ok(frames) if frames.is_empty() => {}
            Ok(frames) => {
                if events.send(Event::Frames(id, frames)).is_err() {
                    return;
                }
            }
            // Undecodable stream: fail closed.
            Err(_) => break,
        }
    }
    let _ = events.send(Event::Closed(id));
}

/// A host's accept thread. Under the cap it blocks in `accept(2)`, hands
/// each connection to the role thread and then starts its reader; at the
/// cap it waits for a connection to close and does not accept at all.
fn accept_loop(
    listener: TcpListener,
    cap: usize,
    gate: Arc<Gate>,
    events: Sender<Event>,
    ids: Arc<AtomicU64>,
    readers: Arc<Readers>,
) {
    while gate.admit(cap) {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        // The host's own wake-up connection, or a peer racing its stop.
        if gate.stopped() {
            break;
        }
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let id = ids.fetch_add(1, Ordering::Relaxed);
        gate.opened();
        if events.send(Event::Accepted(id, stream)).is_err() {
            break;
        }
        let release = gate.clone();
        if readers
            .spawn(id, read_half, events.clone(), move || release.closed())
            .is_err()
        {
            // No reader, no connection: the role thread forgets it and
            // its slot frees.
            let _ = events.send(Event::Closed(id));
            gate.closed();
        }
    }
}

/// Engine state shared by every host of one run.
struct SharedRun {
    /// Loopback only: the knowledge-ledger twin.
    world: Option<Arc<Mutex<World>>>,
    /// Loopback only: the label side channel.
    bus: Option<Arc<LabelBus>>,
    units: Arc<AtomicU64>,
    /// Loopback only: each initiator reports here once its workload is
    /// done.
    done: Option<Sender<()>>,
}

struct RoleHost {
    idx: u16,
    entity: EntityId,
    kind: RoleKind,
    role: Box<dyn WireRole>,
    peer_addrs: HashMap<u16, SocketAddr>,
    conns: BTreeMap<ConnId, Conn>,
    /// Role-visible RNG (sealing operations).
    rng: StdRng,
    /// Engine-only RNG (hello nonces) — separate so engine draws can
    /// never perturb protocol-level randomness.
    nonce_rng: StdRng,
    shared: SharedRun,
    dial_attempts: u32,
    dial_backoff: Duration,
    /// The host stops here regardless of progress.
    deadline: Instant,
    inbox: Receiver<Event>,
    /// The inbox's sending side, cloned into every reader.
    events: Sender<Event>,
    ids: Arc<AtomicU64>,
    gate: Arc<Gate>,
    readers: Arc<Readers>,
    /// The accept thread, and the address that wakes its `accept(2)`.
    acceptor: Option<(JoinHandle<()>, SocketAddr)>,
}

impl RoleHost {
    /// Host role `idx` on `listener`; its accept thread starts at once,
    /// and connections queue in the inbox until [`RoleHost::run`].
    fn new(
        idx: u16,
        rs: RoleSpec,
        listener: TcpListener,
        peer_addrs: HashMap<u16, SocketAddr>,
        shared: SharedRun,
        cfg: &ServeConfig,
    ) -> Result<RoleHost, ServeError> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let (events, inbox) = mpsc::channel();
        let ids = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(Gate::default());
        let readers = Arc::new(Readers::default());
        let acceptor = {
            let (gate, events, ids, readers) =
                (gate.clone(), events.clone(), ids.clone(), readers.clone());
            let cap = cfg.max_conns;
            spawn_helper("dcp-serve-accept", move || {
                accept_loop(listener, cap, gate, events, ids, readers)
            })?
        };
        let i = idx as u64;
        Ok(RoleHost {
            idx,
            entity: rs.entity,
            kind: rs.kind,
            role: rs.role,
            peer_addrs,
            conns: BTreeMap::new(),
            rng: StdRng::seed_from_u64(cfg.seed ^ (0x5e57e ^ i).wrapping_mul(0x9e37)),
            nonce_rng: StdRng::seed_from_u64(cfg.seed ^ 0xa0_0e ^ (i << 32)),
            shared,
            dial_attempts: cfg.dial_attempts,
            dial_backoff: cfg.dial_backoff,
            deadline: Instant::now() + cfg.deadline,
            inbox,
            events,
            ids,
            gate,
            readers,
            acceptor: Some((acceptor, wake)),
        })
    }

    fn run(mut self) -> Result<(), ServeError> {
        let fx = {
            let mut ctx = WireCtx::new(&mut self.rng);
            self.role.on_start(&mut ctx);
            ctx.finish()
        };
        self.apply(fx)?;
        loop {
            if self.kind == RoleKind::Initiator && self.role.finished() {
                if let Some(done) = &self.shared.done {
                    let _ = done.send(());
                }
                return Ok(());
            }
            let wait = self.deadline.saturating_duration_since(Instant::now());
            match self.inbox.recv_timeout(wait) {
                Ok(Event::Accepted(id, stream)) => {
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            peer: None,
                            dialed: false,
                        },
                    );
                }
                Ok(Event::Frames(id, frames)) => {
                    for frame in frames {
                        if !self.handle_frame(id, frame)? {
                            self.close(id);
                            break;
                        }
                    }
                }
                Ok(Event::Closed(id)) => {
                    self.conns.remove(&id);
                }
                // The run is over, or the deadline passed.
                Ok(Event::Stop) | Err(_) => return Ok(()),
            }
        }
    }

    /// Fail closed: shut the socket down, which wakes its reader, and
    /// forget the connection.
    fn close(&mut self, id: ConnId) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Process one decoded frame on connection `id`. `Ok(false)` poisons
    /// the connection (fail closed) — as does a frame for a connection
    /// already closed; errors tear the run down.
    fn handle_frame(&mut self, id: ConnId, frame: Frame) -> Result<bool, ServeError> {
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(false);
        };
        // A hello on a connection *we* dialed is a protocol violation no
        // matter what it claims.
        if conn.dialed && frame.ftype == FrameType::Connect {
            return Ok(false);
        }
        match (conn.peer, frame.ftype) {
            (None, FrameType::Connect) => {
                if frame.payload.len() != 10 {
                    return Ok(false);
                }
                let nonce = u64::from_be_bytes(frame.payload[..8].try_into().expect("8 bytes"));
                let from = u16::from_be_bytes([frame.payload[8], frame.payload[9]]);
                match &self.shared.bus {
                    // Loopback: the hello must present a nonce the
                    // claimed sender registered — single-use, so replays
                    // fail too. A rogue connection observes nothing.
                    Some(bus) => match bus.take_nonce(nonce) {
                        Some(registered) if registered == from => {
                            conn.peer = Some(from);
                            Ok(true)
                        }
                        _ => Ok(false),
                    },
                    // Multi-process: the hello is identification, not
                    // authentication (that is the transport-security
                    // layer's job, out of scope here — see docs/SERVE.md).
                    None => {
                        conn.peer = Some(from);
                        Ok(true)
                    }
                }
            }
            // Data before a hello, or a second hello: protocol violation.
            (None, _) | (Some(_), FrameType::Connect) => Ok(false),
            (Some(from), ftype) => {
                let label = match &self.shared.bus {
                    Some(bus) => match bus.pop(from, self.idx) {
                        Some(label) => label,
                        // Bytes without a shadow label would mean the
                        // sender bypassed the seam: desync, fail closed.
                        None => return Ok(false),
                    },
                    None => Label::Public,
                };
                // The simulator's delivery rule, replayed: the receiving
                // entity observes the label before protocol processing.
                if let Some(world) = &self.shared.world {
                    world.lock().unwrap().observe(self.entity, &label);
                }
                let fx = {
                    let mut ctx = WireCtx::new(&mut self.rng);
                    self.role.on_frame(
                        &mut ctx,
                        PeerId(from),
                        WireMsg {
                            ftype,
                            payload: frame.payload,
                            label,
                        },
                    );
                    ctx.finish()
                };
                self.apply(fx)?;
                Ok(true)
            }
        }
    }

    fn apply(&mut self, fx: WireEffects) -> Result<(), ServeError> {
        if let Some(world) = &self.shared.world {
            apply_effects(&mut world.lock().unwrap(), self.entity, &fx);
        }
        if fx.units_done > 0 {
            self.shared.units.fetch_add(fx.units_done, Ordering::SeqCst);
        }
        for (to, msg) in fx.out {
            self.send(to.0, msg)?;
        }
        Ok(())
    }

    fn send(&mut self, to: u16, msg: WireMsg) -> Result<(), ServeError> {
        // Prefer the connection we already share with this peer — the
        // one they dialed to us, or one we dialed earlier. Replies riding
        // the requester's own connection is what lets a pure responder
        // (the origin) run with no peer addresses at all, and keeps each
        // pair on a single TCP stream so the loopback label FIFO stays
        // aligned with byte order.
        let id = match self.conns.iter().find(|(_, c)| c.peer == Some(to)) {
            Some((&id, _)) => id,
            None => self.dial(to)?,
        };
        // Label rides the side channel, pushed strictly before the frame
        // bytes so the receiver can never see bytes without their label.
        if let Some(bus) = &self.shared.bus {
            bus.push(self.idx, to, msg.label.clone());
        }
        let conn = self.conns.get_mut(&id).expect("just found or dialed");
        write_frame(&mut conn.stream, msg.ftype, &msg.payload)
    }

    /// Open this host's connection to peer `to`: dial, send the hello,
    /// start the reader.
    fn dial(&mut self, to: u16) -> Result<ConnId, ServeError> {
        let addr = *self
            .peer_addrs
            .get(&to)
            .ok_or(ServeError::UnknownPeer(to))?;
        let mut stream = dial_with_backoff(
            addr,
            to,
            self.dial_attempts,
            self.dial_backoff,
            &mut self.nonce_rng,
        )?;
        stream.set_nodelay(true)?;
        let nonce: u64 = self.nonce_rng.gen();
        if let Some(bus) = &self.shared.bus {
            bus.register_nonce(nonce, self.idx);
        }
        let mut hello = nonce.to_be_bytes().to_vec();
        hello.extend_from_slice(&self.idx.to_be_bytes());
        write_frame(&mut stream, FrameType::Connect, &hello)?;
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        self.readers
            .spawn(id, stream.try_clone()?, self.events.clone(), || {})?;
        self.conns.insert(
            id,
            Conn {
                stream,
                peer: Some(to),
                dialed: true,
            },
        );
        Ok(id)
    }
}

impl Drop for RoleHost {
    /// However the host ended — its workload done, `Stop`, the deadline,
    /// an error, or a role panic unwinding — no thread it started
    /// outlives it.
    fn drop(&mut self) {
        if let Some((acceptor, wake)) = self.acceptor.take() {
            // The flag releases an accept thread waiting at the cap; the
            // self-connect wakes one blocked in `accept(2)`.
            self.gate.stop();
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = acceptor.join();
        }
        // Connections the accept thread handed over but the role thread
        // never took.
        while let Ok(event) = self.inbox.try_recv() {
            if let Event::Accepted(_, stream) = event {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        for conn in self.conns.values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.readers.join_all();
    }
}

/// Dial a peer with bounded retry: transient refusals (a peer that has
/// not finished binding, or is briefly restarting) are retried with
/// linear backoff plus seeded jitter from the engine-only RNG; a peer
/// still unreachable after the budget is a typed
/// [`ServeError::DialExhausted`], never a hang and never a silent drop.
fn dial_with_backoff(
    addr: SocketAddr,
    peer: u16,
    attempts: u32,
    backoff: Duration,
    jitter_rng: &mut StdRng,
) -> Result<TcpStream, ServeError> {
    let budget = attempts.max(1);
    let mut last = None;
    for attempt in 0..budget {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < budget {
                    // Attempt k waits roughly k × backoff, jittered into
                    // [50%, 150%] so redialing hosts spread out.
                    let base = (backoff.as_micros() as u64).max(1) * (attempt as u64 + 1);
                    let jittered = base / 2 + jitter_rng.gen_range(0..=base);
                    std::thread::sleep(Duration::from_micros(jittered));
                }
            }
        }
    }
    Err(ServeError::DialExhausted {
        peer,
        attempts: budget,
        last: last.expect("at least one attempt was made"),
    })
}

/// Run a whole wiring in one process: every role a thread, traffic over
/// real loopback TCP, labels on the in-memory side channel, the world a
/// shared twin ledger. Returns when every initiator role reports
/// [`WireRole::finished`] (or the deadline passes), after gracefully
/// shutting the service hosts down.
pub fn run_loopback(spec: ServeSpec, cfg: &ServeConfig) -> Result<ServeOutcome, ServeError> {
    let n = spec.roles.len();
    let mut listeners = Vec::with_capacity(n);
    let mut peer_addrs = HashMap::new();
    for i in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(ServeError::Io)?;
        peer_addrs.insert(i as u16, listener.local_addr().map_err(ServeError::Io)?);
        listeners.push(listener);
    }
    if let Some(tx) = &cfg.port_report {
        let addrs: Vec<SocketAddr> = (0..n).map(|i| peer_addrs[&(i as u16)]).collect();
        let _ = tx.send(addrs);
    }

    let world = Arc::new(Mutex::new(spec.world));
    let bus = Arc::new(LabelBus::default());
    let units = Arc::new(AtomicU64::new(0));
    let (done, finished) = mpsc::channel();
    let expected_units = spec.expected_units;

    let mut initiators = 0usize;
    let mut hosts = Vec::with_capacity(n);
    for (i, (rs, listener)) in spec.roles.into_iter().zip(listeners).enumerate() {
        if rs.kind == RoleKind::Initiator {
            initiators += 1;
        }
        let name = rs.name.clone();
        let shared = SharedRun {
            world: Some(world.clone()),
            bus: Some(bus.clone()),
            units: units.clone(),
            done: Some(done.clone()),
        };
        let host = RoleHost::new(i as u16, rs, listener, peer_addrs.clone(), shared, cfg)?;
        hosts.push((name, host));
    }
    drop(done);
    let mut stops = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for (name, host) in hosts {
        stops.push(host.events.clone());
        handles.push((name, std::thread::spawn(move || host.run())));
    }

    // Drive the run: initiators finish on their own and report; services
    // are stopped afterwards. The deadline bounds a wedged run, and a run
    // whose hosts have all exited stops waiting at once.
    let deadline = Instant::now() + cfg.deadline;
    for _ in 0..initiators {
        let wait = deadline.saturating_duration_since(Instant::now());
        if finished.recv_timeout(wait).is_err() {
            break;
        }
    }
    for stop in &stops {
        let _ = stop.send(Event::Stop);
    }

    let mut first_err = None;
    for (name, handle) in handles {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => first_err = first_err.or(Some(ServeError::RoleCrash(name))),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    let world = Arc::try_unwrap(world)
        .map_err(|_| ServeError::RoleCrash("world still shared".into()))?
        .into_inner()
        .unwrap();
    Ok(ServeOutcome {
        world,
        completed_units: units.load(Ordering::SeqCst),
        expected_units,
    })
}

/// Run exactly one role of a wiring in this process, speaking real TCP
/// to peers given as `(peer_name, addr)` pairs. No shared world or label
/// bus exists across processes — bytes flow and the role's protocol
/// logic runs, while knowledge-table verification remains the loopback
/// twin's job. Returns the role's completed units when it finishes (an
/// initiator) or when the deadline passes (services run until then).
pub fn run_role(
    mut spec: ServeSpec,
    role_name: &str,
    listen: SocketAddr,
    peers: &[(String, SocketAddr)],
    cfg: &ServeConfig,
) -> Result<u64, ServeError> {
    let idx = spec
        .role_index(role_name)
        .ok_or_else(|| ServeError::UnknownRole(role_name.to_string()))?;
    let mut peer_addrs = HashMap::new();
    for (name, addr) in peers {
        let pi = spec
            .role_index(name)
            .ok_or_else(|| ServeError::UnknownRole(name.clone()))?;
        peer_addrs.insert(pi as u16, *addr);
    }
    let rs = spec.roles.swap_remove(idx);
    let listener = TcpListener::bind(listen).map_err(ServeError::Io)?;
    let units = Arc::new(AtomicU64::new(0));
    let shared = SharedRun {
        world: None,
        bus: None,
        units: units.clone(),
        done: None,
    };
    // The host's deadline doubles as the service-role lifetime: without
    // a cross-process control plane, "graceful shutdown" for a lone
    // service process is a bounded run.
    RoleHost::new(idx as u16, rs, listener, peer_addrs, shared, cfg)?.run()?;
    Ok(units.load(Ordering::SeqCst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, SocketAddrV4, TcpListener};

    /// Nobody listening and nobody ever will: the dial budget drains and
    /// the caller gets the typed exhaustion error, not a hang.
    #[test]
    fn dial_exhausts_into_typed_error() {
        // Bind-then-drop reserves a port that is closed by the time we dial.
        let addr = {
            let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            l.local_addr().unwrap()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let err = dial_with_backoff(addr, 3, 3, Duration::from_micros(100), &mut rng)
            .expect_err("closed port must not connect");
        match err {
            ServeError::DialExhausted {
                peer,
                attempts,
                last,
            } => {
                assert_eq!(peer, 3);
                assert_eq!(attempts, 3);
                assert_eq!(last.kind(), std::io::ErrorKind::ConnectionRefused);
            }
            other => panic!("expected DialExhausted, got {other}"),
        }
    }

    /// A peer that binds late (restart, slow start) is reached by the
    /// retry loop instead of failing the whole run on the first refusal.
    #[test]
    fn dial_retries_until_late_listener_appears() {
        let addr = {
            let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            l.local_addr().unwrap()
        };
        let bind_to = match addr {
            SocketAddr::V4(v4) => SocketAddrV4::new(*v4.ip(), v4.port()),
            SocketAddr::V6(_) => unreachable!("bound v4 above"),
        };
        let listener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            let l = TcpListener::bind(bind_to).unwrap();
            // Hold the listener long enough for the dialer to land.
            let _ = l.accept();
        });
        let mut rng = StdRng::seed_from_u64(11);
        let stream = dial_with_backoff(addr, 9, 12, Duration::from_millis(10), &mut rng);
        assert!(
            stream.is_ok(),
            "late listener should be reached: {:?}",
            stream.err()
        );
        drop(stream);
        let _ = listener.join();
    }
}
