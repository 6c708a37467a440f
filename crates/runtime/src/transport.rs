//! Pluggable frame transports.
//!
//! A [`Transport`] moves opaque frames between peers identified by dense
//! [`NodeId`]s — the same ids the [`Topology`](distclass_net::Topology)
//! uses. Two implementations ship:
//!
//! * [`ChannelTransport`] — in-process delivery over `std::sync::mpsc`
//!   channels, one mailbox per peer thread.
//! * [`UdpTransport`] — real datagrams over `std::net::UdpSocket`, one
//!   socket per peer, for clusters of OS processes or loopback deployments.
//!
//! Both are *fair-loss* links: frames may be dropped (UDP buffer
//! overflow, a mailbox whose peer is down) but are never corrupted,
//! duplicated or forged in flight. Under the threaded cluster driver every
//! send first passes a fault medium ([`crate::chaos`]), which injects a
//! fault plan's loss, partitions, delay, duplication and reordering. The peer loop ([`crate::cluster`]) layers acknowledgement,
//! retransmission and duplicate suppression on top to approximate the
//! reliable links of the paper's §3.1 network model.
//!
//! For crash–restart recovery the supervisor needs to mint a *fresh*
//! endpoint for a respawned peer; the [`EndpointNet`] trait abstracts
//! that. [`ChannelNet`] keeps a shared registry of mailbox senders so a
//! restarted incarnation atomically replaces its predecessor's mailbox
//! (frames addressed to the dead incarnation are dropped, exactly as a
//! rebooted sensor loses its radio buffer), and [`UdpNet`] rebinds the
//! node's original port.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use distclass_net::NodeId;

use crate::frame;

/// Moves opaque frames between peers.
///
/// Implementations are owned by exactly one peer thread, hence `Send` but
/// not `Sync`; the cluster harness hands each spawned peer its transport.
pub trait Transport: Send + 'static {
    /// Sends one frame to peer `to`. `Ok(())` means the frame was handed to
    /// the medium — fair-loss links may still drop it.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the destination is unknown or the medium
    /// rejects the frame outright.
    fn send(&mut self, to: NodeId, frame: &[u8]) -> io::Result<()>;

    /// Waits up to `timeout` for one inbound frame; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the medium fails (never for a mere timeout).
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>>;
}

/// Mints transport endpoints for peer incarnations.
///
/// The supervisor calls [`EndpointNet::endpoint`] once per spawn: at
/// cluster start for incarnation 0 and again after every crash–restart.
/// A fresh endpoint must atomically replace the dead incarnation's — other
/// peers keep addressing the same [`NodeId`] and must reach the successor.
pub trait EndpointNet: Send {
    /// The transport this net produces.
    type T: Transport;

    /// A fresh endpoint for node `id`'s incarnation `incarnation`.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when an endpoint cannot be produced (e.g. a
    /// prebuilt net asked to respawn, or a socket rebind failure).
    fn endpoint(&mut self, id: NodeId, incarnation: u16) -> io::Result<Self::T>;
}

/// The shared mailbox table of an in-process cluster: slot `i` holds the
/// sender for node `i`'s *current* incarnation.
#[derive(Debug)]
struct Registry {
    slots: Vec<Mutex<Sender<Vec<u8>>>>,
}

/// An in-process cluster network: builds [`ChannelTransport`] endpoints
/// over a shared mailbox registry, supporting crash–restart respawn.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use distclass_runtime::{ChannelNet, Transport};
///
/// let mut peers = ChannelNet::reliable(2);
/// let mut b = peers.pop().unwrap();
/// let mut a = peers.pop().unwrap();
/// a.send(1, b"hello").unwrap();
/// let got = b.recv_timeout(Duration::from_millis(50)).unwrap();
/// assert_eq!(got.as_deref(), Some(&b"hello"[..]));
/// ```
#[derive(Debug)]
pub struct ChannelNet {
    registry: Arc<Registry>,
}

impl ChannelNet {
    /// A network of `n` nodes with perfectly reliable delivery.
    pub fn new(n: usize) -> ChannelNet {
        let slots = (0..n)
            .map(|_| {
                // Placeholder mailboxes; `endpoint` installs real ones. A
                // send before any endpoint exists is a silent drop (the rx
                // half is discarded here), which is fair-loss-legal.
                let (tx, _rx) = mpsc::channel();
                Mutex::new(tx)
            })
            .collect();
        ChannelNet {
            registry: Arc::new(Registry { slots }),
        }
    }

    /// `n` connected transports with perfectly reliable delivery
    /// (incarnation 0 of every node).
    pub fn reliable(n: usize) -> Vec<ChannelTransport> {
        let mut net = ChannelNet::new(n);
        (0..n).map(|i| net.endpoint_now(i)).collect()
    }

    fn endpoint_now(&mut self, id: NodeId) -> ChannelTransport {
        let (tx, rx) = mpsc::channel();
        *self.registry.slots[id].lock().expect("registry poisoned") = tx;
        ChannelTransport {
            registry: Arc::clone(&self.registry),
            rx,
        }
    }
}

impl EndpointNet for ChannelNet {
    type T = ChannelTransport;

    fn endpoint(&mut self, id: NodeId, _incarnation: u16) -> io::Result<ChannelTransport> {
        if id >= self.registry.slots.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown peer {id}"),
            ));
        }
        Ok(self.endpoint_now(id))
    }
}

/// One peer's endpoint of an in-process [`ChannelNet`].
#[derive(Debug)]
pub struct ChannelTransport {
    registry: Arc<Registry>,
    rx: Receiver<Vec<u8>>,
}

impl Transport for ChannelTransport {
    fn send(&mut self, to: NodeId, frame: &[u8]) -> io::Result<()> {
        let slot = self.registry.slots.get(to).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("unknown peer {to}"))
        })?;
        // A disconnected receiver is a peer that already exited (or a dead
        // incarnation awaiting respawn) — on a fair-loss link that is
        // indistinguishable from a drop.
        let _ = slot.lock().expect("registry poisoned").send(frame.to_vec());
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => Ok(None),
        }
    }
}

/// A UDP endpoint bound to a local socket with a static peer table.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use distclass_runtime::{Transport, UdpTransport};
///
/// let mut peers = UdpTransport::bind_cluster(2)?;
/// let mut b = peers.pop().unwrap();
/// let mut a = peers.pop().unwrap();
/// a.send(1, b"over the wire")?;
/// let got = b.recv_timeout(Duration::from_millis(200))?;
/// assert_eq!(got.as_deref(), Some(&b"over the wire"[..]));
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    current_timeout: Option<Duration>,
    buf: Vec<u8>,
}

impl UdpTransport {
    /// Wraps an already-bound socket with a membership list: `peers[i]` is
    /// the address of node `i`. This is the constructor for multi-process
    /// or multi-host deployments, where the membership list comes from
    /// configuration.
    pub fn new(socket: UdpSocket, peers: Vec<SocketAddr>) -> UdpTransport {
        UdpTransport {
            socket,
            peers,
            current_timeout: None,
            buf: vec![0u8; 65_536],
        }
    }

    /// Binds `n` sockets on ephemeral loopback ports and wires them into a
    /// fully-connected membership list — the single-machine cluster used by
    /// tests and the `udp_cluster` example.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind_cluster(n: usize) -> io::Result<Vec<UdpTransport>> {
        let mut net = UdpNet::bind_cluster(n)?;
        (0..n).map(|i| net.endpoint(i, 0)).collect()
    }

    /// The local address this endpoint is bound to.
    ///
    /// # Errors
    ///
    /// Propagates the socket's error, if any.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, to: NodeId, frame: &[u8]) -> io::Result<()> {
        let addr = *self.peers.get(to).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("unknown peer {to}"))
        })?;
        if frame.len() > frame::MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds maximum datagram size",
            ));
        }
        self.socket.send_to(frame, addr).map(|_| ())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        // A zero read timeout means "block forever" to the socket API;
        // clamp to the shortest real wait instead.
        let timeout = timeout.max(Duration::from_millis(1));
        if self.current_timeout != Some(timeout) {
            self.socket.set_read_timeout(Some(timeout))?;
            self.current_timeout = Some(timeout);
        }
        match self.socket.recv_from(&mut self.buf) {
            Ok((len, _from)) => Ok(Some(self.buf[..len].to_vec())),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// A UDP cluster network that can respawn endpoints: a restarted peer
/// rebinds its original port (freed when the dead incarnation's socket
/// dropped), so the membership table other peers hold stays valid.
#[derive(Debug)]
pub struct UdpNet {
    peers: Vec<SocketAddr>,
    // Incarnation-0 sockets pre-bound by `bind_cluster`, handed out on the
    // first `endpoint` call per node.
    initial: Vec<Option<UdpSocket>>,
}

impl UdpNet {
    /// Binds `n` loopback sockets and remembers their addresses so dead
    /// incarnations can be rebound.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind_cluster(n: usize) -> io::Result<UdpNet> {
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
            .collect::<io::Result<_>>()?;
        let peers: Vec<SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<io::Result<_>>()?;
        Ok(UdpNet {
            peers,
            initial: sockets.into_iter().map(Some).collect(),
        })
    }
}

impl EndpointNet for UdpNet {
    type T = UdpTransport;

    fn endpoint(&mut self, id: NodeId, _incarnation: u16) -> io::Result<UdpTransport> {
        let slot = self.initial.get_mut(id).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("unknown peer {id}"))
        })?;
        let socket = match slot.take() {
            Some(socket) => socket,
            // Respawn: the dead incarnation's socket was dropped with its
            // thread; rebind the same port. Retry briefly in case the OS
            // hasn't released it yet.
            None => {
                let addr = self.peers[id];
                let mut last_err = None;
                let mut bound = None;
                for _ in 0..50 {
                    match UdpSocket::bind(addr) {
                        Ok(s) => {
                            bound = Some(s);
                            break;
                        }
                        Err(e) => {
                            last_err = Some(e);
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
                match bound {
                    Some(s) => s,
                    None => {
                        return Err(
                            last_err.unwrap_or_else(|| io::Error::other("udp rebind failed"))
                        )
                    }
                }
            }
        };
        Ok(UdpTransport::new(socket, self.peers.clone()))
    }
}

/// An [`EndpointNet`] over caller-provided transports: each node gets its
/// prebuilt endpoint once, and respawn is impossible (the net cannot mint
/// replacements), so a panicked peer is reported rather than respawned.
#[derive(Debug)]
pub struct PrebuiltNet<T> {
    slots: Vec<Option<T>>,
}

impl<T: Transport> PrebuiltNet<T> {
    /// Wraps one prebuilt transport per node.
    pub fn new(transports: Vec<T>) -> PrebuiltNet<T> {
        PrebuiltNet {
            slots: transports.into_iter().map(Some).collect(),
        }
    }
}

impl<T: Transport> EndpointNet for PrebuiltNet<T> {
    type T = T;

    fn endpoint(&mut self, id: NodeId, _incarnation: u16) -> io::Result<T> {
        self.slots
            .get_mut(id)
            .and_then(Option::take)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("prebuilt transports cannot respawn node {id}"),
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_delivers_in_order() {
        let mut peers = ChannelNet::reliable(3);
        let mut c = peers.pop().unwrap();
        let _b = peers.pop().unwrap();
        let mut a = peers.pop().unwrap();
        a.send(2, &[1]).unwrap();
        a.send(2, &[2]).unwrap();
        let t = Duration::from_millis(100);
        assert_eq!(c.recv_timeout(t).unwrap(), Some(vec![1]));
        assert_eq!(c.recv_timeout(t).unwrap(), Some(vec![2]));
        assert_eq!(c.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    }

    #[test]
    fn channel_rejects_unknown_peer() {
        let mut peers = ChannelNet::reliable(1);
        let mut a = peers.pop().unwrap();
        assert!(a.send(5, &[0]).is_err());
    }

    #[test]
    fn channel_send_to_exited_peer_is_a_drop() {
        let mut peers = ChannelNet::reliable(2);
        drop(peers.pop().unwrap());
        let mut a = peers.pop().unwrap();
        assert!(a.send(1, &[0]).is_ok());
    }

    #[test]
    fn respawned_endpoint_replaces_mailbox() {
        let mut net = ChannelNet::new(2);
        let mut a = net.endpoint(0, 0).unwrap();
        let b0 = net.endpoint(1, 0).unwrap();
        // Node 1 "crashes": its transport is dropped, frames sent during
        // the outage vanish like a powered-off radio's would.
        drop(b0);
        a.send(1, &[1]).unwrap();
        // Node 1 restarts with a fresh mailbox; new frames reach it.
        let mut b1 = net.endpoint(1, 1).unwrap();
        a.send(1, &[2]).unwrap();
        assert_eq!(
            b1.recv_timeout(Duration::from_millis(50)).unwrap(),
            Some(vec![2])
        );
        assert_eq!(b1.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    }

    #[test]
    fn prebuilt_net_cannot_respawn() {
        let mut net = PrebuiltNet::new(ChannelNet::reliable(1));
        assert!(net.endpoint(0, 0).is_ok());
        assert!(net.endpoint(0, 1).is_err());
    }

    #[test]
    fn udp_roundtrip_on_loopback() {
        let mut peers = UdpTransport::bind_cluster(2).unwrap();
        let mut b = peers.pop().unwrap();
        let mut a = peers.pop().unwrap();
        a.send(1, &[0xAB, 0xCD]).unwrap();
        let got = b.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(got, Some(vec![0xAB, 0xCD]));
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    }

    #[test]
    fn udp_rejects_oversized_frame() {
        let mut peers = UdpTransport::bind_cluster(1).unwrap();
        let mut a = peers.pop().unwrap();
        let big = vec![0u8; frame::MAX_FRAME + 1];
        assert!(a.send(0, &big).is_err());
    }

    #[test]
    fn udp_net_rebinds_after_drop() {
        if std::env::var_os("DISTCLASS_SKIP_UDP").is_some() {
            eprintln!("DISTCLASS_SKIP_UDP set; skipping UDP rebind test");
            return;
        }
        let mut net = UdpNet::bind_cluster(2).unwrap();
        let mut a = net.endpoint(0, 0).unwrap();
        let b0 = net.endpoint(1, 0).unwrap();
        let b_addr = b0.local_addr().unwrap();
        drop(b0);
        let mut b1 = net.endpoint(1, 1).unwrap();
        assert_eq!(b1.local_addr().unwrap(), b_addr, "respawn keeps the port");
        a.send(1, &[9]).unwrap();
        assert_eq!(
            b1.recv_timeout(Duration::from_millis(500)).unwrap(),
            Some(vec![9])
        );
    }
}
