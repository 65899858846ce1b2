//! The per-vertex programming interface.

use crate::params::GlobalParams;
use local_graphs::{NodeId, PortId};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

/// What a node decides at the end of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<O> {
    /// Keep running; the engine will deliver this round's messages.
    Continue,
    /// Halt with an output. A halted node sends no further messages.
    Halt(O),
}

/// The algorithm run by every vertex, as a state machine stepped once per
/// round.
///
/// `step(0, …)` is called before any communication (nothing is received);
/// `step(k, …)` for `k ≥ 1` sees the messages sent in step `k − 1`. A node
/// that halts at step `k` has therefore used exactly `k` communication
/// rounds — the engine reports the maximum over all nodes as the run's round
/// complexity.
pub trait NodeProgram {
    /// Message type (unbounded size, per the LOCAL model).
    type Msg: Clone + Send + Sync;
    /// Final output of a node (the label in an LCL solution).
    type Output: Clone + Send;

    /// Execute one round: read what the last exchange delivered, update
    /// state, write the outbox, decide whether to halt.
    fn step(&mut self, round: u32, io: &mut NodeIo<'_, Self::Msg>) -> Action<Self::Output>;
}

/// Factory creating the per-vertex state for a protocol.
///
/// The same algorithm runs at every vertex; `create` may use
/// [`NodeInit::node`] only to look up *local input* (e.g. the colors of
/// incident edges in an input edge coloring) — never to derive an identity.
/// Identity is available exclusively through [`NodeInit::id`] /
/// [`NodeIo::id`], which the engine populates only in DetLOCAL mode.
pub trait Protocol {
    /// Node state machine type.
    type Node: NodeProgram + Send;

    /// Build the initial state for one vertex.
    fn create(&self, init: &NodeInit<'_>) -> Self::Node;
}

/// Everything a vertex legitimately knows at time zero.
#[derive(Debug, Clone, Copy)]
pub struct NodeInit<'a> {
    /// Simulator-internal vertex index — for *input lookup only* (see
    /// [`Protocol::create`]).
    pub node: NodeId,
    /// Degree of the vertex.
    pub degree: usize,
    /// The vertex's unique ID in DetLOCAL mode; `None` in RandLOCAL mode.
    pub id: Option<u64>,
    /// Global parameters (`n`, `Δ`).
    pub params: &'a GlobalParams,
}

/// Per-round I/O handle: the messages the previous exchange delivered, the
/// outbox for this one, and the model capabilities (ID / randomness).
///
/// There is no per-node inbox: port `p` reads `prev[partner[p]]` in place,
/// where `prev` is the whole previous-sweep send buffer (shared, read-only)
/// and `partner[p]` the neighbour's send slot on the reverse edge.
#[derive(Debug)]
pub struct NodeIo<'a, M> {
    pub(crate) id: Option<u64>,
    pub(crate) params: &'a GlobalParams,
    pub(crate) prev: &'a [Option<M>],
    pub(crate) partner: &'a [usize],
    pub(crate) outbox: &'a mut [Option<M>],
    pub(crate) rng: Option<&'a mut ChaCha8Rng>,
}

impl<'a, M: Clone> NodeIo<'a, M> {
    /// Degree of this vertex (number of ports).
    pub fn degree(&self) -> usize {
        self.partner.len()
    }

    /// Global parameters known to every vertex.
    ///
    /// The returned reference outlives the `NodeIo` borrow (it points at the
    /// engine's parameters), so it can be captured while `self` is later
    /// borrowed mutably.
    pub fn params(&self) -> &'a GlobalParams {
        self.params
    }

    /// This vertex's unique ID — `Some` exactly in DetLOCAL mode.
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// The message received on port `p` in the last exchange, if any.
    ///
    /// # Panics
    ///
    /// Panics if `p >= degree`.
    pub fn recv(&self, p: PortId) -> Option<&M> {
        self.prev[self.partner[p]].as_ref()
    }

    /// Iterate over `(port, message)` for all ports that received a message.
    pub fn received(&self) -> impl Iterator<Item = (PortId, &M)> {
        self.partner
            .iter()
            .enumerate()
            .filter_map(|(p, &j)| self.prev[j].as_ref().map(|m| (p, m)))
    }

    /// Send `msg` on port `p` this round (overwrites an earlier send on the
    /// same port).
    ///
    /// # Panics
    ///
    /// Panics if `p >= degree`.
    pub fn send(&mut self, p: PortId, msg: M) {
        self.outbox[p] = Some(msg);
    }

    /// Send `msg` on every port: a clone on each port but the last, which
    /// receives `msg` itself (`degree − 1` clones; none at degree 0 or 1).
    pub fn broadcast(&mut self, msg: M) {
        if let Some((last, rest)) = self.outbox.split_last_mut() {
            for slot in rest {
                *slot = Some(msg.clone());
            }
            *last = Some(msg);
        }
    }

    /// The vertex's private random generator — RandLOCAL mode only.
    ///
    /// # Panics
    ///
    /// Panics in DetLOCAL mode: deterministic algorithms have no random
    /// bits, and an attempt to use them is a model violation, not a
    /// recoverable condition.
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
            .as_deref_mut()
            .expect("model violation: NodeIo::rng() called in a DetLOCAL run")
    }

    /// Whether this run provides randomness (i.e. is a RandLOCAL run).
    pub fn is_randomized(&self) -> bool {
        self.rng.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_send_recv_roundtrip() {
        let params = GlobalParams { n: 3, delta: 2 };
        // Port 0 reads slot 2, port 1 reads slot 0.
        let prev = vec![None, Some(8u32), Some(7)];
        let mut outbox = vec![None, None];
        let mut io = NodeIo {
            id: Some(5),
            params: &params,
            prev: &prev,
            partner: &[2, 0],
            outbox: &mut outbox,
            rng: None,
        };
        assert_eq!(io.degree(), 2);
        assert_eq!(io.id(), Some(5));
        assert_eq!(io.recv(0), Some(&7));
        assert_eq!(io.recv(1), None);
        assert_eq!(io.received().collect::<Vec<_>>(), vec![(0, &7)]);
        io.send(1, 9);
        io.broadcast(3);
        assert!(!io.is_randomized());
        let _ = io;
        assert_eq!(outbox, vec![Some(3), Some(3)]);
    }

    /// Counts its clones through a shared counter.
    struct Counted<'c>(&'c std::cell::Cell<usize>);
    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(self.0)
        }
    }

    #[test]
    fn broadcast_clones_degree_minus_one_times() {
        let params = GlobalParams { n: 8, delta: 5 };
        for degree in 0..=5 {
            let clones = std::cell::Cell::new(0);
            let prev: Vec<Option<Counted<'_>>> = (0..degree).map(|_| None).collect();
            let partner: Vec<usize> = (0..degree).collect();
            let mut outbox: Vec<Option<Counted<'_>>> = (0..degree).map(|_| None).collect();
            let mut io = NodeIo {
                id: None,
                params: &params,
                prev: &prev,
                partner: &partner,
                outbox: &mut outbox,
                rng: None,
            };
            io.broadcast(Counted(&clones));
            assert_eq!(clones.get(), degree.saturating_sub(1), "degree {degree}");
            assert!(outbox.iter().all(Option::is_some), "degree {degree}");
        }
    }

    #[test]
    #[should_panic(expected = "model violation")]
    fn rng_in_det_mode_panics() {
        let params = GlobalParams { n: 1, delta: 0 };
        let mut outbox: Vec<Option<u32>> = vec![];
        let mut io = NodeIo {
            id: Some(0),
            params: &params,
            prev: &[],
            partner: &[],
            outbox: &mut outbox,
            rng: None,
        };
        let _ = io.rng();
    }
}
