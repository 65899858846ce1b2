//! A "public state" programming layer over the round engine.
//!
//! Most symmetry-breaking algorithms in the literature are phrased as: *every
//! round, each vertex inspects its neighbors' current states and updates its
//! own*. [`SyncAlgorithm`] captures exactly that; [`run_sync`] compiles it to
//! a message-passing [`Protocol`] where each vertex broadcasts its state every
//! round.
//!
//! Neighbor states live in one run-wide *last-heard column*: one slot per
//! directed edge, in the engine's CSR slot order (vertex `v` owns slots
//! `csr_offsets()[v] .. csr_offsets()[v + 1]`, one per port). The column is
//! seeded with every neighbor's initial state, and each delivered broadcast
//! overwrites its slot; a message that never arrives — from a halted,
//! crashed or dropped sender — leaves the slot stale. `update` reads the
//! vertex's own segment in place, so after setup the layer itself allocates
//! nothing (cloning a state that owns heap data still does).
//!
//! A decided vertex keeps broadcasting its final state until it halts: in
//! fault-free runs once every neighbor has decided, in faulty runs one round
//! after deciding (a crashed neighbor would otherwise pin the whole run at
//! the sweep budget).
//!
//! Round accounting: the reported complexity is the largest round in which
//! any vertex *decided* its output. The engine run terminates one
//! bookkeeping sweep after the last decision — that extra sweep is
//! infrastructure, not algorithmic cost, and is excluded from the metric.

use local_graphs::{Graph, Neighbor, PortId};
use local_model::{
    Action, Breach, Budget, Engine, ExecSpec, GlobalParams, Mode, NodeInit, NodeIo, NodeProgram,
    Outcome, Protocol, SimError,
};
use rand::RngCore;
use std::marker::PhantomData;
use std::sync::Mutex;

/// The result of one [`SyncAlgorithm::update`].
#[derive(Debug, Clone)]
pub enum SyncStep<S, O> {
    /// Adopt a new state and keep running.
    Continue(S),
    /// Adopt a final state and fix the output. The state remains visible to
    /// neighbors in subsequent rounds.
    Decide(S, O),
}

/// Capabilities available inside [`SyncAlgorithm::update`].
pub struct SyncCtx<'a> {
    id: Option<u64>,
    params: &'a GlobalParams,
    rng: Option<&'a mut dyn RngCore>,
    /// The vertex's adjacency row: its ports, in order.
    neighbors: &'a [Neighbor],
}

impl<'a> SyncCtx<'a> {
    /// The context of a vertex with adjacency row `neighbors` (`rng` in
    /// RandLOCAL, `id` in DetLOCAL), for harnesses that call `update` directly.
    pub fn new(
        id: Option<u64>,
        params: &'a GlobalParams,
        rng: Option<&'a mut dyn RngCore>,
        neighbors: &'a [Neighbor],
    ) -> Self {
        SyncCtx {
            id,
            params,
            rng,
            neighbors,
        }
    }

    /// Degree of this vertex.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Unique ID (DetLOCAL only).
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Global parameters.
    pub fn params(&self) -> &GlobalParams {
        self.params
    }

    /// Private randomness (RandLOCAL only).
    ///
    /// # Panics
    ///
    /// Panics in a DetLOCAL run (model violation).
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
            .as_deref_mut()
            .expect("model violation: SyncCtx::rng() in a DetLOCAL run")
    }

    /// The neighbor-side port of the edge on our port `p`: if `u` hears `v`
    /// through port `p`, then `v` hears `u` through `back_port(p)`.
    ///
    /// Port-to-port correspondence is learned in the first exchange (each
    /// node can announce its sending port), so exposing it here is
    /// model-legitimate; per-port indexing into neighbors' state vectors is
    /// what the matching and orientation protocols need.
    ///
    /// # Panics
    ///
    /// Panics if `p >= degree`.
    pub fn back_port(&self, p: PortId) -> PortId {
        self.neighbors[p].back_port
    }
}

/// A round-synchronous algorithm over broadcast public states.
///
/// `update` is called with round numbers `1, 2, …`; at round `r` the
/// `neighbors` slice holds (by port) the states after round `r − 1`
/// (initial states for `r = 1`).
pub trait SyncAlgorithm: Sync {
    /// Public per-vertex state, broadcast to neighbors every round.
    type State: Clone + Send + Sync;
    /// Final per-vertex output.
    type Output: Clone + Send;

    /// The initial state of a vertex.
    fn init(&self, init: &NodeInit<'_>) -> Self::State;

    /// One round: compute the next state (and possibly the final output)
    /// from the current state and the neighbors' states.
    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        state: &Self::State,
        neighbors: &[Self::State],
    ) -> SyncStep<Self::State, Self::Output>;
}

/// The strict all-decided shape, recovered from a [`SyncRun`] by
/// [`SyncRun::strict`].
#[derive(Debug, Clone)]
pub struct SyncOutcome<O> {
    /// Per-vertex outputs.
    pub outputs: Vec<O>,
    /// Algorithmic round complexity: the largest round in which a vertex
    /// decided.
    pub rounds: u32,
    /// Total messages sent, including the bookkeeping sweeps.
    pub messages: u64,
}

/// A halting rule (see the module docs) and the broadcast it needs: a
/// type parameter of the one node wrapper, chosen from `spec.faults`.
trait Halting<S>: Send + Sync {
    /// What a vertex broadcasts every round.
    type Msg: Clone + Send + Sync;
    /// This round's broadcast; `just_decided` if the vertex decided in it.
    fn msg(state: S, just_decided: bool) -> Self::Msg;
    /// The state a broadcast carries, and whether its sender decided in
    /// the round that sent it.
    fn open(msg: &Self::Msg) -> (&S, bool);
    /// Halt one round after deciding, not once every neighbor has decided.
    const AFTER_DECIDING: bool;
}

/// Fault-free: halt once every neighbor has decided. Broadcasts carry a
/// "just decided" flag; with nothing dropped it arrives exactly once per
/// neighbor, so counting undecided neighbors suffices.
enum AllDecided {}

impl<S: Clone + Send + Sync> Halting<S> for AllDecided {
    type Msg = (S, bool);
    const AFTER_DECIDING: bool = false;
    fn msg(state: S, just_decided: bool) -> (S, bool) {
        (state, just_decided)
    }
    fn open(msg: &(S, bool)) -> (&S, bool) {
        (&msg.0, msg.1)
    }
}

/// Faulty: halt one round after deciding. Broadcasts carry the state alone.
enum AfterDeciding {}

impl<S: Clone + Send + Sync> Halting<S> for AfterDeciding {
    type Msg = S;
    const AFTER_DECIDING: bool = true;
    fn msg(state: S, _just_decided: bool) -> S {
        state
    }
    fn open(msg: &S) -> (&S, bool) {
        (msg, false)
    }
}

/// Engine node wrapping a [`SyncAlgorithm`] vertex.
struct SyncNode<'a, A: SyncAlgorithm, H> {
    algo: &'a A,
    state: A::State,
    decided: Option<(u32, A::Output)>,
    /// This vertex's segment of the last-heard column, by port.
    heard: &'a mut [A::State],
    /// This vertex's adjacency row (the back ports [`SyncCtx`] exposes).
    neighbors: &'a [Neighbor],
    /// Neighbors not yet heard deciding.
    undecided: usize,
    halting: PhantomData<H>,
}

impl<'a, A: SyncAlgorithm, H: Halting<A::State>> NodeProgram for SyncNode<'a, A, H> {
    type Msg = H::Msg;
    type Output = (A::Output, u32);

    fn step(&mut self, round: u32, io: &mut NodeIo<'_, Self::Msg>) -> Action<Self::Output> {
        if round > 0 {
            for (p, heard) in self.heard.iter_mut().enumerate() {
                let Some(msg) = io.recv(p) else {
                    continue;
                };
                let (s, just_decided) = H::open(msg);
                self.undecided -= usize::from(just_decided);
                // A decided vertex never reads its segment again.
                if self.decided.is_none() {
                    heard.clone_from(s);
                }
            }
            if self.decided.is_none() {
                let (id, params) = (io.id(), io.params());
                let rng = io.is_randomized().then(|| io.rng());
                let mut ctx = SyncCtx::new(id, params, rng, self.neighbors);
                match self.algo.update(round, &mut ctx, &self.state, self.heard) {
                    SyncStep::Continue(s) => self.state = s,
                    SyncStep::Decide(s, o) => {
                        self.state = s;
                        self.decided = Some((round, o));
                    }
                }
            } else if H::AFTER_DECIDING || self.undecided == 0 {
                let (r, o) = self.decided.take().expect("checked above");
                return Action::Halt((o, r));
            }
        }
        let just_decided = matches!(self.decided, Some((r, _)) if r == round);
        io.broadcast(H::msg(self.state.clone(), just_decided));
        Action::Continue
    }
}

/// Protocol adapter for a [`SyncAlgorithm`] under halting rule `H`.
struct SyncProtocol<'a, A: SyncAlgorithm, H> {
    algo: &'a A,
    graph: &'a Graph,
    /// What node creation consumes, one vertex at a time in vertex order
    /// (the engine creates nodes sequentially).
    setup: Mutex<Setup<'a, A::State>>,
    halting: PhantomData<H>,
}

/// The initial states not yet moved into their nodes, and the part of the
/// last-heard column not yet handed out.
type Setup<'a, S> = (std::vec::IntoIter<S>, &'a mut [S]);

impl<'a, A: SyncAlgorithm, H: Halting<A::State>> Protocol for SyncProtocol<'a, A, H> {
    type Node = SyncNode<'a, A, H>;

    fn create(&self, init: &NodeInit<'_>) -> Self::Node {
        let mut setup = self.setup.lock().expect("sync setup lock");
        let (states, column) = &mut *setup;
        assert_eq!(self.graph.n() - states.len(), init.node, "creation order");
        let state = states.next().expect("one initial state per vertex");
        if states.len() == 0 {
            // The last node is created: free the staging buffer now.
            *states = Vec::new().into_iter();
        }
        let (heard, rest) = std::mem::take(column).split_at_mut(init.degree);
        *column = rest;
        SyncNode {
            algo: self.algo,
            state,
            decided: None,
            heard,
            neighbors: self.graph.neighbors(init.node),
            undecided: init.degree,
            halting: PhantomData,
        }
    }
}

/// Outcome of [`run_sync`]: per-vertex fates with partial outputs.
///
/// `Halted { round, output }` carries the round in which the vertex
/// *decided* (the sync-layer metric, one less than its engine halt round).
/// Fault-free runs under a sufficient budget have every vertex `Halted`;
/// [`strict`](Self::strict) recovers the all-decided [`SyncOutcome`] shape.
#[derive(Debug, Clone)]
pub struct SyncRun<O> {
    /// Per-vertex fates, indexed by vertex.
    pub outcomes: Vec<Outcome<O>>,
    /// Engine sweeps consumed.
    pub sweeps: u32,
    /// Total messages sent.
    pub messages: u64,
    /// Messages discarded by drop faults.
    pub dropped: u64,
    /// Messages deferred one round by delay faults.
    pub delayed: u64,
    /// Which budget axis cut the run, if any.
    pub breach: Option<Breach>,
    /// The engine round limit the run executed under (algorithmic budget
    /// plus bookkeeping sweeps) — reported on [`strict`](Self::strict)'s
    /// error.
    round_limit: u32,
}

impl<O> SyncRun<O> {
    /// Per-vertex outputs for the vertices that decided, `None` elsewhere —
    /// the shape partial LCL validation consumes.
    pub fn partial_outputs(&self) -> Vec<Option<&O>> {
        self.outcomes.iter().map(Outcome::output).collect()
    }

    /// Count of vertices that decided / crashed / were cut.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut halted = 0;
        let mut crashed = 0;
        let mut cut = 0;
        for o in &self.outcomes {
            match o {
                Outcome::Halted { .. } => halted += 1,
                Outcome::Crashed { .. } => crashed += 1,
                Outcome::Cut => cut += 1,
            }
        }
        (halted, crashed, cut)
    }

    /// The largest decided round (0 if nobody decided).
    pub fn max_decided_round(&self) -> u32 {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Halted { round, .. } => Some(*round),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Collapse into the strict all-decided [`SyncOutcome`] shape.
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] if any vertex was cut by the budget.
    ///
    /// # Panics
    ///
    /// If a vertex crashed: crash-stop fates have no strict equivalent, so
    /// calling this on a run executed under a crashing fault plan is a logic
    /// error.
    pub fn strict(self) -> Result<SyncOutcome<O>, SimError> {
        let (_, crashed, cut) = self.counts();
        assert_eq!(crashed, 0, "strict() on a run with crashed vertices");
        if cut > 0 {
            return Err(SimError::RoundLimitExceeded {
                limit: self.round_limit,
                live_nodes: cut,
                live_sample: self
                    .outcomes
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_cut())
                    .map(|(v, _)| v)
                    .take(SimError::LIVE_SAMPLE_CAP)
                    .collect(),
            });
        }
        let mut outputs = Vec::with_capacity(self.outcomes.len());
        let mut rounds = 0;
        for o in self.outcomes {
            match o {
                Outcome::Halted { round, output } => {
                    rounds = rounds.max(round);
                    outputs.push(output);
                }
                _ => unreachable!("counted above"),
            }
        }
        Ok(SyncOutcome {
            outputs,
            rounds,
            messages: self.messages,
        })
    }
}

/// Run a [`SyncAlgorithm`] on `g` under `mode`, as described by `spec` —
/// the single sync-layer entry point.
///
/// Setup seeds the last-heard column with clones of the neighbors' initial
/// states and moves each initial state into its node (see the module docs).
///
/// The spec's knobs compose freely:
///
/// * `spec.budget.max_rounds` counts *algorithmic* rounds; the engine gets
///   two extra bookkeeping sweeps on that axis (other budget axes pass
///   through unchanged). An absent budget allows 100 000 rounds.
/// * `spec.params` overrides the advertised global parameters (Theorems
///   3/6/8 pretend the graph is larger than it is).
/// * `spec.faults` injects message drops, delays, and crash-stop nodes, and
///   selects the halting rule: with `None` a decided vertex halts once
///   every neighbor has decided; with `Some` plan (even a trivial one) it
///   halts one round after deciding.
/// * `spec.trace` receives the engine's per-round events (live counts,
///   message volume, crashes, fault-plane drops/delays, budget consumption).
///
/// Never errors: a vertex that cannot decide within the budget is reported
/// as [`Outcome::Cut`] (and a crashed one as [`Outcome::Crashed`]) with
/// every other vertex's output intact. Use [`SyncRun::strict`] where the
/// old `Result<SyncOutcome, SimError>` shape is wanted.
pub fn run_sync<A: SyncAlgorithm>(
    g: &Graph,
    mode: Mode,
    algo: &A,
    spec: &ExecSpec<'_>,
) -> SyncRun<A::Output> {
    let params = spec.params.unwrap_or_else(|| GlobalParams::from_graph(g));
    let budget = spec.budget.unwrap_or(Budget::rounds(100_000));
    let engine_budget = Budget {
        max_rounds: budget.max_rounds.saturating_add(2),
        ..budget
    };
    let states: Vec<A::State> = {
        let ids: Option<Vec<u64>> = match &mode {
            Mode::Deterministic { ids } => Some(ids.assign(g)),
            Mode::Randomized { .. } => None,
        };
        g.vertices()
            .map(|v| {
                algo.init(&NodeInit {
                    node: v,
                    degree: g.degree(v),
                    id: ids.as_ref().map(|ids| ids[v]),
                    params: &params,
                })
            })
            .collect()
    };
    let mut column: Vec<A::State> = Vec::with_capacity(g.csr_offsets()[g.n()]);
    for v in g.vertices() {
        column.extend(g.neighbors(v).iter().map(|nb| states[nb.node].clone()));
    }
    let setup = Mutex::new((states.into_iter(), column.as_mut_slice()));
    let engine_spec = ExecSpec {
        params: Some(params),
        budget: Some(engine_budget),
        faults: spec.faults,
        trace: spec.trace,
        metrics: spec.metrics,
        shards: spec.shards,
    };
    let engine = Engine::new(g, mode);
    let run = match spec.faults {
        None => engine.execute(
            &engine_spec,
            &SyncProtocol {
                algo,
                graph: g,
                setup,
                halting: PhantomData::<AllDecided>,
            },
        ),
        Some(_) => engine.execute(
            &engine_spec,
            &SyncProtocol {
                algo,
                graph: g,
                setup,
                halting: PhantomData::<AfterDeciding>,
            },
        ),
    };
    SyncRun {
        outcomes: run
            .outcomes
            .into_iter()
            .map(|o| match o {
                Outcome::Halted {
                    output: (o, decided),
                    ..
                } => Outcome::Halted {
                    round: decided,
                    output: o,
                },
                Outcome::Crashed { round } => Outcome::Crashed { round },
                Outcome::Cut => Outcome::Cut,
            })
            .collect(),
        sweeps: run.stats.sweeps,
        messages: run.stats.messages_sent,
        dropped: run.dropped,
        delayed: run.delayed,
        breach: run.breach,
        round_limit: engine_budget.max_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_model::{FaultPlan, FaultSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Each vertex decides the maximum ID within distance `horizon`.
    struct MaxWithin {
        horizon: u32,
    }
    impl SyncAlgorithm for MaxWithin {
        type State = u64;
        type Output = u64;
        fn init(&self, init: &NodeInit<'_>) -> u64 {
            init.id.expect("DetLOCAL")
        }
        fn update(
            &self,
            round: u32,
            _ctx: &mut SyncCtx<'_>,
            state: &u64,
            neighbors: &[u64],
        ) -> SyncStep<u64, u64> {
            let next = neighbors.iter().copied().fold(*state, u64::max);
            if round >= self.horizon {
                SyncStep::Decide(next, next)
            } else {
                SyncStep::Continue(next)
            }
        }
    }

    #[test]
    fn max_within_radius() {
        let g = gen::path(6);
        let out = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 2 },
            &ExecSpec::rounds(100),
        )
        .strict()
        .unwrap();
        assert_eq!(out.rounds, 2);
        // Vertex 0 sees IDs within distance 2: {0,1,2} → 2.
        assert_eq!(out.outputs[0], 2);
        assert_eq!(out.outputs[5], 5);
        assert_eq!(out.outputs[3], 5);
    }

    /// Decide immediately at round 1 with no dependence on neighbors.
    struct Instant;
    impl SyncAlgorithm for Instant {
        type State = ();
        type Output = usize;
        fn init(&self, _init: &NodeInit<'_>) {}
        fn update(
            &self,
            _round: u32,
            ctx: &mut SyncCtx<'_>,
            _state: &(),
            _neighbors: &[()],
        ) -> SyncStep<(), usize> {
            SyncStep::Decide((), ctx.degree())
        }
    }

    #[test]
    fn instant_decision_counts_one_round() {
        let g = gen::star(4);
        let out = run_sync(&g, Mode::deterministic(), &Instant, &ExecSpec::rounds(10))
            .strict()
            .unwrap();
        assert_eq!(out.rounds, 1);
        assert_eq!(out.outputs[0], 3);
    }

    /// Vertices decide at different rounds (by ID), exercising the
    /// keep-broadcasting-after-decide path.
    struct Staggered;
    impl SyncAlgorithm for Staggered {
        type State = u64;
        type Output = u64;
        fn init(&self, init: &NodeInit<'_>) -> u64 {
            init.id.expect("DetLOCAL")
        }
        fn update(
            &self,
            round: u32,
            _ctx: &mut SyncCtx<'_>,
            state: &u64,
            neighbors: &[u64],
        ) -> SyncStep<u64, u64> {
            if u64::from(round) > *state {
                // Output = sum of neighbor states visible at decision time;
                // neighbors that decided earlier must still be visible.
                SyncStep::Decide(*state, neighbors.iter().sum())
            } else {
                SyncStep::Continue(*state)
            }
        }
    }

    #[test]
    fn staggered_decisions_see_decided_neighbors() {
        let g = gen::path(3);
        let out = run_sync(
            &g,
            Mode::deterministic(),
            &Staggered,
            &ExecSpec::rounds(100),
        )
        .strict()
        .unwrap();
        assert_eq!(out.rounds, 3); // vertex 2 decides at round 3
        assert_eq!(out.outputs[1], 2);
    }

    #[test]
    fn faulty_run_with_trivial_plan_matches_run_sync() {
        let g = gen::gnp(20, 0.3, &mut StdRng::seed_from_u64(7));
        let clean = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 2 },
            &ExecSpec::rounds(100),
        )
        .strict()
        .unwrap();
        let plan = FaultPlan::none();
        let faulty = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 2 },
            &ExecSpec::rounds(100).with_faults(&plan),
        );
        let (halted, crashed, cut) = faulty.counts();
        assert_eq!((halted, crashed, cut), (g.n(), 0, 0));
        assert_eq!(faulty.max_decided_round(), clean.rounds);
        for (v, o) in faulty.outcomes.iter().enumerate() {
            assert_eq!(o.output(), Some(&clean.outputs[v]));
        }
    }

    #[test]
    fn crashed_vertices_yield_partial_outputs() {
        let g = gen::path(6);
        // Vertex 2 crashes before it can decide; everyone else finishes.
        let plan = FaultPlan::from_crash_schedule(vec![None, None, Some(1), None, None, None]);
        let out = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 3 },
            &ExecSpec::rounds(100).with_faults(&plan),
        );
        let (halted, crashed, cut) = out.counts();
        assert_eq!((halted, crashed, cut), (5, 1, 0));
        assert!(out.outcomes[2].is_crashed());
        let partial = out.partial_outputs();
        assert!(partial[2].is_none());
        // Vertex 5 sits 3 hops from the crash: its distance-3 max (id 5,
        // which is its own) is unaffected.
        assert_eq!(partial[5], Some(&5));
        // Vertex 3 should have seen id 5 through untouched edges.
        assert_eq!(partial[3], Some(&5));
    }

    #[test]
    fn certain_drops_leave_stale_states_not_panics() {
        let g = gen::path(4);
        // Drop everything: each vertex only ever sees the initial states it
        // was seeded with, so the distance-2 max degrades to its own ID...
        let plan = FaultPlan::sample(&g, &FaultSpec::none().with_drop(1.0), 3);
        let out = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 2 },
            &ExecSpec::rounds(100).with_faults(&plan),
        );
        let (halted, crashed, cut) = out.counts();
        assert_eq!((halted, crashed, cut), (4, 0, 0));
        // ...or rather to the max over the seeded initial neighbor states,
        // i.e. the distance-1 max instead of the distance-2 max.
        assert_eq!(out.partial_outputs()[0], Some(&1));
        assert!(out.dropped > 0);
    }

    #[test]
    fn round_limit_propagates() {
        struct Never;
        impl SyncAlgorithm for Never {
            type State = ();
            type Output = ();
            fn init(&self, _init: &NodeInit<'_>) {}
            fn update(
                &self,
                _round: u32,
                _ctx: &mut SyncCtx<'_>,
                _state: &(),
                _neighbors: &[()],
            ) -> SyncStep<(), ()> {
                SyncStep::Continue(())
            }
        }
        let g = gen::path(2);
        assert!(matches!(
            run_sync(&g, Mode::deterministic(), &Never, &ExecSpec::rounds(5)).strict(),
            Err(SimError::RoundLimitExceeded { .. })
        ));
    }
}
