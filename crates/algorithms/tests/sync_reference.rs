//! Differential test of the sync layer against the wrappers it replaced.
//!
//! [`reference`] keeps the previous sync layer verbatim: a fault-free
//! `SyncNode` with a per-node `heard` cache that gathers (and clones) every
//! neighbor state into a fresh vector each step, and a `FaultySyncNode`
//! seeded with its neighbors' initial states that halts one round after
//! deciding. The one departure is how a node builds its [`SyncCtx`]: it
//! passes its adjacency row to [`SyncCtx::new`] instead of a cloned
//! back-port table.
//!
//! The properties check that [`run_sync`] is observably equivalent to it —
//! same per-vertex fates and decided rounds, sweeps, messages, drops,
//! delays and budget breach — on random graphs, trees and regular graphs,
//! in both models, with no plan, a trivial plan, drops, delays and crash
//! schedules, at 1, 2 and 3 shards.

use local_algorithms::color::linial::LinialAlgorithm;
use local_algorithms::color::LinialSchedule;
use local_algorithms::matching::israeli_itai::IsraeliItai;
use local_algorithms::mis::luby::Luby;
use local_algorithms::{run_sync, SyncAlgorithm, SyncCtx, SyncRun, SyncStep};
use local_graphs::{gen, Graph};
use local_model::{Breach, ExecSpec, FaultPlan, FaultSpec, IdAssignment, Mode, NodeInit, Outcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The previous sync layer, kept as the reference semantics.
mod reference {
    use local_algorithms::{SyncAlgorithm, SyncCtx, SyncStep};
    use local_graphs::{Graph, Neighbor};
    use local_model::{
        Action, Breach, Budget, Engine, ExecSpec, GlobalParams, Mode, NodeInit, NodeIo,
        NodeProgram, Outcome, Protocol,
    };

    /// Engine node wrapping a [`SyncAlgorithm`] vertex.
    pub struct SyncNode<'a, A: SyncAlgorithm> {
        algo: &'a A,
        state: A::State,
        decided: Option<(u32, A::Output)>,
        neighbors: &'a [Neighbor],
        /// Last state heard per port. A neighbor that halted (its whole
        /// neighborhood decided) stops transmitting, but its state is final —
        /// the cache stands in for the silent final broadcasts.
        heard: Vec<Option<(A::State, bool)>>,
    }

    type SyncMsg<A> = (<A as SyncAlgorithm>::State, bool);

    impl<'a, A: SyncAlgorithm> NodeProgram for SyncNode<'a, A> {
        type Msg = SyncMsg<A>;
        type Output = (A::Output, u32);

        fn step(&mut self, round: u32, io: &mut NodeIo<'_, Self::Msg>) -> Action<Self::Output> {
            if round == 0 {
                io.broadcast((self.state.clone(), false));
                return Action::Continue;
            }
            let mut neighbor_states: Vec<A::State> = Vec::with_capacity(io.degree());
            let mut all_neighbors_decided = true;
            for p in 0..io.degree() {
                if let Some((s, done)) = io.recv(p) {
                    self.heard[p] = Some((s.clone(), *done));
                }
                let (s, done) = self.heard[p]
                    .as_ref()
                    .expect("every sync node broadcasts in round 0");
                neighbor_states.push(s.clone());
                all_neighbors_decided &= *done;
            }
            if self.decided.is_none() {
                let id = io.id();
                let step = {
                    let mut ctx = SyncCtx::new(
                        id,
                        io.params(),
                        if io.is_randomized() {
                            Some(io.rng())
                        } else {
                            None
                        },
                        self.neighbors,
                    );
                    self.algo
                        .update(round, &mut ctx, &self.state, &neighbor_states)
                };
                match step {
                    SyncStep::Continue(s) => self.state = s,
                    SyncStep::Decide(s, o) => {
                        self.state = s;
                        self.decided = Some((round, o));
                    }
                }
            } else if all_neighbors_decided {
                let (r, o) = self.decided.clone().expect("checked above");
                return Action::Halt((o, r));
            }
            io.broadcast((self.state.clone(), self.decided.is_some()));
            Action::Continue
        }
    }

    /// Protocol adapter for a [`SyncAlgorithm`].
    pub struct SyncProtocol<'a, A> {
        algo: &'a A,
        graph: &'a Graph,
    }

    impl<'a, A: SyncAlgorithm> Protocol for SyncProtocol<'a, A> {
        type Node = SyncNode<'a, A>;

        fn create(&self, init: &NodeInit<'_>) -> Self::Node {
            SyncNode {
                algo: self.algo,
                state: self.algo.init(init),
                decided: None,
                neighbors: self.graph.neighbors(init.node),
                heard: vec![None; init.degree],
            }
        }
    }

    /// Engine node wrapping a [`SyncAlgorithm`] vertex for faulty runs.
    pub struct FaultySyncNode<'a, A: SyncAlgorithm> {
        algo: &'a A,
        state: A::State,
        decided: Option<(u32, A::Output)>,
        neighbors: &'a [Neighbor],
        /// Last state heard per port, seeded with the neighbor's initial state.
        heard: Vec<A::State>,
    }

    impl<'a, A: SyncAlgorithm> NodeProgram for FaultySyncNode<'a, A> {
        type Msg = A::State;
        type Output = (A::Output, u32);

        fn step(&mut self, round: u32, io: &mut NodeIo<'_, Self::Msg>) -> Action<Self::Output> {
            if round == 0 {
                io.broadcast(self.state.clone());
                return Action::Continue;
            }
            for p in 0..io.degree() {
                if let Some(s) = io.recv(p) {
                    self.heard[p] = s.clone();
                }
            }
            if let Some((r, o)) = self.decided.clone() {
                // The final state went out last round; nothing left to do.
                return Action::Halt((o, r));
            }
            let step = {
                let id = io.id();
                let mut ctx = SyncCtx::new(
                    id,
                    io.params(),
                    if io.is_randomized() {
                        Some(io.rng())
                    } else {
                        None
                    },
                    self.neighbors,
                );
                self.algo.update(round, &mut ctx, &self.state, &self.heard)
            };
            match step {
                SyncStep::Continue(s) => self.state = s,
                SyncStep::Decide(s, o) => {
                    self.state = s;
                    self.decided = Some((round, o));
                }
            }
            io.broadcast(self.state.clone());
            Action::Continue
        }
    }

    /// Protocol adapter for faulty [`SyncAlgorithm`] runs.
    pub struct FaultySyncProtocol<'a, A: SyncAlgorithm> {
        algo: &'a A,
        graph: &'a Graph,
        /// Every vertex's initial state, used to seed the last-heard caches.
        init_states: Vec<A::State>,
    }

    impl<'a, A: SyncAlgorithm> Protocol for FaultySyncProtocol<'a, A> {
        type Node = FaultySyncNode<'a, A>;

        fn create(&self, init: &NodeInit<'_>) -> Self::Node {
            let heard = self
                .graph
                .neighbors(init.node)
                .iter()
                .map(|nb| self.init_states[nb.node].clone())
                .collect();
            FaultySyncNode {
                algo: self.algo,
                state: self.init_states[init.node].clone(),
                decided: None,
                neighbors: self.graph.neighbors(init.node),
                heard,
            }
        }
    }

    /// Everything `run_sync` reports, in comparable form.
    #[derive(Debug, PartialEq)]
    pub struct Observed<O> {
        pub outcomes: Vec<Outcome<O>>,
        pub sweeps: u32,
        pub messages: u64,
        pub dropped: u64,
        pub delayed: u64,
        pub breach: Option<Breach>,
    }

    /// The previous `run_sync`: [`SyncNode`] without a fault plan,
    /// [`FaultySyncNode`] with one.
    pub fn run_sync<A: SyncAlgorithm>(
        g: &Graph,
        mode: Mode,
        algo: &A,
        spec: &ExecSpec<'_>,
    ) -> Observed<A::Output> {
        let params = spec.params.unwrap_or_else(|| GlobalParams::from_graph(g));
        let budget = spec.budget.unwrap_or(Budget::rounds(100_000));
        let engine_budget = Budget {
            max_rounds: budget.max_rounds.saturating_add(2),
            ..budget
        };
        let engine_spec = ExecSpec {
            params: Some(params),
            budget: Some(engine_budget),
            faults: spec.faults,
            trace: spec.trace,
            metrics: spec.metrics,
            shards: spec.shards,
        };
        let engine = Engine::new(g, mode.clone());
        let run = match spec.faults {
            None => engine.execute(&engine_spec, &SyncProtocol { algo, graph: g }),
            Some(_) => {
                let ids: Option<Vec<u64>> = match &mode {
                    Mode::Deterministic { ids } => Some(ids.assign(g)),
                    Mode::Randomized { .. } => None,
                };
                let init_states: Vec<A::State> = g
                    .vertices()
                    .map(|v| {
                        algo.init(&NodeInit {
                            node: v,
                            degree: g.degree(v),
                            id: ids.as_ref().map(|ids| ids[v]),
                            params: &params,
                        })
                    })
                    .collect();
                let protocol = FaultySyncProtocol {
                    algo,
                    graph: g,
                    init_states,
                };
                engine.execute(&engine_spec, &protocol)
            }
        };
        Observed {
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
        }
    }
}

fn observe<O>(run: SyncRun<O>) -> reference::Observed<O> {
    reference::Observed {
        outcomes: run.outcomes,
        sweeps: run.sweeps,
        messages: run.messages,
        dropped: run.dropped,
        delayed: run.delayed,
        breach: run.breach,
    }
}

/// A test algorithm with heap-owning states that indexes neighbor states by
/// back port: each vertex keeps one accumulator per port, folds in what the
/// neighbor keeps for the shared edge, and decides at a vertex-dependent
/// round.
struct PortGossip;

impl SyncAlgorithm for PortGossip {
    type State = Vec<u64>;
    type Output = u64;

    fn init(&self, init: &NodeInit<'_>) -> Vec<u64> {
        let seed = init.id.unwrap_or(0x5EED);
        (0..init.degree as u64).map(|p| seed ^ (p << 32)).collect()
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        state: &Vec<u64>,
        neighbors: &[Vec<u64>],
    ) -> SyncStep<Vec<u64>, u64> {
        let salt = match ctx.id() {
            Some(id) => id,
            None => ctx.rng().next_u64() & 0xFFFF,
        };
        let next: Vec<u64> = state
            .iter()
            .enumerate()
            .map(|(p, &mine)| {
                mine.rotate_left(5)
                    .wrapping_add(neighbors[p][ctx.back_port(p)])
                    .wrapping_mul(0x9E37_79B9)
                    ^ salt
            })
            .collect();
        if u64::from(round) > 1 + (salt ^ state.len() as u64) % 5 {
            let out = next.iter().fold(0u64, |a, &x| a.wrapping_add(x));
            SyncStep::Decide(next, out)
        } else {
            SyncStep::Continue(next)
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Family {
    Gnp,
    Tree,
    Regular,
}

fn build(family: Family, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        Family::Gnp => gen::gnp(n, 0.15, &mut rng),
        Family::Tree => gen::random_tree(n, &mut rng),
        // n·3 must be even: round n up to even.
        Family::Regular => {
            gen::random_regular(n + n % 2, 3, &mut rng).expect("an even-order cubic graph exists")
        }
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 4usize..36, 0u64..1000).prop_map(|(f, n, seed)| {
        let family = [Family::Gnp, Family::Tree, Family::Regular][f];
        build(family, n, seed)
    })
}

/// `None` plus a plan of every kind: trivial, drops, delays, a sampled crash
/// schedule, and all three at once.
fn plans(g: &Graph, seed: u64) -> Vec<Option<FaultPlan>> {
    let crash_schedule = (0..g.n())
        .map(|v| (v as u64 % 5 == seed % 5).then_some((v as u32 + seed as u32) % 4))
        .collect();
    vec![
        None,
        Some(FaultPlan::none()),
        Some(FaultPlan::sample(
            g,
            &FaultSpec::none().with_drop(0.2),
            seed,
        )),
        Some(FaultPlan::sample(
            g,
            &FaultSpec::none().with_delay(0.3),
            seed,
        )),
        Some(FaultPlan::from_crash_schedule(crash_schedule)),
        Some(FaultPlan::sample(
            g,
            &FaultSpec {
                drop_p: 0.1,
                delay_p: 0.1,
                crash_p: 0.1,
                crash_window: 6,
            },
            seed,
        )),
    ]
}

/// Check `run_sync` against the reference for every plan and shard count.
fn agrees<A>(g: &Graph, mode: &Mode, algo: &A, max_rounds: u32, seed: u64) -> Result<(), String>
where
    A: SyncAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
{
    for plan in plans(g, seed) {
        let spec = ExecSpec::rounds(max_rounds);
        let spec = match &plan {
            Some(p) => spec.with_faults(p),
            None => spec,
        };
        let want = reference::run_sync(g, mode.clone(), algo, &spec);
        for shards in 1..=3 {
            let got = observe(run_sync(g, mode.clone(), algo, &spec.with_shards(shards)));
            if got != want {
                return Err(format!(
                    "mode {mode:?}, plan {plan:?}, shards {shards}:\n got {got:?}\nwant {want:?}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A back-port-indexed, heap-state algorithm in both models.
    #[test]
    fn port_gossip_matches_reference(g in arb_graph(), seed in 0u64..1000) {
        for mode in [
            Mode::deterministic_with(IdAssignment::Shuffled { seed }),
            Mode::randomized(seed),
        ] {
            let verdict = agrees(&g, &mode, &PortGossip, 30, seed);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }

    /// Library algorithms: Luby MIS and Israeli–Itai matching in RandLOCAL,
    /// Linial colouring in DetLOCAL.
    #[test]
    fn library_algorithms_match_reference(g in arb_graph(), seed in 0u64..1000) {
        let rand = Mode::randomized(seed);
        let verdict = agrees(&g, &rand, &Luby::new(), 40, seed);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        let verdict = agrees(&g, &rand, &IsraeliItai, 40, seed);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        let det = Mode::deterministic_with(IdAssignment::Shuffled { seed });
        let linial = LinialAlgorithm::from_ids(LinialSchedule::new(g.n() as u64, g.max_degree()));
        let verdict = agrees(&g, &det, &linial, 40, seed);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// The comparison must be able to fail: a budget cut shows up as a breach
/// and as cut vertices in both implementations.
#[test]
fn budget_cuts_agree_and_are_observed() {
    let g = build(Family::Gnp, 30, 7);
    let mode = Mode::randomized(3);
    let spec = ExecSpec::rounds(1);
    let want = reference::run_sync(&g, mode.clone(), &Luby::new(), &spec);
    let got = observe(run_sync(&g, mode, &Luby::new(), &spec));
    assert_eq!(want.breach, Some(Breach::Rounds));
    assert!(want.outcomes.iter().any(Outcome::is_cut));
    assert_eq!(got, want);
}
