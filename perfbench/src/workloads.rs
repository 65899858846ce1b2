//! The four workloads: their set-up, one trial each, and the check of every
//! trial's output.
//!
//! Sizes are the workload definitions (see README.md for why each was
//! chosen); `tiny` shrinks them so the self-tests run in seconds. A
//! workload receives only its generated inputs and the trial seed.

use crate::meter::Meter;
use local_algorithms::color::{be_forest_coloring_detailed, BeOutcome};
use local_algorithms::mis::luby::Luby;
use local_algorithms::tree::{theorem10_color, Theorem10Config, Theorem10Outcome};
use local_algorithms::{
    recover_report, run_sync, DegradedRun, LubyRestartFinisher, Recovery, RecoveryPolicy, SyncRun,
};
use local_graphs::{gen, Graph};
use local_lcl::problems::{Mis, VertexColoring};
use local_lcl::{check_complete, check_partial, Labeling, LclProblem, PartialValidity};
use local_model::{
    derived_u64, Action, Budget, Engine, ExecSpec, FaultPlan, FaultSpec, Mode, NodeInit, NodeIo,
    NodeProgram, Protocol, Run, SimError,
};
use local_separation::adversary::{search, Objective, SearchConfig, SearchOutcome};
use local_separation::experiments::e14_adversary;
use local_separation::workloads::{self as catalog, Sizes, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["separation", "scale", "heal", "adversary"];

/// Maximum degree of the separation tree (the Δ = 9 point of E1 `--full`).
const TREE_DELTA: usize = 9;
/// Flood horizon of the scale workload's engine-only baseline.
const FLOOD_ROUNDS: u32 = 20;
/// Round budget of the scale workload's fault-free Luby run.
const LUBY_ROUNDS: u32 = 10_000;
/// Degree of the scale circulant and the heal random-regular graph.
const DEGREE: usize = 4;
/// E13's fault point and sweep budget for the MIS family.
const HEAL_DROP: f64 = 0.1;
const HEAL_CRASH: f64 = 0.02;
const HEAL_BUDGET: u32 = 400;
/// E13's stream tag for the restart finisher's seed.
const HEAL_FINISHER_STREAM: u64 = 0xE13;
/// E14's fixed graph and evaluation seeds.
const ADVERSARY_GRAPH_SEED: u64 = 0xE14F;
const ADVERSARY_EVAL_SEED: u64 = 0xE14D;

/// Span names of the six adversary searches, in catalog order.
const ADVERSARY_LAYERS: [&str; 6] = [
    "adversary.tree-coloring",
    "adversary.sinkless",
    "adversary.mis",
    "adversary.edge-coloring",
    "adversary.ruling-set",
    "adversary.defective-coloring",
];

/// One trial's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Whether every output passed its checker and every run completed.
    pub ok: bool,
    /// FNV-1a over the outputs and the exact counts.
    pub fingerprint: u64,
    /// Per-layer metrics of this trial (traced trials only), by name.
    pub layers: Vec<(String, f64)>,
}

/// A set-up workload, ready to run trials.
pub trait Bench {
    /// Vertices and edges of the workload's graph (summed over the catalog
    /// for `adversary`).
    fn size(&self) -> (usize, usize);

    /// Distinct trial seeds a run cycles through: enough that their mean
    /// cost is steady from one run seed to the next, few enough that each
    /// repeats several times in a run.
    fn seeds(&self) -> usize;

    /// Run one trial at `seed`, calling every layer through `meter`.
    fn trial(&self, seed: u64, meter: &mut Meter<'_>) -> Trial;
}

/// Build workload `name` from `seed`, generating its graph through `meter`.
///
/// # Errors
///
/// An unknown name, or a graph generator that rejects the parameters.
pub fn setup(
    name: &str,
    seed: u64,
    tiny: bool,
    meter: &mut Meter<'_>,
) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "separation" => Box::new(Separation::new(tiny, meter)),
        "scale" => Box::new(Scale::new(tiny, meter)?),
        "heal" => Box::new(Heal::new(seed, tiny, meter)?),
        "adversary" => Box::new(Adversary::new(tiny, meter)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {NAMES:?})"
            ))
        }
    })
}

/// The per-layer metric names of the adversary workload, one group per
/// catalog family.
pub fn adversary_metric_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for f in catalog::NAMES {
        for (suffix, unit) in [
            ("ms", "ms"),
            ("evals", "count"),
            ("us_per_eval", "us"),
            ("allocs_per_eval", "count"),
            ("best_score", "count"),
        ] {
            out.push((format!("adversary.{f}.{suffix}"), unit));
        }
    }
    out
}

/// FNV-1a over a `u64` stream (the same fold `bench_scale` uses).
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// LCL check totals of one trial.
#[derive(Debug, Default)]
pub struct LclTally {
    checked: usize,
    skipped: usize,
    violations: usize,
}

impl LclTally {
    /// Fold one verdict in; `true` iff it is a clean complete labeling.
    fn add(&mut self, pv: &PartialValidity, n: usize) -> bool {
        self.checked += pv.checked;
        self.skipped += pv.skipped;
        self.violations += pv.violations.len();
        complete_and_valid(pv, n)
    }

    fn metrics(&self, meter: &Meter<'_>, out: &mut Vec<(String, f64)>) {
        let lcl = meter.get("lcl.check");
        out.push(("lcl.check_ms".into(), lcl.ms()));
        out.push(("lcl.checked".into(), self.checked as f64));
        out.push(("lcl.skipped".into(), self.skipped as f64));
        out.push(("lcl.violations".into(), self.violations as f64));
        out.push((
            "lcl.ns_per_vertex".into(),
            ratio(lcl.ns as f64, (self.checked + self.skipped) as f64),
        ));
    }
}

/// Whether a check verdict covers all `n` vertices with no violation.
pub fn complete_and_valid(pv: &PartialValidity, n: usize) -> bool {
    pv.checked == n && pv.skipped == 0 && pv.violations.is_empty()
}

/// `check_complete` of `labels`, through the meter.
fn check<P: LclProblem>(
    meter: &mut Meter<'_>,
    problem: &P,
    g: &Graph,
    labels: &Labeling<P::Label>,
) -> PartialValidity {
    meter.layer("lcl.check", || check_complete(problem, g, labels))
}

/// `separation`: Theorem 9 (deterministic) against Theorem 10 (randomized)
/// Δ-colouring of the complete Δ = 9 tree.
pub struct Separation {
    g: Graph,
    ids: Vec<u64>,
}

/// The two colourings one `separation` trial produces.
pub struct SeparationOut {
    /// Theorem 9's colouring.
    pub det: BeOutcome,
    /// Theorem 10's colouring.
    pub rand: Theorem10Outcome,
}

impl Separation {
    /// Generate the tree (`tiny`: 82 vertices instead of 42,130).
    pub fn new(tiny: bool, meter: &mut Meter<'_>) -> Self {
        let n_min = if tiny { 82 } else { 1 << 14 };
        let g = meter.layer("graphs.gen", || gen::complete_dary_tree(n_min, TREE_DELTA));
        let ids = (0..g.n() as u64).collect();
        Separation { g, ids }
    }

    /// Run both colourings, Theorem 10 at `seed`.
    ///
    /// # Errors
    ///
    /// Theorem 10's run error.
    pub fn outputs(&self, seed: u64, meter: &mut Meter<'_>) -> Result<SeparationOut, SimError> {
        let g = &self.g;
        let det = meter.layer("tree.det", || {
            be_forest_coloring_detailed(g, TREE_DELTA, &self.ids, None, 0)
        });
        let rand = meter.layer("tree.rand", || {
            theorem10_color(g, TREE_DELTA, seed, Theorem10Config::default())
        })?;
        Ok(SeparationOut { det, rand })
    }

    /// Whether both colourings are complete, proper Δ-colourings.
    pub fn verdict(&self, out: &SeparationOut, lcl: &mut LclTally, meter: &mut Meter<'_>) -> bool {
        let g = &self.g;
        let problem = VertexColoring::new(TREE_DELTA);
        let det = check(meter, &problem, g, &out.det.coloring.labels);
        let rand = check(meter, &problem, g, &out.rand.coloring.labels);
        lcl.add(&det, g.n()) & lcl.add(&rand, g.n())
    }
}

impl Bench for Separation {
    fn size(&self) -> (usize, usize) {
        (self.g.n(), self.g.m())
    }

    fn seeds(&self) -> usize {
        4
    }

    fn trial(&self, seed: u64, meter: &mut Meter<'_>) -> Trial {
        let Ok(out) = self.outputs(seed, meter) else {
            return failed();
        };
        let mut lcl = LclTally::default();
        let ok = self.verdict(&out, &mut lcl, meter);
        let SeparationOut { det, rand } = &out;

        let mut h = Fnv::new();
        for labels in [&det.coloring.labels, &rand.coloring.labels] {
            for &c in labels.as_slice() {
                h.write(c as u64);
            }
        }
        for count in [
            det.coloring.rounds,
            det.peel_rounds,
            rand.coloring.rounds,
            rand.phase2_rounds,
        ] {
            h.write(u64::from(count));
        }

        let mut layers = Vec::new();
        if meter.traced() {
            let n = self.g.n() as f64;
            let (d, r) = (meter.get("tree.det"), meter.get("tree.rand"));
            layers.extend([
                ("tree.det_ms".to_string(), d.ms()),
                ("tree.det_rounds".into(), f64::from(det.coloring.rounds)),
                ("tree.det_peel".into(), f64::from(det.peel_rounds)),
                ("tree.det_allocs_per_vertex".into(), d.allocs as f64 / n),
                ("tree.rand_ms".into(), r.ms()),
                ("tree.rand_rounds".into(), f64::from(rand.coloring.rounds)),
                ("tree.rand_phase2".into(), f64::from(rand.phase2_rounds)),
                ("tree.rand_allocs_per_vertex".into(), r.allocs as f64 / n),
                (
                    "tree.round_ratio".into(),
                    ratio(
                        f64::from(det.coloring.rounds),
                        f64::from(rand.coloring.rounds),
                    ),
                ),
            ]);
            lcl.metrics(meter, &mut layers);
        }
        Trial {
            ok,
            fingerprint: h.0,
            layers,
        }
    }
}

/// Floods the maximum id for a fixed horizon, then halts: pure engine cost
/// (the protocol of `bench_scale --workload flood`).
struct Flood {
    horizon: u32,
    value: u64,
}

impl NodeProgram for Flood {
    type Msg = u64;
    type Output = u64;

    fn step(&mut self, round: u32, io: &mut NodeIo<'_, u64>) -> Action<u64> {
        for (_, &m) in io.received() {
            self.value = self.value.max(m);
        }
        if round >= self.horizon {
            Action::Halt(self.value)
        } else {
            io.broadcast(self.value);
            Action::Continue
        }
    }
}

struct FloodProtocol {
    horizon: u32,
}

impl Protocol for FloodProtocol {
    type Node = Flood;

    fn create(&self, init: &NodeInit<'_>) -> Flood {
        Flood {
            horizon: self.horizon,
            value: init.id.unwrap_or(0),
        }
    }
}

/// Whether `outputs` is what flooding sequential ids for `horizon` rounds
/// yields on the circulant `C_n(1, …, d/2)`: the largest id within index
/// distance `horizon · d/2`, which is `n − 1` wherever that window wraps.
pub fn flood_ok(outputs: &[u64], d: usize, horizon: u32) -> bool {
    let n = outputs.len();
    let reach = horizon as usize * (d / 2);
    outputs.iter().enumerate().all(|(v, &out)| {
        let expected = if v < reach || v + reach >= n {
            n - 1
        } else {
            v + reach
        };
        out == expected as u64
    })
}

/// `scale`: an engine-only flood and a fault-free Luby MIS on a circulant
/// far larger than the caches.
pub struct Scale {
    g: Graph,
}

/// The flood and the Luby run of one `scale` trial.
pub struct ScaleOut {
    /// The engine-only flood.
    pub flood: Run<u64>,
    /// The fault-free Luby MIS run.
    pub luby: SyncRun<bool>,
}

impl Scale {
    /// Generate the circulant (`tiny`: 4096 vertices instead of 2^20).
    ///
    /// # Errors
    ///
    /// The generator's rejection of the parameters.
    pub fn new(tiny: bool, meter: &mut Meter<'_>) -> Result<Self, String> {
        let n = if tiny { 4096 } else { 1 << 20 };
        let g = meter
            .layer("graphs.gen", || gen::stream::circulant(n, DEGREE))
            .map_err(|e| e.to_string())?;
        Ok(Scale { g })
    }

    /// Run the flood, then Luby at `seed`.
    ///
    /// # Errors
    ///
    /// A flood that did not halt within its horizon.
    pub fn outputs(&self, seed: u64, meter: &mut Meter<'_>) -> Result<ScaleOut, SimError> {
        let g = &self.g;
        let flood = meter.layer("model.flood", || {
            Engine::new(g, Mode::deterministic()).execute(
                &ExecSpec::default(),
                &FloodProtocol {
                    horizon: FLOOD_ROUNDS,
                },
            )
        });
        let flood = flood.into_run(FLOOD_ROUNDS)?;
        let luby = meter.layer("sync.luby", || {
            run_sync(
                g,
                Mode::randomized(seed),
                &Luby::new(),
                &ExecSpec::rounds(LUBY_ROUNDS),
            )
        });
        Ok(ScaleOut { flood, luby })
    }

    /// Whether the flood matches its closed form and Luby left a complete,
    /// valid MIS.
    pub fn verdict(&self, out: &ScaleOut, lcl: &mut LclTally, meter: &mut Meter<'_>) -> bool {
        let g = &self.g;
        let flood_ok =
            out.flood.rounds == FLOOD_ROUNDS && flood_ok(&out.flood.outputs, DEGREE, FLOOD_ROUNDS);
        let Some(in_set) = out
            .luby
            .outcomes
            .iter()
            .map(|o| o.output().copied())
            .collect::<Option<Vec<bool>>>()
        else {
            return false;
        };
        let pv = check(meter, &Mis::new(), g, &Labeling::new(in_set));
        lcl.add(&pv, g.n()) & flood_ok
    }
}

impl Bench for Scale {
    fn size(&self) -> (usize, usize) {
        (self.g.n(), self.g.m())
    }

    fn seeds(&self) -> usize {
        4
    }

    fn trial(&self, seed: u64, meter: &mut Meter<'_>) -> Trial {
        let Ok(out) = self.outputs(seed, meter) else {
            return failed();
        };
        let mut lcl = LclTally::default();
        let ok = self.verdict(&out, &mut lcl, meter);
        let ScaleOut { flood, luby } = &out;

        let mut h = Fnv::new();
        for &o in &flood.outputs {
            h.write(o);
        }
        for o in &luby.outcomes {
            h.write(u64::from(o.output() == Some(&true)));
        }
        for count in [
            u64::from(flood.stats.sweeps),
            flood.stats.messages_sent,
            u64::from(luby.sweeps),
            luby.messages,
        ] {
            h.write(count);
        }

        let mut layers = Vec::new();
        if meter.traced() {
            let (f, l) = (meter.get("model.flood"), meter.get("sync.luby"));
            let flood_sweeps = f64::from(flood.stats.sweeps);
            let luby_sweeps = f64::from(luby.sweeps);
            layers.extend([
                ("model.flood_ms".to_string(), f.ms()),
                ("model.flood_sweeps".into(), flood_sweeps),
                (
                    "model.flood_messages".into(),
                    flood.stats.messages_sent as f64,
                ),
                (
                    "model.ns_per_msg".into(),
                    ratio(f.ns as f64, flood.stats.messages_sent as f64),
                ),
                ("model.flood_allocs".into(), f.allocs as f64),
                ("sync.luby_ms".into(), l.ms()),
                ("sync.luby_sweeps".into(), luby_sweeps),
                ("sync.luby_messages".into(), luby.messages as f64),
                (
                    "sync.luby_allocs_per_vertex".into(),
                    l.allocs as f64 / self.g.n() as f64,
                ),
                // Per vertex-sweep cost of the sync adapter over the bare
                // engine on the same graph (n cancels).
                (
                    "sync.overhead_x".into(),
                    ratio(
                        ratio(l.ns as f64, luby_sweeps),
                        ratio(f.ns as f64, flood_sweeps),
                    ),
                ),
            ]);
            lcl.metrics(meter, &mut layers);
        }
        Trial {
            ok,
            fingerprint: h.0,
            layers,
        }
    }
}

/// `heal`: E13's MIS point — a sampled fault plan, a faulty Luby run,
/// partial check, recovery, and a complete check of the splice.
pub struct Heal {
    g: Graph,
}

/// What one `heal` trial produces.
pub struct HealOut {
    /// The sampled fault plan.
    pub plan: FaultPlan,
    /// The faulty Luby run.
    pub run: SyncRun<bool>,
    /// `check_partial` of the faulty run's labeling.
    pub partial: PartialValidity,
    /// The recovery, or the `DegradedRun` it gave up with.
    pub rec: Result<Recovery<bool>, Box<DegradedRun>>,
}

impl Heal {
    /// Generate the random 4-regular graph from `seed` (`tiny`: 256
    /// vertices instead of 2^14).
    ///
    /// # Errors
    ///
    /// The generator's rejection of the parameters.
    pub fn new(seed: u64, tiny: bool, meter: &mut Meter<'_>) -> Result<Self, String> {
        let n = if tiny { 256 } else { 1 << 14 };
        let mut rng = StdRng::seed_from_u64(seed);
        let g = meter
            .layer("graphs.gen", || gen::random_regular(n, DEGREE, &mut rng))
            .map_err(|e| e.to_string())?;
        Ok(Heal { g })
    }

    /// Sample the plan, run faulty Luby under it, check the partial
    /// labeling and recover, all at `seed`.
    pub fn outputs(&self, seed: u64, meter: &mut Meter<'_>) -> HealOut {
        let g = &self.g;
        let spec = FaultSpec::none()
            .with_drop(HEAL_DROP)
            .with_crash(HEAL_CRASH, HEAL_BUDGET);
        let plan = meter.layer("faults.plan", || FaultPlan::sample(g, &spec, seed));
        let run = meter.layer("sync.faulty", || {
            run_sync(
                g,
                Mode::randomized(seed),
                &Luby::new(),
                &ExecSpec::default()
                    .with_budget(Budget::rounds(HEAL_BUDGET))
                    .with_faults(&plan),
            )
        });
        let labels: Vec<Option<bool>> = run.outcomes.iter().map(|o| o.output().copied()).collect();
        let partial = meter.layer("lcl.check", || check_partial(&Mis::new(), g, &labels));
        let finisher = LubyRestartFinisher {
            seed: derived_u64(seed, HEAL_FINISHER_STREAM),
        };
        let rec = meter.layer("repair", || {
            recover_report(
                &Mis::new(),
                g,
                &labels,
                &finisher,
                &RecoveryPolicy::default(),
                None,
            )
        });
        HealOut {
            plan,
            run,
            partial,
            rec,
        }
    }

    /// Whether recovery succeeded and its splice is a complete, valid MIS.
    /// A `DegradedRun` fails.
    pub fn verdict(&self, out: &HealOut, lcl: &mut LclTally, meter: &mut Meter<'_>) -> bool {
        let Ok(rec) = &out.rec else {
            return false;
        };
        let pv = check(meter, &Mis::new(), &self.g, &rec.labels);
        lcl.add(&pv, self.g.n())
    }
}

impl Bench for Heal {
    fn size(&self) -> (usize, usize) {
        (self.g.n(), self.g.m())
    }

    fn seeds(&self) -> usize {
        8
    }

    fn trial(&self, seed: u64, meter: &mut Meter<'_>) -> Trial {
        let out = self.outputs(seed, meter);
        let mut lcl = LclTally::default();
        lcl.add(&out.partial, self.g.n());
        let ok = self.verdict(&out, &mut lcl, meter);
        let HealOut { plan, run, rec, .. } = &out;
        let Ok(rec) = rec else {
            return failed();
        };

        let (_, crashed, cut) = run.counts();
        let mut h = Fnv::new();
        for &b in rec.labels.as_slice() {
            h.write(u64::from(b));
        }
        for count in [
            plan.crash_count() as u64,
            plan.dropped_edge_count() as u64,
            u64::from(run.sweeps),
            run.messages,
            crashed as u64,
            cut as u64,
            u64::from(rec.attempts),
            rec.core_size as u64,
            rec.residue_size as u64,
        ] {
            h.write(count);
        }

        let mut layers = Vec::new();
        if meter.traced() {
            let (p, s, r) = (
                meter.get("faults.plan"),
                meter.get("sync.faulty"),
                meter.get("repair"),
            );
            let sweeps = f64::from(run.sweeps);
            layers.extend([
                ("faults.plan_ms".to_string(), p.ms()),
                ("sync.faulty_ms".into(), s.ms()),
                ("sync.faulty_sweeps".into(), sweeps),
                ("sync.faulty_messages".into(), run.messages as f64),
                (
                    "sync.slot_fill".into(),
                    ratio(run.messages as f64, sweeps * 2.0 * self.g.m() as f64),
                ),
                ("sync.us_per_sweep".into(), ratio(s.ns as f64 / 1e3, sweeps)),
                ("sync.faulty_allocs".into(), s.allocs as f64),
                ("sync.cut".into(), cut as f64),
                ("sync.crashed".into(), crashed as f64),
                ("repair.ms".into(), r.ms()),
                ("repair.attempts".into(), f64::from(rec.attempts)),
                ("repair.core".into(), rec.core_size as f64),
                ("repair.residue".into(), rec.residue_size as f64),
                ("repair.allocs".into(), r.allocs as f64),
                ("repair.recovered_frac".into(), f64::from(u8::from(ok))),
            ]);
            lcl.metrics(meter, &mut layers);
        }
        Trial {
            ok,
            fingerprint: h.0,
            layers,
        }
    }
}

/// `adversary`: one E14 tabu-search restart per catalog family, objective
/// `recovery_radius`, at E14's fixed sizes and seeds.
pub struct Adversary {
    catalog: Vec<Box<dyn Workload>>,
    cfg: e14_adversary::Config,
}

/// The objective every adversary search maximises.
const OBJECTIVE: Objective = Objective::RecoveryRadius;

impl Adversary {
    /// Build E14's catalog at its fixed sizes and graph seed, with E14's
    /// `--full` search effort (`tiny` keeps the shape but cuts the
    /// iterations and candidates).
    ///
    /// # Errors
    ///
    /// A catalog family whose graph cannot be generated.
    pub fn new(tiny: bool, meter: &mut Meter<'_>) -> Result<Self, String> {
        let sizes = Sizes {
            tree_n: e14_adversary::TREE_N,
            sinkless_n: e14_adversary::SINKLESS_N,
            mis_n: e14_adversary::MIS_N,
        };
        let slots = meter.layer("graphs.gen", || {
            catalog::workloads(&sizes, ADVERSARY_GRAPH_SEED)
        });
        let catalog = slots
            .into_iter()
            .map(|s| s.map_err(|(name, e)| format!("{name}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        for (w, layer) in catalog.iter().zip(ADVERSARY_LAYERS) {
            assert_eq!(layer, format!("adversary.{}", w.name()), "catalog order");
        }
        let mut cfg = e14_adversary::Config::full();
        if tiny {
            (cfg.iterations, cfg.candidates) = (3, 2);
        }
        Ok(Adversary { catalog, cfg })
    }

    /// The objective score of `plan` against family `w`, at E14's fixed
    /// evaluation seed.
    fn evaluate(&self, w: &dyn Workload, plan: &FaultPlan) -> u64 {
        OBJECTIVE.score(
            &w.assess(ADVERSARY_EVAL_SEED, plan, &self.cfg.policy, None)
                .0,
        )
    }

    /// One search per catalog family, in catalog order, each from a search
    /// seed derived from `seed`.
    pub fn outputs(&self, seed: u64, meter: &mut Meter<'_>) -> Vec<SearchOutcome> {
        let cfg = &self.cfg;
        self.catalog
            .iter()
            .zip(ADVERSARY_LAYERS)
            .enumerate()
            .map(|(i, (w, layer))| {
                let scfg = SearchConfig {
                    iterations: cfg.iterations,
                    candidates: cfg.candidates,
                    tenure: cfg.tenure,
                    crash_budget: cfg.crash_budget,
                    drop_budget: cfg.drop_budget,
                    crash_window: w.adversary_crash_window(),
                    search_seed: derived_u64(seed, i as u64),
                };
                let evaluate =
                    |p: &FaultPlan| w.assess(ADVERSARY_EVAL_SEED, p, &cfg.policy, None).0;
                meter.layer(layer, || {
                    search(
                        w.graph(),
                        FaultPlan::none(),
                        OBJECTIVE,
                        &scfg,
                        evaluate,
                        None,
                        None,
                    )
                })
            })
            .collect()
    }

    /// Whether every search's best plan replays to the score it was
    /// credited with.
    pub fn verdict(&self, out: &[SearchOutcome], meter: &mut Meter<'_>) -> bool {
        out.len() == self.catalog.len()
            && self.catalog.iter().zip(out).all(|(w, o)| {
                meter.layer("verify", || self.evaluate(w.as_ref(), &o.best_plan))
                    == o.best_objective
            })
    }
}

impl Bench for Adversary {
    fn size(&self) -> (usize, usize) {
        self.catalog
            .iter()
            .fold((0, 0), |(n, m), w| (n + w.graph().n(), m + w.graph().m()))
    }

    fn seeds(&self) -> usize {
        32
    }

    fn trial(&self, seed: u64, meter: &mut Meter<'_>) -> Trial {
        let out = self.outputs(seed, meter);
        let ok = self.verdict(&out, meter);
        let mut h = Fnv::new();
        let mut layers = Vec::new();
        for (o, layer) in out.iter().zip(ADVERSARY_LAYERS) {
            h.write(o.best_objective);
            h.write(o.evaluations);
            h.write(o.accepted);
            for b in serde_json::to_string(&o.best_plan)
                .expect("fault plans serialize")
                .bytes()
            {
                h.write(u64::from(b));
            }
            if meter.traced() {
                let s = meter.get(layer);
                let evals = o.evaluations as f64;
                layers.extend([
                    (format!("{layer}.ms"), s.ms()),
                    (format!("{layer}.evals"), evals),
                    (
                        format!("{layer}.us_per_eval"),
                        ratio(s.ns as f64 / 1e3, evals),
                    ),
                    (
                        format!("{layer}.allocs_per_eval"),
                        ratio(s.allocs as f64, evals),
                    ),
                    (format!("{layer}.best_score"), o.best_objective as f64),
                ]);
            }
        }
        if meter.traced() {
            let accepted: u64 = out.iter().map(|o| o.accepted).sum();
            let iterations = self.cfg.iterations * out.len() as u64;
            layers.push((
                "adversary.accept_frac".into(),
                ratio(accepted as f64, iterations as f64),
            ));
        }
        Trial {
            ok,
            fingerprint: h.0,
            layers,
        }
    }
}

/// A trial whose run errored (or panicked) before its output could be
/// checked.
pub(crate) fn failed() -> Trial {
    Trial {
        ok: false,
        fingerprint: 0,
        layers: Vec::new(),
    }
}
