//! Declarative campaign specifications and their expansion into scenarios.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use nochatter_core::unknown::EstMode;
use nochatter_core::{BitStr, CommMode};
use nochatter_graph::generators::Family;
use nochatter_graph::rng::derive_seed;
use nochatter_graph::{InitialConfiguration, Label, NodeId};
use nochatter_sim::{FaultSpec, TopologySpec, WakeSchedule};

use crate::record::{fnv_bytes, ScenarioKey};

/// Salt separating per-scenario seed derivation from other consumers of the
/// campaign seed (graph instantiation uses its own salts inside
/// [`Family::instantiate`]).
const SALT_SCENARIO: u64 = 0x5EED;

/// How gossip payloads are assigned to a team (deterministically, so the
/// scenario stays declarative).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PayloadScheme {
    /// Every agent sends the all-ones message of this length.
    Uniform {
        /// Message length in bits (0 = empty message).
        len: usize,
    },
    /// The agent at sorted-label index `i` sends an alternating-bit message
    /// of length `i` (index 0 sends the empty message).
    Ramp,
}

impl PayloadScheme {
    /// The per-agent `(label, message)` assignment for `cfg`'s team.
    pub fn payloads(&self, cfg: &InitialConfiguration) -> Vec<(Label, BitStr)> {
        cfg.agents()
            .iter()
            .enumerate()
            .map(|(i, &(label, _))| {
                let bits = match *self {
                    PayloadScheme::Uniform { len } => vec![true; len],
                    PayloadScheme::Ramp => (0..i).map(|b| b % 2 == 0).collect(),
                };
                (label, BitStr::from_bits(bits))
            })
            .collect()
    }

    fn name(&self) -> String {
        match *self {
            PayloadScheme::Uniform { len } => format!("u{len}"),
            PayloadScheme::Ramp => "ramp".into(),
        }
    }
}

/// Which algorithm a scenario exercises.
#[derive(Clone, Debug)]
pub enum ScenarioKind {
    /// `GatherKnownUpperBound` (silent or talking per the scenario mode).
    Gather,
    /// Gather-then-gossip with the given payload assignment.
    Gossip(PayloadScheme),
    /// `GatherUnknownUpperBound` against an enumeration consisting of the
    /// given decoy hypotheses followed by the truth (the scenario's own
    /// configuration). Weak-model only (the runner rejects talking-mode
    /// cells), and the scenario seed is unused: the algorithm's schedule
    /// is fully determined by the enumeration.
    Unknown {
        /// Wrong hypotheses enumerated before the truth.
        decoys: Vec<InitialConfiguration>,
        /// How a dirty `EST+` exploration resolves (the faithful algorithm
        /// uses [`EstMode::Conservative`]).
        est_mode: EstMode,
    },
}

impl ScenarioKind {
    /// The short variant name used in scenario keys and reports.
    pub fn variant_name(&self) -> String {
        match self {
            ScenarioKind::Gather => "gather".into(),
            ScenarioKind::Gossip(scheme) => format!("gossip-{}", scheme.name()),
            ScenarioKind::Unknown { decoys, .. } => format!("unknown@{}", decoys.len() + 1),
        }
    }
}

/// The short name of a wake schedule, for scenario keys.
pub fn wake_name(schedule: &WakeSchedule) -> String {
    match schedule {
        WakeSchedule::Simultaneous => "simul".into(),
        WakeSchedule::FirstOnly => "first".into(),
        WakeSchedule::Staggered { gap } => format!("stag{gap}"),
        WakeSchedule::Explicit(rounds) => {
            let mut name = String::from("explicit");
            for (i, &r) in rounds.iter().enumerate() {
                if i > 0 {
                    name.push('.');
                }
                if r == u64::MAX {
                    name.push('x');
                } else {
                    let _ = write!(name, "{r}");
                }
            }
            name
        }
        _ => "other".into(),
    }
}

/// One fully-specified run: a configuration, a mode, a schedule, an
/// algorithm variant, and a derived seed. Plain data — scenarios are safe
/// to share across worker threads.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The scenario's identity within its campaign.
    pub key: ScenarioKey,
    /// The network and start positions.
    pub cfg: InitialConfiguration,
    /// Silent (weak sensing) or talking (traditional sensing).
    pub mode: CommMode,
    /// The adversary's wake schedule.
    pub schedule: WakeSchedule,
    /// The round-varying topology ([`TopologySpec::Static`] for the
    /// paper's model). An execution axis: a dynamic cell shares its seed
    /// and base graph with its static twin.
    pub topo: TopologySpec,
    /// The crash-fault adversary ([`FaultSpec::None`] for the paper's
    /// model). An execution axis: a faulty cell shares its seed and base
    /// graph with its fault-free twin.
    pub fault: FaultSpec,
    /// The algorithm under test.
    pub kind: ScenarioKind,
    /// Seed derived from the campaign seed and the key.
    pub seed: u64,
}

/// A malformed campaign specification.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The matrix (or scenario list) expands to nothing.
    Empty,
    /// Two scenarios share a key (canonical form attached).
    DuplicateKey(String),
    /// A team contains the label 0 (invalid labels are rejected before a
    /// configuration is attempted; duplicate labels surface as
    /// [`CampaignError::BadCell`]).
    BadTeam(Vec<u64>),
    /// A configuration could not be built for a matrix cell (duplicate
    /// labels, more agents than nodes, ...).
    BadCell(String),
    /// A matrix size is below what its family can realize
    /// ([`Family::min_nodes`]).
    BadSize {
        /// The family's short name.
        family: &'static str,
        /// The requested size.
        n: u32,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Empty => write!(f, "campaign expands to zero scenarios"),
            CampaignError::DuplicateKey(key) => write!(f, "duplicate scenario key: {key}"),
            CampaignError::BadTeam(team) => write!(f, "invalid team {team:?}"),
            CampaignError::BadCell(cell) => write!(f, "cannot build configuration for {cell}"),
            CampaignError::BadSize { family, n } => {
                write!(f, "family {family} cannot realize size {n}")
            }
        }
    }
}

impl Error for CampaignError {}

/// A named, seeded, expanded set of scenarios, sorted by key.
///
/// Build one from a [`Matrix`] (the cartesian-product path) or from an
/// explicit scenario list ([`Campaign::from_scenarios`], used by the
/// unknown-bound tables whose hypotheses aren't family-driven).
#[derive(Clone, Debug)]
pub struct Campaign {
    name: String,
    seed: u64,
    scenarios: Vec<Scenario>,
}

impl Campaign {
    /// Wraps explicit scenarios: derives each scenario's seed from the
    /// campaign seed and its key, sorts by key, and rejects duplicates.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Empty`] or [`CampaignError::DuplicateKey`].
    pub fn from_scenarios(
        name: impl Into<String>,
        seed: u64,
        mut scenarios: Vec<Scenario>,
    ) -> Result<Self, CampaignError> {
        if scenarios.is_empty() {
            return Err(CampaignError::Empty);
        }
        for s in &mut scenarios {
            s.seed = scenario_seed(seed, &s.key);
        }
        scenarios.sort_by(|a, b| a.key.cmp(&b.key));
        for w in scenarios.windows(2) {
            if w[0].key == w[1].key {
                return Err(CampaignError::DuplicateKey(w[0].key.canonical()));
            }
        }
        Ok(Campaign {
            name: name.into(),
            seed,
            scenarios,
        })
    }

    /// The campaign's name (used for report file names).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The campaign-level master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scenarios, in key order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the campaign is empty (never true for a built campaign).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// Derives the per-scenario seed from the campaign seed and the key's
/// *instance* sub-key ([`ScenarioKey::instance_canonical`]: family, size,
/// team, repetition — deliberately excluding the execution axes).
///
/// Key-based (not index-based), so extending a campaign with new axes
/// never reshuffles the seeds of existing cells. Instance-based (not
/// full-key-based), so cells that differ only in wake schedule, sensing
/// mode or algorithm variant share one seed — and with it the same
/// random-family graph and the same derived exploration setup. That
/// sharing is what makes differential comparisons (silent vs talking,
/// gossip vs its gathering baseline) comparisons of *identical
/// configurations* rather than of two different random instances.
pub fn scenario_seed(campaign_seed: u64, key: &ScenarioKey) -> u64 {
    derive_seed(
        campaign_seed,
        &[
            SALT_SCENARIO,
            fnv_bytes(key.instance_canonical().as_bytes()),
        ],
    )
}

/// Spreads the team's agents evenly over the graph's nodes (the same
/// placement rule the original bench tables used).
///
/// # Errors
///
/// [`CampaignError::BadTeam`] for invalid labels,
/// [`CampaignError::BadCell`] if the configuration is rejected (e.g. more
/// agents than nodes).
pub fn spread(
    graph: nochatter_graph::Graph,
    team: &[u64],
) -> Result<InitialConfiguration, CampaignError> {
    let n = graph.node_count();
    let agents = team
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            Label::new(l)
                .map(|label| (label, NodeId::new((i * n / team.len()) as u32)))
                .ok_or_else(|| CampaignError::BadTeam(team.to_vec()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    InitialConfiguration::new(graph, agents)
        .map_err(|e| CampaignError::BadCell(format!("team {team:?}: {e}")))
}

/// The cartesian scenario matrix: graph family × size × team × wake
/// schedule × dynamism × fault adversary × sensing mode × algorithm
/// variant × seed repetition.
///
/// Cells a family cannot realize (more agents than nodes) are skipped
/// silently, mirroring the original sweep tables; so are cells whose
/// topology cannot run over the instantiated graph (a
/// [`TopologySpec::Ring`] over anything but a cycle), which lets one
/// matrix cross the dynamic-ring adversary with a family list that
/// includes non-rings, and cells whose fault spec targets a label outside
/// the team, which lets one matrix cross per-label crash lists with
/// several teams.
///
/// # Example
///
/// ```
/// use nochatter_graph::generators::Family;
/// use nochatter_lab::{Matrix, ScenarioKind};
/// use nochatter_sim::WakeSchedule;
///
/// let campaign = Matrix {
///     families: vec![Family::Ring, Family::Path],
///     sizes: vec![4, 6],
///     teams: vec![vec![2, 3]],
///     schedules: vec![WakeSchedule::Simultaneous],
///     ..Matrix::new()
/// }
/// .campaign("doc", 42)?;
/// assert_eq!(campaign.len(), 4);
/// # Ok::<(), nochatter_lab::CampaignError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Matrix {
    /// Graph families to sweep.
    pub families: Vec<Family>,
    /// Requested sizes (families may round up).
    pub sizes: Vec<u32>,
    /// Teams of agent labels.
    pub teams: Vec<Vec<u64>>,
    /// Wake schedules.
    pub schedules: Vec<WakeSchedule>,
    /// Round-varying topologies (the dynamism axis).
    pub topologies: Vec<TopologySpec>,
    /// Crash-fault adversaries (the fault axis).
    pub faults: Vec<FaultSpec>,
    /// Sensing/communication modes.
    pub modes: Vec<CommMode>,
    /// Algorithm variants.
    pub kinds: Vec<ScenarioKind>,
    /// Seed repetitions per cell (each rep derives a fresh scenario seed,
    /// and with it fresh random-family instances).
    pub reps: u64,
    /// Renumber every node's ports by a seeded adversary.
    pub shuffled_ports: bool,
}

impl Matrix {
    /// A minimal matrix: silent gathering, simultaneous wake, one rep.
    /// Fill in `families`, `sizes` and `teams` (all empty by default).
    pub fn new() -> Self {
        Matrix {
            families: Vec::new(),
            sizes: Vec::new(),
            teams: Vec::new(),
            schedules: vec![WakeSchedule::Simultaneous],
            topologies: vec![TopologySpec::Static],
            faults: vec![FaultSpec::None],
            modes: vec![CommMode::Silent],
            kinds: vec![ScenarioKind::Gather],
            reps: 1,
            shuffled_ports: false,
        }
    }

    /// Expands the matrix into a [`Campaign`] under the given master seed.
    ///
    /// Expansion is deterministic: scenarios are keyed by their cell
    /// coordinates, seeded from `(campaign_seed, key)`, and sorted by key.
    ///
    /// # Errors
    ///
    /// See [`CampaignError`]; an invalid team, a size its family cannot
    /// realize or an unbuildable non-skipped cell rejects the whole
    /// campaign.
    pub fn campaign(
        &self,
        name: impl Into<String>,
        campaign_seed: u64,
    ) -> Result<Campaign, CampaignError> {
        let mut scenarios = Vec::new();
        for &family in &self.families {
            for &n in &self.sizes {
                for team in &self.teams {
                    if team.len() > n as usize {
                        continue; // the cell cannot host the team
                    }
                    if n < family.min_nodes() {
                        return Err(CampaignError::BadSize {
                            family: family.name(),
                            n,
                        });
                    }
                    for rep in 0..self.reps {
                        // The seed (and with it the instance) depends only
                        // on the instance sub-key — family, size, team,
                        // rep — so one configuration serves every
                        // execution-axis cell instead of being regenerated
                        // and revalidated per schedule × mode × variant.
                        // `from_scenarios` sorts by key, so expansion
                        // order is immaterial.
                        let instance_key = ScenarioKey {
                            family: family.name().into(),
                            n,
                            team: team.clone(),
                            wake: String::new(),
                            topo: String::new(),
                            fault: String::new(),
                            mode: String::new(),
                            variant: String::new(),
                            rep,
                        };
                        let seed = scenario_seed(campaign_seed, &instance_key);
                        let graph = if self.shuffled_ports {
                            family.instantiate_shuffled(n, seed)
                        } else {
                            family.instantiate(n, seed)
                        };
                        let cfg = spread(graph, team)?;
                        let team_labels: Vec<nochatter_graph::Label> = cfg.labels().collect();
                        for schedule in &self.schedules {
                            for topo in &self.topologies {
                                if !topo.compatible_with(cfg.graph()) {
                                    continue; // e.g. a dynamic ring over a non-cycle
                                }
                                for fault in &self.faults {
                                    if !fault.compatible_with(&team_labels) {
                                        continue; // a crash list naming a label outside this team
                                    }
                                    for &mode in &self.modes {
                                        for kind in &self.kinds {
                                            scenarios.push(Scenario {
                                                key: ScenarioKey {
                                                    wake: wake_name(schedule),
                                                    topo: topo.short_name(),
                                                    fault: fault.short_name(),
                                                    mode: mode_name(mode).into(),
                                                    variant: kind.variant_name(),
                                                    ..instance_key.clone()
                                                },
                                                cfg: cfg.clone(),
                                                mode,
                                                schedule: schedule.clone(),
                                                topo: topo.clone(),
                                                fault: fault.clone(),
                                                kind: kind.clone(),
                                                seed,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Campaign::from_scenarios(name, campaign_seed, scenarios)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::new()
    }
}

/// The report name of a [`CommMode`].
pub fn mode_name(mode: CommMode) -> &'static str {
    match mode {
        CommMode::Silent => "silent",
        CommMode::Talking => "talking",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> Matrix {
        Matrix {
            families: vec![Family::Ring, Family::Path],
            sizes: vec![4, 6],
            teams: vec![vec![2, 3], vec![3, 5, 9]],
            schedules: vec![WakeSchedule::Simultaneous, WakeSchedule::FirstOnly],
            ..Matrix::new()
        }
    }

    #[test]
    fn expansion_counts_and_orders() {
        let c = small_matrix().campaign("t", 1).unwrap();
        // 2 families × 2 sizes × 2 teams × 2 schedules.
        assert_eq!(c.len(), 16);
        let keys: Vec<String> = c.scenarios().iter().map(|s| s.key.canonical()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "scenarios must be in key order");
        assert!(keys[0].starts_with("path/"), "path sorts before ring");
    }

    #[test]
    fn oversized_teams_are_skipped() {
        let c = Matrix {
            families: vec![Family::Ring],
            sizes: vec![3],
            teams: vec![vec![2, 3], vec![1, 2, 3, 4]],
            ..Matrix::new()
        }
        .campaign("t", 1)
        .unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn wake_names_are_stable() {
        assert_eq!(wake_name(&WakeSchedule::Simultaneous), "simul");
        assert_eq!(wake_name(&WakeSchedule::FirstOnly), "first");
        assert_eq!(wake_name(&WakeSchedule::Staggered { gap: 16 }), "stag16");
        assert_eq!(wake_name(&WakeSchedule::Explicit(vec![])), "explicit");
        assert_eq!(
            wake_name(&WakeSchedule::Explicit(vec![
                0,
                u64::MAX,
                17,
                u64::MAX - 1,
                u64::MAX
            ])),
            "explicit0.x.17.18446744073709551614.x"
        );
    }

    #[test]
    fn seeds_are_key_stable() {
        let base = small_matrix().campaign("t", 9).unwrap();
        // Adding a new axis value must not change existing cells' seeds.
        let mut extended = small_matrix();
        extended.sizes.push(8);
        let extended = extended.campaign("t", 9).unwrap();
        for s in base.scenarios() {
            let twin = extended
                .scenarios()
                .iter()
                .find(|e| e.key == s.key)
                .expect("existing cell survives extension");
            assert_eq!(twin.seed, s.seed);
            assert_eq!(twin.cfg, s.cfg);
        }
    }

    #[test]
    fn execution_axes_share_one_instance() {
        // Silent/talking (and gather/gossip, and different schedules) cells
        // of the same family × size × team × rep must run on the identical
        // configuration with the identical seed — the differential
        // contract. Random families are the acid test: a seed difference
        // would produce a different graph outright.
        let c = Matrix {
            families: vec![Family::RandomConnected],
            sizes: vec![8],
            teams: vec![vec![2, 3]],
            schedules: vec![WakeSchedule::Simultaneous, WakeSchedule::FirstOnly],
            modes: vec![CommMode::Silent, CommMode::Talking],
            kinds: vec![
                ScenarioKind::Gather,
                ScenarioKind::Gossip(PayloadScheme::Uniform { len: 2 }),
            ],
            ..Matrix::new()
        }
        .campaign("t", 4)
        .unwrap();
        assert_eq!(c.len(), 8);
        let first = &c.scenarios()[0];
        for s in c.scenarios() {
            assert_eq!(s.seed, first.seed, "{} diverged", s.key);
            assert_eq!(s.cfg, first.cfg, "{} runs a different instance", s.key);
        }
    }

    #[test]
    fn reps_derive_fresh_random_instances() {
        let c = Matrix {
            families: vec![Family::RandomConnected],
            sizes: vec![8],
            teams: vec![vec![2, 3]],
            reps: 3,
            ..Matrix::new()
        }
        .campaign("t", 5)
        .unwrap();
        assert_eq!(c.len(), 3);
        assert!(
            c.scenarios().windows(2).any(|w| w[0].cfg != w[1].cfg),
            "reps must sweep distinct random graphs"
        );
    }

    #[test]
    fn bad_team_is_rejected() {
        let err = Matrix {
            families: vec![Family::Ring],
            sizes: vec![4],
            teams: vec![vec![0, 3]],
            ..Matrix::new()
        }
        .campaign("t", 1)
        .unwrap_err();
        assert!(matches!(err, CampaignError::BadTeam(_)));
    }

    #[test]
    fn empty_matrix_is_rejected() {
        let err = Matrix::new().campaign("t", 1).unwrap_err();
        assert_eq!(err, CampaignError::Empty);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let c = small_matrix().campaign("t", 1).unwrap();
        let mut scenarios = c.scenarios().to_vec();
        scenarios.push(scenarios[0].clone());
        let err = Campaign::from_scenarios("t", 1, scenarios).unwrap_err();
        assert!(matches!(err, CampaignError::DuplicateKey(_)));
    }

    #[test]
    fn shuffled_ports_change_numbering_not_topology() {
        let plain = Matrix {
            families: vec![Family::Complete],
            sizes: vec![5],
            teams: vec![vec![2, 3]],
            ..Matrix::new()
        };
        let shuffled = Matrix {
            shuffled_ports: true,
            ..plain.clone()
        };
        let p = plain.campaign("t", 3).unwrap();
        let s = shuffled.campaign("t", 3).unwrap();
        assert_eq!(
            p.scenarios()[0].cfg.size(),
            s.scenarios()[0].cfg.size(),
            "same topology size"
        );
        assert_ne!(
            p.scenarios()[0].cfg,
            s.scenarios()[0].cfg,
            "port numbering must differ"
        );
    }

    #[test]
    fn payload_schemes_are_deterministic() {
        let cfg = spread(Family::Ring.instantiate(5, 1), &[2, 3, 9]).unwrap();
        let uniform = PayloadScheme::Uniform { len: 3 }.payloads(&cfg);
        assert!(uniform.iter().all(|(_, m)| m.len() == 3));
        let ramp = PayloadScheme::Ramp.payloads(&cfg);
        let lens: Vec<usize> = ramp.iter().map(|(_, m)| m.len()).collect();
        assert_eq!(lens, vec![0, 1, 2]);
    }

    #[test]
    fn campaign_error_messages_render() {
        assert!(CampaignError::Empty.to_string().contains("zero"));
        assert!(CampaignError::BadTeam(vec![0]).to_string().contains("[0]"));
        let small = CampaignError::BadSize {
            family: "lolli",
            n: 1,
        };
        assert!(small.to_string().contains("lolli cannot realize size 1"));
    }

    #[test]
    fn sizes_below_the_family_minimum_are_a_typed_error() {
        for family in [Family::Lollipop, Family::Grid, Family::Path] {
            let err = Matrix {
                families: vec![family],
                sizes: vec![1],
                teams: vec![vec![2]],
                ..Matrix::new()
            }
            .campaign("t", 1)
            .unwrap_err();
            assert_eq!(
                err,
                CampaignError::BadSize {
                    family: family.name(),
                    n: 1
                }
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Tiny sizes and bad teams (label 0, duplicates, empty) give a
        /// campaign or a typed error, never a panic.
        #[test]
        fn tiny_sizes_and_bad_teams_never_panic(
            families in proptest::collection::vec(0usize..Family::all().len(), 1..4),
            sizes in proptest::collection::vec(0u32..=8, 1..4),
            teams in proptest::collection::vec(proptest::collection::vec(0u64..5, 0..4), 1..3),
            shuffled_ports in proptest::prelude::any::<bool>(),
        ) {
            let matrix = Matrix {
                families: families.iter().map(|&i| Family::all()[i]).collect(),
                sizes,
                teams,
                shuffled_ports,
                ..Matrix::new()
            };
            match matrix.campaign("fuzz", 7) {
                Ok(campaign) => {
                    for s in campaign.scenarios() {
                        proptest::prop_assert!(matrix.sizes.contains(&s.key.n));
                        proptest::prop_assert!(matrix.teams.contains(&s.key.team));
                        proptest::prop_assert!(s.cfg.size() >= 2);
                    }
                }
                Err(CampaignError::BadSize { family, n }) => {
                    let f = Family::by_name(family).unwrap();
                    proptest::prop_assert!(n < f.min_nodes());
                }
                Err(_) => {}
            }
        }
    }
}
