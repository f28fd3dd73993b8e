//! Canonical campaigns: the CI smoke campaign (golden-diffed byte for
//! byte) and the demo campaign behind `experiments -- campaign`.

use nochatter_core::CommMode;
use nochatter_graph::dynamic::{is_cycle, DynamicRing, SeededEdgeFailure};
use nochatter_graph::generators::Family;
use nochatter_graph::{InitialConfiguration, Label};
use nochatter_sim::{CrashPoint, FaultSpec, ScriptedRing, TopologySpec, WakeSchedule};

use crate::campaign::{Campaign, Matrix};
use crate::search::{AdversarySpace, Objective, SearchSpec};

/// The pinned master seed of [`smoke_campaign`] (the golden file is
/// recorded under it).
pub const SMOKE_SEED: u64 = 42;

/// The default master seed of [`demo_campaign`].
pub const DEMO_SEED: u64 = 2020;

/// The default master seed of [`dr1_campaign`].
pub const DR1_SEED: u64 = 1971;

/// The default master seed of [`fr1_campaign`].
pub const FR1_SEED: u64 = 1982;

/// The round at which FR1's first crash fires: early enough to precede
/// every gathering in the swept sizes, late enough that phase 0 is under
/// way (the crash hits a *working* agent, not a sleeping one, under
/// simultaneous wake-up).
pub const FR1_EARLY_CRASH: u64 = 64;

/// The round of FR1's second crash (the `f = 2` axis entry): mid-run,
/// after the early phases have already mixed the team.
pub const FR1_LATE_CRASH: u64 = 2048;

/// The seed of the demo/DR1 dynamic adversaries (edge-failure and
/// dynamic-ring specs carry their own seed, independent of the campaign
/// seed, so the adversary is part of the scenario's identity).
pub const ADVERSARY_SEED: u64 = 0xD1CE;

/// The smoke matrix: 2 families × 2 sizes × 2 schedules of silent
/// gathering (8 scenarios).
pub fn smoke_matrix() -> Matrix {
    Matrix {
        families: vec![Family::Ring, Family::Path],
        sizes: vec![4, 5],
        teams: vec![vec![2, 3]],
        schedules: vec![WakeSchedule::Simultaneous, WakeSchedule::FirstOnly],
        ..Matrix::new()
    }
}

/// The CI smoke campaign: [`smoke_matrix`] under the pinned seed 42. Its
/// JSON report is pinned as a golden file
/// (`crates/lab/golden/campaign_smoke.json`); any change to the engine,
/// the seed derivation or the serializers shows up as a diff there.
pub fn smoke_campaign() -> Campaign {
    smoke_matrix()
        .campaign("smoke", SMOKE_SEED)
        .expect("smoke campaign is well-formed")
}

/// The demo matrix: 8 graph families × 4 sizes × 2 teams × 2 wake
/// schedules × 3 topologies × both sensing modes of the gathering
/// algorithm (a few cells skip where the team outgrows the graph, and the
/// dynamic-ring cells exist only for the ring family). `quick` halves the
/// size axis for fast iteration.
///
/// The dynamism axis makes every demo run a static-vs-dynamic
/// differential: each dynamic cell shares its seed and base graph with
/// its static twin. Dynamic cells are *expected* to fail sometimes — the
/// paper's algorithm is designed for static networks, and the campaign
/// records exactly where (and how many moves were blocked) when it
/// doesn't survive the adversary.
pub fn demo_matrix(quick: bool) -> Matrix {
    let sizes: Vec<u32> = if quick { vec![4, 6] } else { vec![4, 6, 8, 9] };
    Matrix {
        families: vec![
            Family::Ring,
            Family::Path,
            Family::Complete,
            Family::Star,
            Family::Grid,
            Family::RandomTree,
            Family::RandomConnected,
            Family::Bipartite,
        ],
        sizes,
        teams: vec![vec![2, 3], vec![3, 5, 9]],
        schedules: vec![
            WakeSchedule::Simultaneous,
            WakeSchedule::Staggered { gap: 3 },
        ],
        topologies: vec![
            TopologySpec::Static,
            TopologySpec::EdgeFailure(SeededEdgeFailure {
                p: 0.05,
                seed: ADVERSARY_SEED,
            }),
            TopologySpec::Ring(DynamicRing {
                seed: ADVERSARY_SEED,
            }),
        ],
        modes: vec![CommMode::Silent, CommMode::Talking],
        ..Matrix::new()
    }
}

/// The demo campaign behind `experiments -- campaign`: [`demo_matrix`]
/// under the default seed 2020.
pub fn demo_campaign(quick: bool) -> Campaign {
    demo_matrix(quick)
        .campaign(if quick { "demo-quick" } else { "demo" }, DEMO_SEED)
        .expect("demo campaign is well-formed")
}

/// The DR1 matrix — the dynamic-ring study à la Di Luna et al.: rings of
/// several sizes × 2 teams × 2 wake schedules × {static, dynamic-ring
/// adversary} × both sensing modes. Every dynamic cell is the
/// 1-interval-connected adversary removing one seeded edge per round; its
/// static twin (same seed, same base ring) is the control.
pub fn dr1_matrix(quick: bool) -> Matrix {
    let sizes: Vec<u32> = if quick { vec![4, 5] } else { vec![4, 5, 6, 8] };
    Matrix {
        families: vec![Family::Ring],
        sizes,
        teams: vec![vec![2, 3], vec![3, 5, 9]],
        schedules: vec![WakeSchedule::Simultaneous, WakeSchedule::FirstOnly],
        topologies: vec![
            TopologySpec::Static,
            TopologySpec::Ring(DynamicRing {
                seed: ADVERSARY_SEED,
            }),
        ],
        modes: vec![CommMode::Silent, CommMode::Talking],
        ..Matrix::new()
    }
}

/// The DR1 campaign behind `experiments -- dr1`: [`dr1_matrix`] under the
/// pinned seed [`DR1_SEED`].
pub fn dr1_campaign(quick: bool) -> Campaign {
    dr1_matrix(quick)
        .campaign("dr1", DR1_SEED)
        .expect("dr1 campaign is well-formed")
}

/// The FR1 matrix — the crash-fault study: rings of several sizes × a
/// 2-agent and a 3-agent team × 2 wake schedules × {fault-free, crash one
/// agent early, crash two agents} × both sensing modes. Every faulty cell
/// shares its derived seed (and with it the base ring and exploration
/// setup) with its fault-free twin, so the sweep measures exactly what `f`
/// crashes cost — for the silent algorithm and for the talking baseline
/// side by side.
///
/// The `f = 2` entry crashes label 5, so it expands only for the 3-agent
/// team (matrix expansion skips crash lists naming labels outside a team);
/// the `f = 1` entry crashes label 3, a member of both teams.
pub fn fr1_matrix(quick: bool) -> Matrix {
    let sizes: Vec<u32> = if quick { vec![4, 5] } else { vec![4, 5, 6, 8] };
    let crash = |l: u64, round: u64| CrashPoint {
        label: Label::new(l).expect("preset labels are valid"),
        round,
    };
    Matrix {
        families: vec![Family::Ring],
        sizes,
        teams: vec![vec![2, 3], vec![3, 5, 9]],
        schedules: vec![WakeSchedule::Simultaneous, WakeSchedule::FirstOnly],
        faults: vec![
            FaultSpec::None,
            FaultSpec::CrashAt(vec![crash(3, FR1_EARLY_CRASH)]),
            FaultSpec::CrashAt(vec![crash(3, FR1_EARLY_CRASH), crash(5, FR1_LATE_CRASH)]),
        ],
        modes: vec![CommMode::Silent, CommMode::Talking],
        ..Matrix::new()
    }
}

/// The FR1 campaign behind `experiments -- fr1`: [`fr1_matrix`] under the
/// pinned seed [`FR1_SEED`].
pub fn fr1_campaign(quick: bool) -> Campaign {
    fr1_matrix(quick)
        .campaign("fr1", FR1_SEED)
        .expect("fr1 campaign is well-formed")
}

/// The pinned master seed of the hunt presets ([`hunt_spec`] and
/// [`hunt_smoke_spec`]): the CI smoke search's byte-identity check runs
/// under it.
pub const HUNT_SEED: u64 = 0xFA15E;

/// The canonical adversary space the hunt presets attack an instance
/// with, combining all three adversary axes of the dr1/fr1 studies as
/// explicit per-round choice lists:
///
/// * **Wake**: agent 0 is pinned to offset 0 (some agent must self-wake);
///   every other agent chooses among a few offsets or visit-only wake —
///   the staggered/first-only schedules and everything between.
/// * **Crash**: every agent but the first chooses to survive or to crash
///   at an early, mid or late round (the FR1 axis, round by round; the
///   first agent never crashes, so at least one survivor remains).
/// * **Edges**: over cycle base graphs, a two-slot [`ScriptedRing`]
///   script choosing which edge (if any) is missing on even and odd
///   rounds — the choice-list form of the DR1 dynamic-ring adversary.
///   All-keep decodes to the static topology, so the unperturbed cell is
///   in the space. Empty over non-cycles.
pub fn hunt_space(cfg: &InitialConfiguration) -> AdversarySpace {
    let labels: Vec<Label> = cfg.labels().collect();
    let wake_offsets = labels
        .iter()
        .enumerate()
        .map(|(i, _)| {
            if i == 0 {
                vec![0]
            } else {
                vec![0, 1, 5, 17, u64::MAX]
            }
        })
        .collect();
    let crash_rounds = labels
        .iter()
        .skip(1)
        .map(|&label| (label, vec![u64::MAX, 16, 64, 512]))
        .collect();
    let edge_script = if is_cycle(cfg.graph()) {
        let edges = cfg.graph().edge_count() as u32;
        (0..2)
            .map(|_| {
                let mut choices = vec![ScriptedRing::KEEP_ALL];
                choices.extend(0..edges);
                choices
            })
            .collect()
    } else {
        Vec::new()
    };
    AdversarySpace {
        wake_offsets,
        crash_rounds,
        edge_script,
    }
}

/// The base instances the hunt presets attack: the silent gathering cells
/// of the dr1/fr1 instance space (rings of several sizes × the 2- and
/// 3-agent teams), unperturbed — the search supplies the adversaries.
fn hunt_instances(
    name: &str,
    sizes: Vec<u32>,
    seed: u64,
) -> Vec<(crate::campaign::Scenario, AdversarySpace)> {
    Matrix {
        families: vec![Family::Ring],
        sizes,
        teams: vec![vec![2, 3], vec![3, 5, 9]],
        ..Matrix::new()
    }
    .campaign(name, seed)
    .expect("hunt campaign is well-formed")
    .scenarios()
    .iter()
    .map(|s| (s.clone(), hunt_space(&s.cfg)))
    .collect()
}

/// The hunt preset behind `experiments -- hunt`: a budgeted failure
/// search over the dr1/fr1 instance space (silent gathering on rings,
/// both teams), [`hunt_space`] adversaries, under the pinned seed
/// [`HUNT_SEED`]. `quick` halves the size axis and the budget.
pub fn hunt_spec(quick: bool) -> SearchSpec {
    hunt_spec_seeded(quick, HUNT_SEED)
}

/// [`hunt_spec`] under a custom master seed: the base instances are
/// honestly re-derived under `seed` (not just relabeled), exactly as the
/// campaign CLI's `--seed` re-expands its matrix.
pub fn hunt_spec_seeded(quick: bool, seed: u64) -> SearchSpec {
    let sizes: Vec<u32> = if quick { vec![4, 5] } else { vec![4, 5, 6, 8] };
    let name = if quick { "hunt-quick" } else { "hunt" };
    SearchSpec {
        name: name.into(),
        seed,
        budget: if quick { 32 } else { 64 },
        objective: Objective::Failure,
        instances: hunt_instances(name, sizes, seed),
    }
}

/// The adversary space of the late-outage hunt: every mutable axis is a
/// one-round scripted edge removal deep in the run's endgame. Slots below
/// `window` are pinned to keep-all (singleton axes, so no mutation ever
/// touches them) and the `slots` slots from `window` on choose freely
/// among keep-all and every ring edge. Every candidate therefore runs
/// like the unperturbed baseline up to round `window` and can differ only
/// in its endgame — unlike [`hunt_space`], whose wake/crash axes all act
/// in the first few hundred rounds of runs that last tens of thousands.
/// Wake stays simultaneous and nothing crashes.
pub fn late_outage_space(cfg: &InitialConfiguration, window: u64, slots: u64) -> AdversarySpace {
    assert!(
        is_cycle(cfg.graph()),
        "scripted outages need a cycle base graph"
    );
    let edges = cfg.graph().edge_count() as u32;
    AdversarySpace {
        wake_offsets: cfg.labels().map(|_| vec![0]).collect(),
        crash_rounds: Vec::new(),
        edge_script: (0..window + slots)
            .map(|s| {
                if s < window {
                    vec![ScriptedRing::KEEP_ALL]
                } else {
                    let mut choices = vec![ScriptedRing::KEEP_ALL];
                    choices.extend(0..edges);
                    choices
                }
            })
            .collect(),
    }
}

/// The short-evaluation hunt: silent gathering on the two smoke rings,
/// attacked only through [`late_outage_space`] windows placed at roughly
/// three quarters of each baseline's gather time (the unperturbed runs
/// gather at rounds ~6.5k and ~8.7k under [`HUNT_SEED`]). The objective is
/// the slowest gather: can a one-round outage in the endgame delay the
/// meeting? Its runs execute only a few hundred engine iterations each,
/// so search-side work weighs more here than in the dr1/fr1
/// [`hunt_spec`], whose evaluations run tens of thousands of rounds.
pub fn late_outage_spec(budget: u64) -> SearchSpec {
    let instances = Matrix {
        families: vec![Family::Ring],
        sizes: vec![4, 5],
        teams: vec![vec![2, 3]],
        ..Matrix::new()
    }
    .campaign("hunt-late", HUNT_SEED)
    .expect("late-outage campaign is well-formed")
    .scenarios()
    .iter()
    .map(|s| {
        // Window starts sit at ~75% of the baseline gather round so the
        // removals land while the agents still move (a slot after the
        // meeting could never matter).
        let window = if s.key.n == 4 { 5000 } else { 7000 };
        let space = late_outage_space(&s.cfg, window, 12);
        (s.clone(), space)
    })
    .collect();
    SearchSpec {
        name: "hunt-late".into(),
        seed: HUNT_SEED,
        budget,
        objective: Objective::SlowGather,
        instances,
    }
}

/// The tiny CI smoke search: two ring instances, a 12-evaluation budget —
/// small enough to run twice per CI job, deterministic enough to byte-diff
/// across worker counts.
pub fn hunt_smoke_spec() -> SearchSpec {
    hunt_smoke_spec_seeded(HUNT_SEED)
}

/// [`hunt_smoke_spec`] under a custom master seed (see
/// [`hunt_spec_seeded`]).
pub fn hunt_smoke_spec_seeded(seed: u64) -> SearchSpec {
    SearchSpec {
        name: "hunt-smoke".into(),
        seed,
        budget: 12,
        objective: Objective::Failure,
        instances: hunt_instances("hunt-smoke", vec![4, 5], seed)
            .into_iter()
            .filter(|(s, _)| s.key.team == vec![2, 3])
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_tiny_and_fixed() {
        let c = smoke_campaign();
        assert_eq!(c.len(), 8);
        assert_eq!(c.seed(), 42);
    }

    #[test]
    fn demo_meets_the_acceptance_floor() {
        let c = demo_campaign(false);
        assert!(c.len() >= 200, "demo has {} scenarios", c.len());
        let mut families: Vec<&str> = c
            .scenarios()
            .iter()
            .map(|s| s.key.family.as_str())
            .collect();
        families.sort_unstable();
        families.dedup();
        assert!(families.len() >= 6, "only {} families", families.len());
    }

    #[test]
    fn demo_exercises_the_dynamism_axis() {
        for quick in [true, false] {
            let c = demo_campaign(quick);
            let mut topos: Vec<&str> = c.scenarios().iter().map(|s| s.key.topo.as_str()).collect();
            topos.sort_unstable();
            topos.dedup();
            assert!(
                topos.len() >= 3,
                "demo must sweep static + 2 dynamic topologies, got {topos:?}"
            );
            // Dynamic-ring cells exist, and only over cycle base graphs
            // (the ring family everywhere; other families only where the
            // instance happens to be a cycle, e.g. the 2×2 grid).
            assert!(c
                .scenarios()
                .iter()
                .any(|s| s.key.topo.starts_with("dring") && s.key.family == "ring"));
            for s in c.scenarios() {
                if s.key.topo.starts_with("dring") {
                    assert!(
                        nochatter_graph::dynamic::is_cycle(s.cfg.graph()),
                        "{} is a dring cell over a non-cycle",
                        s.key
                    );
                }
            }
        }
    }

    #[test]
    fn fr1_pairs_every_faulty_cell_with_a_fault_free_twin() {
        let c = fr1_campaign(true);
        let faulty: Vec<_> = c
            .scenarios()
            .iter()
            .filter(|s| s.key.fault != "none")
            .collect();
        assert!(!faulty.is_empty());
        // Both crash depths exist; the f = 2 list expands only for the
        // team containing label 5.
        assert!(faulty.iter().any(|s| s.key.fault == "crash3@64"));
        for s in &faulty {
            if s.key.fault.contains('+') {
                assert_eq!(s.key.team, vec![3, 5, 9], "{}", s.key);
            }
            let mut twin = s.key.clone();
            twin.fault = "none".into();
            let twin = c
                .scenarios()
                .iter()
                .find(|t| t.key == twin)
                .expect("fault-free twin exists");
            assert_eq!(twin.seed, s.seed, "twins must share the derived seed");
            assert_eq!(twin.cfg, s.cfg, "twins must share the base ring");
        }
    }

    #[test]
    fn hunt_presets_cover_the_three_adversary_axes() {
        let spec = hunt_spec(true);
        assert_eq!(spec.seed, HUNT_SEED);
        assert_eq!(spec.objective, Objective::Failure);
        assert_eq!(spec.instances.len(), 4, "2 sizes × 2 teams");
        for (base, space) in &spec.instances {
            assert_eq!(base.key.mode, "silent");
            assert_eq!(base.key.topo, "static", "the search supplies the adversary");
            assert_eq!(space.wake_offsets.len(), base.key.team.len());
            assert_eq!(space.wake_offsets[0], vec![0], "agent 0 always self-wakes");
            assert_eq!(space.crash_rounds.len(), base.key.team.len() - 1);
            assert_eq!(space.edge_script.len(), 2, "rings carry the edge axis");
            assert!(space.candidates() > u128::from(spec.budget));
        }
        let smoke = hunt_smoke_spec();
        assert_eq!(smoke.instances.len(), 2, "2 sizes × the 2-agent team");
        assert_eq!(smoke.budget, 12);
    }

    #[test]
    fn hunt_space_drops_the_edge_axis_off_cycles() {
        let cfg = crate::campaign::spread(Family::Star.instantiate(5, 1), &[2, 3]).unwrap();
        let space = hunt_space(&cfg);
        assert!(space.edge_script.is_empty(), "stars are not cycles");
        assert_eq!(space.wake_offsets.len(), 2);
    }

    #[test]
    fn dr1_pairs_every_dynamic_cell_with_a_static_twin() {
        let c = dr1_campaign(true);
        let dynamic: Vec<_> = c
            .scenarios()
            .iter()
            .filter(|s| s.key.topo != "static")
            .collect();
        assert!(!dynamic.is_empty());
        for s in dynamic {
            let mut twin = s.key.clone();
            twin.topo = "static".into();
            let twin = c
                .scenarios()
                .iter()
                .find(|t| t.key == twin)
                .expect("static twin exists");
            assert_eq!(twin.seed, s.seed, "twins must share the derived seed");
            assert_eq!(twin.cfg, s.cfg, "twins must share the base ring");
        }
    }
}
