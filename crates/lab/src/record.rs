//! Scenario keys and per-scenario run records.

use std::fmt;

use nochatter_sim::Trace;

/// The identity of one scenario inside a campaign.
///
/// Keys are the reproducibility anchor of the whole subsystem: records are
/// ordered by key (so reports are identical for any worker count), and each
/// scenario's RNG seed is derived from the campaign seed and the key's
/// canonical form (so adding axes to a campaign never reshuffles the seeds
/// of existing cells).
///
/// The derived [`Ord`] sorts by field order — family, size, team, wake
/// schedule, dynamism, fault adversary, sensing mode, algorithm variant,
/// repetition — which groups reports the way the tables read.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScenarioKey {
    /// Graph family short name (e.g. `"ring"`), or a free-form tag for
    /// explicitly constructed scenarios.
    pub family: String,
    /// Requested network size (the instantiated graph may round up).
    pub n: u32,
    /// Agent labels, in increasing order.
    pub team: Vec<u64>,
    /// Wake-schedule short name (e.g. `"simul"`, `"first"`, `"stag7"`).
    pub wake: String,
    /// Dynamism axis: the topology's short name (`"static"`, `"dring@9"`,
    /// `"ef100@9"`, `"per7.0"` — see
    /// `nochatter_sim::TopologySpec::short_name`).
    pub topo: String,
    /// Crash-fault axis: the fault spec's short name (`"none"`,
    /// `"crash3@64"`, `"sc50@9x2"` — see
    /// `nochatter_sim::FaultSpec::short_name`).
    pub fault: String,
    /// Sensing/communication mode: `"silent"` or `"talking"`.
    pub mode: String,
    /// Algorithm variant short name (e.g. `"gather"`, `"gossip-u4"`).
    pub variant: String,
    /// Repetition index within the campaign's seed range.
    pub rep: u64,
}

impl ScenarioKey {
    /// The team rendered as dot-joined labels (e.g. `"2.3.9"`).
    pub fn team_string(&self) -> String {
        self.team
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(".")
    }

    /// The canonical single-line form, unique per scenario within a
    /// campaign.
    ///
    /// The dynamism segment appears only for non-static topologies, and
    /// the fault segment only for faulty cells, so every pre-existing key
    /// (and with it every golden report) renders unchanged.
    pub fn canonical(&self) -> String {
        let topo = if self.topo.is_empty() || self.topo == "static" {
            String::new()
        } else {
            format!("/{}", self.topo)
        };
        let fault = if self.fault.is_empty() || self.fault == "none" {
            String::new()
        } else {
            format!("/{}", self.fault)
        };
        format!(
            "{}/n{}/t{}/w{}{}{}/{}/{}/r{}",
            self.family,
            self.n,
            self.team_string(),
            self.wake,
            topo,
            fault,
            self.mode,
            self.variant,
            self.rep
        )
    }

    /// The *instance* sub-key — family, size, team and repetition — naming
    /// the network instance while excluding the execution axes (wake
    /// schedule, dynamism, fault adversary, sensing mode, algorithm
    /// variant). Cells sharing this sub-key run on the identical
    /// configuration: this string (not the full key, and not the expansion
    /// index) feeds per-scenario seed derivation, which is what makes a
    /// dynamic or faulty cell and its unperturbed twin a differential pair
    /// over the same base graph.
    pub fn instance_canonical(&self) -> String {
        format!(
            "{}/n{}/t{}/r{}",
            self.family,
            self.n,
            self.team_string(),
            self.rep
        )
    }
}

impl fmt::Display for ScenarioKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// Everything measured about one executed scenario.
///
/// Plain data, cheap to send across worker threads, and the unit of the
/// JSON/CSV reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunRecord {
    /// The scenario's identity.
    pub key: ScenarioKey,
    /// The per-scenario seed derived from the campaign seed and the key.
    pub seed: u64,
    /// The instantiated graph's actual node count.
    pub n_actual: u32,
    /// Whether the scenario met its success criterion (validated gathering,
    /// plus exact gossip decoding for gossip variants).
    pub ok: bool,
    /// `"gathered"`, or the first violated requirement / engine error.
    pub status: String,
    /// Rounds to the last declaration (or the round limit).
    pub rounds: u64,
    /// Total edge traversals across all agents.
    pub moves: u64,
    /// Move attempts blocked by an absent edge (always 0 on the static
    /// topology; serialized only for dynamic cells so static reports stay
    /// byte-identical to their pre-dynamism goldens).
    pub blocked_moves: u64,
    /// Agents crashed by the fault adversary (always 0 under the
    /// fault-free spec; serialized only for faulty cells so fault-free
    /// reports stay byte-identical to their goldens).
    pub crashed_agents: u32,
    /// Engine loop iterations actually executed (fast-forward excluded).
    pub engine_iterations: u64,
    /// Rounds skipped by the quiescence fast-forward.
    pub skipped_rounds: u64,
    /// Behavior polls actually executed — the round loop's per-round cost
    /// denominator ([`nochatter_sim::RunOutcome::polled_agent_rounds`]:
    /// the executing agents due in each executed round). An execution
    /// fact that moves whenever the
    /// engine's execution strategy does, so it is kept out of the
    /// deterministic per-record report bytes (JSON and CSV) and surfaced
    /// only as a campaign-level trajectory aggregate.
    pub polled_agent_rounds: u64,
    /// Largest observed co-location.
    pub max_colocation: u32,
    /// The commonly elected leader, if the run gathered with one.
    pub leader: Option<u64>,
    /// The common gathering node, if the run gathered.
    pub node: Option<u32>,
    /// The commonly declared size, if any.
    pub size: Option<u32>,
    /// FNV-1a digest of the execution trace (gather variants only).
    pub trace_digest: Option<u64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a digest over arbitrary bytes (used for key-derived seeds).
pub(crate) fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The 64-bit FNV-1a digest of a run's event trace: [`Trace::digest`].
// Shim for perfbench/; the next benchmark change deletes it.
#[doc(hidden)]
pub fn trace_digest(trace: &Trace) -> u64 {
    trace.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ScenarioKey {
        ScenarioKey {
            family: "ring".into(),
            n: 6,
            team: vec![2, 3, 9],
            wake: "simul".into(),
            topo: "static".into(),
            fault: "none".into(),
            mode: "silent".into(),
            variant: "gather".into(),
            rep: 0,
        }
    }

    #[test]
    fn canonical_form_is_stable() {
        assert_eq!(key().canonical(), "ring/n6/t2.3.9/wsimul/silent/gather/r0");
        assert_eq!(key().to_string(), key().canonical());
    }

    #[test]
    fn canonical_form_inserts_a_dynamism_segment_only_when_dynamic() {
        // Static keys render exactly as before the dynamism axis existed —
        // that is what keeps the golden smoke report byte-identical.
        let mut k = key();
        k.topo = "dring@7".into();
        assert_eq!(
            k.canonical(),
            "ring/n6/t2.3.9/wsimul/dring@7/silent/gather/r0"
        );
        // The instance sub-key excludes the execution axes, dynamism
        // included: a dynamic cell shares its seed (and graph) with its
        // static twin.
        assert_eq!(k.instance_canonical(), key().instance_canonical());
    }

    #[test]
    fn canonical_form_inserts_a_fault_segment_only_when_faulty() {
        // Fault-free keys render exactly as before the fault axis existed
        // — the same rule that keeps the golden smoke report
        // byte-identical.
        let mut k = key();
        k.fault = "crash3@64".into();
        assert_eq!(
            k.canonical(),
            "ring/n6/t2.3.9/wsimul/crash3@64/silent/gather/r0"
        );
        // A faulty dynamic cell renders both segments, dynamism first.
        k.topo = "dring@7".into();
        assert_eq!(
            k.canonical(),
            "ring/n6/t2.3.9/wsimul/dring@7/crash3@64/silent/gather/r0"
        );
        // The instance sub-key excludes the fault axis: a faulty cell
        // shares its seed (and graph) with its fault-free twin.
        assert_eq!(k.instance_canonical(), key().instance_canonical());
    }

    #[test]
    fn key_order_groups_by_family_then_size() {
        let mut a = key();
        a.family = "path".into();
        let mut b = key();
        b.n = 4;
        let mut keys = vec![key(), a.clone(), b.clone()];
        keys.sort();
        assert_eq!(keys, vec![a, b, key()]);
    }

    #[test]
    fn digest_distinguishes_traces() {
        use nochatter_core::{harness, CommMode};
        use nochatter_graph::{generators, InitialConfiguration, Label, NodeId};
        use nochatter_sim::WakeSchedule;

        let cfg = InitialConfiguration::new(
            generators::ring(4),
            vec![
                (Label::new(2).unwrap(), NodeId::new(0)),
                (Label::new(3).unwrap(), NodeId::new(2)),
            ],
        )
        .unwrap();
        let run = |schedule| {
            harness::run_scenario(
                &cfg,
                CommMode::Silent,
                schedule,
                &nochatter_sim::TopologySpec::Static,
                &nochatter_sim::FaultSpec::None,
                7,
                Some(Trace::with_capacity(4096)),
            )
            .unwrap()
            .trace
            .unwrap()
        };
        let simul = run(WakeSchedule::Simultaneous);
        let first = run(WakeSchedule::FirstOnly);
        // Same inputs → same digest; different schedules → different trace.
        assert_eq!(simul.digest(), run(WakeSchedule::Simultaneous).digest());
        assert_ne!(simul.digest(), first.digest());
    }

    #[test]
    fn fnv_bytes_matches_reference_vector() {
        // Standard FNV-1a test vector: empty input hashes to the offset.
        assert_eq!(fnv_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
