//! Gathering with *zero* prior knowledge: no size bound, no map, nothing.
//!
//! Two software agents land in a network they know absolutely nothing
//! about. They share only the algorithm and a fixed enumeration of
//! candidate initial configurations (paper §4). They test hypotheses one
//! by one — the first two are wrong in different ways — until the true
//! configuration passes every movement-encoded consistency check, at which
//! point both agents declare, elect the smaller label, and know the exact
//! network size.
//!
//! Run with: `cargo run --release --example unknown_network`

use nochatter::core::unknown::{run_unknown, EstMode, SliceEnumeration};
use nochatter::graph::{generators, InitialConfiguration, Label, NodeId};
use nochatter::sim::WakeSchedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let label = |v: u64| Label::new(v).ok_or("labels are positive");

    // The real world: a 3-ring with agents 2 and 5 at distance 1.
    let truth = InitialConfiguration::new(
        generators::ring(3),
        vec![(label(2)?, NodeId::new(0)), (label(5)?, NodeId::new(1))],
    )?;

    // The shared enumeration Ω. φ1 has the right size but the wrong labels;
    // φ2 is the truth. (Every additional wrong hypothesis grows the ball
    // radii and the doubly-nested waiting periods — the algorithm is
    // exponential in the enumeration index, exactly as the paper states.)
    let phi1 = InitialConfiguration::new(
        generators::ring(3),
        vec![(label(1)?, NodeId::new(0)), (label(3)?, NodeId::new(1))],
    )?;
    let omega = SliceEnumeration::new(vec![phi1, truth.clone()]);

    println!("testing hypotheses (this algorithm is exponential by design)...");
    let (outcome, reports) = run_unknown(
        &truth,
        omega,
        EstMode::Conservative,
        WakeSchedule::Staggered { gap: 5 },
    )?;

    let report = outcome.gathering()?;
    println!(
        "gathered in round {} at {} — {} engine iterations, {} rounds fast-forwarded, \
         {} agent polls",
        report.round,
        report.node,
        outcome.engine_iterations,
        outcome.skipped_rounds,
        outcome.polled_agent_rounds
    );
    for (agent, r) in reports {
        let r = r.expect("all agents reported");
        println!(
            "agent {agent}: accepted hypothesis {} — leader {}, learned network size {}",
            r.hypothesis, r.leader, r.size
        );
        assert_eq!(r.hypothesis, 2, "only the true configuration passes");
        assert_eq!(r.size, 3, "Theorem 4.1: the exact size is learned");
    }
    Ok(())
}
