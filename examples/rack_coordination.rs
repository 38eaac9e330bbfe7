//! Rack-level power coordination (extension beyond the paper, after the
//! SHIP/Dynamo lineage in its related work): two CapGPU servers share one
//! rack budget; the fleet allocator's max–min water-filling re-divides the
//! budget every epoch of a few control periods based on observed demand.
//! A one-rack `FleetTopology` is the flat rack coordinator.
//!
//! Run with: `cargo run --release --example rack_coordination`

use capgpu::config::Scenario;
use capgpu_fleet::prelude::*;
use capgpu_workload::models;

fn main() {
    // Server A: heavy inference load on all three V100s.
    let heavy = Scenario::paper_testbed(51);
    // Server B: very light tasks — its GPUs are mostly idle.
    let mut light = Scenario::paper_testbed(52);
    for m in &mut light.gpu_models {
        *m = models::resnet50();
        m.e_min_s = 0.005;
    }
    let classes = [("heavy", heavy), ("light", light)].map(|(label, scenario)| ServerClass {
        label: label.into(),
        scenario,
        nominal_streams: 1,
    });
    let rack = FleetTopology::new(Node::Group {
        label: "rack".into(),
        children: (0..classes.len())
            .map(|class| Node::Server(ServerSpec { class, streams: 1 }))
            .collect(),
    })
    .expect("topology");

    let budget = 1900.0;
    let mut sim = FleetSim::new(
        rack,
        &classes,
        FleetConfig {
            epochs: 1,
            epoch_periods: 8,
            migration: None,
            min_share_watts: 700.0,
            ..FleetConfig::new(budget)
        },
    )
    .expect("fleet");

    println!("rack budget: {budget:.0} W across {} servers\n", sim.len());
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "epoch", "A assigned", "A measured", "B assigned", "B measured", "rack total"
    );
    // One epoch per `run`: the simulator carries every server's state
    // across calls, so the per-server stats trace the rebalancing.
    let mut last = Vec::new();
    for e in 0..6 {
        let report = sim.run(1).expect("run");
        let epoch = &report.epochs[0];
        let s = &report.stats;
        println!(
            "{e:>5} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            s[0].assigned,
            s[0].measured,
            s[1].assigned,
            s[1].measured,
            epoch.measured_watts()
        );
        assert!(
            epoch.assigned_watts() <= budget + 1e-6,
            "rack over-assigned"
        );
        last = report.stats;
    }
    assert!(last[0].assigned > last[1].assigned);
    println!(
        "\nThe allocator moved {:.0} W from the idle server to the busy one\nwhile never assigning more than the rack budget ✓",
        last[0].assigned - budget / 2.0
    );
}
