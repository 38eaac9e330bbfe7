//! Property tests for the hierarchical budget allocator: Σ child budgets
//! ≤ parent budget at every tree level, allocation monotone in the total
//! budget, and agreement with flat uniform-floor water-filling (the
//! [`water_fill`] oracle below) on a depth-1 tree.

use capgpu_fleet::prelude::*;
use capgpu_fleet::topology::water_fill_floors;
use proptest::prelude::*;

/// Flat max–min water-filling with one uniform floor — the reference a
/// depth-1 tree must reproduce. Every member first gets
/// `min(floor, budget/n)`; the remainder iteratively satisfies the
/// smallest unmet demand; any surplus is spread evenly.
fn water_fill(demands: &[f64], budget: f64, floor: f64) -> Vec<f64> {
    let n = demands.len();
    if n == 0 {
        return vec![];
    }
    let mut alloc = vec![floor.max(0.0).min(budget / n as f64); n];
    let mut remaining = budget - alloc.iter().sum::<f64>();
    let mut unmet: Vec<usize> = (0..n).filter(|&i| demands[i] > alloc[i]).collect();
    while remaining > 1e-9 && !unmet.is_empty() {
        let share = remaining / unmet.len() as f64;
        let mut consumed = 0.0;
        let mut still_unmet = Vec::with_capacity(unmet.len());
        for &i in &unmet {
            let take = (demands[i] - alloc[i]).min(share);
            alloc[i] += take;
            consumed += take;
            if demands[i] > alloc[i] + 1e-12 {
                still_unmet.push(i);
            }
        }
        remaining -= consumed;
        if consumed <= 1e-12 {
            break;
        }
        unmet = still_unmet;
    }
    if remaining > 1e-9 {
        let share = remaining / n as f64;
        for a in alloc.iter_mut() {
            *a += share;
        }
    }
    alloc
}

#[test]
fn water_fill_floors_matches_uniform_floor_water_fill() {
    let demands = [500.0, 800.0, 1200.0];
    let flat = water_fill(&demands, 2000.0, 100.0);
    let tree = water_fill_floors(&demands, &[100.0; 3], 2000.0);
    for (a, b) in flat.iter().zip(tree.iter()) {
        assert!((a - b).abs() < 1e-9, "flat {a} vs floors {b}");
    }
}

#[test]
fn water_fill_floors_conserves_budget_and_fills_small_demands_first() {
    let alloc = water_fill_floors(&[500.0, 800.0, 1200.0], &[100.0; 3], 2000.0);
    assert!((alloc.iter().sum::<f64>() - 2000.0).abs() < 1e-9);
    assert!((alloc[0] - 500.0).abs() < 1e-9);
    let alloc = water_fill_floors(&[300.0, 900.0], &[0.0; 2], 1000.0);
    assert!((alloc[0] - 300.0).abs() < 1e-9);
    assert!((alloc[1] - 700.0).abs() < 1e-9);
}

#[test]
fn water_fill_floors_spreads_surplus_and_respects_floor() {
    let alloc = water_fill_floors(&[300.0, 300.0], &[0.0; 2], 1000.0);
    assert!((alloc[0] - 500.0).abs() < 1e-9);
    assert!((alloc[1] - 500.0).abs() < 1e-9);
    let alloc = water_fill_floors(&[0.0, 1000.0], &[200.0; 2], 900.0);
    assert!(alloc[0] >= 200.0 - 1e-9);
    assert!((alloc.iter().sum::<f64>() - 900.0).abs() < 1e-9);
}

/// Builds a depth-3 datacenter (dc → row → rack → servers) from nested
/// rack sizes.
fn tree_from(rows: &[Vec<usize>]) -> FleetTopology {
    let children = rows
        .iter()
        .enumerate()
        .map(|(ri, racks)| Node::Group {
            label: format!("row-{ri}"),
            children: racks
                .iter()
                .enumerate()
                .map(|(ki, &n)| Node::Group {
                    label: format!("row-{ri}-rack-{ki}"),
                    children: (0..n)
                        .map(|_| {
                            Node::Server(ServerSpec {
                                class: 0,
                                streams: 1,
                            })
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect();
    FleetTopology::new(Node::Group {
        label: "dc".into(),
        children,
    })
    .expect("generated tree is valid")
}

fn shape() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(1usize..5, 1..4), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn child_budgets_never_exceed_parent_at_any_level(
        rows in shape(),
        budget in 0.0..20_000.0f64,
        seed_demands in prop::collection::vec(0.0..2_000.0f64, 64),
        seed_floors in prop::collection::vec(0.0..400.0f64, 64),
    ) {
        let t = tree_from(&rows);
        let n = t.len();
        let demands: Vec<f64> = (0..n).map(|i| seed_demands[i % 64]).collect();
        let floors: Vec<f64> = (0..n).map(|i| seed_floors[i % 64]).collect();
        let d = t.divide(budget, &demands, &floors);
        prop_assert!(
            d.max_child_sum_violation() < 1e-6,
            "violation {}",
            d.max_child_sum_violation()
        );
        // Conservation at the root: the whole budget lands on servers.
        let total: f64 = d.server_allocs.iter().sum();
        prop_assert!(
            (total - budget.max(0.0)).abs() < 1e-6 * budget.max(1.0),
            "allocated {total} of {budget}"
        );
        prop_assert!(d.server_allocs.iter().all(|a| *a >= -1e-9));
    }

    #[test]
    fn allocation_is_monotone_in_total_budget(
        rows in shape(),
        lo_budget in 100.0..10_000.0f64,
        extra in 0.0..10_000.0f64,
        seed_demands in prop::collection::vec(0.0..2_000.0f64, 64),
        seed_floors in prop::collection::vec(0.0..400.0f64, 64),
    ) {
        let t = tree_from(&rows);
        let n = t.len();
        let demands: Vec<f64> = (0..n).map(|i| seed_demands[i % 64]).collect();
        let floors: Vec<f64> = (0..n).map(|i| seed_floors[i % 64]).collect();
        let small = t.divide(lo_budget, &demands, &floors);
        let large = t.divide(lo_budget + extra, &demands, &floors);
        for (i, (a, b)) in small
            .server_allocs
            .iter()
            .zip(large.server_allocs.iter())
            .enumerate()
        {
            prop_assert!(
                *b >= *a - 1e-7,
                "server {i}: alloc fell {a} -> {b} when budget rose"
            );
        }
    }

    #[test]
    fn depth_one_tree_matches_flat_rack_water_fill(
        demands in prop::collection::vec(0.0..2_000.0f64, 1..12),
        budget in 0.1..20_000.0f64,
        floor in 0.0..300.0f64,
    ) {
        let t = FleetTopology::new(Node::Group {
            label: "rack".into(),
            children: demands
                .iter()
                .map(|_| Node::Server(ServerSpec { class: 0, streams: 1 }))
                .collect(),
        })
        .expect("flat tree");
        let floors = vec![floor; demands.len()];
        let tree = t.divide(budget, &demands, &floors);
        let flat = water_fill(&demands, budget, floor);
        for (i, (a, b)) in tree.server_allocs.iter().zip(flat.iter()).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-6,
                "server {i}: tree {a} vs flat rack {b}"
            );
        }
    }

    #[test]
    fn water_fill_floors_grants_floors_and_caps_at_demand(
        demands in prop::collection::vec(0.0..1_000.0f64, 1..10),
        floors in prop::collection::vec(0.0..200.0f64, 10),
        budget in 0.0..15_000.0f64,
    ) {
        let n = demands.len();
        let floors = &floors[..n];
        let alloc = water_fill_floors(&demands, floors, budget);
        let floor_sum: f64 = floors.iter().sum();
        if budget >= floor_sum {
            // Affordable floors are always granted in full.
            for i in 0..n {
                prop_assert!(alloc[i] >= floors[i] - 1e-9);
            }
        }
        // Nobody sits above max(floor, demand) while another member's
        // demand is unmet (max–min fairness).
        let any_unmet = (0..n).any(|i| alloc[i] + 1e-6 < demands[i].max(floors[i]));
        if any_unmet {
            for i in 0..n {
                prop_assert!(
                    alloc[i] <= demands[i].max(floors[i]) + 1e-6,
                    "server {i} overfed at {} (demand {}, floor {}) while others starve",
                    alloc[i], demands[i], floors[i]
                );
            }
        }
    }
}
