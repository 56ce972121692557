//! Group power-budget allocation policies.
//!
//! Given a total budget and each node's current demand (its measured
//! power), a policy returns per-node caps in watts. All policies respect a
//! per-node floor — capping a node below its idle power is useless, as the
//! paper's Table II floor (~124 W vs the 120 W cap) demonstrates.
//!
//! This lived in `capsim-dcm` until the policy-layer extraction; the DCM
//! re-exports it unchanged, and [`crate::LadderCapPolicy`] wraps it as the
//! group-level half of the default backend.

/// How a group budget is divided across nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum AllocationPolicy {
    /// Everyone gets `budget / n`.
    Uniform,
    /// Caps proportional to current demand: busy nodes get more headroom.
    ProportionalToDemand,
    /// Nodes are served in priority order (lower number = higher
    /// priority): each gets its full demand until the budget runs out;
    /// the rest get the floor.
    ///
    /// The vector is indexed by position in the demand slice. A vector
    /// shorter than the group is padded with `u8::MAX` (lowest priority)
    /// and extra entries are ignored, so a fleet-wide table survives
    /// nodes joining or dropping out without panicking; ties keep input
    /// order (the sort is stable).
    Priority(Vec<u8>),
}

/// Compute per-node caps.
///
/// * `budget_w` — group budget.
/// * `demand_w` — current measured power per node.
/// * `floor_w` — minimum useful cap (≈ the node's throttle floor).
///
/// The returned caps sum to ≤ `max(budget_w, n × floor_w)`; if the budget
/// cannot cover the floors, every node gets the floor (the group is
/// over-committed, mirroring DCM's behaviour of throttling everything to
/// the bone and raising alerts).
pub fn allocate(
    policy: &AllocationPolicy,
    budget_w: f64,
    demand_w: &[f64],
    floor_w: f64,
) -> Vec<f64> {
    let n = demand_w.len();
    if n == 0 {
        return Vec::new();
    }
    let min_total = floor_w * n as f64;
    if budget_w <= min_total {
        return vec![floor_w; n];
    }
    match policy {
        AllocationPolicy::Uniform => vec![budget_w / n as f64; n],
        AllocationPolicy::ProportionalToDemand => {
            let total: f64 = demand_w.iter().sum();
            if total <= 0.0 {
                return vec![budget_w / n as f64; n];
            }
            // Proportional share, but never below the floor; the excess a
            // floored node frees up is redistributed proportionally.
            //
            // The floor redistribution is computed in closed form from
            // aggregate sums rather than by mutating caps in input order:
            //
            //   deficit  = n_f·floor − B·S_f/S   (shortfall of floored set)
            //   flexible = B·S_x/S − n_x·floor   (headroom above the floor)
            //   cap_i    = floor + (B·d_i/S − floor)·(flexible−deficit)/flexible
            //
            // where S is the total demand and (n_f, S_f)/(n_x, S_x) count
            // and sum the floored/flexible subsets. Each cap then depends
            // only on the node's own demand and whole-set aggregates —
            // with integer-valued demands (DCMI readings are whole watts,
            // and integer sums below 2^53 are exact in f64) the result is
            // identical no matter how a fleet gathers or orders the input.
            // That is the property the fleet barrier's determinism
            // contract leans on.
            let floored = |d: &f64| budget_w * d / total < floor_w;
            let n_f = demand_w.iter().filter(|d| floored(d)).count() as f64;
            let s_f: f64 = demand_w.iter().filter(|d| floored(d)).sum();
            let deficit = n_f * floor_w - budget_w * s_f / total;
            let flexible = budget_w * (total - s_f) / total - (n as f64 - n_f) * floor_w;
            let scale =
                if deficit > 0.0 && flexible > 0.0 { (flexible - deficit) / flexible } else { 1.0 };
            demand_w
                .iter()
                .map(|d| {
                    let raw = budget_w * d / total;
                    if raw < floor_w {
                        floor_w
                    } else if scale == 1.0 {
                        raw
                    } else {
                        floor_w + (raw - floor_w) * scale
                    }
                })
                .collect()
        }
        AllocationPolicy::Priority(prio) => {
            // Documented default for a short table: missing entries rank
            // last (`u8::MAX`); extra entries are ignored. Before the
            // policy-layer extraction this was an assert — a fleet whose
            // priority table lagged a node join aborted the barrier.
            let prio_of = |i: usize| prio.get(i).copied().unwrap_or(u8::MAX);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| prio_of(i));
            let mut caps = vec![floor_w; n];
            let mut remaining = budget_w - min_total;
            for &i in &order {
                let want = (demand_w[i] - floor_w).max(0.0) + 10.0; // headroom
                let grant = want.min(remaining);
                caps[i] = floor_w + grant;
                remaining -= grant;
            }
            // Whatever is left goes to the highest-priority node.
            if remaining > 0.0 {
                caps[order[0]] += remaining;
            }
            caps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOOR: f64 = 110.0;

    #[test]
    fn uniform_splits_evenly() {
        let caps = allocate(&AllocationPolicy::Uniform, 600.0, &[150.0, 120.0, 130.0], FLOOR);
        assert_eq!(caps, vec![200.0, 200.0, 200.0]);
    }

    #[test]
    fn proportional_gives_busy_nodes_more() {
        let caps = allocate(&AllocationPolicy::ProportionalToDemand, 300.0, &[160.0, 120.0], FLOOR);
        assert!(caps[0] > caps[1]);
        assert!((caps.iter().sum::<f64>() - 300.0).abs() < 1e-9);
        assert!(caps.iter().all(|&c| c >= FLOOR));
    }

    #[test]
    fn proportional_respects_the_floor() {
        let caps = allocate(&AllocationPolicy::ProportionalToDemand, 280.0, &[250.0, 20.0], FLOOR);
        assert!(caps[1] >= FLOOR);
        assert!((caps.iter().sum::<f64>() - 280.0).abs() < 1e-9);
    }

    #[test]
    fn priority_serves_high_priority_first() {
        let caps = allocate(
            &AllocationPolicy::Priority(vec![1, 0, 2]),
            360.0,
            &[155.0, 155.0, 155.0],
            FLOOR,
        );
        // Node 1 (priority 0) gets its demand + headroom first.
        assert!(caps[1] > caps[0]);
        assert!(caps[0] >= caps[2] - 1e-9);
        assert!(caps.iter().all(|&c| c >= FLOOR));
    }

    #[test]
    fn overcommitted_budget_floors_everyone() {
        let caps = allocate(&AllocationPolicy::Uniform, 100.0, &[150.0, 150.0], FLOOR);
        assert_eq!(caps, vec![FLOOR, FLOOR]);
    }

    #[test]
    fn empty_group_is_fine() {
        assert!(allocate(&AllocationPolicy::Uniform, 100.0, &[], FLOOR).is_empty());
    }

    #[test]
    fn short_priority_vector_ranks_missing_nodes_last() {
        // 3 nodes, table only covers the first: the uncovered nodes rank
        // last but still receive the floor, and nothing panics.
        let caps =
            allocate(&AllocationPolicy::Priority(vec![0]), 400.0, &[155.0, 155.0, 155.0], FLOOR);
        assert_eq!(caps.len(), 3);
        assert!(caps[0] > caps[1]);
        assert!(caps.iter().all(|&c| c >= FLOOR));
    }

    #[test]
    fn long_priority_vector_ignores_extra_entries() {
        let short =
            allocate(&AllocationPolicy::Priority(vec![1, 0]), 360.0, &[150.0, 150.0], FLOOR);
        let long =
            allocate(&AllocationPolicy::Priority(vec![1, 0, 9, 9]), 360.0, &[150.0, 150.0], FLOOR);
        assert_eq!(short, long);
    }

    #[test]
    fn duplicate_priorities_keep_input_order() {
        // Stable sort: equal priorities are served in node order, so the
        // allocation is deterministic.
        let a = allocate(&AllocationPolicy::Priority(vec![1, 1, 1]), 400.0, &[150.0; 3], FLOOR);
        let b = allocate(&AllocationPolicy::Priority(vec![1, 1, 1]), 400.0, &[150.0; 3], FLOOR);
        assert_eq!(a, b);
        assert!(a[0] >= a[1] && a[1] >= a[2]);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    const FLOOR: f64 = 110.0;

    fn any_policy() -> impl Strategy<Value = AllocationPolicy> {
        prop_oneof![
            Just(AllocationPolicy::Uniform),
            Just(AllocationPolicy::ProportionalToDemand),
            // Deliberately decoupled from the demand length: shorter,
            // longer and duplicate-laden tables must all be handled.
            proptest::collection::vec(0u8..8, 0..12).prop_map(AllocationPolicy::Priority),
        ]
    }

    proptest! {
        #[test]
        fn caps_respect_floor_and_budget(
            policy in any_policy(),
            budget_w in 0.0f64..4000.0,
            demand_w in proptest::collection::vec(0.0f64..400.0, 0..9),
        ) {
            let n = demand_w.len();
            let caps = allocate(&policy, budget_w, &demand_w, FLOOR);
            prop_assert_eq!(caps.len(), n);
            // Every cap sits at or above the floor.
            prop_assert!(caps.iter().all(|&c| c >= FLOOR - 1e-9));
            // When the budget covers the floors, the caps never overspend
            // it; when it cannot, everyone is floored.
            if budget_w > FLOOR * n as f64 {
                let sum: f64 = caps.iter().sum();
                prop_assert!(sum <= budget_w + 1e-6 * budget_w.max(1.0), "sum {sum} > {budget_w}");
            } else {
                prop_assert!(caps.iter().all(|&c| c == FLOOR));
            }
        }

        #[test]
        fn priority_never_panics_on_mismatched_tables(
            prio in proptest::collection::vec(any::<u8>(), 0..6),
            demand_w in proptest::collection::vec(0.0f64..400.0, 0..6),
            budget_w in 0.0f64..2000.0,
        ) {
            // Short, long and duplicate-heavy priority tables: the call
            // must return one cap per node, whatever the table length.
            let caps = allocate(&AllocationPolicy::Priority(prio), budget_w, &demand_w, FLOOR);
            prop_assert_eq!(caps.len(), demand_w.len());
        }
    }
}
