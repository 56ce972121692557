//! The pluggable-policy layer's acceptance gates.
//!
//! * Every backend — ladder, governor, tabular-RL — survives the scripted
//!   chaos scenario with all invariants green (the fault plans double as
//!   an adversarial policy eval).
//! * Offline RL training is replayable: same seed, same Q-table, same
//!   frozen-policy fleet, byte for byte.

use capsim::chaos::{check, ChaosScenario};
use capsim::prelude::*;

#[test]
fn every_backend_survives_scripted_chaos_with_invariants_green() {
    let trained = capsim::dcm::train_rl(&RlTrainConfig::quick(42));
    let specs = [
        CapPolicySpec::Ladder(AllocationPolicy::Uniform),
        CapPolicySpec::Governor(GovernorConfig::default()),
        CapPolicySpec::Rl(trained.q),
    ];
    for spec in specs {
        let name = spec.name();
        let report = check(&ChaosScenario::scripted().with_policy(spec));
        assert!(report.ok(), "{name}: violations: {:?}", report.violations);
    }
}

#[test]
fn rl_training_and_deployment_replay_byte_identically() {
    let a = capsim::dcm::train_rl(&RlTrainConfig::quick(9));
    let b = capsim::dcm::train_rl(&RlTrainConfig::quick(9));
    assert_eq!(a.q_digest, b.q_digest, "same seed, same table");
    assert_eq!(a.q, b.q);

    // Deploy each frozen table into identical fleets: same bytes out.
    let run = |q: QTable| {
        FleetBuilder::new()
            .nodes(3)
            .epochs(4)
            .budget_w(300.0)
            .seed(5)
            .cap_policy(Box::new(RlCapPolicy::frozen(q)))
            .build()
            .run()
            .render()
    };
    assert_eq!(run(a.q), run(b.q), "same table, same fleet bytes");
}
