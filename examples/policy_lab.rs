//! Policy lab tour: train the RL backend, then race all three capping
//! policies on the same budget-tight fleet and print the frontier.
//!
//! Run with `cargo run --example policy_lab --release`.

use capsim::prelude::*;

fn main() {
    println!("== training the tabular-RL backend (deterministic, seed 42)");
    let trained = train_rl(&RlTrainConfig::quick(42));
    println!(
        "   {} episodes, best #{}, {} Q-updates, digest {:016x}",
        trained.episodes.len(),
        trained.best_episode,
        trained.updates,
        trained.q_digest
    );

    let specs = [
        CapPolicySpec::default(),
        CapPolicySpec::Governor(GovernorConfig::default()),
        CapPolicySpec::Rl(trained.q.clone()),
    ];

    println!("\n== frontier: 4 nodes x 8 epochs at 120 W/node, identical seeds");
    println!("   {:<10} {:>12} {:>14} {:>10}", "policy", "energy (J)", "freq (MHz)", "wall (ms)");
    for spec in &specs {
        let report = FleetBuilder::new()
            .nodes(4)
            .epochs(8)
            .budget_w(480.0)
            .seed(7)
            .cap_policy(spec.build())
            .build()
            .run();
        let energy: f64 = report.summaries.iter().map(|s| s.energy_j).sum();
        let freq =
            report.summaries.iter().map(|s| s.avg_freq_mhz).sum::<f64>() / report.nodes as f64;
        let wall = report.summaries.iter().map(|s| s.wall_s).fold(0.0, f64::max);
        println!("   {:<10} {energy:>12.4} {freq:>14.0} {:>10.3}", spec.name(), wall * 1e3);
    }

    println!("\n== same fleet, observed: what a policy plan looks like");
    let report = FleetBuilder::new()
        .nodes(2)
        .epochs(2)
        .budget_w(240.0)
        .seed(7)
        .observe(true)
        .cap_policy(CapPolicySpec::Governor(GovernorConfig::default()).build())
        .build()
        .run();
    let obs = report.obs.expect("observed run");
    for e in obs.events.iter().filter(|e| matches!(e.kind, EventKind::PolicyPlan { .. })) {
        println!("   {}", e.to_json());
    }
}
