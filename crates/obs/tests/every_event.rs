//! Every `EventKind` variant, rendered through both exporters and pinned
//! byte for byte: the JSONL lines the goldens are made of and the CSV
//! detail column that `event_log_markdown` also prints.

use capsim_obs::{events_to_csv, events_to_jsonl, EventKind, EventLog, RungCause};

/// One instance of each of the 24 variants, in declaration order, with
/// fractional watts and node attribution on every other event.
fn every_variant() -> EventLog {
    let kinds = [
        EventKind::RungChange { from: 3, to: 4, cause: RungCause::OverCap, window_w: 151.25 },
        EventKind::ThrottleFloor { window_w: 124.0625 },
        EventKind::SelAppend { event: "power_limit_exceeded", datum: 140 },
        EventKind::DcmiSetLimit { limit_w: 118, correction_ms: 1000 },
        EventKind::DcmiGetLimit,
        EventKind::DcmiActivate { on: true },
        EventKind::Retry { attempts: 2 },
        EventKind::Timeout { attempts: 6 },
        EventKind::HealthChange { from: "healthy", to: "degraded" },
        EventKind::BudgetRealloc { epoch: 5, budget_w: 2160.5, answered: 15, caps_pushed: 3 },
        EventKind::Barrier { epoch: 5, answered: 15, unresponsive: 1, fleet_w: 1899.875 },
        EventKind::FaultInjected { fault: "sensor_dropout" },
        EventKind::FaultCleared { fault: "sensor_dropout" },
        EventKind::BmcCrash { dead_ms: 3000.0 },
        EventKind::WatchdogReboot { down_ms: 3000.5 },
        EventKind::FailsafeEngaged { reason: "implausible_reading", window_w: 0.0 },
        EventKind::FailsafeReleased,
        EventKind::CapViolation { cap_w: 120.0, window_w: 124.3 },
        EventKind::CapViolationEnded { cap_w: 120.0 },
        EventKind::PolicyPlan { policy: "ladder", epoch: 6, answered: 16, granted_w: 2047.75 },
        EventKind::FailoverRouted { epoch: 7, moved: 12, dropped: 1 },
        EventKind::RateAdjusted { multiplier: 0.7, cause: "timeouts" },
        EventKind::BreakerTransition { epoch: 8, from: "closed", to: "open" },
        EventKind::BrownoutShift { from_class: 2, to_class: 1, cause: "shed" },
    ];
    let mut log = EventLog::bounded(kinds.len());
    for (i, kind) in kinds.into_iter().enumerate() {
        let node = (i % 2 == 1).then_some(i as u32);
        log.record_for(i as f64 * 0.125, node, kind);
    }
    assert_eq!(log.dropped(), 0);
    log
}

#[test]
fn every_variant_renders_the_same_jsonl() {
    let want = r#"{"seq":0,"t_s":0,"node":null,"kind":"rung_change","from":3,"to":4,"cause":"over_cap","window_w":151.25}
{"seq":1,"t_s":0.125,"node":1,"kind":"throttle_floor","window_w":124.0625}
{"seq":2,"t_s":0.25,"node":null,"kind":"sel_append","event":"power_limit_exceeded","datum":140}
{"seq":3,"t_s":0.375,"node":3,"kind":"dcmi_set_limit","limit_w":118,"correction_ms":1000}
{"seq":4,"t_s":0.5,"node":null,"kind":"dcmi_get_limit"}
{"seq":5,"t_s":0.625,"node":5,"kind":"dcmi_activate","on":true}
{"seq":6,"t_s":0.75,"node":null,"kind":"retry","attempts":2}
{"seq":7,"t_s":0.875,"node":7,"kind":"timeout","attempts":6}
{"seq":8,"t_s":1,"node":null,"kind":"health_change","from":"healthy","to":"degraded"}
{"seq":9,"t_s":1.125,"node":9,"kind":"budget_realloc","epoch":5,"budget_w":2160.5,"answered":15,"caps_pushed":3}
{"seq":10,"t_s":1.25,"node":null,"kind":"barrier","epoch":5,"answered":15,"unresponsive":1,"fleet_w":1899.875}
{"seq":11,"t_s":1.375,"node":11,"kind":"fault_injected","fault":"sensor_dropout"}
{"seq":12,"t_s":1.5,"node":null,"kind":"fault_cleared","fault":"sensor_dropout"}
{"seq":13,"t_s":1.625,"node":13,"kind":"bmc_crash","dead_ms":3000}
{"seq":14,"t_s":1.75,"node":null,"kind":"watchdog_reboot","down_ms":3000.5}
{"seq":15,"t_s":1.875,"node":15,"kind":"failsafe_engaged","reason":"implausible_reading","window_w":0}
{"seq":16,"t_s":2,"node":null,"kind":"failsafe_released"}
{"seq":17,"t_s":2.125,"node":17,"kind":"cap_violation","cap_w":120,"window_w":124.3}
{"seq":18,"t_s":2.25,"node":null,"kind":"cap_violation_ended","cap_w":120}
{"seq":19,"t_s":2.375,"node":19,"kind":"policy_plan","policy":"ladder","epoch":6,"answered":16,"granted_w":2047.75}
{"seq":20,"t_s":2.5,"node":null,"kind":"failover_routed","epoch":7,"moved":12,"dropped":1}
{"seq":21,"t_s":2.625,"node":21,"kind":"rate_adjusted","multiplier":0.7,"cause":"timeouts"}
{"seq":22,"t_s":2.75,"node":null,"kind":"breaker_transition","epoch":8,"from":"closed","to":"open"}
{"seq":23,"t_s":2.875,"node":23,"kind":"brownout_shift","from_class":2,"to_class":1,"cause":"shed"}
"#;
    assert_eq!(events_to_jsonl(every_variant().iter()), want);
}

#[test]
fn every_variant_renders_the_same_csv() {
    let want = "seq,t_s,node,kind,detail
0,0,,rung_change,from=3;to=4;cause=over_cap;window_w=151.25
1,0.125,1,throttle_floor,window_w=124.0625
2,0.25,,sel_append,event=power_limit_exceeded;datum=140
3,0.375,3,dcmi_set_limit,limit_w=118;correction_ms=1000
4,0.5,,dcmi_get_limit,
5,0.625,5,dcmi_activate,on=true
6,0.75,,retry,attempts=2
7,0.875,7,timeout,attempts=6
8,1,,health_change,from=healthy;to=degraded
9,1.125,9,budget_realloc,epoch=5;budget_w=2160.5;answered=15;caps_pushed=3
10,1.25,,barrier,epoch=5;answered=15;unresponsive=1;fleet_w=1899.875
11,1.375,11,fault_injected,fault=sensor_dropout
12,1.5,,fault_cleared,fault=sensor_dropout
13,1.625,13,bmc_crash,dead_ms=3000
14,1.75,,watchdog_reboot,down_ms=3000.5
15,1.875,15,failsafe_engaged,reason=implausible_reading;window_w=0
16,2,,failsafe_released,
17,2.125,17,cap_violation,cap_w=120;window_w=124.3
18,2.25,,cap_violation_ended,cap_w=120
19,2.375,19,policy_plan,policy=ladder;epoch=6;answered=16;granted_w=2047.75
20,2.5,,failover_routed,epoch=7;moved=12;dropped=1
21,2.625,21,rate_adjusted,multiplier=0.7;cause=timeouts
22,2.75,,breaker_transition,epoch=8;from=closed;to=open
23,2.875,23,brownout_shift,from_class=2;to_class=1;cause=shed
";
    assert_eq!(events_to_csv(every_variant().iter()), want);
}
