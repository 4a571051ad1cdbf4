//! Drives the run-time reconfiguration scheduler with a reproducible
//! traffic mix on both systems and emits a machine-readable JSON
//! summary — the service-layer counterpart of the `tables` binary.
//!
//! ```text
//! service_scenario                   # both systems, default traffic
//! service_scenario --requests 96     # heavier run
//! service_scenario --json out.json   # write the summary to a file
//! ```

use rtr_bench::scenario::{self, ScenarioArgs};
use rtr_core::SystemKind;
use rtr_service::{Policy, Service, ServiceConfig, TrafficConfig};
use vp2_sim::{Json, SimTime};

fn main() {
    let args = ScenarioArgs::parse();
    let requests: usize = args.parsed_or("--requests", 48);
    let seed: u64 = args.parsed_or("--seed", 0x0007_AF1C_2026);
    let json_path = args.json_path();
    // One journal across both systems: the cost-model run of system i is
    // journaled as shard i (tracing changes no result — sim clock only).
    // Telemetry samples the same runs into the same shard-id space.
    let tracer = args.tracer();
    let telemetry = args.telemetry();

    let mut systems = Vec::new();
    for (sys_index, kind) in [SystemKind::Bit32, SystemKind::Bit64]
        .into_iter()
        .enumerate()
    {
        let traffic = TrafficConfig {
            seed,
            requests,
            kernels: Vec::new(),
            mean_gap: SimTime::from_us(20),
            burst_percent: 75,
            min_payload: 256,
            max_payload: 2048,
            ..TrafficConfig::default()
        }
        .generate();

        let mut policies = Vec::new();
        let mut makespans = Vec::new();
        for policy in [Policy::SwOnly, Policy::CostModel] {
            eprintln!("[service] {kind:?} / {policy:?}: {requests} requests...");
            let (trace, tl) = if policy == Policy::CostModel {
                (
                    tracer.with_shard(sys_index as u32),
                    telemetry.with_shard(sys_index as u32),
                )
            } else {
                (
                    rtr_trace::Tracer::disabled(),
                    rtr_telemetry::Telemetry::disabled(),
                )
            };
            let mut svc = Service::new(ServiceConfig {
                policy,
                trace,
                telemetry: tl,
                ..ServiceConfig::new(kind)
            });
            let snap = svc.process(&traffic).expect("generated traffic is sorted");
            assert_eq!(snap.verify_failures, 0, "responses must verify");
            makespans.push(snap.elapsed);
            let name = match policy {
                Policy::SwOnly => "sw_only",
                Policy::CostModel => "cost_model",
            };
            policies.push((name, snap));
        }

        let speedup = makespans[0].as_ps() as f64 / makespans[1].as_ps() as f64;
        let mut sys = Json::obj()
            .field("system", format!("{kind:?}"))
            .field("requests", requests)
            .field("seed", seed)
            .field("speedup_vs_sw_only", speedup);
        for (name, snap) in policies {
            sys = sys.field(name, snap.to_json());
        }
        systems.push(sys);
    }

    let summary = Json::obj().field("service_scenarios", Json::Arr(systems));
    scenario::emit("service", json_path.as_deref(), &summary);
    scenario::export("service", &args, &tracer, &telemetry);
}
