//! The `.hsim` DSL and the lab wire resolve every name to the same plan.
//!
//! Clusters, workloads and execution environments are named in one table
//! each (`presets::NAMED`, `workloads::NAMED`, `Execution::NAMED`), and
//! both front ends resolve through them. For every canonical name and
//! alias, a one-run campaign script and a wire `plan` request that name
//! it must build equal [`PlanKey`]s, and the name must resolve back to
//! its canonical form.

use harborsim::hw::presets;
use harborsim::study::lab::wire::decode_request;
use harborsim::study::scenario::Execution;
use harborsim::study::{workloads, LabRequest, PlanKey};

/// One name choice per vocabulary; the other two stay at the defaults.
struct Names<'a> {
    cluster: &'a str,
    workload: &'a str,
    env: &'a str,
}

const DEFAULT: Names<'static> = Names {
    cluster: "lenox",
    workload: "cfd-small",
    env: "bare-metal",
};

fn dsl_key(n: &Names) -> PlanKey {
    let script = format!(
        "campaign \"names\" {{\n  cluster {}\n  workload {}\n  env {}\n  nodes 2\n  rpn 4\n}}\n",
        n.cluster, n.workload, n.env
    );
    let compiled =
        harborsim::study::script::compile_str(&script).unwrap_or_else(|e| panic!("{script}: {e}"));
    let run = &compiled.campaigns[0].runs[0];
    PlanKey::of(&run.scenario, None).expect("registry workloads are cacheable")
}

fn wire_key(n: &Names) -> PlanKey {
    let request = format!(
        r#"{{"v":1,"kind":"plan","scenario":{{"cluster":"{}","workload":"{}","env":"{}","nodes":2,"rpn":4,"tpr":1,"engine":{{"kind":"analytic"}},"deploy":false,"placement":"block","taper":null,"degraded":[],"shards":1,"open":null}}}}"#,
        n.cluster, n.workload, n.env
    );
    match decode_request(&request).unwrap_or_else(|e| panic!("{request}: {e}")) {
        LabRequest::Plan { scenario } => {
            PlanKey::of(&scenario, None).expect("registry workloads are cacheable")
        }
        _ => panic!("a plan request decodes as a plan request"),
    }
}

fn assert_agree(n: &Names) {
    assert_eq!(
        dsl_key(n),
        wire_key(n),
        "cluster {}, workload {}, env {}",
        n.cluster,
        n.workload,
        n.env
    );
}

#[test]
fn every_cluster_name_and_alias_resolves_alike() {
    for (canonical, aliases, _) in presets::NAMED {
        for name in std::iter::once(canonical).chain(aliases.iter().copied()) {
            assert_agree(&Names {
                cluster: name,
                ..DEFAULT
            });
            let cluster = presets::by_name(name).expect("a table name resolves");
            assert_eq!(presets::name_of(&cluster), Some(canonical), "{name}");
        }
    }
}

#[test]
fn every_workload_name_resolves_alike() {
    for (name, _) in workloads::NAMED {
        assert_agree(&Names {
            workload: name,
            ..DEFAULT
        });
        let case = workloads::by_name(name).expect("a table name resolves");
        assert_eq!(workloads::name_of(case.as_ref()), Some(name));
    }
}

#[test]
fn every_environment_name_resolves_alike() {
    for (name, env) in Execution::NAMED {
        assert_agree(&Names {
            env: name,
            ..DEFAULT
        });
        assert_eq!(Execution::by_name(name), Some(env));
        assert_eq!(env.name(), Some(name));
    }
}

#[test]
fn distinct_names_build_distinct_keys() {
    // the tables do not alias two canonical names to one preset
    let clusters: Vec<PlanKey> = presets::NAMED
        .iter()
        .map(|&(cluster, _, _)| dsl_key(&Names { cluster, ..DEFAULT }))
        .collect();
    let workloads: Vec<PlanKey> = workloads::NAMED
        .iter()
        .map(|&(workload, _)| {
            dsl_key(&Names {
                workload,
                ..DEFAULT
            })
        })
        .collect();
    let envs: Vec<PlanKey> = Execution::NAMED
        .iter()
        .map(|&(env, _)| dsl_key(&Names { env, ..DEFAULT }))
        .collect();
    for keys in [clusters, workloads, envs] {
        for (i, a) in keys.iter().enumerate() {
            assert!(keys[i + 1..].iter().all(|b| a != b), "{a:?}");
        }
    }
}
