//! Criterion timing of the planning module: one full `plan()` per
//! case-study site, for the unbounded oracle and the bounded exhaustive
//! search, plus the bounded search on four worker threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_mail::spec::names::*;
use ps_mail::{mail_spec, mail_translator};
use ps_net::casestudy::default_case_study;
use ps_planner::{Algorithm, Planner, PlannerConfig, ServiceRequest};

fn bench_planning(c: &mut Criterion) {
    let cs = default_case_study();
    let translator = mail_translator();
    let mut group = c.benchmark_group("planner");
    group.sample_size(10);

    for (site, client, trust) in [
        ("NewYork", cs.ny_client, 4i64),
        ("SanDiego", cs.sd_client, 4),
        ("Seattle", cs.seattle_client, 1),
    ] {
        let request = ServiceRequest::new(CLIENT_INTERFACE, client)
            .rate(2.0)
            .pin(MAIL_SERVER, cs.mail_server)
            .origin(cs.mail_server)
            .require("TrustLevel", trust);
        for (name, algorithm) in [
            ("oracle", Algorithm::Oracle),
            ("exhaustive", Algorithm::Exhaustive),
        ] {
            let planner = Planner::with_config(
                mail_spec(),
                PlannerConfig {
                    algorithm,
                    ..Default::default()
                },
            );
            group.bench_with_input(BenchmarkId::new(name, site), &request, |b, request| {
                b.iter(|| {
                    planner
                        .plan(&cs.network, &translator, request)
                        .expect("feasible")
                        .objective_value
                })
            });
        }
        let planner = Planner::with_config(
            mail_spec(),
            PlannerConfig {
                threads: 4,
                ..Default::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exhaustive-parallel4", site),
            &request,
            |b, request| {
                b.iter(|| {
                    planner
                        .plan(&cs.network, &translator, request)
                        .expect("feasible")
                        .objective_value
                })
            },
        );
    }
    group.finish();
}

fn bench_linkage_enumeration(c: &mut Criterion) {
    let spec = mail_spec();
    c.bench_function("linkage_enumeration/mail", |b| {
        b.iter(|| {
            ps_planner::enumerate_linkages(
                &spec,
                "ClientInterface",
                &ps_planner::LinkageLimits::default(),
            )
            .len()
        })
    });
}

criterion_group!(benches, bench_planning, bench_linkage_enumeration);
criterion_main!(benches);
