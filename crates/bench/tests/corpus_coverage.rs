//! The compiled-in plan corpus must keep sweeping every scheme: both
//! all-scheme ladder plans (`scheme_ladder.toml` on the classic WLAN
//! storm, `vertical.toml` on the WLAN→cellular walk) list each
//! [`Scheme::ALL`] variant, so a new scheme cannot ship without corpus
//! coverage on both topologies.

use fh_core::Scheme;
use fh_scenarios::plan::corpus_plan;

#[test]
fn all_scheme_plans_cover_every_scheme() {
    for path in ["plans/scheme_ladder.toml", "plans/vertical.toml"] {
        let plan = corpus_plan(path);
        for scheme in Scheme::ALL {
            assert!(
                plan.schemes.contains(&scheme),
                "{path} does not sweep {scheme:?} ({})",
                scheme.label()
            );
        }
        assert_eq!(
            plan.schemes.len(),
            Scheme::ALL.len(),
            "{path} sweeps something Scheme::ALL does not know"
        );
    }
}

#[test]
fn vertical_plan_is_locked_and_heterogeneous() {
    let plan = corpus_plan("plans/vertical.toml");
    assert!(
        plan.expectations.artifact_fnv1a.is_some(),
        "vertical.toml must stay hash-locked"
    );
    let cell = plan
        .topology
        .cellular
        .expect("vertical.toml crosses technologies");
    assert!(cell.radius > 0.0);
    assert_eq!(plan.topology.interfaces, 2, "make-before-break needs 2");
}
