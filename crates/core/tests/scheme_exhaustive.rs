//! `Scheme::ALL`-driven exhaustiveness: every scheme variant resolves to
//! a working engine under a label of its own. Adding a variant without
//! its label fails here by name instead of deep inside a scenario.

use fh_core::policy::PolicyEngine;
use fh_core::Scheme;

#[test]
fn every_scheme_resolves_to_a_distinct_engine_and_label() {
    let mut engines = Vec::new();
    let mut labels = Vec::new();
    for scheme in Scheme::ALL {
        // for_scheme must not panic, and no two schemes share an engine.
        let engine = PolicyEngine::for_scheme(scheme);
        assert!(!engines.contains(&engine), "{scheme:?} shares an engine");
        engines.push(engine);
        let label = scheme.label();
        assert!(!labels.contains(&label), "duplicate scheme label {label:?}");
        labels.push(label);
    }
    assert_eq!(labels.len(), Scheme::ALL.len());
}
