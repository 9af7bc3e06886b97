//! Layer-discipline lock: the policy layer must stay a pure decision
//! table over `netstack` vocabulary (`ServiceClass`, scheme flags). The
//! moment a policy file names the signaling or datapath layers, an actor
//! type, or the simulator, a policy stops being a table you can read
//! against the thesis — so this test greps the sources and fails the
//! build instead.
//!
//! Deliberately a source scan, not a compile-time check: `use`-less
//! fully-qualified paths (`crate::datapath::…`) would slip past any
//! import-based lint, and a dev-dependency cycle would defeat a
//! link-time one.

use std::fs;
use std::path::Path;

/// Substrings no file under `src/policy/` may contain.
const FORBIDDEN: &[&str] = &[
    // Upper layers of this crate.
    "signaling",
    "datapath",
    "crate::ar",
    "soft_state",
    // Actor / simulator vocabulary.
    "NetCtx",
    "RadioWorld",
    "fh_sim",
    "fh_wireless",
    "BufferPool",
];

#[test]
fn policy_layer_depends_only_on_netstack_types() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/policy");
    let mut checked = 0;
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("src/policy must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    for path in entries {
        let source = fs::read_to_string(&path).expect("readable policy source");
        for needle in FORBIDDEN {
            for (i, line) in source.lines().enumerate() {
                // Prose may name the architecture; code may not.
                if line.trim_start().starts_with("//") {
                    continue;
                }
                assert!(
                    !line.contains(needle),
                    "{}:{}: policy layer must not reference `{needle}` \
                     (policies are pure tables; packet movement belongs to \
                     the datapath, session state to signaling):\n    {line}",
                    path.display(),
                    i + 1,
                );
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 2,
        "expected mod.rs and matrix.rs under src/policy, saw {checked}"
    );
}
