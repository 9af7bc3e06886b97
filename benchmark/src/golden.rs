//! What the reference inputs must produce, byte for byte.
//!
//! The repo's golden files are compiled in, so a checkout that lacks them
//! does not build, and the benchmark reads nothing but its own checkout at
//! run time. Event counts and the metro artifact fingerprints have no file
//! of their own in `tests/golden/`; they are pinned here.

#![forbid(unsafe_code)]

use crate::workloads::Workload;

/// Everything a verification pass compares against. Tests build a tampered
/// copy to show that a mismatch becomes a failed operation.
#[derive(Debug, Clone)]
pub struct Golden {
    /// `repro` stdout at the reference seed (all 18 figures).
    pub repro_stdout: String,
    /// `storm_timeline(&TIMELINE_SIZES, 2003, _)` Chrome trace.
    pub timeline_json: String,
    /// Simulator events of one pass on the reference inputs, per workload
    /// in [`Workload::ALL`] order.
    pub events: [u64; 6],
    /// Fingerprint of the metro artifact on the reference inputs
    /// (`metro_10k_d4`, `metro_50k_d1`).
    pub metro_artifact: [u64; 2],
}

impl Golden {
    /// The values this commit's simulator produces.
    pub fn committed() -> Self {
        Golden {
            repro_stdout: include_str!("../../tests/golden/repro_stdout.txt").to_owned(),
            timeline_json: include_str!("../../tests/golden/timeline.json").to_owned(),
            events: [
                2_412_855, 6_715_011, 3_287_016, 500_598, 1_961_792, 1_594_556,
            ],
            metro_artifact: [0x64af_bbd6_5b5d_e2d2, 0xcfa4_03b2_9dbe_d6b9],
        }
    }

    /// Expected events of one pass of `w` on the reference inputs.
    pub fn events_of(&self, w: Workload) -> u64 {
        self.events[w as usize]
    }

    /// Expected artifact fingerprint of a metro workload on the reference
    /// inputs (`None` for the others).
    pub fn metro_artifact_of(&self, w: Workload) -> Option<u64> {
        match w {
            Workload::Metro10kD4 => Some(self.metro_artifact[0]),
            Workload::Metro50kD1 => Some(self.metro_artifact[1]),
            _ => None,
        }
    }

    /// The `==== fig4.2 ====` block of the golden stdout: the table text
    /// `fh_bench::fig4_2` must render.
    pub fn fig42_block(&self) -> Option<&str> {
        let start = self.repro_stdout.find("==== fig4.2 ====\n")? + "==== fig4.2 ====\n".len();
        let len = self.repro_stdout[start..].find("\n==== ")?;
        Some(&self.repro_stdout[start..start + len])
    }

    /// Drops of the DUAL scheme at 20 hosts: the golden row the harness-built
    /// reference point must reproduce.
    pub fn fig42_dual_20(&self) -> Option<u64> {
        let row = self.fig42_block()?.lines().last()?;
        let mut cells = row.split_whitespace();
        (cells.next()? == "20").then_some(())?;
        cells.nth(2)?.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig42_block_is_the_first_table() {
        let g = Golden::committed();
        let block = g.fig42_block().expect("block present");
        assert!(block.starts_with("Fig 4.2"), "{block}");
        assert!(block.ends_with("211\n"), "{block:?}");
        assert_eq!(block.lines().count(), 22);
        assert_eq!(g.fig42_dual_20(), Some(131));
    }
}
