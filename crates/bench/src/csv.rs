//! CSV rendering of experiment results, for plotting.
//!
//! `repro --csv <figure>` emits the figure's series as comma-separated
//! values with a header row — ready for gnuplot/matplotlib — instead of
//! the human-readable table. Every writer goes through the shared
//! [`CsvTable`] builder from `fh-telemetry`, which enforces the column
//! discipline once instead of per figure.

use fh_core::Scheme;
use fh_scenarios::experiments::{self, BufferUtilizationParams, FIG_4_6_RATES};
use fh_scenarios::plan;
use fh_sim::SimDuration;
use fh_telemetry::{Cell, CsvTable};

use crate::params;

/// Fig 4.2 as CSV: `mhs,nar,par,dual,fh`.
#[must_use]
pub fn fig4_2_csv(threads: usize) -> String {
    let series =
        experiments::buffer_utilization(BufferUtilizationParams::default(), threads).series;
    let labels: Vec<String> = series.iter().map(|s| s.label.to_lowercase()).collect();
    let mut header: Vec<&str> = vec!["mhs"];
    header.extend(labels.iter().map(String::as_str));
    let mut table = CsvTable::new(&header);
    for i in 0..series[0].points.len() {
        let mut row: Vec<Cell<'_>> = vec![series[0].points[i].0.into()];
        row.extend(series.iter().map(|s| Cell::from(s.points[i].1)));
        table.row(&row);
    }
    table.finish()
}

/// Figs 4.3–4.5 as CSV: `handoff,f1_rt,f2_hp,f3_be` for the given scheme.
#[must_use]
pub fn qos_csv(scheme: Scheme, capacity: usize) -> String {
    let r = experiments::qos_drops(
        scheme,
        capacity,
        params::REQUEST,
        params::HANDOFFS,
        params::SEED,
    );
    let mut table = CsvTable::new(&["handoff", "f1_rt", "f2_hp", "f3_be"]);
    for h in 0..r.drops[0].len() {
        table.row(&[
            (h + 1).into(),
            r.drops[0][h].into(),
            r.drops[1][h].into(),
            r.drops[2][h].into(),
        ]);
    }
    table.finish()
}

/// Fig 4.6 as CSV: `kbps,f1_rt,f2_hp,f3_be`.
#[must_use]
pub fn fig4_6_csv(threads: usize) -> String {
    let r = experiments::rate_sweep(
        &FIG_4_6_RATES,
        params::PROPOSED_CAPACITY,
        params::REQUEST,
        params::SEED,
        threads,
    );
    let mut table = CsvTable::new(&["kbps", "f1_rt", "f2_hp", "f3_be"]);
    for (i, &rate) in r.rates_kbps.iter().enumerate() {
        table.row(&[
            rate.into(),
            r.drops[0][i].into(),
            r.drops[1][i].into(),
            r.drops[2][i].into(),
        ]);
    }
    table.finish()
}

/// Figs 4.7–4.10 as CSV: `seq,f1_rt_ms,f2_hp_ms,f3_be_ms` (empty cell =
/// packet lost).
#[must_use]
pub fn delay_csv(scheme: Scheme, capacity: usize, link_ms: u64) -> String {
    let r = experiments::delay_trace(
        scheme,
        capacity,
        params::REQUEST,
        SimDuration::from_millis(link_ms),
        params::SEED,
    );
    let mut table = CsvTable::new(&["seq", "f1_rt_ms", "f2_hp_ms", "f3_be_ms"]);
    let max_seq = r
        .series
        .iter()
        .flat_map(|s| s.iter().map(|&(seq, _)| seq))
        .max()
        .unwrap_or(0);
    for seq in 0..=max_seq {
        let mut row: Vec<Cell<'_>> = vec![seq.into()];
        for k in 0..3 {
            row.push(match r.series[k].iter().find(|&&(s, _)| s == seq) {
                Some(&(_, d)) => Cell::Fixed(d * 1e3, 3),
                None => Cell::Empty,
            });
        }
        table.row(&row);
    }
    table.finish()
}

/// Fig 4.14 as CSV: `t_s,buffered_mbps,unbuffered_mbps`.
#[must_use]
pub fn fig4_14_csv() -> String {
    let with = experiments::tcp_l2_handoff(true, params::SEED);
    let without = experiments::tcp_l2_handoff(false, params::SEED);
    let mut table = CsvTable::new(&["t_s", "buffered_mbps", "unbuffered_mbps"]);
    for (i, &(t, mbps)) in with.throughput.iter().enumerate() {
        let none = without.throughput.get(i).map_or(0.0, |&(_, m)| m);
        table.row(&[
            Cell::Fixed(t, 1),
            Cell::Fixed(mbps, 3),
            Cell::Fixed(none, 3),
        ]);
    }
    table.finish()
}

/// A corpus plan's artifact at its own seed, every expectation armed —
/// the artifact lock included, so these are the bytes under
/// `tests/golden/` or the call panics with the failure report.
fn corpus_artifact(file: &str, threads: usize) -> String {
    plan::run_plan(&plan::corpus_plan(file), threads)
        .expect_clean()
        .artifact
}

/// Chaos sweep as CSV (`plans/chaos.toml`): one row per injected loss
/// probability.
#[must_use]
pub fn chaos_csv(threads: usize) -> String {
    corpus_artifact("plans/chaos.toml", threads)
}

/// Storm sweep as CSV (`plans/storm.toml`): one row per storm size and
/// scheme. Every row's run passed the packet-conservation and
/// resource-leak audits, so these bytes double as the audit's green light.
#[must_use]
pub fn storm_csv(threads: usize) -> String {
    corpus_artifact("plans/storm.toml", threads)
}

/// The storm timeline as Chrome-trace JSON (`plans/timeline.toml`).
#[must_use]
pub fn timeline_json(threads: usize) -> String {
    corpus_artifact("plans/timeline.toml", threads)
}

/// A CSV writer: thread count in, rendered series out.
pub type CsvFn = fn(usize) -> String;

/// Every series `repro --csv` can print, by figure id. Sweep-shaped
/// writers fan their points across the given thread count (the bytes are
/// identical at any value); single-run writers ignore it.
pub const CSV_WRITERS: [(&str, CsvFn); 12] = [
    ("fig4.2", fig4_2_csv),
    ("fig4.3", |_| qos_csv(Scheme::NarOnly, params::FH_CAPACITY)),
    ("fig4.4", |_| {
        qos_csv(Scheme::Dual { classify: false }, params::PROPOSED_CAPACITY)
    }),
    ("fig4.5", |_| {
        qos_csv(Scheme::Dual { classify: true }, params::PROPOSED_CAPACITY)
    }),
    ("fig4.6", fig4_6_csv),
    ("fig4.7", |_| {
        delay_csv(Scheme::NarOnly, params::FH_CAPACITY, 2)
    }),
    ("fig4.8", |_| {
        delay_csv(
            Scheme::Dual { classify: false },
            params::PROPOSED_CAPACITY,
            2,
        )
    }),
    ("fig4.9", |_| {
        delay_csv(
            Scheme::Dual { classify: true },
            params::PROPOSED_CAPACITY,
            2,
        )
    }),
    ("fig4.10", |_| {
        delay_csv(
            Scheme::Dual { classify: true },
            params::PROPOSED_CAPACITY,
            50,
        )
    }),
    ("fig4.14", |_| fig4_14_csv()),
    ("chaos", chaos_csv),
    ("storm", storm_csv),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_2_csv_is_well_formed() {
        let csv = fig4_2_csv(2);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("mhs,nar,par,dual,fh"));
        let first = lines.next().expect("data row");
        assert_eq!(first.split(',').count(), 5);
        assert_eq!(csv.lines().count(), 21, "header + 20 rows");
    }
}
