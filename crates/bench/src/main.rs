//! `repro` — regenerate every table and figure of the evaluation.
//!
//! ```sh
//! cargo run -p fh-bench --bin repro --release                   # everything
//! cargo run -p fh-bench --bin repro --release -- --threads 4    # parallel
//! cargo run -p fh-bench --bin repro --release -- fig4.2         # one figure
//! cargo run -p fh-bench --bin repro --release -- --csv fig4.2   # CSV series
//! cargo run -p fh-bench --bin repro --release -- --trace        # + timeline
//! ```
//!
//! `--trace` additionally writes `TRACE_timeline.json`, the storm runs'
//! Chrome-trace timeline (the bytes `plan plans/timeline.toml` prints) —
//! byte-identical at any `--threads` value, like everything else here.
//!
//! `--threads N` sizes the deterministic sweep worker pool (0 = one per
//! core, default 1). Figures fan out across the pool and each sweep
//! figure additionally fans its grid points, so stdout is **byte-identical
//! at any thread count** — results are printed in figure order after all
//! runs complete. Timing is not this binary's job: `benchmark/run.sh`
//! (`fh-perf`) measures the same figures.
//!
//! A figure filter selects by substring; a filter (or `--csv` name) that
//! matches nothing is an error that lists the valid names.

use std::env;
use std::io::{self, ErrorKind, Write as _};
use std::process::ExitCode;

use fh_bench::csv::{timeline_json, CsvFn, CSV_WRITERS};
use fh_bench::{FigureFn, FIGURES};
use fh_scenarios::sweep::resolve_threads;

/// The figures whose name contains any of `filters`, in print order; no
/// filter selects every figure.
///
/// # Errors
///
/// The message for stderr when some filter matches no figure.
fn select(filters: &[String]) -> Result<Vec<(&'static str, FigureFn)>, String> {
    let hit = |name: &str, filter: &String| name.contains(filter.as_str());
    if let Some(bad) = filters
        .iter()
        .find(|f| !FIGURES.iter().any(|(name, _)| hit(name, f)))
    {
        let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
        return Err(format!(
            "no figure matches `{bad}`; valid names: {}",
            names.join(" ")
        ));
    }
    Ok(FIGURES
        .iter()
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| hit(name, f)))
        .copied()
        .collect())
}

/// The writer of every `--csv` name, in the order given.
///
/// # Errors
///
/// The message for stderr when a name has no writer or none was given.
fn csv_writers(names: &[String]) -> Result<Vec<CsvFn>, String> {
    let valid = || {
        let names: Vec<&str> = CSV_WRITERS.iter().map(|&(name, _)| name).collect();
        format!("valid names: {}", names.join(" "))
    };
    if names.is_empty() {
        return Err(format!("--csv needs a figure; {}", valid()));
    }
    names
        .iter()
        .map(|wanted| {
            CSV_WRITERS
                .iter()
                .find(|(name, _)| name == wanted)
                .map(|&(_, write)| write)
                .ok_or_else(|| format!("no CSV writer for `{wanted}`; {}", valid()))
        })
        .collect()
}

/// Writes `text` to stdout through one locked handle. A reader that went
/// away (`repro | head`) is a clean stop, not an error.
fn emit(text: &str) -> io::Result<()> {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = env::args().skip(1).collect();

    let mut threads = 1usize;
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        args.remove(pos);
        let Some(n) = args.get(pos).and_then(|v| v.parse().ok()) else {
            return Err("--threads needs a number (0 = one per core)".to_owned());
        };
        threads = n;
        args.remove(pos);
    }
    let threads = resolve_threads(threads);

    let mut trace = false;
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        args.remove(pos);
        trace = true;
    }

    let text = if args.first().map(String::as_str) == Some("--csv") {
        let writers = csv_writers(&args[1..])?;
        writers.iter().map(|write| write(threads)).collect()
    } else {
        fh_bench::render(&select(&args)?, threads)
    };
    emit(&text).map_err(|e| format!("stdout: {e}"))?;

    // Stdout is untouched by `--trace`, so the figure tables stay
    // byte-identical with and without the flag.
    if trace {
        std::fs::write("TRACE_timeline.json", timeline_json(threads))
            .map_err(|e| format!("could not write TRACE_timeline.json: {e}"))?;
        eprintln!("wrote TRACE_timeline.json ({threads} threads)");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(filters: &[&str]) -> Result<Vec<&'static str>, String> {
        let filters: Vec<String> = filters.iter().map(|s| (*s).to_owned()).collect();
        select(&filters).map(|figs| figs.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn no_filter_selects_all_eighteen_in_print_order() {
        let all = names(&[]).expect("no filter is valid");
        assert_eq!(all.len(), 18);
        assert_eq!((all[0], all[17]), ("fig4.2", "chaos"));
    }

    #[test]
    fn filters_match_by_substring_and_keep_print_order() {
        assert_eq!(
            names(&["fig4.1"]).unwrap(),
            ["fig4.10", "fig4.12", "fig4.13", "fig4.14"]
        );
        assert_eq!(names(&["chaos", "fig4.2"]).unwrap(), ["fig4.2", "chaos"]);
    }

    #[test]
    fn a_filter_matching_nothing_is_an_error_listing_the_names() {
        let err = names(&["fig4.2", "fig9.9"]).unwrap_err();
        assert!(err.starts_with("no figure matches `fig9.9`"), "{err}");
        assert!(err.contains("fig4.14") && err.ends_with("chaos"), "{err}");
    }

    #[test]
    fn csv_names_are_exact_and_required() {
        let check = |names: &[&str]| {
            csv_writers(&names.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
        };
        assert_eq!(check(&["fig4.2", "storm"]).map(|w| w.len()), Ok(2));
        let err = check(&["fig4.1"]).unwrap_err();
        assert!(err.starts_with("no CSV writer for `fig4.1`"), "{err}");
        assert!(err.ends_with("chaos storm"), "{err}");
        assert!(check(&[]).unwrap_err().starts_with("--csv needs a figure"));
    }
}
