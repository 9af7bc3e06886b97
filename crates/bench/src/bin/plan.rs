//! `plan` — the scenario-plan driver: run a TOML plan, the compiled-in
//! corpus, or a seeded fuzz battery.
//!
//! ```sh
//! # Run one plan file and print its artifact (CSV or Chrome-trace JSON).
//! cargo run -p fh-bench --release --bin plan -- crates/scenarios/plans/storm.toml --threads 4
//!
//! # Run the whole compiled-in corpus; one status line per plan.
//! cargo run -p fh-bench --release --bin plan -- --corpus --threads 4
//!
//! # Run 100 fuzzed plans derived from seed 7.
//! cargo run -p fh-bench --release --bin plan -- --fuzz 100 --seed 7
//! ```
//!
//! Every mode prints thread-invariant bytes — CI `cmp`s the corpus and
//! fuzz outputs across `--threads` values. Any expectation violation
//! (packet conservation, leaks, recorder wrap, per-class bounds,
//! artifact hash locks, cross-thread artifact divergence in fuzz mode)
//! prints a structured failure report on stderr and exits nonzero, as
//! does a malformed plan file.

use std::env;
use std::fs;
use std::process::ExitCode;

use fh_bench::planio;
use fh_scenarios::sweep::resolve_threads;

const USAGE: &str = "usage: plan <file.toml> | --corpus | --fuzz N  [--seed N] [--threads N]";

enum Mode {
    File(String),
    Corpus,
    Fuzz(u64),
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<(Mode, u64, usize), String> {
    let mut mode = None;
    let mut seed = 2003u64;
    let mut threads = 1usize;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let number = |a: Option<String>| a.and_then(|v| v.parse::<u64>().ok());
        match arg.as_str() {
            "--corpus" => mode = Some(Mode::Corpus),
            "--fuzz" => match number(args.next()) {
                Some(n) => mode = Some(Mode::Fuzz(n)),
                None => return Err("--fuzz needs a plan count".to_owned()),
            },
            "--seed" => match number(args.next()) {
                Some(v) => seed = v,
                None => return Err("--seed needs a number".to_owned()),
            },
            "--threads" => match number(args.next()) {
                Some(v) => threads = v as usize,
                None => return Err("--threads needs a number (0 = one per core)".to_owned()),
            },
            other if !other.starts_with('-') && mode.is_none() => {
                mode = Some(Mode::File(other.to_owned()));
            }
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    let mode = mode.ok_or_else(|| USAGE.to_owned())?;
    Ok((mode, seed, resolve_threads(threads)))
}

fn main() -> ExitCode {
    let (mode, seed, threads) = match parse(env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match mode {
        Mode::File(path) => match fs::read_to_string(&path) {
            Ok(toml) => planio::run_corpus_plan(&toml, &path, seed, threads),
            Err(e) => Err(format!("{path}: {e}\n")),
        },
        Mode::Corpus => planio::run_corpus(seed, threads),
        Mode::Fuzz(count) => planio::run_fuzz(count, seed, threads),
    };
    match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(report) => {
            eprint!("{report}");
            ExitCode::FAILURE
        }
    }
}
