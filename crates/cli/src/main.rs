//! `parapage` — command-line interface to the parallel paging simulators.
//!
//! ```text
//! parapage run         --policy det-par --p 8 --k 128 --workload mixed [--gantt]
//! parapage compare     --p 8 --k 128 --workload skewed
//! parapage adversarial --p 32 --k 128 [--alpha 0.05]
//! parapage bench       [--quick] [--threads N] [--out BENCH_5.json]
//! parapage experiments [--cells e4] [--quick] [--out experiment_logs]
//! parapage faults      --policy det-par --p 8 --k 128 --workload mixed
//! parapage green       --p 8 --k 64 --workload mixed [--seeds 8]
//! parapage analyze     --trace FILE [--max-cap 256]
//! parapage gen         --workload mixed --p 8 --k 128 --out FILE
//! parapage serve       [--addr 127.0.0.1:7717] [--max-tenants 64]
//! parapage drive       [--requests 100000] [--tenants 4] [--expect-clean]
//! ```
//!
//! Every subcommand prints an aligned table; see `parapage help` for flags.

mod args;
mod commands;
mod common;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let parsed = match args::Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "run" => commands::run::exec(&parsed),
        "compare" => commands::compare::exec(&parsed),
        "adversarial" => commands::adversarial::exec(&parsed),
        "audit" => commands::audit::exec(&parsed),
        "bench" => commands::bench::exec(&parsed),
        "chaos" => commands::chaos::exec(&parsed),
        "conform" => commands::conform::exec(&parsed),
        "experiments" => commands::experiments::exec(&parsed),
        "faults" => commands::faults::exec(&parsed),
        "green" => commands::green::exec(&parsed),
        "profile" => commands::profile::exec(&parsed),
        "serve" => commands::serve::exec(&parsed),
        "drive" => commands::drive::exec(&parsed),
        "analyze" => commands::analyze::exec(&parsed),
        "gen" => commands::gen::exec(&parsed),
        "help" | "--help" | "-h" => parsed.finish().map(|()| println!("{}", commands::USAGE)),
        other => Err(format!("unknown command `{other}`\n{}", commands::USAGE)),
    };
    // Each command calls `finish` once it has read its flags and before
    // it does any work, so a mistyped flag never runs the command.
    debug_assert!(
        result.is_err() || parsed.finished(),
        "`{cmd}` never checked for unknown flags"
    );
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
