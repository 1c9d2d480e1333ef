//! `parapage experiments`: the experiment index (DESIGN.md §5, E1–E16),
//! the stand-in for the paper's tables, as one verdict matrix.
//!
//! Each cell `eN` renders the experiment's text and checks the shape its
//! claim predicts on the numbers that text shows
//! ([`parapage_bench::experiments`]). All cells run before anything
//! prints. `--cells SUBSTR[,..]` keeps the cells whose label (`e4/det-par`)
//! contains a substring (`e1/` selects E1 alone, since `e1` also matches
//! e10–e16) and fails with empty stdout when it keeps none. `--quick`
//! shrinks every sweep, `--seed N` re-seeds (default `0xC0FFEE`), and
//! `--out DIR` writes each cell's text to `DIR/eN.txt` instead of
//! printing it. Exits non-zero when a claim fails.

use std::path::Path;

use parapage::conform::matrix::{CellFilter, Totals};
use parapage_bench::experiments::{matrix, Opts, DEFAULT_SEED};

use crate::args::Args;

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let opts = Opts {
        quick: args.flag("quick"),
        seed: args.get("seed", DEFAULT_SEED)?,
    };
    let out = args.opt("out");
    let filter = CellFilter::parse(args.opt("cells").as_deref());
    args.finish()?;
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    }
    let m = matrix(&filter, opts);
    let mut totals = Totals::default();
    totals.add(&m);
    totals.require_cells(&filter)?;
    for c in &m.cells {
        let Ok(r) = &c.outcome else { continue };
        match &out {
            Some(dir) => {
                let path = Path::new(dir).join(format!("{}.txt", c.key[0]));
                std::fs::write(&path, &r.text)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
            None => print!("{}\n\n", r.text.trim_end()),
        }
    }
    let quick = if opts.quick { ", quick" } else { "" };
    print!(
        "\nexperiment claims (seed {:#x}{quick}):\n{}",
        opts.seed,
        m.render()
    );
    println!("{}", totals.verdict("experiments", "hold their claims")?);
    Ok(())
}
