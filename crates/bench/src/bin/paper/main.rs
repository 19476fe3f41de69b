//! The paper runner: every table and figure of the paper's §6 evaluation
//! (plus the extension study) as one registry of views over shared runs.
//!
//! Usage: `cargo run --release -p deepod-bench --bin paper -- <name>…|all
//! [quick|full]`, or `-- --list` for the entries. Each entry prints its
//! tables and writes one CSV per table under `results/`. A (dataset,
//! config, options) key trains once per process (see `runs.rs`), and the
//! runner reports how many runs it trained and reused. An unknown name
//! exits 78; a failed CSV write exits 1 after every entry has run.

mod curves;
mod ext;
mod methods;
mod runs;
mod sweeps;

use deepod_bench::{banner, config_fatal, Scale};
use deepod_eval::{write_csv, TextTable};
use runs::Runs;
use std::path::Path;

/// One table or figure: its name on the command line, a title, the CSVs
/// it writes and the view that builds their tables, in that order.
struct Entry {
    name: &'static str,
    title: &'static str,
    csvs: &'static [&'static str],
    view: fn(&mut Runs) -> Vec<TextTable>,
}

/// Every entry, in the paper's order.
const ENTRIES: [Entry; 14] = [
    Entry {
        name: "fig8",
        title: "Figure 8: hyper-parameter sweeps",
        csvs: &["fig8_hyperparams"],
        view: sweeps::fig8,
    },
    Entry {
        name: "fig9",
        title: "Figure 9: MAPE vs loss weight w",
        csvs: &["fig9_loss_weight"],
        view: sweeps::fig9,
    },
    Entry {
        name: "fig10",
        title: "Figure 10: validation MAE vs training steps",
        csvs: &["fig10_training_curves"],
        view: curves::fig10,
    },
    Entry {
        name: "table3",
        title: "Table 3: convergence steps and time",
        csvs: &["table3_convergence"],
        view: curves::table3,
    },
    Entry {
        name: "table4",
        title: "Table 4: test errors",
        csvs: &["table4_test_errors"],
        view: methods::table4,
    },
    Entry {
        name: "fig11",
        title: "Figure 11: MAPE distribution per method",
        csvs: &["fig11_mape_distribution", "fig11_summary"],
        view: methods::fig11,
    },
    Entry {
        name: "table5",
        title: "Table 5: efficiency (size / training / estimation)",
        csvs: &["table5_efficiency"],
        view: methods::table5,
    },
    Entry {
        name: "table6",
        title: "Table 6: scalability on Beijing",
        csvs: &["table6_scalability"],
        view: methods::table6,
    },
    Entry {
        name: "fig12",
        title: "Figure 12: estimated vs actual (50 random test trips)",
        csvs: &["fig12_case_study"],
        view: methods::fig12,
    },
    Entry {
        name: "fig13",
        title: "Figure 13: worst 50 cases per method (by MAPE)",
        csvs: &["fig13_worst_cases", "fig13_summary"],
        view: methods::fig13,
    },
    Entry {
        name: "table7",
        title: "Table 7: embedding-initialization ablations",
        csvs: &["table7_embedding_ablations"],
        view: sweeps::table7,
    },
    Entry {
        name: "fig14a",
        title: "Figure 14a: MAPE vs time-slot size",
        csvs: &["fig14a_slot_size"],
        view: sweeps::fig14a,
    },
    Entry {
        name: "fig14b",
        title: "Figure 14b: t-SNE heat map of time-slot embeddings",
        csvs: &["fig14b_slot_heatmap"],
        view: sweeps::fig14b,
    },
    Entry {
        name: "ext",
        title: "Extensions: RouteTTE reference + goal-directed routing",
        csvs: &["ext_route_tte", "ext_routing"],
        view: ext::ext,
    },
];

const USAGE: &str = "usage: paper <name>…|all [quick|full]   (paper --list shows the names)";

/// The entries (in registry order) and scale a command line asks for;
/// `None` for `--list`.
fn parse(args: &[String]) -> Result<Option<(Vec<&'static Entry>, Scale)>, String> {
    if args.iter().any(|a| a == "--list") {
        return Ok(None);
    }
    let (names, scale) = match args.split_last().map(|(l, r)| (r, Scale::resolve(Some(l)))) {
        Some((rest, Ok(scale))) => (rest, scale),
        _ => (args, Scale::Quick),
    };
    if let Some(name) = names
        .iter()
        .find(|n| *n != "all" && ENTRIES.iter().all(|e| e.name != *n))
    {
        return Err(format!("unknown experiment {name:?}\n{USAGE}"));
    }
    let picked = |e: &&Entry| names.iter().any(|n| n == "all" || n == e.name);
    let entries: Vec<&'static Entry> = ENTRIES.iter().filter(picked).collect();
    if entries.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(Some((entries, scale)))
}

/// Writes each table to `<dir>/<csv>.csv`; returns one message per write
/// that failed, naming its file.
fn write_tables(dir: &Path, csvs: &[&str], tables: &[TextTable]) -> Vec<String> {
    let mut failed = Vec::new();
    for (name, table) in csvs.iter().zip(tables) {
        match write_csv(dir, name, table) {
            Ok(path) => println!("wrote {path}"),
            Err(e) => {
                let failure = format!("{}: {e}", dir.join(format!("{name}.csv")).display());
                eprintln!("CSV write failed: {failure}");
                failed.push(failure);
            }
        }
    }
    failed
}

fn main() {
    deepod_bench::startup(|k| std::env::var(k).ok());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (entries, scale) = match parse(&args) {
        Ok(Some(run)) => run,
        Ok(None) => {
            for e in &ENTRIES {
                println!("{:7} {:55} {}", e.name, e.title, e.csvs.join(", "));
            }
            return;
        }
        Err(e) => config_fatal(e),
    };

    let mut runs = Runs::new(scale);
    let mut failed = Vec::new();
    for entry in entries {
        banner(entry.title, scale);
        let tables = (entry.view)(&mut runs);
        assert_eq!(tables.len(), entry.csvs.len(), "{}", entry.name);
        for table in &tables {
            println!("\n{}", table.render());
        }
        failed.extend(write_tables(Path::new("results"), entry.csvs, &tables));
    }
    println!("\nruns: {}", runs.summary());
    if !failed.is_empty() {
        eprintln!("fatal: CSV writes failed: {}", failed.join("; "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_unique() {
        let names: BTreeSet<&str> = ENTRIES.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), ENTRIES.len());
    }

    #[test]
    fn csv_names_are_unique_and_are_the_committed_results() {
        let csvs: Vec<&str> = ENTRIES
            .iter()
            .flat_map(|e| e.csvs.iter().copied())
            .collect();
        let unique: BTreeSet<String> = csvs.iter().map(|c| c.to_string()).collect();
        assert_eq!(unique.len(), csvs.len(), "a CSV name appears twice");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("results/ is committed")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter_map(|name| name.strip_suffix(".csv").map(String::from))
            .collect();
        assert_eq!(committed.len(), 17);
        assert_eq!(unique, committed);
    }

    #[test]
    fn parse_reads_names_then_an_optional_scale() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (entries, scale) = parse(&args("all full")).unwrap().unwrap();
        assert_eq!((entries.len(), scale), (14, Scale::Full));
        let (entries, scale) = parse(&args("fig11 table4 fig11")).unwrap().unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        assert_eq!((names, scale), (vec!["table4", "fig11"], Scale::Quick));
        assert!(parse(&args("--list")).unwrap().is_none());
        for bad in ["table9", "quick table4", "", "FULL"] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn a_failed_csv_write_names_the_file() {
        let dir = std::env::temp_dir().join(format!("paper-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A file where `results/` should be: no CSV can be written under it.
        let results = dir.join("results");
        std::fs::write(&results, "not a directory").unwrap();
        let mut table = TextTable::new(&["a"]);
        table.row(&["1".into()]);
        let failed = write_tables(&results, &["fig8_hyperparams"], &[table]);
        std::fs::remove_dir_all(&dir).unwrap();
        let file = results.join("fig8_hyperparams.csv").display().to_string();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with(&format!("{file}: ")), "{failed:?}");
    }
}
