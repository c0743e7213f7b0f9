//! Regenerates the paper's **Table 1**: average computation time of three
//! optimal throughput evaluation methods over the SDF3 benchmark categories
//! (the paper's four SDF categories, their cyclo-static counterparts
//! `MimicCSDF`/`LgCSDF`, and the sized-buffer variant of every category, so
//! the expansion method can be cross-checked on true CSDF as well).
//!
//! Run with `cargo run -p kiter-bench --bin table1 --release`.
//! The number of generated graphs per category defaults to 8 and can be
//! raised with `KITER_BENCH_GRAPHS=100` to match the paper's setup.
//! `--json` emits one JSON object per category row (the committed
//! `BENCH_TABLE1.json` reference file is produced this way); `--only <name>`
//! filters categories by name substring (e.g. `--only sized`).

use csdf::json::Json;
use csdf::CsdfGraph;
use csdf_baselines::Budget;
use csdf_generators::sdf3::{generate_category, generate_category_sized, Sdf3Category};
use kiter_bench::{category_row, graphs_per_category, Method, TableArgs};

fn main() {
    let budget = Budget::benchmark();
    let per_category = graphs_per_category();
    let methods = [Method::KIter, Method::Expansion, Method::SymbolicExecution];
    let args = TableArgs::parse();

    if !args.json {
        println!(
            "Table 1: average computation time of three optimal throughput evaluation methods"
        );
        println!("(synthetic reproduction of the SDF3 benchmark categories; see DESIGN.md §5)\n");
        println!(
            "{:<18} {:>7} {:>16} {:>16} {:>24} {:>24} | {:>14} {:>14} {:>14}",
            "Category",
            "graphs",
            "tasks min/avg/max",
            "chans min/avg/max",
            "sum(q) min/avg/max",
            "copies min/avg/max",
            "K-Iter",
            "[6] expansion",
            "[8] symbolic"
        );
    }

    let mut rows: Vec<(String, Vec<CsdfGraph>)> = Vec::new();
    for category in Sdf3Category::all() {
        let count = match category {
            Sdf3Category::ActualDsp => 5,
            _ => per_category,
        };
        if args.wants(category.name()) {
            rows.push((
                category.name().to_string(),
                generate_category(category, count, 0xDAC1).expect("generation succeeds"),
            ));
        }
        let sized_name = format!("{}+sized", category.name());
        if args.wants(&sized_name) {
            rows.push((
                sized_name,
                generate_category_sized(category, count, 0xDAC1).expect("generation succeeds"),
            ));
        }
    }

    for (name, graphs) in rows {
        let row = category_row(&name, &graphs, &methods, &budget);
        if args.json {
            let methods = row.averages.iter().map(|(method, avg, failures)| {
                let cell = Json::object([
                    ("avg_ms", Json::rounded(avg.as_secs_f64() * 1e3, 3)),
                    ("failures", (*failures).into()),
                ]);
                (method.label(), cell)
            });
            let line = Json::object([
                ("table", "table1".into()),
                ("category", row.name.as_str().into()),
                ("graphs", row.graphs.into()),
                ("tasks", triple(row.tasks)),
                ("buffers", triple(row.buffers)),
                ("sum_q", triple(row.repetition_sum)),
                ("copies", triple(row.expansion_copies)),
                ("methods", Json::object(methods)),
            ]);
            println!("{line}");
            continue;
        }
        let cells: Vec<String> = row
            .averages
            .iter()
            .map(|(_, avg, failures)| {
                if *failures > 0 {
                    format!("{:.2} ms ({}x)", avg.as_secs_f64() * 1e3, failures)
                } else {
                    format!("{:.2} ms", avg.as_secs_f64() * 1e3)
                }
            })
            .collect();
        println!(
            "{:<18} {:>7} {:>16} {:>16} {:>24} {:>24} | {:>14} {:>14} {:>14}",
            row.name,
            row.graphs,
            format!("{}/{}/{}", row.tasks.0, row.tasks.1, row.tasks.2),
            format!("{}/{}/{}", row.buffers.0, row.buffers.1, row.buffers.2),
            format!(
                "{}/{}/{}",
                row.repetition_sum.0, row.repetition_sum.1, row.repetition_sum.2
            ),
            format!(
                "{}/{}/{}",
                row.expansion_copies.0, row.expansion_copies.1, row.expansion_copies.2
            ),
            cells[0],
            cells[1],
            cells[2],
        );
    }
    if !args.json {
        println!("\n(NNx) marks the number of graphs a method failed to finish within its budget.");
    }
}

/// A `(min, avg, max)` statistic as a JSON array.
fn triple<T: Into<Json>>((min, avg, max): (T, T, T)) -> Json {
    Json::Array(vec![min.into(), avg.into(), max.into()])
}
