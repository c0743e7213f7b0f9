//! Seeded input generation helpers.

use std::time::Instant;

use crate::report::Report;
use crate::stats::median;

/// Set-up runs per run; `setup_s` is their median.
const SETUP_RUNS: usize = 5;

/// SplitMix64: a small, fully specified generator, so inputs depend on the
/// seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for index in (1..items.len()).rev() {
            let other = self.below(index as u64 + 1) as usize;
            items.swap(index, other);
        }
    }
}

/// Renames every task of a graph in the text format with a seeded tag.
/// Task and buffer order, and so every id, stay as they are: renumbering
/// would change K-Iter's tie-breaks, and with them the number of iterations
/// (by up to a third on the 10k-task graphs), so runs on different seeds
/// would not do the same work.
pub fn rename_tasks(text: &str, rng: &mut SplitMix) -> String {
    let tag = format!("s{:04x}_", rng.below(1 << 16));
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        let mut words: Vec<String> = line.split(' ').map(str::to_string).collect();
        match words.first().map(String::as_str) {
            Some("task") if words.len() > 1 => words[1].insert_str(0, &tag),
            Some("buffer") if words.len() > 3 => {
                words[1].insert_str(0, &tag);
                words[3].insert_str(0, &tag);
            }
            _ => {}
        }
        out.push_str(&words.join(" "));
        out.push('\n');
    }
    out
}

/// Runs `setup` [`SETUP_RUNS`] times, reports the median as `setup_s`, and
/// returns the last run's inputs.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_RUNS);
    let mut inputs = None;
    for _ in 0..SETUP_RUNS {
        // Drop the previous run's inputs first, so peak memory holds one set.
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&times));
    report.note("setup_runs_s", format!("{times:?}"));
    inputs.expect("at least one set-up run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renamed_graphs_keep_their_structure() {
        let text = "graph g\ntask a durations=1\ntask b durations=2,1\nbuffer a -> b prod=2 cons=1,1 tokens=0\nbuffer b -> a prod=1,1 cons=2 tokens=3\n";
        let renamed = rename_tasks(text, &mut SplitMix::new(7));
        assert_ne!(renamed, text);
        assert_eq!(rename_tasks(text, &mut SplitMix::new(7)), renamed);
        let original = kperiodic::optimal_throughput(&csdf::text::parse(text).unwrap()).unwrap();
        let renamed = kperiodic::optimal_throughput(&csdf::text::parse(&renamed).unwrap()).unwrap();
        assert_eq!(original, renamed);
    }
}
