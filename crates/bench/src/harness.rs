//! What every `bench_*` binary shares: the `--quick`, `--check` and
//! `--out <path>` flags, the pretty-JSON report, and the `--check` gates
//! folded into one exit code.
//!
//! Every report records [`host_cpus`]: wall-clock ratios and parallel arms
//! from a 2-CPU host do not compare with a 64-CPU host's.

use serde::Serialize;
use std::fmt::Display;

/// The flags every bench binary accepts.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Run the smaller CI smoke tier of the scenario.
    pub quick: bool,
    /// Exit non-zero when a gate fails.
    pub check: bool,
    /// Where the JSON report is written.
    pub out: String,
}

impl BenchArgs {
    /// Reads the process arguments. The report goes to `default_out`
    /// unless `--out <path>` names another file.
    pub fn parse(default_out: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self {
            quick: args.iter().any(|a| a == "--quick"),
            check: args.iter().any(|a| a == "--check"),
            out: args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1).cloned())
                .unwrap_or_else(|| default_out.to_string()),
        }
    }

    /// Writes `report` to the `--out` file as pretty JSON and echoes it to
    /// stdout.
    pub fn write_report<T: Serialize>(&self, report: &T) {
        let json = serde_json::to_string_pretty(report).expect("bench reports serialize");
        std::fs::write(&self.out, format!("{json}\n"))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.out));
        println!("{json}");
    }

    /// An empty set of gates, judged by [`Gates::finish`] under `--check`.
    pub fn gates(&self) -> Gates {
        Gates {
            check: self.check,
            failures: Vec::new(),
        }
    }
}

/// CPUs available to the process (`std::thread::available_parallelism`).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The `--check` gates of one run. Every failed gate is reported, not only
/// the first.
#[derive(Debug)]
pub struct Gates {
    check: bool,
    failures: Vec<String>,
}

impl Gates {
    /// Records a failure unless `holds`; `failure` describes it.
    pub fn require(&mut self, holds: bool, failure: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(failure());
        }
    }

    /// Requires `value >= floor`; `what` names the value.
    pub fn at_least<T: PartialOrd + Display>(&mut self, what: &str, value: T, floor: T) {
        self.require(value >= floor, || {
            format!("{what} is {value}, below the floor of {floor}")
        });
    }

    /// Requires `value <= ceiling`; `what` names the value.
    pub fn at_most<T: PartialOrd + Display>(&mut self, what: &str, value: T, ceiling: T) {
        self.require(value <= ceiling, || {
            format!("{what} is {value}, above the ceiling of {ceiling}")
        });
    }

    /// Under `--check`, prints every failed gate and exits with status 1
    /// if there was one. Without `--check` it does nothing.
    pub fn finish(self) {
        if !self.check {
            return;
        }
        if self.failures.is_empty() {
            println!("check passed");
            return;
        }
        for failure in &self.failures {
            eprintln!("check FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
