//! `neve` — the command-line front end, and the one entry point to the
//! paper's evaluation.
//!
//! ```text
//! neve micro  [--bench B] [--config C] [--iters N]   one microbenchmark
//! neve tables                                        Tables 1, 6 and 7
//! neve figure2                                       Figure 2
//! neve export                                        results/ JSON + CSV
//! neve ablations                                     Section 5 + Ablations A-E
//! neve bench-sim [--smoke | --guard]                 host throughput
//! neve trace  [--config C] [--limit N]               world-switch anatomy
//! neve help                                          every subcommand
//! ```
//!
//! Configurations: `vm`, `v83`, `v83-vhe`, `neve`, `neve-vhe`,
//! `v83-xen`, `neve-xen`, `x86-vm`, `x86-nested`, `x86-noshadow`.
//! Benchmarks: `hypercall`, `devio`, `ipi`, `eoi`.

mod args;
mod bench_sim;
mod commands;
mod report;
mod studies;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("neve: {msg}");
            eprintln!("run `neve help` for usage");
            ExitCode::FAILURE
        }
    }
}
