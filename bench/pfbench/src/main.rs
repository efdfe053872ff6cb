//! `pfbench`: the repository's one benchmark driver.
//!
//! ```text
//! pfbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! pfbench --selftest-noise
//! ```
//!
//! One process measures one workload and prints one `workload metric value
//! unit` line per metric, then a JSON object on the last line.
//! `bench/README.md` has the method and the glossary.

#![forbid(unsafe_code)]

mod api;
mod harness;
mod inproc;
mod refkernel;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use harness::{Config, DOCUMENT_SEED};

const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 2.0;

const USAGE: &str =
    "usage: pfbench --workload paths_warm|joins_warm|theta_warm|cold_oneshot|serve_mixed \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick] | pfbench --selftest-noise";

enum Mode {
    Run(String),
    Probe(String),
    SelftestNoise,
}

fn parse_args() -> Result<(Mode, Config), String> {
    let mut mode = None;
    let mut seconds = None;
    let mut cfg = Config {
        seed: DOCUMENT_SEED,
        seconds: 0.0,
        trace: false,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => mode = Some(Mode::Run(value()?)),
            "--probe" => mode = Some(Mode::Probe(value()?)),
            "--selftest-noise" => mode = Some(Mode::SelftestNoise),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => cfg.trace = value()? == "1",
            "--quick" => cfg.quick = true,
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    cfg.seconds = seconds.unwrap_or(if cfg.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok((mode.ok_or("no workload named")?, cfg))
}

fn in_process(name: &str) -> Result<&'static inproc::Spec, String> {
    inproc::SPECS
        .iter()
        .find(|spec| spec.name == name)
        .ok_or(format!("unknown workload {name}"))
}

fn run(mode: Mode, cfg: &Config) -> Result<bool, String> {
    match mode {
        Mode::Probe(name) => inproc::probe(in_process(&name)?, cfg).map(|()| true),
        Mode::SelftestNoise => inproc::selftest_noise().map(|()| true),
        Mode::Run(name) => {
            let outcome = if name == serve::NAME {
                serve::run(cfg)?
            } else {
                inproc::run(in_process(&name)?, cfg)?
            };
            println!("{}", outcome.render(&name, cfg.trace));
            Ok(outcome.correct())
        }
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|(mode, cfg)| run(mode, &cfg));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("pfbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
