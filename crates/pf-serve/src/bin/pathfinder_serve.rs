//! `pathfinder-serve` — serve one shared engine over TCP.
//!
//! ```text
//! pathfinder-serve [--addr HOST:PORT] [--threads N] [--budget ROWS]
//!                  [--load NAME=PATH]...
//! ```
//!
//! Defaults: `--addr 127.0.0.1:4044`, one executor thread per available
//! CPU, unlimited admission budget.  `--load` preloads documents before
//! the first client connects.  A malformed command line prints the usage
//! line and exits with a failure status.  The protocol is documented in
//! the `pf_serve` crate docs; any client can stop the server with
//! `SHUTDOWN`.

use std::process::ExitCode;
use std::sync::Arc;

use pf_engine::{EngineOptions, Pathfinder};
use pf_serve::Server;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pathfinder-serve [--addr HOST:PORT] [--threads N] [--budget ROWS] \
         [--load NAME=PATH]..."
    );
    ExitCode::FAILURE
}

/// The parsed command line.
struct Args {
    addr: String,
    options: EngineOptions,
    preloads: Vec<(String, String)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        addr: "127.0.0.1:4044".to_string(),
        options: EngineOptions::default(),
        preloads: Vec::new(),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let count = |value: String| {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag} expects a number, got {value:?}"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = value()?,
            "--threads" => parsed.options.threads = count(value()?)?,
            "--budget" => parsed.options.memory_budget_rows = count(value()?)?,
            "--load" => {
                let spec = value()?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--load expects NAME=PATH, got {spec:?}"))?;
                parsed.preloads.push((name.to_string(), path.to_string()));
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let Args {
        addr,
        options,
        preloads,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return usage();
        }
    };

    let engine = Arc::new(Pathfinder::with_options(options));
    for (name, path) in &preloads {
        let xml = match std::fs::read_to_string(path) {
            Ok(xml) => xml,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = engine.load_document(name, &xml) {
            eprintln!("cannot load {name} from {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("loaded {name} from {path}");
    }

    let server = match Server::bind(engine, &addr) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(bound) => println!("pathfinder-serve listening on {bound}"),
        Err(e) => {
            eprintln!("cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        return ExitCode::FAILURE;
    }
    println!("pathfinder-serve stopped");
    ExitCode::SUCCESS
}
