//! `pathfinder-cli` — REPL and script driver, embedded or over TCP.
//!
//! ```text
//! pathfinder-cli [--connect HOST:PORT] [--load NAME=PATH]...
//!                [--eval QUERY]... [--script FILE]
//! ```
//!
//! Without `--connect` the CLI embeds its own engine; with it, every
//! command is sent over the `pf_serve` line protocol to a running
//! `pathfinder-serve`.  `--eval` / `--script` run non-interactively (and
//! compose: preloads first, then evals, then the script); with neither,
//! the CLI reads a REPL from stdin:
//!
//! ```text
//! pf> fn:count(fn:doc("auction.xml")//item)     -- any other line: a query
//! pf> :load name path/to.xml                    -- load a document
//! pf> :explain fn:count(fn:doc("auction.xml")//item)  -- the annotated plan
//! pf> :stats                                    -- engine counters
//! pf> :quit
//! ```
//!
//! Script files use the same syntax, one command per line; blank lines
//! and lines starting with `#` are skipped.  A malformed command line
//! prints the usage line and exits with a failure status.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;

use pf_engine::{Pathfinder, Session};
use pf_serve::{handle_line, unescape_line};

/// Where commands go: an embedded engine session or a remote server.
enum Backend {
    Embedded(Arc<Pathfinder>),
    Remote {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    },
}

impl Backend {
    /// Send one protocol request line, return the raw response line.
    fn request(&mut self, line: &str) -> Result<String, String> {
        match self {
            Backend::Embedded(engine) => {
                let session: Session<'_> = engine.session();
                Ok(handle_line(&session, line).line().to_string())
            }
            Backend::Remote { writer, reader } => {
                writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .map_err(|e| format!("send failed: {e}"))?;
                let mut response = String::new();
                reader
                    .read_line(&mut response)
                    .map_err(|e| format!("receive failed: {e}"))?;
                if response.is_empty() {
                    return Err("server closed the connection".into());
                }
                Ok(response.trim_end().to_string())
            }
        }
    }
}

/// Run one REPL/script command line.  Returns `false` when the loop
/// should stop.
fn run_command(backend: &mut Backend, line: &str) -> bool {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return true;
    }
    let request = if let Some(rest) = line.strip_prefix(':') {
        let (cmd, args) = rest.split_once(' ').unwrap_or((rest, ""));
        match cmd {
            "load" => {
                let Some((name, path)) = args.trim().split_once(' ') else {
                    eprintln!("usage: :load NAME PATH");
                    return true;
                };
                format!("LOADFILE {name} {path}")
            }
            "explain" => format!("EXPLAIN {}", args.replace('\n', " ")),
            "stats" => "STATS".to_string(),
            "quit" | "q" => {
                let _ = backend.request("QUIT");
                return false;
            }
            "shutdown" => {
                report(backend.request("SHUTDOWN"));
                return false;
            }
            other => {
                eprintln!(
                    "unknown command :{other} (try :load, :explain, :stats, :quit, :shutdown)"
                );
                return true;
            }
        }
    } else {
        // A query.  The protocol is line-based, so fold any embedded
        // newlines (scripts are one command per line anyway).
        format!("QUERY {}", line.replace('\n', " "))
    };
    report(backend.request(&request));
    true
}

/// Print a response line: payload to stdout, errors to stderr.
fn report(response: Result<String, String>) {
    match response {
        Ok(line) => {
            if let Some(payload) = line.strip_prefix("OK ") {
                println!("{}", unescape_line(payload));
            } else if let Some(payload) = line.strip_prefix("ERR ") {
                eprintln!("error: {}", unescape_line(payload));
            } else {
                println!("{line}");
            }
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pathfinder-cli [--connect HOST:PORT] [--load NAME=PATH]... \
         [--eval QUERY]... [--script FILE]"
    );
    ExitCode::FAILURE
}

/// The parsed command line.
#[derive(Default)]
struct Args {
    connect: Option<String>,
    preloads: Vec<(String, String)>,
    evals: Vec<String>,
    script: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--connect" => parsed.connect = Some(value()?),
            "--load" => {
                let spec = value()?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--load expects NAME=PATH, got {spec:?}"))?;
                parsed.preloads.push((name.to_string(), path.to_string()));
            }
            "--eval" => parsed.evals.push(value()?),
            "--script" => parsed.script = Some(value()?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let Args {
        connect,
        preloads,
        evals,
        script,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return usage();
        }
    };

    let mut backend = match &connect {
        Some(addr) => match TcpStream::connect(addr) {
            Ok(writer) => {
                let reader = match writer.try_clone() {
                    Ok(clone) => BufReader::new(clone),
                    Err(e) => {
                        eprintln!("cannot clone connection: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                Backend::Remote { writer, reader }
            }
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Backend::Embedded(Arc::new(Pathfinder::new())),
    };

    for (name, path) in &preloads {
        report(backend.request(&format!("LOADFILE {name} {path}")));
    }
    for query in &evals {
        run_command(&mut backend, query);
    }
    if let Some(path) = &script {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for line in text.lines() {
            if !run_command(&mut backend, line) {
                return ExitCode::SUCCESS;
            }
        }
    }
    if !evals.is_empty() || script.is_some() {
        return ExitCode::SUCCESS;
    }

    // Interactive REPL.
    let stdin = std::io::stdin();
    loop {
        print!("pf> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !run_command(&mut backend, &line) {
                    break;
                }
            }
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        }
    }
    ExitCode::SUCCESS
}
