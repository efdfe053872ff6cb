//! `serve_mixed`: the same engine layers used differently.  A child
//! `pathfinder-serve` with default options, two TCP connections in closed
//! loop, and a seeded mix of cached queries, plan-cache misses and reloads
//! of a document other queries read.
//!
//! A connection sends a batch in one piece and then reads its replies, so a
//! batch takes as long as the server works on it.  Sent one at a time,
//! every request of any kind waited 44 ms at definition (the server writes
//! a reply and its newline separately; the second write waits for the
//! client's delayed ACK): a batch was 96 % timer and its time said nothing
//! about the queries.  A traced run still sends a few requests one at a
//! time, the probe, so that wait stays visible in `pf-serve.ping_ms_p50`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use crate::api::{self, DOC};
use crate::harness::{
    corrected_seconds, ms, out_dir, peak_rss_mb, reference_ms, setup_reference_ms, summarize,
    Config, Rounds, TraceSwitch, DOCUMENT_SEED,
};
use crate::inproc::verify_against_nav;
use crate::refkernel::RefKernel;
use crate::report::Outcome;
use crate::stats::{median, percentile, SplitMix64};
use crate::trace::{self, Span, Tracer};

pub const NAME: &str = "serve_mixed";

const SCALE: f64 = 0.5;
/// The two versions of the document the mix reloads; they differ in size
/// so a reply tells which one it read.
const SIDE_SCALES: [f64; 2] = [0.02, 0.03];
const SIDE_DOC: &str = "side.xml";
/// `nproc` on the box the benchmark was defined on.
const CONNECTIONS: usize = 2;
/// Requests per connection and batch.
const BATCH: usize = 96;
const SHORT: [u8; 8] = [1, 2, 5, 6, 13, 15, 17, 18];
const JOINS: [u8; 3] = [8, 9, 10];
const SETUP_REPS: usize = 9;

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A short XMark path query; its plan is cached after the first run.
    Short(u8),
    /// A short query over the document the mix reloads.
    Side,
    /// Q8, Q9 or Q10.
    Join(u8),
    /// A path query with this person number as a literal: a plan-cache
    /// miss, compiled on the serving path.
    Literal(u64),
    /// Reload the side document with this version.
    Load(usize),
    /// The protocol's no-op; only the probe sends it.
    Ping,
}

impl Kind {
    fn xmark_id(self) -> u8 {
        match self {
            Kind::Short(id) | Kind::Join(id) => id,
            _ => 0,
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Kind::Short(_) | Kind::Join(_) => "query",
            Kind::Side => "pf-serve.side_query",
            Kind::Literal(_) => "pf-serve.literal_query",
            Kind::Load(_) => "pf-serve.load",
            Kind::Ping => "pf-serve.ping",
        }
    }
}

/// The requests connection `connection` sends in batch `batch`.  Every
/// batch has the same make-up, so batches cost the same: each of the eight
/// short queries six times and eight queries over the side document (58 %),
/// Q8 to Q10 eight times each (25 %), twelve literal queries (12.5 %) and
/// four reloads (4 %).  The seed chooses the persons (about half of them
/// exist), which version each reload loads, and the order.
pub fn batch_mix(seed: u64, connection: usize, batch: u64, persons: u64) -> Vec<Kind> {
    let stream = seed ^ ((connection as u64 + 1) << 56) ^ batch.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut rng = SplitMix64::new(stream);
    let mut kinds = vec![Kind::Side; BATCH / 12];
    kinds.extend((0..BATCH / 24).map(|_| Kind::Load(rng.below(2) as usize)));
    kinds.extend(
        SHORT
            .iter()
            .cycle()
            .take(BATCH / 2)
            .map(|&id| Kind::Short(id)),
    );
    kinds.extend(JOINS.iter().flat_map(|&id| [Kind::Join(id); BATCH / 12]));
    kinds.extend((0..BATCH / 8).map(|_| match rng.below(2) {
        0 => Kind::Literal(rng.below(persons)),
        _ => Kind::Literal(persons + rng.below(1 << 40)),
    }));
    rng.shuffle(&mut kinds);
    kinds
}

fn literal_query(person: u64) -> String {
    format!("count(doc(\"{DOC}\")/site/people/person[@id = \"person{person}\"])")
}

fn side_query() -> String {
    format!("count(doc(\"{SIDE_DOC}\")/site/people/person)")
}

fn query_line(text: &str) -> String {
    format!("QUERY {}", text.replace(['\n', '\r'], " "))
}

pub fn load_line(name: &str, xml: &str) -> String {
    format!("LOAD {name} {}", api::escape_line(xml))
}

/// The payload of an `OK` reply line; `None` for `ERR` or anything else.
pub fn ok_payload(reply: &str) -> Option<String> {
    reply.strip_prefix("OK ").map(api::unescape_line)
}

/// Documents, request lines and the reference replies, computed in this
/// process, one query at a time, before the server starts.
struct Fixture {
    xml_path: PathBuf,
    persons: u64,
    lines: HashMap<u8, Arc<str>>,
    side_line: Arc<str>,
    load_lines: [Arc<str>; 2],
    replies: HashMap<u8, String>,
    side_replies: [String; 2],
}

impl Fixture {
    fn build(cfg: &Config, outcome: &mut Outcome) -> Result<Fixture, String> {
        let scale = cfg.scale(SCALE);
        let xml = api::generate(scale, DOCUMENT_SEED);
        let xml_path = out_dir()?.join("serve_mixed.xml");
        std::fs::write(&xml_path, &xml).map_err(|e| format!("{}: {e}", xml_path.display()))?;
        let persons = api::persons(scale, DOCUMENT_SEED) as u64;

        let ids: Vec<u8> = SHORT.iter().chain(&JOINS).copied().collect();
        let engine = api::new_engine();
        api::load(&engine, DOC, &xml)?;
        let mut first = Vec::new();
        for &id in &ids {
            let mut reply = String::new();
            outcome.attempted += 1;
            if let Err(e) = api::query(&engine, api::query_text(id), &mut reply) {
                eprintln!("Q{id}: {e}");
                outcome.failed += 1;
            }
            first.push(reply);
        }
        let nav = verify_against_nav(&ids, &first, &xml, scale, outcome)?;
        let mut nav = nav.ok_or("the short queries are checked on the document itself")?;
        let mut expect = |what: &str, got: Result<String, String>, expected: &str| {
            outcome.attempted += 1;
            outcome.verified_against_nav += 1;
            if got.as_deref() != Ok(expected) {
                eprintln!("{what}: pf-baseline says {got:?}, the reference is {expected:?}");
                outcome.failed += 1;
            }
        };
        for (person, count) in [(0, "1"), (persons, "0")] {
            let walked = api::nav_query(&mut nav, &literal_query(person));
            expect("literal query", walked, count);
        }
        let sides =
            SIDE_SCALES.map(|side_scale| api::generate(cfg.scale(side_scale), DOCUMENT_SEED));
        let mut side_replies = [String::new(), String::new()];
        for (side_xml, reply) in sides.iter().zip(&mut side_replies) {
            api::load(&engine, SIDE_DOC, side_xml)?;
            api::query(&engine, &side_query(), reply)?;
            let walked = api::new_nav(SIDE_DOC, side_xml)
                .and_then(|mut nav| api::nav_query(&mut nav, &side_query()));
            expect("side query", walked, reply);
        }
        if side_replies[0] == side_replies[1] {
            return Err(
                "the two versions of the side document must answer differently".to_string(),
            );
        }
        Ok(Fixture {
            xml_path,
            persons,
            lines: ids
                .iter()
                .map(|&id| (id, Arc::from(query_line(api::query_text(id)))))
                .collect(),
            side_line: Arc::from(query_line(&side_query())),
            load_lines: sides.map(|side_xml| Arc::from(load_line(SIDE_DOC, &side_xml))),
            replies: ids.into_iter().zip(first).collect(),
            side_replies,
        })
    }

    fn line(&self, kind: Kind) -> Arc<str> {
        match kind {
            Kind::Short(id) | Kind::Join(id) => Arc::clone(&self.lines[&id]),
            Kind::Side => Arc::clone(&self.side_line),
            Kind::Literal(person) => Arc::from(query_line(&literal_query(person))),
            Kind::Load(version) => Arc::clone(&self.load_lines[version]),
            Kind::Ping => Arc::from("PING"),
        }
    }

    /// Whether `reply` is a right answer to `kind`.  A side query may have
    /// read either version, whichever load its snapshot saw last, and
    /// nothing in between.
    fn accepts(&self, kind: Kind, reply: &str) -> bool {
        let Some(payload) = ok_payload(reply) else {
            return false;
        };
        match kind {
            Kind::Short(id) | Kind::Join(id) => payload == self.replies[&id],
            Kind::Side => self.side_replies.contains(&payload),
            Kind::Literal(person) => payload == if person < self.persons { "1" } else { "0" },
            Kind::Load(_) => payload == format!("loaded {SIDE_DOC}"),
            Kind::Ping => payload == "pong",
        }
    }

    /// Every distinct request once, the first time a server sees each.
    fn cold_kinds(&self) -> Vec<Kind> {
        let mut kinds = vec![Kind::Load(0), Kind::Side, Kind::Literal(0)];
        kinds.extend(SHORT.map(Kind::Short));
        kinds.extend(JOINS.map(Kind::Join));
        kinds
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    send: String,
    reply: String,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            send: String::new(),
            reply: String::new(),
        })
    }

    /// Send one request line, wait for its reply line.
    fn request(&mut self, line: &str) -> io::Result<&str> {
        self.send.clear();
        self.send.push_str(line);
        self.send.push('\n');
        self.stream.write_all(self.send.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end_matches(['\r', '\n']))
    }

    /// Send every line in one piece, then read as many reply lines; returns
    /// how many of them `accepts`.  A thread of its own sends: the server
    /// answers a connection in order and stops reading it while its replies
    /// wait to be read, so one thread doing both could wait for itself.
    fn pipeline(
        &mut self,
        lines: &[Arc<str>],
        mut accepts: impl FnMut(usize, &str) -> bool,
    ) -> io::Result<usize> {
        self.send.clear();
        for line in lines {
            self.send.push_str(line);
            self.send.push('\n');
        }
        let Client {
            stream,
            reader,
            send,
            reply,
        } = self;
        std::thread::scope(|scope| {
            let sender = scope.spawn(|| (&*stream).write_all(send.as_bytes()));
            let mut right = 0;
            for i in 0..lines.len() {
                reply.clear();
                if !matches!(reader.read_line(reply), Ok(n) if n > 0) {
                    // Unblock the sender before the scope waits for it.
                    let _ = stream.shutdown(Shutdown::Both);
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                right += usize::from(accepts(i, reply.trim_end_matches(['\r', '\n'])));
            }
            sender.join().expect("the sender does not panic")?;
            Ok(right)
        })
    }
}

/// The server child; killed on drop if it was not stopped.
struct Server {
    child: Child,
    /// Held so the server's last words do not hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn start(xml_path: &Path) -> Result<Server, String> {
        let mut child = api::spawn_server(xml_path).map_err(|e| {
            format!(
                "cannot start {} (bench/run.sh builds it): {e}",
                api::server_binary().display()
            )
        })?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("pathfinder-serve ended before it listened".to_string());
                }
            }
            if let Some(addr) = line.trim_end().strip_prefix(api::SERVER_LISTENING) {
                break addr.to_string();
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Ask the server to shut down and wait for it.  Every other
    /// connection must be closed: the server joins their threads first.
    fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).and_then(|mut c| c.request("SHUTDOWN").map(|_| ()));
        asked.map_err(|e| format!("SHUTDOWN: {e}"))?;
        self.child.wait().map(|_| ()).map_err(|e| e.to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `PING`, then the first run of every distinct request, each on a
/// connection of its own; counted into `outcome`.  TCP acknowledges the
/// first reply on a connection at once, so no reply waits for a delayed
/// ACK: down one connection every request but the first would (15 of them
/// took 0.66 s, all of it timer), and sent as one batch the last reply may
/// or may not (set-ups then fell into two modes 40 ms apart, a third of
/// their time).
fn cold_pass(fx: &Fixture, addr: &str, outcome: &mut Outcome) {
    for kind in std::iter::once(Kind::Ping).chain(fx.cold_kinds()) {
        let right = Client::connect(addr).is_ok_and(|mut client| {
            client
                .request(&fx.line(kind))
                .is_ok_and(|reply| fx.accepts(kind, reply))
        });
        outcome.attempted += 1;
        outcome.failed += u64::from(!right);
    }
}

/// Product set-up as a client sees it: the server's spawn, the preload,
/// and the first run of every distinct request.  Returns seconds.
fn setup_once(fx: &Fixture, outcome: &mut Outcome) -> Result<f64, String> {
    let started = Instant::now();
    let server = Server::start(&fx.xml_path)?;
    cold_pass(fx, &server.addr, outcome);
    let seconds = started.elapsed().as_secs_f64();
    server.stop()?;
    Ok(seconds)
}

/// One request the probe sent on its own.
struct Timed {
    round: u32,
    kind: Kind,
    ms: f64,
}

/// What one connection's thread brings back.
struct ClientLog {
    batch_ms: Vec<f64>,
    refs_ms: Vec<f64>,
    probed: Vec<Timed>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
    /// The leader's: first traced round and traced wall time.
    first_traced: Option<usize>,
    traced_wall_ms: f64,
}

/// What the connections' threads share.
#[derive(Clone, Copy)]
struct Window<'a> {
    cfg: &'a Config,
    fx: &'a Fixture,
    addr: &'a str,
    /// Time zero of both threads' spans.
    epoch: Instant,
    barrier: &'a Barrier,
    /// Set by connection 0 between rounds: the next round is traced / is
    /// not run.
    traced: &'a AtomicBool,
    stop: &'a AtomicBool,
}

/// The probe of a traced round: the first request of each kind in `mix`,
/// in the order of [`Kind`]'s variants.  The `PING` goes last: the first
/// request after a pause finds TCP acknowledging at once, and would not
/// show what a request waits for in a conversation.
fn probe_kinds(mix: &[Kind]) -> Vec<Kind> {
    let first = |keep: fn(&Kind) -> bool| mix.iter().copied().find(keep);
    [
        first(|k| matches!(k, Kind::Short(_))),
        first(|k| matches!(k, Kind::Side)),
        first(|k| matches!(k, Kind::Join(_))),
        first(|k| matches!(k, Kind::Literal(_))),
        first(|k| matches!(k, Kind::Load(_))),
        Some(Kind::Ping),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// One connection in closed loop.  Both threads start a batch together
/// and wait for each other at its end; then connection 0 takes the
/// reference, alone (two kernels side by side keep both cores busy, and
/// their time then spread 11 % between runs against 2.5 % alone), in a
/// traced round sends the probe, and decides when tracing starts and the
/// window ends.
fn client_thread(connection: usize, window: &Window<'_>) -> ClientLog {
    let Window {
        cfg,
        fx,
        addr,
        epoch,
        barrier,
        traced,
        stop,
    } = *window;
    let mut client = Client::connect(addr).ok();
    let mut kernel = (connection == 0).then(RefKernel::new);
    // The probe has a connection of its own: requests sent one at a time
    // would leave the batches' connection in another state of TCP's
    // delayed-ACK logic than an untraced run's.
    let mut prober = None;
    let mut switch = TraceSwitch::new(cfg);
    let mut log = ClientLog {
        batch_ms: Vec::new(),
        refs_ms: Vec::new(),
        probed: Vec::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::new(false, epoch),
        first_traced: None,
        traced_wall_ms: 0.0,
    };
    if let Some(kernel) = kernel.as_mut() {
        log.refs_ms.push(reference_ms(kernel, &mut log.tracer));
    }
    for round in 0u32.. {
        log.tracer.set_enabled(traced.load(Ordering::SeqCst));
        log.tracer.round = round;
        let mix = batch_mix(cfg.seed, connection, u64::from(round), fx.persons);
        let lines: Vec<Arc<str>> = mix.iter().map(|&kind| fx.line(kind)).collect();
        // A dead connection fails its batch; the next batch tries a new one.
        if client.is_none() {
            client = Client::connect(addr).ok();
        }
        barrier.wait();
        let batch_started = Instant::now();
        let right = log.tracer.span("batch", 0, |_| {
            let sent = client
                .as_mut()
                .map(|c| c.pipeline(&lines, |i, reply| fx.accepts(mix[i], reply)));
            match sent {
                Some(Ok(right)) => right,
                _ => {
                    client = None;
                    0
                }
            }
        });
        log.batch_ms.push(ms(batch_started.elapsed()));
        log.attempted += BATCH as u64;
        log.failed += (BATCH - right) as u64;
        log.tracer.span("wait", 0, |_| barrier.wait());
        if let Some(kernel) = kernel.as_mut() {
            log.refs_ms.push(reference_ms(kernel, &mut log.tracer));
            if log.tracer.enabled() {
                for kind in probe_kinds(&mix) {
                    let line = fx.line(kind);
                    let started = Instant::now();
                    let right = log.tracer.span(kind.span_name(), kind.xmark_id(), |_| {
                        if prober.is_none() {
                            prober = Client::connect(addr).ok();
                        }
                        let reply = prober.as_mut().map(|c| c.request(&line));
                        let right = matches!(reply, Some(Ok(reply)) if fx.accepts(kind, reply));
                        if !matches!(reply, Some(Ok(_))) {
                            prober = None;
                        }
                        right
                    });
                    log.probed.push(Timed {
                        round,
                        kind,
                        ms: ms(started.elapsed()),
                    });
                    log.attempted += 1;
                    log.failed += u64::from(!right);
                }
            }
            let done = log.batch_ms.len();
            if switch.turns_on(done) {
                log.first_traced = Some(done);
                traced.store(true, Ordering::SeqCst);
            }
            stop.store(switch.done(done, log.first_traced), Ordering::SeqCst);
        }
        log.tracer.span("wait", 0, |_| barrier.wait());
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    log.traced_wall_ms = switch.traced_wall_ms();
    log
}

/// `key=value` of a `STATS` reply as a number.
fn stat(stats: &str, key: &str) -> f64 {
    stats
        .split_whitespace()
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
        .and_then(|value| value.parse().ok())
        .unwrap_or(0.0)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let fx = Fixture::build(cfg, &mut outcome)?;
    if !cfg.trace {
        // Corrected by the kernel, timed in this process right after each
        // set-up, as in the other workloads.
        let mut kernel = RefKernel::new();
        let (mut raw, mut setups) = (Vec::new(), Vec::new());
        for _ in 0..SETUP_REPS {
            let seconds = setup_once(&fx, &mut outcome)?;
            raw.push(seconds);
            setups.push(corrected_seconds(seconds, setup_reference_ms(&mut kernel)));
        }
        outcome.set("setup_s", median(&setups));
        outcome.diagnostics.push(("setup_raw_s", median(&raw), "s"));
    }

    let server = Server::start(&fx.xml_path)?;
    cold_pass(&fx, &server.addr, &mut outcome);
    let mut control = Client::connect(&server.addr).map_err(|e| e.to_string())?;
    let mut ask = |line: &str| {
        control
            .request(line)
            .map(str::to_string)
            .map_err(|e| format!("{line}: {e}"))
    };
    let stats_before = ask("STATS")?;

    let barrier = Barrier::new(CONNECTIONS);
    let (traced, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let window = Window {
        cfg,
        fx: &fx,
        addr: &server.addr,
        epoch: Instant::now(),
        barrier: &barrier,
        traced: &traced,
        stop: &stop,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|connection| scope.spawn(move || client_thread(connection, &window)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a client thread panicked"))
            .collect()
    });
    let stats_after = ask("STATS")?;
    outcome.set("peak_rss_mb", peak_rss_mb(&server.child.id().to_string())?);
    drop(control);
    server.stop()?;

    // A round's operation ends when the slower connection's batch does.
    let rounds = Rounds {
        ops_ms: (0..logs[0].batch_ms.len())
            .map(|i| logs.iter().map(|log| log.batch_ms[i]).fold(0.0, f64::max))
            .collect(),
        refs_ms: logs[0].refs_ms.clone(),
        first_traced: logs[0].first_traced.unwrap_or(logs[0].batch_ms.len()),
        traced_wall_ms: logs[0].traced_wall_ms * CONNECTIONS as f64,
    };
    let mut spans: Vec<Span> = Vec::new();
    for log in &logs {
        let offset = spans.len();
        spans.extend(log.tracer.spans.iter().cloned().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
    }
    // Over all rounds: the reference runs on one of the two cores a batch
    // uses, for a twentieth of its time, so it cancels the box's drift and
    // cannot tell a quiet round (over eight runs in a loud hour 2.7 %
    // spread, 5.1 % over the quietest quarters).
    summarize(cfg, &rounds, 1.0, &spans, &[], &mut outcome);
    if cfg.trace {
        let probed = &logs[0].probed;
        let ms_of = |keep: fn(&Kind) -> bool| -> Vec<f64> {
            let kept = probed.iter().filter(|r| keep(&r.kind));
            kept.map(|r| r.ms).collect()
        };
        let ref_mean = |round: u32| {
            (rounds.refs_ms[round as usize] + rounds.refs_ms[round as usize + 1]) / 2.0
        };
        let queries = ms_of(|k| !matches!(k, Kind::Load(_) | Kind::Ping));
        let short_x: Vec<f64> = probed
            .iter()
            .filter(|r| matches!(r.kind, Kind::Short(_)))
            .map(|r| r.ms / ref_mean(r.round))
            .collect();
        let traced_batches = &rounds.ops_ms[rounds.first_traced..];
        let batch_s: f64 = traced_batches.iter().sum::<f64>() / 1e3;
        let delta = |key: &str| stat(&stats_after, key) - stat(&stats_before, key);
        let (hits, misses) = (delta("plan_cache_hits"), delta("plan_cache_misses"));
        outcome.set("pf-serve.req_ms_p50", median(&queries));
        outcome.set("pf-serve.req_ms_p80", percentile(&queries, 80.0));
        outcome.set("pf-serve.short_req_x_p50", median(&short_x));
        outcome.set(
            "pf-serve.load_ms_p50",
            median(&ms_of(|k| matches!(k, Kind::Load(_)))),
        );
        outcome.set(
            "pf-serve.ping_ms_p50",
            median(&ms_of(|k| matches!(k, Kind::Ping))),
        );
        outcome.set(
            "pf-serve.throughput_rps",
            (traced_batches.len() * CONNECTIONS * BATCH) as f64 / batch_s,
        );
        outcome.set("pf-serve.admission_waited", delta("waited"));
        outcome.set("pf-serve.plan_cache_hit_share", hits / (hits + misses));
        outcome.set("pf-serve.pool_spawns", stat(&stats_after, "pool_spawns"));
        let path = out_dir()?.join(format!("trace-{NAME}.json"));
        std::fs::write(&path, trace::to_json(NAME, &spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_mix_repeats_for_a_seed_and_every_batch_has_the_same_make_up() {
        let mix = |seed, connection, batch| batch_mix(seed, connection, batch, 1000);
        assert_eq!(mix(7, 0, 3), mix(7, 0, 3));
        assert_ne!(mix(7, 0, 3), mix(7, 1, 3));
        assert_ne!(mix(7, 0, 3), mix(7, 0, 4));
        assert_ne!(mix(7, 0, 3), mix(8, 0, 3));

        for batch in 0..50 {
            let kinds = mix(42, 1, batch);
            let count = |keep: fn(&Kind) -> bool| kinds.iter().filter(|k| keep(k)).count();
            assert_eq!(kinds.len(), BATCH);
            assert_eq!(count(|k| matches!(k, Kind::Side)), 8);
            assert_eq!(count(|k| matches!(k, Kind::Literal(_))), 12);
            assert_eq!(count(|k| matches!(k, Kind::Load(_))), 4);
            for id in SHORT {
                assert_eq!(kinds.iter().filter(|k| **k == Kind::Short(id)).count(), 6);
            }
            for id in JOINS {
                assert_eq!(kinds.iter().filter(|k| **k == Kind::Join(id)).count(), 8);
            }
            let probe = probe_kinds(&kinds);
            assert_eq!(probe.len(), 6);
            assert_eq!(probe[5], Kind::Ping);
        }
        let literals: Vec<u64> = (0..50)
            .flat_map(|batch| mix(42, 0, batch))
            .filter_map(|k| {
                if let Kind::Literal(p) = k {
                    Some(p)
                } else {
                    None
                }
            })
            .collect();
        let existing =
            literals.iter().filter(|p| **p < 1000).count() as f64 / literals.len() as f64;
        assert!((existing - 0.5).abs() < 0.1, "{existing}");
    }

    #[test]
    fn a_load_payload_survives_the_line_protocol() {
        let xml = "<a>two\nlines \\ and a \\n literal\r\n</a>";
        let line = load_line("side.xml", xml);
        assert!(!line.contains('\n') && !line.contains('\r'));
        let payload = line.strip_prefix("LOAD side.xml ").unwrap();
        assert_eq!(api::unescape_line(payload), xml);
        // What the server does with it.
        let engine = api::new_engine();
        api::load(&engine, "side.xml", &api::unescape_line(payload)).unwrap();
        let mut out = String::new();
        api::query(&engine, "doc(\"side.xml\")/a/text()", &mut out).unwrap();
        assert_eq!(
            ok_payload(&format!("OK {}", api::escape_line(&out))),
            Some(out)
        );
    }

    #[test]
    fn only_ok_lines_carry_a_payload() {
        assert_eq!(ok_payload("OK 12"), Some("12".to_string()));
        assert_eq!(ok_payload("OK "), Some(String::new()));
        assert_eq!(ok_payload("OK a\\nb"), Some("a\nb".to_string()));
        assert_eq!(ok_payload("ERR unknown verb"), None);
        assert_eq!(ok_payload(""), None);
        assert_eq!(stat("documents=2 waited=7 pool_spawns=1", "waited"), 7.0);
        assert_eq!(stat("documents=2", "waited"), 0.0);
    }
}
