//! # pf-serve — a line-protocol query server over a shared engine
//!
//! The thinnest useful front-end for the concurrent engine: one
//! [`Pathfinder`] behind an [`Arc`], one OS thread per TCP connection,
//! one [`pf_engine::Session`] per connection, whose queries run on that
//! connection's thread.  Snapshot isolation and admission control are
//! engine machinery, fairness across connections is the operating
//! system's scheduler; the server adds only framing.
//!
//! ## Protocol
//!
//! Requests and responses are single lines of UTF-8.  A request is a verb
//! plus arguments; a response is `OK <payload>` or `ERR <message>`.  A
//! request line that is not UTF-8 is answered `ERR request is not UTF-8`
//! and the connection keeps serving.
//! Payloads are escaped so multi-line XML fits on one line: `\` → `\\`,
//! newline → `\n`, carriage return → `\r` (see [`escape_line`] /
//! [`unescape_line`]).
//!
//! | request                  | response                                     |
//! |--------------------------|----------------------------------------------|
//! | `QUERY <xquery>`         | `OK <escaped serialized result>`             |
//! | `EXPLAIN <xquery>`       | `OK <escaped annotated plan>` (not executed) |
//! | `LOAD <name> <xml>`      | `OK loaded <name>` (xml is escaped)          |
//! | `LOADFILE <name> <path>` | `OK loaded <name>` (path read server-side)   |
//! | `STATS`                  | `OK k=v ...` (admission, cache, docs)        |
//! | `PING`                   | `OK pong`                                    |
//! | `QUIT`                   | `OK bye`, then the connection closes         |
//! | `SHUTDOWN`               | `OK shutting down`, then the server exits    |
//!
//! `EXPLAIN` returns the optimized plan as an indented tree, each operator
//! with its properties and the physical node that runs it (`pipe#k` for a
//! fused pipeline, `brk#k` for a breaker).  Blank lines are ignored; an
//! unknown verb answers `ERR`.  The `QUERY` and `EXPLAIN` verbs accept the
//! query text verbatim (queries are single-line in the
//! protocol; clients fold newlines to spaces, which never changes XQuery
//! semantics outside string literals).

#![forbid(unsafe_code)]

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pf_engine::{Pathfinder, Session};

/// Escape a payload onto one protocol line: `\` → `\\`, LF → `\n`,
/// CR → `\r`.
pub fn escape_line(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len());
    for c in payload.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Invert [`escape_line`].  Unknown escapes pass through verbatim.
pub fn unescape_line(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// What a handled request asks the connection loop to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Send the line, keep serving.
    Line(String),
    /// Send the line, close this connection.
    Close(String),
    /// Send the line, close this connection and stop the whole server.
    Shutdown(String),
}

impl Reply {
    /// The protocol line of this reply.
    pub fn line(&self) -> &str {
        match self {
            Reply::Line(l) | Reply::Close(l) | Reply::Shutdown(l) => l,
        }
    }
}

fn ok(payload: &str) -> String {
    format!("OK {}", escape_line(payload))
}

fn err(message: &str) -> String {
    format!("ERR {}", escape_line(message))
}

/// One-line `k=v` rendering of the engine's live counters (the `STATS`
/// payload).  `pool_spawns` is always 0: queries run on their connection's
/// thread, and the field stays for clients that parse it.
pub fn stats_line(engine: &Pathfinder) -> String {
    let (hits, misses) = engine.plan_cache_stats();
    let adm = engine.admission().stats();
    let budget = if engine.admission().budget_rows() == usize::MAX {
        "unlimited".to_string()
    } else {
        engine.admission().budget_rows().to_string()
    };
    format!(
        "documents={} plan_cache_len={} plan_cache_hits={hits} plan_cache_misses={misses} \
         plan_shape_hits={} admitted={} waited={} waiting={} running={} charged_rows={} \
         budget_rows={budget} pool_spawns=0",
        engine.registry().len(),
        engine.plan_cache_len(),
        engine.plan_shape_hits(),
        adm.admitted,
        adm.waited,
        adm.waiting,
        adm.running,
        adm.charged_rows,
    )
}

/// Handle one protocol request line on a session.  Pure with respect to
/// the connection: the caller sends `reply.line()` and acts on the
/// variant.  Public so front-ends (and tests) can drive the protocol
/// without a socket.
pub fn handle_line(session: &Session<'_>, line: &str) -> Reply {
    let line = line.trim_end_matches(['\r', '\n']);
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Reply::Line(ok(""));
    }
    let (verb, rest) = match trimmed.split_once(' ') {
        Some((v, r)) => (v, r.trim_start()),
        None => (trimmed, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "QUERY" => {
            if rest.is_empty() {
                return Reply::Line(err("QUERY needs a query text"));
            }
            match session.query(rest) {
                Ok(result) => Reply::Line(ok(&result.to_xml())),
                Err(e) => Reply::Line(err(&e.to_string())),
            }
        }
        "EXPLAIN" => {
            if rest.is_empty() {
                return Reply::Line(err("EXPLAIN needs a query text"));
            }
            match session.explain(rest) {
                Ok(explain) => Reply::Line(ok(&explain.plan_physical())),
                Err(e) => Reply::Line(err(&e.to_string())),
            }
        }
        "LOAD" => {
            let Some((name, xml)) = rest.split_once(' ') else {
                return Reply::Line(err("LOAD needs a name and an XML payload"));
            };
            match session.load_document(name, &unescape_line(xml.trim_start())) {
                Ok(()) => Reply::Line(ok(&format!("loaded {name}"))),
                Err(e) => Reply::Line(err(&e.to_string())),
            }
        }
        "LOADFILE" => {
            let Some((name, path)) = rest.split_once(' ') else {
                return Reply::Line(err("LOADFILE needs a name and a path"));
            };
            let path = path.trim();
            match std::fs::read_to_string(path) {
                Ok(xml) => match session.load_document(name, &xml) {
                    Ok(()) => Reply::Line(ok(&format!("loaded {name}"))),
                    Err(e) => Reply::Line(err(&e.to_string())),
                },
                Err(e) => Reply::Line(err(&format!("cannot read {path}: {e}"))),
            }
        }
        "STATS" => Reply::Line(ok(&stats_line(session.engine()))),
        "PING" => Reply::Line(ok("pong")),
        "QUIT" => Reply::Close(ok("bye")),
        "SHUTDOWN" => Reply::Shutdown(ok("shutting down")),
        other => Reply::Line(err(&format!("unknown verb {other}"))),
    }
}

/// The TCP server: an accept loop handing each connection to its own
/// thread with its own engine [`Session`].
pub struct Server {
    engine: Arc<Pathfinder>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:4044"`; port `0` picks a free
    /// port, see [`Server::local_addr`]).
    pub fn bind(engine: Arc<Pathfinder>, addr: &str) -> io::Result<Server> {
        Ok(Server {
            engine,
            listener: TcpListener::bind(addr)?,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a client sends `SHUTDOWN`.  Each accepted connection
    /// runs on its own thread; the accept loop itself runs on the calling
    /// thread.
    pub fn run(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut workers = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let engine = Arc::clone(&self.engine);
            let shutdown = Arc::clone(&self.shutdown);
            workers.push(std::thread::spawn(move || {
                // Connection errors (resets, broken pipes) only end this
                // client's session; the server keeps serving.
                let _ = serve_connection(&engine, stream, &shutdown, addr);
            }));
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

fn serve_connection(
    engine: &Pathfinder,
    stream: TcpStream,
    shutdown: &AtomicBool,
    server_addr: SocketAddr,
) -> io::Result<()> {
    let session = engine.session();
    // A reply is one segment, sent at once: written in two pieces, Nagle's
    // algorithm holds the second behind the client's delayed ACK (~40 ms).
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        if reader.read_until(b'\n', &mut bytes)? == 0 {
            break;
        }
        if bytes.ends_with(b"\n") {
            bytes.pop();
            if bytes.ends_with(b"\r") {
                bytes.pop();
            }
        }
        // A request that is not UTF-8 costs one ERR, not the connection.
        let reply = match std::str::from_utf8(&bytes) {
            Ok(line) => handle_line(&session, line),
            Err(_) => Reply::Line(err("request is not UTF-8")),
        };
        let (mut out, closes, stops) = match reply {
            Reply::Line(l) => (l, false, false),
            Reply::Close(l) => (l, true, false),
            Reply::Shutdown(l) => (l, true, true),
        };
        out.push('\n');
        writer.write_all(out.as_bytes())?;
        writer.flush()?;
        if stops {
            shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag even with no
            // further clients arriving.
            let _ = TcpStream::connect(server_addr);
        }
        if closes {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn roundtrip(s: &str) {
        assert_eq!(unescape_line(&escape_line(s)), s);
    }

    #[test]
    fn escaping_round_trips_every_shape() {
        roundtrip("");
        roundtrip("plain");
        roundtrip("two\nlines");
        roundtrip("back\\slash\\n literal");
        roundtrip("\r\n mixed \\ endings \n");
        assert_eq!(escape_line("a\nb"), "a\\nb");
        assert_eq!(
            unescape_line("a\\qb"),
            "a\\qb",
            "unknown escapes pass through"
        );
    }

    #[test]
    fn handle_line_speaks_the_protocol() {
        let pf = Pathfinder::new();
        let session = pf.session();
        assert_eq!(handle_line(&session, "PING"), Reply::Line("OK pong".into()));
        assert_eq!(
            handle_line(&session, "LOAD d.xml <a><b>1</b><b>2</b></a>"),
            Reply::Line("OK loaded d.xml".into())
        );
        assert_eq!(
            handle_line(&session, "QUERY fn:count(fn:doc(\"d.xml\")//b)"),
            Reply::Line("OK 2".into())
        );
        // Results with newlines come back on one escaped line.
        assert_eq!(
            handle_line(
                &session,
                "LOAD m.xml <a>x\ny</a>".replace('\n', "\\n").as_str()
            ),
            Reply::Line("OK loaded m.xml".into())
        );
        let reply = handle_line(&session, "QUERY fn:doc(\"m.xml\")/a/text()");
        assert_eq!(reply, Reply::Line("OK x\\ny".into()));
        // EXPLAIN: the annotated plan on one escaped line, each operator
        // tagged with the physical node that runs it; nothing executes.
        let reply = handle_line(&session, "EXPLAIN fn:count(fn:doc(\"d.xml\")//b)");
        let plan = unescape_line(reply.line().strip_prefix("OK ").expect("an OK line"));
        assert!(!reply.line().contains('\n'), "{reply:?}");
        assert!(plan.lines().count() > 3, "{plan}");
        assert!(plan.contains(" pipe#") && plan.contains(" brk#"), "{plan}");
        assert!(plan.contains("rows≈"), "{plan}");
        assert!(handle_line(&session, "EXPLAIN").line().starts_with("ERR "));
        assert!(handle_line(&session, "EXPLAIN for $x in")
            .line()
            .starts_with("ERR "));
        // Errors are ERR lines, not dropped connections.
        let reply = handle_line(&session, "QUERY for $x in");
        assert!(reply.line().starts_with("ERR "), "{reply:?}");
        assert!(handle_line(&session, "FROB 1")
            .line()
            .starts_with("ERR unknown verb"));
        assert!(handle_line(&session, "QUERY").line().starts_with("ERR "));
        assert!(handle_line(&session, "LOAD only-name")
            .line()
            .starts_with("ERR "));
        // Lifecycle verbs.
        assert_eq!(handle_line(&session, "QUIT"), Reply::Close("OK bye".into()));
        assert_eq!(
            handle_line(&session, "SHUTDOWN"),
            Reply::Shutdown("OK shutting down".into())
        );
        // STATS reports engine counters.
        let stats = handle_line(&session, "STATS");
        assert!(stats.line().contains("documents=2"), "{stats:?}");
        assert!(stats.line().contains("admitted=2 "), "{stats:?}");
        assert!(stats.line().contains("budget_rows=unlimited"), "{stats:?}");
        assert!(stats.line().contains("plan_shape_hits=0 "), "{stats:?}");
        // A query that differs from a cached one only in a compared
        // literal binds the cached template: a hit, and a shape hit.
        for (literal, count) in [("1", "1"), ("3", "0")] {
            let query = format!("QUERY fn:count(fn:doc(\"d.xml\")//b[. = \"{literal}\"])");
            assert_eq!(
                handle_line(&session, &query),
                Reply::Line(format!("OK {count}"))
            );
        }
        let stats = handle_line(&session, "STATS");
        assert!(stats.line().contains("plan_shape_hits=1 "), "{stats:?}");
        assert!(stats.line().contains("plan_cache_hits=1 "), "{stats:?}");
    }

    struct Client {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let writer = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(writer.try_clone().expect("clone stream"));
            Client { writer, reader }
        }

        fn request(&mut self, line: &str) -> String {
            self.writer.write_all(line.as_bytes()).unwrap();
            self.writer.write_all(b"\n").unwrap();
            self.writer.flush().unwrap();
            let mut response = String::new();
            self.reader.read_line(&mut response).unwrap();
            response.trim_end().to_string()
        }
    }

    #[test]
    fn a_lone_request_is_answered_without_a_delayed_ack_stall() {
        let pf = Arc::new(Pathfinder::new());
        let server = Server::bind(pf, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let server_thread = std::thread::spawn(move || server.run());

        // One connection, one request in flight, one write per request:
        // a reply that leaves in two segments costs ~44 ms each (880 ms).
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut response = String::new();
        let started = std::time::Instant::now();
        for _ in 0..20 {
            stream.write_all(b"PING\n").unwrap();
            response.clear();
            reader.read_line(&mut response).unwrap();
            assert_eq!(response, "OK pong\n");
        }
        let elapsed = started.elapsed();
        stream.write_all(b"SHUTDOWN\n").unwrap();
        server_thread
            .join()
            .expect("server thread")
            .expect("server run");
        assert!(
            elapsed < std::time::Duration::from_millis(400),
            "20 sequential PINGs took {elapsed:?}"
        );
    }

    #[test]
    fn an_over_deep_query_costs_one_err_not_the_connection() {
        let pf = Arc::new(Pathfinder::new());
        let server = Server::bind(pf, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let server_thread = std::thread::spawn(move || server.run());

        // Parsed on the connection's own thread: without a nesting bound
        // this overflows its stack and aborts the server for every client.
        let mut client = Client::connect(addr);
        let deep = format!("QUERY {}1{}", "(".repeat(10_000), ")".repeat(10_000));
        let reply = client.request(&deep);
        assert!(
            reply.starts_with("ERR ") && reply.contains("nested more than"),
            "{reply}"
        );
        assert_eq!(client.request("PING"), "OK pong");
        assert_eq!(client.request("QUERY (((1)))"), "OK 1");
        assert_eq!(client.request("SHUTDOWN"), "OK shutting down");
        server_thread
            .join()
            .expect("server thread")
            .expect("server run");
    }

    #[test]
    fn a_request_that_is_not_utf8_costs_one_err_not_the_connection() {
        let pf = Arc::new(Pathfinder::new());
        let server = Server::bind(pf, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let server_thread = std::thread::spawn(move || server.run());

        let mut client = Client::connect(addr);
        assert_eq!(client.request("PING"), "OK pong");
        client.writer.write_all(b"QUERY \xff\xfe 1\r\n").unwrap();
        let mut reply = String::new();
        client.reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "ERR request is not UTF-8\n");
        assert_eq!(client.request("PING"), "OK pong");
        assert_eq!(client.request("QUERY 1 + 1"), "OK 2");
        assert_eq!(client.request("SHUTDOWN"), "OK shutting down");
        server_thread
            .join()
            .expect("server thread")
            .expect("server run");
    }

    #[test]
    fn a_deep_document_is_served_on_a_connection_thread() {
        let pf = Arc::new(Pathfinder::new());
        let server = Server::bind(pf, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let server_thread = std::thread::spawn(move || server.run());

        // Serialized on the connection's own thread: a recursive writer
        // overflows its stack and aborts the server for every client.
        let n = 100_000;
        let mut client = Client::connect(addr);
        let load = format!("LOAD deep.xml {}{}", "<x>".repeat(n), "</x>".repeat(n));
        assert_eq!(client.request(&load), "OK loaded deep.xml");
        let reply = client.request("QUERY doc(\"deep.xml\")/x");
        let expected = format!("OK {}<x/>{}", "<x>".repeat(n - 1), "</x>".repeat(n - 1));
        assert!(reply == expected, "the chain comes back unchanged");
        assert_eq!(client.request("PING"), "OK pong");
        assert_eq!(client.request("SHUTDOWN"), "OK shutting down");
        server_thread
            .join()
            .expect("server thread")
            .expect("server run");
    }

    #[test]
    fn server_serves_concurrent_clients_over_tcp() {
        let pf = Arc::new(Pathfinder::new());
        pf.load_document("d.xml", "<a><b>1</b><b>2</b><b>3</b></a>")
            .unwrap();
        let server = Server::bind(Arc::clone(&pf), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let server_thread = std::thread::spawn(move || server.run());

        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    assert_eq!(client.request("PING"), "OK pong");
                    for _ in 0..5 {
                        assert_eq!(client.request("QUERY fn:sum(fn:doc(\"d.xml\")//b)"), "OK 6");
                    }
                    assert_eq!(client.request("QUIT"), "OK bye");
                });
            }
        });

        // A late client still gets served, observes shared state, and can
        // shut the server down.
        let mut last = Client::connect(addr);
        assert_eq!(last.request("LOAD extra.xml <x/>"), "OK loaded extra.xml");
        let stats = last.request("STATS");
        assert!(stats.contains("documents=2"), "{stats}");
        assert!(stats.contains("admitted=15"), "{stats}");
        assert_eq!(last.request("SHUTDOWN"), "OK shutting down");
        server_thread
            .join()
            .expect("server thread")
            .expect("server run");
        // The engine outlives the server: still queryable in-process.
        assert_eq!(
            pf.session()
                .query("fn:count(fn:doc(\"extra.xml\"))")
                .unwrap()
                .to_xml(),
            "1"
        );
    }
}
