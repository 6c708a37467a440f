//! Prometheus text-format exposition and a minimal std-only scrape
//! endpoint.
//!
//! [`render`] turns a [`RegistrySnapshot`] into the Prometheus text
//! format (version 0.0.4): `# HELP` / `# TYPE` comments followed by one
//! sample line per series, histograms expanded into cumulative
//! `_bucket{le=...}` samples plus `_sum` and `_count`.
//! [`validate_exposition`] checks a rendered document line by line — the
//! format contract tests (and external scrapers) rely on it.
//! [`HttpServer`] is the minimal routed HTTP listener behind the live
//! operations console ([`crate::live`]), which also serves `/metrics`,
//! with no dependencies beyond `std::net`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::metrics::{MetricValue, RegistrySnapshot};

/// Renders a snapshot in the Prometheus text exposition format.
pub fn render(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for family in &snapshot.families {
        out.push_str("# HELP ");
        out.push_str(&family.name);
        out.push(' ');
        escape_help(&mut out, &family.help);
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(&family.name);
        out.push(' ');
        out.push_str(family.kind.as_str());
        out.push('\n');
        for series in &family.series {
            match &series.value {
                MetricValue::Counter(v) => {
                    sample_line(&mut out, &family.name, &series.labels, &[], &format_u64(*v));
                }
                MetricValue::Gauge(v) => {
                    sample_line(&mut out, &family.name, &series.labels, &[], &format_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for &(i, b) in &h.buckets {
                        cum += b;
                        let le = format_f64(crate::metrics::bucket_upper_bound(i));
                        sample_line(
                            &mut out,
                            &format!("{}_bucket", family.name),
                            &series.labels,
                            &[("le", &le)],
                            &format_u64(cum),
                        );
                    }
                    sample_line(
                        &mut out,
                        &format!("{}_bucket", family.name),
                        &series.labels,
                        &[("le", "+Inf")],
                        &format_u64(h.count),
                    );
                    sample_line(
                        &mut out,
                        &format!("{}_sum", family.name),
                        &series.labels,
                        &[],
                        &format_u64(h.sum),
                    );
                    sample_line(
                        &mut out,
                        &format!("{}_count", family.name),
                        &series.labels,
                        &[],
                        &format_u64(h.count),
                    );
                }
            }
        }
    }
    out
}

fn format_u64(v: u64) -> String {
    v.to_string()
}

fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(out: &mut String, help: &str) {
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn sample_line(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Checks a text-exposition document line by line.
///
/// Accepts `# HELP name <text>` / `# TYPE name <kind>` comments and
/// sample lines of the form `name[{label="value",...}] value`, where the
/// value is a float, integer, or `+Inf`/`-Inf`/`NaN`.
///
/// # Errors
///
/// Returns `(line_number, message)` (1-based) for the first bad line.
pub fn validate_exposition(text: &str) -> Result<(), (usize, String)> {
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            validate_comment(rest).map_err(|m| (lineno, m))?;
            continue;
        }
        if line.starts_with('#') {
            // Bare comments are legal in the format.
            continue;
        }
        validate_sample(line).map_err(|m| (lineno, m))?;
    }
    Ok(())
}

fn validate_comment(rest: &str) -> Result<(), String> {
    let (keyword, tail) = rest
        .split_once(' ')
        .ok_or_else(|| "comment without body".to_string())?;
    match keyword {
        "HELP" => {
            let name = tail.split(' ').next().unwrap_or("");
            validate_name(name)
        }
        "TYPE" => {
            let mut parts = tail.split(' ');
            let name = parts.next().unwrap_or("");
            validate_name(name)?;
            let kind = parts
                .next()
                .ok_or_else(|| "TYPE without kind".to_string())?;
            match kind {
                "counter" | "gauge" | "histogram" | "summary" | "untyped" => Ok(()),
                other => Err(format!("unknown TYPE {other}")),
            }
        }
        other => Err(format!("unknown comment keyword {other}")),
    }
}

fn validate_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let ok = matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    if ok {
        Ok(())
    } else {
        Err(format!("invalid metric name {name:?}"))
    }
}

fn validate_sample(line: &str) -> Result<(), String> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    while pos < bytes.len()
        && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_' || bytes[pos] == b':')
    {
        pos += 1;
    }
    validate_name(&line[..pos])?;
    if pos < bytes.len() && bytes[pos] == b'{' {
        pos += 1;
        loop {
            if pos >= bytes.len() {
                return Err("unterminated label set".to_string());
            }
            if bytes[pos] == b'}' {
                pos += 1;
                break;
            }
            let label_start = pos;
            while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_') {
                pos += 1;
            }
            if pos == label_start {
                return Err(format!("bad label name at byte {pos}"));
            }
            if pos + 1 >= bytes.len() || bytes[pos] != b'=' || bytes[pos + 1] != b'"' {
                return Err(format!("expected =\" at byte {pos}"));
            }
            pos += 2;
            while pos < bytes.len() && bytes[pos] != b'"' {
                if bytes[pos] == b'\\' {
                    pos += 1;
                }
                pos += 1;
            }
            if pos >= bytes.len() {
                return Err("unterminated label value".to_string());
            }
            pos += 1; // closing quote
            if pos < bytes.len() && bytes[pos] == b',' {
                pos += 1;
            }
        }
    }
    if pos >= bytes.len() || bytes[pos] != b' ' {
        return Err("expected space before value".to_string());
    }
    let mut parts = line[pos + 1..].split(' ');
    let value = parts.next().unwrap_or("");
    let value_ok = matches!(value, "+Inf" | "-Inf" | "NaN")
        || value.parse::<f64>().map(|v| v.is_finite()).unwrap_or(false);
    if !value_ok {
        return Err(format!("bad sample value {value:?}"));
    }
    if let Some(ts) = parts.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("bad timestamp {ts:?}"))?;
    }
    if parts.next().is_some() {
        return Err("trailing content after sample".to_string());
    }
    Ok(())
}

/// The exposition content type `/metrics` has always sent. Pinned so the
/// routed server's 200 responses stay byte-identical to the original
/// single-purpose scrape endpoint.
pub const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One finished HTTP response: a status, a content type and a body. The
/// server adds `Content-Length` and `Connection: close` itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 400, ...).
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body (empty bodies still carry `Content-Length: 0`).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A 200 response.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse {
            status: 200,
            content_type,
            body: body.into(),
        }
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Internal Server Error",
        }
    }
}

/// Routes a parsed GET/HEAD request. Returning `None` means "no such
/// path" and the server answers 404; method screening (405 for anything
/// but GET/HEAD) happens before the handler is consulted.
///
/// Handlers run on the per-connection thread, so they may block — the
/// live console's `/events` long-poll depends on that.
pub trait HttpHandler: Send + Sync {
    /// Produces the response for `path` (no query string) and the raw
    /// query string, if any.
    fn handle(&self, path: &str, query: Option<&str>) -> Option<HttpResponse>;
}

/// A minimal routed HTTP/1.1 listener: method + path dispatch over a
/// [`HttpHandler`], one thread per connection, no dependencies beyond
/// `std::net`.
///
/// The accept thread stops (and the socket closes) when the server is
/// dropped; in-flight connection threads finish their single response
/// and exit.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 picks a free port) and serves `handler` from
    /// a background accept thread named `name`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(
        addr: impl ToSocketAddrs,
        name: &str,
        handler: Arc<dyn HttpHandler>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // One thread per connection so a parked
                            // long-poll never blocks a scrape.
                            let handler = Arc::clone(&handler);
                            let _ = thread::Builder::new().name("http-conn".to_string()).spawn(
                                move || {
                                    let _ = serve_conn(stream, handler.as_ref());
                                },
                            );
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => thread::sleep(Duration::from_millis(20)),
                    }
                }
            })
            .expect("spawn http listener thread");
        Ok(HttpServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HttpServer({})", self.addr)
    }
}

/// The most a request head may grow to before the server stops reading
/// it and refuses it.
pub const MAX_HEAD: usize = 16 * 1024;

/// A request method the server answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `HEAD`: the `GET` response's headers, without its body.
    Head,
}

/// What the server routes a request on, borrowed from the bytes received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead<'a> {
    /// The request method.
    pub method: Method,
    /// The request target before its first `?`.
    pub path: &'a str,
    /// The raw query string after the first `?`, if the target has one.
    pub query: Option<&'a str>,
}

/// Why the server refuses a request head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadError {
    /// The bytes end before the blank line that closes a head.
    Incomplete,
    /// More than [`MAX_HEAD`] bytes arrived without that blank line.
    Oversized,
    /// The request line is not UTF-8 text holding a method and a target.
    MalformedRequestLine,
    /// A method other than `GET` or `HEAD`.
    MethodNotAllowed,
}

impl HeadError {
    /// The response the server answers it with.
    fn response(self) -> HttpResponse {
        let (status, body): (u16, &[u8]) = match self {
            HeadError::Incomplete | HeadError::Oversized => {
                (400, b"bad request: incomplete or oversized request head\n")
            }
            HeadError::MalformedRequestLine => (400, b"bad request: malformed request line\n"),
            HeadError::MethodNotAllowed => (405, b"method not allowed\n"),
        };
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.to_vec(),
        }
    }
}

/// Whether the bytes hold a whole request head: one ends at its first
/// blank line.
fn has_head(received: &[u8]) -> bool {
    received.windows(4).any(|w| w == b"\r\n\r\n")
}

/// Reads the request head at the start of the bytes a connection
/// received: its request line (up to the first `\r`) must be UTF-8 with
/// a method and a target, split by ASCII whitespace, and the head must
/// end with a blank line. Header lines are not read.
///
/// # Errors
///
/// A [`HeadError`] for each way a head fails, in that order: no blank
/// line yet (the bytes are [`HeadError::Oversized`] past [`MAX_HEAD`]), a
/// malformed request line, or a method other than `GET` or `HEAD`.
pub fn parse_request_head(received: &[u8]) -> Result<RequestHead<'_>, HeadError> {
    if !has_head(received) {
        return Err(if received.len() > MAX_HEAD {
            HeadError::Oversized
        } else {
            HeadError::Incomplete
        });
    }
    let line = received.split(|&b| b == b'\r').next().unwrap_or_default();
    let line = std::str::from_utf8(line).map_err(|_| HeadError::MalformedRequestLine)?;
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(HeadError::MalformedRequestLine);
    };
    let method = match method {
        "GET" => Method::Get,
        "HEAD" => Method::Head,
        _ => return Err(HeadError::MethodNotAllowed),
    };
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    };
    Ok(RequestHead {
        method,
        path,
        query,
    })
}

/// Reads one request head, dispatches it, writes one response, closes.
fn serve_conn(mut stream: TcpStream, handler: &dyn HttpHandler) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut received = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the head is whole, too long, or the client stops: a
    // slow trickle hits the read timeout and is refused as incomplete.
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                received.extend_from_slice(&buf[..n]);
                if has_head(&received) || received.len() > MAX_HEAD {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let (head_only, response) = match parse_request_head(&received) {
        Ok(head) => (
            head.method == Method::Head,
            handler
                .handle(head.path, head.query)
                .unwrap_or(HttpResponse {
                    status: 404,
                    content_type: "text/plain; charset=utf-8",
                    body: b"not found\n".to_vec(),
                }),
        ),
        Err(e) => (false, e.response()),
    };
    write_response(&mut stream, head_only, &response)
}

/// Writes the response. `HEAD` gets the same headers — including the
/// `Content-Length` the body *would* have — and no body.
fn write_response(stream: &mut TcpStream, head_only: bool, resp: &HttpResponse) -> io::Result<()> {
    // The 200 header layout is byte-for-byte the one the original
    // scrape-only endpoint produced, so `/metrics` scrapes are unchanged
    // by routing.
    let mut out = format!(
        "HTTP/1.1 {} {}\r\n{}Content-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        HttpResponse::reason(resp.status),
        if resp.status == 405 {
            "Allow: GET, HEAD\r\n"
        } else {
            ""
        },
        resp.content_type,
        resp.body.len(),
    )
    .into_bytes();
    if !head_only {
        out.extend_from_slice(&resp.body);
    }
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveConsole;
    use crate::metrics::{Metrics, MetricsRegistry};
    use crate::prof::Profiler;

    fn populated_registry() -> Arc<MetricsRegistry> {
        let reg = Arc::new(MetricsRegistry::new());
        let m = Metrics::new(Arc::clone(&reg));
        m.counter("distclass_msgs_total", "messages sent", &[("node", "0")])
            .add(7);
        m.counter("distclass_msgs_total", "messages sent", &[("node", "1")])
            .add(9);
        m.gauge("distclass_dispersion", "cluster dispersion", &[])
            .set(0.125);
        let h = m.histogram(
            "distclass_rtt_ns",
            "ack round-trip \"latency\"\nper link",
            &[("from", "0"), ("to", "1")],
        );
        for v in [100u64, 1000, 10_000, 100_000] {
            h.observe(v);
        }
        reg
    }

    /// The live console over `reg` alone — the server behind every
    /// `/metrics` scrape.
    fn console(reg: &Arc<MetricsRegistry>) -> io::Result<HttpServer> {
        LiveConsole::start(
            "127.0.0.1:0",
            Some(Arc::clone(reg)),
            None,
            Profiler::disabled(),
            None,
        )
    }

    /// Acceptance criterion: the rendered exposition parses line by line
    /// under the format check.
    #[test]
    fn rendered_output_passes_line_validator() {
        let reg = populated_registry();
        let text = render(&reg.snapshot());
        validate_exposition(&text).unwrap_or_else(|(line, msg)| {
            panic!("line {line}: {msg}\n---\n{text}");
        });
        // Spot-check shape.
        assert!(text.contains("# TYPE distclass_msgs_total counter"));
        assert!(text.contains("distclass_msgs_total{node=\"0\"} 7"));
        assert!(text.contains("# TYPE distclass_rtt_ns histogram"));
        assert!(text.contains("distclass_rtt_ns_bucket{from=\"0\",to=\"1\",le=\"+Inf\"} 4"));
        assert!(text.contains("distclass_rtt_ns_count{from=\"0\",to=\"1\"} 4"));
        assert!(text.contains("\\n"), "help newline must be escaped");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = populated_registry();
        let text = render(&reg.snapshot());
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("distclass_rtt_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(
            cums.windows(2).all(|w| w[0] <= w[1]),
            "not cumulative: {cums:?}"
        );
        assert_eq!(*cums.last().unwrap(), 4, "+Inf bucket equals count");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("1bad_name 3").is_err());
        assert!(validate_exposition("name{l=\"v\" 3").is_err());
        assert!(validate_exposition("name three").is_err());
        assert!(validate_exposition("# TYPE name tachyon").is_err());
        assert!(validate_exposition("name 3 notatimestamp").is_err());
        assert!(validate_exposition("name{l=\"a\\\"b\"} 3 123").is_ok());
    }

    #[test]
    fn http_listener_serves_current_snapshot() {
        let reg = populated_registry();
        let server = match console(&reg) {
            Ok(s) => s,
            // Sandboxed environments without loopback TCP: skip.
            Err(e) => {
                eprintln!("skipping http listener test: bind failed: {e}");
                return;
            }
        };
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect to listener");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .expect("response has a body");
        validate_exposition(body).unwrap_or_else(|(line, msg)| {
            panic!("line {line}: {msg}\n---\n{body}");
        });
        assert!(body.contains("distclass_msgs_total{node=\"1\"} 9"));
        drop(server);
        // Drop joined the accept thread; a late connect may still land in
        // the OS backlog, so only probe that the address is reachable or
        // refused without asserting either way.
        std::thread::sleep(Duration::from_millis(50));
        let _ = TcpStream::connect(addr);
    }

    fn roundtrip(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request).expect("send request");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read response");
        String::from_utf8_lossy(&response).into_owned()
    }

    /// The refactor contract: a 200 from the routed server is
    /// byte-identical to the response the pre-refactor `serve_one`
    /// produced for the same registry snapshot.
    #[test]
    fn metrics_response_is_byte_identical_to_the_legacy_layout() {
        let reg = populated_registry();
        let server = match console(&reg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping byte-identity test: bind failed: {e}");
                return;
            }
        };
        let got = roundtrip(
            server.local_addr(),
            b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        let body = render(&reg.snapshot());
        let legacy = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        assert_eq!(got, legacy, "routing must not change scrape bytes");
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_is_405() {
        let reg = populated_registry();
        let server = match console(&reg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping routing test: bind failed: {e}");
                return;
            }
        };
        let addr = server.local_addr();
        let missing = roundtrip(addr, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found"), "{missing}");
        let posted = roundtrip(addr, b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            posted.starts_with("HTTP/1.1 405 Method Not Allowed"),
            "{posted}"
        );
        assert!(posted.contains("Allow: GET, HEAD\r\n"), "{posted}");
    }

    #[test]
    fn head_request_gets_headers_only_with_full_content_length() {
        let reg = populated_registry();
        let server = match console(&reg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping HEAD test: bind failed: {e}");
                return;
            }
        };
        let got = roundtrip(
            server.local_addr(),
            b"HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        assert!(got.starts_with("HTTP/1.1 200 OK"), "{got}");
        assert!(got.ends_with("\r\n\r\n"), "HEAD must carry no body: {got}");
        let expected_len = render(&reg.snapshot()).len();
        assert!(
            got.contains(&format!("Content-Length: {expected_len}\r\n")),
            "HEAD must advertise the GET body length: {got}"
        );
    }

    /// A request head that exceeds the 16 KiB cutoff without ever
    /// terminating is rejected as malformed, not served.
    #[test]
    fn oversized_request_head_is_rejected_with_400() {
        let reg = populated_registry();
        let server = match console(&reg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping oversize test: bind failed: {e}");
                return;
            }
        };
        let mut request = b"GET /metrics HTTP/1.1\r\n".to_vec();
        request.extend_from_slice(b"X-Padding: ");
        request.resize(17 * 1024, b'a');
        // No terminating blank line: the size cutoff fires first.
        let got = roundtrip(server.local_addr(), &request);
        assert!(got.starts_with("HTTP/1.1 400 Bad Request"), "{got}");
    }

    /// A client that stalls mid-header hits the read timeout and gets a
    /// 400 instead of a metrics page (or a hung connection).
    #[test]
    fn read_timeout_mid_header_is_rejected_with_400() {
        let reg = populated_registry();
        let server = match console(&reg) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping timeout test: bind failed: {e}");
                return;
            }
        };
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x")
            .expect("send partial head");
        // Keep the socket open without finishing the head; the server's
        // 500 ms read timeout must fire and answer.
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read response");
        let got = String::from_utf8_lossy(&response);
        assert!(got.starts_with("HTTP/1.1 400 Bad Request"), "{got}");
    }
}
