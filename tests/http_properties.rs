//! The live console's request-head parser under generated and hostile
//! heads.
//!
//! `parse_request_head` reads every request the HTTP listener accepts, so
//! any bytes must parse to a head or a typed `HeadError`, never a panic.
//! A head without its closing blank line is incomplete, or oversized past
//! `MAX_HEAD`; a valid `GET` or `HEAD` head gives back the method, path
//! and query it was built from, whatever headers follow its request line.

use distclass::obs::prom::{parse_request_head, HeadError, Method, RequestHead, MAX_HEAD};
use proptest::prelude::*;

/// Characters of a path: no whitespace and no `?`, some beyond ASCII.
const PATH: &[char] = &['/', 'a', 'z', '0', '9', '-', '_', '.', '%', '~', 'é', '→'];

/// Characters of a query: a path's, and `?`, `=` and `&`.
const QUERY: &[char] = &['a', 'z', '0', '=', '&', '?', '/', '%', '+', 'é'];

/// Header lines a client may send after the request line.
const HEADERS: &[&str] = &[
    "Host: localhost:9090",
    "Accept: */*",
    "User-Agent: probe/1.0",
    "X-Empty:",
    "Connection: close",
];

fn text(alphabet: &[char], picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| alphabet[i % alphabet.len()])
        .collect()
}

prop_compose! {
    /// A valid head, with the method, path and query it carries.
    fn valid_head()(
        head in 0u8..2,
        path in collection::vec(0usize..64, 0..24),
        query in collection::vec(0usize..64, 0..24),
        has_query in 0u8..2,
        headers in collection::vec(0usize..HEADERS.len(), 0..4),
        spaces in (1usize..3, 1usize..3),
    ) -> (Vec<u8>, Method, String, Option<String>) {
        let method = if head == 0 { Method::Get } else { Method::Head };
        let path = format!("/{}", text(PATH, &path));
        let query = (has_query == 1).then(|| text(QUERY, &query));
        let target = match &query {
            Some(q) => format!("{path}?{q}"),
            None => path.clone(),
        };
        let name = if head == 0 { "GET" } else { "HEAD" };
        let mut bytes = format!(
            "{name}{}{target}{}HTTP/1.1\r\n",
            " ".repeat(spaces.0),
            " ".repeat(spaces.1)
        );
        for &h in &headers {
            bytes.push_str(HEADERS[h]);
            bytes.push_str("\r\n");
        }
        bytes.push_str("\r\n");
        (bytes.into_bytes(), method, path, query)
    }
}

/// Whether `bytes` hold the blank line that closes a head.
fn has_blank_line(bytes: &[u8]) -> bool {
    bytes.windows(4).any(|w| w == b"\r\n\r\n")
}

/// What every parse must satisfy, whatever the bytes: no blank line is
/// an incomplete or oversized head, and a parsed head's path and query
/// come from its request line, split at the first `?`.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let parsed = parse_request_head(bytes);
    if !has_blank_line(bytes) {
        let want = if bytes.len() > MAX_HEAD {
            HeadError::Oversized
        } else {
            HeadError::Incomplete
        };
        prop_assert_eq!(parsed, Err(want));
        return Ok(());
    }
    if let Ok(head) = parsed {
        let line = bytes.split(|&b| b == b'\r').next().unwrap_or_default();
        let line = std::str::from_utf8(line).expect("a parsed request line is UTF-8");
        let target = match head.query {
            Some(q) => format!("{}?{q}", head.path),
            None => head.path.to_string(),
        };
        let mut parts = line.split_ascii_whitespace();
        let name = if head.method == Method::Get {
            "GET"
        } else {
            "HEAD"
        };
        prop_assert_eq!(parts.next(), Some(name));
        prop_assert_eq!(parts.next(), Some(target.as_str()));
        prop_assert!(!head.path.contains('?'), "{head:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Any bytes parse to a head or a typed error. Random bytes rarely
    /// hold a blank line, so `close` appends one (1) or starts them with
    /// a request line (2).
    #[test]
    fn arbitrary_heads_never_panic(bytes in collection::vec(0..=u8::MAX, 0..200), close in 0u8..3) {
        let mut bytes = bytes;
        if close >= 1 {
            bytes.extend_from_slice(b"\r\n\r\n");
        }
        if close == 2 {
            bytes.splice(0..0, b"GET /".iter().copied());
        }
        check(&bytes)?;
    }

    /// A valid head gives back its method, path and query.
    #[test]
    fn valid_heads_round_trip(head in valid_head()) {
        let (bytes, method, path, query) = head;
        let want = RequestHead { method, path: &path, query: query.as_deref() };
        prop_assert_eq!(parse_request_head(&bytes), Ok(want));
    }

    /// A head cut anywhere before its end lacks its blank line and is
    /// incomplete; one with a byte replaced parses to a head or an error.
    #[test]
    fn truncated_and_flipped_heads_never_panic(head in valid_head(), cut in 0usize..1024, at in 0usize..1024, byte in 0..=u8::MAX) {
        let (bytes, ..) = head;
        let cut = cut % bytes.len();
        prop_assert_eq!(parse_request_head(&bytes[..cut]), Err(HeadError::Incomplete));
        let mut flipped = bytes.clone();
        flipped[at % bytes.len()] = byte;
        check(&flipped)?;
    }
}

/// Each refusal names its cause.
#[test]
fn refusals_are_typed() {
    let parse = parse_request_head;
    assert_eq!(
        parse(b"POST /metrics HTTP/1.1\r\n\r\n"),
        Err(HeadError::MethodNotAllowed)
    );
    assert_eq!(
        parse(b"get / HTTP/1.1\r\n\r\n"),
        Err(HeadError::MethodNotAllowed)
    );
    for malformed in [
        &b"GET\r\n\r\n"[..],
        b"\r\n\r\n",
        b"\xff /x HTTP/1.1\r\n\r\n",
    ] {
        assert_eq!(parse(malformed), Err(HeadError::MalformedRequestLine));
    }
    assert_eq!(
        parse(b"GET /metrics HTTP/1.1\r\nHost: x"),
        Err(HeadError::Incomplete)
    );
    let mut long = b"GET /metrics HTTP/1.1\r\nX-Padding: ".to_vec();
    long.resize(MAX_HEAD + 1, b'a');
    assert_eq!(parse(&long), Err(HeadError::Oversized));
    long.extend_from_slice(b"\r\n\r\n");
    assert_eq!(
        parse(&long),
        Ok(RequestHead {
            method: Method::Get,
            path: "/metrics",
            query: None
        })
    );
    assert_eq!(
        parse(b"HEAD /events?since=3&wait=1?x HTTP/1.1\r\n\r\n"),
        Ok(RequestHead {
            method: Method::Head,
            path: "/events",
            query: Some("since=3&wait=1?x")
        })
    );
}
