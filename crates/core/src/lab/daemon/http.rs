//! HTTP/1.1 request framing for the daemon.
//!
//! The [`reactor`](super::reactor) parses heads incrementally out of a
//! per-connection byte buffer (partial reads are the normal case on a
//! nonblocking socket) and classifies hostile framing through one
//! [`FrameError`], so a client sees one clean status code and message
//! per failure — `431` for an oversized head, `413` for an oversized
//! body, `400` for a garbled or conflicting `Content-Length`, `408` for
//! a request that never finishes arriving.

use std::borrow::Cow;
use std::fmt;
use std::io::Write;

/// Most bytes a request head (request line + headers) may occupy.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Most bytes a request or response body may occupy (a big batch of
/// outcomes fits comfortably; a runaway client does not).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Why a request could not be framed, each mapping to one clean HTTP
/// status.
#[derive(Debug)]
pub enum FrameError {
    /// Head exceeded [`MAX_HEAD_BYTES`] → `431`.
    HeadTooLarge,
    /// Declared body exceeds [`MAX_BODY_BYTES`] → `413`.
    BodyTooLarge,
    /// A `Content-Length` that is not an unsigned integer, or two that
    /// disagree → `400`.
    BadContentLength,
    /// The head did not complete within the read deadline → `408`
    /// (the slow-loris case).
    Timeout,
}

impl FrameError {
    /// The HTTP status and message this framing failure answers with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            FrameError::HeadTooLarge => (431, "request head exceeds 8KB"),
            FrameError::BodyTooLarge => (413, "request body exceeds 8MB"),
            FrameError::BadContentLength => (400, "Content-Length is not an unsigned integer"),
            FrameError::Timeout => (408, "request head timed out"),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One parsed request head. Its method and path borrow the parsed bytes
/// (they are copied only out of a head that is not valid UTF-8).
#[derive(Debug)]
pub struct Head<'a> {
    /// Request method (`GET`, `POST`, ...).
    pub method: Cow<'a, str>,
    /// Request path (`/v1/lab`, ...).
    pub path: Cow<'a, str>,
    /// Declared body length (0 when the header is absent).
    pub content_length: usize,
    /// False iff the first `Connection` header says `close`.
    pub keep_alive: bool,
}

/// Try to parse one complete head from the front of `buf`.
///
/// Returns `Ok(Some((head, consumed)))` when a full head (terminated by
/// a blank line) is present, `Ok(None)` when more bytes are needed, and
/// a [`FrameError`] when the bytes can never become a valid head.
/// Header names match case-insensitively and values are trimmed; the
/// first `Connection` header wins, and every `Content-Length` header
/// must carry the same unsigned integer.
pub fn parse_head(buf: &[u8]) -> Result<Option<(Head<'_>, usize)>, FrameError> {
    let Some(end) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(FrameError::HeadTooLarge);
        }
        return Ok(None);
    };
    if end > MAX_HEAD_BYTES {
        return Err(FrameError::HeadTooLarge);
    }
    // Heads are ASCII in practice; lossy decoding keeps a garbled one
    // parseable enough to answer 400 instead of hanging up.
    let head = match String::from_utf8_lossy(&buf[..end]) {
        Cow::Borrowed(text) => parse_text(text)?,
        Cow::Owned(text) => {
            let head = parse_text(&text)?;
            Head {
                method: Cow::Owned(head.method.into_owned()),
                path: Cow::Owned(head.path.into_owned()),
                ..head
            }
        }
    };
    Ok(Some((head, end)))
}

/// Parse a complete head's text.
fn parse_text(text: &str) -> Result<Head<'_>, FrameError> {
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut content_length = None;
    let mut connection = None;
    for line in lines.take_while(|l| !l.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let length: usize = value.parse().map_err(|_| FrameError::BadContentLength)?;
            if content_length.is_some_and(|first| first != length) {
                return Err(FrameError::BadContentLength);
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("connection") && connection.is_none() {
            connection = Some(value);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(FrameError::BodyTooLarge);
    }
    Ok(Head {
        method: Cow::Borrowed(method),
        path: Cow::Borrowed(path),
        content_length,
        keep_alive: !connection.is_some_and(|v| v.eq_ignore_ascii_case("close")),
    })
}

/// Byte offset one past the head terminator (`\r\n\r\n`, or the bare
/// `\n\n` a sloppy client sends), if present.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf[i + 1..].starts_with(b"\r\n") {
                return Some(i + 3);
            }
            if buf[i + 1..].starts_with(b"\n") {
                return Some(i + 2);
            }
        }
        i += 1;
    }
    None
}

/// Render a full response (status line + headers + body) into `out`.
pub fn render_response(out: &mut Vec<u8>, status: u16, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    out.reserve(body.len() + 96);
    // writing into a Vec cannot fail
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_parse_incrementally() {
        let msg = b"POST /v1/lab HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        // every proper prefix of the head is "need more bytes"
        let head_len = msg.len() - 5;
        for cut in 0..head_len {
            assert!(
                parse_head(&msg[..cut]).expect("prefix parses").is_none(),
                "cut at {cut}"
            );
        }
        let (head, consumed) = parse_head(msg).expect("parses").expect("complete");
        assert_eq!(consumed, head_len);
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/v1/lab");
        assert_eq!(head.content_length, 5);
        assert!(head.keep_alive);
    }

    #[test]
    fn bare_lf_terminators_and_close_are_recognized() {
        let msg = b"GET /v1/stats HTTP/1.1\nConnection: close\n\n";
        let (head, consumed) = parse_head(msg).expect("parses").expect("complete");
        assert_eq!(consumed, msg.len());
        assert_eq!(head.method, "GET");
        assert_eq!(head.content_length, 0);
        assert!(!head.keep_alive);
    }

    #[test]
    fn hostile_framing_classifies_to_clean_statuses() {
        // oversized head: no terminator within the cap
        let big = vec![b'a'; MAX_HEAD_BYTES + 2];
        assert!(matches!(parse_head(&big), Err(FrameError::HeadTooLarge)));
        // oversized declared body
        let huge = format!(
            "POST /v1/lab HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_head(huge.as_bytes()),
            Err(FrameError::BodyTooLarge)
        ));
        // garbled Content-Length
        let garbled = b"POST /v1/lab HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
        assert!(matches!(
            parse_head(garbled),
            Err(FrameError::BadContentLength)
        ));
        assert_eq!(FrameError::HeadTooLarge.status().0, 431);
        assert_eq!(FrameError::BodyTooLarge.status().0, 413);
        assert_eq!(FrameError::BadContentLength.status().0, 400);
        assert_eq!(FrameError::Timeout.status().0, 408);
    }

    #[test]
    fn header_names_match_in_any_case_and_values_are_trimmed() {
        let msg =
            b"POST /v1/lab HTTP/1.1\r\ncOnTeNt-LeNgTh:   12 \t\r\nCONNECTION:\tClose  \r\n\r\n";
        let (head, consumed) = parse_head(msg).expect("parses").expect("complete");
        assert_eq!(consumed, msg.len());
        assert_eq!(head.content_length, 12);
        assert!(!head.keep_alive);
    }

    #[test]
    fn the_first_connection_header_wins() {
        let close_first =
            b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n";
        let (head, _) = parse_head(close_first).expect("parses").expect("complete");
        assert!(!head.keep_alive);
        let close_second =
            b"GET /v1/stats HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n";
        let (head, _) = parse_head(close_second).expect("parses").expect("complete");
        assert!(head.keep_alive);
    }

    #[test]
    fn bare_lf_heads_parse_their_headers() {
        let msg = b"POST /v1/lab HTTP/1.1\nContent-Length: 3\nConnection: close\n\nabc";
        let (head, consumed) = parse_head(msg).expect("parses").expect("complete");
        assert_eq!(consumed, msg.len() - 3);
        assert_eq!((&*head.method, &*head.path), ("POST", "/v1/lab"));
        assert_eq!(head.content_length, 3);
        assert!(!head.keep_alive);
    }

    #[test]
    fn conflicting_content_lengths_are_refused_and_identical_repeats_accepted() {
        let conflicting =
            b"POST /v1/lab HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n";
        assert!(matches!(
            parse_head(conflicting),
            Err(FrameError::BadContentLength)
        ));
        // a garbled repeat is refused too, not ignored behind a good first
        let garbled_repeat =
            b"POST /v1/lab HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: x\r\n\r\n";
        assert!(matches!(
            parse_head(garbled_repeat),
            Err(FrameError::BadContentLength)
        ));
        let repeated = b"POST /v1/lab HTTP/1.1\r\nContent-Length: 5\r\ncontent-length:5\r\n\r\n";
        let (head, _) = parse_head(repeated).expect("parses").expect("complete");
        assert_eq!(head.content_length, 5);
    }

    #[test]
    fn a_head_that_is_not_utf8_still_parses() {
        let msg = b"GET /v1/\xffstats HTTP/1.1\r\n\r\n";
        let (head, consumed) = parse_head(msg).expect("parses").expect("complete");
        assert_eq!(consumed, msg.len());
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/v1/\u{fffd}stats");
        assert!(head.keep_alive);
    }

    #[test]
    fn responses_render_with_exact_framing() {
        let mut out = Vec::new();
        render_response(&mut out, 200, "{\"v\":1}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"v\":1}"));
        for (status, reason) in [
            (400, "Bad Request"),
            (408, "Request Timeout"),
            (413, "Payload Too Large"),
            (431, "Request Header Fields Too Large"),
            (503, "Service Unavailable"),
        ] {
            let mut out = Vec::new();
            render_response(&mut out, status, "");
            assert!(String::from_utf8(out)
                .unwrap()
                .starts_with(&format!("HTTP/1.1 {status} {reason}\r\n")));
        }
    }
}
