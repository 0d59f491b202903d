//! A hand-rolled HTTP/1.1 subset over any `BufRead`/`Write` pair.
//!
//! The daemon honors the workspace's no-registry constraint, so this is
//! the whole protocol layer: request parsing with hard limits (header
//! block and body size caps), `Content-Length` bodies, keep-alive and
//! pipelining (requests are framed by `Content-Length`, so back-to-back
//! requests in one TCP segment parse naturally), and a deterministic
//! response writer. Chunked transfer encoding is deliberately rejected
//! with `501` — no client of this API needs it, and refusing beats
//! half-implementing a framing format.
//!
//! Every parse failure maps to a well-defined response via
//! [`HttpError::response`], so a malformed client hears *why* instead of
//! a dropped connection.

use std::io::{self, BufRead, Write};

/// Cap on the request line + header block, bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Cap on a request body, bytes.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included, percent-encoding untouched.
    pub path: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an
    /// explicit `Connection` header overrides either way.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(c) if c.contains("close") => false,
            Some(c) if c.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before the first request byte (normal keep-alive close).
    Closed,
    /// The socket failed mid-read (includes read timeouts).
    Io(io::Error),
    /// The request line was not `METHOD SP PATH SP HTTP/1.x`.
    BadRequestLine(String),
    /// A header line had no `:` separator or a malformed name.
    BadHeader(String),
    /// Request line + headers exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// `Content-Length` was present but not a valid integer.
    BadContentLength(String),
    /// `Content-Length` exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// The connection closed before `Content-Length` bytes arrived.
    TruncatedBody {
        /// Bytes promised by `Content-Length`.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// An `HTTP/` version other than 1.0/1.1.
    UnsupportedVersion(String),
    /// `Transfer-Encoding: chunked` (not supported by this server).
    ChunkedUnsupported,
}

impl HttpError {
    /// The response this error deserves, when one can still be sent
    /// (`Closed`/`Io` get none — there is no one to talk to).
    pub fn response(&self) -> Option<Response> {
        let (status, msg) = match self {
            HttpError::Closed | HttpError::Io(_) => return None,
            HttpError::BadRequestLine(l) => (400, format!("malformed request line: {l:?}")),
            HttpError::BadHeader(l) => (400, format!("malformed header: {l:?}")),
            HttpError::HeadersTooLarge => (
                431,
                format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
            ),
            HttpError::BadContentLength(v) => (400, format!("invalid content-length: {v:?}")),
            HttpError::BodyTooLarge(n) => {
                (413, format!("body of {n} bytes exceeds {MAX_BODY_BYTES}"))
            }
            HttpError::TruncatedBody { expected, got } => (
                400,
                format!("body truncated: content-length {expected}, received {got}"),
            ),
            HttpError::UnsupportedVersion(v) => (505, format!("unsupported version {v:?}")),
            HttpError::ChunkedUnsupported => (
                501,
                "chunked transfer encoding is not supported".to_string(),
            ),
        };
        Some(Response::error_json(status, &msg))
    }
}

/// Reads one request off `r`.
///
/// # Errors
/// [`HttpError::Closed`] on clean EOF at a request boundary; every other
/// variant describes a protocol violation or transport failure.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut header_bytes = 0usize;
    let request_line = read_line(r, &mut header_bytes, true)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => {
            (m.to_string(), p.to_string(), v.to_string())
        }
        _ => return Err(HttpError::BadRequestLine(request_line)),
    };
    let http11 = match version.as_str() {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::UnsupportedVersion(version)),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut header_bytes, false)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadHeader(line));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader(line));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let req = Request {
        method,
        path,
        http11,
        headers,
        body: Vec::new(),
    };
    if req
        .header("transfer-encoding")
        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
    {
        return Err(HttpError::ChunkedUnsupported);
    }
    let len = match req.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadContentLength(v.to_string()))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(len));
    }
    let mut body = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(HttpError::TruncatedBody { expected: len, got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(Request { body, ..req })
}

/// Reads one CRLF (or bare-LF) terminated line, enforcing the header cap.
/// `at_start` distinguishes a clean keep-alive close from a truncation.
fn read_line(
    r: &mut impl BufRead,
    header_bytes: &mut usize,
    at_start: bool,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if at_start && line.is_empty() {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::BadRequestLine(
                        String::from_utf8_lossy(&line).into_owned(),
                    ))
                };
            }
            Ok(_) => {
                *header_bytes += 1;
                if *header_bytes > MAX_HEADER_BYTES {
                    return Err(HttpError::HeadersTooLarge);
                }
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line).map_err(|e| {
                        HttpError::BadHeader(String::from_utf8_lossy(e.as_bytes()).into_owned())
                    });
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// An outgoing response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers, e.g. `Retry-After`.
    pub extra_headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A `{"status":"error","error":...}` JSON body.
    pub fn error_json(status: u16, msg: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"status\":\"error\",\"error\":\"{}\"}}",
                crate::json::escape(msg)
            ),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// Serializes the response; `keep_alive` controls the `Connection`
    /// header (the server closes after writing when it is false). The
    /// status line, headers and body go out in one `write_all`, so a
    /// `TCP_NODELAY` socket sends one segment burst, not one per line.
    ///
    /// # Errors
    /// Propagates transport failures.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut buf = Vec::with_capacity(128 + self.body.len());
        write!(
            buf,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.extra_headers {
            write!(buf, "{name}: {value}\r\n")?;
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&self.body);
        w.write_all(&buf)?;
        w.flush()
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// A minimal client-side response reader (for `cce-load` and tests):
/// returns `(status, body)`.
///
/// # Errors
/// Same taxonomy as [`read_request`], reinterpreted for responses.
pub fn read_response(r: &mut impl BufRead) -> Result<(u16, Vec<u8>), HttpError> {
    let mut header_bytes = 0usize;
    let status_line = read_line(r, &mut header_bytes, true)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::BadRequestLine(status_line.clone()))?;
    let mut content_length = 0usize;
    loop {
        let line = read_line(r, &mut header_bytes, false)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::BadContentLength(value.to_string()))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    let mut got = 0usize;
    while got < content_length {
        match r.read(&mut body[got..]) {
            Ok(0) => {
                return Err(HttpError::TruncatedBody {
                    expected: content_length,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records every `write` call.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_goes_out_in_one_write() {
        let resp = Response::json(429, "{\"status\":\"shed\"}".to_string())
            .with_header("Retry-After", "1".to_string());
        let mut w = CountingWriter::default();
        resp.write_to(&mut w, true).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            String::from_utf8(w.bytes).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: 17\r\nConnection: keep-alive\r\nRetry-After: 1\r\n\r\n\
             {\"status\":\"shed\"}"
        );
    }
}
