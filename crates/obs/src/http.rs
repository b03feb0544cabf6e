//! A minimal `std::net` HTTP/1.1 endpoint serving the metrics registry
//! and the event journal.
//!
//! Routes:
//!
//! * `GET /metrics` — the registry as Prometheus text exposition format;
//! * `GET /metrics/json` — the registry as JSONL;
//! * `GET /events?since=SEQ` — journal events at or after `SEQ` as a JSON
//!   object with an explicit `dropped` count and a `next_seq` cursor;
//! * `GET /trace?since=SEQ` — wait-attribution spans at or after `SEQ` as
//!   JSONL, ending with a `{"summary":...}` line of per-phase percentiles
//!   (p50/p99/p999) over the returned request spans.
//!
//! On `/events` and `/trace` an absent `since=` reads as 0 (the full
//! ring); a present-but-malformed value (non-numeric, negative, overflow)
//! is a 400 naming the bad text, never silently treated as 0.
//!
//! The server is deliberately tiny: one accept thread, one short-lived
//! handler thread per connection, `Connection: close` on every response.
//! At most [`MAX_HANDLERS`] handlers run at once; a connection past the
//! cap gets an immediate `503` from the accept thread, so a connect flood
//! costs a bounded number of threads.
//! It exists to be scraped by `curl`/Prometheus during a live run, not to
//! be a web framework. Serving is entirely off the broadcast hot path —
//! a scrape snapshots the registry under a registry lock held only by
//! registration (never by recording).

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::expo::{render_event_batch_json, render_jsonl, render_prometheus};
use crate::journal::journal;
use crate::trace::{render_span_batch, spans};

/// A running metrics HTTP server. Dropping it (or calling
/// [`MetricsServer::stop`]) shuts the listener down.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`) and starts serving.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("obs-http".into())
            .spawn(move || accept_loop(listener, accept_stop))
            .expect("spawn obs-http thread");
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Most connection handlers in flight at once. Scrapers are few and a
/// request takes milliseconds; the cap only matters under a flood (a
/// handler waits up to its 5 s read timeout on a silent peer).
pub const MAX_HANDLERS: usize = 16;

/// One in-flight handler's claim on the cap, released when it drops.
struct HandlerSlot(Arc<AtomicUsize>);

impl Drop for HandlerSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, stop: Arc<AtomicBool>) {
    let in_flight = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Claimed here, on the accept thread, so the count is exact when
        // the next connection is accepted.
        if in_flight.fetch_add(1, Ordering::SeqCst) >= MAX_HANDLERS {
            in_flight.fetch_sub(1, Ordering::SeqCst);
            reject_busy(stream);
            continue;
        }
        let slot = HandlerSlot(Arc::clone(&in_flight));
        // Short-lived handler; a hung client can't wedge the accept loop.
        let _ = std::thread::Builder::new()
            .name("obs-http-conn".into())
            .spawn(move || {
                let _slot = slot;
                handle_connection(stream)
            });
    }
}

/// Answers a connection past the handler cap with `503` without reading
/// its request. The response and FIN go out before the socket closes, so
/// the client reads the whole answer even if its request arrives later.
fn reject_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    respond(
        &mut stream,
        503,
        "text/plain; charset=utf-8",
        "busy: too many connections\n",
    );
    let _ = stream.shutdown(Shutdown::Write);
}

fn handle_connection(stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers until the blank line; we only route on the request line.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let mut stream = stream;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => {
            let body = render_prometheus();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/metrics/json" => {
            let body = render_jsonl();
            respond(&mut stream, 200, "application/json; charset=utf-8", &body);
        }
        "/events" => match since_param(query) {
            Ok(since) => {
                let body = render_event_batch_json(&journal().since(since));
                respond(&mut stream, 200, "application/json; charset=utf-8", &body);
            }
            Err(bad) => respond_bad_since(&mut stream, bad),
        },
        "/trace" => match since_param(query) {
            Ok(since) => {
                let body = render_span_batch(&spans().since(since));
                respond(&mut stream, 200, "application/json; charset=utf-8", &body);
            }
            Err(bad) => respond_bad_since(&mut stream, bad),
        },
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

/// Parses `since=SEQ` out of a query string. An *absent* parameter (no
/// query, no `since=` key) reads as 0 — the full ring — so a bare scrape
/// still gets an answer. A *present but malformed* value (non-numeric,
/// negative, overflow) is an error carrying the offending text: silently
/// reading it as 0 used to hand a buggy scraper the whole ring and hide
/// its cursor bug.
fn since_param(query: Option<&str>) -> Result<u64, String> {
    let Some(raw) = query.and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("since=")))
    else {
        return Ok(0);
    };
    raw.parse::<u64>().map_err(|_| raw.to_string())
}

/// 400 response for a malformed `since=` cursor, echoing the bad value.
fn respond_bad_since(stream: &mut TcpStream, bad: String) {
    let body = format!("bad since parameter: {bad:?} is not a u64\n");
    respond(stream, 400, "text/plain; charset=utf-8", &body);
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_events_and_404() {
        let _g = crate::test_switch_guard();
        let c = crate::registry::counter("obs_test_http_total", "http test counter");
        c.add(3);
        crate::set_tracing_enabled(true);
        crate::journal::event(crate::journal::EventKind::SlotTick, 1, 2);
        crate::set_tracing_enabled(false);

        let mut server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("# TYPE obs_test_http_total counter"),
            "{body}"
        );

        let (status, body) = get(addr, "/metrics/json");
        assert_eq!(status, 200);
        assert!(body.contains("\"name\":\"obs_test_http_total\""), "{body}");

        let (status, body) = get(addr, "/events?since=0");
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"dropped\":"), "{body}");
        assert!(body.contains("\"kind\":\"slot_tick\""), "{body}");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.stop();
    }

    #[test]
    fn handlers_past_the_cap_get_a_prompt_503() {
        let mut server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();
        // Silent peers: each holds a handler until its read timeout.
        let idle: Vec<TcpStream> = (0..MAX_HANDLERS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let start = std::time::Instant::now();
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 503, "{body}");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "503 took {:?}",
            start.elapsed()
        );
        // Hung-up peers free their handlers; the server serves again.
        drop(idle);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let (status, _) = get(addr, "/metrics");
            if status == 200 {
                break;
            }
            assert_eq!(status, 503);
            assert!(std::time::Instant::now() < deadline, "cap never freed");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.stop();
    }

    #[test]
    fn serves_trace_spans_with_summary() {
        let _g = crate::test_switch_guard();
        crate::trace::record_request(
            9001,
            0,
            4.0,
            crate::trace::attribute_wait(10.0, 14.0, 14.0, 14.0, 14.0),
        );

        let mut server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let (status, body) = get(server.addr(), "/trace?since=0");
        assert_eq!(status, 200);
        assert!(body.contains("\"client\":9001"), "{body}");
        let last = body.lines().last().unwrap();
        assert!(last.starts_with("{\"summary\":"), "{body}");
        assert!(last.contains("\"p999\":"), "{body}");
        server.stop();
    }

    #[test]
    fn unknown_paths_are_404_without_side_effects() {
        let _g = crate::test_switch_guard();
        let mut server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();
        for target in ["/", "/metric", "/metrics/", "/events/extra", "/trace/x"] {
            let (status, body) = get(addr, target);
            assert_eq!(status, 404, "{target} should 404");
            assert_eq!(body, "not found\n");
        }
        // The server survives the 404s and still serves real routes.
        let (status, _) = get(addr, "/metrics");
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn absent_since_defaults_and_malformed_since_is_rejected() {
        let _g = crate::test_switch_guard();
        // Absent: no query, no since= key, other keys only → 0 (full ring).
        assert_eq!(since_param(None), Ok(0));
        assert_eq!(since_param(Some("")), Ok(0));
        assert_eq!(since_param(Some("other=5")), Ok(0));
        // Well-formed values parse, including amid other keys.
        assert_eq!(since_param(Some("since=17")), Ok(17));
        assert_eq!(since_param(Some("a=1&since=8&b=2")), Ok(8));
        assert_eq!(
            since_param(Some(&format!("since={}", u64::MAX))),
            Ok(u64::MAX)
        );
        // Present but malformed: empty, non-numeric, negative, float
        // notation, and u64 overflow are all errors carrying the raw text.
        assert_eq!(since_param(Some("since=")), Err(String::new()));
        assert_eq!(since_param(Some("since=banana")), Err("banana".into()));
        assert_eq!(since_param(Some("since=-3")), Err("-3".into()));
        assert_eq!(since_param(Some("since=1e3")), Err("1e3".into()));
        assert_eq!(
            since_param(Some("since=18446744073709551616")),
            Err("18446744073709551616".into())
        );

        // End to end: malformed cursors are 400 on both journal routes; an
        // absent cursor still serves the whole ring.
        crate::set_tracing_enabled(true);
        crate::journal::event(crate::journal::EventKind::SlotTick, 5, 6);
        crate::set_tracing_enabled(false);
        let mut server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();
        for target in [
            "/events?since=banana",
            "/events?since=-3",
            "/events?since=99999999999999999999",
            "/trace?since=1e3",
        ] {
            let (status, body) = get(addr, target);
            assert_eq!(status, 400, "{target} should 400");
            assert!(body.starts_with("bad since parameter:"), "{body}");
        }
        let (status, body) = get(addr, "/events");
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"dropped\":"), "{body}");
        assert!(body.contains("\"next_seq\":"), "{body}");
        // The server survives the 400s and still serves /trace.
        let (status, _) = get(addr, "/trace?since=0");
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn empty_journal_reads_are_well_formed() {
        // `/events` far past the head and `/trace` far past the head both
        // return empty, well-formed batches (no panic, no negative counts).
        let _g = crate::test_switch_guard();
        let mut server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, &format!("/events?since={}", u64::MAX));
        assert_eq!(status, 200);
        assert!(body.contains("\"events\":[]"), "{body}");

        let (status, body) = get(addr, &format!("/trace?since={}", u64::MAX));
        assert_eq!(status, 200);
        let last = body.lines().last().unwrap();
        assert!(
            last.contains("\"request_spans\":0,\"stage_spans\":0"),
            "{body}"
        );
        server.stop();
    }
}
