//! End-to-end tests of the serve front end: golden NDJSON round-trips
//! over the stdio loop, protocol error paths, cross-request cache
//! reuse observed through the `stats` op, bounded-cache eviction under
//! a sweep of distinct patterns, concurrent TCP sessions, the
//! production bounds (read/compute deadlines, the slow-loris reap, the
//! connection cap), snapshot warm boots, and a `raco loadgen` smoke
//! run against the real binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use raco::driver::json::Json;
use raco::driver::{CachePolicy, Parallelism, PipelineConfig};
use raco::ir::AguSpec;
use raco::serve::{ServeOptions, Server};

fn default_server() -> Server {
    Server::new(PipelineConfig::new(AguSpec::new(4, 1).unwrap()))
}

/// Runs NDJSON `requests` through the blocking stdio loop and returns
/// one parsed response per request line.
fn round_trip(server: &Server, requests: &str) -> Vec<Json> {
    let mut output = Vec::new();
    server
        .serve(BufReader::new(requests.as_bytes()), &mut output)
        .expect("in-memory transport cannot fail");
    String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| Json::parse(line).expect("every response line is valid JSON"))
        .collect()
}

fn ok(response: &Json) -> bool {
    response.get("ok") == Some(&Json::Bool(true))
}

#[test]
fn golden_stdio_round_trip() {
    let server = default_server();
    let responses = round_trip(
        &server,
        concat!(
            r#"{"id": 1, "op": "ping"}"#,
            "\n\n", // blank lines are skipped
            r#"{"id": 2, "op": "compile", "name": "fir3", "source": "for (i = 1; i < 100; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }"}"#,
            "\n",
            r#"{"id": 3, "op": "kernels", "kernel": "paper_example"}"#,
            "\n",
            r#"{"id": 4, "op": "shutdown"}"#,
            "\n",
        ),
    );
    assert_eq!(responses.len(), 4);
    assert!(
        responses[0]
            .render()
            .starts_with(r#"{"id":1,"ok":true,"pong":true,"elapsed_us":"#),
        "{}",
        responses[0].render()
    );

    let report = responses[1].get("report").expect("compile report");
    assert_eq!(report.get("loops").and_then(Json::as_u64), Some(1));
    assert_eq!(report.get("failed").and_then(Json::as_u64), Some(0));
    let unit = match report.get("units") {
        Some(Json::Arr(units)) => &units[0],
        other => panic!("units array expected, got {other:?}"),
    };
    assert_eq!(unit.get("name").and_then(Json::as_str), Some("fir3"));

    let kernel_report = responses[2].get("report").expect("kernel report");
    assert_eq!(kernel_report.get("failed").and_then(Json::as_u64), Some(0));

    assert!(
        responses[3]
            .render()
            .starts_with(r#"{"id":4,"ok":true,"shutdown":true,"elapsed_us":"#),
        "{}",
        responses[3].render()
    );

    // Every response line carries its end-to-end wall time.
    for response in &responses {
        assert!(
            response.get("elapsed_us").is_some(),
            "missing elapsed_us: {response:?}"
        );
    }
}

#[test]
fn metrics_round_trip_reports_request_and_stage_latency() {
    let server = default_server();
    let compile = r#"{"op": "compile", "source": "for (i = 0; i < 32; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }"}"#;
    let script = format!("{compile}\n{compile}\n{}\n", r#"{"op":"metrics","id":"m"}"#);
    let responses = round_trip(&server, &script);
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(ok));

    let metrics = responses[2].get("metrics").expect("metrics payload");
    assert!(metrics.get("uptime_ms").and_then(Json::as_u64).is_some());
    assert_eq!(
        metrics
            .get("requests")
            .and_then(|r| r.get("by_op"))
            .and_then(|o| o.get("compile"))
            .and_then(Json::as_u64),
        Some(2)
    );

    // End-to-end compile latency: both requests counted, quantiles sane.
    let compile_latency = metrics
        .get("latency_us")
        .and_then(|l| l.get("compile"))
        .expect("compile latency");
    assert_eq!(compile_latency.get("count").and_then(Json::as_u64), Some(2));
    let us = |field: &str| match compile_latency.get(field) {
        Some(Json::Num(n)) => *n,
        Some(Json::UInt(u)) => *u as f64,
        Some(Json::Int(i)) => *i as f64,
        other => panic!("{field} must be a number, got {other:?}"),
    };
    let (p50, p99) = (us("p50_us"), us("p99_us"));
    assert!(p50 > 0.0, "a real compile takes measurable time");
    assert!(p99 >= p50);

    // The compiles above exercised the pipeline, so per-stage timings
    // accumulated under their global names.
    let pipeline = metrics.get("pipeline_us").expect("pipeline stages");
    for stage in ["pipeline.parse", "pipeline.codegen", "pipeline.simulate"] {
        assert!(
            pipeline
                .get(stage)
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                >= 2,
            "{stage} must have accumulated two compiles"
        );
    }

    // Cache rates ride along: the second identical compile hit.
    let cache = metrics.get("cache").expect("cache rates");
    assert!(cache.get("allocation_hits").and_then(Json::as_u64).unwrap() > 0);
    assert!(cache.get("hit_rate").is_some());
}

#[test]
fn shutdown_stops_the_loop_before_later_requests() {
    let server = default_server();
    let responses = round_trip(
        &server,
        "{\"op\":\"shutdown\"}\n{\"op\":\"ping\",\"id\":\"never\"}\n",
    );
    assert_eq!(responses.len(), 1, "nothing is served after shutdown");
}

#[test]
fn malformed_requests_get_error_responses_and_do_not_kill_the_session() {
    let server = default_server();
    let responses = round_trip(
        &server,
        concat!(
            "this is not json\n",
            r#"{"op": "compile", "id": 7}"#,
            "\n",
            r#"{"op": "compile", "id": 8, "source": "for (i = 0; i++) {"}"#,
            "\n",
            r#"{"op": "ping", "id": 9}"#,
            "\n",
        ),
    );
    assert_eq!(responses.len(), 4);
    assert!(!ok(&responses[0]));
    assert!(responses[0]
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("invalid JSON"));
    assert!(!ok(&responses[1]));
    assert_eq!(responses[1].get("id").and_then(Json::as_u64), Some(7));
    assert!(!ok(&responses[2]), "parse errors surface as responses");
    assert!(ok(&responses[3]), "the session survives all of it");
}

#[test]
fn over_maximum_iterations_fail_one_request_and_the_session_continues() {
    use raco::driver::MAX_VALIDATION_ITERATIONS;
    let server = default_server();
    let source = "for (i = 0; i < 64; i++) { y[i] = x[i] + x[i+1]; }";
    let too_many = MAX_VALIDATION_ITERATIONS + 1;
    let requests = format!(
        "{{\"id\": 1, \"op\": \"compile\", \"source\": \"{source}\", \"iterations\": {too_many}}}\n\
         {{\"id\": 2, \"op\": \"compile\", \"source\": \"{source}\", \"iterations\": 16}}\n"
    );
    let responses = round_trip(&server, &requests);
    assert_eq!(responses.len(), 2, "one reply per request");
    assert!(!ok(&responses[0]));
    assert_eq!(responses[0].get("id").and_then(Json::as_u64), Some(1));
    let error = responses[0].get("error").and_then(Json::as_str).unwrap();
    assert!(
        error.contains("iterations") && error.contains(&MAX_VALIDATION_ITERATIONS.to_string()),
        "{error}"
    );
    assert!(
        ok(&responses[1]),
        "the next request on the session compiles"
    );
    assert_eq!(responses[1].get("id").and_then(Json::as_u64), Some(2));
}

#[test]
fn oversized_request_lines_error_without_killing_the_session() {
    use raco::serve::MAX_REQUEST_LINE;
    let server = default_server();
    // A single line well past the cap (a comment keeps it lexically
    // plausible so only the length can be at fault), framed by normal
    // requests that must both be served.
    let oversized = format!(
        r#"{{"op":"compile","source":"// {}"}}"#,
        "x".repeat(MAX_REQUEST_LINE + 1024)
    );
    let script = format!(
        "{}\n{}\n{}\n",
        r#"{"op":"ping","id":"before"}"#, oversized, r#"{"op":"ping","id":"after"}"#
    );
    let responses = round_trip(&server, &script);
    assert_eq!(
        responses.len(),
        3,
        "one response per line, oversized included"
    );
    assert!(ok(&responses[0]));
    assert!(!ok(&responses[1]), "oversized line is an error response");
    let message = responses[1].get("error").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("exceeds") && message.contains("limit"),
        "error names the limit: {message}"
    );
    assert!(ok(&responses[2]), "the session survives the oversized line");
}

#[test]
fn oversized_tcp_lines_leave_the_connection_usable() {
    use raco::serve::MAX_REQUEST_LINE;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        // Scoped so both socket handles close before shutdown: the
        // server's scoped connection threads only exit at end of input.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let huge = "y".repeat(MAX_REQUEST_LINE + 1);
            writeln!(stream, "{huge}").unwrap();
            writeln!(stream, r#"{{"op":"ping","id":"still-alive"}}"#).unwrap();
            stream.flush().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let responses: Vec<Json> = reader
                .lines()
                .take(2)
                .map(|line| Json::parse(&line.expect("read")).expect("valid JSON"))
                .collect();
            assert!(!ok(&responses[0]));
            assert!(ok(&responses[1]), "same connection keeps serving");
        }

        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        bye.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&bye).read_line(&mut line).unwrap();
        handle.join().expect("server thread").expect("clean exit");
    });
}

/// A compile request whose source nests `levels` parentheses.
fn deeply_parenthesized(id: u64, levels: usize) -> String {
    let source = format!(
        "for (i = 0; i < 4; i++) {{ s += {}x[i]{}; }}",
        "(".repeat(levels),
        ")".repeat(levels)
    );
    format!(
        r#"{{"id":{id},"op":"compile","source":{}}}"#,
        Json::str(source).render()
    )
}

/// Asserts that `reply` fails its request by naming the nesting limit.
fn assert_nesting_error(reply: &Json) {
    assert!(!ok(reply), "{}", reply.render());
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(
        error.contains("nesting deeper than 128 levels"),
        "the error names the limit: {error}"
    );
}

#[test]
fn deep_nesting_fails_one_request_and_the_session_continues() {
    // Over TCP (a connection thread's stack): 3000 parentheses used to
    // overflow it and abort the whole server.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    let replies = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{}", deeply_parenthesized(1, 3000)).unwrap();
        writeln!(stream, r#"{{"op":"ping","id":2}}"#).unwrap();
        writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
        stream.flush().unwrap();
        let replies: Vec<Json> = BufReader::new(&stream)
            .lines()
            .map(|line| Json::parse(&line.expect("read")).expect("valid JSON"))
            .collect();
        handle.join().expect("server thread").expect("clean exit");
        replies
    });
    assert_eq!(replies.len(), 3, "one reply per request");
    assert_nesting_error(&replies[0]);
    assert!(ok(&replies[1]), "the same connection keeps serving");

    // Over stdio: 200 000 parentheses and a 10 000-level loop nest.
    let nest: String = (0..10_000)
        .map(|d| format!("for (i{d} = 0; i{d} < 2; i{d}++) {{ "))
        .chain(["s += x[i0];".to_owned()])
        .chain((0..10_000).map(|_| " }".to_owned()))
        .collect();
    let script = format!(
        "{}\n{}\n{}\n",
        deeply_parenthesized(3, 200_000),
        format_args!(
            r#"{{"id":4,"op":"compile","source":{}}}"#,
            Json::str(nest).render()
        ),
        r#"{"op":"ping","id":5}"#,
    );
    let replies = round_trip(&default_server(), &script);
    assert_eq!(replies.len(), 3, "one reply per request");
    assert_nesting_error(&replies[0]);
    assert_nesting_error(&replies[1]);
    assert!(ok(&replies[2]), "the session keeps serving");
}

#[test]
fn a_long_operator_chain_compiles_and_the_connection_keeps_serving() {
    // One statement of 100 000 terms (about 200 KB of JSON) used to
    // overflow a connection thread's stack and abort the whole server:
    // the parser built one tree level per operator.
    use raco::serve::MAX_REQUEST_LINE;
    let source = format!(
        "for (i = 0; i < 4; i++) {{ y[i] = x[i]{}; }}",
        "+1-1".repeat(50_000)
    );
    let request = format!(
        r#"{{"id":1,"op":"compile","source":{}}}"#,
        Json::str(source).render()
    );
    assert!(request.len() < MAX_REQUEST_LINE, "{} bytes", request.len());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    let replies = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{request}").unwrap();
        writeln!(stream, r#"{{"op":"ping","id":2}}"#).unwrap();
        writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
        stream.flush().unwrap();
        let replies: Vec<Json> = BufReader::new(&stream)
            .lines()
            .map(|line| Json::parse(&line.expect("read")).expect("valid JSON"))
            .collect();
        handle.join().expect("server thread").expect("clean exit");
        replies
    });
    assert_eq!(replies.len(), 3, "one reply per request");
    assert!(ok(&replies[0]), "{}", replies[0].render());
    assert_eq!(replies[0].get("id").and_then(Json::as_u64), Some(1));
    assert!(ok(&replies[1]), "the same connection keeps serving");
    assert_eq!(replies[1].get("id").and_then(Json::as_u64), Some(2));
}

#[test]
fn a_loop_past_the_access_limit_fails_alone_and_the_connection_keeps_serving() {
    // One statement of 16 384 reads and a write (about 115 KB): the
    // allocator's tables grow with the square of a loop's accesses, so
    // lowering refuses the loop before any of them is built.
    use raco::ir::dsl::MAX_LOOP_ACCESSES;
    use raco::serve::MAX_REQUEST_LINE;
    let source = format!(
        "for (i = 0; i < 4; i++) {{ y[i] = {}; }}",
        vec!["x[i]"; MAX_LOOP_ACCESSES].join(" + ")
    );
    let request = format!(
        r#"{{"id":1,"op":"compile","source":{}}}"#,
        Json::str(source).render()
    );
    assert!(request.len() < MAX_REQUEST_LINE, "{} bytes", request.len());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    let replies = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{request}").unwrap();
        writeln!(stream, r#"{{"op":"ping","id":2}}"#).unwrap();
        writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
        stream.flush().unwrap();
        let replies: Vec<Json> = BufReader::new(&stream)
            .lines()
            .map(|line| Json::parse(&line.expect("read")).expect("valid JSON"))
            .collect();
        handle.join().expect("server thread").expect("clean exit");
        replies
    });
    assert_eq!(replies.len(), 3, "one reply per request");
    assert!(!ok(&replies[0]), "{}", replies[0].render());
    assert_eq!(replies[0].get("id").and_then(Json::as_u64), Some(1));
    let error = replies[0].get("error").and_then(Json::as_str).unwrap();
    let limit = format!("more than {MAX_LOOP_ACCESSES} array accesses");
    assert!(error.contains(&limit), "the error names the limit: {error}");
    assert!(ok(&replies[1]), "the same connection keeps serving");
    assert_eq!(replies[1].get("id").and_then(Json::as_u64), Some(2));
}

/// Drops the wall-clock fields of a reply line: every `elapsed_us`, the
/// report's `loops_per_second` and the stats' `uptime_ms`.
fn without_wall_clock(line: &str) -> String {
    fn strip(json: Json) -> Json {
        match json {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(key, _)| {
                        !matches!(
                            key.as_str(),
                            "elapsed_us" | "loops_per_second" | "uptime_ms"
                        )
                    })
                    .map(|(key, value)| (key, strip(value)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.into_iter().map(strip).collect()),
            other => other,
        }
    }
    strip(Json::parse(line).expect("reply is valid JSON")).render()
}

#[test]
fn stdio_and_tcp_sessions_reply_identically() {
    use raco::serve::MAX_REQUEST_LINE;
    let script = format!(
        "{}\n\n{}\n{}\n{}\n{}\n{}\n",
        r#"{"id":1,"op":"ping"}"#,
        "{not json",
        "z".repeat(MAX_REQUEST_LINE + 1),
        r#"{"id":2,"op":"compile","name":"fir3","source":"for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }"}"#,
        r#"{"id":3,"op":"stats"}"#,
        r#"{"id":4,"op":"shutdown"}"#,
    );

    let mut stdio = Vec::new();
    default_server()
        .serve(script.as_bytes(), &mut stdio)
        .expect("in-memory transport cannot fail");
    let stdio = String::from_utf8(stdio).expect("replies are UTF-8");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    let tcp = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(script.as_bytes()).unwrap();
        // The shutdown reply ends the session, which closes the socket.
        let mut replies = String::new();
        stream.read_to_string(&mut replies).expect("read replies");
        handle.join().expect("server thread").expect("clean exit");
        replies
    });

    let stdio: Vec<String> = stdio.lines().map(without_wall_clock).collect();
    let tcp: Vec<String> = tcp.lines().map(without_wall_clock).collect();
    assert_eq!(stdio.len(), 6, "one reply per non-blank line: {stdio:#?}");
    assert_eq!(stdio, tcp);
}

/// Replaces the value of every field that varies between runs with `#`:
/// `elapsed_us` (the envelope's and the report's), `uptime_ms`,
/// `loops_per_second`, the timing numbers of `timings` rows and latency
/// histograms, and the whole `pipeline_us` object (it reads the
/// process-wide stage registry, which other tests in this binary also
/// feed). Every other byte of the line is kept.
fn mask_run_dependent(line: &str) -> String {
    const VARYING: [&str; 8] = [
        "elapsed_us",
        "uptime_ms",
        "loops_per_second",
        "total_us",
        "p50_us",
        "p95_us",
        "p99_us",
        "max_us",
    ];
    let mut line = line.to_owned();
    for key in VARYING {
        let needle = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = line[from..].find(&needle) {
            let value = from + at + needle.len();
            let len = line[value..]
                .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
                .unwrap_or(line.len() - value);
            line.replace_range(value..value + len, "#");
            from = value + 1;
        }
    }
    if let Some(at) = line.find("\"pipeline_us\":{") {
        let value = at + "\"pipeline_us\":".len();
        let mut depth = 0;
        let len = line[value..]
            .find(|c: char| {
                depth += i32::from(c == '{') - i32::from(c == '}');
                depth == 0
            })
            .expect("a closed object");
        line.replace_range(value..=value + len, "#");
    }
    line
}

/// One request per reply shape: a compile on each of the benchmark's
/// eight serve machine selections, listings (escaped newlines), timings,
/// a loop failure, a DSL error whose message carries a quote, a
/// backslash and a control character, an unknown op, a wrongly-typed
/// knob, a named kernel and the control ops, with ids of every scalar
/// type.
const GOLDEN_REQUESTS: &[&str] = &[
    r#"{"id":1,"op":"compile","name":"tap3","source":"for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1] + h[i]; }","registers":4,"modify":1}"#,
    r#"{"id":2,"op":"compile","name":"tap3","source":"for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1] + h[i]; }","registers":4,"modify":2}"#,
    r#"{"id":3,"op":"compile","name":"tap3","source":"for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1] + h[i]; }","registers":6,"modify":1}"#,
    r#"{"id":4,"op":"compile","name":"tap3","source":"for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1] + h[i]; }","registers":8,"modify":2}"#,
    r#"{"id":5,"op":"compile","name":"tap3","source":"for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1] + h[i]; }","machine":"paper"}"#,
    r#"{"id":6,"op":"compile","name":"tap3","source":"for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1] + h[i]; }","machine":"dsp56k"}"#,
    r#"{"id":7,"op":"compile","name":"tap3","source":"for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1] + h[i]; }","machine":"bwdsp"}"#,
    r#"{"id":8,"op":"compile","name":"tap3","source":"for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1] + h[i]; }","machine":"saris"}"#,
    r#"{"id":"listed","op":"compile","name":"two loops","source":"for (i = 0; i < 16; i++) { y[i] = x[i] + x[i+2]; } for (j = 2; j < 16; j++) { z[j] = w[j-2] * w[j]; }","listings":true}"#,
    r#"{"id":10,"op":"compile","source":"for (i = 2; i < 40; i++) { y[i] = x[i-2] + x[i+2] + x[i+5]; }","timings":true}"#,
    r#"{"id":11,"op":"compile","name":"too few","source":"for (i = 0; i < 8; i++) { y[i] = x[i] + h[i]; }","registers":1}"#,
    r#"{"id":"q\"\\","op":"compile","name":"a\"b\\c\u0001d","source":"for (i = 0; i < 8; i++) { y[i] = x[i] @ 1; }"}"#,
    r#"{"id":-13,"op":"warp"}"#,
    r#"{"id":14,"op":"compile","source":"for (i = 0; i < 8; i++) { s += x[i]; }","registers":"four"}"#,
    r#"{"id":15,"op":"kernels","kernel":"paper_example"}"#,
    r#"{"id":2.5,"op":"ping"}"#,
    r#"{"id":true,"op":"save_cache"}"#,
    r#"{"op":"stats"}"#,
    r#"{"id":19,"op":"clear_cache"}"#,
    r#"{"id":20,"op":"stats"}"#,
    r#"{"id":21,"op":"metrics"}"#,
    r#"{"id":22,"op":"shutdown"}"#,
];

/// The golden requests' reply lines from one stdio session, masked.
fn golden_replies() -> String {
    let mut config = config();
    config.parallelism = Parallelism::Sequential;
    let mut output = Vec::new();
    Server::new(config)
        .serve(GOLDEN_REQUESTS.join("\n").as_bytes(), &mut output)
        .expect("in-memory transport cannot fail");
    String::from_utf8(output)
        .expect("replies are UTF-8")
        .lines()
        .map(|line| mask_run_dependent(line) + "\n")
        .collect()
}

#[test]
fn serve_replies_match_the_golden_fixture() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve_replies.txt");
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let actual = golden_replies();
    assert_eq!(actual.lines().count(), GOLDEN_REQUESTS.len(), "{actual}");
    if let Some((line, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!("line {}: expected\n  {want}\ngot\n  {got}", line + 1);
    }
    assert_eq!(actual, expected, "serve replies drifted from the fixture");
}

#[test]
fn invalid_utf8_request_bytes_are_replaced_in_the_reply() {
    // Invalid bytes become U+FFFD before the line is parsed, so an id and
    // an error message carry the replacement character.
    let mut input = Vec::new();
    input.extend_from_slice(b"{\"id\":\"a\xffb\",\"op\":\"ping\"}\n");
    input.extend_from_slice(
        b"{\"id\":2,\"op\":\"compile\",\"source\":\"for (i = 0; i < 4; i++) { s += x[i] \xc3\x28; }\"}\n",
    );
    input.extend_from_slice(b"{\"id\":3,\"op\":\"ping\"\xfe}\n");
    let mut output = Vec::new();
    default_server()
        .serve(input.as_slice(), &mut output)
        .expect("in-memory transport cannot fail");
    let replies: String = String::from_utf8(output)
        .expect("replies are UTF-8")
        .lines()
        .map(|line| mask_run_dependent(line) + "\n")
        .collect();
    assert_eq!(replies, INVALID_UTF8_REPLIES);
}

/// The replies of `invalid_utf8_request_bytes_are_replaced_in_the_reply`.
const INVALID_UTF8_REPLIES: &str = "{\"id\":\"a�b\",\"ok\":true,\"pong\":true,\"elapsed_us\":#}\n{\"id\":2,\"ok\":false,\"error\":\"request: error at 1:37: unexpected character `�`\",\"elapsed_us\":#}\n{\"ok\":false,\"error\":\"invalid JSON at byte 19: expected `,` or `}` in object\",\"elapsed_us\":#}\n";

#[test]
fn second_identical_request_is_a_cache_hit() {
    let server = default_server();
    let compile = r#"{"op": "compile", "source": "for (i = 0; i < 64; i++) { y[i] = x[i-2] + x[i] + x[i+2]; }"}"#;
    let script = format!(
        "{compile}\n{}\n{compile}\n{}\n",
        r#"{"op": "stats", "id": "s1"}"#, r#"{"op": "stats", "id": "s2"}"#
    );
    let responses = round_trip(&server, &script);
    assert_eq!(responses.len(), 4);
    assert!(responses.iter().all(ok));

    let hits = |stats: &Json| {
        stats
            .get("stats")
            .and_then(|s| s.get("allocation_hits"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let misses = |stats: &Json| {
        stats
            .get("stats")
            .and_then(|s| s.get("allocation_misses"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let (h1, m1) = (hits(&responses[1]), misses(&responses[1]));
    let (h2, m2) = (hits(&responses[3]), misses(&responses[3]));
    assert!(
        h2 > h1,
        "second identical request must add hits ({h1} → {h2})"
    );
    assert_eq!(m2, m1, "…and no new misses");

    // The compiled results themselves are identical.
    assert_eq!(
        responses[0].get("report").and_then(|r| r.get("units")),
        responses[2].get("report").and_then(|r| r.get("units"))
    );
}

#[test]
fn clear_cache_empties_entries_over_the_protocol() {
    let server = default_server();
    let responses = round_trip(
        &server,
        concat!(
            r#"{"op": "kernels"}"#,
            "\n",
            r#"{"op": "clear_cache", "id": "c"}"#,
            "\n",
            r#"{"op": "stats", "id": "after"}"#,
            "\n",
        ),
    );
    assert!(
        responses[1]
            .render()
            .starts_with(r#"{"id":"c","ok":true,"cleared":true,"elapsed_us":"#),
        "{}",
        responses[1].render()
    );
    let entries = responses[2]
        .get("stats")
        .and_then(|s| s.get("allocation_entries"))
        .and_then(Json::as_u64);
    assert_eq!(entries, Some(0));
}

#[test]
fn bounded_server_evicts_under_a_sweep_of_distinct_patterns() {
    let mut config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
    config.cache_policy = CachePolicy::Bounded(32);
    let server = Server::new(config);

    // 150 distinct shapes (every gap width canonicalizes differently).
    let script: String = (1..=150)
        .map(|gap| {
            format!(
                r#"{{"op":"compile","source":"for (i = 0; i < 32; i++) {{ y[i] = x[i] + x[i + {gap}] + x[i + {}]; }}"}}"#,
                3 * gap
            ) + "\n"
        })
        .chain(std::iter::once(format!(
            "{}\n",
            r#"{"op":"stats","id":"sweep"}"#
        )))
        .collect();
    let responses = round_trip(&server, &script);
    assert_eq!(responses.len(), 151);
    assert!(responses.iter().all(ok), "every compile succeeds");

    let stats = responses.last().unwrap().get("stats").unwrap();
    let entries = stats
        .get("allocation_entries")
        .and_then(Json::as_u64)
        .unwrap();
    let evictions = stats
        .get("allocation_evictions")
        .and_then(Json::as_u64)
        .unwrap();
    // CachePolicy::Bounded(32) rounds up to 2 entries across each of
    // 16 shards; allow that slack but no unbounded growth.
    assert!(entries <= 32 + 16, "entries {entries} exceed the bound");
    assert!(evictions > 0, "the sweep must have evicted");
}

#[test]
fn per_request_machines_share_the_server_cache_soundly() {
    let server = default_server();
    let source = "for (i = 0; i < 16; i++) { s += x[i] + x[i + 4]; }";
    let script = format!(
        concat!(
            r#"{{"op":"compile","id":1,"source":"{s}"}}"#,
            "\n",
            r#"{{"op":"compile","id":2,"source":"{s}","registers":2,"modify":2}}"#,
            "\n",
            r#"{{"op":"compile","id":3,"source":"{s}"}}"#,
            "\n",
        ),
        s = source
    );
    let responses = round_trip(&server, &script);
    assert!(responses.iter().all(ok));
    let machine = |r: &Json, field: &str| {
        r.get("report")
            .and_then(|r| r.get("machine"))
            .and_then(|m| m.get(field))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(machine(&responses[0], "address_registers"), 4);
    assert_eq!(machine(&responses[1], "address_registers"), 2);
    assert_eq!(machine(&responses[1], "modify_range"), 2);
    assert_eq!(machine(&responses[2], "address_registers"), 4);
    // Same source, same default machine → identical results.
    assert_eq!(
        responses[0].get("report").and_then(|r| r.get("units")),
        responses[2].get("report").and_then(|r| r.get("units"))
    );
}

#[test]
fn modify_register_requests_report_matching_predicted_and_measured_cycles() {
    let server = default_server();
    // A scattered chain: repeated over-range +10 deltas, absorbed once
    // the requested machine has modify registers.
    let source = "for (i = 0; i < 16; i++) { s += x[i] + x[i + 10] + x[i + 20] + x[i + 30]; }";
    let script = format!(
        concat!(
            r#"{{"op":"compile","id":1,"source":"{s}","registers":1}}"#,
            "\n",
            r#"{{"op":"compile","id":2,"source":"{s}","registers":1,"modify_registers":2}}"#,
            "\n",
        ),
        s = source
    );
    let responses = round_trip(&server, &script);
    assert!(responses.iter().all(ok));
    let first = |j: &Json| match j {
        Json::Arr(items) => items.first().cloned(),
        _ => None,
    };
    let loop0 = |r: &Json| {
        r.get("report")
            .and_then(|r| r.get("units"))
            .and_then(&first)
            .and_then(|u| u.get("loops").cloned())
            .and_then(|l| first(&l))
            .unwrap()
    };
    let cycles = |l: &Json, field: &str| l.get(field).and_then(Json::as_u64).unwrap();
    let plain = loop0(&responses[0]);
    let with_mr = loop0(&responses[1]);
    // The machine is echoed, and prediction equals measurement on both.
    assert_eq!(
        responses[1]
            .get("report")
            .and_then(|r| r.get("machine"))
            .and_then(|m| m.get("modify_registers"))
            .and_then(Json::as_u64),
        Some(2)
    );
    for l in [&plain, &with_mr] {
        assert_eq!(
            cycles(l, "predicted_cycles"),
            cycles(l, "measured_cycles"),
            "predicted == measured: {l:?}"
        );
    }
    // And the modify registers genuinely bought something.
    assert!(cycles(&with_mr, "predicted_cycles") < cycles(&plain, "predicted_cycles"));
}

#[test]
fn tcp_clients_share_one_warm_cache() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        let request_and_read = |lines: &[&str]| -> Vec<Json> {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for line in lines {
                writeln!(stream, "{line}").expect("send");
            }
            stream.flush().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let mut responses = Vec::new();
            for line in reader.lines().take(lines.len()) {
                responses.push(Json::parse(&line.expect("read")).expect("valid JSON"));
            }
            responses
        };

        // First client compiles; second client repeats it and asks for
        // stats: the hits prove the cache outlived the first session.
        let compile = r#"{"op":"compile","source":"for (i = 0; i < 32; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }"}"#;
        let first = request_and_read(&[compile]);
        assert!(ok(&first[0]));

        let second = request_and_read(&[compile, r#"{"op":"stats","id":"s"}"#]);
        assert!(ok(&second[0]));
        let hits = second[1]
            .get("stats")
            .and_then(|s| s.get("allocation_hits"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(hits > 0, "second connection must hit the first one's work");

        // A shutdown request stops the accept loop and serve_tcp returns.
        let bye = request_and_read(&[r#"{"op":"shutdown"}"#]);
        assert_eq!(bye[0].get("shutdown"), Some(&Json::Bool(true)));
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn graceful_drain_closes_idle_connections_and_snapshots_the_cache() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let snap = std::env::temp_dir().join(format!("raco-serve-drain-{}.snap", std::process::id()));
    std::fs::remove_file(&snap).ok();
    let server =
        Server::new(PipelineConfig::new(AguSpec::new(4, 1).unwrap())).with_cache_save_path(&snap);
    assert_eq!(server.cache_save_path(), Some(snap.as_path()));

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        // A client that compiles once and then parks, connection open,
        // never sending another byte — the shape of an idle keep-alive
        // client that used to wedge shutdown forever.
        let idle = TcpStream::connect(addr).expect("connect");
        let mut idle_writer = idle.try_clone().unwrap();
        let mut idle_reader = BufReader::new(idle);
        writeln!(
            idle_writer,
            r#"{{"op":"compile","source":"for (i = 0; i < 32; i++) {{ y[i] = x[i-1] + x[i] + x[i+1]; }}"}}"#
        )
        .unwrap();
        let mut response = String::new();
        idle_reader.read_line(&mut response).expect("reply");
        assert!(response.contains(r#""ok":true"#));

        // A second client asks the whole server to shut down.
        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        let mut ack = String::new();
        BufReader::new(bye.try_clone().unwrap())
            .read_line(&mut ack)
            .unwrap();
        assert!(ack.contains(r#""shutdown":true"#));

        // serve_tcp must drain and return even though the idle client
        // never hung up (this join deadlocked before the drain fix) …
        handle.join().expect("server thread").expect("clean exit");

        // … and the idle client sees a clean server-side close.
        let mut rest = String::new();
        let eof = idle_reader.read_to_string(&mut rest);
        assert!(
            matches!(eof, Ok(0)),
            "drained connection must close: {eof:?} {rest:?}"
        );
    });

    // The graceful shutdown snapshotted the warm cache; a fresh
    // pipeline boots warm from it.
    let restored = raco::driver::Pipeline::new(AguSpec::new(4, 1).unwrap());
    let report = restored
        .load_cache(&snap)
        .expect("snapshot written on shutdown");
    std::fs::remove_file(&snap).ok();
    assert!(report.loaded() > 0, "{report:?}");
    assert_eq!(report.skipped, 0, "{:?}", report.warnings);
}

#[test]
fn save_cache_requests_write_loadable_snapshots() {
    let snap = std::env::temp_dir().join(format!("raco-serve-saveop-{}.snap", std::process::id()));
    std::fs::remove_file(&snap).ok();

    // Without a path and without a configured default, the request is
    // a (non-fatal) error response.
    let server = default_server();
    let responses = round_trip(
        &server,
        concat!(
            r#"{"id": 1, "op": "compile", "source": "for (i = 0; i < 16; i++) { s += x[i]; }"}"#,
            "\n",
            r#"{"id": 2, "op": "save_cache"}"#,
            "\n",
        ),
    );
    assert!(ok(&responses[0]));
    assert!(!ok(&responses[1]));
    assert!(responses[1]
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("needs a `path`"));

    // With an explicit path the snapshot is written and reports what
    // it holds; a knobbed save_cache is rejected like other control ops.
    let request = format!(
        "{}\n{}\n",
        Json::Obj(vec![
            ("id".to_owned(), Json::Int(3)),
            ("op".to_owned(), Json::str("save_cache")),
            ("path".to_owned(), Json::str(snap.display().to_string())),
        ])
        .render(),
        r#"{"id": 4, "op": "save_cache", "registers": 2}"#,
    );
    let responses = round_trip(&server, &request);
    let saved = responses[0].get("saved").expect("saved payload");
    assert!(saved.get("allocations").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        saved.get("path").and_then(Json::as_str),
        Some(snap.display().to_string().as_str())
    );
    assert!(!ok(&responses[1]), "knobs on save_cache must error");

    let restored = raco::driver::Pipeline::new(AguSpec::new(4, 1).unwrap());
    let report = restored.load_cache(&snap).expect("snapshot readable");
    std::fs::remove_file(&snap).ok();
    assert!(report.loaded() > 0);
    assert_eq!(restored.cache_stats().loaded, report.loaded() as u64);
}

#[test]
fn drain_gives_half_received_requests_a_grace_to_finish() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        // A client that has sent only *part* of a request line when
        // the shutdown lands …
        let slow = TcpStream::connect(addr).expect("connect");
        let mut slow_writer = slow.try_clone().unwrap();
        let mut slow_reader = BufReader::new(slow);
        write!(slow_writer, r#"{{"id":7,"op":"pi"#).unwrap();
        slow_writer.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(120));

        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        let mut ack = String::new();
        BufReader::new(bye.try_clone().unwrap())
            .read_line(&mut ack)
            .unwrap();
        assert!(ack.contains(r#""shutdown":true"#));

        // … and completes it shortly after (well inside the drain
        // grace): the request must still be answered, not dropped.
        std::thread::sleep(std::time::Duration::from_millis(100));
        writeln!(slow_writer, r#"ng"}}"#).unwrap();
        slow_writer.flush().unwrap();
        let mut response = String::new();
        slow_reader.read_line(&mut response).expect("read");
        assert!(
            response.contains(r#""pong":true"#) && response.contains(r#""id":7"#),
            "half-received request must be served through the drain: {response:?}"
        );

        handle.join().expect("server thread").expect("clean exit");
    });
}

/// A small valid compile request with a distinctive reply.
const DRIBBLE_REQUEST: &str =
    r#"{"id":"dribble","op":"compile","source":"for (i = 0; i < 8; i++) { s += x[i] + y[i]; }"}"#;

/// Reads exactly one reply line from the stream.
fn one_reply(stream: &TcpStream) -> Json {
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone socket"))
        .read_line(&mut line)
        .expect("read reply");
    Json::parse(line.trim()).expect("reply is valid JSON")
}

/// Projects a reply onto its deterministic parts — id, ok, and the
/// report's `machine`/`units` subtrees — dropping wall-clock and
/// cumulative-cache fields that legitimately differ across requests.
fn stable(reply: &Json) -> Json {
    let report = reply.get("report");
    Json::Obj(vec![
        (
            "id".to_owned(),
            reply.get("id").cloned().unwrap_or(Json::Null),
        ),
        (
            "ok".to_owned(),
            reply.get("ok").cloned().unwrap_or(Json::Null),
        ),
        (
            "machine".to_owned(),
            report
                .and_then(|r| r.get("machine"))
                .cloned()
                .unwrap_or(Json::Null),
        ),
        (
            "units".to_owned(),
            report
                .and_then(|r| r.get("units"))
                .cloned()
                .unwrap_or(Json::Null),
        ),
    ])
}

#[test]
fn dribbled_tcp_writes_parse_identically_to_whole_line_writes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        let whole = {
            let mut stream = TcpStream::connect(addr).expect("connect");
            writeln!(stream, "{DRIBBLE_REQUEST}").unwrap();
            stream.flush().unwrap();
            one_reply(&stream)
        };
        assert!(ok(&whole), "baseline request compiles: {whole:?}");

        // Byte-at-a-time: every byte of the frame (newline included)
        // arrives in its own TCP segment.
        let dribbled = {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let framed = format!("{DRIBBLE_REQUEST}\n");
            for byte in framed.as_bytes() {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                stream.flush().unwrap();
            }
            one_reply(&stream)
        };

        // Split at an awkward mid-token boundary with a pause between
        // the halves, so the frame straddles two reads.
        let split = {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let framed = format!("{DRIBBLE_REQUEST}\n");
            let (head, tail) = framed.as_bytes().split_at(framed.len() / 2);
            stream.write_all(head).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(120));
            stream.write_all(tail).unwrap();
            stream.flush().unwrap();
            one_reply(&stream)
        };

        assert_eq!(
            stable(&dribbled),
            stable(&whole),
            "byte-at-a-time delivery must parse to the identical reply"
        );
        assert_eq!(
            stable(&split),
            stable(&whole),
            "a frame straddling two reads must parse to the identical reply"
        );

        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        bye.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&bye).read_line(&mut line).unwrap();
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn coalesced_tcp_frames_each_get_their_own_reply() {
    // The inverse of dribbling: several frames land in one segment.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let batch = format!(
                "{}\n{}\n{}\n",
                r#"{"op":"ping","id":1}"#, DRIBBLE_REQUEST, r#"{"op":"ping","id":2}"#
            );
            stream.write_all(batch.as_bytes()).unwrap();
            stream.flush().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let replies: Vec<Json> = reader
                .lines()
                .take(3)
                .map(|line| Json::parse(&line.expect("read")).expect("valid JSON"))
                .collect();
            assert_eq!(replies.len(), 3);
            assert!(
                replies.iter().all(ok),
                "all three frames served: {replies:?}"
            );
            assert_eq!(replies[0].get("id"), Some(&Json::Int(1)));
            assert_eq!(replies[2].get("id"), Some(&Json::Int(2)));
        }

        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        bye.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&bye).read_line(&mut line).unwrap();
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn one_connection_compiles_the_same_source_on_two_backends() {
    // The `machine` knob swaps the whole description per request: the
    // same source on `paper` and `saris` over one session must come
    // back with each machine's own parameters and costs, and switching
    // back must reproduce the first answer exactly.
    let server = default_server();
    let source = "for (i = 0; i < 32; i++) { s += x[i] + x[i + 3] + x[i + 7]; }";
    let script = format!(
        concat!(
            r#"{{"op":"compile","id":1,"source":"{s}","machine":"paper"}}"#,
            "\n",
            r#"{{"op":"compile","id":2,"source":"{s}","machine":"saris"}}"#,
            "\n",
            r#"{{"op":"compile","id":3,"source":"{s}","machine":"paper"}}"#,
            "\n",
        ),
        s = source
    );
    let responses = round_trip(&server, &script);
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(ok), "{responses:?}");

    let machine = |r: &Json, field: &str| {
        r.get("report")
            .and_then(|r| r.get("machine"))
            .and_then(|m| m.get(field))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("machine.{field} missing: {r:?}"))
    };
    // paper: K=4, symmetric +/-1, no modify registers.
    assert_eq!(machine(&responses[0], "address_registers"), 4);
    assert_eq!(machine(&responses[0], "modify_registers"), 0);
    // saris: K=8, update range [0, 0], MR=8 -- every stride is streamed.
    assert_eq!(machine(&responses[1], "address_registers"), 8);
    assert_eq!(machine(&responses[1], "update_min"), 0);
    assert_eq!(machine(&responses[1], "update_max"), 0);
    assert_eq!(machine(&responses[1], "modify_registers"), 8);

    // Prediction equals measurement on both backends.
    for response in &responses {
        let units = response
            .get("report")
            .and_then(|r| r.get("units"))
            .expect("report.units");
        let Json::Arr(units) = units else {
            panic!("units is an array: {units:?}")
        };
        let loops = units[0].get("loops").expect("units[0].loops");
        let Json::Arr(loops) = loops else {
            panic!("loops is an array: {loops:?}")
        };
        for lp in loops {
            assert_eq!(
                lp.get("predicted_cycles"),
                lp.get("measured_cycles"),
                "{lp:?}"
            );
        }
    }

    // Flipping back to the first backend reproduces its answer exactly
    // (no cross-machine cache bleed within the session).
    assert_eq!(
        responses[0].get("report").and_then(|r| r.get("units")),
        responses[2].get("report").and_then(|r| r.get("units"))
    );
}

fn config() -> PipelineConfig {
    PipelineConfig::new(AguSpec::new(4, 1).unwrap())
}

fn parsed(server: &Server, line: &str) -> Json {
    Json::parse(&server.handle_line(line).line).expect("valid JSON reply")
}

/// A small mixed trace: every shape compiled under two machines, the
/// whole set replayed `rounds` times.
fn trace(rounds: usize) -> Vec<String> {
    let shapes = [
        "for (i = 0; i < 32; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }",
        "for (i = 0; i < 24; i++) { y[i] = x[i] + x[i+4]; }",
        "for (i = 2; i < 40; i++) { y[i] = x[i-2] + x[i+2] + x[i+5]; }",
        "for (i = 0; i < 16; i++) { s += x[i] * h[i]; }",
        "for (i = 1; i < 28; i++) { y[i] = x[i-1] + x[i+6]; }",
    ];
    let machines = [(2u32, 1u32), (4, 2)];
    let mut lines = Vec::new();
    for _ in 0..rounds {
        for source in shapes {
            for (registers, modify) in machines {
                lines.push(format!(
                    "{{\"op\":\"compile\",\"source\":\"{source}\",\"registers\":{registers},\"modify\":{modify}}}"
                ));
            }
        }
    }
    lines
}

/// `(hits, misses)` across allocation and curve caches.
fn cache_traffic(server: &Server) -> (u64, u64) {
    let stats = server.pipeline().cache_stats();
    (
        stats.allocation_hits + stats.curve_hits,
        stats.allocation_misses + stats.curve_misses,
    )
}

#[test]
fn warm_replay_adds_no_misses() {
    let server = Server::new(config());
    for line in trace(1) {
        assert!(ok(&parsed(&server, &line)), "{line}");
    }
    let (hits_warm, misses_warm) = cache_traffic(&server);
    // Every repetition of a (shape, machine) pair hits the entry its
    // first compile paid for, so the replay adds hits and no misses.
    for line in trace(2) {
        assert!(ok(&parsed(&server, &line)), "{line}");
    }
    let (hits, misses) = cache_traffic(&server);
    assert_eq!(misses, misses_warm, "a warm replay must not miss");
    assert!(hits > hits_warm, "repeated trace must hit a warm cache");
}

#[test]
fn snapshots_boot_a_fresh_server_warm() {
    let snap = std::env::temp_dir().join(format!("raco-serve-boot-{}.bin", std::process::id()));
    std::fs::remove_file(&snap).ok();

    let warm = Server::new(config());
    for line in trace(1) {
        assert!(ok(&parsed(&warm, &line)));
    }
    let saved = parsed(
        &warm,
        &format!("{{\"op\":\"save_cache\",\"path\":\"{}\"}}", snap.display()),
    );
    assert!(ok(&saved), "{saved:?}");

    // A fresh server loaded from the snapshot serves the whole first
    // replay from its cache.
    let reborn = Server::new(config());
    reborn.pipeline().load_cache(&snap).expect("snapshot loads");
    std::fs::remove_file(&snap).ok();
    for line in trace(1) {
        assert!(ok(&parsed(&reborn, &line)));
    }
    let stats = reborn.pipeline().cache_stats();
    assert_eq!(stats.allocation_misses, 0, "booted warm: {stats:?}");
    assert!(stats.allocation_hits > 0);
}

#[test]
fn compute_deadline_errors_by_name_and_the_connection_survives() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = Server::with_options(
        config(),
        ServeOptions {
            compute_deadline: Some(Duration::from_nanos(1)),
            ..ServeOptions::default()
        },
    );

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();

        // A 1 ns budget cannot cover a cold compile: a *named* error
        // comes back instead of a dead connection.
        writeln!(
            writer,
            r#"{{"id":1,"op":"compile","source":"for (i = 0; i < 48; i++) {{ y[i] = x[i-3] + x[i] + x[i+3]; }}"}}"#
        )
        .unwrap();
        reader.read_line(&mut reply).expect("deadline reply");
        let json = Json::parse(&reply).expect("valid JSON");
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            json.get("error_kind").and_then(Json::as_str),
            Some("compute_deadline")
        );

        // Same connection keeps serving…
        writeln!(writer, r#"{{"op":"ping","id":2}}"#).unwrap();
        reply.clear();
        reader.read_line(&mut reply).expect("ping reply");
        assert!(reply.contains(r#""pong":true"#), "{reply}");

        // …and metrics counted the deadline hit.
        writeln!(writer, r#"{{"op":"metrics"}}"#).unwrap();
        reply.clear();
        reader.read_line(&mut reply).expect("metrics reply");
        let metrics = Json::parse(&reply).unwrap();
        let compute = metrics
            .get("metrics")
            .and_then(|m| m.get("deadlines"))
            .and_then(|d| d.get("compute"))
            .and_then(Json::as_u64)
            .expect("deadline counter");
        assert!(compute >= 1);

        writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
        reply.clear();
        reader.read_line(&mut reply).expect("shutdown ack");
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn slow_loris_is_reaped_while_live_clients_keep_being_served() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = Server::with_options(
        config(),
        ServeOptions {
            read_deadline: Some(Duration::from_millis(300)),
            ..ServeOptions::default()
        },
    );

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        // The attacker: sends half a request line and then nothing,
        // forever. Before the read deadline this pinned a connection
        // thread until process exit.
        let loris = TcpStream::connect(addr).expect("connect");
        let mut loris_writer = loris.try_clone().unwrap();
        loris_writer.write_all(br#"{"op":"comp"#).unwrap();
        loris_writer.flush().unwrap();

        // Meanwhile a healthy client mixes pings with an oversized
        // frame — the adversarial mix must cost it nothing.
        let healthy = TcpStream::connect(addr).expect("connect");
        let mut healthy_writer = healthy.try_clone().unwrap();
        let mut healthy_reader = BufReader::new(healthy);
        let mut reply = String::new();
        for round in 0..4 {
            if round == 2 {
                let oversized = format!("{}\n", "x".repeat(raco::serve::MAX_REQUEST_LINE + 16));
                healthy_writer.write_all(oversized.as_bytes()).unwrap();
                reply.clear();
                healthy_reader
                    .read_line(&mut reply)
                    .expect("oversize reply");
                assert!(reply.contains(r#""ok":false"#), "{reply}");
            }
            writeln!(healthy_writer, r#"{{"op":"ping","id":{round}}}"#).unwrap();
            reply.clear();
            healthy_reader.read_line(&mut reply).expect("ping reply");
            assert!(reply.contains(r#""pong":true"#), "{reply}");
            std::thread::sleep(Duration::from_millis(150));
        }

        // By now (~600 ms > 300 ms deadline) the loris got a named
        // error and a close — the thread it pinned is reclaimed.
        let mut loris_reader = BufReader::new(loris);
        let mut last_words = String::new();
        loris_reader
            .read_to_string(&mut last_words)
            .expect("loris connection closed cleanly");
        assert!(
            last_words.contains(r#""error_kind":"read_deadline""#),
            "loris must be told why: {last_words:?}"
        );

        // The reap is visible in metrics, and the healthy client still
        // gets answers afterwards.
        writeln!(healthy_writer, r#"{{"op":"metrics"}}"#).unwrap();
        reply.clear();
        healthy_reader.read_line(&mut reply).expect("metrics reply");
        let metrics = Json::parse(&reply).unwrap();
        let reaped = metrics
            .get("metrics")
            .and_then(|m| m.get("deadlines"))
            .and_then(|d| d.get("read"))
            .and_then(Json::as_u64)
            .expect("read deadline counter");
        assert!(reaped >= 1, "{metrics:?}");

        writeln!(healthy_writer, r#"{{"op":"shutdown"}}"#).unwrap();
        reply.clear();
        healthy_reader.read_line(&mut reply).expect("shutdown ack");
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn dribbled_requests_within_the_deadline_still_parse() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = Server::with_options(
        config(),
        ServeOptions {
            read_deadline: Some(Duration::from_secs(5)),
            ..ServeOptions::default()
        },
    );

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        // A congested-but-honest client: the frame arrives in 8-byte
        // pieces with pauses, completing well inside the deadline.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let framed =
            "{\"id\":7,\"op\":\"compile\",\"source\":\"for (i = 0; i < 8; i++) { s += x[i]; }\"}\n";
        for piece in framed.as_bytes().chunks(8) {
            writer.write_all(piece).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let json = Json::parse(&reply).expect("valid JSON");
        assert!(ok(&json), "{reply}");
        assert_eq!(json.get("id").and_then(Json::as_u64), Some(7));

        writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
        reply.clear();
        reader.read_line(&mut reply).expect("shutdown ack");
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn over_limit_connections_get_busy_and_a_clean_close() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = Server::with_options(
        config(),
        ServeOptions {
            max_connections: 1,
            ..ServeOptions::default()
        },
    );

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        // The one allowed client, with a round trip to make sure its
        // accept has been processed.
        let first = TcpStream::connect(addr).expect("connect");
        let mut first_writer = first.try_clone().unwrap();
        let mut first_reader = BufReader::new(first);
        let mut reply = String::new();
        writeln!(first_writer, r#"{{"op":"ping","id":1}}"#).unwrap();
        first_reader.read_line(&mut reply).expect("ping reply");
        assert!(reply.contains(r#""pong":true"#));

        // One past the cap: an `ok:false` busy response, then EOF.
        let refused = TcpStream::connect(addr).expect("connect");
        let mut refused_reader = BufReader::new(refused);
        let mut last_words = String::new();
        refused_reader
            .read_to_string(&mut last_words)
            .expect("refused connection closes cleanly");
        assert!(
            last_words.contains(r#""error_kind":"busy""#),
            "refused client must be told why: {last_words:?}"
        );

        // The in-limit client is unaffected, and the shed shows up in
        // its metrics.
        writeln!(first_writer, r#"{{"op":"metrics"}}"#).unwrap();
        reply.clear();
        first_reader.read_line(&mut reply).expect("metrics reply");
        let metrics = Json::parse(&reply).unwrap();
        let shed = metrics
            .get("metrics")
            .and_then(|m| m.get("shed"))
            .and_then(|s| s.get("connections"))
            .and_then(Json::as_u64)
            .expect("shed connection counter");
        assert!(shed >= 1);

        writeln!(first_writer, r#"{{"op":"shutdown"}}"#).unwrap();
        reply.clear();
        first_reader.read_line(&mut reply).expect("shutdown ack");
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn loadgen_smoke_produces_a_schema_versioned_artifact() {
    let artifact =
        std::env::temp_dir().join(format!("raco-loadgen-smoke-{}.json", std::process::id()));
    std::fs::remove_file(&artifact).ok();
    let status = std::process::Command::new(PathBuf::from(env!("CARGO_BIN_EXE_raco")))
        .args([
            "loadgen",
            "--requests",
            "200",
            "--connections",
            "2",
            "--shapes",
            "8",
            "--seed",
            "11",
            "--quiet",
            "-o",
        ])
        .arg(&artifact)
        .status()
        .expect("run raco loadgen");
    assert!(status.success(), "loadgen exit: {status:?}");

    let json = Json::parse(&std::fs::read_to_string(&artifact).expect("artifact written"))
        .expect("artifact is valid JSON");
    std::fs::remove_file(&artifact).ok();
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some(raco::loadgen::SCHEMA)
    );
    assert_eq!(
        json.get("version").and_then(Json::as_u64),
        Some(raco::loadgen::SCHEMA_VERSION)
    );
    assert_eq!(json.get("requests").and_then(Json::as_u64), Some(200));
    let errors = json.get("errors").expect("errors object");
    assert_eq!(
        errors.get("transport").and_then(Json::as_u64),
        Some(0),
        "no connection deaths under load: {errors:?}"
    );
    assert_eq!(errors.get("rejected").and_then(Json::as_u64), Some(0));
    assert!(
        json.get("latency_us")
            .and_then(|l| l.get("p99_us"))
            .is_some(),
        "latency quantiles present"
    );
    // The spawned server's own metrics counted every request (plus the
    // connect probes' pings) and served the repeats from its cache.
    let server = json.get("server").expect("server metrics captured");
    let compiles = server
        .get("requests")
        .and_then(|r| r.get("by_op"))
        .and_then(|o| o.get("compile"))
        .and_then(Json::as_u64);
    assert_eq!(compiles, Some(200), "every request compiled: {server:?}");
    let hit_rate = match server.get("cache").and_then(|c| c.get("hit_rate")) {
        Some(Json::Num(rate)) => *rate,
        other => panic!("aggregate hit rate expected, got {other:?}"),
    };
    assert!(hit_rate > 0.5, "repeats hit the shared cache: {hit_rate}");
    assert!(server.get("shards").is_none(), "no per-shard breakdown");
}
