//! End-to-end tests of protocol v2 pipelining against a live event-loop
//! server: out-of-order completion on one connection, fairness across
//! connections, the bounded-output-queue overload close, the compile
//! pool's queue bound, deadlines that count from frame arrival, the
//! tag-agnostic hot memo, and the expression depth bound.
//!
//! Determinism notes. `run_pipeline` requests are *always* dispatched
//! to the worker pool (whole-image runs are real work even when the
//! artifact is warm), while `ping` and cache hits are answered inline
//! by the loop thread — so a pipelined `[run_pipeline, ping, ping]`
//! burst must come back `[ping, ping, run_pipeline]` without any
//! sleep-based timing: the inline replies are queued in the same loop
//! iteration that dispatches the image run, and the completion can only
//! be drained in a later iteration.

use fpir::parser::MAX_EXPR_DEPTH;
use pitchfork_service::{
    attach_tag_rendered, parse_request, serve_with, write_frame, Client, Endpoint, Json,
    ServeOptions, Service, ServiceConfig,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn parse(src: &str) -> Json {
    pitchfork_service::json::parse(src).unwrap()
}

fn service() -> Service {
    Service::new(ServiceConfig {
        cache_bytes: 8 << 20,
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    })
}

fn start(path: &Path, opts: ServeOptions) -> std::thread::JoinHandle<io::Result<()>> {
    let _ = std::fs::remove_file(path);
    let svc = Arc::new(service());
    let ep = Endpoint::Unix(path.to_path_buf());
    std::thread::spawn(move || serve_with(svc, &ep, &opts))
}

fn connect_with_retry(path: &Path) -> UnixStream {
    for _ in 0..100 {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server at {} never came up", path.display());
}

fn client_with_retry(path: &Path) -> Client {
    for _ in 0..100 {
        if let Ok(c) = Client::connect(&Endpoint::Unix(path.to_path_buf())) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server at {} never came up", path.display());
}

fn shutdown(path: &Path) {
    let mut c = client_with_retry(path);
    let bye = c.request(&parse(r#"{"op":"shutdown"}"#)).unwrap();
    assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
}

/// A `run_pipeline` request over a `rows`×`cols` image — enough pixels
/// that the tiled runner spends real time on a worker thread.
fn image_run(tag: &str, rows: usize, cols: usize) -> Json {
    let row: Vec<String> = (0..cols).map(|c| ((c * 7) % 256).to_string()).collect();
    let row = format!("[{}]", row.join(","));
    let rows_json = vec![row; rows].join(",");
    parse(&format!(
        r#"{{"op":"run_pipeline","expr":"rounding_halving_add(in__p0_p0_u8, in__p1_p0_u8)",
            "lanes":4,"isa":"arm","inputs":{{"in":{{"elem":"u8","rows":[{rows_json}]}}}},
            "jobs":1,"tag":"{tag}"}}"#
    ))
}

fn read_one(stream: &mut UnixStream) -> Option<Json> {
    pitchfork_service::read_frame(stream).unwrap()
}

/// Read `n` tagged responses, keyed by tag.
fn read_tagged(stream: &mut UnixStream, n: usize) -> HashMap<String, Json> {
    (0..n)
        .map(|_| {
            let v = read_one(stream).expect("a response per request");
            let tag = v.get("tag").and_then(Json::as_str).expect("tagged response").to_string();
            (tag, v)
        })
        .collect()
}

fn stats(path: &Path) -> Json {
    client_with_retry(path).request(&parse(r#"{"op":"stats"}"#)).unwrap()
}

fn stat(stats: &Json, name: &str) -> i128 {
    stats.get(name).and_then(Json::as_int).unwrap_or_else(|| panic!("no `{name}`: {stats:?}"))
}

/// A saturating add clamped at `limit`: a distinct cache key per limit.
fn clamped_add(limit: u32) -> String {
    format!("u8(min(u16(a_u8) + u16(b_u8), {limit}))")
}

#[test]
fn tagged_requests_complete_out_of_order() {
    let path = sock("ooo");
    let server = start(&path, ServeOptions::default());
    let mut stream = connect_with_retry(&path);

    // One write syscall carries all three frames: a whole-image run
    // (dispatched to a worker) followed by two pings (answered inline).
    let mut burst = Vec::new();
    write_frame(&mut burst, &image_run("slow", 32, 512)).unwrap();
    write_frame(&mut burst, &parse(r#"{"op":"ping","tag":"a"}"#)).unwrap();
    write_frame(&mut burst, &parse(r#"{"op":"ping","tag":"b"}"#)).unwrap();
    stream.write_all(&burst).unwrap();

    let tags: Vec<String> = (0..3)
        .map(|_| {
            let v = read_one(&mut stream).expect("three responses expected");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
            v.get("tag").and_then(Json::as_str).expect("tagged response").to_string()
        })
        .collect();
    assert_eq!(tags, ["a", "b", "slow"], "inline replies must overtake the dispatched image run");

    drop(stream);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

#[test]
fn slow_request_on_one_connection_does_not_stall_another() {
    let path = sock("fair");
    let server = start(&path, ServeOptions::default());
    let mut a = client_with_retry(&path);
    let mut b = client_with_retry(&path);

    // Large enough that the run outlasts five ping round trips in a
    // release build too.
    let t0 = Instant::now();
    a.send(&image_run("big", 256, 2048)).unwrap();
    let reader = std::thread::spawn(move || {
        let v = a.recv().unwrap();
        (t0.elapsed(), v)
    });

    // While the image run occupies a worker, connection B's pings must
    // keep flowing through the loop thread.
    let ping = parse(r#"{"op":"ping"}"#);
    for _ in 0..5 {
        let v = b.request(&ping).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }
    let b_done = t0.elapsed();

    let (a_done, a_resp) = reader.join().unwrap();
    assert_eq!(a_resp.get("ok").and_then(Json::as_bool), Some(true), "{a_resp:?}");
    assert_eq!(a_resp.get("tag").and_then(Json::as_str), Some("big"));
    assert!(
        b_done < a_done,
        "B's 5 pings ({b_done:?}) should finish before A's image run ({a_done:?})"
    );

    drop(b);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

#[test]
fn pipelining_past_the_output_budget_closes_with_overloaded() {
    let path = sock("ovl");
    // A deliberately tiny response budget: a burst of stats responses
    // overflows it within one dispatch batch.
    let server = start(&path, ServeOptions { outq_bytes: 4096, ..ServeOptions::default() });
    let mut stream = connect_with_retry(&path);

    const SENT: usize = 256;
    let mut burst = Vec::new();
    for i in 0..SENT {
        write_frame(&mut burst, &parse(&format!(r#"{{"op":"stats","tag":{i}}}"#))).unwrap();
    }
    stream.write_all(&burst).unwrap();

    let mut answered = 0usize;
    let mut last = None;
    while let Some(v) = read_one(&mut stream) {
        answered += 1;
        last = Some(v);
    }
    let last = last.expect("at least the final overloaded frame must arrive");
    assert!(answered < SENT, "the bounded queue must shed some of {SENT} responses");
    assert_eq!(last.get("ok").and_then(Json::as_bool), Some(false), "{last:?}");
    assert_eq!(last.get("code").and_then(Json::as_str), Some("overloaded"), "{last:?}");
    // The connection is closed after the seal frame; further reads see
    // end-of-stream, not a hang.
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).unwrap(), 0, "clean close after the seal");

    drop(stream);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

#[test]
fn deadline_counts_from_frame_arrival() {
    let path = sock("deadline");
    let server = start(&path, ServeOptions { workers: 1, ..ServeOptions::default() });
    let mut stream = connect_with_retry(&path);

    // The only worker takes the image run (~50 ms in a release build,
    // several times that in debug); the compile behind it waits in the
    // queue for longer than its whole 20 ms budget, so it must be
    // cancelled before its first phase.
    let mut burst = Vec::new();
    write_frame(&mut burst, &image_run("slow", 256, 2048)).unwrap();
    let late = format!(
        r#"{{"op":"compile","expr":"{}","lanes":16,"isa":"arm","timeout_ms":20,"tag":"late"}}"#,
        clamped_add(200)
    );
    write_frame(&mut burst, &parse(&late)).unwrap();
    stream.write_all(&burst).unwrap();

    let by_tag = read_tagged(&mut stream, 2);
    assert_eq!(by_tag["slow"].get("ok").and_then(Json::as_bool), Some(true), "{by_tag:?}");
    let late = &by_tag["late"];
    assert_eq!(late.get("code").and_then(Json::as_str), Some("timeout"), "{late:?}");
    let st = stats(&path);
    assert_eq!(stat(&st, "compiles"), 1, "only the image run's expression compiles: {st:?}");
    assert_eq!(stat(&st, "timeouts"), 1, "{st:?}");

    drop(stream);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

#[test]
fn queue_capacity_bounds_the_daemon_and_stats_report_the_pool() {
    let path = sock("bound");
    let opts = ServeOptions { workers: 1, queue_capacity: 2, ..ServeOptions::default() };
    let server = start(&path, opts);
    let mut stream = connect_with_retry(&path);

    // The image run keeps the only worker busy while 16 distinct-key
    // compiles arrive: at most two of them fit in the queue.
    const N: u32 = 16;
    let mut burst = Vec::new();
    write_frame(&mut burst, &image_run("slow", 64, 512)).unwrap();
    for i in 0..N {
        let req = format!(
            r#"{{"op":"compile","expr":"{}","lanes":16,"isa":"arm","tag":"c{i}"}}"#,
            clamped_add(200 + i)
        );
        write_frame(&mut burst, &parse(&req)).unwrap();
    }
    stream.write_all(&burst).unwrap();

    let by_tag = read_tagged(&mut stream, N as usize + 1);
    assert_eq!(by_tag["slow"].get("ok").and_then(Json::as_bool), Some(true), "{by_tag:?}");
    let pf = pitchfork::Pitchfork::new(fpir::Isa::ArmNeon);
    let mut shed = 0;
    for i in 0..N {
        let v = &by_tag[&format!("c{i}")];
        if v.get("code").and_then(Json::as_str) == Some("overloaded") {
            shed += 1;
            continue;
        }
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        let e = fpir::parser::parse_expr(&clamped_add(200 + i), 16).unwrap();
        let direct = pitchfork::compile_to_executable(&pf, &e).unwrap();
        let lowered = direct.lowered.to_string();
        let program = direct.program.render();
        assert_eq!(v.get("lowered").and_then(Json::as_str), Some(lowered.as_str()));
        assert_eq!(v.get("program").and_then(Json::as_str), Some(program.as_str()));
        assert_eq!(v.get("cycles").and_then(Json::as_int), Some(direct.cycles.into()));
    }
    assert!(shed > 0, "a queue bound of 2 must shed some of {N} compiles");
    let st = stats(&path);
    assert_eq!(stat(&st, "sheds"), shed, "{st:?}");
    assert_eq!(stat(&st, "workers"), 1, "{st:?}");
    assert_eq!(stat(&st, "queue_capacity"), 2, "{st:?}");

    drop(stream);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

/// Send one frame's raw body and read the raw body of its response.
fn exchange_raw(stream: &mut UnixStream, body: &str) -> String {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    stream.write_all(&frame).unwrap();
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut resp = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut resp).unwrap();
    String::from_utf8(resp).unwrap()
}

/// `body` (a rendered object) with `member` appended verbatim.
fn with_member(body: &str, member: &str) -> String {
    format!("{},{member}}}", &body[..body.len() - 1])
}

/// What a fresh in-process service answers to `body`: the cold
/// (computed) response, then the warm (hit) one.
fn direct_responses(body: &str) -> (String, String) {
    let svc = service();
    let req = parse_request(&parse(body)).unwrap();
    (svc.handle(&req).render(), svc.handle(&req).render())
}

fn with_tag(mut resp: String, tag: Option<&Json>) -> String {
    if let Some(t) = tag {
        attach_tag_rendered(&mut resp, t);
    }
    resp
}

#[test]
fn one_memo_entry_serves_every_tag() {
    let path = sock("memo");
    let server = start(&path, ServeOptions::default());
    let mut stream = connect_with_retry(&path);
    let body =
        format!(r#"{{"op":"compile","expr":"{}","lanes":16,"isa":"arm"}}"#, clamped_add(201));
    let (computed, hit) = direct_responses(&body);

    // N distinct integer tags, then N distinct string tags, one key.
    const N: i128 = 8;
    let tags: Vec<Json> = (0..N)
        .map(|i| Json::Int(1_000_000_007 * i - 5))
        .chain((0..N).map(|i| Json::str(format!("req-{i}"))))
        .collect();
    let before = stats(&path);
    for (i, tag) in tags.iter().enumerate() {
        let resp =
            exchange_raw(&mut stream, &with_member(&body, &format!(r#""tag":{}"#, tag.render())));
        let direct = if i == 0 { computed.clone() } else { hit.clone() };
        assert_eq!(resp, with_tag(direct, Some(tag)), "request {i}");
    }
    let after = stats(&path);
    // The first request compiles and the second seeds the memo from the
    // artifact cache; every later one, whatever its tag, is a memo hit.
    let delta = |name: &str| stat(&after, name) - stat(&before, name);
    assert_eq!(delta("hot_hits"), 2 * N - 2, "{after:?}");
    assert_eq!(delta("hot_misses"), 2, "{after:?}");
    assert_eq!(delta("compiles"), 1, "{after:?}");

    drop(stream);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

#[test]
fn other_tag_layouts_answer_correctly_without_the_memo() {
    let path = sock("layouts");
    let server = start(&path, ServeOptions::default());
    let mut stream = connect_with_retry(&path);
    let body =
        format!(r#"{{"op":"compile","expr":"{}","lanes":16,"isa":"arm"}}"#, clamped_add(202));
    let (computed, hit) = direct_responses(&body);
    // Warm the artifact cache, so each frame below is a cache hit that
    // would seed the memo if its layout were memoizable.
    let warm = exchange_raw(&mut stream, &with_member(&body, r#""tag":0"#));
    assert_eq!(warm, with_tag(computed, Some(&Json::Int(0))));

    let tail_of = |member: &str| with_member(&body, member);
    let layouts: Vec<(&str, String, Option<Json>)> = vec![
        ("tag first", format!(r#"{{"tag":5,{}"#, &body[1..]), Some(Json::Int(5))),
        // Equal duplicates first: were they memoized, the differing pair
        // after them would share their key and get its last tag back.
        ("equal duplicate tags", tail_of(r#""tag":1,"tag":1"#), Some(Json::Int(1))),
        ("differing duplicate tags", tail_of(r#""tag":1,"tag":2"#), Some(Json::Int(1))),
        ("null tag", tail_of(r#""tag":null"#), None),
        ("escaped string", tail_of(r#""tag":"a\"b""#), Some(Json::str("a\"b"))),
        ("leading zeros", tail_of(r#""tag":007"#), Some(Json::Int(7))),
        ("negative zero", tail_of(r#""tag":-0"#), Some(Json::Int(0))),
        ("whitespace", tail_of(r#""tag": 9"#), Some(Json::Int(9))),
    ];
    let before = stats(&path);
    for (what, frame, tag) in &layouts {
        for round in 0..3 {
            let resp = exchange_raw(&mut stream, frame);
            assert_eq!(resp, with_tag(hit.clone(), tag.as_ref()), "{what}, round {round}");
        }
    }
    let after = stats(&path);
    assert_eq!(stat(&after, "hot_hits"), stat(&before, "hot_hits"), "{after:?}");
    assert_eq!(stat(&after, "compiles"), 1, "{after:?}");

    drop(stream);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

#[test]
fn too_deep_an_expression_is_refused_and_the_daemon_lives_on() {
    let path = sock("deep");
    let server = start(&path, ServeOptions::default());
    let mut c = client_with_retry(&path);

    // ~900 KB, far below the frame limit; the parser alone would
    // overflow the event-loop thread's stack without the bound.
    let n = 100_000;
    let deep = format!("{}a_u8{}", "(".repeat(n), " + b_u8)".repeat(n));
    let req = Json::Object(vec![
        ("op".into(), Json::str("compile")),
        ("expr".into(), Json::str(deep)),
        ("lanes".into(), Json::Int(16)),
        ("isa".into(), Json::str("arm")),
    ]);
    let v = c.request(&req).unwrap();
    assert_eq!(v.get("code").and_then(Json::as_str), Some("bad_request"), "{v:?}");
    let pong = c.request(&parse(r#"{"op":"ping"}"#)).unwrap();
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true), "{pong:?}");

    // Exactly at the bound, a worker compiles it on every backend.
    let chain = (1..MAX_EXPR_DEPTH).fold("a_u8".to_string(), |acc, _| acc + " + b_u8");
    for isa in ["x86", "arm", "hvx", "rvv"] {
        let req = Json::Object(vec![
            ("op".into(), Json::str("compile")),
            ("expr".into(), Json::str(chain.clone())),
            ("lanes".into(), Json::Int(16)),
            ("isa".into(), Json::str(isa)),
        ]);
        let v = c.request(&req).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{isa}: {v:?}");
    }

    drop(c);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

/// A unique-per-test socket path under the temp dir.
fn sock(which: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pitchfork-pipe-{which}-{}.sock", std::process::id()))
}
