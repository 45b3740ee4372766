//! End-to-end tests of protocol v2 pipelining against a live event-loop
//! server: out-of-order completion on one connection, fairness across
//! connections, the bounded-output-queue overload close, the compile
//! pool's queue bound, and deadlines that count from frame arrival.
//!
//! Determinism notes. `run_pipeline` requests are *always* dispatched
//! to the worker pool (whole-image runs are real work even when the
//! artifact is warm), while `ping` and cache hits are answered inline
//! by the loop thread — so a pipelined `[run_pipeline, ping, ping]`
//! burst must come back `[ping, ping, run_pipeline]` without any
//! sleep-based timing: the inline replies are queued in the same loop
//! iteration that dispatches the image run, and the completion can only
//! be drained in a later iteration.

use pitchfork_service::{
    serve_with, write_frame, Client, Endpoint, Json, ServeOptions, Service, ServiceConfig,
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

fn start(path: &Path, opts: ServeOptions) -> std::thread::JoinHandle<io::Result<()>> {
    let _ = std::fs::remove_file(path);
    let svc = Arc::new(Service::new(ServiceConfig {
        cache_bytes: 8 << 20,
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    }));
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

    let t0 = Instant::now();
    a.send(&image_run("big", 64, 512)).unwrap();
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

/// A unique-per-test socket path under the temp dir.
fn sock(which: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pitchfork-pipe-{which}-{}.sock", std::process::id()))
}
