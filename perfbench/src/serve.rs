//! The `serve` workload: `pitchforkd` runs as a child process on a
//! private Unix socket with default flags, and this process drives two
//! closed-loop client threads, one connection each:
//!
//! * **(a) pipelined** — a window of [`WINDOW`] tagged frames in flight,
//!   a unique tag per request (as clients using request ids do). Keys are
//!   Zipf-skewed over the warm set; [`NOVEL_PER_S`] requests a second use
//!   a novel key (suite expressions at unseen lane counts, filtered random
//!   trees), exercising the cache's write path: compile, insert, evict.
//! * **(b) v1** — serial untagged frames cycling through the warm set,
//!   with a short think time between them: the hot memo's read path.
//!
//! The service layers do most of the work; the two connections use the
//! memo and the cache in opposite ways. Every response must be
//! byte-identical to a direct compile with the tag spliced in.

use crate::common::{
    affinity, cpu_seconds, cpus, fast, geomean, median, one_cpu, peak_rss_mb, percentile,
    set_affinity, us, Args, Host, Report, Result,
};
use crate::compile::CompileLayers;
use crate::corpus::{lane_skip, random_skip, random_tree, Rejected, Skips};
use crate::trace::Tracer;
use fpir::Isa;
use fpir_workloads::all_workloads;
use pitchfork::{compile_to_executable, Artifact, EngineConfig, Pitchfork};
use pitchfork_service::key::{engine_bits, ruleset_fingerprint};
use pitchfork_service::protocol::decode_frame;
use pitchfork_service::{parse_request, CacheDecision, CacheKey, FastReply, Json};
use pitchfork_service::{Service, ServiceConfig};
use rand::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Tagged frames client (a) keeps in flight.
const WINDOW: usize = 16;
/// Novel keys client (a) sends per second, on a fixed schedule: about 2%
/// of its requests at the rates this workload reaches. New programs
/// arrive at their own pace, not the server's, so the compile load and
/// the cache growth per second do not depend on how fast hits are served.
const NOVEL_PER_S: f64 = 500.0;
/// Client (b)'s think time between a response and its next request while
/// client (a) runs, as a compiler does work between lookups. Without it
/// two saturating clients and the daemon's threads contend for two
/// cores, and throughput moved by a quarter between identical runs with
/// the scheduler's choices.
const V1_THINK: Duration = Duration::from_micros(200);
/// Length of the windows the measured phase is cut into; the run reports
/// each serve metric at its fast decile over the windows (see `fast`).
const WINDOW_S: f64 = 0.25;
/// Share of an untraced run in which client (b) runs alone, half at each
/// end. Its latency is gated from those phases: next to client (a) it
/// waits behind (a)'s window in the event loop by as much as the
/// scheduler decides, and its median moved between about 45 and 300 µs
/// between identical runs.
const V1_SOLO_SHARE: f64 = 0.2;
/// Shortest pinned segment of a solo phase.
const V1_SEGMENT_S: f64 = 1.0;
/// Zipf exponent of client (a)'s key popularity: an unverified choice,
/// see README.md.
const ZIPF_S: f64 = 1.0;
/// Lane count of the warm set (the suite's native width).
const WARM_LANES: u32 = fpir_workloads::LANES;
/// Daemon starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 9;
/// How long a daemon may take to answer its first `ping`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long any one response may take before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}
/// Requests of each client replayed in process by the traced run.
const REPLAY_A: usize = 20_000;
const REPLAY_B: usize = 5_000;

/// The `compile` frame body for one key.
fn body(text: &str, lanes: u32, isa: Isa) -> String {
    Json::Object(vec![
        ("op".into(), Json::str("compile")),
        ("expr".into(), Json::str(text)),
        ("lanes".into(), Json::Int(lanes.into())),
        ("isa".into(), Json::str(isa.slug())),
    ])
    .render()
}

/// `body` with `,"tag":N` spliced before the closing brace.
fn tagged(body: &str, tag: u64) -> String {
    format!("{},\"tag\":{tag}}}", &body[..body.len() - 1])
}

fn frame(out: &mut Vec<u8>, body: &str) {
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
}

/// The response a direct compile predicts for a key: the members
/// `pitchforkd` renders, with `source` as the cache reports it.
fn expected(art: &Artifact, key_fp: u64, source: &str) -> String {
    let lowered = art.lowered.to_string();
    let program = art.program.render();
    let bytes = art.approx_bytes() + lowered.len() + program.len();
    Json::Object(vec![
        ("ok".into(), Json::Bool(true)),
        ("cached".into(), Json::Bool(source == "hit")),
        ("source".into(), Json::str(source)),
        ("key".into(), Json::str(format!("{key_fp:016x}"))),
        ("isa".into(), Json::str(art.isa.short_name())),
        ("lowered".into(), Json::str(lowered)),
        ("program".into(), Json::str(program)),
        ("cycles".into(), Json::Int(art.cycles.into())),
        ("ops".into(), Json::Int(art.exe.op_count() as i128)),
        ("artifact_bytes".into(), Json::Int(bytes as i128)),
    ])
    .render()
}

fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

/// Selectors plus the rule-set fingerprints cache keys carry.
struct Direct {
    sels: Vec<(Isa, Pitchfork, u64)>,
}

impl Direct {
    fn new() -> Result<Direct> {
        let sels = crate::compile::selectors()?
            .into_iter()
            .map(|(isa, pf)| {
                let fp = ruleset_fingerprint(&pf);
                (isa, pf, fp)
            })
            .collect();
        Ok(Direct { sels })
    }

    fn get(&self, isa: Isa) -> &(Isa, Pitchfork, u64) {
        self.sels.iter().find(|s| s.0 == isa).expect("a selector per backend")
    }

    fn key_fp(&self, isa: Isa, expr: &fpir::RcExpr) -> u64 {
        CacheKey {
            expr: expr.to_string(),
            lanes: expr.ty().lanes,
            isa,
            engine: engine_bits(EngineConfig::FAST),
            synthesized_rules: true,
            leave_out: None,
            rules_fp: self.get(isa).2,
        }
        .fingerprint()
    }
}

/// One key of the warm set with its frames and predicted responses.
struct WarmKey {
    name: String,
    isa: Isa,
    text: String,
    body: String,
    v1_frame: Vec<u8>,
    hit: String,
    computed: String,
    cycles: u64,
}

fn warm_set(direct: &Direct, skips: &mut Skips) -> Result<Vec<WarmKey>> {
    let mut out = Vec::new();
    for wl in all_workloads() {
        let text = wl.pipeline.expr.to_string();
        let expr = fpir::parser::parse_expr(&text, WARM_LANES)
            .map_err(|e| format!("{}: {e}", wl.name()))?;
        for (isa, pf, _) in &direct.sels {
            if let Some(why) = lane_skip(*isa, &expr) {
                skips.add(wl.name(), *isa, why, true);
                continue;
            }
            let art = compile_to_executable(pf, &expr)
                .map_err(|e| format!("{} on {isa}: {e}", wl.name()))?;
            let fp = direct.key_fp(*isa, &expr);
            let body = body(&text, WARM_LANES, *isa);
            let mut v1_frame = Vec::new();
            frame(&mut v1_frame, &body);
            out.push(WarmKey {
                name: wl.name().to_string(),
                isa: *isa,
                text: text.clone(),
                body,
                v1_frame,
                hit: expected(&art, fp, "hit"),
                computed: expected(&art, fp, "computed"),
                cycles: art.cycles,
            });
        }
    }
    Ok(out)
}

/// Whether `resp` is `want` (a rendered object) with `,"tag":N` spliced in.
fn matches_tagged(resp: &[u8], want: &str, tag: u64) -> bool {
    let suffix = format!(",\"tag\":{tag}}}");
    let head = &want.as_bytes()[..want.len() - 1];
    resp.len() == head.len() + suffix.len()
        && resp.starts_with(head)
        && resp.ends_with(suffix.as_bytes())
}

/// The tag of a response: its final member.
fn response_tag(resp: &[u8]) -> Option<u64> {
    let at = resp.windows(6).rposition(|w| w == b"\"tag\":")?;
    let digits = &resp[at + 6..resp.len().checked_sub(1)?];
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// A buffered frame reader over a blocking stream.
struct Frames {
    buf: Vec<u8>,
    at: usize,
}

impl Frames {
    fn new() -> Frames {
        Frames { buf: Vec::with_capacity(1 << 16), at: 0 }
    }

    /// The next complete frame already buffered, if any.
    fn next(&mut self) -> Option<Vec<u8>> {
        let avail = &self.buf[self.at..];
        if avail.len() < 4 {
            return None;
        }
        let n = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if avail.len() < 4 + n {
            return None;
        }
        let body = avail[4..4 + n].to_vec();
        self.at += 4 + n;
        Some(body)
    }

    /// Read more bytes (blocking).
    fn fill(&mut self, s: &mut UnixStream) -> Result<()> {
        if self.at > 0 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        let mut chunk = [0u8; 65536];
        let n = s.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn recv(&mut self, s: &mut UnixStream) -> Result<Vec<u8>> {
        loop {
            if let Some(f) = self.next() {
                return Ok(f);
            }
            self.fill(s)?;
        }
    }
}

/// One serial request/response on a connection.
fn call(s: &mut UnixStream, frames: &mut Frames, body: &str) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    frame(&mut out, body);
    s.write_all(&out).map_err(|e| format!("write: {e}"))?;
    frames.recv(s)
}

/// The daemon under test. Dropping it kills and reaps the process unless
/// it was shut down cleanly.
struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
}

impl Daemon {
    /// Spawn `pitchforkd` with default flags and wait for its `ping`.
    fn start(bin: &Path, dir: &Path, n: usize) -> Result<Daemon> {
        let sock = dir.join(format!("d{n}.sock"));
        let log = std::fs::File::create(dir.join(format!("daemon{n}.log")))
            .map_err(|e| format!("daemon log: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.arg("--socket").arg(&sock).stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe system call. It has the kernel kill
        // the daemon if this process dies without reaching `Drop`.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut d = Daemon { child: Some(child), sock };
        let t0 = Instant::now();
        loop {
            if let Some(status) = d.child.as_mut().expect("running").try_wait().ok().flatten() {
                d.child = None;
                return Err(format!("pitchforkd exited during start-up: {status}"));
            }
            if let Ok(mut s) = d.connect() {
                let pong = call(&mut s, &mut Frames::new(), r#"{"op":"ping"}"#)?;
                if pong.starts_with(br#"{"ok":true,"pong":true"#) {
                    return Ok(d);
                }
                return Err(format!("bad ping reply: {}", String::from_utf8_lossy(&pong)));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("pitchforkd did not answer ping in time".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// A connection whose reads give up after [`IO_TIMEOUT`], so a wedged
    /// daemon fails the run instead of hanging it.
    fn connect(&self) -> Result<UnixStream> {
        let s = UnixStream::connect(&self.sock).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| format!("socket timeout: {e}"))?;
        Ok(s)
    }

    /// Stop with the `shutdown` op and require a clean exit.
    fn shutdown(mut self, s: &mut UnixStream) -> Result<()> {
        let reply = call(s, &mut Frames::new(), r#"{"op":"shutdown"}"#)?;
        if !reply.starts_with(br#"{"ok":true"#) {
            return Err(format!("shutdown refused: {}", String::from_utf8_lossy(&reply)));
        }
        let mut child = self.child.take().expect("running");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("pitchforkd exited with {status}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("pitchforkd did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Start a daemon and compile the warm set through it; returns the
/// daemon and the seconds it took to be ready for warm traffic.
fn start_warm(bin: &Path, dir: &Path, n: usize, warm: &[WarmKey]) -> Result<(Daemon, f64)> {
    let t0 = Instant::now();
    let d = Daemon::start(bin, dir, n)?;
    let mut s = d.connect()?;
    let mut frames = Frames::new();
    for k in warm {
        let resp = call(&mut s, &mut frames, &k.body)?;
        if resp != k.computed.as_bytes() {
            return Err(format!(
                "warm-up compile of {} on {} differs from a direct compile",
                k.name, k.isa
            ));
        }
    }
    Ok((d, t0.elapsed().as_secs_f64()))
}

/// A never-seen key for client (a).
#[derive(Clone)]
struct Novel {
    text: String,
    lanes: u32,
    isa: Isa,
}

/// Generates novel keys: half suite expressions at unseen lane counts,
/// half filtered random trees on a backend the static checks admit them
/// to, none repeated.
struct NovelGen {
    rng: StdRng,
    suite: Vec<(String, Vec<Isa>)>,
    used: HashSet<(String, u32, Isa)>,
    rejected: Rejected,
    /// Random trees drawn for a backend that the static checks keep
    /// from it (counted, not listed).
    skips: Skips,
}

impl NovelGen {
    fn new(seed: u64, warm: &[WarmKey]) -> NovelGen {
        let mut suite: Vec<(String, Vec<Isa>)> = Vec::new();
        for k in warm {
            match suite.iter_mut().find(|(t, _)| *t == k.text) {
                Some((_, isas)) => isas.push(k.isa),
                None => suite.push((k.text.clone(), vec![k.isa])),
            }
        }
        NovelGen {
            rng: StdRng::seed_from_u64(seed ^ 0x6e6f76656c),
            suite,
            used: HashSet::new(),
            rejected: Rejected::default(),
            skips: Skips::default(),
        }
    }

    fn next(&mut self) -> Novel {
        loop {
            let n = if self.rng.gen_bool(0.5) {
                let (text, isas) = &self.suite[self.rng.gen_range(0..self.suite.len())];
                let isa = *isas.choose(&mut self.rng).expect("nonempty");
                let lanes = self.rng.gen_range(2..=256u32);
                if lanes == WARM_LANES {
                    continue;
                }
                Novel { text: text.clone(), lanes, isa }
            } else {
                let isa = *fpir::machine::ALL_ISAS.choose(&mut self.rng).expect("nonempty");
                let (e, text) = loop {
                    let (e, text) = random_tree(&mut self.rng, &mut self.rejected);
                    match random_skip(isa, &e) {
                        Some(why) => self.skips.add(&text, isa, why, false),
                        None => break (e, text),
                    }
                };
                Novel { text, lanes: e.ty().lanes, isa }
            };
            if self.used.insert((n.text.clone(), n.lanes, n.isa)) {
                return n;
            }
        }
    }
}

/// What one request of client (a) asked for.
#[derive(Clone)]
enum Kind {
    Warm(usize),
    Novel(Novel),
}

/// A novel response kept for verification after the run.
struct NovelReply {
    key: Novel,
    tag: u64,
    hash: u64,
}

#[derive(Default)]
struct ClientA {
    /// Per completion: seconds since the phase started, latency in
    /// microseconds, and whether the key was novel.
    done: Vec<(f64, f64, bool)>,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    completed: u64,
    failed: u64,
    replies: Vec<NovelReply>,
    /// The request stream, for the in-process replay.
    log: Vec<(u64, Kind)>,
}

/// Zipf sampler over the warm set. The popularity ranks are one fixed
/// shuffle, the same on every seed: the hit path's cost grows with the
/// expression's size, so a seed that made the largest expression the
/// most popular would change the workload, not just its draws.
struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(0x7a697066));
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, order }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let r = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[r]
    }
}

struct ClientAState {
    rng: StdRng,
    zipf: Zipf,
    novel: NovelGen,
    next_tag: u64,
    /// When the next novel key is due.
    novel_due: Instant,
}

/// Client (a): keep [`WINDOW`] tagged requests in flight until `deadline`,
/// then drain.
fn run_client_a(
    s: &mut UnixStream,
    st: &mut ClientAState,
    warm: &[WarmKey],
    start: Instant,
    deadline: Instant,
    log_cap: usize,
) -> Result<ClientA> {
    let period = Duration::from_secs_f64(1.0 / NOVEL_PER_S);
    st.novel_due = start + period;
    let mut out = ClientA::default();
    let mut inflight: HashMap<u64, (Instant, Kind)> = HashMap::with_capacity(WINDOW * 2);
    let mut frames = Frames::new();
    let mut send = Vec::new();
    let issue = |st: &mut ClientAState, send: &mut Vec<u8>, out: &mut ClientA| {
        let tag = st.next_tag;
        st.next_tag += 1;
        let kind = if Instant::now() >= st.novel_due {
            st.novel_due += period;
            Kind::Novel(st.novel.next())
        } else {
            Kind::Warm(st.zipf.sample(&mut st.rng))
        };
        let b = match &kind {
            Kind::Warm(i) => tagged(&warm[*i].body, tag),
            Kind::Novel(n) => tagged(&body(&n.text, n.lanes, n.isa), tag),
        };
        frame(send, &b);
        if out.log.len() < log_cap {
            out.log.push((tag, kind.clone()));
        }
        (tag, kind)
    };
    while inflight.len() < WINDOW {
        let (tag, kind) = issue(st, &mut send, &mut out);
        inflight.insert(tag, (Instant::now(), kind));
    }
    s.write_all(&send).map_err(|e| format!("write: {e}"))?;
    send.clear();
    while !inflight.is_empty() {
        frames.fill(s)?;
        let mut pending: Vec<(u64, Kind)> = Vec::new();
        while let Some(resp) = frames.next() {
            let now = Instant::now();
            let tag = response_tag(&resp).ok_or("response without a tag")?;
            let (sent, kind) = inflight.remove(&tag).ok_or("response for an unknown tag")?;
            let lat = us(now - sent);
            out.completed += 1;
            out.done.push(((now - start).as_secs_f64(), lat, matches!(kind, Kind::Novel(_))));
            match kind {
                Kind::Warm(i) => {
                    let k = &warm[i];
                    if !(matches_tagged(&resp, &k.hit, tag)
                        || matches_tagged(&resp, &k.computed, tag))
                    {
                        out.failed += 1;
                    }
                    out.hit_us.push(lat);
                }
                Kind::Novel(n) => {
                    out.miss_us.push(lat);
                    out.replies.push(NovelReply { key: n, tag, hash: hash_bytes(&resp) });
                }
            }
            if now < deadline {
                pending.push(issue(st, &mut send, &mut out));
            }
        }
        if !send.is_empty() {
            let now = Instant::now();
            s.write_all(&send).map_err(|e| format!("write: {e}"))?;
            send.clear();
            for (tag, kind) in pending {
                inflight.insert(tag, (now, kind));
            }
        }
    }
    Ok(out)
}

#[derive(Default)]
struct ClientB {
    /// Completion times, in seconds since the phase started.
    done: Vec<f64>,
    /// Daemon CPU seconds at each window boundary, from the phase start.
    cpu_marks: Vec<f64>,
    lat_us: Vec<f64>,
    completed: u64,
    failed: u64,
    /// Warm-key indices in request order, for the in-process replay.
    log: Vec<usize>,
}

/// Client (b): serial untagged frames cycling through the warm set,
/// `think` apart.
#[allow(clippy::too_many_arguments)]
fn run_client_b(
    s: &mut UnixStream,
    frames: &mut Frames,
    warm: &[WarmKey],
    next: &mut usize,
    (start, deadline): (Instant, Instant),
    think: Duration,
    daemon: u32,
    log_cap: usize,
) -> Result<ClientB> {
    let mut out = ClientB::default();
    out.cpu_marks.push(cpu_seconds(Some(daemon))?);
    let window = Duration::from_secs_f64(WINDOW_S);
    let mut boundary = start + window;
    while Instant::now() < deadline {
        if Instant::now() >= boundary {
            out.cpu_marks.push(cpu_seconds(Some(daemon))?);
            boundary += window;
        }
        let i = *next % warm.len();
        *next += 1;
        let k = &warm[i];
        let t0 = Instant::now();
        s.write_all(&k.v1_frame).map_err(|e| format!("write: {e}"))?;
        let resp = frames.recv(s)?;
        out.lat_us.push(us(t0.elapsed()));
        out.done.push((Instant::now() - start).as_secs_f64());
        out.completed += 1;
        if resp != k.hit.as_bytes() && resp != k.computed.as_bytes() {
            out.failed += 1;
        }
        if out.log.len() < log_cap {
            out.log.push(i);
        }
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    }
    Ok(out)
}

/// Counters from the daemon's `stats` op.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    cache_hits: f64,
    cache_misses: f64,
    flight_joins: f64,
    compiles: f64,
    hot_hits: f64,
    evictions: f64,
    errors: f64,
    dispatch_batch_max: f64,
}

fn stats(s: &mut UnixStream, frames: &mut Frames) -> Result<Counters> {
    let resp = call(s, frames, r#"{"op":"stats"}"#)?;
    let v = pitchfork_service::json::parse(&String::from_utf8_lossy(&resp))
        .map_err(|e| format!("stats reply: {e}"))?;
    let get = |k: &str| -> Result<f64> {
        v.get(k).and_then(Json::as_int).map(|n| n as f64).ok_or(format!("stats lacks `{k}`"))
    };
    Ok(Counters {
        cache_hits: get("cache_hits")?,
        cache_misses: get("cache_misses")?,
        flight_joins: get("flight_joins")?,
        compiles: get("compiles")?,
        hot_hits: get("hot_hits")?,
        evictions: get("cache_evictions")?,
        errors: get("errors")?,
        dispatch_batch_max: get("dispatch_batch_max")?,
    })
}

impl std::ops::Sub for Counters {
    type Output = Counters;
    fn sub(self, o: Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - o.cache_hits,
            cache_misses: self.cache_misses - o.cache_misses,
            flight_joins: self.flight_joins - o.flight_joins,
            compiles: self.compiles - o.compiles,
            hot_hits: self.hot_hits - o.hot_hits,
            evictions: self.evictions - o.evictions,
            errors: self.errors - o.errors,
            dispatch_batch_max: self.dispatch_batch_max,
        }
    }
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Thread ids of process `pid`.
fn threads(pid: u32) -> Vec<i32> {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .map(|dir| dir.flatten().filter_map(|t| t.file_name().to_str()?.parse().ok()).collect())
        .unwrap_or_default()
}

/// Run `f` with the calling thread and every daemon thread on `cpu`,
/// then give each back the CPUs it had. A serial client and the event
/// loop then always share a core: left to the scheduler, they shared one
/// in some runs and not in others, and client (b)'s median latency moved
/// between about 9 and 19 µs from run to run.
fn on_cpu<T>(daemon: u32, cpu: usize, f: impl FnOnce() -> Result<T>) -> Result<T> {
    let own = affinity(0)?;
    let theirs = affinity(daemon as i32)?;
    let one = one_cpu(cpu);
    if !set_affinity(0, &one) || !set_affinity(daemon as i32, &one) {
        set_affinity(0, &own);
        set_affinity(daemon as i32, &theirs);
        return Err("sched_setaffinity failed".into());
    }
    // A thread that exits meanwhile cannot be pinned; that is harmless.
    for t in threads(daemon) {
        set_affinity(t, &one);
    }
    let out = f();
    set_affinity(0, &own);
    for t in threads(daemon) {
        set_affinity(t, &theirs);
    }
    out
}

/// Put the calling client thread under `SCHED_BATCH`, as `service-bench`
/// does: with more runnable threads than cores, a client woken by every
/// response would otherwise preempt the daemon's event loop mid-iteration,
/// and the run would measure the scheduler's wake-up heuristics.
fn batch_sched() {
    const SCHED_BATCH: i32 = 3;
    let priority: i32 = 0;
    // SAFETY: `priority` is a valid `struct sched_param` (a single int)
    // that outlives the call; pid 0 names the calling thread. Failure
    // leaves the default policy, which is only slower to measure.
    unsafe {
        sched_setscheduler(0, SCHED_BATCH, &priority);
    }
}

/// One measured phase with both clients, or either alone.
struct Phase {
    a: Option<ClientA>,
    b: Option<ClientB>,
    secs: f64,
    cpu: f64,
    counters: Counters,
}

struct Conns {
    a: UnixStream,
    b: UnixStream,
    b_frames: Frames,
    a_state: ClientAState,
    b_next: usize,
}

fn phase(
    d: &Daemon,
    c: &mut Conns,
    warm: &[WarmKey],
    secs: f64,
    with_a: bool,
    with_b: bool,
    log: bool,
) -> Result<Phase> {
    let Conns { a: a_stream, b: b_stream, b_frames, a_state, b_next } = c;
    let before = stats(b_stream, b_frames)?;
    let cpu0 = cpu_seconds(Some(d.pid()))?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let (cap_a, cap_b) = if log { (REPLAY_A, REPLAY_B) } else { (0, 0) };
    let (a, b) = std::thread::scope(|sc| -> Result<(Option<ClientA>, Option<ClientB>)> {
        let a = if with_a {
            Some(sc.spawn(move || {
                batch_sched();
                run_client_a(a_stream, a_state, warm, start, deadline, cap_a)
            }))
        } else {
            None
        };
        let b = if with_b {
            let span = (start, deadline);
            let think = if with_a { V1_THINK } else { Duration::ZERO };
            Some(run_client_b(b_stream, b_frames, warm, b_next, span, think, d.pid(), cap_b)?)
        } else {
            None
        };
        let a = match a {
            Some(h) => Some(h.join().map_err(|_| "client (a) panicked")??),
            None => None,
        };
        Ok((a, b))
    })?;
    let secs = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds(Some(d.pid()))? - cpu0;
    let counters = stats(b_stream, b_frames)? - before;
    Ok(Phase { a, b, secs, cpu, counters })
}

/// The serve metrics of one both-clients phase, per [`WINDOW_S`] window
/// (the drain after the deadline and any partial window are left out).
#[derive(Default)]
struct Windows {
    rate_a: Vec<f64>,
    hit_p50_us: Vec<f64>,
    miss_p50_us: Vec<f64>,
    cpu_us_per_req: Vec<f64>,
}

fn windows(a: &ClientA, b: &ClientB) -> Windows {
    let n = b.cpu_marks.len().saturating_sub(1);
    let slot = |t: f64| (t / WINDOW_S) as usize;
    let mut hits = vec![Vec::new(); n];
    let mut misses = vec![Vec::new(); n];
    let mut reqs = vec![0u64; n];
    for &(t, lat, novel) in &a.done {
        let w = slot(t);
        if w < n {
            reqs[w] += 1;
            if novel { &mut misses[w] } else { &mut hits[w] }.push(lat);
        }
    }
    let a_reqs = reqs.clone();
    for &t in &b.done {
        if slot(t) < n {
            reqs[slot(t)] += 1;
        }
    }
    let mut out = Windows::default();
    for w in 0..n {
        if hits[w].is_empty() || misses[w].is_empty() || reqs[w] == 0 {
            continue;
        }
        out.rate_a.push(a_reqs[w] as f64 / WINDOW_S);
        out.hit_p50_us.push(median(&hits[w]));
        out.miss_p50_us.push(median(&misses[w]));
        out.cpu_us_per_req.push((b.cpu_marks[w + 1] - b.cpu_marks[w]) * 1e6 / reqs[w] as f64);
    }
    out
}

/// Client (b)'s median latency in each complete [`WINDOW_S`] window.
fn v1_windows(b: &ClientB) -> Vec<f64> {
    let n = b.cpu_marks.len().saturating_sub(1);
    let mut lat = vec![Vec::new(); n];
    for (&t, &l) in b.done.iter().zip(&b.lat_us) {
        if let Some(w) = lat.get_mut((t / WINDOW_S) as usize) {
            w.push(l);
        }
    }
    lat.iter().filter(|w| !w.is_empty()).map(|w| median(w)).collect()
}

/// Check every novel reply against a direct compile; returns the number
/// that differ and the cycle costs of the novel keys. In a traced run the
/// compiles go through the phase hook.
fn verify_novel(
    direct: &Direct,
    replies: &[NovelReply],
    mut traced: Option<(&mut Tracer, &mut CompileLayers)>,
    cycles: &mut Vec<f64>,
    expected_bodies: &mut HashMap<(String, u32, Isa), String>,
) -> u64 {
    let mut bad = 0;
    for (i, r) in replies.iter().enumerate() {
        let (isa, pf, _) = direct.get(r.key.isa);
        let Ok(expr) = fpir::parser::parse_expr(&r.key.text, r.key.lanes) else {
            bad += 1;
            continue;
        };
        let art = match traced.as_mut() {
            Some((tr, layers)) => layers.compile(tr, pf, &expr, i as u64, false),
            None => compile_to_executable(pf, &expr),
        };
        let Ok(art) = art else {
            bad += 1;
            continue;
        };
        let want = expected(&art, direct.key_fp(*isa, &expr), "computed");
        if hash_bytes(tagged(&want, r.tag).as_bytes()) != r.hash {
            bad += 1;
        }
        cycles.push(art.cycles.max(1) as f64);
        expected_bodies.insert((r.key.text.clone(), r.key.lanes, r.key.isa), want);
    }
    bad
}

/// Per-request layer costs measured by replaying the recorded request
/// stream in process against `Service` and the protocol functions.
#[derive(Default)]
struct Replay {
    wall_ns: u64,
    failed: u64,
    attempted: u64,
    hit_path_us: Vec<f64>,
    handle_miss_us: Vec<f64>,
}

fn replay(
    warm: &[WarmKey],
    stream: &[(Option<u64>, Kind)],
    expected_bodies: &HashMap<(String, u32, Isa), String>,
    mut tr: Option<&mut Tracer>,
) -> Result<Replay> {
    let svc = Service::new(ServiceConfig::default());
    for k in warm {
        let req =
            parse_request(&decode_frame(k.body.clone().into_bytes()).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
        if svc.handle_local(&req).render() != k.computed {
            return Err(format!("in-process warm-up of {} on {} differs", k.name, k.isa));
        }
    }
    let bodies: Vec<Vec<u8>> = stream
        .iter()
        .map(|(tag, kind)| {
            let b = match kind {
                Kind::Warm(i) => warm[*i].body.clone(),
                Kind::Novel(n) => body(&n.text, n.lanes, n.isa),
            };
            match tag {
                Some(t) => tagged(&b, *t).into_bytes(),
                None => b.into_bytes(),
            }
        })
        .collect();
    let mut out = Replay::default();
    let start = Instant::now();
    for (req_id, ((_, kind), raw)) in stream.iter().zip(bodies).enumerate() {
        let req_id = req_id as u64;
        let t0 = Instant::now();
        let json = decode_frame(raw).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let req = parse_request(&json).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let decision = svc.classify(&req);
        let t3 = Instant::now();
        let (reply, miss) = match decision {
            CacheDecision::Reply(FastReply::Raw(b)) => (b, None),
            CacheDecision::Reply(FastReply::Json(j)) => (j.render(), None),
            CacheDecision::Dispatch | CacheDecision::MissRemote(_) => {
                let t4 = Instant::now();
                let r = svc.handle_local(&req).render();
                (r, Some((t4, Instant::now())))
            }
        };
        let t5 = Instant::now();
        let want = match kind {
            Kind::Warm(i) => Some(&warm[*i].hit),
            Kind::Novel(n) => expected_bodies.get(&(n.text.clone(), n.lanes, n.isa)),
        };
        out.attempted += 1;
        if miss.is_none() == matches!(kind, Kind::Novel(_)) || want != Some(&reply) {
            out.failed += 1;
        }
        let t6 = Instant::now();
        let spec = match &req {
            pitchfork_service::Request::Compile(spec) => spec,
            _ => return Err("replayed a non-compile request".into()),
        };
        let parsed = fpir::parser::parse_expr(&spec.expr, spec.lanes);
        let t7 = Instant::now();
        if parsed.is_err() {
            out.failed += 1;
        }
        match miss {
            Some((a, b)) => out.handle_miss_us.push(us(b - a)),
            None => out.hit_path_us.push(us(t3 - t0)),
        }
        if let Some(tr) = tr.as_deref_mut() {
            let root = tr.open("request", t0, req_id);
            tr.record("protocol.decode", t0, t1, Some(root), req_id);
            tr.record("protocol.parse", t1, t2, Some(root), req_id);
            tr.record("service.classify", t2, t3, Some(root), req_id);
            if let Some((a, b)) = miss {
                tr.record("service.handle_miss", a, b, Some(root), req_id);
            }
            tr.close(root, t5);
            tr.record("bench.check", t5, t6, None, req_id);
            tr.record("parser.expr", t6, t7, None, req_id);
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    Ok(out)
}

pub fn run(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let bin = args.pitchforkd.clone().ok_or("the serve workload needs `--pitchforkd PATH`")?;
    let direct = Direct::new()?;
    let mut skips = Skips::default();
    let warm = warm_set(&direct, &mut skips)?;
    let dir = args.out_dir.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o700))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    if dir.join("dN.sock").as_os_str().len() > 100 {
        return Err(format!("socket path under {} is too long", dir.display()));
    }

    // Set-up: start the daemon and warm it, several times; the last one
    // serves the measured phase.
    let mut setup_samples = Vec::new();
    let mut daemon = None;
    for n in 0..SETUP_STARTS {
        let (d, secs) = start_warm(&bin, &dir, n, &warm)?;
        setup_samples.push(secs);
        if n + 1 < SETUP_STARTS {
            let mut s = d.connect()?;
            d.shutdown(&mut s)?;
        } else {
            daemon = Some(d);
        }
    }
    let d = daemon.expect("last start kept");
    report.attempted += (SETUP_STARTS * warm.len()) as u64;

    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut conns = Conns {
        a: d.connect()?,
        b: d.connect()?,
        b_frames: Frames::new(),
        a_state: ClientAState {
            rng: StdRng::seed_from_u64(args.seed ^ 0xa11ce),
            zipf: Zipf::new(warm.len()),
            novel: NovelGen::new(args.seed, &warm),
            next_tag: 1,
            novel_due: Instant::now(),
        },
        b_next: rng.gen_range(0..warm.len()),
    };

    batch_sched();
    let mut host = Host::begin();
    let phases: Vec<Phase> = if args.trace {
        // Each client alone first, so the memo hits of each connection
        // can be told apart, then both together as in the untraced run.
        vec![
            phase(&d, &mut conns, &warm, args.seconds * 0.25, true, false, false)?,
            phase(&d, &mut conns, &warm, args.seconds * 0.25, false, true, false)?,
            phase(&d, &mut conns, &warm, args.seconds * 0.5, true, true, true)?,
        ]
    } else {
        // Client (b) alone, for its latency on the memo's read path, then
        // both clients, then (b) alone again. Each solo half is one pinned
        // segment per CPU in turn: pinned to one CPU for a whole phase, its
        // median still moved between about 8 and 11 µs from run to run
        // with that CPU's neighbours, and a slow spell rarely covers both
        // ends of a run.
        let solo = args.seconds * V1_SOLO_SHARE;
        let allowed = cpus(&affinity(0)?);
        let per_half = allowed.len().min((solo / 2.0 / V1_SEGMENT_S) as usize).max(1);
        let secs = solo / 2.0 / per_half as f64;
        let mut phases = Vec::new();
        for half in 0..2 {
            if half == 1 {
                phases.push(phase(&d, &mut conns, &warm, args.seconds - solo, true, true, false)?);
            }
            for &cpu in &allowed[..per_half] {
                phases.push(on_cpu(d.pid(), cpu, || {
                    phase(&d, &mut conns, &warm, secs, false, true, false)
                })?);
            }
        }
        phases
    };
    host.end();
    let rss = peak_rss_mb(Some(d.pid()))?;
    let Conns { a, mut b, a_state, .. } = conns;
    drop(a);
    d.shutdown(&mut b)?;
    let _ = std::fs::remove_dir_all(&dir);

    // Correctness of everything the clients saw.
    let mut tr = Tracer::new();
    let mut layers = CompileLayers::default();
    let mut cycles: Vec<f64> = warm.iter().map(|k| k.cycles.max(1) as f64).collect();
    let mut expected_bodies = HashMap::new();
    for p in &phases {
        if let Some(a) = &p.a {
            report.attempted += a.completed;
            report.failed += a.failed;
            let traced = args.trace.then_some((&mut tr, &mut layers));
            report.failed +=
                verify_novel(&direct, &a.replies, traced, &mut cycles, &mut expected_bodies);
        }
        if let Some(b) = &p.b {
            report.attempted += b.completed;
            report.failed += b.failed;
        }
    }
    // The phase with both clients, which every other serve number reads.
    let last = phases.iter().find(|p| p.a.is_some() && p.b.is_some()).expect("a mixed phase");
    let a = last.a.as_ref().expect("client (a) ran");
    let b = last.b.as_ref().expect("client (b) ran");
    let served = (a.completed + b.completed).max(1) as f64;
    let cpu_us_per_req = last.cpu * 1e6 / served;

    if args.trace {
        let novel_count: u64 =
            phases.iter().filter_map(|p| p.a.as_ref()).map(|a| a.replies.len() as u64).sum();
        layers.report(&mut report, 1.0);
        let (pa, pb) = (&phases[0], &phases[1]);
        let total = phases.iter().fold(Counters::default(), |acc, p| Counters {
            cache_hits: acc.cache_hits + p.counters.cache_hits,
            cache_misses: acc.cache_misses + p.counters.cache_misses,
            flight_joins: acc.flight_joins + p.counters.flight_joins,
            compiles: acc.compiles + p.counters.compiles,
            evictions: acc.evictions + p.counters.evictions,
            ..acc
        });
        let ratio = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
        report.set(
            "service.cache_hit_ratio",
            ratio(total.cache_hits, total.cache_hits + total.cache_misses),
        );
        report.set("service.compiles", total.compiles);
        report.set("service.flight_joins", total.flight_joins);
        report.set("service.evictions", total.evictions);
        report.set("service.memo_hit_ratio", ratio(last.counters.hot_hits, served));
        let a_alone = pa.a.as_ref().map_or(0, |a| a.completed) as f64;
        let b_alone = pb.b.as_ref().map_or(0, |b| b.completed) as f64;
        report.set("service.memo_hit_ratio_a", ratio(pa.counters.hot_hits, a_alone));
        report.set("service.memo_hit_ratio_v1", ratio(pb.counters.hot_hits, b_alone));
        report.set("service.dispatch_batch_max", last.counters.dispatch_batch_max);
        report.set("service.v1_p50_us", median(&b.lat_us));
        report.set("service.hit_p99_us", percentile(&a.hit_us, 0.99));
        report.set("service.v1_p99_us", percentile(&b.lat_us, 0.99));
        let all_a: Vec<f64> = a.hit_us.iter().chain(&a.miss_us).copied().collect();
        report.set("diag.op_p99_us", percentile(&all_a, 0.99));

        // The same request stream, in process: untraced, then traced, each
        // on a fresh service so misses stay misses.
        let stream: Vec<(Option<u64>, Kind)> = a
            .log
            .iter()
            .map(|(t, k)| (Some(*t), k.clone()))
            .chain(b.log.iter().map(|&i| (None, Kind::Warm(i))))
            .collect();
        let plain = replay(&warm, &stream, &expected_bodies, None)?;
        let spans_before = tr.len();
        let traced = replay(&warm, &stream, &expected_bodies, Some(&mut tr))?;
        for r in [&plain, &traced] {
            report.attempted += r.attempted;
            report.failed += r.failed;
        }
        let spans = tr.layers();
        let mean = |n: &str| spans.get(n).map_or(0.0, |t| t.mean_us());
        report.set("protocol.decode_us", mean("protocol.decode"));
        report.set("protocol.parse_us", mean("protocol.parse"));
        report.set("parser.expr_us", mean("parser.expr"));
        report.set("service.classify_us", mean("service.classify"));
        report.set("service.handle_miss_us", mean("service.handle_miss"));
        let hit_path =
            traced.hit_path_us.iter().sum::<f64>() / traced.hit_path_us.len().max(1) as f64;
        report.set("eventloop.residual_cpu_us", cpu_us_per_req - hit_path);
        report.set("service.miss_wait_us", median(&a.miss_us) - median(&traced.handle_miss_us));
        let replay_spans: u64 = [
            "request",
            "protocol.decode",
            "protocol.parse",
            "service.classify",
            "service.handle_miss",
            "bench.check",
            "parser.expr",
        ]
        .iter()
        .filter_map(|n| spans.get(n))
        .map(|t| t.self_ns)
        .sum();
        report.set("trace.coverage", replay_spans as f64 / traced.wall_ns.max(1) as f64);
        report.set(
            "trace.overhead_share",
            (traced.wall_ns as f64 - plain.wall_ns as f64) / plain.wall_ns.max(1) as f64,
        );
        report.set("trace.spans", tr.len() as f64);
        report.note("replayed_requests", Json::Int(stream.len() as i128));
        report.note("replay_spans", Json::Int((tr.len() - spans_before) as i128));
        report.note("novel_keys_compiled", Json::Int(novel_count.into()));
        let path = args.out_dir.join("spans-serve.csv");
        tr.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        let w = windows(a, b);
        if w.rate_a.len() < 4 {
            return Err("too few complete windows; raise --seconds".into());
        }
        report.set("setup_s", median(&setup_samples));
        report.set("peak_rss_mb", rss);
        report.set("ops_per_s", percentile(&w.rate_a, 0.9));
        report.set("p50_us", fast(&w.hit_p50_us));
        report.set("heavy_p50_us", fast(&w.miss_p50_us));
        let solo: Vec<f64> = phases
            .iter()
            .filter(|p| p.a.is_none())
            .flat_map(|p| v1_windows(p.b.as_ref().expect("client (b) ran alone")))
            .collect();
        report.set("second_us", fast(&solo));
        report.set("cpu_us_per_op", fast(&w.cpu_us_per_req));
        report.note("windows", Json::Int(w.rate_a.len() as i128));
        report.note("median_rate_a", Json::Float(median(&w.rate_a)));
        report.set("cycles_geomean", geomean(cycles.iter().copied()));
    }
    report.note("host", host.record(args));
    report
        .note("setup_samples_s", Json::Array(setup_samples.into_iter().map(Json::Float).collect()));
    report.note("warm_keys", Json::Int(warm.len() as i128));
    report.note(
        "client_a",
        Json::Object(vec![
            ("completed".into(), Json::Int(a.completed.into())),
            ("rate_per_s".into(), Json::Float(a.completed as f64 / last.secs)),
            ("novel".into(), Json::Int(a.miss_us.len() as i128)),
            ("hit_p50_us".into(), Json::Float(median(&a.hit_us))),
            ("hit_p99_us".into(), Json::Float(percentile(&a.hit_us, 0.99))),
            ("miss_p50_us".into(), Json::Float(median(&a.miss_us))),
        ]),
    );
    report.note(
        "client_b",
        Json::Object(vec![
            ("completed".into(), Json::Int(b.completed.into())),
            ("p50_us".into(), Json::Float(median(&b.lat_us))),
            ("p99_us".into(), Json::Float(percentile(&b.lat_us, 0.99))),
        ]),
    );
    report.note("daemon_cpu_s", Json::Float(last.cpu));
    report.note("skipped", skips.to_json());
    report.note("novel_skipped", a_state.novel.skips.to_json());
    report.note("rejected_trees", a_state.novel.rejected.to_json());
    Ok(report)
}
