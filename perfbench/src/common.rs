//! Shared plumbing: arguments, statistics, `/proc` sampling, the host
//! record, and the result line.

use pitchfork_service::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

pub const USAGE: &str = "\
usage: perfbench --workload compile|serve|exec --seed N --seconds S --trace 0|1
                 [--pitchforkd PATH] [--out-dir DIR] [--rev REV]
       perfbench --setup-probe compile|exec";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compile,
    Serve,
    Exec,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload> {
        match s {
            "compile" => Ok(Workload::Compile),
            "serve" => Ok(Workload::Serve),
            "exec" => Ok(Workload::Exec),
            other => Err(format!("unknown workload `{other}` (compile, serve or exec)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Serve => "serve",
            Workload::Exec => "exec",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pitchforkd: Option<PathBuf>,
    pub out_dir: PathBuf,
    pub rev: String,
    /// Set up once, print the seconds it took, and exit.
    pub setup_probe: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut pitchforkd = None;
        let mut out_dir = PathBuf::from(".bench_out");
        let mut rev = String::from("unknown");
        let mut setup_probe = false;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value()?)?),
                "--setup-probe" => {
                    workload = Some(Workload::parse(&value()?)?);
                    setup_probe = true;
                }
                "--seed" => {
                    seed = Some(value()?.parse().map_err(|_| "`--seed` must be an integer")?)
                }
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "`--seconds` must be a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("`--seconds` must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("`--trace` must be 0 or 1".into()),
                    })
                }
                "--pitchforkd" => pitchforkd = Some(PathBuf::from(value()?)),
                "--out-dir" => out_dir = PathBuf::from(value()?),
                "--rev" => rev = value()?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("`--workload` is required")?;
        if setup_probe {
            return Ok(Args {
                workload,
                seed: 0,
                seconds: 1.0,
                trace: false,
                pitchforkd,
                out_dir,
                rev,
                setup_probe,
            });
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("`--seed` is required")?,
            seconds: seconds.ok_or("`--seconds` is required")?,
            trace: trace.ok_or("`--trace` is required")?,
            pitchforkd,
            out_dir,
            rev,
            setup_probe,
        })
    }

    /// When a measured phase that began at `start` ends.
    pub fn deadline_from(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// One operation's timing samples, in memory that does not grow: the
/// best (minimum) and count of all of them, and the latest [`RECENT`] in
/// a ring written in full when it is made. Every ring is made before the
/// measured phase, so the benchmark's own resident memory, which counts
/// in `peak_rss_mb`, is the same however many operations a run completes.
#[derive(Debug, Clone)]
pub struct Samples {
    best: f64,
    count: u64,
    ring: Vec<f64>,
}

/// Samples an operation's ring keeps (one 4 KiB page).
pub const RECENT: usize = 512;

impl Samples {
    pub fn new() -> Samples {
        // A non-zero fill, so every page is written now and not on first use.
        Samples { best: f64::INFINITY, count: 0, ring: vec![f64::NAN; RECENT] }
    }

    pub fn push(&mut self, x: f64) {
        self.best = self.best.min(x);
        self.ring[(self.count % RECENT as u64) as usize] = x;
        self.count += 1;
    }

    /// Operations timed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The best repeat: the minimum, infinite before the first sample.
    /// Other tenants of a shared host only ever slow an operation down,
    /// so the best repeat tracks the program while the median tracks the
    /// neighbours too; medians stay in each run's detail record.
    pub fn best(&self) -> f64 {
        self.best
    }

    /// The latest samples, at most [`RECENT`] of them.
    pub fn recent(&self) -> &[f64] {
        &self.ring[..(self.count as usize).min(RECENT)]
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The fast decile of per-window figures (10th percentile), for numbers
/// that only exist per window, like a served request rate.
pub fn fast(samples: &[f64]) -> f64 {
    percentile(samples, 0.1)
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// A CPU set as the kernel's affinity calls take it (up to 1024 CPUs).
pub type CpuMask = [u64; 16];

/// The CPUs thread `tid` may run on (0: the calling thread).
pub fn affinity(tid: i32) -> Result<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is writable for the size passed; the kernel writes
    // at most that many bytes.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc == 0 {
        Ok(mask)
    } else {
        Err(format!("sched_getaffinity({tid}) failed"))
    }
}

/// Restrict thread `tid` (0: the calling thread) to `mask`; threads and
/// processes it starts afterwards inherit the mask.
pub fn set_affinity(tid: i32, mask: &CpuMask) -> bool {
    // SAFETY: `mask` is readable for the size passed and outlives the call.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// The CPUs in `mask`, in order.
pub fn cpus(mask: &CpuMask) -> Vec<usize> {
    (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

pub fn one_cpu(cpu: usize) -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_seconds() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Clock ticks per second of the `/proc` CPU counters.
pub fn clk_tck() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer selector and touches no caller
    // memory; an unknown selector returns -1, handled below.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// utime + stime of a process (all its threads), in seconds.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64> {
    let path = proc_path(pid, "stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = text.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: no comm"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64> {
        f.get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .map(|v| v as f64)
            .ok_or_else(|| format!("{path}: malformed"))
    };
    Ok((tick(11)? + tick(12)?) / clk_tck())
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64> {
    let path = proc_path(pid, "status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// Aggregate CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    total: u64,
    idle: u64,
    steal: u64,
}

impl CpuSample {
    pub fn now() -> CpuSample {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().next() else { return CpuSample::default() };
        let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|s| s.parse().ok()).collect();
        let get = |i: usize| v.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user).
        CpuSample { total: (0..8).map(get).sum(), idle: get(3) + get(4), steal: get(7) }
    }
}

/// What the machine was doing while a run measured: the host record.
#[derive(Debug)]
pub struct Host {
    start: CpuSample,
    end: CpuSample,
}

impl Host {
    pub fn begin() -> Host {
        let s = CpuSample::now();
        Host { start: s, end: s }
    }

    pub fn end(&mut self) {
        self.end = CpuSample::now();
    }

    pub fn record(&self, args: &Args) -> Json {
        let total = self.end.total.saturating_sub(self.start.total).max(1) as f64;
        let steal = self.end.steal.saturating_sub(self.start.steal);
        let idle = self.end.idle.saturating_sub(self.start.idle) as f64;
        let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
        let load1 = loadavg.split_whitespace().next().and_then(|s| s.parse::<f64>().ok());
        Json::Object(vec![
            ("workload".into(), Json::str(args.workload.name())),
            ("seed".into(), Json::Int(args.seed.into())),
            ("seconds".into(), Json::Float(args.seconds)),
            ("trace".into(), Json::Bool(args.trace)),
            ("nproc".into(), Json::Int(nproc() as i128)),
            ("rev".into(), Json::str(args.rev.clone())),
            ("profile".into(), Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
            ("steal_ticks".into(), Json::Int(steal.into())),
            ("steal_share".into(), Json::Float(steal as f64 / total)),
            ("busy_share".into(), Json::Float(1.0 - idle / total)),
            ("loadavg_1m".into(), load1.map_or(Json::Null, Json::Float)),
        ])
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The end-to-end metrics, in `BENCHMARK.json` order: every workload
/// reports every one of them (the per-workload meaning is in README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("heavy_p50_us", "us"),
    ("second_us", "us"),
    ("cpu_us_per_op", "us"),
    ("cycles_geomean", "cycles"),
];

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order. A
/// layer a workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lift.busy_ms", "ms"),
    ("lower_predicated.busy_ms", "ms"),
    ("lower.busy_ms", "ms"),
    ("legalize.busy_ms", "ms"),
    ("emit.busy_ms", "ms"),
    ("link.busy_ms", "ms"),
    ("emit.unrolled_share", "ratio"),
    ("unrolled.next_phase_share", "ratio"),
    ("trs.nodes_visited", "count"),
    ("trs.memo_hit_ratio", "ratio"),
    ("trs.rules_fired", "count"),
    ("lifted_nodes", "count"),
    ("lowered_nodes", "count"),
    ("program_insts", "count"),
    ("exe_steps", "count"),
    ("fused_kernels", "count"),
    ("protocol.decode_us", "us"),
    ("protocol.parse_us", "us"),
    ("parser.expr_us", "us"),
    ("service.classify_us", "us"),
    ("service.handle_miss_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.compiles", "count"),
    ("service.flight_joins", "count"),
    ("service.evictions", "count"),
    ("service.memo_hit_ratio", "ratio"),
    ("service.memo_hit_ratio_a", "ratio"),
    ("service.memo_hit_ratio_v1", "ratio"),
    ("service.dispatch_batch_max", "count"),
    ("eventloop.residual_cpu_us", "us"),
    ("service.miss_wait_us", "us"),
    ("service.v1_p50_us", "us"),
    ("service.hit_p99_us", "us"),
    ("service.v1_p99_us", "us"),
    ("exec.run_ns_per_vec", "ns"),
    ("exec.steps_per_vec", "count"),
    ("exec.peak_regs", "count"),
    ("exec.buffer_allocs", "count"),
    ("runner.overhead_share", "ratio"),
    ("pool.speedup_2w", "ratio"),
    ("diag.op_p99_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// One run's outcome. `metrics` holds whichever set the run measured
/// (end-to-end untraced, per-layer traced).
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth keeping: host record, skips, per-row numbers.
    pub detail: Vec<(String, Json)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one operation; `ok == false` counts it failed too.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// The result line: every metric of the run's set, by name, with its
    /// unit. A metric the workload did not set is a bug in this program,
    /// except on the per-layer set, where an unset layer was bypassed.
    pub fn result_line(&self, trace: bool) -> Result<String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for name in self.metrics.keys() {
            if !table.iter().any(|(n, _)| n == name) {
                return Err(format!("metric `{name}` is not in the run's metric table"));
            }
        }
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite"));
            }
            metrics.push((
                name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            ));
        }
        Ok(Json::Object(vec![
            ("correct".into(), Json::Bool(self.failed == 0 && self.attempted > 0)),
            ("attempted".into(), Json::Int(self.attempted.into())),
            ("failed".into(), Json::Int(self.failed.into())),
            ("metrics".into(), Json::Object(metrics)),
        ])
        .render())
    }
}

/// Run `setup` in `probes` fresh copies of this program
/// (`--setup-probe`), so every sample pays the cold start a user pays,
/// then in this process for the value; returns the median of the probes,
/// every sample (this process's last) and the value.
///
/// The probes take the allowed CPUs in turn, so every run samples each
/// CPU equally. On a shared host the CPUs ran the same set-up up to 1.5×
/// apart, and a run whose probes all landed on one of them read that
/// CPU's speed.
pub fn measure_setup<T>(
    args: &Args,
    probes: usize,
    setup: impl FnOnce() -> Result<T>,
) -> Result<(f64, Vec<f64>, T)> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let own = affinity(0)?;
    let allowed = cpus(&own);
    let probe = |k: usize| -> Result<f64> {
        // A child starts with the mask of the thread that spawns it.
        if !set_affinity(0, &one_cpu(allowed[k % allowed.len()])) {
            return Err("sched_setaffinity failed".into());
        }
        let out = std::process::Command::new(&exe)
            .args(["--setup-probe", args.workload.name()])
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        if !out.status.success() {
            return Err(format!("setup probe exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        text.trim().parse().map_err(|_| format!("setup probe printed `{}`", text.trim()))
    };
    let samples: Result<Vec<f64>> = (0..probes).map(probe).collect();
    set_affinity(0, &own);
    let mut samples = samples?;
    let median_s = median(&samples);
    let t0 = Instant::now();
    let value = setup()?;
    samples.push(t0.elapsed().as_secs_f64());
    Ok((median_s, samples, value))
}
