//! The `compile` workload: one thread, closed loop, repeated passes of a
//! fixed corpus through `pitchfork::compile_to_executable`.
//!
//! Selection, emit and link do all the work here and the service does
//! none. Heavily shared unrolled DAGs sit beside small trees, so both
//! sharing-sensitive and per-node costs show.

use crate::common::{
    geomean, median, peak_rss_mb, percentile, thread_cpu_seconds, us, Args, Host, Report, Result,
    Samples,
};
use crate::corpus::{lane_skip, named_workloads, random_skip, random_tree, Group, Rejected, Skips};
use crate::trace::Tracer;
use fpir::expr::{Expr, RcExpr};
use fpir::interp::{eval, Env, Value};
use fpir::Isa;
use pitchfork::{compile_to_executable, compile_to_executable_with, Artifact, Pitchfork};
use pitchfork_service::Json;
use rand::prelude::*;
use std::time::Instant;

/// Seeded random trees in the corpus, each compiled on every backend.
const RANDOM_TREES: usize = 64;

/// Fresh processes that time the set-up (a multiple of the CPU count
/// keeps the CPUs equally sampled, see `measure_setup`).
const SETUP_PROBES: usize = 32;

/// Random input environments each artifact is checked on.
const CHECK_ENVS: usize = 2;

/// The pipeline phases in order, as the driver's phase hook reports them.
pub const PHASES: [&str; 6] = ["lift", "lower_predicated", "lower", "legalize", "emit", "link"];
const PHASE_METRICS: [&str; 6] = [
    "lift.busy_ms",
    "lower_predicated.busy_ms",
    "lower.busy_ms",
    "legalize.busy_ms",
    "emit.busy_ms",
    "link.busy_ms",
];

/// One warm selector per registered backend: rule sets loaded, and one
/// small compile each so the lazily built rule indexes exist.
pub fn selectors() -> Result<Vec<(Isa, Pitchfork)>> {
    let warm = fpir::parser::parse_expr("u8(min(u16(a_u8) + u16(b_u8), 255))", 16)
        .map_err(|e| format!("warm-up expression: {e}"))?;
    fpir::machine::ALL_ISAS
        .into_iter()
        .map(|isa| {
            let pf = Pitchfork::new(isa);
            compile_to_executable(&pf, &warm).map_err(|e| format!("warm-up on {isa}: {e}"))?;
            Ok((isa, pf))
        })
        .collect()
}

/// Per-layer accumulators for compiles timed through the phase hook.
#[derive(Debug, Default)]
pub struct CompileLayers {
    phase_ns: [u64; 6],
    unrolled_ns: [u64; 6],
    nodes_visited: u64,
    memo_hits: u64,
    rules_fired: u64,
    lifted_nodes: u64,
    lowered_nodes: u64,
    program_insts: u64,
    exe_steps: u64,
    fused_kernels: u64,
}

impl CompileLayers {
    /// Compile `expr`, recording one `compile` span with a child span per
    /// phase. Phase boundaries are the instants the driver's `keep_going`
    /// hook is called, which is just before each phase starts.
    pub fn compile(
        &mut self,
        tr: &mut Tracer,
        pf: &Pitchfork,
        expr: &RcExpr,
        req: u64,
        unrolled: bool,
    ) -> std::result::Result<Artifact, pitchfork::DriverError> {
        let mut marks: Vec<Instant> = Vec::with_capacity(PHASES.len() + 1);
        let r = compile_to_executable_with(pf, expr, &mut |_| {
            marks.push(Instant::now());
            true
        });
        marks.push(Instant::now());
        let root = tr.open("compile", marks[0], req);
        for (i, w) in marks.windows(2).enumerate() {
            tr.record(PHASES[i], w[0], w[1], Some(root), req);
            let ns = w[1].duration_since(w[0]).as_nanos() as u64;
            self.phase_ns[i] += ns;
            if unrolled {
                self.unrolled_ns[i] += ns;
            }
        }
        tr.close(root, *marks.last().expect("end mark"));
        let (art, compiled) = r?;
        for s in [&compiled.lift_stats, &compiled.lower_stats] {
            self.nodes_visited += s.nodes_visited as u64;
            self.memo_hits += s.memo_hits as u64;
            self.rules_fired += s.applications as u64;
        }
        self.lifted_nodes += Expr::unique_count(&compiled.lifted) as u64;
        self.lowered_nodes += Expr::unique_count(&art.lowered) as u64;
        self.program_insts += art.program.insts().len() as u64;
        self.exe_steps += art.exe.step_count() as u64;
        self.fused_kernels += art.exe.fused_count() as u64;
        Ok(art)
    }

    /// Set the compile-layer metrics, each per pass over the compiled set.
    pub fn report(&self, r: &mut Report, passes: f64) {
        let passes = passes.max(1.0);
        for (name, ns) in PHASE_METRICS.iter().zip(self.phase_ns) {
            r.set(name, ns as f64 / 1e6 / passes);
        }
        let unrolled_total: u64 = self.unrolled_ns.iter().sum();
        if unrolled_total > 0 {
            let share = |ns: u64| ns as f64 / unrolled_total as f64;
            r.set("emit.unrolled_share", share(self.unrolled_ns[4]));
            let next = (0..6).filter(|&i| i != 4).map(|i| self.unrolled_ns[i]).max().unwrap_or(0);
            r.set("unrolled.next_phase_share", share(next));
        }
        let visits = (self.nodes_visited + self.memo_hits).max(1) as f64;
        r.set("trs.nodes_visited", self.nodes_visited as f64 / passes);
        r.set("trs.memo_hit_ratio", self.memo_hits as f64 / visits);
        r.set("trs.rules_fired", self.rules_fired as f64 / passes);
        r.set("lifted_nodes", self.lifted_nodes as f64 / passes);
        r.set("lowered_nodes", self.lowered_nodes as f64 / passes);
        r.set("program_insts", self.program_insts as f64 / passes);
        r.set("exe_steps", self.exe_steps as f64 / passes);
        r.set("fused_kernels", self.fused_kernels as f64 / passes);
    }
}

struct Entry {
    name: String,
    group: Group,
    sel: usize,
    expr: RcExpr,
    envs: Vec<Env>,
    want: Vec<Value>,
    /// Cycle-model cost from the reference pass; every later compile must
    /// reproduce it.
    cycles: u64,
}

impl Entry {
    /// Run the artifact on the seeded environments; it must match the
    /// interpreter on the source expression, and price like the first
    /// compile did.
    fn check(&self, art: &Artifact) -> bool {
        let mut ctx = art.exe.new_ctx();
        let same_code = self.cycles == 0 || art.cycles == self.cycles;
        same_code
            && self
                .envs
                .iter()
                .zip(&self.want)
                .all(|(env, want)| art.exe.run(&mut ctx, env).is_ok_and(|got| got == *want))
    }
}

/// The corpus: the 25 named expressions plus seeded random trees, each
/// on every backend the static checks admit it to (see `Skip`).
fn corpus(
    seed: u64,
    sels: &[(Isa, Pitchfork)],
    skips: &mut Skips,
    rejected: &mut Rejected,
) -> Result<Vec<Entry>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs: Vec<(String, Group, RcExpr)> = named_workloads()
        .into_iter()
        .map(|(g, w)| (w.name().to_string(), g, w.pipeline.expr.clone()))
        .collect();
    for i in 0..RANDOM_TREES {
        let (e, _) = random_tree(&mut rng, rejected);
        inputs.push((format!("random{i}"), Group::Random, e));
    }
    let mut out = Vec::new();
    for (name, group, expr) in inputs {
        let mut envs = Vec::new();
        let mut want = Vec::new();
        for _ in 0..CHECK_ENVS {
            let env = fpir::rand_expr::random_env(&mut rng, &expr);
            want.push(eval(&expr, &env).map_err(|e| format!("{name}: reference eval: {e}"))?);
            envs.push(env);
        }
        for (sel, (isa, _)) in sels.iter().enumerate() {
            let skip = if group == Group::Random {
                random_skip(*isa, &expr)
            } else {
                lane_skip(*isa, &expr)
            };
            if let Some(why) = skip {
                skips.add(&name, *isa, why, true);
                continue;
            }
            out.push(Entry {
                name: name.clone(),
                group,
                sel,
                expr: expr.clone(),
                envs: envs.clone(),
                want: want.clone(),
                cycles: 0,
            });
        }
    }
    Ok(out)
}

/// Per-entry samples of the measured compiles, in microseconds.
struct Timings {
    lat: Vec<Samples>,
    cpu: Vec<Samples>,
}

impl Timings {
    fn new(n: usize) -> Timings {
        Timings { lat: vec![Samples::new(); n], cpu: vec![Samples::new(); n] }
    }

    /// The recent latencies of the entries `keep` selects.
    fn pooled(&self, entries: &[Entry], keep: impl Fn(&Entry) -> bool) -> Vec<f64> {
        entries
            .iter()
            .zip(&self.lat)
            .filter(|(e, _)| keep(e))
            .flat_map(|(_, l)| l.recent().iter().copied())
            .collect()
    }
}

/// One untraced pass over `entries`, stopping early at `deadline`.
fn pass(
    entries: &[Entry],
    sels: &[(Isa, Pitchfork)],
    deadline: Option<Instant>,
    s: &mut Timings,
    report: &mut Report,
) {
    for (i, e) in entries.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return;
        }
        let c0 = thread_cpu_seconds();
        let t0 = Instant::now();
        let r = compile_to_executable(&sels[e.sel].1, &e.expr);
        let lat = us(t0.elapsed());
        s.cpu[i].push((thread_cpu_seconds() - c0) * 1e6);
        report.op(r.as_ref().is_ok_and(|a| e.check(a)));
        s.lat[i].push(lat);
    }
}

pub fn run(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let (setup_s, setup_samples, sels) =
        crate::common::measure_setup(args, SETUP_PROBES, selectors)?;
    let mut skips = Skips::default();
    let mut rejected = Rejected::default();
    let mut entries = corpus(args.seed, &sels, &mut skips, &mut rejected)?;

    // Reference pass (untimed): the first compile of every entry is
    // checked against the interpreter and fixes the entry's cycle cost.
    let mut rows = Vec::new();
    for e in &mut entries {
        let r = compile_to_executable(&sels[e.sel].1, &e.expr);
        let ok = r.as_ref().is_ok_and(|a| e.check(a));
        report.op(ok);
        match r {
            Ok(a) => e.cycles = a.cycles,
            Err(err) => eprintln!("perfbench: {} on {}: {err}", e.name, sels[e.sel].0),
        }
        rows.push(Json::Object(vec![
            ("input".into(), Json::str(e.name.clone())),
            ("group".into(), Json::str(e.group.name())),
            ("isa".into(), Json::str(sels[e.sel].0.slug())),
            ("cycles".into(), Json::Int(e.cycles.into())),
            ("ok".into(), Json::Bool(ok)),
        ]));
    }

    let mut host = Host::begin();
    let start = Instant::now();
    let deadline = args.deadline_from(start);
    let mut s = Timings::new(entries.len());
    let mut layers = CompileLayers::default();
    let mut tr = Tracer::new();
    let (mut traced_passes, mut traced_ns, mut untraced_ns) = (0u64, 0u64, 0u64);
    if args.trace {
        // Whole passes, alternating untraced and traced, so the tracing
        // overhead is measured on the same work.
        while Instant::now() < deadline {
            let t0 = Instant::now();
            pass(&entries, &sels, None, &mut s, &mut report);
            untraced_ns += t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            for (i, e) in entries.iter().enumerate() {
                let req = traced_passes * entries.len() as u64 + i as u64;
                let unrolled = e.group == Group::Unrolled;
                let r = layers.compile(&mut tr, &sels[e.sel].1, &e.expr, req, unrolled);
                let c0 = Instant::now();
                report.op(r.as_ref().is_ok_and(|a| e.check(a)));
                tr.record("bench.check", c0, Instant::now(), None, req);
            }
            traced_ns += t1.elapsed().as_nanos() as u64;
            traced_passes += 1;
        }
    } else {
        while Instant::now() < deadline {
            pass(&entries, &sels, Some(deadline), &mut s, &mut report);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    host.end();
    let rss = peak_rss_mb(None)?;

    if args.trace {
        layers.report(&mut report, traced_passes as f64);
        let spans = tr.layers();
        let covered: u64 = PHASES
            .iter()
            .chain(["bench.check"].iter())
            .filter_map(|n| spans.get(n))
            .map(|t| t.self_ns)
            .sum();
        report.set("trace.coverage", covered as f64 / traced_ns.max(1) as f64);
        report.set(
            "trace.overhead_share",
            (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
        );
        report.set("trace.spans", tr.len() as f64);
        report.set("diag.op_p99_us", percentile(&s.pooled(&entries, |_| true), 0.99));
        let path = args.out_dir.join("spans-compile.csv");
        tr.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        // The gated numbers cover the named corpus, which is the same on
        // every seed (the seeded trees are compiled and checked in every
        // pass and reported in the detail record), at each entry's best
        // repeat (see `best`).
        let named: Vec<usize> =
            (0..entries.len()).filter(|&i| entries[i].group != Group::Random).collect();
        let unrolled: Vec<usize> =
            named.iter().copied().filter(|&i| entries[i].group == Group::Unrolled).collect();
        let lat = |idx: &[usize]| idx.iter().map(|&i| s.lat[i].best()).collect::<Vec<_>>();
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", rss);
        report.set("ops_per_s", geomean(lat(&named).into_iter().map(|l| 1e6 / l)));
        report.set("p50_us", median(&lat(&named)));
        report.set("heavy_p50_us", median(&lat(&unrolled)));
        report.set("second_us", percentile(&lat(&named), 0.99));
        report.set(
            "cpu_us_per_op",
            named.iter().map(|&i| s.cpu[i].best()).sum::<f64>() / named.len() as f64,
        );
        report
            .set("cycles_geomean", geomean(named.iter().map(|&i| entries[i].cycles.max(1) as f64)));
    }
    let all = s.pooled(&entries, |_| true);
    let measured: u64 = s.lat.iter().map(Samples::count).sum();
    report.note("host", host.record(args));
    report
        .note("setup_samples_s", Json::Array(setup_samples.into_iter().map(Json::Float).collect()));
    report.note("compiles_measured", Json::Int(measured.into()));
    report.note("compiles_per_s", Json::Float(measured as f64 / wall));
    // The percentiles below are over each entry's latest samples.
    report.note("p99_us", Json::Float(percentile(&all, 0.99)));
    report.note(
        "random_p50_us",
        Json::Float(median(&s.pooled(&entries, |e| e.group == Group::Random))),
    );
    report.note(
        "median_p50_us",
        Json::Float(median(&s.pooled(&entries, |e| e.group != Group::Random))),
    );
    report.note("skipped", skips.to_json());
    report.note("rejected_trees", rejected.to_json());
    report.note("rows", Json::Array(rows));
    Ok(report)
}
