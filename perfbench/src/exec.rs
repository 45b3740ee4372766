//! The `exec` workload: pipelines are compiled and linked once during
//! set-up; then every figure and unrolled pipeline × backend runs through
//! `fpir_halide::run_tiled_exe` at one worker on seeded random images.
//!
//! Execution of the generated code dominates; selection appears only in
//! `setup_s`.

use crate::common::{
    geomean, median, peak_rss_mb, percentile, thread_cpu_seconds, us, Args, Host, Report, Result,
    Samples,
};
use crate::compile::{selectors, CompileLayers, PHASES};
use crate::corpus::{lane_skip, named_workloads, Group, Skips};
use crate::trace::Tracer;
use fpir::interp::Value;
use fpir::Isa;
use fpir_halide::{run_tiled_exe, Image, Pipeline};
use pitchfork::{compile_to_executable, Artifact};
use pitchfork_service::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Image size every row runs on: 64 vector strips of 128 lanes.
const WIDTH: usize = 512;
const HEIGHT: usize = 16;

/// Fresh processes that time the set-up (see `measure_setup`).
const SETUP_PROBES: usize = 32;

/// One pipeline of the exec set.
pub struct Pipe {
    name: String,
    group: Group,
    pipeline: Pipeline,
}

/// One (pipeline, backend) row, linked and ready to run.
pub struct Row {
    pipe: usize,
    isa: Isa,
    art: Artifact,
}

/// The exec set: the figure and unrolled pipelines.
fn pipes() -> Vec<Pipe> {
    named_workloads()
        .into_iter()
        .filter(|(g, _)| matches!(g, Group::Figure | Group::Unrolled))
        .map(|(group, w)| Pipe { name: w.name().to_string(), group, pipeline: w.pipeline })
        .collect()
}

/// The program's set-up: warm selectors, then compile and link every
/// pipeline on every backend that admits it.
pub fn setup() -> Result<(Vec<Pipe>, Vec<Row>, Skips)> {
    let sels = selectors()?;
    let pipes = pipes();
    let mut rows = Vec::new();
    let mut skips = Skips::default();
    for (pi, p) in pipes.iter().enumerate() {
        for (isa, pf) in &sels {
            if let Some(why) = lane_skip(*isa, &p.pipeline.expr) {
                skips.add(&p.name, *isa, why, true);
                continue;
            }
            let art = compile_to_executable(pf, &p.pipeline.expr)
                .map_err(|e| format!("{} on {isa}: {e}", p.name))?;
            rows.push(Row { pipe: pi, isa: *isa, art });
        }
    }
    Ok((pipes, rows, skips))
}

/// Seeded inputs and the interpreter's output for one pipeline.
struct Images {
    inputs: BTreeMap<String, Image>,
    want: Image,
}

fn images(pipes: &[Pipe], seed: u64) -> Result<Vec<Images>> {
    let all = named_workloads();
    pipes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let wl = &all.iter().find(|(_, w)| w.name() == p.name).expect("named workload").1;
            let inputs = wl.random_inputs(WIDTH, HEIGHT, seed.wrapping_add(i as u64));
            let want = p
                .pipeline
                .run_reference(&inputs)
                .map_err(|e| format!("{}: reference run: {}", p.name, e.what))?;
            Ok(Images { inputs, want })
        })
        .collect()
}

/// The strips `run_tiled_exe` would hand the executable, positionally
/// bound to its input slots, for a direct `ExecCtx` loop.
fn strips(
    pipe: &Pipeline,
    art: &Artifact,
    inputs: &BTreeMap<String, Image>,
) -> Result<Vec<Vec<Value>>> {
    let lanes = pipe.lanes() as usize;
    let mut out = Vec::new();
    for y in 0..HEIGHT {
        for x0 in (0..WIDTH).step_by(lanes) {
            let env = pipe.env_at(inputs, x0 as i64, y as i64).map_err(|e| e.what)?;
            let slots = art
                .exe
                .inputs()
                .iter()
                .map(|s| env.get(&s.name).cloned().ok_or_else(|| format!("no input `{}`", s.name)))
                .collect::<Result<Vec<Value>>>()?;
            out.push(slots);
        }
    }
    Ok(out)
}

/// Run every strip through one context; returns the output pixels in
/// row-major order, or `None` if a strip failed.
fn run_strips(
    art: &Artifact,
    ctx: &mut fpir_sim::ExecCtx,
    strips: &[Vec<Value>],
    lanes: usize,
) -> Option<Vec<i128>> {
    let mut pixels = Vec::with_capacity(WIDTH * HEIGHT);
    for (i, slots) in strips.iter().enumerate() {
        let v = art.exe.run_slots(ctx, slots).ok()?;
        let x0 = (i * lanes) % WIDTH;
        pixels.extend_from_slice(&v.lanes()[..lanes.min(WIDTH - x0)]);
        ctx.recycle(v);
    }
    Some(pixels)
}

pub fn run(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let (setup_s, setup_samples, (pipes, rows, skips)) =
        crate::common::measure_setup(args, SETUP_PROBES, setup)?;
    let imgs = images(&pipes, args.seed)?;
    let tiled = |row: &Row, jobs: usize| {
        let p = &pipes[row.pipe];
        run_tiled_exe(&p.pipeline, &row.art.exe, &imgs[row.pipe].inputs, jobs)
    };
    let correct =
        |row: &Row, out: &std::result::Result<Image, fpir_halide::pipeline::PipelineError>| {
            out.as_ref().is_ok_and(|img| *img == imgs[row.pipe].want)
        };

    // Traced-run state, built before the clock starts.
    let mut layers = CompileLayers::default();
    let mut tr = Tracer::new();
    let mut strip_sets: Vec<Vec<Vec<Value>>> = Vec::new();
    let mut ctxs = Vec::new();
    if args.trace {
        // One traced compile pass of the exec set gives the compile-layer
        // numbers for the selection this workload pays in set-up.
        let sels = selectors()?;
        for (i, row) in rows.iter().enumerate() {
            let pf = &sels.iter().find(|(isa, _)| *isa == row.isa).expect("selector").1;
            let p = &pipes[row.pipe];
            let r =
                layers.compile(&mut tr, pf, &p.pipeline.expr, i as u64, p.group == Group::Unrolled);
            report.op(r.is_ok_and(|a| a.program.render() == row.art.program.render()));
        }
        for row in &rows {
            strip_sets.push(strips(&pipes[row.pipe].pipeline, &row.art, &imgs[row.pipe].inputs)?);
            ctxs.push(row.art.exe.new_ctx());
        }
    }

    let mut host = Host::begin();
    let start = Instant::now();
    let deadline = args.deadline_from(start);
    let mut lat = vec![Samples::new(); rows.len()];
    let mut cpu = vec![Samples::new(); rows.len()];
    // Traced-run accumulators, per row.
    let (mut one_w, mut two_w) = (vec![0u64; rows.len()], vec![0u64; rows.len()]);
    let (mut untraced_ns, mut traced_ns, mut run_loop_ns) = (0u64, 0u64, 0u64);
    // Wall time of the traced part of each iteration, which the spans
    // should cover.
    let mut traced_wall_ns = 0u64;
    let (mut vecs, mut allocs) = (0u64, 0u64);
    let mut round = 0u64;
    'outer: loop {
        for (i, row) in rows.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'outer;
            }
            let c0 = thread_cpu_seconds();
            let t0 = Instant::now();
            let out = tiled(row, 1);
            let d = t0.elapsed();
            cpu[i].push((thread_cpu_seconds() - c0) * 1e6);
            report.op(correct(row, &out));
            lat[i].push(us(d));
            if !args.trace {
                continue;
            }
            untraced_ns += d.as_nanos() as u64;
            let req = round * rows.len() as u64 + i as u64;
            let span = |tr: &mut Tracer, name, t: Instant| -> Duration {
                let end = Instant::now();
                tr.record(name, t, end, None, req);
                end - t
            };
            let traced_start = Instant::now();
            let t = traced_start;
            let out = tiled(row, 1);
            let d1 = span(&mut tr, "runner.tiled_1w", t);
            one_w[i] += d1.as_nanos() as u64;
            traced_ns += d1.as_nanos() as u64;
            let t = Instant::now();
            report.op(correct(row, &out));
            span(&mut tr, "bench.check", t);

            let before = ctxs[i].buffer_allocs();
            let lanes = pipes[row.pipe].pipeline.lanes() as usize;
            let t = Instant::now();
            let pixels = run_strips(&row.art, &mut ctxs[i], &strip_sets[i], lanes);
            run_loop_ns += span(&mut tr, "exec.run", t).as_nanos() as u64;
            vecs += strip_sets[i].len() as u64;
            if round > 0 {
                allocs += ctxs[i].buffer_allocs() - before;
            }
            let t = Instant::now();
            report.op(pixels.is_some_and(|px| px == imgs[row.pipe].want.data()));
            span(&mut tr, "bench.check", t);

            let t = Instant::now();
            let out = tiled(row, 2);
            two_w[i] += span(&mut tr, "pool.tiled_2w", t).as_nanos() as u64;
            let t = Instant::now();
            report.op(correct(row, &out));
            span(&mut tr, "bench.check", t);
            traced_wall_ns += traced_start.elapsed().as_nanos() as u64;
        }
        round += 1;
    }
    host.end();
    let rss = peak_rss_mb(None)?;

    // Each row at its best repeat (see `Samples::best`).
    let all: Vec<f64> = lat.iter().flat_map(|l| l.recent().iter().copied()).collect();
    let ran: Vec<usize> = (0..rows.len()).filter(|&i| lat[i].count() > 0).collect();
    let mpix = |i: usize| (WIDTH * HEIGHT) as f64 / lat[i].best();
    let mut detail_rows = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        detail_rows.push(Json::Object(vec![
            ("pipeline".into(), Json::str(pipes[row.pipe].name.clone())),
            ("isa".into(), Json::str(row.isa.slug())),
            ("cycles".into(), Json::Int(row.art.cycles.into())),
            ("runs".into(), Json::Int(lat[i].count().into())),
            ("median_us".into(), Json::Float(median(lat[i].recent()))),
            ("mpix_per_s".into(), Json::Float(if lat[i].count() == 0 { 0.0 } else { mpix(i) })),
        ]));
    }
    if args.trace {
        layers.report(&mut report, 1.0);
        report.set("exec.run_ns_per_vec", run_loop_ns as f64 / vecs.max(1) as f64);
        report.set(
            "exec.steps_per_vec",
            rows.iter().map(|r| r.art.exe.step_count() as f64).sum::<f64>() / rows.len() as f64,
        );
        report.set(
            "exec.peak_regs",
            rows.iter().map(|r| r.art.exe.peak_regs() as f64).sum::<f64>() / rows.len() as f64,
        );
        report.set("exec.buffer_allocs", allocs as f64);
        let one: u64 = one_w.iter().sum();
        report.set("runner.overhead_share", 1.0 - run_loop_ns as f64 / one.max(1) as f64);
        report.set(
            "pool.speedup_2w",
            geomean(ran.iter().map(|&i| one_w[i] as f64 / two_w[i].max(1) as f64)),
        );
        report.set("diag.op_p99_us", percentile(&all, 0.99));
        let spans = tr.layers();
        // Over the traced part of the run only. The spans sit side by side
        // (`run_tiled_exe` is one public call, so the runner and the
        // executable it drives cannot be nested spans); this checks that
        // they leave no gap, and `runner.overhead_share` gives the split.
        let covered: u64 = ["runner.tiled_1w", "exec.run", "pool.tiled_2w", "bench.check"]
            .iter()
            .filter_map(|n| spans.get(n))
            .map(|t| t.self_ns)
            .sum();
        report.set("trace.coverage", covered as f64 / traced_wall_ns.max(1) as f64);
        report.set(
            "trace.overhead_share",
            (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
        );
        report.set("trace.spans", tr.len() as f64);
        let compile_spans: u64 =
            PHASES.iter().filter_map(|n| spans.get(n)).map(|t| t.self_ns).sum();
        report.note("trace_compile_ms", Json::Float(compile_spans as f64 / 1e6));
        let path = args.out_dir.join("spans-exec.csv");
        tr.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", rss);
        let best_of = |idx: &[usize]| idx.iter().map(|&i| lat[i].best()).collect::<Vec<_>>();
        let unrolled: Vec<usize> =
            ran.iter().copied().filter(|&i| pipes[rows[i].pipe].group == Group::Unrolled).collect();
        report.set("ops_per_s", geomean(ran.iter().map(|&i| 1e6 / lat[i].best())));
        report.set("p50_us", median(&best_of(&ran)));
        report.set("heavy_p50_us", median(&best_of(&unrolled)));
        report.set("second_us", percentile(&best_of(&ran), 0.99));
        report.set(
            "cpu_us_per_op",
            ran.iter().map(|&i| cpu[i].best()).sum::<f64>() / ran.len().max(1) as f64,
        );
        report.set("cycles_geomean", geomean(rows.iter().map(|r| r.art.cycles.max(1) as f64)));
    }
    report.note("host", host.record(args));
    report
        .note("setup_samples_s", Json::Array(setup_samples.into_iter().map(Json::Float).collect()));
    report.note("image", Json::str(format!("{WIDTH}x{HEIGHT}")));
    report.note("median_p50_us", Json::Float(median(&all)));
    report.note("exec_mpix_per_s", Json::Float(geomean(ran.iter().map(|&i| mpix(i)))));
    report.note("skipped", skips.to_json());
    report.note("rows", Json::Array(detail_rows));
    Ok(report)
}
