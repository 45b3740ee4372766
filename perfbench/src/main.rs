//! `perfbench` — the repository benchmark. One command, three workloads
//! (`compile`, `serve`, `exec`); see README.md for every metric.
//!
//! The last line of standard output is the result object. The line
//! before it is the run's detail record (host, skips, samples); the
//! same record with per-row numbers is written under `--out-dir`.

mod common;
mod compile;
mod corpus;
mod exec;
mod serve;
mod trace;

use common::{Args, Report, Workload, USAGE};
use pitchfork_service::Json;
use std::process::ExitCode;
use std::time::Instant;

fn setup_probe(args: &Args) -> common::Result<f64> {
    let t0 = Instant::now();
    match args.workload {
        Workload::Compile => drop(compile::selectors()?),
        Workload::Exec => drop(exec::setup()?),
        Workload::Serve => return Err("the serve workload times its daemon starts itself".into()),
    }
    Ok(t0.elapsed().as_secs_f64())
}

fn write_detail(args: &Args, report: &Report) -> common::Result<String> {
    let full = Json::Object(report.detail.clone()).render();
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("detail-{}.json", args.workload.name()));
    std::fs::write(&path, &full).map_err(|e| format!("{}: {e}", path.display()))?;
    let brief: Vec<(String, Json)> =
        report.detail.iter().filter(|(k, _)| k != "rows").cloned().collect();
    Ok(Json::Object(brief).render())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match setup_probe(&args) {
            Ok(secs) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: setup probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match args.workload {
        Workload::Compile => compile::run(&args),
        Workload::Serve => serve::run(&args),
        Workload::Exec => exec::run(&args),
    };
    let lines = result.and_then(|report| {
        let detail = write_detail(&args, &report)?;
        Ok((detail, report.result_line(args.trace)?))
    });
    match lines {
        Ok((detail, result)) => {
            println!("{detail}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
