//! One benchmark for the whole call. See README.md.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` measures one
//! workload and ends with one JSON line; `--all` measures all four with
//! their reps interleaved round-robin; `--smoke` is the quick self-check.

mod adapters;
mod call;
mod metrics;
mod rep;
mod sfu;
mod spans;
mod stats;
mod workloads;

use adapters::json::{self, ObjectWriter};
use adapters::Pool;
use metrics::{Measured, Metric};
use rep::{Rep, RepOptions};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Inputs, Workload, WORKLOADS};

/// Set-ups per run; `setup_s` is their median. At least the first number,
/// then more while the ones so far took less than the budget, up to the
/// second: nine of the light workloads' 0.3 s, three of `call_steady`'s 1.2 s.
const SETUP_REPS: (usize, usize) = (3, 9);
const SETUP_BUDGET_S: f64 = 2.5;
/// The product loop guard: `ConferenceRunner::run` at the `call_lossy`
/// scale on a clean link.
const CONFERENCE_GUARD_S: f32 = 3.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Print both metric families (`--all`, `--smoke`), not the contract's
    /// one family per run.
    both: bool,
    smoke: bool,
    threads: Option<usize>,
    json: Option<String>,
    out_dir: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: livo-benchmark (--workload <name> | --all | --smoke) [--seed N] [--seconds S] \
         [--trace 0|1] [--threads N] [--json FILE] [--out DIR]\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 11,
        seconds: 10.0,
        trace: false,
        both: false,
        smoke: false,
        threads: None,
        json: None,
        out_dir: "benchmark/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let name = value();
                match WORKLOADS.iter().find(|w| w.name == name) {
                    Some(w) => a.workloads = vec![*w],
                    None => usage(),
                }
            }
            "--all" => {
                a.workloads = WORKLOADS.to_vec();
                a.both = true;
                a.trace = true;
            }
            "--smoke" => {
                a.workloads = WORKLOADS.to_vec();
                a.both = true;
                a.smoke = true;
            }
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value() != "0",
            "--threads" => a.threads = Some(value().parse().unwrap_or_else(|_| usage())),
            "--json" => a.json = Some(value()),
            "--out" => a.out_dir = value(),
            _ => usage(),
        }
    }
    if a.workloads.is_empty() {
        usage();
    }
    a
}

/// One workload in flight: its inputs, its pool and what it has measured.
struct Run {
    w: Workload,
    threads: usize,
    inputs: Inputs,
    pool: Pool,
    m: Measured,
    spent: Duration,
    failures: Vec<String>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn set_up(w: Workload, args: &Args) -> Run {
    let threads = args.threads.unwrap_or(1).min(nproc()).max(1);
    let pool = adapters::new_pool(threads);
    let virtual_s = if args.smoke { 2 } else { w.virtual_s };
    let mut prepare_s: Vec<f64> = Vec::new();
    let mut last = None;
    let (at_least, at_most) = if args.smoke { (1, 1) } else { SETUP_REPS };
    while prepare_s.len() < at_least
        || (prepare_s.len() < at_most && prepare_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t0 = Instant::now();
        last = Some(workloads::prepare(&w, args.seed, virtual_s, &pool));
        prepare_s.push(t0.elapsed().as_secs_f64());
    }
    let (inputs, render_ms_mean) = last.expect("at least one set-up");
    let (canvas_pixels, subscribers, receivers) = match &inputs {
        Inputs::Call(c) => (c.rig.layout.canvas_pixels(), 0, 1),
        Inputs::Sfu(s) => (s.rig.layout.canvas_pixels(), s.subscribers, sfu::SAMPLED),
    };
    Run {
        w,
        threads,
        inputs,
        pool,
        m: Measured {
            prepare_s,
            render_ms_mean,
            reps: Vec::new(),
            traced: None,
            parallel: None,
            conference_ms_per_frame: 0.0,
            peak_rss_mib: 0.0,
            canvas_pixels,
            subscribers,
            receivers,
        },
        spent: Duration::ZERO,
        failures: Vec::new(),
    }
}

impl Run {
    /// Run one rep and take in its check failures; its virtual-time
    /// results must be identical to the first rep's.
    fn rep(&mut self, pool: &Pool, threads: usize, traced: bool, what: &str) -> Rep {
        let opts = RepOptions {
            traced,
            verify: self.m.reps.is_empty(),
        };
        let mut rep = workloads::run(&self.inputs, pool, threads, opts);
        self.failures.append(&mut rep.failures);
        if let Some(first) = self.m.reps.first() {
            if first.counts != rep.counts {
                self.failures.push(format!(
                    "{}: virtual-time results of the {what} rep differ from the first rep \
                     ({} vs {} stalls, {} vs {} bits delivered)",
                    self.w.name,
                    rep.counts.stalls,
                    first.counts.stalls,
                    rep.counts.transport.bits_delivered,
                    first.counts.transport.bits_delivered
                ));
            }
        }
        rep
    }

    /// Whether another round fits in what is left of `budget`, going by
    /// the rounds so far: a run ends on time, not one rep late.
    fn has_time_for_a_round(&self, budget: Duration) -> bool {
        let rounds = self.m.reps.len() as u32;
        rounds == 0 || self.spent + self.spent / rounds <= budget
    }

    /// One untraced rep and, when tracing, one traced rep.
    fn round(&mut self, trace: bool) {
        let t0 = Instant::now();
        let pool = self.pool.clone();
        let rep = self.rep(&pool, self.threads, false, "untraced");
        self.m.reps.push(rep);
        if trace {
            self.m.traced = Some(self.rep(&pool, self.threads, true, "traced"));
        }
        self.spent += t0.elapsed();
    }

    /// What only the traced run measures: the same work on the workload's
    /// parallel pool (also the pool-size half of the determinism check) and
    /// the product's own loop as a whole.
    fn extras(&mut self) {
        let parallel = self.w.pool_threads.min(nproc());
        if parallel > self.threads {
            let pool = adapters::new_pool(parallel);
            self.m.parallel = Some(self.rep(&pool, parallel, false, "parallel-pool"));
        }
        self.m.conference_ms_per_frame = adapters::conference_run_ms_per_frame(
            0.125,
            CONFERENCE_GUARD_S,
            &adapters::new_pool(1),
        );
    }

    fn final_checks(&mut self) {
        let c = self.m.counts();
        let stall_rate = metrics::stall_rate(c);
        let scored = &self.m.reps[0].pssim;
        let geometry = stats::mean(&scored.iter().map(|s| s.0).collect::<Vec<_>>());
        if stall_rate < 0.5 && geometry < 60.0 {
            self.failures.push(format!(
                "{}: pssim_geometry {geometry:.1} < 60 over {} scored frames at stall rate {stall_rate:.3}",
                self.w.name,
                scored.len()
            ));
        }
        if c.slots == 0 || c.slots == c.stalls {
            self.failures
                .push(format!("{}: no frame was ever displayed", self.w.name));
        }
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.into())
}

fn host_json(args: &Args, runs: &[Run]) -> String {
    let mut out = String::new();
    let mut host = ObjectWriter::new(&mut out);
    host.field_u64("nproc", nproc() as u64);
    let mut threads = ObjectWriter::new(host.field_raw("threads"));
    for r in runs {
        threads.field_u64(r.w.name, r.threads as u64);
    }
    threads.finish();
    host.field_str("simd", adapters::simd_level())
        .field_str("rustc", &env_or("LIVO_BENCH_RUSTC", "unknown"))
        .field_str("git_rev", &env_or("LIVO_BENCH_GIT_REV", "unknown"))
        .field_str("build", &env_or("LIVO_BENCH_BUILD", "unknown"))
        .field_u64("seed", args.seed);
    host.finish();
    out
}

fn print_metrics(title: &str, list: &[Metric]) {
    println!("  {title}");
    for m in list {
        let mut line = format!("    {:<38} {:>14.4} {}", m.name, m.value, m.unit);
        if let Some(n) = m.samples {
            let _ = write!(line, "  (n={n})");
        }
        if !m.reps.is_empty() {
            let reps: Vec<String> = m.reps.iter().map(|x| format!("{x:.4}")).collect();
            let _ = write!(line, "  reps [{}]", reps.join(", "));
        }
        println!("{line}");
    }
}

/// Write `{name: {value, unit, ...}}` for a metric family; `kind` adds
/// the family, per-rep values and sample counts of the full report.
fn write_metrics(out: &mut ObjectWriter, list: &[Metric], kind: Option<&str>) {
    for m in list {
        let mut o = ObjectWriter::new(out.field_raw(m.name));
        o.field_f64("value", m.value).field_str("unit", m.unit);
        if let Some(kind) = kind {
            o.field_str("kind", kind);
            if !m.reps.is_empty() {
                let reps = o.field_raw("reps");
                reps.push('[');
                for (i, &x) in m.reps.iter().enumerate() {
                    if i > 0 {
                        reps.push(',');
                    }
                    json::write_f64(reps, x);
                }
                reps.push(']');
            }
            if let Some(n) = m.samples {
                o.field_u64("samples", n as u64);
            }
        }
        o.finish();
    }
}

/// `{correct, attempted, failed, [failures,] metrics}` of one workload.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Option<&[String]>,
    families: &[(&[Metric], &str)],
) -> String {
    let mut out = String::new();
    let mut o = ObjectWriter::new(&mut out);
    o.field_bool("correct", correct)
        .field_u64("attempted", attempted)
        .field_u64("failed", failed);
    if let Some(failures) = failures {
        let list = o.field_raw("failures");
        list.push('[');
        for (i, f) in failures.iter().enumerate() {
            if i > 0 {
                list.push(',');
            }
            json::write_str(list, f);
        }
        list.push(']');
    }
    let mut metrics = ObjectWriter::new(o.field_raw("metrics"));
    for (list, kind) in families {
        write_metrics(&mut metrics, list, failures.map(|_| *kind));
    }
    metrics.finish();
    o.finish();
    out
}

fn main() {
    // The product logs to stderr at info by default; keep runs quiet
    // unless the caller asked for logs.
    if std::env::var_os("LIVO_LOG").is_none() {
        std::env::set_var("LIVO_LOG", "off");
    }
    // The one product component that reaches for the process-wide pool
    // (the SFU's decode stand-ins) stays on the measured thread count.
    if std::env::var_os("LIVO_THREADS").is_none() {
        std::env::set_var("LIVO_THREADS", "1");
    }
    let args = parse_args();
    let mut runs: Vec<Run> = args.workloads.iter().map(|w| set_up(*w, &args)).collect();

    // Reps interleaved round-robin across workloads, so that a slow phase
    // of a shared machine does not take all the reps of one workload.
    let budget = Duration::from_secs_f64(if args.smoke { 0.0 } else { args.seconds });
    let min_rounds = if args.smoke || args.trace { 1 } else { 2 };
    loop {
        let mut ran = false;
        for run in runs.iter_mut() {
            if run.m.reps.len() < min_rounds || run.has_time_for_a_round(budget) {
                run.round(args.trace);
                ran = true;
            }
        }
        if !ran {
            break;
        }
    }
    if args.trace {
        for run in runs.iter_mut() {
            run.extras();
        }
    }
    let rss = peak_rss_mib();
    for run in runs.iter_mut() {
        run.m.peak_rss_mib = rss;
        run.final_checks();
    }

    println!("host {}", host_json(&args, &runs));
    let mut blocks = Vec::new();
    let mut last_line = String::new();
    let mut all_correct = true;
    for run in &runs {
        let c = run.m.counts();
        let e2e = metrics::end_to_end(&run.m);
        let layers = if args.trace {
            metrics::per_layer(&run.m)
        } else {
            Vec::new()
        };
        let correct = run.failures.is_empty();
        all_correct &= correct;
        // An op is one display slot at one receiver. It fails when its
        // frame did not decode or a check on it failed; a slot with
        // nothing new to show is a stall, which `shown_share` measures.
        let failed = (c.decode_errors + run.failures.len() as u64).min(c.slots);
        println!(
            "workload {} seed {} threads {}: {} reps in {:.1} s of {} frames ({} s virtual), ops {} failed {} stalls {}, correct {}",
            run.w.name,
            args.seed,
            run.threads,
            run.m.reps.len(),
            run.spent.as_secs_f64(),
            c.frames,
            c.virtual_us as f64 / 1e6,
            c.slots,
            failed,
            c.stalls,
            correct
        );
        for f in &run.failures {
            println!("  CHECK FAILED: {f}");
        }
        if !args.trace || args.both {
            print_metrics("end to end (spans off)", &e2e);
        }
        if args.trace {
            print_metrics("per layer (traced rep)", &layers);
            if let Some(t) = &run.m.traced {
                let path = format!("{}/{}.trace.json", args.out_dir, run.w.name);
                let written = std::fs::create_dir_all(&args.out_dir)
                    .and_then(|_| std::fs::write(&path, t.spans.chrome_trace_json()));
                match written {
                    Ok(()) => println!("  spans: {} written to {path}", t.spans.list.len()),
                    Err(e) => println!("  spans: not written to {path}: {e}"),
                }
            }
        }
        blocks.push((
            run.w.name,
            result_json(
                correct,
                c.slots,
                failed,
                Some(&run.failures),
                &[(&e2e, "end_to_end"), (&layers, "per_layer")],
            ),
        ));
        let family = if args.trace { &layers } else { &e2e };
        last_line = result_json(correct, c.slots, failed, None, &[(family, "")]);
    }
    if let Some(path) = &args.json {
        let mut doc = String::new();
        let mut o = ObjectWriter::new(&mut doc);
        o.field_raw("host").push_str(&host_json(&args, &runs));
        let mut w = ObjectWriter::new(o.field_raw("workloads"));
        for (name, block) in &blocks {
            w.field_raw(name).push_str(block);
        }
        w.finish();
        o.finish();
        doc.push('\n');
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if !args.both {
        println!("{last_line}");
    }
    if !all_correct {
        std::process::exit(1);
    }
}
