//! `repro`: regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick|--standard] <artefact>...
//! repro --quick all
//! repro table1 fig9 fig15
//! repro diff BENCH_qoe.json new_qoe.json
//! ```
//!
//! Artefacts: table1 table3 table4 table5 table6 fig4 fig5 fig9 fig12
//! fig13 fig15 fig16 fig17 fig18 fig20 figa2 figa3 grid sfu all
//! (fig5 covers Figs. 5–8; fig9 covers 9–11; fig13 covers 13–14; fig18
//! covers 18–19; fig20 covers 20–21; fig17 covers 17+A.1.)
//!
//! `sfu` runs the N-subscriber scaling sweep (encode passes per frame and
//! route-time percentiles, shared vs naive vs a 1-thread serial baseline,
//! plus a Poisson churn run per N); `--json [path]` snapshots it (schema
//! `livo-bench-sfu-v2`, committed as BENCH_sfu.json), and
//! `--gate` exits non-zero if passes stop tracking the cluster count, the
//! sharded router falls behind the serial baseline at N=100, or churn
//! intras violate the one-per-RTT guard.
//!
//! `kernels` runs the hot-kernel microbench (cull, union cull, DCT, SAD,
//! the block coder in time and bits) against the bodies they replaced,
//! plus a sliced-decode scaling point and two pool-dispatch diagnostics;
//! `--json [path]` snapshots it (schema
//! `livo-bench-kernels-v1`, committed as BENCH_kernels.json) and `--gate`
//! exits non-zero if any gated kernel runs slower than what it replaced
//! (floor 1.0x on every point) or the block coder writes more bits than
//! its ceiling over the old one's allows.
//!
//! `conference` runs a traced 3-party SFU call and prints reconstructed
//! per-frame capture→display paths; `--trace <path>` additionally writes
//! the whole run as Chrome trace-event JSON (open in ui.perfetto.dev).
//! `qoe` runs the receiver-side QoE sweep (stall rate, frame age
//! p50/p99, delivered-vs-estimate ratio) over band2 loss/bandwidth
//! conditions; `--json [path]` writes the snapshot (schema
//! `livo-bench-qoe-v1`, committed as BENCH_qoe.json). `traceoverhead`
//! A/B-measures the tracing cost on band2 encode; with `--gate` it exits
//! non-zero if the median on/off ratio exceeds 1.05.
//!
//! `bond` runs the bonded-transport sweep (bonded vs every single link
//! over the canned topology scenarios — clean dual link, WiFi fade,
//! WiFi→LTE handover, burst loss); `--json [path]` writes the snapshot
//! (schema `livo-bench-bond-v1`, committed as BENCH_bond.json) and `--gate`
//! exits non-zero if bonding stops beating the best single link or the
//! mid-call kill stops failing over cleanly.
//!
//! `--json` snapshots the one artefact of qoe, bond, sfu and kernels that
//! was requested, to `BENCH_<artefact>.json` unless a path is given; asking
//! for two of them with `--json` is an error. `repro diff old.json new.json`
//! compares two snapshots: changed virtual-time leaves are printed and fail
//! it, wall-clock leaves are printed as ratios, host leaves are ignored
//! (see `diff.rs`).

mod bond_bench;
mod conference_bench;
mod diff;
mod kernels_bench;
mod qoe_bench;
mod sfu_bench;

use livo_capture::{TraceId, VideoId};
use livo_core::stage::StallCause;
use livo_eval::experiments::{run_grid, EvalProfile, GridResult, Scheme};
use livo_eval::report;
use livo_telemetry::json::ObjectWriter;
use livo_telemetry::{log_event, Level, Value};

/// The `host` block every `BENCH_*.json` carries: where the numbers came
/// from. `rustc` and `git_rev` are what `rustc -V` and `git describe
/// --always --dirty` print in the working directory, `unknown` where the
/// command fails.
fn write_host(out: &mut String) {
    let run = |cmd: &str, args: &[&str]| {
        let out = std::process::Command::new(cmd).args(args).output().ok();
        let text = out.filter(|o| o.status.success());
        let text = text.and_then(|o| String::from_utf8(o.stdout).ok());
        let text = text.map(|t| t.trim().to_string()).filter(|t| !t.is_empty());
        text.unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut h = livo_telemetry::json::ObjectWriter::new(out);
    h.field_u64("nproc", nproc as u64)
        .field_str(
            "simd",
            livo_math::simd::level_name(livo_math::simd::level()),
        )
        .field_str("rustc", &run("rustc", &["-V"]))
        .field_str("git_rev", &run("git", &["describe", "--always", "--dirty"]))
        .field_str(
            "build",
            ["release", "debug"][cfg!(debug_assertions) as usize],
        );
    h.finish();
}

/// A text table's header: each column's name right-aligned to its width,
/// joined by ` | `, and with `rule` a line of dashes under it.
fn table_head(cols: &[(&str, usize)], rule: bool) -> String {
    let names: Vec<String> = cols.iter().map(|&(n, w)| format!("{n:>w$}")).collect();
    let mut s = names.join(" | ") + "\n";
    if rule {
        let dashes: Vec<String> = cols.iter().map(|&(_, w)| "-".repeat(w)).collect();
        s += &(dashes.join("-+-") + "\n");
    }
    s
}

/// The stall-cause columns of a text table, one per cause by name.
fn stall_cause_cols() -> [(&'static str, usize); StallCause::ALL.len()] {
    StallCause::ALL.map(|c| (c.name(), c.name().len()))
}

/// One row's stall-cause counts, each under its name.
fn stall_cause_row(counts: &[u64; StallCause::ALL.len()]) -> String {
    let cells = StallCause::ALL.iter().zip(counts);
    let cells: Vec<String> = cells
        .map(|(c, n)| format!("{n:>w$}", w = c.name().len()))
        .collect();
    cells.join(" | ")
}

/// A snapshot's `stall_causes` object: one count per cause, by name.
fn write_stall_causes(out: &mut String, counts: &[u64; StallCause::ALL.len()]) {
    let mut w = ObjectWriter::new(out);
    for (c, &n) in StallCause::ALL.iter().zip(counts) {
        w.field_u64(c.name(), n);
    }
    w.finish();
}

/// Write `contents` to `path`, or log `failed` with the error and exit 1.
fn write_or_exit(path: &str, contents: &str, failed: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        log_event!(Level::Error, "repro", failed, "path" => path, "error" => e.to_string());
        std::process::exit(1);
    }
}

/// Log `passed` if `ok`; otherwise log `failed` as an error and exit 1.
/// Both lines carry `fields`.
fn gate_or_exit(ok: bool, passed: &str, failed: &str, fields: &[(&str, Value)]) {
    if !ok {
        livo_telemetry::log::log(Level::Error, "repro", failed, fields);
        std::process::exit(1);
    }
    livo_telemetry::log::log(Level::Info, "repro", passed, fields);
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick|--standard] [--metrics <path>] [--json [path]] [--trace <path>] [--gate] <artefact>...\n\
         \x20      repro diff <old.json> <new.json>\n\
         artefacts: table1 table3 table4 table5 table6 fig4 fig5 fig9 fig12 fig13 fig15 fig16 fig17 fig18 fig20 figa2 figa3 grid sfu kernels conference qoe bond traceoverhead all\n\
         --metrics <path>: also run one instrumented LiVo replay and write the\n\
         telemetry snapshot (schema livo-bench-pipeline-v1) as JSON to <path>\n\
         --json [path]: write the snapshot of the one requested artefact of qoe,\n\
         bond, sfu and kernels (schema livo-bench-<artefact>-v*, default\n\
         BENCH_<artefact>.json)\n\
         --trace <path>: with conference, write the run as Chrome trace-event\n\
         JSON (open in ui.perfetto.dev)\n\
         --gate: exit non-zero if any gated kernel runs below its floor,\n\
         (with traceoverhead) if tracing costs more than 5% encode wall-clock,\n\
         (with sfu) if the scaling/churn structural claims fail, or (with\n\
         bond) if bonding stops beating the best single link\n\
         diff: print the virtual-time leaves that differ (exit 1 if any) and\n\
         wall-clock ratios between two snapshots; host leaves are ignored\n\
         progress goes through the structured logger; filter with LIVO_LOG=warn|info|debug"
    );
    std::process::exit(2);
}

/// The study grid is the expensive shared input of Table 5 and Figs. 5–14;
/// compute it once per invocation.
struct GridCache {
    profile: EvalProfile,
    grid: Option<Vec<GridResult>>,
}

impl GridCache {
    fn get(&mut self) -> &[GridResult] {
        if self.grid.is_none() {
            log_event!(
                Level::Info,
                "repro",
                "running the study grid",
                "schemes" => Scheme::STUDY.len(),
                "videos" => VideoId::ALL.len(),
                "traces" => TraceId::ALL.len()
            );
            let grid = run_grid(
                &Scheme::STUDY,
                &VideoId::ALL,
                &TraceId::ALL,
                &[0],
                &self.profile,
            );
            self.grid = Some(grid);
        }
        self.grid.as_ref().unwrap()
    }
}

/// Artefact keywords, used to disambiguate `--json [path]`'s optional
/// path from a following artefact name.
const ARTEFACTS: [&str; 25] = [
    "table1",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig4",
    "fig5",
    "fig9",
    "fig12",
    "fig13",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig20",
    "figa2",
    "figa3",
    "grid",
    "sfu",
    "kernels",
    "conference",
    "qoe",
    "bond",
    "traceoverhead",
    "all",
];

/// The artefacts `--json` snapshots.
const SNAPSHOTS: [&str; 4] = ["qoe", "bond", "sfu", "kernels"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "diff" {
        std::process::exit(diff::main(&args[1..]));
    }
    let mut profile = EvalProfile::standard();
    let mut quick = false;
    let mut artefacts: Vec<String> = Vec::new();
    let mut metrics_path: Option<String> = None;
    // `--json` given, with its optional explicit path.
    let mut json_flag: Option<Option<String>> = None;
    let mut trace_path: Option<String> = None;
    let mut gate = false;
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => {
                profile = EvalProfile::quick();
                quick = true;
            }
            "--standard" => {
                profile = EvalProfile::standard();
                quick = false;
            }
            "--metrics" => match iter.next() {
                Some(p) => metrics_path = Some(p.clone()),
                None => usage(),
            },
            "--json" => {
                let explicit = matches!(iter.peek(),
                    Some(p) if !p.starts_with('-') && !ARTEFACTS.contains(&p.as_str()));
                json_flag = Some(if explicit {
                    Some(iter.next().unwrap().clone())
                } else {
                    None
                });
            }
            "--trace" => match iter.next() {
                Some(p) => trace_path = Some(p.clone()),
                None => usage(),
            },
            "--gate" => gate = true,
            "all" => artefacts.extend(
                [
                    "table1", "table3", "table4", "table5", "table6", "fig4", "fig5", "fig9",
                    "fig12", "fig13", "fig15", "fig16", "fig17", "fig18", "fig20", "figa2",
                    "figa3",
                ]
                .map(String::from),
            ),
            other if other.starts_with('-') => usage(),
            other => artefacts.push(other.to_string()),
        }
    }
    if artefacts.is_empty() && metrics_path.is_none() && trace_path.is_none() {
        usage();
    }
    // `--json` writes the snapshot of exactly one artefact.
    let snapshot = json_flag.map(|explicit| {
        let asked: Vec<&str> = SNAPSHOTS
            .into_iter()
            .filter(|s| artefacts.iter().any(|a| a == s))
            .collect();
        let [what] = asked[..] else {
            eprintln!(
                "--json snapshots one artefact of {}; {} requested",
                SNAPSHOTS.join(", "),
                if asked.is_empty() {
                    "none".into()
                } else {
                    asked.join(" and ")
                }
            );
            std::process::exit(2);
        };
        (
            what,
            explicit.unwrap_or_else(|| format!("BENCH_{what}.json")),
        )
    });
    let mut cache = GridCache {
        profile,
        grid: None,
    };
    let mut sfu_sweep: Option<sfu_bench::SfuSweep> = None;
    let mut kernel_points: Option<Vec<kernels_bench::KernelPoint>> = None;
    let mut qoe_points: Option<Vec<qoe_bench::QoePoint>> = None;
    let mut bond_points: Option<Vec<bond_bench::BondPoint>> = None;
    let mut conf_report: Option<conference_bench::ConferenceReport> = None;
    let mut overhead: Option<conference_bench::OverheadResult> = None;
    for a in &artefacts {
        log_event!(Level::Info, "repro", "generating artefact", "artefact" => a.as_str());
        let text = match a.as_str() {
            "table1" => report::table1(&profile),
            "table3" => report::table3(&profile),
            "table4" => report::table4(600.0, profile.seed),
            "table5" => report::table5(cache.get()),
            "table6" => report::table6(&profile),
            "fig4" => report::fig4(&profile),
            "fig5" | "fig6" | "fig7" | "fig8" => report::fig5_to_8(cache.get()),
            "fig9" | "fig10" | "fig11" => report::fig9_to_11(cache.get()),
            "fig12" => report::fig12(cache.get()),
            "fig13" | "fig14" => report::fig13_14(cache.get()),
            "fig15" => report::fig15(&profile),
            "fig16" => report::fig16(),
            "fig17" | "figa1" => report::fig17(&profile),
            "fig18" | "fig19" => report::fig18_19(&profile),
            "fig20" | "fig21" => report::fig20_21(&profile),
            "figa2" => report::figa2(&profile),
            "figa3" => report::figa3(600.0, profile.seed),
            "sfu" => {
                let sweep =
                    sfu_sweep.get_or_insert_with(|| sfu_bench::run_scaling(&profile, quick));
                sfu_bench::text(sweep)
            }
            "kernels" => {
                let pts = kernel_points.get_or_insert_with(kernels_bench::run);
                kernels_bench::text(pts)
            }
            "conference" => {
                let rep = conf_report.get_or_insert_with(|| conference_bench::run(&profile));
                let traced: usize = rep.reconstructed.iter().map(Vec::len).sum();
                if traced == 0 {
                    log_event!(
                        Level::Error,
                        "repro",
                        "conference trace reconstructed no capture→display path"
                    );
                    std::process::exit(1);
                }
                log_event!(Level::Info, "repro", "conference traced", "paths" => traced);
                rep.text.clone()
            }
            "qoe" => {
                let pts = qoe_points.get_or_insert_with(|| qoe_bench::run_sweep(&profile));
                qoe_bench::text(pts)
            }
            "bond" => {
                let pts = bond_points.get_or_insert_with(|| bond_bench::run_sweep(quick));
                bond_bench::text(pts)
            }
            "traceoverhead" => {
                let r = overhead.get_or_insert_with(|| conference_bench::run_overhead(&profile));
                conference_bench::overhead_text(r)
            }
            "grid" => {
                let grid = cache.get();
                let mut s = String::from(
                    "scheme,video,trace,pssim_g,pssim_c,stall,fps,tput_mbps,util,mos\n",
                );
                for r in grid {
                    s.push_str(&format!(
                        "{},{},{},{:.2},{:.2},{:.4},{:.2},{:.3},{:.3},{:.2}\n",
                        r.scheme.name(),
                        r.video.name(),
                        r.trace.name(),
                        r.pssim_geometry,
                        r.pssim_color,
                        r.stall_rate,
                        r.mean_fps,
                        r.throughput_mbps,
                        r.utilization(),
                        r.mos
                    ));
                }
                s
            }
            _ => {
                log_event!(Level::Error, "repro", "unknown artefact", "artefact" => a.as_str());
                usage();
            }
        };
        println!("==================== {a} ====================");
        println!("{text}");
    }
    if let Some(path) = metrics_path {
        log_event!(Level::Info, "repro", "writing telemetry snapshot", "path" => path.as_str());
        let mut host = String::new();
        write_host(&mut host);
        let json = report::bench_snapshot(&profile, &host);
        write_or_exit(&path, &json, "failed to write metrics snapshot");
    }
    if let Some(path) = trace_path {
        log_event!(Level::Info, "repro", "writing chrome trace", "path" => path.as_str());
        let rep = conf_report.get_or_insert_with(|| conference_bench::run(&profile));
        write_or_exit(&path, &rep.chrome_json, "failed to write chrome trace");
    }
    if let Some((what, path)) = snapshot {
        // Each artefact ran above; this takes its result.
        let json = match what {
            "qoe" => qoe_bench::json(qoe_points.as_ref().unwrap(), &profile),
            "bond" => bond_bench::json(bond_points.as_ref().unwrap(), &profile, quick),
            "sfu" => sfu_bench::json(sfu_sweep.as_ref().unwrap(), &profile),
            _ => kernels_bench::json(kernel_points.as_ref().unwrap()),
        };
        log_event!(
            Level::Info,
            "repro",
            "writing json snapshot",
            "what" => what,
            "path" => path.as_str()
        );
        write_or_exit(&path, &json, "failed to write json snapshot");
    }
    if gate {
        // Gate whatever gated artefacts were requested; with no
        // traceoverhead in the list this stays the historical kernel
        // gate (`repro --gate kernels`).
        if let Some(r) = &overhead {
            let limit = conference_bench::OVERHEAD_LIMIT;
            gate_or_exit(
                r.ratio <= limit,
                "trace overhead gate passed",
                "trace overhead gate failed",
                &[("ratio", r.ratio.into()), ("limit", limit.into())],
            );
        }
        if let Some(sweep) = &sfu_sweep {
            gate_or_exit(
                sfu_bench::gate_ok(sweep),
                "sfu gate passed: passes track clusters, sharded route holds, churn guarded",
                "sfu gate failed: passes off the cluster count, sharded slower than \
                 serial at N=100, or churn intras inside one RTT",
                &[],
            );
        }
        if let Some(pts) = &bond_points {
            gate_or_exit(
                bond_bench::gate_ok(pts),
                "bond gate passed: bonded beats the best single link on every scenario",
                "bond gate failed: bonded delivery lost to the best single link, \
                 stalled more, or the mid-call kill did not fail over cleanly",
                &[],
            );
        }
        if (overhead.is_none() && sfu_sweep.is_none() && bond_points.is_none())
            || artefacts.iter().any(|a| a == "kernels")
        {
            let pts = kernel_points.get_or_insert_with(kernels_bench::run);
            gate_or_exit(
                kernels_bench::gate_ok(pts),
                "kernel gate passed: every gated kernel clears its floor",
                "kernel gate failed: a gated kernel runs below its floor",
                &[],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_head_aligns_names_and_rules_each_column() {
        let cols = [("kernel", 8), ("ns", 4), ("unit", 4)];
        assert_eq!(super::table_head(&cols[..2], false), "  kernel |   ns\n");
        assert_eq!(
            super::table_head(&cols, true),
            "  kernel |   ns | unit\n---------+------+-----\n"
        );
    }

    #[test]
    fn host_block_names_the_rustc_on_path() {
        let rustc = std::process::Command::new("rustc").arg("-V").output();
        if !rustc.is_ok_and(|o| o.status.success()) {
            return;
        }
        let mut host = String::new();
        super::write_host(&mut host);
        let field = host.split("\"rustc\":\"").nth(1).unwrap_or("");
        assert!(field.starts_with("rustc "), "{host}");
    }
}
