//! The experiment binaries that draw charts, run for real: each writes
//! its one SVG under `results/` of its working directory and prints
//! only its table on stdout, Fig. 9(a)'s chart is drawn from the rows
//! its table prints, and an audited run with findings draws nothing.

use std::path::PathBuf;
use std::process::Command;

/// Runs `exe` in a fresh directory on an in-memory cache (at quick
/// fidelity when `quick`), asserts it succeeds, and returns its stdout
/// and the one file it wrote, which must be `results/<svg>`.
fn run_chart_bin(exe: &str, quick: bool, svg: &str) -> (String, String) {
    let name = std::path::Path::new(exe).file_name().unwrap();
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "ptb-chart-bins-{}-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(exe);
    cmd.current_dir(&dir).env("PTB_CACHE", "mem");
    if quick {
        cmd.env("PTB_QUICK", "1");
    } else {
        cmd.env_remove("PTB_QUICK");
    }
    let out = cmd.output().expect("experiment binary runs");
    assert!(
        out.status.success(),
        "{exe} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut written: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("results/ was created")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, [svg], "{exe} must write exactly results/{svg}");
    let chart = std::fs::read_to_string(dir.join("results").join(svg)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(chart.starts_with("<svg") && chart.ends_with("</svg>"));
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        !stdout.contains(".svg"),
        "{exe}'s stdout is its table, not a log of files written"
    );
    (stdout, chart)
}

/// Asserts `stdout` runs from the table's first line to its last.
fn assert_table_only(stdout: &str, first: &str, last: &str) {
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with(first), "first line: {}", lines[0]);
    assert_eq!(*lines.last().unwrap(), last);
}

/// The value of the chart's top y tick (the first right-anchored label).
fn top_y_tick(svg: &str) -> f64 {
    let anchor = r#"text-anchor="end">"#;
    let start = svg.find(anchor).expect("chart has y ticks") + anchor.len();
    let len = svg[start..].find('<').unwrap();
    svg[start..start + len].parse().expect("y tick is a number")
}

#[test]
fn fig09a_chart_spans_its_table() {
    let (stdout, svg) = run_chart_bin(
        env!("CARGO_BIN_EXE_fig09_energy_breakdown"),
        false,
        "fig09a.svg",
    );
    assert_table_only(
        &stdout,
        "=== Fig. 9(a)",
        "is near-optimal — extreme shapes overpay on one data type.",
    );
    // Rows between Fig. 9(a)'s column header and the blank line; the
    // last column is total(uJ).
    let totals: Vec<f64> = stdout
        .lines()
        .skip(2)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
        .collect();
    assert_eq!(totals.len(), 7, "one row per TW of the sweep");
    let max_total = totals.iter().copied().fold(0.0, f64::max);
    let top = top_y_tick(&svg);
    assert!(
        top >= max_total,
        "fig09a.svg tops out at {top} uJ below the table's {max_total} uJ"
    );
}

#[test]
fn tw_sweep_draws_fig11() {
    let (stdout, svg) = run_chart_bin(
        env!("CARGO_BIN_EXE_fig10_fig11_tw_sweep"),
        true,
        "fig11.svg",
    );
    assert_table_only(
        &stdout,
        "=== Fig. 10: DVS-Gesture ===",
        "late layers pull toward opposite TW sizes (Section VI-B1).",
    );
    for net in spikegen::datasets::all_benchmarks() {
        assert!(svg.contains(&format!(">{}</text>", net.name)));
    }
}

#[test]
fn fig12_discussion_draws_fig12b() {
    let (stdout, svg) = run_chart_bin(env!("CARGO_BIN_EXE_fig12_discussion"), true, "fig12b.svg");
    assert_table_only(
        &stdout,
        "=== Fig. 12(a)",
        "neurons and to FC and CONV layers alike.",
    );
    assert!(svg.contains("Fig. 12(b)"));
}

#[test]
fn a_run_with_findings_leaves_the_chart_alone() {
    // The audited binaries, replaying a warm disk cache whose every load
    // delivers one flipped spike bit: the audit finds it, the binary
    // exits nonzero, and the chart an earlier run left is not redrawn.
    for (exe, svg) in [
        (env!("CARGO_BIN_EXE_fig10_fig11_tw_sweep"), "fig11.svg"),
        (env!("CARGO_BIN_EXE_fig12_discussion"), "fig12b.svg"),
    ] {
        let name = std::path::Path::new(exe).file_name().unwrap();
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "ptb-chart-findings-{}-{}",
            name.to_string_lossy(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let run = |corrupt: bool| {
            let mut cmd = Command::new(exe);
            cmd.current_dir(&dir)
                .env("PTB_QUICK", "1")
                .env("PTB_CACHE", "disk")
                .env_remove("PTB_VERIFY")
                .env_remove("PTB_FAILPOINTS");
            if corrupt {
                cmd.env("PTB_VERIFY", "sample")
                    .env("PTB_FAILPOINTS", "cache_load_flip=err");
            }
            cmd.output().expect("experiment binary runs")
        };
        let warm = run(false);
        assert!(warm.status.success(), "{exe} failed on a clean cache");
        let chart = dir.join("results").join(svg);
        let stale = "the chart an earlier run left";
        std::fs::write(&chart, stale).unwrap();
        let flagged = run(true);
        assert!(
            !flagged.status.success(),
            "{exe} exited 0 on a run with audit findings"
        );
        assert!(flagged.stdout.is_empty(), "{exe} printed a flagged run");
        assert!(
            std::fs::read_to_string(&chart).unwrap() == stale,
            "{exe} redrew results/{svg} from a flagged run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
