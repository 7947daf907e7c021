//! The experiment runner, end to end through the `lumos` binary.
//!
//! The digests below were recorded at the commit *before* the twelve-arm
//! `match` and its hand-copied `all` arm became one table of experiments:
//! the report is not allowed to move a byte for being driven differently.
//! A digest that moves with `schedule_golden` / `prediction_golden` still
//! green is a change in the runner or a renderer, not in the numbers. The
//! stdout digest was re-recorded once since, when Fig. 4/5's longest-
//! waiting classes stopped printing as `Some(Large) / Some(Middle)`: the
//! five lines that print them are the only ones that moved.

use std::path::Path;
use std::process::Output;

mod support;
use support::{fnv1a, lumos, scratch_dir};

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("lumos prints UTF-8")
}

fn stderr(out: &Output) -> &str {
    std::str::from_utf8(&out.stderr).expect("lumos prints UTF-8")
}

#[test]
fn all_is_pinned_to_the_parent_commit() {
    let dir = scratch_dir("reproduce-all");
    let out_dir = dir.to_str().expect("temp dir is UTF-8");
    let out = lumos(&["all", "--seed", "2024", "--days", "1", "--out", out_dir]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        (out.stdout.len(), fnv1a(out.stdout.iter().copied())),
        (13_034, 2_245_755_903_419_217_040),
        "stdout of `all` moved:\n{}",
        stdout(&out)
    );

    let golden = [
        ("fig12.json", 30_910, 13_588_989_959_997_580_084),
        ("suite.json", 718_569, 6_654_751_129_088_433_621),
        ("table2.json", 2_145, 9_369_647_210_182_292_171),
    ];
    let mut written: Vec<_> = std::fs::read_dir(&dir)
        .expect("--out directory exists")
        .map(|entry| entry.expect("readable entry").file_name())
        .collect();
    written.sort();
    assert_eq!(written, golden.map(|(name, ..)| name));
    for (name, len, digest) in golden {
        let bytes = std::fs::read(dir.join(name)).expect("written file reads");
        assert_eq!(
            (bytes.len(), fnv1a(bytes.iter().copied())),
            (len, digest),
            "{name} moved"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invocations_that_cannot_mean_anything_exit_2() {
    for (args, names) in [
        (&["frobnicate"][..], "unknown command frobnicate"),
        (&["table1", "--days", "0"], "--days"),
        (&["fig12", "--swf", "x"], "--swf"),
        (&["table2", "--swf", "x"], "--swf"),
        (&["ablation-relax", "--swf", "x"], "--swf"),
        (&["ablation-walltime", "--swf", "x"], "--swf"),
        (&["table1", "--system", "theta"], "--system"),
        (&["table1", "--system", "nosuch"], "--system"),
        (&["serve", "--group-commit", "4"], "unknown flag"),
        (&["serve", "--queue-cap", "0"], "--queue-cap"),
        (
            &["serve", "--follow", "a", "--replicate-to", "b"],
            "exclusive",
        ),
        (&["serve", "--follow", "a"], "require --journal"),
        (&["serve", "--replicate-to", "b"], "require --journal"),
    ] {
        let out = lumos(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(names), "{args:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn ablations_print_the_rows_of_the_binaries_they_replace() {
    // `cargo bench --bench ablation_relax_factor` and `--bench
    // ablation_feedback`, as they printed at the parent commit.
    let relax = lumos(&["ablation-relax"]);
    assert!(relax.status.success(), "{}", stderr(&relax));
    assert_eq!(
        stdout(&relax),
        "\
variant           mean wait     bsld     util    violation   violated
strict                2845s     2.83    59.5%         0.0s          0
fixed-5%              2837s     2.79    59.3%         0.0s          0
fixed-10%             2822s     2.79    59.3%        49.8s          4
fixed-20%             2872s     2.83    59.3%       125.0s          6
adaptive-5%           2853s     2.80    59.5%         0.0s          0
adaptive-10%          2816s     2.79    59.5%         0.0s          0
adaptive-20%          2842s     2.82    59.3%        30.3s          1
"
    );

    let feedback = lumos(&["ablation-feedback"]);
    assert!(feedback.status.success(), "{}", stderr(&feedback));
    assert_eq!(
        stdout(&feedback),
        "\
minimal-request share gradient (long queue − short queue):
  with feedback    : 0.045549292796606244
  without feedback : -0.007153182451793305
"
    );
}

#[test]
fn walltime_ablation_prints_the_rows_of_the_example_it_replaces() {
    // `cargo run --example prediction_scheduling` (seed 13, 10 days), as it
    // printed at the parent commit.
    let out = lumos(&["ablation-walltime", "--seed", "13", "--days", "10"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "\
estimates           mean wait       bsld     util     p90 wait
user walltimes          2678s       2.21    64.5%        5602s
Last2 x1.5              6122s       5.16    65.5%        9638s
Last2 x4                7822s       6.07    65.3%        9600s
perfect oracle          1842s       2.02    64.5%        4268s
"
    );
}

#[test]
fn all_with_swf_runs_the_suite_rows_and_names_what_it_skipped() {
    let trace = lumos_traces::Generator::new(
        lumos_traces::systems::profile_for(lumos_core::SystemId::Theta),
        lumos_traces::GeneratorConfig {
            seed: 55,
            span_days: 1,
            ..lumos_traces::GeneratorConfig::default()
        },
    )
    .generate();
    let dir = scratch_dir("reproduce-swf");
    let swf = dir.join("theta.swf");
    std::fs::write(&swf, lumos_traces::swf::write(&trace)).expect("write SWF");
    let swf = swf.to_str().expect("temp dir is UTF-8");

    let out = lumos(&["all", "--swf", swf, "--system", "theta"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let skipped = stderr(&out);
    assert!(
        skipped.contains("fig12") && skipped.contains("table2"),
        "{skipped}"
    );
    let report = stdout(&out);
    assert!(report.contains("== Table I ==") && report.contains("== Takeaways =="));
    assert!(!report.contains("Fig. 12") && !report.contains("Table II"));
    assert!(!report.contains("Mira"), "a synthetic system in:\n{report}");

    let missing = lumos(&["all", "--swf", "/nonexistent/trace.swf"]);
    assert_eq!(missing.status.code(), Some(1), "{}", stderr(&missing));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every fenced block of EXPERIMENTS.md that opens with `$ lumos ARGS` is
/// that command's stdout, byte for byte: the tables there are checked
/// output, not transcriptions.
#[test]
fn experiments_md_blocks_are_what_lumos_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md reads");
    let mut checked = 0;
    for block in doc.split("```").skip(1).step_by(2) {
        let Some(block) = block.strip_prefix("\n$ lumos ") else {
            continue;
        };
        let (command, expected) = block.split_once('\n').expect("a block has lines");
        let args: Vec<&str> = command.split_whitespace().collect();
        let out = lumos(&args);
        assert!(out.status.success(), "lumos {command}: {}", stderr(&out));
        assert_eq!(stdout(&out), expected, "EXPERIMENTS.md: `lumos {command}`");
        checked += 1;
    }
    assert!(checked > 0, "no `$ lumos` block in EXPERIMENTS.md");
}
