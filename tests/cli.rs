//! The `raco` command line against the real binary: several paths
//! compile as one batch, machine flags share the serve knobs' bounds,
//! and a flag its subcommand does not read is a usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

use raco::driver::json::Json;

fn raco(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_raco"))
        .args(args)
        .output()
        .expect("raco runs")
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raco-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Asserts a usage error: exit 2 with `message` on stderr.
fn assert_usage_error(args: &[&str], message: &str) {
    let output = raco(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn compile_batches_every_path_into_one_report() {
    let dir = scratch("batch");
    let two = dir.join("two.dsp");
    let one = dir.join("one.dsp");
    std::fs::write(
        &two,
        "for (i = 0; i < 8; i++) { y[i] = x[i] + x[i+1]; }\n\
         for (j = 0; j < 8; j++) { z[j] = w[j] + w[j+2]; }\n",
    )
    .unwrap();
    std::fs::write(&one, "for (i = 0; i < 8; i++) { s += h[i] + h[i+3]; }\n").unwrap();
    let (two, one) = (two.to_str().unwrap(), one.to_str().unwrap());

    let mut threads = Vec::new();
    for paths in [[two, one], [one, two]] {
        let output = raco(&[
            "compile", paths[0], paths[1], "--json", "--quiet", "-j", "2",
        ]);
        assert!(output.status.success(), "{output:?}");
        let report = Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("JSON report");
        assert_eq!(report.get("loops").and_then(Json::as_u64), Some(3));
        let Some(Json::Arr(timings)) = report.get("timings") else {
            panic!("timings array: {report:?}");
        };
        let calls = |stage: &str| {
            timings
                .iter()
                .find(|row| row.get("stage").and_then(Json::as_str) == Some(stage))
                .and_then(|row| row.get("calls"))
                .and_then(Json::as_u64)
        };
        assert_eq!(calls("parse"), Some(2), "one parse per path");
        assert_eq!(
            calls("codegen"),
            Some(3),
            "one codegen per loop of every path"
        );
        threads.push(report.get("threads").and_then(Json::as_u64));
    }
    assert_eq!(
        threads[0], threads[1],
        "path order does not change the batch"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_machine_flags_share_the_serve_register_cap() {
    let dir = scratch("cap");
    let source = dir.join("a.dsp");
    std::fs::write(&source, "for (i = 0; i < 8; i++) { s += x[i]; }\n").unwrap();
    let source = source.to_str().unwrap();
    assert_usage_error(
        &["compile", source, "-k", "5000"],
        "registers: 5000 exceeds the supported maximum of 4096",
    );
    assert_usage_error(
        &["kernels", "--modify-regs", "5000"],
        "modify_registers: 5000 exceeds the supported maximum of 4096",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_a_subcommand_does_not_read_are_usage_errors() {
    assert_usage_error(
        &["compile", "a.dsp", "--requests", "5"],
        "`--requests` does not apply to `compile`",
    );
    assert_usage_error(
        &["kernels", "--budget", "1s"],
        "`--budget` does not apply to `kernels`",
    );
    assert_usage_error(&["fuzz", "-k", "2"], "`-k` does not apply to `fuzz`");
    assert_usage_error(
        &["serve", "--transport", "tcp"],
        "`--transport` does not apply to `serve`",
    );
    assert_usage_error(&["kernels", "--bogus"], "unknown option `--bogus`");
    assert_usage_error(
        &["serve", "extra"],
        "serve: unexpected positional arguments",
    );
}
