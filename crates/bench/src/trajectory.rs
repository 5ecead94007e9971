//! The `raco bench-trajectory` recorder: appends one point of the
//! repository benchmark's results to the committed trajectory file
//! (`BENCH_pipeline.json`), so the pipeline's performance history is
//! tracked in-repo alongside the code.
//!
//! The recorder times nothing itself. For every workload listed in
//! `BENCHMARK.json` it runs `perfbench` — the one, drift-calibrated,
//! output-checked timer — as
//! `python3 perfbench/run.py --workload <w> --seed 1 --seconds <s> --trace 0`,
//! and records the calibrated metrics of its last stdout line and the
//! values of its `raw {…}` line. Run it from the repository root.
//!
//! The file holds one point per line, so an append leaves every earlier
//! byte in place:
//!
//! ```text
//! {"schema":"raco-bench-trajectory","version":2,"points":[
//! {"label":"…","commit":"…","seconds":20,"workloads":{"batch_cold":{…},…}},
//! {"label":"…",…}
//! ]}
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use raco_driver::json::Json;

const SCHEMA: &str = "raco-bench-trajectory";
const VERSION: u64 = 2;
const FILE_NAME: &str = "BENCH_pipeline.json";
const BENCHMARK_FILE: &str = "BENCHMARK.json";
const RUNNER: &str = "perfbench/run.py";
/// Seconds per workload with `--quick`.
const QUICK_SECONDS: u64 = 3;
/// Every recorded run uses the same workload seed, so points compare.
const SEED: u64 = 1;

/// The workload names and `run_seconds` of a `BENCHMARK.json`.
fn declared_workloads(text: &str) -> Result<(Vec<String>, u64), String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let run_seconds = json
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("no `run_seconds`")?;
    let Some(Json::Arr(workloads)) = json.get("workloads") else {
        return Err("no `workloads` array".to_owned());
    };
    let names = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect::<Option<Vec<_>>>()
        .ok_or("a workload has no `name`")?;
    Ok((names, run_seconds))
}

/// Turns one perfbench run's stdout into a point's workload entry:
/// `correct`, `attempted`, `failed`, the calibrated `metrics` of the
/// last line as printed, and `raw`, each metric's value from the
/// `raw {…}` line. Rejects a run that reports `correct:false` or a
/// failed op, and a stdout without a final JSON line or a `raw` line.
fn parse_run(stdout: &str) -> Result<Json, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or("no output")?;
    let result = Json::parse(last).map_err(|e| format!("last line is not the JSON result: {e}"))?;
    let correct = result.get("correct").and_then(Json::as_bool);
    let attempted = result.get("attempted").and_then(Json::as_u64);
    let failed = result.get("failed").and_then(Json::as_u64);
    let (Some(correct), Some(attempted), Some(failed), Some(metrics @ Json::Obj(_))) =
        (correct, attempted, failed, result.get("metrics"))
    else {
        return Err(format!("incomplete result: {last}"));
    };
    if !correct {
        return Err("an output check failed (correct:false)".to_owned());
    }
    if failed > 0 {
        return Err(format!("{failed} of {attempted} ops failed"));
    }
    let raw_line = stdout
        .lines()
        .find_map(|line| line.strip_prefix("raw "))
        .ok_or("no `raw {…}` line")?;
    let Ok(Json::Obj(raw_metrics)) = Json::parse(raw_line) else {
        return Err(format!("`raw` line is not a JSON object: {raw_line}"));
    };
    let raw = raw_metrics
        .into_iter()
        .map(|(name, metric)| match metric.get("value") {
            Some(value @ (Json::Int(_) | Json::UInt(_) | Json::Num(_))) => {
                Ok((name, value.clone()))
            }
            _ => Err(format!("`raw` metric `{name}` has no numeric value")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::UInt(attempted)),
        ("failed".to_owned(), Json::UInt(failed)),
        ("metrics".to_owned(), metrics.clone()),
        ("raw".to_owned(), Json::Obj(raw)),
    ]))
}

/// One point: `label`, the `commit` it was recorded at (`null` outside
/// a git checkout), the `seconds` each workload ran, and each
/// workload's entry from [`parse_run`].
fn point(label: &str, commit: Option<&str>, seconds: u64, workloads: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("label".to_owned(), Json::str(label)),
        ("commit".to_owned(), commit.map_or(Json::Null, Json::str)),
        ("seconds".to_owned(), Json::UInt(seconds)),
        ("workloads".to_owned(), Json::Obj(workloads)),
    ])
}

/// Checks that `text` is a trajectory file of this schema and version
/// whose last field is the `points` array, and returns its text up to
/// that array's closing `]`, trailing whitespace trimmed.
fn points_head(text: &str) -> Result<&str, String> {
    let Json::Obj(fields) = Json::parse(text).map_err(|e| e.to_string())? else {
        return Err("not a JSON object".to_owned());
    };
    let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let schema = field("schema").and_then(Json::as_str);
    let version = field("version").and_then(Json::as_u64);
    if schema != Some(SCHEMA) || version != Some(VERSION) {
        return Err(format!(
            "not a {SCHEMA} version {VERSION} file (schema {schema:?}, version {version:?})"
        ));
    }
    if !matches!(fields.last(), Some((key, Json::Arr(_))) if key == "points") {
        return Err("the last field is not the `points` array".to_owned());
    }
    let head = text
        .trim_end()
        .strip_suffix('}')
        .and_then(|rest| rest.trim_end().strip_suffix(']'))
        .expect("an object whose last value is an array ends in `]}`");
    Ok(head.trim_end())
}

/// Appends `point` to the trajectory file text `existing` (`None`: no
/// file yet), keeping every byte of `existing` before the closing `]}`.
fn append(existing: Option<&str>, point: &Json) -> Result<String, String> {
    let fresh = format!("{{\"schema\":\"{SCHEMA}\",\"version\":{VERSION},\"points\":[]}}");
    let head = points_head(existing.unwrap_or(&fresh))?;
    let separator = if head.ends_with('[') { "" } else { "," };
    Ok(format!("{head}{separator}\n{}\n]}}\n", point.render()))
}

fn read_existing(path: &Path) -> Result<Option<String>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Appends `point` to the file at `path`, creating it if missing; a
/// file of another schema or version is left untouched.
fn write_point(path: &Path, point: &Json) -> Result<(), String> {
    let in_file = |e: String| format!("{}: {e}", path.display());
    let text = append(read_existing(path)?.as_deref(), point).map_err(in_file)?;
    std::fs::write(path, text).map_err(|e| in_file(e.to_string()))
}

/// Runs one workload, forwarding perfbench's own table to stderr.
fn run_workload(name: &str, seconds: u64) -> Result<Json, String> {
    let output = Command::new("python3")
        .args([RUNNER, "--workload", name, "--seed", &SEED.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("python3 {RUNNER}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{stdout}");
    match (parse_run(&stdout), output.status.success()) {
        (Ok(run), true) => Ok(run),
        (Err(e), _) => Err(e),
        (Ok(_), false) => Err(format!("{RUNNER} exited with {}", output.status)),
    }
}

fn head_commit() -> Option<String> {
    let output = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// Runs every workload of `BENCHMARK.json` through perfbench (its
/// `run_seconds` each, 3 s with `quick`) and appends the resulting
/// point, labelled `label`, to the trajectory file at `path`. Returns
/// the appended point.
///
/// # Errors
///
/// Returns a message, having appended nothing, when `BENCHMARK.json`
/// cannot be read, the existing file has another schema or version, or
/// a run fails or reports an output mismatch or a failed op.
pub fn record(quick: bool, label: &str, path: &Path) -> Result<Json, String> {
    let declared = std::fs::read_to_string(BENCHMARK_FILE)
        .map_err(|e| format!("{BENCHMARK_FILE}: {e} (run from the repository root)"))?;
    let (workloads, run_seconds) =
        declared_workloads(&declared).map_err(|e| format!("{BENCHMARK_FILE}: {e}"))?;
    // Refuse a foreign file before spending minutes on runs.
    if let Some(text) = read_existing(path)? {
        points_head(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let seconds = if quick { QUICK_SECONDS } else { run_seconds };
    let runs = workloads
        .into_iter()
        .map(|name| match run_workload(&name, seconds) {
            Ok(run) => Ok((name, run)),
            Err(e) => Err(format!("{name}: {e}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let point = point(label, head_commit().as_deref(), seconds, runs);
    write_point(path, &point)?;
    Ok(point)
}

/// Where `raco bench-trajectory` writes without `-o`:
/// `BENCH_pipeline.json` in the current directory. Run from the
/// repository root, that is the committed trajectory file; a binary run
/// from another checkout writes into that checkout, never into the one
/// it was built in.
pub fn default_output_path() -> PathBuf {
    PathBuf::from(FILE_NAME)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape of a real `perfbench --trace 0` stdout.
    const STDOUT: &str = "\
perfbench library_warm seed 1 seconds 3 trace 0
addr_cycles                        907.0000         907.0000  cycles
attempted 16890 failed 0 output mismatches 0
raw {\"latency_p50_us\":{\"value\":135.47318708050076,\"unit\":\"us\"},\"addr_cycles\":{\"value\":907,\"unit\":\"cycles\"}}
{\"correct\":true,\"attempted\":16890,\"failed\":0,\"metrics\":{\"latency_p50_us\":{\"value\":159.34604949816807,\"unit\":\"us\"},\"addr_cycles\":{\"value\":907,\"unit\":\"cycles\"}}}
";

    fn sample_point(label: &str) -> Json {
        let run = parse_run(STDOUT).expect("sample run parses");
        point(
            label,
            Some("0123abc"),
            3,
            vec![("library_warm".to_owned(), run)],
        )
    }

    fn points(text: &str) -> Vec<Json> {
        match Json::parse(text).expect("valid JSON").get("points") {
            Some(Json::Arr(points)) => points.clone(),
            other => panic!("no points array: {other:?}"),
        }
    }

    fn temp_file(name: &str) -> PathBuf {
        let pid = std::process::id();
        std::env::temp_dir().join(format!("raco-trajectory-{pid}-{name}.json"))
    }

    #[test]
    fn parse_run_keeps_calibrated_metrics_and_raw_values() {
        let run = parse_run(STDOUT).unwrap();
        assert_eq!(
            run.render(),
            "{\"correct\":true,\"attempted\":16890,\"failed\":0,\"metrics\":\
             {\"latency_p50_us\":{\"value\":159.34604949816807,\"unit\":\"us\"},\
             \"addr_cycles\":{\"value\":907,\"unit\":\"cycles\"}},\
             \"raw\":{\"latency_p50_us\":135.47318708050076,\"addr_cycles\":907}}"
        );
    }

    #[test]
    fn failed_incorrect_and_truncated_runs_are_rejected() {
        let without = |prefix: &str| -> String {
            STDOUT
                .lines()
                .filter(|l| !l.starts_with(prefix))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        let cases = [
            (
                STDOUT.replace("\"correct\":true", "\"correct\":false"),
                "correct:false",
            ),
            (
                STDOUT.replace("\"failed\":0", "\"failed\":2"),
                "2 of 16890 ops failed",
            ),
            (without("{"), "last line is not the JSON result"),
            (without("raw "), "no `raw"),
            (String::new(), "no output"),
        ];
        for (stdout, message) in cases {
            let err = parse_run(&stdout).unwrap_err();
            assert!(err.contains(message), "{err}");
        }
    }

    #[test]
    fn a_missing_file_starts_a_fresh_v2_file() {
        let path = temp_file("fresh");
        std::fs::remove_file(&path).ok();
        write_point(&path, &sample_point("a")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let expected = format!(
            "{{\"schema\":\"raco-bench-trajectory\",\"version\":2,\"points\":[\n{}\n]}}\n",
            sample_point("a").render()
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn appending_keeps_earlier_points_byte_identical() {
        let first = append(None, &sample_point("a")).unwrap();
        let second = append(Some(&first), &sample_point("b")).unwrap();
        let third = append(Some(&second), &sample_point("c")).unwrap();
        for (before, after) in [(&first, &second), (&second, &third)] {
            let kept = before.strip_suffix("\n]}\n").unwrap();
            assert!(after.starts_with(kept), "{before}\n{after}");
            assert_eq!(points(after).len(), points(before).len() + 1);
        }
        let labels: Vec<_> = points(&third)
            .iter()
            .map(|p| p.get("label").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(labels, ["a", "b", "c"]);
        // An empty points array takes its first point without a comma.
        let empty = r#"{"schema":"raco-bench-trajectory","version":2,"points":[ ]}"#;
        assert_eq!(
            points(&append(Some(empty), &sample_point("a")).unwrap()).len(),
            1
        );
    }

    #[test]
    fn v1_and_foreign_files_are_rejected_and_left_unwritten() {
        let foreign = [
            // The pre-recorder format: one overwritten, uncalibrated point.
            r#"{"schema":"raco-bench-trajectory","version":1,"label":"x","benches":[]}"#,
            r#"{"schema":"raco-bench-serve","version":2,"points":[]}"#,
            r#"{"schema":"raco-bench-trajectory","version":3,"points":[]}"#,
            r#"{"schema":"raco-bench-trajectory","version":2,"points":{}}"#,
            r#"{"schema":"raco-bench-trajectory","version":2,"points":[],"note":[]}"#,
            r#"[{"schema":"raco-bench-trajectory","version":2,"points":[]}]"#,
            "not json",
        ];
        for (i, text) in foreign.iter().enumerate() {
            let path = temp_file(&format!("foreign{i}"));
            std::fs::write(&path, text).unwrap();
            assert!(write_point(&path, &sample_point("a")).is_err(), "{text}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), *text);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn the_committed_files_are_readable_by_the_recorder() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let declared = std::fs::read_to_string(root.join(BENCHMARK_FILE)).unwrap();
        let (workloads, run_seconds) = declared_workloads(&declared).unwrap();
        assert_eq!(workloads, ["batch_cold", "library_warm", "serve_warm"]);
        assert!(run_seconds > QUICK_SECONDS);
        let trajectory = std::fs::read_to_string(root.join(FILE_NAME)).unwrap();
        let appended = append(Some(&trajectory), &sample_point("next")).unwrap();
        assert_eq!(points(&appended).len(), points(&trajectory).len() + 1);
    }

    #[test]
    fn default_output_path_is_in_the_current_directory() {
        // Relative, so it resolves against the working directory at run
        // time, not a directory baked in when the binary was built.
        assert_eq!(default_output_path(), PathBuf::from(FILE_NAME));
    }
}
