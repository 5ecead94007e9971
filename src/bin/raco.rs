//! `raco` — the batch compilation CLI.
//!
//! ```text
//! raco compile <path>… [options]   compile DSL files / directories
//! raco kernels [options]           compile the built-in kernel suite
//! raco serve [options]             long-lived NDJSON compile service
//! raco loadgen [options]           replay a mixed-machine trace against `raco serve`
//! raco fuzz [options]              adversarial long-runner against `raco serve`
//! raco bench-trajectory [options]  append a benchmark point to BENCH_pipeline.json
//! raco help                        this text
//! ```
//!
//! Options:
//!
//! ```text
//!     --machine <name|file>  built-in machine description (paper,
//!                        tms320c2x, dsp56k, adsp210x, bwdsp, saris), a
//!                        path to a `key = value` description file, or an
//!                        inline description string
//! -k, --registers <K>    address registers (default 4)
//! -m, --modify <M>       auto-modify range (default 1)
//!     --modify-regs <N>  modify registers (default 0)
//! -j, --threads <T>      worker threads (default: all cores; 1 = sequential;
//!                        serve: 1, since connections supply the concurrency)
//!     --iterations <N>   simulated iterations per loop (default 16)
//!     --no-cache         disable the allocation cache
//!     --no-validate      skip simulator validation
//!     --cache-load <f>   warm the allocation cache from a snapshot file
//!     --cache-save <f>   snapshot the warm cache when done (serve: on
//!                        graceful shutdown and on `save_cache` requests)
//!     --listing          print assembled per-unit listings
//!     --timings          print the per-stage pipeline timing table
//!     --json             print the JSON report to stdout
//! -o, --output <file>    write the JSON report to a file
//!     --quiet            suppress the table (useful with --json)
//!
//! serve-only:
//!     --stdio            serve stdin/stdout (the default transport)
//!     --tcp <addr>       serve TCP connections on <addr> (e.g. 127.0.0.1:4750)
//!     --cache-max <N>    bound the allocation cache at ~N entries (FIFO eviction)
//!     --queue-depth <N>  compiles in flight at once, across all
//!                        connections, before shedding (default 256)
//!     --read-deadline <ms>     reap connections with no complete request
//!                              within <ms> (default 10000; 0 disables)
//!     --compute-deadline <ms>  answer `compute_deadline` when <ms> pass
//!                              before every loop of a compile has started;
//!                              finished loops stay cached (default 30000;
//!                              0 disables)
//!     --max-connections <N>    refuse connections past N with `busy` (default 1024)
//!
//! loadgen-only (plus the serve knobs above, forwarded to the spawned server):
//!     --tcp <addr>       attack a running server instead of spawning one
//!     --requests <N>     total requests to replay (default 100000)
//!     --connections <N>  concurrent client connections (default 8)
//!     --shapes <N>       distinct loop shapes in the trace (default 64)
//!     --seed <N>         trace seed (fully deterministic per seed)
//!     --label <s>        label stamped into BENCH_serve.json
//! -o, --output <file>    artifact path (default BENCH_serve.json)
//!
//! fuzz-only:
//!     --budget <dur>     wall-clock budget, e.g. 45s, 2m, 500ms (default 45s)
//!     --seed <N>         master seed (default: derived from the clock)
//!     --max-cases <N>    stop after N cases even if budget remains
//!     --failures-dir <d> where minimal repros go (default fuzz-failures/)
//!     --transport <t>    stdio (default) or tcp
//!
//! bench-trajectory-only (run from the repository root; runs
//! `python3 perfbench/run.py` once per BENCHMARK.json workload and
//! appends one point, or nothing if a run fails or the file is foreign):
//! -o, --output <file>    trajectory file (default ./BENCH_pipeline.json)
//!     --quick            3 s per workload instead of BENCHMARK.json's run_seconds
//!     --label <s>        label stamped into the point (default "local")
//! ```
//!
//! Exit status (uniform across subcommands):
//!
//! * `0` — success: every loop compiled (and validated); for `serve`,
//!   a clean shutdown or end of input.
//! * `1` — at least one loop failed to compile or validate.
//! * `2` — usage, parse or I/O errors (nothing was compiled).

use std::path::PathBuf;
use std::process::ExitCode;

use raco::driver::{CachePolicy, CompilationReport, Parallelism, Pipeline, PipelineConfig};
use raco::ir::{AguSpec, MachineDescription, UpdateRange};
use raco::serve::{ServeOptions, Server};

#[derive(Debug)]
struct CliOptions {
    machine: Option<String>,
    registers: Option<usize>,
    modify_range: Option<u32>,
    modify_registers: Option<usize>,
    threads: Option<usize>,
    iterations: u64,
    cache: bool,
    validate: bool,
    listing: bool,
    timings: bool,
    quick: bool,
    label: Option<String>,
    json: bool,
    output: Option<PathBuf>,
    quiet: bool,
    stdio: bool,
    tcp: Option<String>,
    cache_max: Option<usize>,
    read_deadline_ms: Option<u64>,
    compute_deadline_ms: Option<u64>,
    queue_depth: Option<usize>,
    max_connections: Option<usize>,
    requests: Option<u64>,
    connections: Option<usize>,
    shapes: Option<usize>,
    cache_load: Option<PathBuf>,
    cache_save: Option<PathBuf>,
    budget: Option<String>,
    seed: Option<u64>,
    max_cases: Option<u64>,
    failures_dir: Option<PathBuf>,
    transport: Option<String>,
    paths: Vec<PathBuf>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            machine: None,
            registers: None,
            modify_range: None,
            modify_registers: None,
            threads: None,
            iterations: 16,
            cache: true,
            validate: true,
            listing: false,
            timings: false,
            quick: false,
            label: None,
            json: false,
            output: None,
            quiet: false,
            stdio: false,
            tcp: None,
            cache_max: None,
            read_deadline_ms: None,
            compute_deadline_ms: None,
            queue_depth: None,
            max_connections: None,
            requests: None,
            connections: None,
            shapes: None,
            cache_load: None,
            cache_save: None,
            budget: None,
            seed: None,
            max_cases: None,
            failures_dir: None,
            transport: None,
            paths: Vec::new(),
        }
    }
}

fn usage() -> &'static str {
    "raco — register-constrained address computation (DATE 1998)\n\
     \n\
     usage:\n\
     \x20 raco compile <path>… [options]   compile DSL files / directories\n\
     \x20 raco kernels [options]           compile the built-in kernel suite\n\
     \x20 raco serve [options]             long-lived NDJSON compile service\n\
     \x20 raco loadgen [options]           replay a mixed-machine trace against `raco serve`\n\
     \x20 raco fuzz [options]              adversarial long-runner against `raco serve`\n\
     \x20 raco bench-trajectory [options]  append a benchmark point to BENCH_pipeline.json\n\
     \x20 raco help                        this text\n\
     \n\
     options:\n\
     \x20     --machine <m>      machine description: a built-in name (paper,\n\
     \x20                        tms320c2x, dsp56k, adsp210x, bwdsp, saris),\n\
     \x20                        a description file, or an inline description;\n\
     \x20                        -k/-m/--modify-regs override on top\n\
     \x20 -k, --registers <K>    address registers (default 4)\n\
     \x20 -m, --modify <M>       auto-modify range (default 1)\n\
     \x20     --modify-regs <N>  modify registers (default 0)\n\
     \x20 -j, --threads <T>      worker threads (default: all cores; serve: 1)\n\
     \x20     --iterations <N>   simulated iterations per loop (default 16)\n\
     \x20     --no-cache         disable the allocation cache\n\
     \x20     --no-validate      skip simulator validation\n\
     \x20     --cache-load <f>   warm the allocation cache from a snapshot file\n\
     \x20     --cache-save <f>   snapshot the warm cache when done (serve: on\n\
     \x20                        graceful shutdown and on `save_cache` requests)\n\
     \x20     --listing          print assembled per-unit listings\n\
     \x20     --timings          print the per-stage pipeline timing table\n\
     \x20     --json             print the JSON report to stdout\n\
     \x20 -o, --output <file>    write the JSON report to a file\n\
     \x20     --quiet            suppress the table output\n\
     \n\
     serve-only options:\n\
     \x20     --stdio            serve stdin/stdout (the default transport)\n\
     \x20     --tcp <addr>       serve TCP connections on <addr>\n\
     \x20     --cache-max <N>    bound the allocation cache at ~N entries\n\
     \x20     --queue-depth <N>  compiles in flight before shedding (default 256)\n\
     \x20     --read-deadline <ms>     reap slow clients (default 10000; 0 = off)\n\
     \x20     --compute-deadline <ms>  per-compile budget, checked before each\n\
     \x20                              loop starts (default 30000; 0 = off)\n\
     \x20     --max-connections <N>    refuse connections past N (default 1024)\n\
     \n\
     loadgen-only options (serve knobs above reach the spawned server):\n\
     \x20     --tcp <addr>       attack a running server instead of spawning one\n\
     \x20     --requests <N>     total requests to replay (default 100000)\n\
     \x20     --connections <N>  concurrent client connections (default 8)\n\
     \x20     --shapes <N>       distinct loop shapes in the trace (default 64)\n\
     \x20     --seed <N>         trace seed (deterministic per seed)\n\
     \x20     --label <s>        label stamped into BENCH_serve.json\n\
     \x20 -o, --output <file>    artifact path (default BENCH_serve.json)\n\
     \n\
     fuzz-only options:\n\
     \x20     --budget <dur>     wall-clock budget, e.g. 45s, 2m (default 45s)\n\
     \x20     --seed <N>         master seed (default: derived from the clock)\n\
     \x20     --max-cases <N>    stop after N cases even if budget remains\n\
     \x20     --failures-dir <d> where minimal repros go (default fuzz-failures/)\n\
     \x20     --transport <t>    stdio (default) or tcp\n\
     \n\
     bench-trajectory-only options (run from the repository root; one\n\
     perfbench run per BENCHMARK.json workload, one point appended):\n\
     \x20 -o, --output <file>    trajectory file (default ./BENCH_pipeline.json)\n\
     \x20     --quick            3 s per workload instead of run_seconds\n\
     \x20     --label <s>        label stamped into the point (default \"local\")\n\
     \n\
     exit status:\n\
     \x20 0  every loop compiled (and validated); serve: clean shutdown\n\
     \x20 1  at least one loop failed to compile or validate\n\
     \x20 2  usage, parse or I/O errors (nothing was compiled)"
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a valid number"))
}

fn parse_options(args: Vec<String>) -> Result<CliOptions, String> {
    let mut options = CliOptions::default();
    let mut iter = args.into_iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--machine" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs a machine name or description file"))?;
                options.machine = Some(value);
            }
            "-k" | "--registers" => options.registers = Some(parse_number(&arg, iter.next())?),
            "-m" | "--modify" => options.modify_range = Some(parse_number(&arg, iter.next())?),
            "--modify-regs" => {
                options.modify_registers = Some(parse_number(&arg, iter.next())?);
            }
            "-j" | "--threads" => options.threads = Some(parse_number(&arg, iter.next())?),
            "--iterations" => options.iterations = parse_number(&arg, iter.next())?,
            "--no-cache" => options.cache = false,
            "--no-validate" => options.validate = false,
            "--listing" => options.listing = true,
            "--timings" => options.timings = true,
            "--quick" => options.quick = true,
            "--label" => {
                let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
                options.label = Some(value);
            }
            "--quiet" => options.quiet = true,
            "--json" => options.json = true,
            "--stdio" => options.stdio = true,
            "--tcp" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs an address (e.g. 127.0.0.1:4750)"))?;
                options.tcp = Some(value);
            }
            "--cache-max" => options.cache_max = Some(parse_number(&arg, iter.next())?),
            "--read-deadline" => {
                options.read_deadline_ms = Some(parse_number(&arg, iter.next())?);
            }
            "--compute-deadline" => {
                options.compute_deadline_ms = Some(parse_number(&arg, iter.next())?);
            }
            "--queue-depth" => options.queue_depth = Some(parse_number(&arg, iter.next())?),
            "--max-connections" => {
                options.max_connections = Some(parse_number(&arg, iter.next())?);
            }
            "--requests" => options.requests = Some(parse_number(&arg, iter.next())?),
            "--connections" => options.connections = Some(parse_number(&arg, iter.next())?),
            "--shapes" => options.shapes = Some(parse_number(&arg, iter.next())?),
            "--budget" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs a duration (e.g. 45s)"))?;
                options.budget = Some(value);
            }
            "--seed" => options.seed = Some(parse_number(&arg, iter.next())?),
            "--max-cases" => options.max_cases = Some(parse_number(&arg, iter.next())?),
            "--failures-dir" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs a directory path"))?;
                options.failures_dir = Some(PathBuf::from(value));
            }
            "--transport" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs `stdio` or `tcp`"))?;
                options.transport = Some(value);
            }
            "--cache-load" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs a snapshot file path"))?;
                options.cache_load = Some(PathBuf::from(value));
            }
            "--cache-save" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs a snapshot file path"))?;
                options.cache_save = Some(PathBuf::from(value));
            }
            "-o" | "--output" => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} needs a file path"))?;
                options.output = Some(PathBuf::from(value));
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            path => options.paths.push(PathBuf::from(path)),
        }
    }
    Ok(options)
}

/// Resolves `--machine`: a built-in name, a path to a description
/// file, or an inline `key = value` description string.
fn resolve_machine(arg: &str) -> Result<AguSpec, String> {
    let path = std::path::Path::new(arg);
    let description = if path.is_file() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("--machine {}: {e}", path.display()))?;
        MachineDescription::parse(&text)
            .map_err(|e| format!("--machine {}: {e}", path.display()))?
    } else {
        MachineDescription::resolve(arg).map_err(|e| format!("--machine: {e}"))?
    };
    Ok(*description.spec())
}

fn build_config(options: &CliOptions) -> Result<PipelineConfig, String> {
    let mut agu = match &options.machine {
        Some(arg) => resolve_machine(arg)?,
        None => AguSpec::new(4, 1).map_err(|e| e.to_string())?,
    };
    // Numeric knobs layer on top of the description (or the paper-shaped
    // default), so e.g. `--machine saris -k 2` keeps the SARIS cost
    // table while shrinking the register file.
    if let Some(k) = options.registers {
        agu = agu.with_address_registers(k).map_err(|e| e.to_string())?;
    }
    if let Some(m) = options.modify_range {
        agu = agu.with_update_range(UpdateRange::symmetric(m));
    }
    if let Some(n) = options.modify_registers {
        agu = agu.with_modify_registers(n);
    }
    let mut config = PipelineConfig::new(agu);
    config.parallelism = match options.threads {
        None => Parallelism::Auto,
        Some(0) | Some(1) => Parallelism::Sequential,
        Some(n) => Parallelism::Fixed(n),
    };
    config.validate = options.validate;
    config.validation_iterations = options.iterations;
    config.caching = options.cache;
    config.listings = options.listing;
    if let Some(max) = options.cache_max {
        config.cache_policy = CachePolicy::Bounded(max);
    }
    Ok(config)
}

fn build_pipeline(options: &CliOptions) -> Result<Pipeline, String> {
    Ok(Pipeline::with_config(build_config(options)?))
}

/// The serve tier's operational limits from the CLI flags, with the
/// production defaults (10 s read / 30 s compute deadlines; `0`
/// disables a deadline).
fn serve_options(options: &CliOptions) -> ServeOptions {
    let deadline = |ms: Option<u64>, default_ms: u64| match ms.unwrap_or(default_ms) {
        0 => None,
        ms => Some(std::time::Duration::from_millis(ms)),
    };
    ServeOptions {
        queue_depth: options
            .queue_depth
            .unwrap_or(raco::serve::DEFAULT_QUEUE_DEPTH),
        read_deadline: deadline(options.read_deadline_ms, 10_000),
        compute_deadline: deadline(options.compute_deadline_ms, 30_000),
        max_connections: options
            .max_connections
            .unwrap_or(raco::serve::DEFAULT_MAX_CONNECTIONS),
    }
}

/// Warms the pipeline's cache from `--cache-load`, if given. An
/// unreadable snapshot file is a hard error (exit 2, like any other
/// I/O problem); *damaged* snapshot contents are only warnings — the
/// entries that survive still load, and the rest recompute.
fn warm_from_snapshot(pipeline: &Pipeline, options: &CliOptions) -> Result<(), String> {
    if let Some(path) = &options.cache_load {
        let report = pipeline.load_cache(path).map_err(|e| e.to_string())?;
        for warning in &report.warnings {
            eprintln!("raco: cache snapshot: {warning}");
        }
        if !options.quiet {
            eprintln!("raco: cache loaded from {} ({report})", path.display());
        }
    }
    Ok(())
}

/// Snapshots the warm cache to `--cache-save`, if given (batch
/// subcommands call this once compilation is done; `serve` snapshots
/// through the server's own graceful-shutdown hook instead).
fn save_snapshot(pipeline: &Pipeline, options: &CliOptions) -> Result<(), String> {
    if let Some(path) = &options.cache_save {
        let report = pipeline.save_cache(path).map_err(|e| e.to_string())?;
        if !options.quiet {
            eprintln!("raco: cache saved to {} ({report})", path.display());
        }
    }
    Ok(())
}

fn emit(report: &CompilationReport, options: &CliOptions) -> Result<(), String> {
    if !options.quiet {
        print!("{}", report.render_table());
        if options.timings {
            let table = report.render_timings_table();
            if !table.is_empty() {
                println!("\nper-stage pipeline timings:");
                print!("{table}");
            }
        }
        if options.listing {
            for unit in &report.units {
                if let Some(listing) = &unit.listing {
                    println!("\n{listing}");
                }
            }
        }
    }
    if options.json {
        print!("{}", report.to_json());
    }
    if let Some(path) = &options.output {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        if !options.quiet {
            println!("JSON report written to {}", path.display());
        }
    }
    Ok(())
}

fn run() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(usage().to_owned());
    }
    let command = args.remove(0);
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(true)
        }
        "compile" => {
            let options = parse_options(args)?;
            if options.paths.is_empty() {
                return Err("compile: no input paths given".to_owned());
            }
            let pipeline = build_pipeline(&options)?;
            warm_from_snapshot(&pipeline, &options)?;
            // Compile every path into one combined report so the cache
            // warms across inputs, exactly like batch traffic would.
            let mut combined: Option<CompilationReport> = None;
            for path in &options.paths {
                let report = pipeline.compile_path(path).map_err(|e| e.to_string())?;
                combined = Some(match combined {
                    None => report,
                    Some(mut acc) => {
                        acc.units.extend(report.units);
                        acc.elapsed += report.elapsed;
                        acc.cache = report.cache;
                        acc
                    }
                });
            }
            save_snapshot(&pipeline, &options)?;
            let report = combined.expect("at least one path");
            emit(&report, &options)?;
            Ok(report.failed() == 0)
        }
        "kernels" => {
            let options = parse_options(args)?;
            if !options.paths.is_empty() {
                return Err("kernels: unexpected positional arguments".to_owned());
            }
            let pipeline = build_pipeline(&options)?;
            warm_from_snapshot(&pipeline, &options)?;
            let report = pipeline.compile_kernels();
            save_snapshot(&pipeline, &options)?;
            emit(&report, &options)?;
            Ok(report.failed() == 0)
        }
        "serve" => {
            let options = parse_options(args)?;
            if !options.paths.is_empty() {
                return Err("serve: unexpected positional arguments".to_owned());
            }
            if options.stdio && options.tcp.is_some() {
                return Err("serve: --stdio and --tcp are mutually exclusive".to_owned());
            }
            let mut config = build_config(&options)?;
            // Connections supply the concurrency: each compile runs on
            // its connection's thread, and fanning its loops out on top
            // would oversubscribe the machine. -j still asks for more.
            if options.threads.is_none() {
                config.parallelism = Parallelism::Sequential;
            }
            let mut server = Server::with_options(config, serve_options(&options));
            warm_from_snapshot(server.pipeline(), &options)?;
            if let Some(save) = &options.cache_save {
                // The server snapshots on graceful shutdown (and on
                // `save_cache` requests) itself, once every connection
                // has drained.
                server = server.with_cache_save_path(save);
            }
            if !options.quiet {
                let opts = server.options();
                let ms = |deadline: Option<std::time::Duration>| {
                    deadline.map_or("off".to_owned(), |d| format!("{} ms", d.as_millis()))
                };
                eprintln!(
                    "raco serve: queue depth {}, read deadline {}, \
                     compute deadline {}, max {} connections",
                    opts.queue_depth,
                    ms(opts.read_deadline),
                    ms(opts.compute_deadline),
                    opts.max_connections
                );
            }
            match &options.tcp {
                Some(addr) => {
                    let listener = std::net::TcpListener::bind(addr)
                        .map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
                    if !options.quiet {
                        let bound = listener
                            .local_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| addr.clone());
                        eprintln!("raco serve: listening on {bound}");
                    }
                    server
                        .serve_tcp(&listener)
                        .map_err(|e| format!("serve: {e}"))?;
                }
                None => {
                    let stdin = std::io::stdin();
                    let stdout = std::io::stdout();
                    server
                        .serve(stdin.lock(), stdout.lock())
                        .map_err(|e| format!("serve: {e}"))?;
                }
            }
            Ok(true)
        }
        "loadgen" => {
            let options = parse_options(args)?;
            if !options.paths.is_empty() {
                return Err("loadgen: unexpected positional arguments".to_owned());
            }
            let binary =
                std::env::current_exe().map_err(|e| format!("loadgen: cannot locate raco: {e}"))?;
            let mut config = raco::loadgen::LoadgenConfig::new(binary);
            config.addr = options.tcp.clone();
            if let Some(n) = options.requests {
                config.requests = n;
            }
            if let Some(n) = options.connections {
                config.connections = n;
            }
            if let Some(n) = options.shapes {
                config.shapes = n;
            }
            if let Some(seed) = options.seed {
                config.seed = seed;
            }
            if let Some(label) = &options.label {
                config.label = label.clone();
            }
            if let Some(output) = &options.output {
                config.output = output.clone();
            }
            // Server knobs are forwarded to the spawned server (and
            // ignored when --tcp targets an external one).
            let forward: [(&str, Option<String>); 6] = [
                ("--machine", options.machine.clone()),
                (
                    "--read-deadline",
                    options.read_deadline_ms.map(|n| n.to_string()),
                ),
                (
                    "--compute-deadline",
                    options.compute_deadline_ms.map(|n| n.to_string()),
                ),
                ("--queue-depth", options.queue_depth.map(|n| n.to_string())),
                (
                    "--max-connections",
                    options.max_connections.map(|n| n.to_string()),
                ),
                ("--cache-max", options.cache_max.map(|n| n.to_string())),
            ];
            for (flag, value) in forward {
                if let Some(value) = value {
                    config.server_args.push(flag.to_owned());
                    config.server_args.push(value);
                }
            }
            if !options.quiet {
                eprintln!(
                    "raco loadgen: replaying {} requests over {} connections ({} shapes, seed {:#x})",
                    config.requests, config.connections, config.shapes, config.seed
                );
            }
            let report = raco::loadgen::run(&config)?;
            if !options.quiet {
                let us = |ns: u64| ns as f64 / 1000.0;
                println!(
                    "requests {}  ok {}  rejected {}  transport errors {}  ({:.0} req/s)",
                    report.sent,
                    report.ok,
                    report.rejected_total(),
                    report.transport_errors,
                    report.throughput_rps()
                );
                println!(
                    "latency  p50 {:>8.1} µs  p95 {:>8.1} µs  p99 {:>8.1} µs  max {:>8.1} µs",
                    us(report.latency.quantile(0.50)),
                    us(report.latency.quantile(0.95)),
                    us(report.latency.quantile(0.99)),
                    us(report.latency.max),
                );
                println!(
                    "connect  p50 {:>8.1} µs  p99 {:>8.1} µs  (fresh connection to first reply)",
                    us(report.connect.quantile(0.50)),
                    us(report.connect.quantile(0.99)),
                );
                if let Some(rate) = report.aggregate_hit_rate() {
                    println!("cache    aggregate hit rate {rate:.3}");
                }
                println!("artifact written to {}", config.output.display());
            }
            Ok(report.transport_errors == 0)
        }
        "fuzz" => {
            let options = parse_options(args)?;
            if !options.paths.is_empty() {
                return Err("fuzz: unexpected positional arguments".to_owned());
            }
            let budget = raco::fuzz::parse_budget(options.budget.as_deref().unwrap_or("45s"))?;
            let seed = options.seed.unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0x5eed)
            });
            let binary =
                std::env::current_exe().map_err(|e| format!("fuzz: cannot locate raco: {e}"))?;
            let mut config = raco::fuzz::FuzzConfig::new(binary, budget, seed);
            if let Some(dir) = &options.failures_dir {
                config.failures_dir = dir.clone();
            }
            if let Some(max) = options.max_cases {
                config.max_cases = max;
            }
            config.transport = match options.transport.as_deref() {
                None | Some("stdio") => raco::fuzz::Transport::Stdio,
                Some("tcp") => raco::fuzz::Transport::Tcp,
                Some(other) => {
                    return Err(format!("fuzz: unknown transport `{other}` (stdio or tcp)"))
                }
            };
            if !options.quiet {
                eprintln!(
                    "raco fuzz: seed {seed:#x}, budget {:?}, transport {:?}",
                    config.budget, config.transport
                );
            }
            let outcome = raco::fuzz::run(&config).map_err(|e| format!("fuzz: {e}"))?;
            if !options.quiet {
                eprintln!("raco fuzz: {outcome}");
            }
            for failure in &outcome.failures {
                eprintln!(
                    "raco fuzz: FAILURE [{}] case {} (seed {:#x}): {}{}",
                    failure.kind,
                    failure.case,
                    failure.seed,
                    failure.detail,
                    failure
                        .repro
                        .as_deref()
                        .map(|p| format!("\n  repro: {}", p.display()))
                        .unwrap_or_default()
                );
            }
            Ok(outcome.failures.is_empty())
        }
        "bench-trajectory" => {
            let options = parse_options(args)?;
            if !options.paths.is_empty() {
                return Err("bench-trajectory: unexpected positional arguments".to_owned());
            }
            let label = options.label.as_deref().unwrap_or("local");
            let path = options
                .output
                .clone()
                .unwrap_or_else(raco_bench::trajectory::default_output_path);
            let point = raco_bench::trajectory::record(options.quick, label, &path)
                .map_err(|e| format!("bench-trajectory: {e}"))?;
            if !options.quiet {
                println!("{}", point.render());
                println!("point `{label}` appended to {}", path.display());
            }
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
