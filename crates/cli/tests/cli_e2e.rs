//! End-to-end tests of the `mdr` binary itself (spawned as a process).

use std::process::Command;

fn mdr(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mdr"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_lists_every_subcommand() {
    let (stdout, _, ok) = mdr(&["help"]);
    assert!(ok);
    for cmd in [
        "analyze",
        "recommend",
        "simulate",
        "serve",
        "bench",
        "worst-case",
        "trace",
        "multi",
    ] {
        assert!(stdout.contains(cmd), "help should mention {cmd}:\n{stdout}");
    }
    // The text is generated from the command table; the pin keeps it
    // byte-identical.
    assert_eq!(stdout, include_str!("fixtures/help.expected"));
}

#[test]
fn no_args_prints_help() {
    let (stdout, _, ok) = mdr(&[]);
    assert!(ok);
    assert!(stdout.contains("subcommands"));
}

#[test]
fn analyze_pipeline_via_process() {
    let (stdout, _, ok) = mdr(&[
        "analyze",
        "--policy",
        "SW9",
        "--model",
        "message:0.4",
        "--theta",
        "0.3",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("expected cost per request"));
    assert!(stdout.contains("-competitive"));
}

#[test]
fn simulate_via_process() {
    let (stdout, _, ok) = mdr(&[
        "simulate",
        "--policy",
        "SW3",
        "--theta",
        "0.4",
        "--requests",
        "3000",
        "--seed",
        "5",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("cost/request"));
}

#[test]
fn trace_via_process() {
    let (stdout, _, ok) = mdr(&["trace", "--policy", "SW1", "--schedule", "rw"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("delete-request-write"));
}

#[test]
fn errors_exit_nonzero_with_guidance() {
    let (_, stderr, ok) = mdr(&["analyze", "--policy", "LFU"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy"), "{stderr}");
    assert!(stderr.contains("mdr help"));

    let (_, stderr, ok) = mdr(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
}

#[test]
fn misspelled_flag_fails_before_measuring() {
    let out = Command::new(env!("CARGO_BIN_EXE_mdr"))
        .args(["bench", "--preset", "e17", "--gate-pc", "1"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("did you mean --gate-pct?"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing was measured");
}

#[test]
fn bad_values_and_ignored_flags_are_usage_errors_not_panics() {
    let dir = scratch_dir("profiles");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let profile = |name: &str, json: &str| {
        let path = dir.join(name);
        std::fs::write(&path, json).expect("profile written");
        path.display().to_string()
    };
    let unknown_object = profile("object.json", r#"{"r{25}": 1.0}"#);
    let negative_rate = profile("rate.json", r#"{"r{0}": -1.0}"#);
    let duplicate_class = profile("dup.json", r#"{"r{0}": 1.0, "r{ 0}": 2.0}"#);
    let cases: &[&[&str]] = &[
        // Switches take exactly `on` or `off`.
        &["sweep", "--preset", "e6", "--full", "yes"],
        &["sweep", "--oracle", "yes"],
        // Out-of-range θ, ω and slack.
        &["recommend", "--omega", "1.5"],
        &["recommend", "--omega", "1.5", "--theta", "0.5"],
        &["recommend", "--theta", "7"],
        &["recommend", "--slack", "-3"],
        &["recommend", "--omega", "-0.5"],
        &["simulate", "--policy", "SW3", "--omega", "2"],
        &["sweep", "--policies", "SW3", "--omegas", "2"],
        // Bad multi-object profiles.
        &["multi", "--profile", &unknown_object],
        &["multi", "--profile", &negative_rate],
        &["multi", "--profile", &duplicate_class],
        // Flags the chosen mode would ignore.
        &["sweep", "--preset", "e6", "--thetas", "0.5"],
        &["sweep", "--preset", "e6", "--seed", "3"],
        &["simulate", "--policy", "SW3", "--outage", "3"],
        &["simulate", "--policy", "SW3", "--crash-prob", "0.1"],
        &["simulate", "--policy", "SW3", "--arq-timeout", "1"],
        &["simulate", "--policy", "SW3", "--arq-deadline", "1"],
        &["simulate", "--policy", "SW3", "--mobility", "1"],
        &[
            "simulate",
            "--policy",
            "SW3",
            "--cells",
            "1",
            "--broadcast-inv",
            "on",
        ],
        &["bench", "--preset", "e17", "--tenants", "3"],
        &["bench", "--preset", "e17", "--seed", "3"],
        &["bench", "--preset", "serve", "--threads", "2"],
        &["bench", "--preset", "serve", "--replications", "2"],
        &["recommend", "--theta", "0.3", "--slack", "0.1"],
        &["sweep", "--thread", "4"],
    ];
    for argv in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_mdr"))
            .args(*argv)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{argv:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_policy_is_a_usage_error_not_an_abort() {
    let out = Command::new(env!("CARGO_BIN_EXE_mdr"))
        .args(["simulate", "--policy", "SW999999999999"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("must be at most 65535, got 999999999999"),
        "{stderr}"
    );
}

#[test]
fn recommend_matches_the_paper_guidance_via_process() {
    let (stdout, _, ok) = mdr(&["recommend", "--omega", "0.45"]);
    assert!(ok);
    assert!(
        stdout.contains("k ≥ 39"),
        "Corollary 4 quoted point:\n{stdout}"
    );
}

/// Spawns the binary with `input` piped to stdin.
fn mdr_with_stdin(args: &[&str], input: &str) -> (String, String, bool) {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mdr"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(input.as_bytes())
        .expect("stdin accepts the session");
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn serve_replays_the_pinned_fixture_session() {
    // The scripted tenant session and its byte-exact expected transcript
    // are pinned as fixtures; CI replays the same pair with a shell diff.
    let input = include_str!("fixtures/serve_session.in");
    let expected = include_str!("fixtures/serve_session.expected");
    let (stdout, stderr, ok) = mdr_with_stdin(&["serve", "--max-tenants", "4"], input);
    assert!(ok, "{stderr}");
    assert_eq!(
        stdout, expected,
        "serve wire output drifted from the pinned fixture"
    );
}

#[test]
fn durable_serve_survives_a_restart_with_identical_stats() {
    // Run 1 ends at EOF with *no* shutdown op — the daemon must still
    // flush the journal and cut a final checkpoint on its way out. Run 2
    // reopens the same --data-dir and must serve byte-identical
    // per-tenant stats. Both transcripts are pinned as fixtures.
    let dir = std::env::temp_dir().join(format!(
        "mdr-e2e-durable-{}-{}",
        std::process::id(),
        Box::leak(Box::new(0u8)) as *const u8 as usize,
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");

    let input = include_str!("fixtures/durable_session_1.in");
    let expected = include_str!("fixtures/durable_session_1.expected");
    let (stdout, stderr, ok) = mdr_with_stdin(&["serve", "--data-dir", dir_arg], input);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, expected, "first durable run drifted");
    assert!(
        stderr.contains("recovery: 0 tenant(s) recovered"),
        "{stderr}"
    );

    let input = include_str!("fixtures/durable_session_2.in");
    let expected = include_str!("fixtures/durable_session_2.expected");
    let (stdout, stderr, ok) = mdr_with_stdin(&["serve", "--data-dir", dir_arg], input);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, expected, "stats changed across the restart");
    assert!(
        stderr.contains("recovery: 2 tenant(s) recovered"),
        "{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durability_flags_require_data_dir() {
    let (_, stderr, ok) = mdr_with_stdin(&["serve", "--fsync", "always"], "");
    assert!(!ok);
    assert!(stderr.contains("--fsync requires --data-dir"), "{stderr}");

    let (_, stderr, ok) = mdr_with_stdin(&["serve", "--checkpoint-every", "8"], "");
    assert!(!ok);
    assert!(
        stderr.contains("--checkpoint-every requires --data-dir"),
        "{stderr}"
    );
}

#[test]
fn serve_stops_at_eof_without_shutdown() {
    let (stdout, _, ok) = mdr_with_stdin(
        &["serve"],
        "{\"op\":\"open\",\"tenant\":\"a\",\"policy\":\"ST2\"}\n",
    );
    assert!(ok);
    assert!(stdout.contains("\"ok\":\"open\""), "{stdout}");
}

#[test]
fn serve_budget_sheds_via_process() {
    let session = "{\"op\":\"open\",\"tenant\":\"a\"}\n\
                   {\"op\":\"decide\",\"tenant\":\"a\",\"request\":\"r\"}\n\
                   {\"op\":\"decide\",\"tenant\":\"a\",\"request\":\"r\"}\n";
    let (stdout, _, ok) = mdr_with_stdin(&["serve", "--budget", "1"], session);
    assert!(ok);
    assert!(stdout.contains("\"shed\":\"budget-exhausted\""), "{stdout}");
}

#[test]
fn bench_serve_reports_decisions_per_second() {
    let (stdout, _, ok) = mdr(&[
        "bench",
        "--preset",
        "serve",
        "--tenants",
        "2",
        "--requests",
        "200",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("bench serve/fast"), "{stdout}");
    assert!(stdout.contains("events/sec"), "{stdout}");
    assert!(stdout.contains("ledger digest: 0x"), "{stdout}");
}

#[test]
fn serve_answers_non_utf8_lines_and_keeps_serving() {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mdr"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(
            b"\xff\xfe\n{\"op\":\"open\",\"tenant\":\"a\"}\n\
              {\"op\":\"decide\",\"tenant\":\"a\",\"request\":\"r\"}\n",
        )
        .expect("stdin accepts the session");
    let out = child.wait_with_output().expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("responses are UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(
        lines[0].starts_with(r#"{"err":"bad-request","detail":"#) && lines[0].contains("UTF-8"),
        "{stdout}"
    );
    assert!(lines[1].starts_with(r#"{"ok":"open""#), "{stdout}");
    assert!(lines[2].starts_with(r#"{"ok":"decision""#), "{stdout}");
}

/// A fresh scratch data directory for one durable test run.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mdr-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `session` against a spawned `mdr serve` on a helper thread; the
/// test fails instead of hanging if the daemon holds a response back.
fn serve_with_deadline(
    args: Vec<String>,
    session: impl FnOnce(std::process::ChildStdin, std::io::BufReader<std::process::ChildStdout>)
        + Send
        + 'static,
) {
    use std::process::Stdio;
    use std::time::Duration;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mdr"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let stdin = child.stdin.take().expect("stdin is piped");
    let stdout = std::io::BufReader::new(child.stdout.take().expect("stdout is piped"));
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        session(stdin, stdout);
        let _ = done.send(());
    });
    if finished.recv_timeout(Duration::from_secs(30)).is_err() {
        // Unblock the session thread's read, then report the hang (or
        // the panic that ended the thread early).
        let _ = child.kill();
        let _ = worker.join();
        panic!("mdr serve {args:?} held a response back");
    }
    worker.join().expect("session thread");
    assert!(child.wait().expect("daemon exits").success());
}

/// Writes one line and reads its response before anything else is sent.
fn round_trip(
    stdin: &mut std::process::ChildStdin,
    stdout: &mut std::io::BufReader<std::process::ChildStdout>,
    line: &str,
) -> String {
    use std::io::{BufRead as _, Write as _};
    writeln!(stdin, "{line}").expect("daemon reads");
    stdin.flush().expect("daemon reads");
    let mut response = String::new();
    stdout.read_line(&mut response).expect("daemon answers");
    response
}

#[test]
fn serve_answers_an_interactive_client_line_by_line() {
    use std::io::Read as _;
    for durable in [false, true] {
        let dir = scratch_dir("interactive");
        let mut args = vec!["serve".to_owned()];
        if durable {
            args.extend(["--data-dir".to_owned(), dir.display().to_string()]);
        }
        // Each response is read before the next request is written; the
        // session ends with `shutdown`, whose answer must also arrive.
        serve_with_deadline(args.clone(), |mut stdin, mut stdout| {
            let (stdin, stdout) = (&mut stdin, &mut stdout);
            let open = round_trip(
                stdin,
                stdout,
                r#"{"op":"open","tenant":"a","policy":"SW1"}"#,
            );
            assert!(open.starts_with(r#"{"ok":"open""#), "{open}");
            for (i, letter) in "rwrr".chars().enumerate() {
                let line = format!(r#"{{"op":"decide","tenant":"a","request":"{letter}"}}"#);
                let decided = round_trip(stdin, stdout, &line);
                let seq = format!(r#""seq":{},"#, i + 1);
                assert!(decided.contains(&seq), "{decided}");
            }
            let stats = round_trip(stdin, stdout, r#"{"op":"stats","tenant":"a"}"#);
            assert!(stats.contains(r#""decided":4"#), "{stats}");
            let shutdown = round_trip(stdin, stdout, r#"{"op":"shutdown"}"#);
            assert!(shutdown.ends_with("\n"), "{shutdown}");
            assert!(shutdown.starts_with(r#"{"ok":"shutdown""#), "{shutdown}");
            let mut rest = String::new();
            stdout.read_to_string(&mut rest).expect("daemon exits");
            assert_eq!(rest, "", "nothing follows the shutdown response");
        });
        // A pipelined session that ends at EOF gets every response.
        let _ = std::fs::remove_dir_all(&dir);
        serve_with_deadline(args, |mut stdin, mut stdout| {
            use std::io::Write as _;
            let mut session = String::from("{\"op\":\"open\",\"tenant\":\"b\"}\n");
            for _ in 0..500 {
                session.push_str("{\"op\":\"decide\",\"tenant\":\"b\",\"request\":\"w\"}\n");
            }
            session.push_str("{\"op\":\"stats\"}");
            stdin.write_all(session.as_bytes()).expect("daemon reads");
            drop(stdin);
            let mut out = String::new();
            stdout
                .read_to_string(&mut out)
                .expect("daemon exits at EOF");
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 502, "{out}");
            assert!(lines[500].contains(r#""seq":500,"#), "{}", lines[500]);
            assert!(lines[501].contains(r#""decisions":500"#), "{}", lines[501]);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn serve_answers_an_over_long_line_once_and_keeps_serving() {
    // 2 MiB with no newline until the end: over the daemon's line cap.
    let long = "x".repeat(2 << 20);
    let session = format!("{long}\n{{\"op\":\"open\",\"tenant\":\"a\"}}\n{long}");
    for durable in [false, true] {
        let dir = scratch_dir("long-line");
        let dir_arg = dir.display().to_string();
        let mut args = vec!["serve"];
        if durable {
            args.extend(["--data-dir", &dir_arg]);
        }
        let (stdout, stderr, ok) = mdr_with_stdin(&args, &session);
        assert!(ok, "{stderr}");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 3, "{stdout}");
        for i in [0, 2] {
            assert!(
                lines[i].starts_with(r#"{"err":"bad-request""#) && lines[i].contains("longer than"),
                "{stdout}"
            );
        }
        assert!(lines[1].starts_with(r#"{"ok":"open""#), "{stdout}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
