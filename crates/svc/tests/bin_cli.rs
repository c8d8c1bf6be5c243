//! Black-box tests of the `multival` binary (spawned as a subprocess).

use std::process::Command;

fn multival(args: &[&str]) -> (String, String, bool) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_multival")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_model(name: &str, source: &str) -> String {
    let dir = std::env::temp_dir().join("multival-bin-cli");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    std::fs::write(&path, source).expect("write");
    path.to_string_lossy().into_owned()
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = multival(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("explore"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = multival(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn explore_check_pipeline() {
    let model = write_model("flip.lot", "behaviour hide m in (a; m; stop |[m]| m; b; stop)");
    let (stdout, _, ok) = multival(&["explore", &model]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("states: 4"), "{stdout}");

    let (stdout, _, ok) = multival(&["check", &model, "mu X. <\"b\"> true or <true> X"]);
    assert!(ok);
    assert!(stdout.starts_with("TRUE"), "{stdout}");

    let (stdout, _, ok) = multival(&["check", &model, "<\"b\"> true"]);
    assert!(ok);
    assert!(stdout.starts_with("FALSE"), "b is not initially enabled: {stdout}");
}

#[test]
fn on_the_fly_pipeline() {
    let model = write_model("fly.lot", "behaviour hide m in (a; m; stop |[m]| m; b; stop)");

    // explore --on-the-fly: visited counts, nothing materialized.
    let (stdout, _, ok) = multival(&["explore", &model, "--on-the-fly"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("visited states       4"), "{stdout}");
    assert!(stdout.contains("materialized states  0"), "{stdout}");
    assert!(stdout.contains("deadlock states: 1"), "{stdout}");

    // check --on-the-fly: in-fragment formulas are decided by the search.
    let (stdout, _, ok) =
        multival(&["check", &model, "mu X. <\"b\"> true or <true> X", "--on-the-fly"]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with("TRUE"), "{stdout}");
    assert!(stdout.contains("witness trace:"), "{stdout}");
    assert!(stdout.contains("materialized states  0"), "{stdout}");

    // Out-of-fragment formulas fall back to the eager evaluator.
    let (stdout, _, ok) = multival(&["check", &model, "<\"a\"> true", "--on-the-fly"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("outside the on-the-fly fragment"), "{stdout}");
    assert!(stdout.contains("TRUE"), "{stdout}");

    // compare --eq traces --on-the-fly: τ-abstracted trace equality holds
    // between the hidden handshake and the plain sequence.
    let plain = write_model("fly-plain.lot", "behaviour a; b; stop");
    let (stdout, _, ok) = multival(&["compare", &model, &plain, "--eq", "traces", "--on-the-fly"]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with("EQUIVALENT"), "{stdout}");

    let other = write_model("fly-other.lot", "behaviour a; c; stop");
    let (stdout, _, ok) = multival(&["compare", &plain, &other, "--eq", "traces", "--on-the-fly"]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with("NOT EQUIVALENT"), "{stdout}");
    assert!(stdout.contains("distinguishing trace:"), "{stdout}");

    // The flag refuses combinations that need a materialized LTS.
    let (_, stderr, ok) = multival(&["compare", &model, &plain, "--on-the-fly"]);
    assert!(!ok);
    assert!(stderr.contains("traces only"), "{stderr}");
    let (_, stderr, ok) = multival(&["explore", &model, "--on-the-fly", "--aut", "out.aut"]);
    assert!(!ok);
    assert!(stderr.contains("materializes no LTS"), "{stderr}");
}

#[test]
fn parse_error_is_reported_on_stderr() {
    let model = write_model("broken.lot", "behaviour a;;; stop");
    let (_, stderr, ok) = multival(&["explore", &model]);
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn solve_reports_throughput() {
    let model = write_model(
        "buf.lot",
        "process Buf[put, get](full: bool) :=
             [not full] -> put; Buf[put, get](true)
          [] [full] -> get; Buf[put, get](false)
         endproc
         behaviour Buf[put, get](false)",
    );
    let (stdout, _, ok) =
        multival(&["solve", &model, "--rate", "put=2", "--rate", "get=1", "--probe", "get"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("0.6667"), "{stdout}");
}

/// Like [`multival`], but returns the numeric exit code.
fn multival_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_multival")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn budget_flags_yield_exit_code_3() {
    let model = write_model(
        "budget.lot",
        "process Count[tick](n: int 0..40) :=
             [n < 40] -> tick; Count[tick](n + 1)
         endproc
         behaviour Count[tick](0) ||| Count[tick](0)",
    );
    // A tripped state cap reports the partial space and exits 3.
    let (stdout, _, code) = multival_code(&["explore", &model, "--max-states", "10"]);
    assert_eq!(code, Some(3), "{stdout}");
    assert!(stdout.contains("Budget exceeded"), "{stdout}");
    assert!(stdout.contains("states: 10"), "partial space still reported: {stdout}");

    // A verdict on a partial space would be unsound: no verdict, exit 3.
    let (stdout, _, code) =
        multival_code(&["check", &model, "mu X. <true> true or <true> X", "--max-states", "10"]);
    assert_eq!(code, Some(3), "{stdout}");
    assert!(stdout.contains("NO VERDICT"), "{stdout}");

    // An immediate wall-clock deadline trips too.
    let (stdout, _, code) = multival_code(&["explore", &model, "--timeout-secs", "0"]);
    assert_eq!(code, Some(3), "{stdout}");

    // Within budget everything is exit 0, byte-for-byte as before.
    let (stdout, _, code) = multival_code(&["explore", &model]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("states: 1681"), "{stdout}");
}

/// A 2-line `.aut` declaring two billion states is refused against the
/// state budget before anything is allocated: a clean nonzero exit, not
/// an allocation abort (exit 134).
#[test]
fn hostile_aut_header_exits_cleanly() {
    let path = write_model("hostile.aut", "des (0, 1, 2000000000)\n(0, \"a\", 0)\n");
    let (_, stderr, code) = multival_code(&["explore", &path]);
    let code = code.expect("exits with a code, not a signal");
    assert!(code != 0 && code != 134, "exit {code}: {stderr}");
    assert!(stderr.contains("Budget exceeded"), "{stderr}");
}

/// The committed 37-byte `.blts` declares four billion states and a
/// degree column of 40 GB compressed into one byte, under a valid
/// checksum. It is refused against the state budget, and with the budget
/// raised past the header, by the decompressor's expansion bound: a clean
/// nonzero exit either way, never an allocation abort (exit 134).
#[test]
fn hostile_blts_header_exits_cleanly() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/hostile_header.blts");
    let path = path.to_str().expect("utf-8 path");
    assert_eq!(std::fs::metadata(path).expect("committed fixture").len(), 37);
    for cap in ["1000000", "4000000000"] {
        let (_, stderr, code) = multival_code(&["explore", path, "--max-states", cap]);
        let code = code.expect("exits with a code, not a signal");
        assert!(code != 0 && code != 134, "cap {cap}: exit {code}: {stderr}");
    }
    let (_, stderr, _) = multival_code(&["explore", path]);
    assert!(stderr.contains("Budget exceeded"), "{stderr}");
}

/// A timeout too long for the clock to represent means no deadline: the
/// run completes, it does not panic on the overflowing instant.
#[test]
fn unrepresentable_timeout_runs_without_a_deadline() {
    let model = write_model("forever.lot", "behaviour hide m in (a; m; stop |[m]| m; b; stop)");
    let forever = u64::MAX.to_string();
    let (stdout, stderr, code) = multival_code(&["explore", &model, "--timeout-secs", &forever]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("states: 4"), "{stdout}");
    let deadlock_free = "nu X. <true> true and [true] X";
    let (stdout, stderr, code) =
        multival_code(&["check", &model, deadlock_free, "--timeout-secs", &forever]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.starts_with("FALSE"), "{stdout}");
}

/// One nesting level over the parsers' caps is a parse error (exit 1) on
/// every verb that parses, never a stack-overflow abort (exit 134).
#[test]
fn inputs_nested_past_the_cap_are_parse_errors() {
    let over = multival_pa::parser::MAX_DEPTH + 1;
    let prefixes = write_model(
        "deep_prefixes.lot",
        &format!("process P[a] := {}stop endproc behaviour P[a]", "a; ".repeat(over)),
    );
    let parens = write_model(
        "deep_parens.lot",
        &format!("behaviour {}a; stop{}", "(".repeat(over), ")".repeat(over)),
    );
    for model in [&prefixes, &parens] {
        for verb in ["explore", "lint"] {
            let (_, stderr, code) = multival_code(&[verb, model]);
            assert_eq!(code, Some(1), "{verb} {model}: {stderr}");
            assert!(stderr.contains("nesting deeper than"), "{verb} {model}: {stderr}");
        }
    }
    let model = write_model("shallow.lot", "behaviour a; stop");
    let formula = format!("{}true", "not ".repeat(multival::mcl::parser::MAX_DEPTH + 1));
    let (_, stderr, code) = multival_code(&["check", &model, &formula]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}

/// A memory budget alone sends `explore` and `reduce` through the
/// spilling store; the LTS written is byte-identical to the unbudgeted
/// run's.
#[test]
fn mem_budget_alone_selects_the_spill_store() {
    // Two interleaved 64-value counters: a 4,096-state product whose packed
    // keys fill several 4 KiB spill segments.
    let model = write_model(
        "rings.lot",
        "process A[a](n: int 0..63) := a !n; A[a]((n + 1) mod 64) endproc
         process B[b](n: int 0..63) := b !n; B[b]((n + 1) mod 64) endproc
         behaviour A[a](0) ||| B[b](0)",
    );
    for verb in ["explore", "reduce"] {
        let plain = write_model(&format!("rings_{verb}.aut"), "");
        let spilled = write_model(&format!("rings_{verb}_spilled.aut"), "");
        let (stdout, stderr, code) = multival_code(&[verb, &model, "--aut", &plain]);
        assert_eq!(code, Some(0), "{stdout}{stderr}");
        assert!(!stdout.contains("store"), "{verb}: no budget, no store report: {stdout}");
        let (stdout, stderr, code) =
            multival_code(&[verb, &model, "--mem-budget", "1", "--aut", &spilled]);
        assert_eq!(code, Some(0), "{stdout}{stderr}");
        assert!(stdout.contains("store spill:"), "{verb}: {stdout}");
        assert!(stdout.contains(" segments"), "{verb}: nothing spilled: {stdout}");
        let read = |p: &str| std::fs::read_to_string(p).expect("written");
        assert_eq!(read(&plain), read(&spilled), "{verb}: the budget changed the LTS");
    }
}

#[test]
fn simulate_exits_2_when_stopping_rule_unmet() {
    let model = write_model(
        "sim-exit.lot",
        "process Buf[put, get](full: bool) :=
             [not full] -> put; Buf[put, get](true)
          [] [full] -> get; Buf[put, get](false)
         endproc
         behaviour Buf[put, get](false)",
    );
    // 16 trajectories cannot reach a 0.01% relative CI width.
    let (stdout, _, code) = multival_code(&[
        "simulate",
        &model,
        "--rate",
        "put=2",
        "--rate",
        "get=3",
        "--trajectories",
        "16",
        "--rel-width",
        "0.0001",
    ]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.contains("stopping rule was not met"), "{stdout}");

    // The default width converges easily and exits clean.
    let (stdout, _, code) =
        multival_code(&["simulate", &model, "--rate", "put=2", "--rate", "get=3"]);
    assert_eq!(code, Some(0), "{stdout}");
}

#[test]
fn serve_smoke_sigterm_drains() {
    use std::io::{BufRead, BufReader, Read as _, Write as _};

    let mut child = Command::new(env!("CARGO_BIN_EXE_multival"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr: std::net::SocketAddr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    let exchange = |method: &str, path: &str, body: &str| -> String {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        raw
    };

    assert!(exchange("GET", "/v1/healthz", "").contains("\"status\":\"ok\""));
    let posted = exchange(
        "POST",
        "/v1/jobs",
        r#"{"kind":"explore","model":{"builtin":"xstream_pipeline"}}"#,
    );
    assert!(posted.contains("\"id\":1"), "{posted}");

    // SIGTERM while the job may still be in flight: the drain must finish
    // it and the final report must land on stdout before a clean exit.
    let _ =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "graceful shutdown exits 0: {status:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain report");
    assert!(rest.contains("jobs accepted"), "{rest}");
    assert!(rest.contains("jobs done"), "{rest}");
}

#[test]
fn lint_flags_blocked_gate() {
    let model = write_model("blocked.lot", "behaviour (a; stop) |[a, b]| (a; stop)");
    let (stdout, _, ok) = multival(&["lint", &model]);
    assert!(ok);
    assert!(stdout.contains("blocks forever"), "{stdout}");
}
