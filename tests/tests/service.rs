//! End-to-end tests of the evaluation service: a real `TcpListener` on an
//! ephemeral port, concurrent raw-socket clients, cache verification via
//! `/v1/metrics`, byte-identical determinism across server configurations,
//! and graceful drain.

use multival_svc::json::{parse, Json};
use multival_svc::server::{serve, ServeStats, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_cap: 256,
        cache_capacity: 64,
        cache_dir: None,
        mc_workers: 1,
        event_threads: 2,
        journal_dir: None,
        read_deadline: Duration::from_secs(10),
    }
}

/// One blocking HTTP exchange over a fresh connection, returning the raw
/// response text (status line, headers, body).
fn http_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: svc\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// One blocking HTTP exchange over a fresh connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = http_raw(addr, method, path, body);
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {raw}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

/// Reads one numeric counter out of a parsed `/v1/metrics` body.
fn metric(metrics: &Json, section: &str, name: &str) -> f64 {
    metrics
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("metrics field {section}.{name} missing"))
}

/// Submits a job, asserting acceptance; returns its id.
fn submit_job(addr: SocketAddr, request: &str) -> u64 {
    let (status, body) = http(addr, "POST", "/v1/jobs", request);
    assert!(status == 200 || status == 202, "submit failed: {status} {body}");
    parse(&body)
        .expect("submit response is JSON")
        .get("id")
        .and_then(Json::as_num)
        .expect("submit response has id") as u64
}

/// Polls one job until it reaches a terminal state, returning the final
/// `GET /v1/jobs/{id}` body.
fn poll_job(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let state = parse(&body)
            .expect("status body is JSON")
            .get("status")
            .and_then(|s| s.as_str().map(str::to_owned))
            .expect("status field");
        match state.as_str() {
            "done" | "failed" => return body,
            _ if Instant::now() > deadline => panic!("job {id} stuck in `{state}`"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Submits a job and polls it to completion, returning the final
/// `GET /v1/jobs/{id}` body.
fn run_job(addr: SocketAddr, request: &str) -> String {
    let id = submit_job(addr, request);
    poll_job(addr, id)
}

/// Polls until the job reports `running` (or panics after the deadline).
fn wait_running(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        if body.contains("\"status\":\"running\"") {
            return;
        }
        assert!(
            body.contains("\"status\":\"queued\""),
            "job {id} terminated before it was seen running: {body}"
        );
        assert!(Instant::now() < deadline, "job {id} never started running: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

const EXPLORE: &str = r#"{"kind":"explore","model":{"builtin":"xstream_pipeline"}}"#;
const CHECK: &str = r#"{"kind":"check","model":{"builtin":"faust_single_packet"},"formula":"mu X. <true> true or <true> X"}"#;
const SIMULATE: &str = r#"{"kind":"simulate","model":{"builtin":"xstream_pipeline"},"rates":{"push":1,"xfer":4,"pop":2,"credit":8},"horizon":20,"trajectories":256}"#;

#[test]
fn concurrent_clients_zero_drops_and_cache_hits() {
    let handle = serve(&config()).expect("server starts");
    let addr = handle.addr();

    let (status, body) = http(addr, "GET", "/v1/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

    // Twelve concurrent clients, each running one of the three case-study
    // jobs twice: 24 jobs, 8 distinct-first submissions at most — the rest
    // must be answered from the cache.
    let requests = [EXPLORE, CHECK, SIMULATE];
    let bodies: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                scope.spawn(move || {
                    let req = requests[i % requests.len()];
                    (i % requests.len(), run_job(addr, req), run_job(addr, req))
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                let (kind, a, b) = h.join().expect("client thread");
                [(kind, a), (kind, b)]
            })
            .collect()
    });

    // Every job finished (zero drops), and all bodies of the same request
    // are byte-identical whether computed or cached.
    assert_eq!(bodies.len(), 24);
    for kind in 0..requests.len() {
        let of_kind: Vec<&str> =
            bodies.iter().filter(|(k, _)| *k == kind).map(|(_, b)| b.as_str()).collect();
        assert_eq!(of_kind.len(), 8);
        assert!(
            of_kind.iter().all(|b| *b == of_kind[0]),
            "bodies diverge for request {kind}: {of_kind:?}"
        );
        assert!(of_kind[0].contains("\"status\":\"done\""), "{}", of_kind[0]);
    }

    // The metrics endpoint must show the resubmissions as cache hits.
    let (status, body) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let metrics = parse(&body).expect("metrics JSON");
    let jobs = metrics.get("jobs").expect("jobs section");
    let done = jobs.get("done").and_then(Json::as_num).expect("done");
    let rejected = jobs.get("rejected").and_then(Json::as_num).expect("rejected");
    assert_eq!(done, 24.0, "{body}");
    assert_eq!(rejected, 0.0, "{body}");
    // Identical jobs submitted concurrently coalesce behind one in-flight
    // evaluation; every client's *second* submission runs after its first
    // finished and is served from the cache (or coalesces behind a twin
    // that is still running). Either way nothing evaluates twice: at most
    // one evaluation per distinct request.
    let hits = metric(&metrics, "cache", "mem_hits");
    let coalesced = metric(&metrics, "jobs", "coalesced");
    assert!(hits + coalesced >= 12.0, "resubmissions must be cache-served or coalesced: {body}");
    let evaluated = metric(&metrics, "jobs", "evaluated");
    assert!(evaluated <= 3.0, "at most one evaluation per distinct request: {body}");

    let stats: ServeStats = handle.shutdown_and_drain();
    assert_eq!(stats.accepted, 24);
    assert_eq!(stats.done, 24);
    assert_eq!(stats.failed, 0);
}

#[test]
fn reduce_jobs_are_cached_and_byte_identical() {
    let handle = serve(&config()).expect("server starts");
    let addr = handle.addr();

    let chain = "process Gen[a, m] := a; m; Gen[a, m] endproc
         process Buf[m, n] := m; n; Buf[m, n] endproc
         process Sink[n, b] := n; b; Sink[n, b] endproc
         behaviour hide m, n in ( Gen[a, m] |[m]| ( Buf[m, n] |[n]| Sink[n, b] ) )";
    let request =
        format!(r#"{{"kind":"reduce","model":{{"source":{src}}}}}"#, src = Json::str(chain));

    let first = run_job(addr, &request);
    assert!(first.contains("\"status\":\"done\""), "{first}");
    assert!(first.contains("\"peak_states\":"), "{first}");
    assert!(first.contains("\"stages\":"), "{first}");

    // The same request again must be answered from the cache, byte for
    // byte.
    let second = run_job(addr, &request);
    assert_eq!(first, second, "cached reduce body must be byte-identical");
    let (status, body) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let metrics = parse(&body).expect("metrics JSON");
    let hits = metrics
        .get("cache")
        .and_then(|c| c.get("mem_hits"))
        .and_then(Json::as_num)
        .expect("mem_hits");
    assert!(hits >= 1.0, "second submission must hit the cache: {body}");

    let _ = handle.shutdown_and_drain();
}

#[test]
fn responses_are_byte_identical_across_configurations() {
    // Same requests against servers with different worker counts,
    // Monte-Carlo pool sizes, and event-thread counts: the bodies must
    // match byte for byte.
    let reference = {
        let handle = serve(&ServerConfig { event_threads: 1, ..config() }).expect("server starts");
        let bodies: Vec<String> =
            [EXPLORE, CHECK, SIMULATE].iter().map(|r| run_job(handle.addr(), r)).collect();
        let _ = handle.shutdown_and_drain();
        bodies
    };
    let other_config =
        ServerConfig { workers: 4, mc_workers: 4, cache_capacity: 1, event_threads: 8, ..config() };
    let handle = serve(&other_config).expect("server starts");
    for (i, request) in [EXPLORE, CHECK, SIMULATE].iter().enumerate() {
        let body = run_job(handle.addr(), request);
        assert_eq!(body, reference[i], "request {i} diverged across configurations");
    }
    let _ = handle.shutdown_and_drain();
}

#[test]
fn error_paths_map_to_http_statuses() {
    let handle = serve(&config()).expect("server starts");
    let addr = handle.addr();

    let (status, body) = http(addr, "POST", "/v1/jobs", "{not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = http(addr, "POST", "/v1/jobs", r#"{"kind":"explore"}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("model"), "{body}");
    let (status, _) = http(addr, "GET", "/v1/jobs/424242", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "PUT", "/v1/jobs/1", "");
    assert_eq!(status, 405);

    // A job that fails (unparsable model) reports `failed`, not a hang.
    let body = run_job(addr, r#"{"kind":"explore","model":{"source":"behaviour ;;;"}}"#);
    assert!(body.contains("\"status\":\"failed\""), "{body}");

    // An uploaded `.aut` model works end to end.
    let body = run_job(
        addr,
        r#"{"kind":"explore","model":{"aut":"des (0, 2, 2)\n(0, \"a\", 1)\n(1, \"b\", 0)\n"}}"#,
    );
    assert!(body.contains("\"states\":2"), "{body}");

    let _ = handle.shutdown_and_drain();
}

/// A 2-line `.aut` whose header declares two billion states must fail its
/// job against the state budget before anything is allocated for it, and
/// leave the server answering.
#[test]
fn hostile_aut_header_fails_the_job_and_the_server_stays_up() {
    let handle = serve(&config()).expect("server starts");
    let addr = handle.addr();
    let body = run_job(
        addr,
        r#"{"kind":"explore","model":{"aut":"des (0, 1, 2000000000)\n(0, \"a\", 0)\n"}}"#,
    );
    assert!(body.contains("\"status\":\"failed\""), "{body}");
    assert!(body.contains("Budget exceeded"), "{body}");
    let (status, health) = http(addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    let _ = handle.shutdown_and_drain();
}

/// A source nesting 5,000 prefixes, one nesting 150 long `[]` chains each
/// in the first operand of the next, and a formula nesting 30,000 `not`s
/// fail their jobs as parse errors; the worker survives them and the
/// server keeps answering.
#[test]
fn deep_sources_and_formulas_fail_the_job_and_the_server_stays_up() {
    let handle = serve(&config()).expect("server starts");
    let addr = handle.addr();
    let explore = |source: String| {
        format!(r#"{{"kind":"explore","model":{{"source":{}}}}}"#, Json::str(source))
    };
    let prefixes = format!("process P[a] := {}stop endproc behaviour P[a]", "a; ".repeat(5_000));
    let chains = format!(
        "behaviour {}a; stop{}",
        "(".repeat(150),
        format!("{})", " [] a; stop".repeat(150)).repeat(150)
    );
    let deep_formula = format!("{}true", "not ".repeat(30_000));
    let check = format!(
        r#"{{"kind":"check","model":{{"builtin":"faust_single_packet"}},"formula":{}}}"#,
        Json::str(deep_formula)
    );
    for request in [explore(prefixes), explore(chains), check] {
        let body = run_job(addr, &request);
        assert!(body.contains("\"status\":\"failed\""), "{body}");
        assert!(body.contains("nesting deeper than"), "{body}");
        let (status, health) = http(addr, "GET", "/v1/healthz", "");
        assert_eq!(status, 200, "{health}");
    }
    let _ = handle.shutdown_and_drain();
}

/// A reduce job carrying only `mem_budget` runs its stage products in the
/// spilling store, reports the store, and reduces to the same LTS.
#[test]
fn reduce_job_with_a_memory_budget_spills() {
    let handle = serve(&config()).expect("server starts");
    let addr = handle.addr();
    // Two interleaved 64-value counters: a 4,096-state stage product whose
    // packed keys fill several 4 KiB spill segments.
    let rings = "process A[a](n: int 0..63) := a !n; A[a]((n + 1) mod 64) endproc
         process B[b](n: int 0..63) := b !n; B[b]((n + 1) mod 64) endproc
         behaviour A[a](0) ||| B[b](0)";
    let request = |extra: &str| {
        format!(r#"{{"kind":"reduce","model":{{"source":{}}}{extra}}}"#, Json::str(rings))
    };
    let result =
        |body: String| parse(&body).expect("job JSON").get("result").cloned().expect("done");
    let plain = result(run_job(addr, &request("")));
    let spilled = result(run_job(addr, &request(r#","mem_budget":1"#)));
    let store = spilled.get("store").expect("a budgeted job reports its store");
    let segments = store.get("spilled_segments").and_then(Json::as_num).expect("segments");
    assert!(segments >= 1.0, "{spilled}");
    assert!(plain.get("store").is_none(), "{plain}");
    for field in ["states", "transitions", "peak_states", "order", "stages"] {
        assert_eq!(plain.get(field), spilled.get(field), "{field}");
    }
    let _ = handle.shutdown_and_drain();
}

#[test]
fn shutdown_drains_accepted_jobs() {
    let handle = serve(&ServerConfig { workers: 1, ..config() }).expect("server starts");
    let addr = handle.addr();
    // Queue several jobs on a single worker and shut down immediately:
    // drain must finish them all.
    let mut accepted = 0usize;
    for seed in 0..5 {
        let (status, _) = http(
            addr,
            "POST",
            "/v1/jobs",
            &format!(
                r#"{{"kind":"explore","model":{{"builtin":"xstream_pipeline"}},"seed":{seed}}}"#
            ),
        );
        if status == 200 || status == 202 {
            accepted += 1;
        }
    }
    assert_eq!(accepted, 5, "queue_cap 256 must accept all five");
    let stats = handle.shutdown_and_drain();
    assert_eq!(stats.accepted, 5);
    assert_eq!(stats.done, 5, "drain must finish every accepted job");
    assert_eq!(stats.failed, 0);
}

/// A deliberately slow, distinct job that pins one worker for over a
/// second: five interleaved bounded queues explore 9^5 = 59049 states
/// (a simulate job is no good here — the confidence-interval stopping
/// rule converges within a few batches regardless of the trajectory cap).
fn blocker_request(seed: u64) -> String {
    let source = "process Queue[enq, deq](n: int 0..8, c: int 1..8) := \
                  [n < c] -> enq; Queue[enq, deq](n + 1, c) \
                  [] [n > 0] -> deq; Queue[enq, deq](n - 1, c) endproc \
                  behaviour Queue[a, b](0, 8) ||| Queue[c, d](0, 8) ||| Queue[e, f](0, 8) \
                  ||| Queue[g, h](0, 8) ||| Queue[i, j](0, 8)";
    format!(r#"{{"kind":"explore","model":{{"source":"{source}"}},"seed":{seed}}}"#)
}

#[test]
fn concurrent_identical_submissions_coalesce_into_one_evaluation() {
    let handle = serve(&ServerConfig { workers: 1, ..config() }).expect("server starts");
    let addr = handle.addr();
    // Pin the single worker, so the eight identical submissions below all
    // land while their twin evaluation cannot have finished.
    let blocker = submit_job(addr, &blocker_request(99));
    wait_running(addr, blocker);

    let ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..8).map(|_| scope.spawn(move || submit_job(addr, EXPLORE))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let bodies: Vec<String> = ids.iter().map(|&id| poll_job(addr, id)).collect();
    assert!(bodies.iter().all(|b| b.contains("\"status\":\"done\"")), "{bodies:?}");
    assert!(bodies.iter().all(|b| *b == bodies[0]), "identical bodies: {bodies:?}");

    let (_, body) = http(addr, "GET", "/v1/metrics", "");
    let metrics = parse(&body).expect("metrics JSON");
    assert_eq!(metric(&metrics, "jobs", "coalesced"), 7.0, "{body}");
    assert_eq!(
        metric(&metrics, "jobs", "evaluated"),
        2.0,
        "blocker + exactly one shared evaluation: {body}"
    );

    let _ = poll_job(addr, blocker);
    let stats = handle.shutdown_and_drain();
    assert_eq!(stats.coalesced, 7);
    assert_eq!(stats.done, 9);
}

#[test]
fn slowloris_and_oversized_requests_are_rejected() {
    let handle = serve(&ServerConfig { read_deadline: Duration::from_millis(300), ..config() })
        .expect("server starts");
    let addr = handle.addr();

    // A stalled client (headers promise a body that never comes) gets 408
    // within the read deadline instead of holding a connection slot.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    write!(stalled, "POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\n").expect("write");
    let mut raw = String::new();
    stalled.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 408 "), "{raw}");

    // A body larger than the hard cap is refused as soon as the header
    // arrives, without reading the body.
    let mut big = TcpStream::connect(addr).expect("connect");
    big.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    write!(big, "POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").expect("write");
    let mut raw = String::new();
    big.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 413 "), "{raw}");

    // The event loop kept its slots: a healthy request still round-trips.
    let (status, body) = http(addr, "GET", "/v1/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
    let _ = handle.shutdown_and_drain();
}

#[test]
fn backpressure_answers_429_with_retry_after() {
    let handle =
        serve(&ServerConfig { workers: 1, queue_cap: 1, ..config() }).expect("server starts");
    let addr = handle.addr();
    // Distinct slow jobs (varying seeds defeat both the cache and
    // coalescing) flood a queue of one: a rejection must surface quickly.
    let mut rejection = None;
    for seed in 0..32u64 {
        let raw = http_raw(addr, "POST", "/v1/jobs", &blocker_request(seed));
        if raw.starts_with("HTTP/1.1 429 ") {
            rejection = Some(raw);
            break;
        }
    }
    let raw = rejection.expect("a bounded queue of 1 must reject under a flood");
    assert!(raw.contains("Retry-After: 1\r\n"), "429 carries Retry-After: {raw}");
    assert!(raw.contains("\"error\""), "structured error body: {raw}");
    assert!(raw.contains("\"retry_after_secs\""), "structured error body: {raw}");

    let (_, body) = http(addr, "GET", "/v1/metrics", "");
    let metrics = parse(&body).expect("metrics JSON");
    assert!(metric(&metrics, "jobs", "rejected_queue_full") >= 1.0, "{body}");
    assert_eq!(
        metric(&metrics, "jobs", "rejected"),
        metric(&metrics, "jobs", "rejected_queue_full")
            + metric(&metrics, "jobs", "rejected_shutdown"),
        "{body}"
    );
    let _ = handle.shutdown_and_drain();
}

#[test]
fn cancel_races_mid_evaluation_and_coalesced() {
    let handle = serve(&ServerConfig { workers: 1, ..config() }).expect("server starts");
    let addr = handle.addr();

    // DELETE while the job is mid-evaluation: not cancellable, and the
    // evaluation still runs to a complete (never partial) result.
    let running = submit_job(addr, &blocker_request(41));
    wait_running(addr, running);
    let (status, body) = http(addr, "DELETE", &format!("/v1/jobs/{running}"), "");
    assert_eq!(status, 200);
    assert!(body.contains("\"cancelled\":false"), "{body}");
    let body = poll_job(addr, running);
    assert!(body.contains("\"status\":\"done\""), "{body}");
    assert!(body.contains("\"result\":"), "complete result, never partial: {body}");

    // DELETE a coalesced follower: only that follower detaches; the shared
    // evaluation completes for the primary and the remaining follower.
    let blocker = submit_job(addr, &blocker_request(42));
    wait_running(addr, blocker);
    let primary = submit_job(addr, EXPLORE);
    let follower = submit_job(addr, EXPLORE);
    let keeper = submit_job(addr, EXPLORE);
    let (status, body) = http(addr, "DELETE", &format!("/v1/jobs/{follower}"), "");
    assert_eq!(status, 200);
    assert!(body.contains("\"cancelled\":true"), "{body}");
    let a = poll_job(addr, primary);
    let b = poll_job(addr, keeper);
    assert!(a.contains("\"status\":\"done\""), "{a}");
    assert_eq!(a, b, "survivors share one byte-identical result");
    let (status, body) = http(addr, "GET", &format!("/v1/jobs/{follower}"), "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"cancelled\""), "{body}");
    assert!(!body.contains("\"result\""), "a cancelled follower never gets a result: {body}");

    let _ = poll_job(addr, blocker);
    let _ = handle.shutdown_and_drain();
}

#[test]
fn journal_restart_serves_previous_results() {
    let dir = std::env::temp_dir().join("multival-svc-e2e-journal");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..config() };

    let (id, first_body) = {
        let handle = serve(&cfg).expect("server starts");
        let id = submit_job(handle.addr(), EXPLORE);
        let body = poll_job(handle.addr(), id);
        assert!(body.contains("\"status\":\"done\""), "{body}");
        let _ = handle.shutdown_and_drain();
        (id, body)
    };

    // A fresh process over the same journal dir serves the same job id
    // with a byte-identical body, without re-evaluating anything.
    let handle = serve(&cfg).expect("server restarts over the journal");
    let addr = handle.addr();
    let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200);
    assert_eq!(body, first_body, "byte-identical across the restart");

    let (_, body) = http(addr, "GET", "/v1/metrics", "");
    let metrics = parse(&body).expect("metrics JSON");
    assert!(metric(&metrics, "jobs", "recovered") >= 1.0, "{body}");
    assert_eq!(metric(&metrics, "jobs", "evaluated"), 0.0, "nothing re-evaluates: {body}");
    assert!(metrics.get("journal").is_some(), "journal section present: {body}");

    // New submissions keep working and ids continue past the replayed ones.
    let fresh = submit_job(addr, EXPLORE);
    assert!(fresh > id, "ids continue after replay");
    let body = poll_job(addr, fresh);
    assert_eq!(body, first_body, "disk-cache hit is byte-identical too");

    let stats = handle.shutdown_and_drain();
    assert!(stats.recovered >= 1);
    let _ = std::fs::remove_dir_all(dir);
}
