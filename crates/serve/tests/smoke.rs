//! End-to-end smoke of `repro serve`, in-process: bind an ephemeral
//! port, drive the JSON API with a raw `TcpStream` HTTP/1.1 client,
//! and hold the service to the same oracle as the CLI — a job's table
//! must be byte-identical to Table 1 of a direct supervised sweep with the
//! same parameters, and a resubmitted job must be served entirely warm.

use dct_bench::harness::{render_table1, table1_rows};
use dct_bench::sweep::{json_num, run_sweep_supervised, sweep_suite, SweepConfig};
use dct_bench::ThreadBudget;
use dct_serve::queue::MAX_FINISHED_JOBS;
use dct_serve::{JobQueue, JobSpec, QueueConfig, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let d = std::env::temp_dir().join(format!(
            "dct-serve-smoke-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        Scratch(d)
    }

    fn path(&self, sub: &str) -> PathBuf {
        self.0.join(sub)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One HTTP/1.1 exchange; returns (status code, body).
fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send request");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {resp:?}"));
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn submit(port: u16, body: &str) -> u64 {
    submit_cells(port, body, 4)
}

fn submit_cells(port: u16, body: &str, cells: usize) -> u64 {
    let (status, resp) = http(port, "POST", "/api/sweep", body);
    assert_eq!(status, 200, "submit failed: {resp}");
    assert!(resp.contains(&format!("\"cells\":{cells}}}")), "want {cells} cells: {resp}");
    json_num(&resp, "job").expect("job id in submit response") as u64
}

fn wait_done(port: u16, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(port, "GET", &format!("/api/job/{job}"), "");
        assert_eq!(status, 200, "poll failed: {body}");
        if body.contains("\"state\":\"done\"") {
            return;
        }
        assert!(Instant::now() < deadline, "job {job} never finished: {body}");
        std::thread::sleep(Duration::from_millis(30));
    }
}

#[test]
fn serve_smoke_end_to_end() {
    let dir = Scratch::new();
    let server = Server::start(&ServeConfig {
        port: 0,
        cache_dir: dir.path("cache"),
        max_cache_bytes: None,
        out_dir: dir.path("serve"),
        workers: 2,
        threads: 2,
    })
    .expect("server start");
    let port = server.port;
    assert_ne!(port, 0, "ephemeral bind must report the real port");

    // The index page is alive.
    let (status, html) = http(port, "GET", "/", "");
    assert_eq!(status, 200);
    assert!(html.contains("repro serve"), "index page: {html}");

    // Unknown resources 404; unknown benchmarks 400.
    assert_eq!(http(port, "GET", "/api/job/999", "").0, 404);
    assert_eq!(http(port, "GET", "/nope", "").0, 404);
    assert_eq!(http(port, "POST", "/api/sweep", "{\"bench\":\"nonesuch\"}").0, 400);

    // Submit a small sweep and poll it to completion.
    let job = submit(port, "{\"bench\":\"stencil\",\"scale_milli\":50,\"procs\":4}");
    wait_done(port, job);
    let (status, table) = http(port, "GET", &format!("/api/job/{job}/table"), "");
    assert_eq!(status, 200);

    // The oracle: Table 1 of a direct supervised sweep with the same
    // parameters must render the exact same bytes.
    let mut cfg = SweepConfig::plain(4, 0.05);
    cfg.only = Some(vec!["stencil".to_string()]);
    let direct = run_sweep_supervised(&cfg).expect("direct sweep");
    assert_eq!(
        table,
        render_table1(&table1_rows(&sweep_suite(&cfg), &direct.cells), 4),
        "served table diverges from a direct sweep"
    );
    assert!(table.starts_with("Table 1: summary at 4 processors"), "{table}");

    // First run was cold...
    let (_, stats) = http(port, "GET", "/api/stats", "");
    assert!(stats.contains("\"executed\":4"), "cold job must execute all cells: {stats}");
    assert!(stats.contains("\"cache_hits\":0"), "cold job cannot hit: {stats}");

    // ...and an identical resubmission is served entirely from the store.
    let rejob = submit(port, "{\"bench\":\"stencil\",\"scale_milli\":50,\"procs\":4}");
    assert_ne!(rejob, job);
    wait_done(port, rejob);
    let (_, retable) = http(port, "GET", &format!("/api/job/{rejob}/table"), "");
    assert_eq!(retable, table, "warm table must be byte-identical");
    let (_, stats) = http(port, "GET", "/api/stats", "");
    assert!(stats.contains("\"executed\":4"), "warm job must execute nothing: {stats}");
    assert!(stats.contains("\"cache_hits\":4"), "warm job must hit every cell: {stats}");

    // A race-checked job (distinct cache keys) yields a certificate.
    let racy = submit(port, "{\"bench\":\"stencil\",\"scale_milli\":50,\"procs\":4,\"race_check\":true}");
    wait_done(port, racy);
    let (status, cert) = http(port, "GET", &format!("/api/job/{racy}/races"), "");
    assert_eq!(status, 200);
    assert!(cert.contains("certificate: all 4 cells race-free"), "certificate: {cert}");
    // The non-racy job has no certificate to give.
    assert_eq!(http(port, "GET", &format!("/api/job/{job}/races"), "").0, 400);

    // The body as Python's `json.dumps` writes it (a space after every
    // colon) means the same job as the compact form: stencil only, at
    // 8 processors, race-checked — not the whole suite at the defaults.
    let spaced = submit(port, "{\"bench\": \"stencil\", \"procs\": 8, \"race_check\": true}");
    wait_done(port, spaced);
    let (_, status_json) = http(port, "GET", &format!("/api/job/{spaced}"), "");
    assert!(status_json.contains("\"total\":4"), "spaced job: {status_json}");
    assert!(status_json.contains("\"kind\":\"full\",\"procs\":8"), "spaced job: {status_json}");
    let (status, cert) = http(port, "GET", &format!("/api/job/{spaced}/races"), "");
    assert_eq!(status, 200, "spaced race_check was dropped: {cert}");
    assert!(cert.contains("(8 procs"), "certificate: {cert}");
    assert!(cert.contains("certificate: all 4 cells race-free"), "certificate: {cert}");
    // A known key whose value does not parse is refused, not defaulted:
    // a number that is not an integer is not its digit prefix, nor a word
    // its letter prefix (these three used to run at scale 0.001, at P = 4
    // and race-checked).
    for body in [
        "{\"bench\": \"stencil\", \"procs\": \"eight\"}",
        "{\"bench\":\"stencil\",\"scale_milli\":1e3,\"procs\":4}",
        "{\"bench\":\"stencil\",\"procs\":4.9}",
        "{\"bench\":\"stencil\",\"scale_milli\":100,\"procs\":4,\"race_check\":true1}",
    ] {
        let (status, err) = http(port, "POST", "/api/sweep", body);
        assert_eq!(status, 400, "{body} must be refused: {err}");
    }
    // Sizes out of range are refused where they enter: this scale used to
    // abort the whole server on a 20 PB allocation, this processor count
    // to trip the machine's 64-processor assert on every retry.
    for body in [
        "{\"bench\":\"stencil\",\"scale_milli\":100000000,\"procs\":8}",
        "{\"bench\":\"stencil\",\"scale_milli\":100,\"procs\":100000}",
    ] {
        let (status, err) = http(port, "POST", "/api/sweep", body);
        assert_eq!(status, 400, "{body}: {err}");
    }
    assert_eq!(http(port, "GET", "/api/explain/stencil?scale_milli=100000000", "").0, 400);
    assert_eq!(http(port, "GET", "/api/figure/fig8?scale_milli=50&procs=4,100000", "").0, 400);
    // A query value that does not parse is refused, not defaulted: an
    // unreadable scale used to run the paper-size figure on the request
    // thread, and a bad or empty processor list to drop entries silently.
    for query in ["scale_milli=abc", "scale_milli=50&procs=8,x", "scale_milli=50&procs="] {
        let (status, err) = http(port, "GET", &format!("/api/figure/fig6b?{query}"), "");
        assert_eq!(status, 400, "{query}: {err}");
    }
    assert_eq!(http(port, "GET", "/api/explain/stencil?scale_milli=abc", "").0, 400);
    assert_eq!(http(port, "GET", "/api/stats", "").0, 200, "the server survived");

    // Explain is served synchronously from its three strategy cells; a
    // repeat request is served from the store.
    let cache = |key: &str| {
        let (_, stats) = http(port, "GET", "/api/stats", "");
        json_num(&stats, key).unwrap_or_else(|| panic!("{key} missing: {stats}"))
    };
    let (status, text) = http(port, "GET", "/api/explain/stencil?scale_milli=50&procs=4", "");
    assert_eq!(status, 200);
    assert!(text.contains("stencil"), "explain text: {text}");
    let (inserts, hits) = (cache("inserts"), cache("hits"));
    let (status, json) =
        http(port, "GET", "/api/explain/stencil?scale_milli=50&procs=4&format=json", "");
    assert_eq!(status, 200);
    assert!(json.trim_start().starts_with('{'), "explain json: {json}");
    assert_eq!((cache("inserts"), cache("hits")), (inserts, hits + 3), "a repeat explain must hit its three cells");
    assert_eq!(http(port, "GET", "/api/explain/nonesuch", "").0, 404);

    // Clean shutdown: the endpoint answers, then wait() drains and joins.
    let (status, _) = http(port, "POST", "/api/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}

/// A figure is served from its cells: the body is what a direct run
/// renders, and a repeat request inserts nothing and hits all seven cells
/// (the sequential reference and three strategies at two counts).
#[test]
fn figure_is_served_from_its_cached_cells() {
    let dir = Scratch::new();
    let server = Server::start(&ServeConfig {
        port: 0,
        cache_dir: dir.path("cache"),
        max_cache_bytes: None,
        out_dir: dir.path("serve"),
        workers: 1,
        threads: 1,
    })
    .expect("server start");
    let port = server.port;
    let path = "/api/figure/fig8?scale_milli=50&procs=2,4";
    let cache = |key: &str| {
        let (_, stats) = http(port, "GET", "/api/stats", "");
        json_num(&stats, key).unwrap_or_else(|| panic!("{key} missing: {stats}"))
    };

    let (status, body) = http(port, "GET", path, "");
    assert_eq!(status, 200, "{body}");
    let spec = dct_bench::figure("fig8", 0.05).expect("fig8 is a figure");
    let cfg = SweepConfig::plain(4, 0.05);
    let (direct, _) = dct_bench::run_figure(&spec, &[2, 4], &cfg, ThreadBudget::clamp(1));
    assert_eq!(body, direct.expect("direct figure").render());

    let (inserts, hits) = (cache("inserts"), cache("hits"));
    let (status, again) = http(port, "GET", path, "");
    assert_eq!((status, again), (200, body), "a repeat request must serve the same bytes");
    assert_eq!(cache("inserts"), inserts, "a repeat request inserted a cell");
    assert_eq!(cache("hits"), hits + 7, "a repeat request must hit every cell");

    server.stop();
    server.wait();
}

/// `(path, inode, mtime ns)` of every file under `dir`, recursively.
fn file_stamps(dir: &std::path::Path) -> Vec<(PathBuf, u64, i64)> {
    use std::os::unix::fs::MetadataExt;
    let mut stamps = Vec::new();
    for e in std::fs::read_dir(dir).expect("directory") {
        let p = e.expect("directory entry").path();
        if p.is_dir() {
            stamps.extend(file_stamps(&p));
        } else {
            let md = std::fs::metadata(&p).expect("file metadata");
            stamps.push((p, md.ino(), md.mtime() * 1_000_000_000 + md.mtime_nsec()));
        }
    }
    stamps.sort();
    stamps
}

/// A warm job costs its look-ups: resubmitting the whole suite derives no
/// key by compiling, executes nothing, writes nothing to the store, and
/// serves the same table bytes.
#[test]
fn warm_job_derives_no_key_and_writes_nothing_to_the_store() {
    let dir = Scratch::new();
    let server = Server::start(&ServeConfig {
        port: 0,
        cache_dir: dir.path("cache"),
        max_cache_bytes: None,
        out_dir: dir.path("serve"),
        workers: 2,
        threads: 1,
    })
    .expect("server start");
    let port = server.port;
    let spec = "{\"scale_milli\":50,\"procs\":4}";
    let counters = |stats: &str| {
        ["executed", "cache_hits", "deduped", "keys_derived", "key_memo_hits", "inserts"]
            .map(|k| json_num(stats, k).unwrap_or_else(|| panic!("{k} missing: {stats}")))
    };

    let cold = submit_cells(port, spec, 28);
    wait_done(port, cold);
    let (_, table) = http(port, "GET", &format!("/api/job/{cold}/table"), "");
    let (_, stats) = http(port, "GET", "/api/stats", "");
    assert!(
        stats.contains("\"queue\":{\"jobs\":1,\"executed\":28,\"cache_hits\":0,\"deduped\":0,\"inflight\":0,\"keys_derived\":"),
        "{stats}"
    );
    assert!(!stats.contains("checkpoints"), "{stats}");
    let [executed, hits, deduped, derived, memo_hits, inserts] = counters(&stats);
    assert_eq!((executed, hits, deduped, inserts), (28, 0, 0, 28), "{stats}");
    // `seq` shares the `base` compile; vpenta and erlebacher are at their
    // size floor at this scale but still distinct programs.
    assert_eq!((derived, memo_hits), (21, 7), "{stats}");
    let stamps = file_stamps(&dir.path("cache"));
    assert_eq!(stamps.len(), 28);
    assert!(!dir.path("serve").exists(), "a job wrote outside the store");

    let warm = submit_cells(port, spec, 28);
    wait_done(port, warm);
    let (_, retable) = http(port, "GET", &format!("/api/job/{warm}/table"), "");
    assert_eq!(retable, table, "warm table must be byte-identical");
    let (_, stats) = http(port, "GET", "/api/stats", "");
    let [executed, hits, deduped, derived2, memo_hits2, inserts2] = counters(&stats);
    assert_eq!((executed, hits, deduped), (28, 28, 0), "{stats}");
    assert_eq!(derived2, derived, "a warm job compiled for a key: {stats}");
    assert_eq!(memo_hits2, memo_hits + 28, "{stats}");
    assert_eq!(inserts2, inserts, "a warm job inserted a cell: {stats}");
    assert_eq!(file_stamps(&dir.path("cache")), stamps, "a warm job touched a store file");

    server.stop();
    server.wait();
}

/// A long-lived queue forgets old finished jobs: once more than
/// `MAX_FINISHED_JOBS` have finished, a submit drops the oldest, whose id
/// then reads like an unknown one (the HTTP layer's 404), and the most
/// recent `MAX_FINISHED_JOBS` are still there. The jobs are the smallest there is
/// (one benchmark, four cells), served warm from a primed store.
#[test]
fn finished_jobs_beyond_the_cap_are_forgotten_oldest_first() {
    let dir = Scratch::new();
    let store = Arc::new(dct_bench::ResultStore::open(dir.path("cache"), None).expect("store"));
    let queue = JobQueue::start(QueueConfig { store, workers: 1 });
    let spec =
        JobSpec { bench: Some("stencil".to_string()), scale: 0.05, procs: 2, race_check: false };
    let run = |want_id: u64| {
        let job = queue.submit(&spec).expect("submit");
        assert_eq!(job.id, want_id);
        let deadline = Instant::now() + Duration::from_secs(120);
        while !job.is_done() {
            assert!(Instant::now() < deadline, "job {want_id} never finished");
            std::thread::yield_now();
        }
    };
    let cap = MAX_FINISHED_JOBS as u64;
    for id in 1..=cap + 1 {
        run(id);
    }
    // A warm job can finish before its own submit registers it, so job 1
    // goes at the submit of job cap + 1 or of the next one.
    assert!(queue.job(2).is_some(), "cap finished jobs are kept");
    run(cap + 2);
    assert!(queue.job(1).is_none(), "the oldest finished job must be forgotten");
    assert!(queue.job(3).is_some() && queue.job(cap + 2).is_some());
    assert!((MAX_FINISHED_JOBS..=MAX_FINISHED_JOBS + 1).contains(&queue.job_count()));
    assert_eq!(queue.executed.load(Ordering::Relaxed), 4, "only the priming job executes");
    assert_eq!(queue.cache_hits.load(Ordering::Relaxed), 4 * (cap + 1));
    assert_eq!(queue.keys_derived(), 3, "one compile per strategy for the life of the queue");
    queue.shutdown();
}

/// A request head is read only up to its cap: a header line that never
/// ends is answered with a 400 (or the connection is dropped) instead of
/// being buffered while the client keeps it open, and the server still
/// answers afterwards.
#[test]
fn endless_header_line_is_refused_not_buffered() {
    let dir = Scratch::new();
    let server = Server::start(&ServeConfig {
        port: 0,
        cache_dir: dir.path("cache"),
        max_cache_bytes: None,
        out_dir: dir.path("serve"),
        workers: 1,
        threads: 1,
    })
    .expect("server start");
    let port = server.port;
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(head.len() + (100 << 10), b'x');
    // The server may stop reading, and reset, before all of it is sent.
    let _ = s.write_all(&head);
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut resp = Vec::new();
    match s.read_to_end(&mut resp) {
        Ok(_) => {
            let resp = String::from_utf8_lossy(&resp);
            assert!(resp.is_empty() || resp.starts_with("HTTP/1.1 400"), "{resp}");
            assert!(resp.is_empty() || resp.contains("request head too large"), "{resp}");
        }
        Err(e) => assert!(
            !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "the server kept reading an endless header line: {e}"
        ),
    }
    let (status, stats) = http(port, "GET", "/api/stats", "");
    assert_eq!(status, 200, "{stats}");
    server.stop();
    server.wait();
}
