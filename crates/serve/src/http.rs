//! A dependency-free HTTP/1.1 JSON API over [`std::net::TcpListener`]:
//! one OS thread accepts, one short-lived thread serves each connection
//! (`Connection: close`, no keep-alive — clients here are curl, CI and
//! the concurrency tests). The endpoints:
//!
//! | method | path                   | body / result                          |
//! |--------|------------------------|----------------------------------------|
//! | GET    | `/`                    | minimal HTML index                     |
//! | GET    | `/api/stats`           | cache + queue counters (JSON)          |
//! | POST   | `/api/sweep`           | `{bench?,scale_milli?,procs?,race_check?}` -> `{job,cells}` |
//! | GET    | `/api/job/<id>`        | job status + per-cell states (JSON)    |
//! | GET    | `/api/job/<id>/table`  | rendered Table 1 (text; 409 until done)|
//! | GET    | `/api/job/<id>/races`  | race certificate (text; 409 until done)|
//! | GET    | `/api/explain/<bench>` | cached explain report (`?format=json`) |
//! | GET    | `/api/figure/<fig>`    | cached speedup figure (text)           |
//! | POST   | `/api/shutdown`        | stop accepting, drain, exit            |
//!
//! Query parameters `scale_milli` (integer, thousandths of the paper
//! size) and `procs` tune the synchronous endpoints; sweep jobs carry
//! the same fields in their JSON body. Everything cacheable reads and
//! writes the shared content-addressed store.

use crate::queue::{JobQueue, JobSpec, QueueConfig};
use dct_bench::sweep::{self, render_sweep, scale_key, CellOutcome};
use dct_bench::{artifact_cache_key, harness, ResultStore, ThreadBudget};
use dct_core::machine::MachineConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// Everything `repro serve` configures.
#[derive(Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1; `0` = ephemeral (the bound port is in
    /// [`Server::port`] and on stdout).
    pub port: u16,
    /// Cache directory (the content-addressed store root).
    pub cache_dir: PathBuf,
    /// LRU byte budget of the store; `None` = unbounded.
    pub max_cache_bytes: Option<u64>,
    /// Checkpoint directory for queued cells.
    pub out_dir: PathBuf,
    /// Queue worker threads.
    pub workers: usize,
    /// Inert (never read); goes with the follow-up benchmark PR.
    pub threads: usize,
}

struct State {
    queue: Arc<JobQueue>,
    store: Arc<ResultStore>,
    stop: AtomicBool,
    port: u16,
}

/// A running server. [`Server::start`] binds and returns immediately;
/// [`Server::wait`] blocks until shutdown and then drains the queue.
pub struct Server {
    pub port: u16,
    state: Arc<State>,
    accept: thread::JoinHandle<()>,
}

impl Server {
    pub fn start(cfg: &ServeConfig) -> std::io::Result<Server> {
        let store = Arc::new(ResultStore::open(&cfg.cache_dir, cfg.max_cache_bytes)?);
        let queue = JobQueue::start(QueueConfig {
            out_dir: cfg.out_dir.clone(),
            store: Arc::clone(&store),
            workers: cfg.workers,
        });
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        let state = Arc::new(State { queue, store, stop: AtomicBool::new(false), port });
        let st = Arc::clone(&state);
        let accept = thread::spawn(move || {
            for conn in listener.incoming() {
                if st.stop.load(Ordering::Acquire) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        let st2 = Arc::clone(&st);
                        thread::spawn(move || handle_connection(&st2, stream));
                    }
                    Err(e) => eprintln!("[serve: accept failed: {e}]"),
                }
            }
        });
        Ok(Server { port, state, accept })
    }

    /// Ask the server to stop, as `POST /api/shutdown` would.
    pub fn stop(&self) {
        request_stop(&self.state);
    }

    /// Block until shutdown is requested, then drain workers and return.
    pub fn wait(self) {
        let _ = self.accept.join();
        self.state.queue.shutdown();
    }
}

/// Flip the stop flag and poke the accept loop awake with a throwaway
/// connection (accept() is blocking; the flag alone wakes nobody).
fn request_stop(st: &State) {
    st.stop.store(true, Ordering::Release);
    let _ = TcpStream::connect(("127.0.0.1", st.port));
}

// ---------------------------------------------------------- plumbing --

struct Request {
    method: String,
    /// Path without the query string.
    path: String,
    query: String,
    body: String,
}

/// Parse one request off the stream. Bounded reads throughout: a slow
/// or hostile client can cost this thread, never the server.
fn read_request(stream: &TcpStream) -> Result<Request, String> {
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| e.to_string())?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("no request target")?.to_string();
    let mut content_len = 0usize;
    loop {
        let mut h = String::new();
        r.read_line(&mut h).map_err(|e| e.to_string())?;
        let h = h.trim();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
            content_len = v.trim().parse().map_err(|_| "bad content-length")?;
        }
    }
    if content_len > 1 << 20 {
        return Err("body too large".to_string());
    }
    let mut body = vec![0u8; content_len];
    r.read_exact(&mut body).map_err(|e| e.to_string())?;
    let body = String::from_utf8(body).map_err(|_| "body is not utf-8")?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(Request { method, path, query, body })
}

fn respond(stream: &mut TcpStream, status: &str, ctype: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn query_param(query: &str, key: &str) -> Option<String> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
}

const PROCS_RANGE: std::ops::RangeInclusive<i64> = 1..=MachineConfig::MAX_PROCS as i64;
/// Arena allocation grows with the square of the scale; an oversized one
/// aborts the process where no `catch_unwind` reaches.
const SCALE_MILLI_RANGE: std::ops::RangeInclusive<i64> = 1..=4000;

/// Range-check a size that arrived in a request.
fn checked_size(name: &str, v: i64, range: std::ops::RangeInclusive<i64>) -> Result<i64, String> {
    if range.contains(&v) {
        Ok(v)
    } else {
        Err(format!("\"{name}\" must be in {}..={}, got {v}", range.start(), range.end()))
    }
}

/// `scale_milli` / `procs` (a comma-separated list) with server defaults
/// (paper scale, 8 procs — modest because synchronous endpoints run on the
/// request thread).
fn query_scale_procs(query: &str) -> Result<(f64, Vec<usize>), String> {
    let scale_milli =
        query_param(query, "scale_milli").and_then(|v| v.parse::<i64>().ok()).unwrap_or(1000);
    let procs: Vec<i64> = query_param(query, "procs")
        .map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![8]);
    let scale = checked_size("scale_milli", scale_milli, SCALE_MILLI_RANGE)? as f64 / 1000.0;
    let procs =
        procs.into_iter().map(|p| checked_size("procs", p, PROCS_RANGE).map(|p| p as usize));
    Ok((scale, procs.collect::<Result<_, _>>()?))
}

fn bad_request(stream: &mut TcpStream, msg: &str) {
    respond(
        stream,
        "400 Bad Request",
        "application/json",
        &format!("{{\"error\":\"{}\"}}\n", sweep::esc(msg)),
    );
}

// ---------------------------------------------------------- handlers --

fn handle_connection(st: &State, mut stream: TcpStream) {
    let req = match read_request(&stream) {
        Ok(r) => r,
        Err(e) => {
            // The shutdown wake-up connection lands here (empty stream).
            if !st.stop.load(Ordering::Acquire) {
                respond(&mut stream, "400 Bad Request", "text/plain", &format!("{e}\n"));
            }
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => respond(&mut stream, "200 OK", "text/html", INDEX_HTML),
        ("GET", "/api/stats") => api_stats(st, &mut stream),
        ("POST", "/api/sweep") => api_sweep(st, &mut stream, &req.body),
        ("POST", "/api/shutdown") => {
            respond(&mut stream, "200 OK", "text/plain", "shutting down\n");
            request_stop(st);
        }
        ("GET", path) if path.starts_with("/api/job/") => api_job(st, &mut stream, path),
        ("GET", path) if path.starts_with("/api/explain/") => {
            api_explain(st, &mut stream, path, &req.query)
        }
        ("GET", path) if path.starts_with("/api/figure/") => {
            api_figure(st, &mut stream, path, &req.query)
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "no such endpoint\n"),
    }
}

fn api_stats(st: &State, stream: &mut TcpStream) {
    let (h, m, i, e, c) = st.store.stats().snapshot();
    let body = format!(
        "{{\"cache\":{{\"hits\":{h},\"misses\":{m},\"inserts\":{i},\"evictions\":{e},\"corrupt\":{c}}},\
         \"queue\":{{\"jobs\":{},\"executed\":{},\"cache_hits\":{},\"deduped\":{},\"inflight\":{},\
         \"keys_derived\":{},\"key_memo_hits\":{},\"checkpoints_written\":{},\"checkpoints_current\":{}}}}}\n",
        st.queue.job_count(),
        st.queue.executed.load(Ordering::Relaxed),
        st.queue.cache_hits.load(Ordering::Relaxed),
        st.queue.deduped.load(Ordering::Relaxed),
        st.queue.inflight_count(),
        st.queue.keys_derived(),
        st.queue.key_memo_hits(),
        st.queue.checkpoints_written.load(Ordering::Relaxed),
        st.queue.checkpoints_current.load(Ordering::Relaxed),
    );
    respond(stream, "200 OK", "application/json", &body);
}

/// One optional field of a sweep request body: `Ok(None)` when the key is
/// absent, `Err` when it is present but its value does not parse (a typo
/// must not silently run the default sweep).
fn body_field<T>(
    body: &str,
    key: &str,
    get: fn(&str, &str) -> Option<T>,
) -> Result<Option<T>, String> {
    match get(body, key) {
        None if sweep::json_has(body, key) => Err(format!("field \"{key}\" has an unreadable value")),
        v => Ok(v),
    }
}

fn parse_job_spec(body: &str) -> Result<JobSpec, String> {
    let scale_milli = body_field(body, "scale_milli", sweep::json_num)?.unwrap_or(1000);
    let procs = body_field(body, "procs", sweep::json_num)?.unwrap_or(32);
    Ok(JobSpec {
        bench: body_field(body, "bench", sweep::json_str)?,
        scale: checked_size("scale_milli", scale_milli, SCALE_MILLI_RANGE)? as f64 / 1000.0,
        procs: checked_size("procs", procs, PROCS_RANGE)? as usize,
        race_check: body_field(body, "race_check", sweep::json_bool)?.unwrap_or(false),
    })
}

fn api_sweep(st: &State, stream: &mut TcpStream, body: &str) {
    match parse_job_spec(body).and_then(|spec| st.queue.submit(&spec)) {
        Ok(job) => respond(
            stream,
            "200 OK",
            "application/json",
            &format!("{{\"job\":{},\"cells\":{}}}\n", job.id, job.cells.len()),
        ),
        Err(e) => bad_request(stream, &e),
    }
}

/// `/api/job/<id>[/table|/races]`.
fn api_job(st: &State, stream: &mut TcpStream, path: &str) {
    let rest = &path["/api/job/".len()..];
    let (id, sub) = match rest.split_once('/') {
        Some((id, sub)) => (id, sub),
        None => (rest, ""),
    };
    let job = match id.parse::<u64>().ok().and_then(|id| st.queue.job(id)) {
        Some(j) => j,
        None => return respond(stream, "404 Not Found", "text/plain", "no such job\n"),
    };
    match sub {
        "" => {
            let states: Vec<String> = job
                .cells
                .iter()
                .map(|s| {
                    // `phase`, not `state`: the job-level `state` field
                    // must be the only place `"state":"done"` can appear,
                    // so pollers can match it without a JSON parser.
                    format!(
                        "{{\"bench\":\"{}\",\"kind\":\"{}\",\"procs\":{},\"phase\":\"{}\"}}",
                        sweep::esc(&s.bench),
                        sweep::esc(&s.kind),
                        s.procs,
                        s.phase()
                    )
                })
                .collect();
            let body = format!(
                "{{\"job\":{},\"state\":\"{}\",\"done\":{},\"total\":{},\"cells\":[{}]}}\n",
                job.id,
                if job.is_done() { "done" } else { "running" },
                job.finished(),
                job.cells.len(),
                states.join(",")
            );
            respond(stream, "200 OK", "application/json", &body);
        }
        "table" => {
            if !job.is_done() {
                return respond(stream, "409 Conflict", "text/plain", "job not complete\n");
            }
            let table = render_sweep(&job.done_cells(), job.procs, job.scale);
            respond(stream, "200 OK", "text/plain", &table);
        }
        "races" => {
            if !job.race_check {
                return respond(
                    stream,
                    "400 Bad Request",
                    "text/plain",
                    "job was not submitted with race_check\n",
                );
            }
            if !job.is_done() {
                return respond(stream, "409 Conflict", "text/plain", "job not complete\n");
            }
            respond(stream, "200 OK", "text/plain", &race_certificate(&job));
        }
        _ => respond(stream, "404 Not Found", "text/plain", "no such job resource\n"),
    }
}

/// The job's race certificate: with `race_check` on, a racy schedule
/// surfaces as a failed cell carrying the detector's report, so a table
/// of clean outcomes *is* the certificate.
fn race_certificate(job: &crate::queue::Job) -> String {
    let mut out = format!(
        "Race certificate: job {} ({} procs, scale {}, happens-before detector on)\n",
        job.id, job.procs, job.scale
    );
    let mut clean = 0usize;
    let cells = job.done_cells();
    for c in &cells {
        match &c.outcome {
            CellOutcome::Cycles(n) => {
                clean += 1;
                out.push_str(&format!(
                    "  {:<12} {:<6} race-free ({n} cycles)\n",
                    c.bench, c.kind
                ));
            }
            CellOutcome::Timeout => {
                clean += 1;
                out.push_str(&format!(
                    "  {:<12} {:<6} race-free up to budget (timeout)\n",
                    c.bench, c.kind
                ));
            }
            CellOutcome::Failed(e) | CellOutcome::Quarantined(e) => {
                out.push_str(&format!("  {:<12} {:<6} NOT CERTIFIED: {e}\n", c.bench, c.kind));
            }
        }
    }
    out.push_str(&if clean == cells.len() {
        format!("certificate: all {} cells race-free\n", cells.len())
    } else {
        format!("certificate: {} of {} cells NOT certified\n", cells.len() - clean, cells.len())
    });
    out
}

fn api_explain(st: &State, stream: &mut TcpStream, path: &str, query: &str) {
    let bench = &path["/api/explain/".len()..];
    let (scale, procs) = match query_scale_procs(query) {
        Ok((scale, procs)) => (scale, procs.into_iter().max().unwrap_or(8)),
        Err(e) => return bad_request(stream, &e),
    };
    match dct_bench::explain_cached(bench, scale, procs, &st.store) {
        Some((text, json)) => {
            if query_param(query, "format").as_deref() == Some("json") {
                respond(stream, "200 OK", "application/json", &json);
            } else {
                respond(stream, "200 OK", "text/plain", &text);
            }
        }
        None => respond(stream, "404 Not Found", "text/plain", "unknown benchmark\n"),
    }
}

fn api_figure(st: &State, stream: &mut TcpStream, path: &str, query: &str) {
    let fig = &path["/api/figure/".len()..];
    let (scale, procs_list) = match query_scale_procs(query) {
        Ok(sizes) => sizes,
        Err(e) => return bad_request(stream, &e),
    };
    let spec = match harness::figure(fig, scale) {
        Some(s) => s,
        None => return respond(stream, "404 Not Found", "text/plain", "unknown figure\n"),
    };
    let tag = format!(
        "figure-{fig}-p{}",
        procs_list.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(",")
    );
    let max_procs = procs_list.iter().copied().max().unwrap_or(1);
    let key =
        artifact_cache_key(&tag, spec.benchmark, &spec.program, max_procs, scale_key(scale))
            .map_err(|e| eprintln!("[serve: figure key derivation failed: {e}]"))
            .ok();
    if let Some(k) = &key {
        if let Some(text) = st.store.lookup_artifact(k) {
            return respond(stream, "200 OK", "text/plain", &text);
        }
    }
    match harness::run_figure_parallel(&spec, &procs_list, ThreadBudget::clamp(1)) {
        Ok(r) => {
            let text = r.render();
            if let Some(k) = &key {
                if let Err(e) = st.store.insert_artifact(k, &text, None) {
                    eprintln!("[serve: figure insert failed: {e}]");
                }
            }
            respond(stream, "200 OK", "text/plain", &text);
        }
        Err(e) => respond(stream, "500 Internal Server Error", "text/plain", &format!("{e}\n")),
    }
}

const INDEX_HTML: &str = "<!doctype html>\n<html><head><title>dct repro serve</title></head>\n<body>\n<h1>dct repro serve</h1>\n<p>Content-addressed result cache + job-queue sweep service for the\nPPoPP'95 reproduction.</p>\n<ul>\n<li><code>GET /api/stats</code> &mdash; cache and queue counters</li>\n<li><code>POST /api/sweep</code> &mdash; body <code>{\"bench\":\"stencil\",\"scale_milli\":100,\"procs\":8}</code></li>\n<li><code>GET /api/job/&lt;id&gt;</code> &mdash; poll status</li>\n<li><code>GET /api/job/&lt;id&gt;/table</code> &mdash; Table 1 of a finished job</li>\n<li><code>GET /api/job/&lt;id&gt;/races</code> &mdash; race certificate (submit with <code>race_check</code>)</li>\n<li><code>GET /api/explain/&lt;bench&gt;?scale_milli=100&amp;procs=8</code> &mdash; why is this slow?</li>\n<li><code>GET /api/figure/&lt;fig&gt;?scale_milli=50&amp;procs=1,2,4</code> &mdash; speedup figure</li>\n<li><code>POST /api/shutdown</code> &mdash; drain and exit</li>\n</ul>\n</body></html>\n";
