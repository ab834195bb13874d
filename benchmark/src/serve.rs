//! `serve_mixed`: the sweep service under a closed loop of two client
//! connections, reads beside writes. Every pass starts a fresh in-process
//! server (one worker, one thread per cell) on fresh cache and checkpoint
//! directories and primes it with the warm job; that is the workload's
//! set-up. Then client A submits cold single-benchmark jobs whose keys
//! are all new, client B submits the primed 28-cell job over and over
//! and reads its table and the stats page, and both start the pass by
//! submitting the same cold job at the same moment, several times, to
//! exercise in-flight dedup.

use crate::golden::SUITE;
use crate::harness::{Cfg, PassCtx, Report, Workload};
use crate::measure::{median, quantile, shuffle};
use crate::trace::Tracer;
use dct_bench::fuzz::Lcg;
use dct_bench::sweep::{json_num, save_cell, Cell, CellOutcome, SweepConfig, KINDS};
use dct_bench::{cell_cache_key, ResultStore};
use dct_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

const WARM_SPEC: &str = "{\"scale_milli\":250,\"procs\":8}";
const WARM_CELLS: i64 = 28;
const POLL: Duration = Duration::from_millis(2);
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// Jobs of one pass.
struct Mix {
    warm: usize,
    cold: usize,
    dedup_pairs: usize,
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A running server on its own scratch directory; dropping it stops the
/// server, joins its workers and removes the directory.
struct Instance {
    server: Option<Server>,
    port: u16,
    dir: PathBuf,
    /// `/table` body of the priming (cold) run of the warm job.
    warm_table: String,
}

impl Drop for Instance {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.stop();
            s.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "serve-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One request on its own connection. Any transport error reads as
/// status 0, which the caller counts as a failed request.
fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let attempt = || -> std::io::Result<String> {
        let mut s = TcpStream::connect(("127.0.0.1", port))?;
        s.set_read_timeout(Some(JOB_DEADLINE))?;
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes())?;
        let mut resp = String::new();
        s.read_to_string(&mut resp)?;
        Ok(resp)
    };
    match attempt() {
        Ok(resp) => {
            let status = resp.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
            (status, resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default())
        }
        Err(_) => (0, String::new()),
    }
}

/// What one client saw; merged into the report when the pass ends.
#[derive(Default)]
struct Seen {
    requests: u64,
    failures: Vec<String>,
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    table_us: Vec<f64>,
    stats_us: Vec<f64>,
    jobs: u64,
}

struct Client<'a> {
    port: u16,
    tracer: &'a Tracer,
    pass: u32,
    seen: Seen,
}

impl Client<'_> {
    /// A request that must answer 2xx. Returns its body (`None`, and a
    /// failure on record, when it did not) and seconds.
    fn request(
        &mut self,
        span: &'static str,
        method: &str,
        path: &str,
        body: &str,
    ) -> (Option<String>, f64) {
        let ((status, text), secs) =
            self.tracer.span(span, self.pass, |_| http(self.port, method, path, body));
        self.seen.requests += 1;
        if !(200..300).contains(&status) {
            self.seen.failures.push(format!("{method} {path}: status {status}"));
            return (None, secs);
        }
        (Some(text), secs)
    }

    /// Submit `spec`, poll until the job is done, fetch its table.
    /// Returns `(table, submit seconds, seconds from submit to done)`,
    /// or `None` with the failure on record.
    fn job(&mut self, span: &'static str, spec: &str) -> Option<(String, f64, f64)> {
        let (tracer, pass) = (self.tracer, self.pass);
        self.seen.jobs += 1;
        tracer
            .span(span, pass, |_| {
                let start = Instant::now();
                let (resp, submit_s) = self.request("http.submit", "POST", "/api/sweep", spec);
                let Some(id) = json_num(&resp?, "job") else {
                    self.seen.failures.push(format!("submit of {spec} returned no job id"));
                    return None;
                };
                loop {
                    let (body, _) = self.request("http.poll", "GET", &format!("/api/job/{id}"), "");
                    if body?.contains("\"state\":\"done\"") {
                        break;
                    }
                    if start.elapsed() > JOB_DEADLINE {
                        self.seen.failures.push(format!("job {id} ({spec}) never finished"));
                        return None;
                    }
                    std::thread::sleep(POLL);
                }
                let done_s = start.elapsed().as_secs_f64();
                let (table, table_s) =
                    self.request("http.table", "GET", &format!("/api/job/{id}/table"), "");
                self.seen.table_us.push(table_s * 1e6);
                Some((table?, submit_s, done_s))
            })
            .0
    }

    fn cold_job(&mut self, spec: &str) {
        let Some((table, _, done_s)) = self.job("job.cold", spec) else { return };
        self.seen.cold_ms.push(done_s * 1e3);
        if ["fail", "quar", "timeout"].iter().any(|bad| table.contains(bad))
            || table.lines().count() < 3
        {
            self.seen.failures.push(format!("cold job {spec}: bad table"));
        }
    }
}

fn start_instance() -> Result<Instance, String> {
    let dir = scratch_dir();
    let server = Server::start(&ServeConfig {
        port: 0,
        cache_dir: dir.join("cache"),
        max_cache_bytes: None,
        out_dir: dir.join("out"),
        workers: 1,
        threads: 1,
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut inst =
        Instance { port: server.port, server: Some(server), dir, warm_table: String::new() };
    // Prime the cache: the warm job, executed cold once.
    let quiet = Tracer::new();
    let mut client = Client { port: inst.port, tracer: &quiet, pass: 0, seen: Seen::default() };
    let Some((table, _, _)) = client.job("job.prime", WARM_SPEC) else {
        return Err(format!("priming failed: {:?}", client.seen.failures));
    };
    if table.lines().count() != 2 + SUITE.len() || table.contains("fail") {
        return Err(format!("priming produced a bad table:\n{table}"));
    }
    inst.warm_table = table;
    Ok(inst)
}

pub struct ServeMixed {
    mix: Mix,
    rng: Lcg,
    /// `None` after a pass used it up: every pass needs a fresh cache.
    instance: Option<Instance>,
    all: Seen,
    /// `/api/stats` of the last pass, read after both clients finished.
    last_stats: String,
}

pub fn setup(cfg: &Cfg) -> Result<Box<dyn Workload>, String> {
    let mix = if cfg.quick {
        Mix { warm: 5, cold: 2, dedup_pairs: 1 }
    } else {
        Mix { warm: 50, cold: 14, dedup_pairs: 3 }
    };
    Ok(Box::new(ServeMixed {
        mix,
        rng: Lcg::new(cfg.seed),
        instance: Some(start_instance()?),
        all: Seen::default(),
        last_stats: String::new(),
    }))
}

impl ServeMixed {
    /// Specs of this pass's cold jobs. Benchmark, processor count and
    /// scale of each job are fixed, so that every pass of every seed does
    /// the same work; the seed orders the jobs. Each job has its own
    /// `scale_milli`, so all four cells of every job (the `seq` cell
    /// too, which is keyed at one processor) are new to the cache.
    fn cold_specs(&mut self) -> Vec<String> {
        let mut jobs: Vec<String> = (0..self.mix.cold + self.mix.dedup_pairs)
            .map(|j| {
                format!(
                    "{{\"bench\":\"{}\",\"scale_milli\":{},\"procs\":{}}}",
                    SUITE[j % SUITE.len()],
                    249 - j,
                    [32, 16, 4, 24, 12][j % 5]
                )
            })
            .collect();
        shuffle(&mut self.rng, &mut jobs[self.mix.dedup_pairs..]);
        jobs
    }
}

impl Workload for ServeMixed {
    fn pass(&mut self, ctx: &mut PassCtx) -> (f64, f64) {
        let inst = match self.instance.take() {
            Some(i) => i,
            None => {
                let t = Instant::now();
                match start_instance() {
                    Ok(i) => {
                        ctx.report.setup_s.push(t.elapsed().as_secs_f64());
                        i
                    }
                    Err(e) => {
                        ctx.report.check(Err(e));
                        return (f64::NAN, 0.0);
                    }
                }
            }
        };
        let specs = self.cold_specs();
        let (shared, own) = specs.split_at(self.mix.dedup_pairs);
        let gate = Barrier::new(2);
        let (tracer, pass, port) = (ctx.tracer, ctx.pass, inst.port);
        let seen = Mutex::new(Vec::new());
        let start = Instant::now();
        std::thread::scope(|s| {
            // Client A: writes.
            s.spawn(|| {
                let mut c = Client { port, tracer, pass, seen: Seen::default() };
                for spec in shared {
                    gate.wait();
                    c.cold_job(spec);
                }
                for spec in own {
                    c.cold_job(spec);
                }
                seen.lock().expect("clients do not panic").push(c.seen);
            });
            // Client B: reads.
            s.spawn(|| {
                let mut c = Client { port, tracer, pass, seen: Seen::default() };
                for spec in shared {
                    gate.wait();
                    c.cold_job(spec);
                }
                for _ in 0..self.mix.warm {
                    let Some((table, submit_s, done_s)) = c.job("job.warm", WARM_SPEC) else {
                        continue;
                    };
                    c.seen.warm_ms.push(done_s * 1e3);
                    c.seen.submit_ms.push(submit_s * 1e3);
                    if table != inst.warm_table {
                        c.seen.failures.push("warm /table differs from the cold one".into());
                    }
                    let (_, stats_s) = c.request("http.stats", "GET", "/api/stats", "");
                    c.seen.stats_us.push(stats_s * 1e6);
                }
                seen.lock().expect("clients do not panic").push(c.seen);
            });
        });
        let wall = start.elapsed().as_secs_f64();

        let (_, stats) = http(port, "GET", "/api/stats", "");
        let count = |key: &str| json_num(&stats, key).unwrap_or(-1);
        let cold_cells = (KINDS.len() * specs.len()) as i64;
        let mut jobs = 0;
        let end_to_end = ctx.end_to_end();
        for mut s in seen.into_inner().expect("clients do not panic") {
            ctx.report.attempted += s.requests + s.jobs;
            for why in s.failures.drain(..) {
                ctx.report.fail(why);
            }
            jobs += s.jobs;
            if end_to_end {
                ctx.report.op_ms.extend(&s.warm_ms);
                ctx.report.cold_ms.extend(&s.cold_ms);
            }
            self.all.warm_ms.append(&mut s.warm_ms);
            self.all.cold_ms.append(&mut s.cold_ms);
            self.all.submit_ms.append(&mut s.submit_ms);
            self.all.table_us.append(&mut s.table_us);
            self.all.stats_us.append(&mut s.stats_us);
        }
        // Exactly one execution per unique key: the 28 primed cells and
        // the cold cells, however the dedup races went; and every cell
        // submitted is accounted for.
        let submitted = WARM_CELLS * (1 + self.mix.warm as i64)
            + cold_cells
            + (KINDS.len() * self.mix.dedup_pairs) as i64;
        ctx.report.check(if count("executed") == WARM_CELLS + cold_cells {
            Ok(())
        } else {
            Err(format!(
                "queue.executed {} != {} unique keys",
                count("executed"),
                WARM_CELLS + cold_cells
            ))
        });
        ctx.report.check(
            if count("executed") + count("cache_hits") + count("deduped") == submitted
                && count("corrupt") == 0
            {
                Ok(())
            } else {
                Err(format!("cells unaccounted for or corrupt: {stats}"))
            },
        );
        self.last_stats = stats;
        drop(inst);
        (wall, jobs as f64)
    }

    fn warmup(&mut self, _ctx: &mut PassCtx) {
        // Set-up already ran the priming job through the whole service;
        // the first instance stays fresh for the first timed pass.
    }

    fn probes(&mut self, tracer: &Tracer, report: &mut Report) {
        let all = &self.all;
        report.layer("http.light_p50_us", median(&all.stats_us));
        report.layer("http.submit_p50_ms", median(&all.submit_ms));
        report.layer("http.table_p50_us", median(&all.table_us));
        report.layer("queue.warm_cell_us", 1e3 * median(&all.warm_ms) / WARM_CELLS as f64);
        report.layer("queue.warm_job_p95_ms", quantile(&all.warm_ms, 0.95));
        report.layer("queue.cold_job_p50_ms", median(&all.cold_ms));
        let count = |key: &str| json_num(&self.last_stats, key).unwrap_or(0) as f64;
        report.layer("cache.hit_ratio", count("hits") / (count("hits") + count("misses")).max(1.0));
        report.layer("cache.inserts", count("inserts"));
        report.layer("cache.corrupt", count("corrupt"));
        report.layer("queue.executed", count("executed"));
        report.layer("queue.deduped", count("deduped"));
        report.layer(
            "queue.dedup_ratio",
            count("deduped") / (KINDS.len() * self.mix.dedup_pairs) as f64,
        );

        // Store and checkpoint calls, timed directly on a scratch store
        // with the warm job's 28 keys.
        let dir = scratch_dir();
        let result = (|| -> Result<(), String> {
            let store = ResultStore::open(dir.join("cache"), None).map_err(|e| e.to_string())?;
            let cfg = SweepConfig::new(8, 0.25, dir.join("out"));
            let (mut key_us, mut insert_us, mut lookup_us, mut ckpt_us) =
                (vec![], vec![], vec![], vec![]);
            for b in dct_bench::programs::suite(0.25) {
                for kind in KINDS {
                    let procs = if kind == "seq" { 1 } else { 8 };
                    let (key, s) = tracer.span("cache.key", 0, |_| {
                        cell_cache_key(b.name, &cfg.key_inputs(&b.program, kind, procs))
                    });
                    let key = key?;
                    key_us.push(s * 1e6);
                    let cell = Cell::new(b.name, kind, procs, 0.25, CellOutcome::Cycles(1));
                    let (r, s) =
                        tracer.span("cache.insert", 0, |_| store.insert_cell(&key, &cell, None));
                    r.map_err(|e| e.to_string())?;
                    insert_us.push(s * 1e6);
                    let (hit, s) = tracer.span("cache.lookup", 0, |n| {
                        let hit = store.lookup_cell(&key);
                        n.add("cache_hits", hit.is_some() as u64);
                        hit
                    });
                    if hit.as_ref() != Some(&cell) {
                        return Err(format!("store returned a different cell for {key}"));
                    }
                    lookup_us.push(s * 1e6);
                    let (r, s) = tracer
                        .span("sweep.checkpoint_write", 0, |_| save_cell(&dir.join("out"), &cell));
                    r.map_err(|e| e.to_string())?;
                    ckpt_us.push(s * 1e6);
                }
            }
            report.layer("cache.key_us", median(&key_us));
            report.layer("cache.insert_us", median(&insert_us));
            report.layer("cache.lookup_us", median(&lookup_us));
            report.layer("sweep.checkpoint_write_us", median(&ckpt_us));
            Ok(())
        })();
        let _ = std::fs::remove_dir_all(&dir);
        report.check(result);
    }

    fn single_threaded(&self) -> bool {
        false
    }
}
