//! The sweep job queue: submitted jobs expand into cells, cells drain
//! through a fixed pool of worker threads, and every cell runs through
//! [`dct_bench::sweep::compute_cell_supervised`] — the same self-healing
//! protocol (cache lookup, retry ladder, watchdog, cache insert,
//! quarantine) as a command-line sweep, so a queued cell and a swept cell
//! can never diverge in behavior. The store is the only thing a cell
//! writes.
//!
//! Identical in-flight cells are deduplicated by content-addressed cache
//! key: two jobs submitting the same (program, strategy, options) cell
//! share one [`CellSlot`], so the work executes at most once no matter
//! how many clients race. Cells whose key cannot be derived (compile
//! errors) skip dedup and simply record their failure.
//!
//! A job builds its programs and derives its keys once, at submit; each
//! slot carries both to the worker, so a cell that hits the store costs
//! the look-up. The compile behind a key is remembered per (program,
//! strategy) for the life of the queue ([`KeyMemo`]).

use dct_bench::programs;
use dct_bench::sweep::{compute_cell_supervised, Cell, CellTask, SweepConfig, KINDS};
use dct_bench::{CacheKey, KeyMemo, ResultStore};
use dct_ir::{program_fingerprint, CancelToken, Program};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// Finished jobs a queue remembers; older ones answer like unknown ids.
/// Unfinished jobs are always kept.
pub const MAX_FINISHED_JOBS: usize = 4096;

/// What the queue needs to know once, at startup.
#[derive(Clone)]
pub struct QueueConfig {
    /// The shared content-addressed result store.
    pub store: Arc<ResultStore>,
    /// Worker threads draining the queue (cells in flight at once).
    pub workers: usize,
}

/// One cell's lifecycle. `Queued` holds the program (shared by the four
/// kinds of its benchmark) until a worker takes it, so a finished slot
/// keeps none. `Done` keeps the cache-hit bit so `/api/stats` can prove a
/// warm run executed nothing.
enum SlotState {
    Queued(Arc<Program>),
    Running,
    Done { cell: Cell, cache_hit: bool },
}

/// One unit of work, shared by every job that submitted it.
pub struct CellSlot {
    pub bench: String,
    pub kind: String,
    pub procs: usize,
    pub scale: f64,
    pub race_check: bool,
    /// `None` when key derivation failed (the run will record why).
    key: Option<CacheKey>,
    state: Mutex<SlotState>,
}

impl CellSlot {
    /// The finished cell, if any.
    pub fn done(&self) -> Option<(Cell, bool)> {
        match &*self.state.lock().unwrap_or_else(|e| e.into_inner()) {
            SlotState::Done { cell, cache_hit } => Some((cell.clone(), *cache_hit)),
            _ => None,
        }
    }

    pub fn is_done(&self) -> bool {
        matches!(&*self.state.lock().unwrap_or_else(|e| e.into_inner()), SlotState::Done { .. })
    }

    /// `queued` / `running` / `done` — for the status endpoint.
    pub fn phase(&self) -> &'static str {
        match &*self.state.lock().unwrap_or_else(|e| e.into_inner()) {
            SlotState::Queued(_) => "queued",
            SlotState::Running => "running",
            SlotState::Done { .. } => "done",
        }
    }

    /// Queued -> Running, handing the program to the worker. `None` for a
    /// slot that was already taken.
    fn start(&self) -> Option<Arc<Program>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match std::mem::replace(&mut *state, SlotState::Running) {
            SlotState::Queued(prog) => Some(prog),
            other => {
                *state = other;
                None
            }
        }
    }

    fn finish(&self, cell: Cell, cache_hit: bool) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) =
            SlotState::Done { cell, cache_hit };
    }
}

/// A submitted sweep: a set of cell slots (possibly shared with other
/// jobs) plus the parameters needed to render its table.
pub struct Job {
    pub id: u64,
    pub procs: usize,
    pub scale: f64,
    pub race_check: bool,
    pub cells: Vec<Arc<CellSlot>>,
    /// Set once every cell has been seen done (cells never leave `Done`).
    /// Publishes nothing: each cell's state is behind its own mutex.
    done: AtomicBool,
}

impl Job {
    pub fn finished(&self) -> usize {
        self.cells.iter().filter(|c| c.is_done()).count()
    }

    pub fn is_done(&self) -> bool {
        if self.done.load(Ordering::Relaxed) {
            return true;
        }
        let done = self.finished() == self.cells.len();
        if done {
            self.done.store(true, Ordering::Relaxed);
        }
        done
    }

    /// The finished cells, in submit order (holes skipped).
    pub fn done_cells(&self) -> Vec<Cell> {
        self.cells.iter().filter_map(|s| s.done().map(|(c, _)| c)).collect()
    }
}

/// What a client may ask for in `POST /api/sweep`.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Restrict to one benchmark (`None` = whole suite).
    pub bench: Option<String>,
    pub scale: f64,
    pub procs: usize,
    pub race_check: bool,
}

pub struct JobQueue {
    cfg: QueueConfig,
    /// Sender side of the work channel; dropped on shutdown so workers
    /// drain and exit.
    tx: Mutex<Option<mpsc::Sender<Arc<CellSlot>>>>,
    /// Every unfinished job and the [`MAX_FINISHED_JOBS`] finished ones
    /// submitted last, by id (ids rise with submit order).
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    /// Cells currently queued or running, by content-addressed key —
    /// the dedup map. Entries leave when the cell finishes.
    inflight: Mutex<HashMap<CacheKey, Arc<CellSlot>>>,
    /// The compile part of every key this queue has derived.
    key_memo: KeyMemo,
    next_id: AtomicU64,
    /// Cells that actually entered the compute path (not cache hits).
    pub executed: AtomicU64,
    /// Cells served by the store without executing.
    pub cache_hits: AtomicU64,
    /// Submissions that piggybacked on an identical in-flight cell.
    pub deduped: AtomicU64,
    cancel: CancelToken,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl JobQueue {
    /// Start the queue: spawn `cfg.workers` worker threads (at least one).
    pub fn start(cfg: QueueConfig) -> Arc<JobQueue> {
        let (tx, rx) = mpsc::channel::<Arc<CellSlot>>();
        let rx = Arc::new(Mutex::new(rx));
        let q = Arc::new(JobQueue {
            cfg,
            tx: Mutex::new(Some(tx)),
            jobs: Mutex::new(BTreeMap::new()),
            inflight: Mutex::new(HashMap::new()),
            key_memo: KeyMemo::default(),
            next_id: AtomicU64::new(1),
            executed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            cancel: CancelToken::new(),
            workers: Mutex::new(Vec::new()),
        });
        let n = q.cfg.workers.max(1);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let q2 = Arc::clone(&q);
            let rx2 = Arc::clone(&rx);
            handles.push(thread::spawn(move || worker_loop(&q2, &rx2)));
        }
        *q.workers.lock().unwrap_or_else(|e| e.into_inner()) = handles;
        q
    }

    /// The per-cell sweep config of a job's cells: what a worker runs
    /// `slot` under, and what its key is derived from.
    fn cell_config(&self, procs: usize, scale: f64, race_check: bool) -> SweepConfig {
        let mut cfg = SweepConfig::plain(procs, scale);
        cfg.race_check = race_check;
        cfg.cache = Some(Arc::clone(&self.cfg.store));
        cfg
    }

    /// Expand a spec into cells, dedup against in-flight work, enqueue
    /// what is new, and register the job. `Err` on an unknown benchmark
    /// or a queue that is already shut down.
    pub fn submit(&self, spec: &JobSpec) -> Result<Arc<Job>, String> {
        if self.is_cancelled() {
            return Err("queue is shut down".to_string());
        }
        let mut benches = programs::suite(spec.scale);
        if let Some(name) = &spec.bench {
            benches.retain(|b| b.name == name);
            if benches.is_empty() {
                return Err(format!("unknown benchmark '{name}'"));
            }
        }
        let probe = self.cell_config(spec.procs, spec.scale, spec.race_check);
        let mut cells = Vec::new();
        let mut fresh = Vec::new();
        // Keys are derived (compiling, on a memo miss) with no lock held
        // that another client's submit or `shutdown` waits for.
        for b in benches {
            let source_fp = program_fingerprint(&b.program);
            let prog = Arc::new(b.program);
            for kind in KINDS {
                // Mirror the sweep exactly — `seq` cells run (and are
                // keyed, and recorded) at one processor — so a queued
                // cell hits exactly the entries a sweep wrote.
                let procs = if kind == "seq" { 1 } else { spec.procs };
                let key = self
                    .key_memo
                    .cell_key(b.name, source_fp, &probe.key_inputs(&prog, kind, procs))
                    .map_err(|e| eprintln!("[serve: key derivation failed for {}/{kind}: {e}]", b.name))
                    .ok();
                let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(existing) = key.as_ref().and_then(|k| inflight.get(k)) {
                    self.deduped.fetch_add(1, Ordering::Relaxed);
                    cells.push(Arc::clone(existing));
                    continue;
                }
                let slot = Arc::new(CellSlot {
                    bench: b.name.to_string(),
                    kind: kind.to_string(),
                    procs,
                    scale: spec.scale,
                    race_check: spec.race_check,
                    key: key.clone(),
                    state: Mutex::new(SlotState::Queued(Arc::clone(&prog))),
                });
                if let Some(k) = key {
                    inflight.insert(k, Arc::clone(&slot));
                }
                drop(inflight);
                fresh.push(Arc::clone(&slot));
                cells.push(slot);
            }
        }
        {
            let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
            let tx = tx.as_ref().ok_or("queue is shut down")?;
            for slot in fresh {
                tx.send(slot).map_err(|_| "queue is shut down".to_string())?;
            }
        }
        let job = Arc::new(Job {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            procs: spec.procs,
            scale: spec.scale,
            race_check: spec.race_check,
            cells,
            done: AtomicBool::new(false),
        });
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.insert(job.id, Arc::clone(&job));
        if jobs.len() > MAX_FINISHED_JOBS {
            let finished: Vec<u64> =
                jobs.values().filter(|j| j.is_done()).map(|j| j.id).collect();
            let excess = finished.len().saturating_sub(MAX_FINISHED_JOBS);
            for id in &finished[..excess] {
                jobs.remove(id);
            }
        }
        Ok(job)
    }

    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner()).get(&id).cloned()
    }

    pub fn job_count(&self) -> usize {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn inflight_count(&self) -> usize {
        self.inflight.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Key prefixes this queue derived by compiling.
    pub fn keys_derived(&self) -> u64 {
        self.key_memo.derived.load(Ordering::Relaxed)
    }

    /// Keys this queue finished from a remembered compile.
    pub fn key_memo_hits(&self) -> u64 {
        self.key_memo.hits.load(Ordering::Relaxed)
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Stop accepting work, let running cells finish, join the workers.
    /// Queued-but-unstarted cells stay `queued` forever; their jobs
    /// simply never report done (clients see the shutdown instead).
    pub fn shutdown(&self) {
        self.cancel.cancel();
        // Dropping the sender closes the channel; workers drain and exit.
        *self.tx.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let handles =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(q: &Arc<JobQueue>, rx: &Arc<Mutex<mpsc::Receiver<Arc<CellSlot>>>>) {
    loop {
        // Hold the receiver lock only for the recv itself.
        let slot = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let slot = match slot {
            Ok(s) => s,
            Err(_) => return, // channel closed: shutdown
        };
        if q.is_cancelled() {
            // Leave the slot queued; shutdown is already in progress.
            continue;
        }
        // A slot is sent once, so it is still queued; the program leaves
        // the slot here and is dropped when the cell is done.
        let Some(prog) = slot.start() else { continue };
        let cfg = q.cell_config(slot.procs, slot.scale, slot.race_check);
        let task = CellTask {
            prog: &prog,
            bench: &slot.bench,
            kind: &slot.kind,
            procs: slot.procs,
            variant: dct_bench::Variant::Default,
        };
        let run = compute_cell_supervised(&task, &cfg, slot.key.as_ref());
        if run.cache_hit {
            q.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            q.executed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(k) = &slot.key {
            q.inflight.lock().unwrap_or_else(|e| e.into_inner()).remove(k);
        }
        slot.finish(run.cell, run.cache_hit);
    }
}
