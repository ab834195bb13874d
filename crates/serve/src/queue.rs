//! The sweep job queue: submitted jobs expand into cells, cells drain
//! through a fixed pool of worker threads, and every cell runs through
//! [`dct_bench::sweep::run_cell_supervised`] — the same self-healing
//! protocol (cache lookup, retry ladder, watchdog, checkpoint + cache
//! insert, quarantine) as a command-line sweep, so a queued cell and a
//! swept cell can never diverge in behavior.
//!
//! Identical in-flight cells are deduplicated by content-addressed cache
//! key: two jobs submitting the same (program, strategy, options) cell
//! share one [`CellSlot`], so the work executes at most once no matter
//! how many clients race. Cells whose key cannot be derived (compile
//! errors) skip dedup and simply record their failure.

use dct_bench::programs;
use dct_bench::sweep::{run_cell_supervised, Cell, SweepConfig, KINDS};
use dct_bench::{cell_cache_key, CacheKey, ResultStore};
use dct_ir::CancelToken;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// What the queue needs to know once, at startup.
#[derive(Clone)]
pub struct QueueConfig {
    /// Checkpoint directory for cells (the store lives elsewhere).
    pub out_dir: PathBuf,
    /// The shared content-addressed result store.
    pub store: Arc<ResultStore>,
    /// Worker threads draining the queue (cells in flight at once).
    pub workers: usize,
}

/// One cell's lifecycle. `Done` keeps the cache-hit bit so `/api/stats`
/// can prove a warm run executed nothing.
enum SlotState {
    Queued,
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

    /// `queued` / `running` / `done` — for the status endpoint.
    pub fn phase(&self) -> &'static str {
        match &*self.state.lock().unwrap_or_else(|e| e.into_inner()) {
            SlotState::Queued => "queued",
            SlotState::Running => "running",
            SlotState::Done { .. } => "done",
        }
    }

    fn set(&self, s: SlotState) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = s;
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
}

impl Job {
    pub fn finished(&self) -> usize {
        self.cells.iter().filter(|c| c.done().is_some()).count()
    }

    pub fn is_done(&self) -> bool {
        self.finished() == self.cells.len()
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
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// Cells currently queued or running, by content-addressed key —
    /// the dedup map. Entries leave when the cell finishes.
    inflight: Mutex<HashMap<CacheKey, Arc<CellSlot>>>,
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
            jobs: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
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

    /// The per-cell sweep config a worker uses for `slot`.
    fn cell_config(&self, slot: &CellSlot) -> SweepConfig {
        let mut cfg = SweepConfig::new(slot.procs, slot.scale, self.cfg.out_dir.clone());
        cfg.race_check = slot.race_check;
        cfg.cache = Some(Arc::clone(&self.cfg.store));
        cfg
    }

    /// Expand a spec into cells, dedup against in-flight work, enqueue
    /// what is new, and register the job. `Err` on an unknown benchmark
    /// or a queue that is already shut down.
    pub fn submit(&self, spec: &JobSpec) -> Result<Arc<Job>, String> {
        let suite = programs::suite(spec.scale);
        let benches: Vec<_> = match &spec.bench {
            Some(name) => {
                let b = suite
                    .into_iter()
                    .find(|b| b.name == name)
                    .ok_or_else(|| format!("unknown benchmark '{name}'"))?;
                vec![b]
            }
            None => suite,
        };
        let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let tx = tx.as_ref().ok_or("queue is shut down")?;
        let mut cells = Vec::new();
        for b in &benches {
            for kind in KINDS {
                // Mirror the sweep exactly — `seq` cells run (and are
                // keyed, and recorded) at one processor — so a queued
                // cell hits exactly the entries a sweep wrote.
                let procs = if kind == "seq" { 1 } else { spec.procs };
                let probe = {
                    let mut c = SweepConfig::new(spec.procs, spec.scale, &self.cfg.out_dir);
                    c.race_check = spec.race_check;
                    c
                };
                let key = cell_cache_key(b.name, &probe.key_inputs(&b.program, kind, procs))
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
                    state: Mutex::new(SlotState::Queued),
                });
                if let Some(k) = key {
                    inflight.insert(k, Arc::clone(&slot));
                }
                drop(inflight);
                tx.send(Arc::clone(&slot)).map_err(|_| "queue is shut down".to_string())?;
                cells.push(slot);
            }
        }
        let job = Arc::new(Job {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            procs: spec.procs,
            scale: spec.scale,
            race_check: spec.race_check,
            cells,
        });
        self.jobs.lock().unwrap_or_else(|e| e.into_inner()).insert(job.id, Arc::clone(&job));
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
        slot.set(SlotState::Running);
        let cfg = q.cell_config(&slot);
        let prog = programs::suite(slot.scale).into_iter().find(|b| b.name == slot.bench);
        let run = match prog {
            Some(b) => run_cell_supervised(&b.program, &cfg, &slot.bench, &slot.kind, slot.procs),
            None => {
                // Unreachable via submit() (it validates), but a queue
                // must never panic on a bad slot.
                let cell = Cell::new(
                    slot.bench.clone(),
                    slot.kind.clone(),
                    slot.procs,
                    slot.scale,
                    dct_bench::sweep::CellOutcome::Failed("unknown benchmark".to_string()),
                );
                dct_bench::sweep::CellRun {
                    cell,
                    retries: 0,
                    cancelled: 0,
                    quarantined: 0,
                    cache_hit: false,
                }
            }
        };
        if run.cache_hit {
            q.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            q.executed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(k) = &slot.key {
            q.inflight.lock().unwrap_or_else(|e| e.into_inner()).remove(k);
        }
        slot.set(SlotState::Done { cell: run.cell, cache_hit: run.cache_hit });
    }
}
