//! Time-step replay: simulate a repeating time step once.
//!
//! Most of the paper's benchmarks are time loops whose nests never
//! mention the step number ([`crate::schedule::Schedule::time_invariant`]),
//! so every step sends the machine the same access stream. The machine is
//! a deterministic function of its state and that stream: once the state
//! at the start of a step equals the state at the start of the step
//! before, that step and every later one must cost and count exactly what
//! the one before did. The executor therefore digests the machine at each
//! step boundary ([`dct_machine::Machine::state_digest`]) while recording
//! the step — the busy cycles of every lane walk in call order, and each
//! nest's per-processor counter changes — and on the first repeated
//! digest stops sending accesses to the machine: the remaining steps run
//! values-only on the unchanged control flow, take each walk's busy
//! cycles from the tape, and add each nest's counter changes when the
//! nest ends, so clocks and statistics are exact at every point where a
//! budget is checked.
//!
//! A profiled run replays the same way. The profiler is a deterministic
//! function of its own classification state and the events the machine
//! sends it, so that state joins the boundary digest
//! ([`dct_profile::Profiler::boundary_digest`]) and each nest's changes to
//! its counter rows join the tape; a replayed step then sends the profiler
//! nothing and adds the recorded rows when the nest ends. The race
//! detector is not replayed and needs no digest: it reads the executor's
//! segments and sync points, never the machine, and both are walked in
//! full in every step, so it keeps running live and its vector clocks are
//! free to grow.
//!
//! The reference walk never replays; that is the differential. Debug
//! builds also keep the previous boundary's state and compare it word for
//! word whenever the digests match.

use dct_ir::MemRow;
use dct_machine::{Machine, ProcStats, StateDigest};
use dct_profile::Profiler;

/// Why a run replayed time steps or did not. Observability only: never
/// feeds cycles, statistics or a cache key. Ordered by how far the run
/// got towards a replay, which is how sums of runs fold it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemoOutcome {
    /// Fewer than three time steps: two are simulated before anything can
    /// repeat.
    #[default]
    NoTimeLoop,
    /// `fast_path` off: the reference walk is the oracle and never replays.
    ReferenceWalk,
    /// Some bound, subscript, offset or gate uses the time parameter.
    TimeDependent,
    /// A cache level is associative: its LRU ticks never repeat.
    Associative,
    /// Eligible, but no two consecutive step boundaries had equal state.
    NoRecurrence,
    /// At least one step was replayed.
    Replayed,
}

enum Mode {
    /// Not eligible, or gave up.
    Off,
    /// Eligible; step 0 (cold caches) is not worth recording.
    Armed,
    /// Recording the current step against `digest`, taken at its start.
    Recording,
    /// Every remaining step repeats the recorded one.
    Replaying,
}

/// Consecutive boundaries without a recurrence after which digesting stops.
const MAX_MISMATCHES: u32 = 3;

/// The recorder and replayer of one run (see the module docs).
pub(crate) struct StepMemo {
    mode: Mode,
    pub(crate) outcome: MemoOutcome,
    pub(crate) replayed_steps: u64,
    /// Time steps begun so far.
    pub(crate) steps: u64,
    digest: u128,
    mismatches: u32,
    /// Busy cycles of every lane walk of the recorded step, in call order.
    tape: Vec<u64>,
    /// Next tape entry of the step being replayed.
    pos: usize,
    /// Per-processor counter changes of each nest of the recorded step,
    /// nest-major.
    deltas: Vec<ProcStats>,
    /// Nests finished in the step being replayed.
    nest: usize,
    /// Counters when the recorded step's current nest began.
    mark: Vec<ProcStats>,
    /// With a profiler attached: what each nest of the recorded step added
    /// to the counter rows of its site, nest-major, and every row as the
    /// recorded step's current nest found it.
    row_deltas: Vec<MemRow>,
    row_mark: Vec<MemRow>,
    /// The state behind `digest`, for the exact comparison.
    #[cfg(debug_assertions)]
    image: Option<Vec<u64>>,
}

/// The state a time step starts from, digested: the machine's, and the
/// attached profiler's folded in behind it. `None` when the machine has
/// no digest.
fn boundary_digest(machine: &Machine, profiler: Option<&mut Profiler>) -> Option<u128> {
    let m = machine.state_digest()?;
    let Some(p) = profiler else { return Some(m) };
    let q = p.boundary_digest();
    let mut d = StateDigest::default();
    for w in [m as u64, (m >> 64) as u64, q as u64, (q >> 64) as u64] {
        d.word(w);
    }
    Some(d.finish())
}

/// The words behind [`boundary_digest`].
#[cfg(debug_assertions)]
fn boundary_image(machine: &Machine, profiler: Option<&mut Profiler>) -> Option<Vec<u64>> {
    let mut v = machine.state_image()?;
    if let Some(p) = profiler {
        v.extend(p.state_image());
    }
    Some(v)
}

impl StepMemo {
    /// `outcome` is the verdict before the run; only `NoRecurrence`
    /// (eligible, nothing seen yet) arms the recorder.
    pub(crate) fn new(outcome: MemoOutcome) -> StepMemo {
        StepMemo {
            mode: if outcome == MemoOutcome::NoRecurrence { Mode::Armed } else { Mode::Off },
            outcome,
            replayed_steps: 0,
            steps: 0,
            digest: 0,
            mismatches: 0,
            tape: Vec::new(),
            pos: 0,
            deltas: Vec::new(),
            nest: 0,
            mark: Vec::new(),
            row_deltas: Vec::new(),
            row_mark: Vec::new(),
            #[cfg(debug_assertions)]
            image: None,
        }
    }

    /// Walks skip the machine and the profiler: their accesses are already
    /// accounted for.
    pub(crate) fn replaying(&self) -> bool {
        matches!(self.mode, Mode::Replaying)
    }

    /// The next time step is about to start.
    pub(crate) fn begin_step(&mut self, machine: &Machine, mut profiler: Option<&mut Profiler>) {
        self.steps += 1;
        self.pos = 0;
        self.nest = 0;
        match self.mode {
            Mode::Off => return,
            Mode::Replaying => {
                self.replayed_steps += 1;
                return;
            }
            Mode::Armed if self.steps == 1 => return,
            Mode::Armed | Mode::Recording => {}
        }
        let Some(digest) = boundary_digest(machine, profiler.as_deref_mut()) else {
            self.outcome = MemoOutcome::Associative;
            self.mode = Mode::Off;
            return;
        };
        if matches!(self.mode, Mode::Recording) {
            if digest == self.digest {
                #[cfg(debug_assertions)]
                assert!(
                    boundary_image(machine, profiler.as_deref_mut()) == self.image,
                    "state digests match at step {} but the machine or profiler states differ",
                    self.steps - 1
                );
                self.mode = Mode::Replaying;
                self.outcome = MemoOutcome::Replayed;
                self.replayed_steps = 1;
                return;
            }
            self.mismatches += 1;
            if self.mismatches == MAX_MISMATCHES {
                self.mode = Mode::Off;
                return;
            }
        }
        self.mode = Mode::Recording;
        self.digest = digest;
        #[cfg(debug_assertions)]
        {
            self.image = boundary_image(machine, profiler.as_deref_mut());
        }
        self.tape.clear();
        self.deltas.clear();
        self.mark.clear();
        self.mark.extend_from_slice(&machine.stats.per_proc);
        self.row_deltas.clear();
        self.row_mark.clear();
        if let Some(p) = profiler {
            self.row_mark.extend_from_slice(p.rows());
        }
    }

    /// One lane walk returned `busy` cycles: keep it while recording; when
    /// replaying, the walk skipped its accesses and the recorded step's
    /// figure stands in.
    #[inline]
    pub(crate) fn walk_busy(&mut self, busy: u64) -> u64 {
        match self.mode {
            Mode::Off | Mode::Armed => busy,
            Mode::Recording => {
                self.tape.push(busy);
                busy
            }
            Mode::Replaying => {
                self.pos += 1;
                self.tape[self.pos - 1]
            }
        }
    }

    /// A nest of the time loop finished: record what it added to the
    /// per-processor counters and to the profiler's rows for its site (the
    /// only rows a nest can change), or add what it added in the recorded
    /// step.
    pub(crate) fn end_nest(&mut self, per_proc: &mut [ProcStats], profiler: Option<&mut Profiler>) {
        match self.mode {
            Mode::Off | Mode::Armed => {}
            Mode::Recording => {
                for (now, was) in per_proc.iter().zip(&mut self.mark) {
                    self.deltas.push(now.since(was));
                    *was = *now;
                }
                if let Some(p) = profiler {
                    let site = p.site_range();
                    for (now, was) in p.rows()[site.clone()].iter().zip(&mut self.row_mark[site]) {
                        self.row_deltas.push(now.since(was));
                        *was = *now;
                    }
                }
            }
            Mode::Replaying => {
                let n = per_proc.len();
                for (s, d) in per_proc.iter_mut().zip(&self.deltas[self.nest * n..][..n]) {
                    s.add(d);
                }
                if let Some(p) = profiler {
                    let n = p.site_range().len();
                    p.add_site_rows(&self.row_deltas[self.nest * n..][..n]);
                }
                self.nest += 1;
            }
        }
    }
}
