//! The job engine: a bounded submission queue drained by a fixed worker
//! pool, with in-flight request coalescing, an optional crash-recovery
//! journal, cancellation for queued jobs, and a graceful drain on
//! shutdown.
//!
//! Submissions check the result cache first — a hit produces a job that is
//! born `done` without ever touching the queue. A miss whose canonical key
//! matches an evaluation already queued or running *coalesces*: the new
//! job becomes a follower of that primary and every follower wakes with a
//! byte-identical result when the one evaluation completes. Only genuinely
//! new work enqueues; when the queue is full the submission is *rejected*
//! (backpressure surfaces to the HTTP layer as `429`), never silently
//! dropped. `shutdown_and_drain` stops intake, lets the workers finish
//! every accepted job, and joins them — accepted work is never lost.
//!
//! With a [`Journal`] attached, every lifecycle transition is appended as
//! a checksummed record and submissions are acknowledged only after their
//! `Submit` record is fsynced (group-committed, so concurrent submissions
//! share one fsync). [`JobEngine::with_journal`] replays the previous
//! incarnation's records: finished jobs are restored from the disk cache,
//! accepted-but-unfinished ones are re-enqueued under their original ids,
//! and determinism makes the re-evaluated bodies byte-identical.

use crate::cache::ResultCache;
use crate::journal::{Journal, Outcome, Record};
use crate::metrics::Metrics;
use crate::request::JobRequest;
use multival_par::Workers;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Stack of each job worker. Evaluation recurses over the request's model
/// and formula; the parsers cap their nesting at what fits a 2 MiB stack
/// (`multival_pa::parser::MAX_DEPTH`), and workers get the 8 MiB a CLI
/// main thread has, so both surfaces run a job with the same headroom.
const WORKER_STACK_BYTES: usize = 8 << 20;

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is evaluating it.
    Running,
    /// Finished; the result body is available.
    Done,
    /// Evaluation failed; the error message is available.
    Failed,
    /// Cancelled while still queued.
    Cancelled,
}

impl JobState {
    /// The wire name used in status responses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// A point-in-time copy of one job's externally visible state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSnapshot {
    /// Current lifecycle state.
    pub state: JobState,
    /// Deterministic result JSON (done jobs only).
    pub result: Option<String>,
    /// Failure message (failed jobs only).
    pub error: Option<String>,
    /// Whether the result came from the cache.
    pub cached: bool,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; retry later.
    QueueFull,
    /// The engine is shutting down.
    ShuttingDown,
}

struct Job {
    request: JobRequest,
    canonical: String,
    state: JobState,
    result: Option<String>,
    error: Option<String>,
    cached: bool,
    submitted: Instant,
    /// Jobs coalesced behind this one (primary side).
    followers: Vec<u64>,
    /// The primary this job coalesced behind (follower side).
    coalesced_into: Option<u64>,
}

impl Job {
    fn new(request: JobRequest, canonical: String, submitted: Instant) -> Job {
        Job {
            request,
            canonical,
            state: JobState::Queued,
            result: None,
            error: None,
            cached: false,
            submitted,
            followers: Vec::new(),
            coalesced_into: None,
        }
    }
}

struct EngineState {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    /// canonical key → primary job id, for every evaluation queued or
    /// running right now. Entries are removed when the primary finishes,
    /// *after* its result entered the cache — so under this lock a miss in
    /// both the cache and this map means genuinely new work.
    in_flight: HashMap<String, u64>,
    shutting_down: bool,
}

struct Inner {
    state: Mutex<EngineState>,
    work_ready: Condvar,
    queue_cap: usize,
    cache: Arc<ResultCache>,
    metrics: Arc<Metrics>,
    journal: Option<Arc<Journal>>,
    mc_workers: usize,
}

impl Inner {
    /// Buffers a journal record; returns the sequence to pass to
    /// [`Inner::journal_sync`] (0 when no journal is attached).
    fn journal_append(&self, record: &Record) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.append(record))
    }

    /// Waits until the journal is durable through `seq`.
    fn journal_sync(&self, seq: u64) {
        if let Some(j) = &self.journal {
            j.sync(seq);
        }
    }
}

/// The engine: owns the queue, the worker pool, and the jobs table.
pub struct JobEngine {
    inner: Arc<Inner>,
    next_id: AtomicU64,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl JobEngine {
    /// Starts `workers` evaluation threads over a queue holding at most
    /// `queue_cap` waiting jobs. `mc_workers` sizes the Monte-Carlo pool
    /// *inside* each evaluation (estimates are identical for any value).
    #[must_use]
    pub fn new(
        workers: usize,
        queue_cap: usize,
        mc_workers: usize,
        cache: Arc<ResultCache>,
        metrics: Arc<Metrics>,
    ) -> JobEngine {
        JobEngine::with_journal(workers, queue_cap, mc_workers, cache, metrics, None, Vec::new())
    }

    /// Like [`JobEngine::new`], but with an optional journal for durability
    /// and the records replayed from it. Replayed jobs keep their original
    /// ids: terminal ones are restored in place (done bodies come from the
    /// disk cache), accepted-but-unfinished ones re-enqueue — coalescing by
    /// canonical key as they go — and are evaluated again, which is safe
    /// because evaluation is deterministic.
    #[must_use]
    pub fn with_journal(
        workers: usize,
        queue_cap: usize,
        mc_workers: usize,
        cache: Arc<ResultCache>,
        metrics: Arc<Metrics>,
        journal: Option<Arc<Journal>>,
        replayed: Vec<Record>,
    ) -> JobEngine {
        let mut state = EngineState {
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            in_flight: HashMap::new(),
            shutting_down: false,
        };
        let max_id = replay(&mut state, &cache, &metrics, replayed);
        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            queue_cap: queue_cap.max(1),
            cache,
            metrics,
            journal,
            mc_workers: mc_workers.max(1),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn svc worker")
            })
            .collect();
        JobEngine { inner, next_id: AtomicU64::new(max_id + 1), workers: Mutex::new(handles) }
    }

    /// Submits a request. A cache hit returns a job that is already
    /// `done`; a key matching an in-flight evaluation coalesces behind it;
    /// otherwise the job enqueues for the worker pool. With a journal
    /// attached, this returns only after the job's `Submit` record is on
    /// disk.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after [`JobEngine::shutdown_and_drain`]
    /// has begun. Coalesced submissions bypass the queue-capacity check —
    /// they consume no queue slot.
    pub fn submit(&self, request: JobRequest) -> Result<u64, SubmitError> {
        let canonical = request.canonical();
        let now = Instant::now();
        let mut st = self.inner.state.lock().expect("engine state poisoned");
        if st.shutting_down {
            Metrics::bump(&self.inner.metrics.rejected_shutdown);
            return Err(SubmitError::ShuttingDown);
        }
        // The cache probe happens under the engine lock on purpose: a
        // finishing primary publishes to the cache *before* it removes its
        // in_flight entry (also under this lock), so a submission can never
        // slip between the two and re-evaluate work that just completed.
        if let Some(body) = self.inner.cache.get(&canonical) {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            Metrics::bump(&self.inner.metrics.accepted);
            Metrics::bump(&self.inner.metrics.cache_served);
            Metrics::bump(&self.inner.metrics.done);
            self.inner.metrics.latency.record(now.elapsed());
            let mut job = Job::new(request, canonical.clone(), now);
            job.state = JobState::Done;
            job.result = Some(body);
            job.cached = true;
            st.jobs.insert(id, job);
            self.inner.journal_append(&Record::Submit { id, canonical });
            let seq = self.inner.journal_append(&Record::Finish { id, outcome: Outcome::Done });
            drop(st);
            self.inner.journal_sync(seq);
            return Ok(id);
        }
        if let Some(&primary) = st.in_flight.get(&canonical) {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            Metrics::bump(&self.inner.metrics.accepted);
            Metrics::bump(&self.inner.metrics.coalesced);
            let mut job = Job::new(request, canonical.clone(), now);
            job.coalesced_into = Some(primary);
            st.jobs.get_mut(&primary).expect("in-flight primary exists").followers.push(id);
            st.jobs.insert(id, job);
            let seq = self.inner.journal_append(&Record::Submit { id, canonical });
            drop(st);
            self.inner.journal_sync(seq);
            return Ok(id);
        }
        if st.queue.len() >= self.inner.queue_cap {
            Metrics::bump(&self.inner.metrics.rejected_queue_full);
            return Err(SubmitError::QueueFull);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Metrics::bump(&self.inner.metrics.accepted);
        Metrics::bump(&self.inner.metrics.queued);
        st.jobs.insert(id, Job::new(request, canonical.clone(), now));
        st.in_flight.insert(canonical.clone(), id);
        st.queue.push_back(id);
        self.inner.work_ready.notify_one();
        // The Submit record is buffered before the lock drops (so a fast
        // worker's later records cannot precede it in the file), and made
        // durable before the caller can acknowledge the job.
        let seq = self.inner.journal_append(&Record::Submit { id, canonical });
        drop(st);
        self.inner.journal_sync(seq);
        Ok(id)
    }

    /// Snapshot of one job, or `None` for unknown ids. A queued follower
    /// reports `running` while its primary runs — externally the two are
    /// one evaluation.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        let st = self.inner.state.lock().expect("engine state poisoned");
        let job = st.jobs.get(&id)?;
        let mut state = job.state;
        if state == JobState::Queued {
            if let Some(primary) = job.coalesced_into {
                if st.jobs.get(&primary).is_some_and(|p| p.state == JobState::Running) {
                    state = JobState::Running;
                }
            }
        }
        Some(JobSnapshot {
            state,
            result: job.result.clone(),
            error: job.error.clone(),
            cached: job.cached,
        })
    }

    /// Cancels a job that is still queued. Running or finished jobs are
    /// not cancellable; returns whether the cancellation took effect.
    ///
    /// Cancelling a coalesced follower detaches only that follower — the
    /// shared evaluation keeps running for everyone else. Cancelling a
    /// queued primary with followers promotes the first follower into the
    /// primary's queue slot, so the remaining submissions still evaluate
    /// exactly once.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = self.inner.state.lock().expect("engine state poisoned");
        let Some(job) = st.jobs.get(&id) else { return false };
        if job.state != JobState::Queued {
            return false;
        }
        if let Some(primary) = job.coalesced_into {
            // A follower: its primary may already be running — that is
            // fine, only this follower detaches.
            if let Some(p) = st.jobs.get_mut(&primary) {
                p.followers.retain(|&f| f != id);
            }
            let job = st.jobs.get_mut(&id).expect("job exists");
            job.state = JobState::Cancelled;
            job.coalesced_into = None;
        } else {
            // A queued primary. Promote its first follower in place so
            // coalesced submissions behind it are not orphaned.
            let (canonical, mut followers) = {
                let job = st.jobs.get_mut(&id).expect("job exists");
                job.state = JobState::Cancelled;
                (job.canonical.clone(), std::mem::take(&mut job.followers))
            };
            if followers.is_empty() {
                st.queue.retain(|&q| q != id);
                st.in_flight.remove(&canonical);
            } else {
                let heir = followers.remove(0);
                for &f in &followers {
                    st.jobs.get_mut(&f).expect("follower exists").coalesced_into = Some(heir);
                }
                {
                    let h = st.jobs.get_mut(&heir).expect("follower exists");
                    h.coalesced_into = None;
                    h.followers = followers;
                }
                for slot in &mut st.queue {
                    if *slot == id {
                        *slot = heir;
                    }
                }
                st.in_flight.insert(canonical, heir);
            }
        }
        Metrics::bump(&self.inner.metrics.cancelled);
        let seq = self.inner.journal_append(&Record::Cancel { id });
        drop(st);
        self.inner.journal_sync(seq);
        true
    }

    /// Number of jobs waiting in the queue right now.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().expect("engine state poisoned").queue.len()
    }

    /// Stops intake, waits for every accepted job to finish, and joins the
    /// worker pool. Idempotent. With a journal attached, flushes it last.
    pub fn shutdown_and_drain(&self) {
        {
            let mut st = self.inner.state.lock().expect("engine state poisoned");
            st.shutting_down = true;
            self.inner.work_ready.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
        if let Some(j) = &self.inner.journal {
            j.sync_all();
        }
    }
}

impl Drop for JobEngine {
    fn drop(&mut self) {
        self.shutdown_and_drain();
    }
}

/// Rebuilds engine state from replayed journal records. Returns the
/// largest job id seen, so fresh ids continue after it.
fn replay(
    state: &mut EngineState,
    cache: &ResultCache,
    metrics: &Metrics,
    records: Vec<Record>,
) -> u64 {
    let mut order: Vec<u64> = Vec::new();
    let mut max_id = 0u64;
    for record in records {
        match record {
            Record::Submit { id, canonical } => {
                max_id = max_id.max(id);
                let job = match JobRequest::from_json_text(&canonical) {
                    Ok(request) => Job::new(request, canonical, Instant::now()),
                    Err(message) => {
                        // Canonical text is produced by us; failing to
                        // parse it back means the journal predates the
                        // current format. Surface that as a failed job
                        // rather than dropping the id.
                        let mut job = Job::new(
                            JobRequest::from_json_text(
                                "{\"kind\":\"explore\",\"model\":{\"builtin\":\"xstream_pipeline\"}}",
                            )
                            .expect("minimal request parses"),
                            String::new(),
                            Instant::now(),
                        );
                        job.state = JobState::Failed;
                        job.error = Some(format!("journal replay: {message}"));
                        job
                    }
                };
                if job.state != JobState::Failed {
                    order.push(id);
                }
                state.jobs.insert(id, job);
            }
            // A Start without a Finish means the crash interrupted the
            // evaluation; the job stays queued and re-runs.
            Record::Start { .. } => {}
            Record::Finish { id, outcome } => {
                if let Some(job) = state.jobs.get_mut(&id) {
                    match outcome {
                        Outcome::Done => job.state = JobState::Done,
                        Outcome::Failed(message) => {
                            job.state = JobState::Failed;
                            job.error = Some(message);
                        }
                    }
                }
            }
            Record::Cancel { id } => {
                if let Some(job) = state.jobs.get_mut(&id) {
                    job.state = JobState::Cancelled;
                }
            }
        }
    }
    // Resolve bodies and re-enqueue, in original submission order.
    for id in order {
        Metrics::bump(&metrics.recovered);
        let canonical = {
            let job = state.jobs.get_mut(&id).expect("replayed job exists");
            if job.state == JobState::Done || job.state == JobState::Queued {
                if let Some(body) = cache.get(&job.canonical) {
                    // The disk tier survived the crash: restore in place.
                    job.state = JobState::Done;
                    job.result = Some(body);
                    job.cached = true;
                } else if job.state == JobState::Done {
                    // Finished before the crash but the body is gone —
                    // re-evaluate; determinism reproduces it byte for byte.
                    job.state = JobState::Queued;
                }
            }
            job.canonical.clone()
        };
        match state.jobs.get(&id).expect("replayed job exists").state {
            JobState::Queued => {
                if let Some(&primary) = state.in_flight.get(&canonical) {
                    Metrics::bump(&metrics.coalesced);
                    state.jobs.get_mut(&id).expect("job exists").coalesced_into = Some(primary);
                    state.jobs.get_mut(&primary).expect("primary exists").followers.push(id);
                } else {
                    Metrics::bump(&metrics.queued);
                    state.in_flight.insert(canonical, id);
                    state.queue.push_back(id);
                }
            }
            JobState::Done => Metrics::bump(&metrics.done),
            JobState::Failed => Metrics::bump(&metrics.failed),
            JobState::Cancelled => Metrics::bump(&metrics.cancelled),
            JobState::Running => unreachable!("replay never leaves a job running"),
        }
    }
    max_id
}

fn worker_loop(inner: &Inner) {
    let mc = Workers::new(inner.mc_workers);
    loop {
        let (id, request, canonical) = {
            let mut st = inner.state.lock().expect("engine state poisoned");
            loop {
                if let Some(id) = st.queue.pop_front() {
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    inner.journal_append(&Record::Start { id });
                    break (id, job.request.clone(), job.canonical.clone());
                }
                if st.shutting_down {
                    return;
                }
                st = inner.work_ready.wait(st).expect("engine state poisoned");
            }
        };
        // Evaluation runs outside the lock; this is the expensive part.
        let outcome = request.evaluate(mc).map(|json| json.to_string());
        Metrics::bump(&inner.metrics.evaluated);
        if let Ok(body) = &outcome {
            // Only successful results enter the cache: errors and tripped
            // budgets must re-run on resubmission. Publishing *before*
            // taking the lock (and before the in_flight entry goes away)
            // is what lets `submit` treat cache-miss + in-flight-miss as
            // proof of new work.
            inner.cache.put(&canonical, body);
        }
        let mut st = inner.state.lock().expect("engine state poisoned");
        st.in_flight.remove(&canonical);
        let followers = {
            let job = st.jobs.get_mut(&id).expect("running job exists");
            std::mem::take(&mut job.followers)
        };
        let mut last_seq = 0u64;
        for &member in std::iter::once(&id).chain(followers.iter()) {
            let job = st.jobs.get_mut(&member).expect("coalesced job exists");
            match &outcome {
                Ok(body) => {
                    job.state = JobState::Done;
                    job.result = Some(body.clone());
                    Metrics::bump(&inner.metrics.done);
                }
                Err(message) => {
                    job.state = JobState::Failed;
                    job.error = Some(message.clone());
                    Metrics::bump(&inner.metrics.failed);
                }
            }
            job.coalesced_into = None;
            inner.metrics.latency.record(job.submitted.elapsed());
            let rec_outcome = match &outcome {
                Ok(_) => Outcome::Done,
                Err(message) => Outcome::Failed(message.clone()),
            };
            last_seq = inner.journal_append(&Record::Finish { id: member, outcome: rec_outcome });
        }
        drop(st);
        // Terminal records are not ACKed to anyone, but flushing them now
        // keeps restart-after-crash from re-running finished work.
        inner.journal_sync(last_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::Duration;

    fn engine(workers: usize, queue_cap: usize) -> (JobEngine, Arc<ResultCache>, Arc<Metrics>) {
        let cache = Arc::new(ResultCache::new(64, None).expect("cache"));
        let metrics = Arc::new(Metrics::default());
        (
            JobEngine::new(workers, queue_cap, 1, Arc::clone(&cache), Arc::clone(&metrics)),
            cache,
            metrics,
        )
    }

    fn explore_request() -> JobRequest {
        JobRequest::from_json_text(r#"{"kind":"explore","model":{"builtin":"xstream_pipeline"}}"#)
            .expect("request")
    }

    /// A distinct job slow enough to pin a worker while a test submits
    /// behind it: five interleaved bounded queues explore 9^5 = 59049
    /// states. (A built-in model explores in a few milliseconds, which let
    /// the worker finish before the submissions it was meant to hold back.)
    fn slow_request() -> JobRequest {
        let source = "process Queue[enq, deq](n: int 0..8, c: int 1..8) := \
                      [n < c] -> enq; Queue[enq, deq](n + 1, c) \
                      [] [n > 0] -> deq; Queue[enq, deq](n - 1, c) endproc \
                      behaviour Queue[a, b](0, 8) ||| Queue[c, d](0, 8) ||| Queue[e, f](0, 8) \
                      ||| Queue[g, h](0, 8) ||| Queue[i, j](0, 8)";
        JobRequest::from_json_text(&format!(
            r#"{{"kind":"explore","model":{{"source":"{source}"}}}}"#
        ))
        .expect("request")
    }

    fn wait_done(engine: &JobEngine, id: u64) -> JobSnapshot {
        for _ in 0..2000 {
            let snap = engine.status(id).expect("job exists");
            if !matches!(snap.state, JobState::Queued | JobState::Running) {
                return snap;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never finished");
    }

    #[test]
    fn submit_evaluate_and_cache_on_resubmit() {
        let (engine, cache, metrics) = engine(2, 8);
        let first = engine.submit(explore_request()).expect("accepted");
        let snap = wait_done(&engine, first);
        assert_eq!(snap.state, JobState::Done);
        assert!(!snap.cached);
        let body = snap.result.expect("result body");

        let second = engine.submit(explore_request()).expect("accepted");
        let snap2 = engine.status(second).expect("job exists");
        assert_eq!(snap2.state, JobState::Done, "cache hits are born done");
        assert!(snap2.cached);
        assert_eq!(snap2.result.as_deref(), Some(body.as_str()), "byte-identical");
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(Metrics::get(&metrics.done), 2);
        assert_eq!(Metrics::get(&metrics.cache_served), 1);
        assert_eq!(Metrics::get(&metrics.evaluated), 1);
    }

    #[test]
    fn failures_are_reported_and_not_cached() {
        let (engine, cache, metrics) = engine(1, 8);
        let req = JobRequest::from_json_text(
            r#"{"kind":"explore","model":{"source":"behaviour undefined_gate_syntax ->"}}"#,
        )
        .expect("request parses; model is bad");
        let id = engine.submit(req.clone()).expect("accepted");
        let snap = wait_done(&engine, id);
        assert_eq!(snap.state, JobState::Failed);
        assert!(snap.error.is_some());
        assert_eq!(cache.stats().resident, 0, "errors never enter the cache");
        assert_eq!(Metrics::get(&metrics.failed), 1);

        let again = engine.submit(req).expect("accepted");
        let snap = wait_done(&engine, again);
        assert_eq!(snap.state, JobState::Failed, "failures re-run, not served stale");
    }

    #[test]
    fn full_queue_rejects_but_never_drops() {
        let (engine, _cache, metrics) = engine(1, 1);
        // Flood one worker with distinct requests (the varying seed keeps
        // them out of the cache): submissions far outpace evaluation, so
        // the bounded queue must reject some — and every *accepted* job
        // must still finish.
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for seed in 0..64 {
            let req = JobRequest::from_json_text(&format!(
                r#"{{"kind":"explore","model":{{"builtin":"xstream_pipeline"}},"seed":{seed}}}"#
            ))
            .expect("request");
            match engine.submit(req) {
                Ok(id) => accepted.push(id),
                Err(SubmitError::QueueFull) => rejected += 1,
                Err(SubmitError::ShuttingDown) => panic!("not shutting down"),
            }
        }
        assert!(rejected > 0, "a bounded queue of 1 must reject under a flood");
        assert_eq!(Metrics::get(&metrics.rejected_queue_full), rejected);
        assert_eq!(metrics.rejected(), rejected);
        for id in accepted {
            assert_eq!(wait_done(&engine, id).state, JobState::Done, "accepted jobs finish");
        }
    }

    #[test]
    fn identical_submissions_coalesce_into_one_evaluation() {
        let (engine, _cache, metrics) = engine(1, 4);
        // Pin the single worker on a slow distinct job, then pile identical
        // submissions behind it: the first takes the queue slot, the rest
        // coalesce (bypassing the queue cap of 4 would not even be needed —
        // but with 8 submissions it is exercised too).
        let blocker = engine.submit(slow_request()).expect("accepted");
        for _ in 0..2000 {
            if engine.status(blocker).expect("exists").state == JobState::Running {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let ids: Vec<u64> = (0..8)
            .map(|_| engine.submit(explore_request()).expect("coalesced, never 429"))
            .collect();
        assert_eq!(Metrics::get(&metrics.coalesced), 7, "one primary, seven followers");
        assert!(engine.queue_depth() <= 1, "followers consume no queue slots");
        let bodies: Vec<String> = ids
            .iter()
            .map(|&id| {
                let snap = wait_done(&engine, id);
                assert_eq!(snap.state, JobState::Done);
                snap.result.expect("body")
            })
            .collect();
        assert!(bodies.windows(2).all(|w| w[0] == w[1]), "byte-identical bodies");
        wait_done(&engine, blocker);
        assert_eq!(
            Metrics::get(&metrics.evaluated),
            2,
            "blocker + exactly one evaluation for all eight"
        );
    }

    #[test]
    fn cancel_only_affects_queued_jobs() {
        let (engine, _cache, metrics) = engine(1, 8);
        let running = engine.submit(slow_request()).expect("accepted");
        let queued = engine.submit(explore_request()).expect("accepted");
        let cancelled = engine.cancel(queued);
        let done = wait_done(&engine, running);
        assert_eq!(done.state, JobState::Done);
        if cancelled {
            assert_eq!(engine.status(queued).expect("exists").state, JobState::Cancelled);
            assert_eq!(Metrics::get(&metrics.cancelled), 1);
            assert!(!engine.cancel(queued), "cancel is not idempotent-true");
        } else {
            // The worker grabbed it first; it must then run to completion.
            let snap = wait_done(&engine, queued);
            assert_eq!(snap.state, JobState::Done);
        }
        assert!(!engine.cancel(running), "finished jobs cannot be cancelled");
        assert!(!engine.cancel(999_999), "unknown ids cannot be cancelled");
    }

    #[test]
    fn cancelling_a_follower_leaves_the_shared_evaluation_alone() {
        let (engine, _cache, metrics) = engine(1, 8);
        let blocker = engine.submit(slow_request()).expect("accepted");
        let primary = engine.submit(explore_request()).expect("accepted");
        let follower = engine.submit(explore_request()).expect("accepted");
        let keeper = engine.submit(explore_request()).expect("accepted");
        assert_eq!(Metrics::get(&metrics.coalesced), 2);
        assert!(engine.cancel(follower), "queued follower is cancellable");
        assert_eq!(engine.status(follower).expect("exists").state, JobState::Cancelled);
        for id in [blocker, primary, keeper] {
            let snap = wait_done(&engine, id);
            assert_eq!(snap.state, JobState::Done);
        }
        assert_eq!(
            engine.status(follower).expect("exists").state,
            JobState::Cancelled,
            "a finished primary must not resurrect a cancelled follower"
        );
        assert!(engine.status(follower).expect("exists").result.is_none());
    }

    #[test]
    fn cancelling_a_queued_primary_promotes_its_first_follower() {
        let (engine, _cache, metrics) = engine(1, 8);
        let blocker = engine.submit(slow_request()).expect("accepted");
        let primary = engine.submit(explore_request()).expect("accepted");
        let f1 = engine.submit(explore_request()).expect("accepted");
        let f2 = engine.submit(explore_request()).expect("accepted");
        if !engine.cancel(primary) {
            // The worker already grabbed the primary (blocker finished
            // first) — nothing to promote; everyone just completes.
            for id in [blocker, primary, f1, f2] {
                assert_eq!(wait_done(&engine, id).state, JobState::Done);
            }
            return;
        }
        assert_eq!(engine.status(primary).expect("exists").state, JobState::Cancelled);
        let s1 = wait_done(&engine, f1);
        let s2 = wait_done(&engine, f2);
        assert_eq!(s1.state, JobState::Done, "promoted follower still evaluates");
        assert_eq!(s2.state, JobState::Done);
        assert_eq!(s1.result, s2.result, "byte-identical");
        wait_done(&engine, blocker);
        assert_eq!(
            Metrics::get(&metrics.evaluated),
            2,
            "promotion keeps it at one shared evaluation"
        );
    }

    #[test]
    fn drain_finishes_accepted_work_then_rejects() {
        let (engine, _cache, metrics) = engine(2, 16);
        // Distinct seeds so drain exercises real queue work, not coalescing.
        let ids: Vec<u64> = (0..6)
            .map(|seed| {
                let req = JobRequest::from_json_text(&format!(
                    r#"{{"kind":"explore","model":{{"builtin":"xstream_pipeline"}},"seed":{seed}}}"#
                ))
                .expect("request");
                engine.submit(req).expect("accepted")
            })
            .collect();
        engine.shutdown_and_drain();
        for id in ids {
            let snap = engine.status(id).expect("job exists");
            assert_eq!(snap.state, JobState::Done, "drain must finish accepted jobs");
        }
        assert_eq!(engine.submit(explore_request()), Err(SubmitError::ShuttingDown));
        assert_eq!(Metrics::get(&metrics.rejected_shutdown), 1);
        assert_eq!(Metrics::get(&metrics.done), 6);
        assert_eq!(engine.queue_depth(), 0);
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("multival-svc-job-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_replay_restores_done_jobs_and_reruns_interrupted_ones() {
        let dir = temp_dir("replay");
        let cache_dir = dir.join("cache");
        let done_body;
        let done_id;
        let pending_id;
        {
            // First incarnation: one job completes, one is accepted but
            // "crashes" before a worker touches it (we simulate the crash
            // by writing its Submit record without ever enqueuing it).
            let cache = Arc::new(ResultCache::new(16, Some(cache_dir.clone())).expect("cache"));
            let metrics = Arc::new(Metrics::default());
            let (journal, replayed) = Journal::open(&dir).expect("journal");
            assert!(replayed.is_empty());
            let journal = Arc::new(journal);
            let engine = JobEngine::with_journal(
                1,
                8,
                1,
                cache,
                metrics,
                Some(Arc::clone(&journal)),
                Vec::new(),
            );
            done_id = engine.submit(explore_request()).expect("accepted");
            let snap = wait_done(&engine, done_id);
            assert_eq!(snap.state, JobState::Done);
            done_body = snap.result.expect("body");
            pending_id = done_id + 1;
            journal.append_sync(&Record::Submit {
                id: pending_id,
                canonical: slow_request().canonical(),
            });
            engine.shutdown_and_drain();
        }
        // Second incarnation: same journal dir, same cache dir.
        let cache = Arc::new(ResultCache::new(16, Some(cache_dir)).expect("cache"));
        let metrics = Arc::new(Metrics::default());
        let (journal, replayed) = Journal::open(&dir).expect("journal");
        assert!(!replayed.is_empty());
        let engine = JobEngine::with_journal(
            1,
            8,
            1,
            cache,
            Arc::clone(&metrics),
            Some(Arc::new(journal)),
            replayed,
        );
        assert_eq!(Metrics::get(&metrics.recovered), 2);
        let restored = engine.status(done_id).expect("done job survives restart");
        assert_eq!(restored.state, JobState::Done);
        assert!(restored.cached, "restored from the disk cache tier");
        assert_eq!(restored.result.as_deref(), Some(done_body.as_str()), "byte-identical");
        let rerun = wait_done(&engine, pending_id);
        assert_eq!(rerun.state, JobState::Done, "interrupted job re-runs to completion");
        // Fresh ids continue past the replayed ones.
        let fresh = engine.submit(explore_request()).expect("accepted");
        assert!(fresh > pending_id);
        let _ = std::fs::remove_dir_all(dir);
    }
}
