//! The modelled world: mock mutexes, condvars and channel state, plus
//! the per-thread run states the schedule explorer drives.
//!
//! Everything here is *modelled*, not real: threads are state machines
//! stepped cooperatively by [`crate::explorer::Explorer`], a mutex is an
//! owner plus a waiter queue, a condvar is a waiter set, and a channel
//! is the vendored crossbeam channel's state (`queue`/`senders`/
//! `receivers`) guarded by one mutex and one condvar — exactly the
//! shape of `vendor/crossbeam/src/lib.rs`. Each call into a [`World`]
//! operation is one *atomic step*; the explorer owns every ordering
//! decision between steps, so the full nondeterminism of the real
//! runtime (which thread runs, which waiter a `notify_one` wakes, which
//! contender gets a released lock) becomes an enumerable choice tree.
//!
//! Blocking is explicit: an acquire on a held mutex or a condvar wait
//! parks the thread in [`RunState::Blocked`], and the explorer simply
//! never schedules a blocked thread. A state where no thread is
//! runnable and not all are done is a deadlock — and if any parked
//! thread sits on a channel condvar whose wake-up predicate already
//! holds (queued data, or a disconnect it was never told about), the
//! deadlock is classified as the sharper *lost wakeup*.

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Index of a modelled thread.
pub type ThreadId = usize;
/// Index of a modelled mutex.
pub type MutexId = usize;
/// Index of a modelled condvar.
pub type CondvarId = usize;
/// Index of a modelled channel.
pub type ChanId = usize;

/// What a parked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Parked in a mutex's waiter queue.
    Mutex(MutexId),
    /// Parked in a condvar's waiter set (mutex released).
    Condvar(CondvarId),
}

/// A modelled thread's scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Eligible for the next scheduling decision.
    Runnable,
    /// Parked; never scheduled until woken.
    Blocked(BlockReason),
    /// Finished; never scheduled again.
    Done,
}

/// The safety properties the explorer checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// No runnable thread, at least one not done, and no parked thread's
    /// predicate holds — a genuine cyclic wait.
    Deadlock,
    /// A thread is parked on a condvar whose wake-up predicate already
    /// holds: a notification was dropped or mis-targeted.
    LostWakeup,
    /// A protocol-level assertion failed (a step budget blew, a final
    /// count came out wrong).
    Protocol,
}

impl ViolationKind {
    /// Stable display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::LostWakeup => "lost wakeup",
            ViolationKind::Protocol => "protocol assertion failed",
        }
    }
}

/// The source of every nondeterministic decision. The explorer hands an
/// implementation to each step; enumerating all return values
/// enumerates all schedules.
pub trait Chooser {
    /// Picks one of `options` alternatives (`options ≥ 1`; the return
    /// value is `< options`).
    fn choose(&mut self, options: usize) -> usize;
}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<ThreadId>,
    waiters: Vec<ThreadId>,
}

#[derive(Debug, Default)]
struct CondvarState {
    /// Parked threads with the mutex each must reacquire on wake.
    waiters: Vec<(ThreadId, MutexId)>,
}

/// The vendored channel's shared state: one mutex, one condvar, a FIFO
/// queue and the two endpoint counts — the exact fields of
/// `vendor/crossbeam`'s `State`/`Shared`.
#[derive(Debug)]
pub struct ChanState {
    /// Diagnostic name (`chan`, …).
    pub label: String,
    /// Guards `queue`, `senders` and `receivers`.
    pub mutex: MutexId,
    /// The single condvar senders notify and receivers wait on.
    pub ready: CondvarId,
    /// Queued messages (opaque payloads).
    pub queue: VecDeque<u64>,
    /// Live sender handles.
    pub senders: usize,
    /// Live receiver handles.
    pub receivers: usize,
}

/// The modelled shared state: sync primitives, channels, run states and
/// (when recording) a human-readable step log.
#[derive(Debug, Default)]
pub struct World {
    mutexes: Vec<MutexState>,
    condvars: Vec<CondvarState>,
    channels: Vec<ChanState>,
    run: Vec<RunState>,
    names: Vec<String>,
    /// First safety violation observed (halts the schedule).
    pub violation: Option<(ViolationKind, String)>,
    /// Model-specific counters (`ok-recv`, `disconnected-recv`, …) for
    /// end-of-run assertions.
    pub counters: BTreeMap<&'static str, u64>,
    /// Step log, filled only when `recording`.
    pub log: Vec<String>,
    recording: bool,
}

impl World {
    /// A fresh world; `recording` turns on the step log (used to render
    /// a failing schedule).
    #[must_use]
    pub fn new(recording: bool) -> World {
        World {
            recording,
            ..World::default()
        }
    }

    /// Registers a thread; the returned id doubles as its scheduling
    /// slot.
    pub fn add_thread(&mut self, name: &str) -> ThreadId {
        self.run.push(RunState::Runnable);
        self.names.push(name.to_string());
        self.run.len() - 1
    }

    /// A thread's diagnostic name.
    #[must_use]
    pub fn name(&self, tid: ThreadId) -> &str {
        &self.names[tid]
    }

    /// A thread's current run state.
    #[must_use]
    pub fn state(&self, tid: ThreadId) -> RunState {
        self.run[tid]
    }

    /// Marks a thread finished.
    pub fn set_done(&mut self, tid: ThreadId) {
        self.record(tid, "done");
        self.run[tid] = RunState::Done;
    }

    /// Threads eligible for the next scheduling decision, in id order.
    #[must_use]
    pub fn runnable(&self) -> Vec<ThreadId> {
        (0..self.run.len())
            .filter(|&t| self.run[t] == RunState::Runnable)
            .collect()
    }

    /// Allocation-free variant of [`World::runnable`] for the
    /// explorer's hot loop: clears and refills `out`.
    pub fn runnable_into(&self, out: &mut Vec<ThreadId>) {
        out.clear();
        out.extend((0..self.run.len()).filter(|&t| self.run[t] == RunState::Runnable));
    }

    /// `true` once every thread is done.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.run.iter().all(|s| *s == RunState::Done)
    }

    /// Records a safety violation (first one wins; the schedule halts).
    pub fn fail(&mut self, kind: ViolationKind, detail: String) {
        if self.violation.is_none() {
            self.violation = Some((kind, detail));
        }
    }

    /// `true` when the step log is being captured. Callers building
    /// expensive log strings should guard on this — the explorer runs
    /// hundreds of thousands of silent schedules per recorded one.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Appends to the step log when recording.
    pub fn record(&mut self, tid: ThreadId, what: &str) {
        if self.recording {
            let line = format!("{}: {what}", self.names[tid]);
            self.log.push(line);
        }
    }

    /// Allocates a mutex.
    pub fn add_mutex(&mut self) -> MutexId {
        self.mutexes.push(MutexState::default());
        self.mutexes.len() - 1
    }

    /// Allocates a condvar.
    pub fn add_condvar(&mut self) -> CondvarId {
        self.condvars.push(CondvarState::default());
        self.condvars.len() - 1
    }

    /// Allocates a channel with its own mutex and condvar.
    pub fn add_channel(&mut self, label: &str, senders: usize, receivers: usize) -> ChanId {
        let mutex = self.add_mutex();
        let ready = self.add_condvar();
        self.channels.push(ChanState {
            label: label.to_string(),
            mutex,
            ready,
            queue: VecDeque::new(),
            senders,
            receivers,
        });
        self.channels.len() - 1
    }

    /// Read access to a channel's state.
    #[must_use]
    pub fn chan(&self, c: ChanId) -> &ChanState {
        &self.channels[c]
    }

    /// Write access to a channel's state. The caller must hold the
    /// channel's mutex (asserted by the channel ops).
    pub fn chan_mut(&mut self, c: ChanId) -> &mut ChanState {
        &mut self.channels[c]
    }

    /// All channels, for deadlock classification.
    #[must_use]
    pub fn channels(&self) -> &[ChanState] {
        &self.channels
    }

    /// `true` when `tid` currently owns `m`.
    #[must_use]
    pub fn owns(&self, m: MutexId, tid: ThreadId) -> bool {
        self.mutexes[m].owner == Some(tid)
    }

    /// One atomic acquire attempt: takes the mutex if free (or already
    /// owned by `tid` after a hand-off), otherwise parks the thread in
    /// the waiter queue and returns `false`.
    pub fn acquire(&mut self, m: MutexId, tid: ThreadId) -> bool {
        if self.mutexes[m].owner == Some(tid) {
            return true;
        }
        if self.mutexes[m].owner.is_none() {
            self.mutexes[m].owner = Some(tid);
            self.record(tid, "acquires the lock");
            return true;
        }
        self.mutexes[m].waiters.push(tid);
        self.run[tid] = RunState::Blocked(BlockReason::Mutex(m));
        self.record(tid, "blocks on the lock");
        false
    }

    /// Releases `m`, handing it directly to one waiter when any are
    /// parked — *which* waiter is a scheduling decision.
    pub fn release(&mut self, m: MutexId, tid: ThreadId, chooser: &mut dyn Chooser) {
        debug_assert!(self.owns(m, tid), "release without ownership");
        if self.mutexes[m].waiters.is_empty() {
            self.mutexes[m].owner = None;
            return;
        }
        let pick = chooser.choose(self.mutexes[m].waiters.len());
        let next = self.mutexes[m].waiters.remove(pick);
        self.mutexes[m].owner = Some(next);
        self.run[next] = RunState::Runnable;
        self.record(next, "is handed the lock");
    }

    /// Atomically releases `m` and parks `tid` on `cv` — the real
    /// condvar's wait contract, which is exactly what makes
    /// check-then-wait race-free when the check runs under the mutex.
    pub fn wait(&mut self, cv: CondvarId, m: MutexId, tid: ThreadId, chooser: &mut dyn Chooser) {
        debug_assert!(self.owns(m, tid), "wait without ownership");
        self.release(m, tid, chooser);
        self.condvars[cv].waiters.push((tid, m));
        self.run[tid] = RunState::Blocked(BlockReason::Condvar(cv));
        self.record(tid, "waits on the condvar");
    }

    /// Wakes one waiter — *which* one is a scheduling decision, the
    /// nondeterminism that makes `notify_one` disciplines checkable. A
    /// no-op with no waiters (a real notify is not queued).
    pub fn notify_one(&mut self, cv: CondvarId, chooser: &mut dyn Chooser) {
        if self.condvars[cv].waiters.is_empty() {
            return;
        }
        let pick = chooser.choose(self.condvars[cv].waiters.len());
        let (tid, m) = self.condvars[cv].waiters.remove(pick);
        self.wake(tid, m);
    }

    /// Wakes every waiter, in park order.
    pub fn notify_all(&mut self, cv: CondvarId) {
        let waiters = std::mem::take(&mut self.condvars[cv].waiters);
        for (tid, m) in waiters {
            self.wake(tid, m);
        }
    }

    /// Post-wake reacquisition: the woken thread re-contends for its
    /// mutex — it either takes a free lock and becomes runnable, or
    /// parks in the mutex's waiter queue.
    fn wake(&mut self, tid: ThreadId, m: MutexId) {
        if self.mutexes[m].owner.is_none() {
            self.mutexes[m].owner = Some(tid);
            self.run[tid] = RunState::Runnable;
            self.record(tid, "is woken and retakes the lock");
        } else {
            self.mutexes[m].waiters.push(tid);
            self.run[tid] = RunState::Blocked(BlockReason::Mutex(m));
            self.record(tid, "is woken and re-contends for the lock");
        }
    }

    /// Classifies a stuck state (no runnable thread, not all done).
    ///
    /// If any thread is parked on a channel's `ready` condvar while the
    /// wake-up predicate it is waiting for already holds — queued data,
    /// or a disconnect it was never told about — a notification was
    /// dropped and the failure is the sharper [`ViolationKind::LostWakeup`].
    /// Otherwise it is a plain [`ViolationKind::Deadlock`].
    #[must_use]
    pub fn classify_stuck(&self) -> (ViolationKind, String) {
        for chan in &self.channels {
            let parked = &self.condvars[chan.ready].waiters;
            if parked.is_empty() {
                continue;
            }
            let queued = chan.queue.len();
            if queued > 0 || chan.senders == 0 {
                let who: Vec<&str> = parked.iter().map(|&(t, _)| self.name(t)).collect();
                let why = if queued > 0 {
                    format!("{queued} message(s) queued")
                } else {
                    "all senders gone".to_string()
                };
                return (
                    ViolationKind::LostWakeup,
                    format!(
                        "{} parked on {} with {why} — a wakeup was dropped",
                        who.join(", "),
                        chan.label
                    ),
                );
            }
        }
        let mut stuck = Vec::new();
        for (tid, state) in self.run.iter().enumerate() {
            if let RunState::Blocked(reason) = state {
                let on = match reason {
                    BlockReason::Mutex(_) => "a lock",
                    BlockReason::Condvar(cv) => self
                        .channels
                        .iter()
                        .find(|c| c.ready == *cv)
                        .map_or("a condvar", |c| c.label.as_str()),
                };
                stuck.push(format!("{} on {on}", self.names[tid]));
            }
        }
        (
            ViolationKind::Deadlock,
            format!("no runnable thread; blocked: {}", stuck.join(", ")),
        )
    }

    /// Bumps a model counter.
    pub fn bump(&mut self, key: &'static str) {
        *self.counters.entry(key).or_insert(0) += 1;
    }

    /// A model counter's value (0 when never bumped).
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

/// One modelled thread: a resumable state machine the explorer steps.
///
/// A call to [`ModelThread::step`] performs **exactly one atomic
/// action** (possibly after any number of pure control transitions that
/// touch no shared state). A step that blocks the thread counts as its
/// action; the explorer will not step the thread again until a wake
/// makes it runnable.
pub trait ModelThread {
    /// Performs the thread's next atomic action.
    fn step(&mut self, world: &mut World, chooser: &mut dyn Chooser, tid: ThreadId);
}

/// An end-of-run assertion over the completed world (counters, queues).
pub type FinalCheck = Box<dyn Fn(&World) -> Option<(ViolationKind, String)>>;

/// A complete model: the shared world, the threads, and an optional
/// end-of-run check evaluated once every thread is done.
pub struct Model {
    /// The shared state.
    pub world: World,
    /// Threads, indexed by [`ThreadId`].
    pub threads: Vec<Box<dyn ModelThread>>,
    /// Final assertion over the completed world (counters, queues).
    pub final_check: Option<FinalCheck>,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("threads", &self.threads.len())
            .field("channels", &self.world.channels.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fifo;
    impl Chooser for Fifo {
        fn choose(&mut self, _options: usize) -> usize {
            0
        }
    }

    #[test]
    fn acquire_release_and_handoff() {
        let mut w = World::new(false);
        let a = w.add_thread("a");
        let b = w.add_thread("b");
        let m = w.add_mutex();
        assert!(w.acquire(m, a));
        assert!(!w.acquire(m, b), "held lock parks the second thread");
        assert_eq!(w.state(b), RunState::Blocked(BlockReason::Mutex(m)));
        w.release(m, a, &mut Fifo);
        assert!(w.owns(m, b), "release hands the lock to the waiter");
        assert_eq!(w.state(b), RunState::Runnable);
    }

    #[test]
    fn wait_parks_and_notify_rewakes_with_the_lock() {
        let mut w = World::new(false);
        let a = w.add_thread("a");
        let m = w.add_mutex();
        let cv = w.add_condvar();
        assert!(w.acquire(m, a));
        w.wait(cv, m, a, &mut Fifo);
        assert_eq!(w.state(a), RunState::Blocked(BlockReason::Condvar(cv)));
        assert!(!w.owns(m, a), "wait released the mutex");
        w.notify_one(cv, &mut Fifo);
        assert!(w.owns(m, a), "wake retakes the free mutex");
        assert_eq!(w.state(a), RunState::Runnable);
    }

    #[test]
    fn notify_without_waiters_is_lost() {
        let mut w = World::new(false);
        let _ = w.add_thread("a");
        let cv = w.add_condvar();
        // Must not panic and must not queue anything for later.
        w.notify_one(cv, &mut Fifo);
        w.notify_all(cv);
    }
}
