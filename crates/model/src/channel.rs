//! Micro-op state machines for the vendored channel's operations.
//!
//! Each op mirrors one method of `vendor/crossbeam/src/lib.rs` at the
//! granularity that matters for schedule exploration: lock acquisition
//! is one (possibly blocking) step, the critical-section body plus the
//! unlock is one atomic step (the vendored code holds the lock for a
//! handful of straight-line instructions, so nothing can interleave
//! inside it), and the *notify after unlock* is its own step — that
//! separation is the whole point, because the unlock→notify window is
//! where a racing waiter can park between the state change and the
//! wakeup, and the checker must explore both orders.
//!
//! [`NotifyOnDisconnect`] carries the seeded-mutant switch point: it
//! selects between the vendored discipline and a deliberately broken
//! one, so the explorer can demonstrate it distinguishes the two.

use crate::sched::{ChanId, Chooser, ThreadId, World};

/// `Sender::drop`'s last-sender notification discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyOnDisconnect {
    /// The vendored behavior: `notify_all` when `senders` hits 0, so
    /// every parked receiver observes the disconnect.
    All,
    /// Mutant: `notify_one` instead — with two or more parked
    /// receivers, all but one sleep forever.
    One,
}

/// What a completed receive produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recv {
    /// A message.
    Msg(u64),
    /// Empty queue and no live senders.
    Disconnected,
}

/// `Sender::send`: lock → push + unlock → `notify_one`, as three
/// explorer steps (the first may block on the lock).
#[derive(Debug)]
pub struct SendOp {
    chan: ChanId,
    value: u64,
    stage: SendStage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendStage {
    Lock,
    Push,
    Notify,
    Done,
}

impl SendOp {
    /// A fresh send of `value` into `chan`.
    #[must_use]
    pub fn new(chan: ChanId, value: u64) -> SendOp {
        SendOp {
            chan,
            value,
            stage: SendStage::Lock,
        }
    }

    /// One atomic step; returns `true` once the send is complete.
    pub fn step(&mut self, world: &mut World, chooser: &mut dyn Chooser, tid: ThreadId) -> bool {
        match self.stage {
            SendStage::Lock => {
                let mutex = world.chan(self.chan).mutex;
                if world.acquire(mutex, tid) {
                    self.stage = SendStage::Push;
                }
                // Whether it acquired or parked, that was the step.
                false
            }
            SendStage::Push => {
                let mutex = world.chan(self.chan).mutex;
                let state = world.chan_mut(self.chan);
                state.queue.push_back(self.value);
                let depth = state.queue.len();
                if world.is_recording() {
                    let label = world.chan(self.chan).label.clone();
                    world.record(
                        tid,
                        &format!("pushes {} into {label} (depth {depth})", self.value),
                    );
                }
                world.release(mutex, tid, chooser);
                self.stage = SendStage::Notify;
                false
            }
            SendStage::Notify => {
                let ready = world.chan(self.chan).ready;
                world.record(tid, "notifies one receiver");
                world.notify_one(ready, chooser);
                self.stage = SendStage::Done;
                true
            }
            SendStage::Done => true,
        }
    }
}

/// `Receiver::recv`: lock → loop { pop / disconnect-check / wait }, at
/// the vendored granularity. Waking from the condvar re-enters the
/// check holding the lock, exactly like the real `wait` loop.
#[derive(Debug)]
pub struct RecvOp {
    chan: ChanId,
    stage: RecvStage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecvStage {
    Lock,
    Check,
    Done,
}

impl RecvOp {
    /// A fresh receive from `chan`.
    #[must_use]
    pub fn new(chan: ChanId) -> RecvOp {
        RecvOp {
            chan,
            stage: RecvStage::Lock,
        }
    }

    /// One atomic step; `Some(result)` once the receive completes.
    pub fn step(
        &mut self,
        world: &mut World,
        chooser: &mut dyn Chooser,
        tid: ThreadId,
    ) -> Option<Recv> {
        match self.stage {
            RecvStage::Lock => {
                let mutex = world.chan(self.chan).mutex;
                if world.acquire(mutex, tid) {
                    self.stage = RecvStage::Check;
                }
                None
            }
            RecvStage::Check => {
                // A woken waiter re-enters here already holding the lock
                // (the wake hand-off in `World::wake` reacquired it).
                let mutex = world.chan(self.chan).mutex;
                let ready = world.chan(self.chan).ready;
                let state = world.chan_mut(self.chan);
                if let Some(value) = state.queue.pop_front() {
                    if world.is_recording() {
                        let label = world.chan(self.chan).label.clone();
                        world.record(tid, &format!("pops {value} from {label}"));
                    }
                    world.release(mutex, tid, chooser);
                    self.stage = RecvStage::Done;
                    return Some(Recv::Msg(value));
                }
                if state.senders == 0 {
                    if world.is_recording() {
                        let label = world.chan(self.chan).label.clone();
                        world.record(tid, &format!("sees {label} disconnected"));
                    }
                    world.release(mutex, tid, chooser);
                    self.stage = RecvStage::Done;
                    return Some(Recv::Disconnected);
                }
                // Empty and still connected: park. The wake path makes
                // the thread runnable holding the lock, and the next
                // step re-runs this check — the vendored wait loop.
                world.wait(ready, mutex, tid, chooser);
                None
            }
            RecvStage::Done => None,
        }
    }
}

/// `Sender::drop`: lock → decrement + unlock → (last sender only)
/// notify. The notify discipline is the [`NotifyOnDisconnect`] switch.
#[derive(Debug)]
pub struct DropSenderOp {
    chan: ChanId,
    notify: NotifyOnDisconnect,
    stage: DropStage,
    was_last: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DropStage {
    Lock,
    Update,
    Notify,
    Done,
}

impl DropSenderOp {
    /// A fresh sender-handle drop on `chan`.
    #[must_use]
    pub fn new(chan: ChanId, notify: NotifyOnDisconnect) -> DropSenderOp {
        DropSenderOp {
            chan,
            notify,
            stage: DropStage::Lock,
            was_last: false,
        }
    }

    /// One atomic step; returns `true` once the drop is complete.
    pub fn step(&mut self, world: &mut World, chooser: &mut dyn Chooser, tid: ThreadId) -> bool {
        match self.stage {
            DropStage::Lock => {
                let mutex = world.chan(self.chan).mutex;
                if world.acquire(mutex, tid) {
                    self.stage = DropStage::Update;
                }
                false
            }
            DropStage::Update => {
                let mutex = world.chan(self.chan).mutex;
                let state = world.chan_mut(self.chan);
                state.senders -= 1;
                self.was_last = state.senders == 0;
                if world.is_recording() {
                    let state = world.chan(self.chan);
                    let line = format!("drops a {} sender ({} left)", state.label, state.senders);
                    world.record(tid, &line);
                }
                world.release(mutex, tid, chooser);
                self.stage = if self.was_last {
                    DropStage::Notify
                } else {
                    DropStage::Done
                };
                !self.was_last
            }
            DropStage::Notify => {
                let ready = world.chan(self.chan).ready;
                match self.notify {
                    NotifyOnDisconnect::All => {
                        world.record(tid, "last sender notifies ALL receivers");
                        world.notify_all(ready);
                    }
                    NotifyOnDisconnect::One => {
                        world.record(tid, "last sender notifies only ONE receiver (mutant)");
                        world.notify_one(ready, chooser);
                    }
                }
                self.stage = DropStage::Done;
                true
            }
            DropStage::Done => true,
        }
    }
}

/// `Receiver::drop`: lock → decrement + unlock. No notify — senders
/// never block in the vendored channel, so there is nobody to wake.
#[derive(Debug)]
pub struct DropReceiverOp {
    chan: ChanId,
    stage: DropStage,
}

impl DropReceiverOp {
    /// A fresh receiver-handle drop on `chan`.
    #[must_use]
    pub fn new(chan: ChanId) -> DropReceiverOp {
        DropReceiverOp {
            chan,
            stage: DropStage::Lock,
        }
    }

    /// One atomic step; returns `true` once the drop is complete.
    pub fn step(&mut self, world: &mut World, chooser: &mut dyn Chooser, tid: ThreadId) -> bool {
        match self.stage {
            DropStage::Lock => {
                let mutex = world.chan(self.chan).mutex;
                if world.acquire(mutex, tid) {
                    self.stage = DropStage::Update;
                }
                false
            }
            DropStage::Update => {
                let mutex = world.chan(self.chan).mutex;
                let state = world.chan_mut(self.chan);
                state.receivers -= 1;
                if world.is_recording() {
                    let state = world.chan(self.chan);
                    let line = format!(
                        "drops a {} receiver ({} left)",
                        state.label, state.receivers
                    );
                    world.record(tid, &line);
                }
                world.release(mutex, tid, chooser);
                self.stage = DropStage::Done;
                true
            }
            DropStage::Notify | DropStage::Done => true,
        }
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

    /// Drives an op to completion with no contention.
    fn drain_send(world: &mut World, tid: ThreadId, mut op: SendOp) {
        let mut chooser = Fifo;
        for _ in 0..8 {
            if op.step(world, &mut chooser, tid) {
                return;
            }
        }
        panic!("send never completed");
    }

    #[test]
    fn uncontended_send_then_recv_round_trips() {
        let mut w = World::new(false);
        let t = w.add_thread("t");
        let c = w.add_channel("data", 1, 1);
        drain_send(&mut w, t, SendOp::new(c, 42));
        assert_eq!(w.chan(c).queue.len(), 1);
        let mut recv = RecvOp::new(c);
        let mut chooser = Fifo;
        let mut got = None;
        for _ in 0..8 {
            if let Some(result) = recv.step(&mut w, &mut chooser, t) {
                got = Some(result);
                break;
            }
        }
        assert_eq!(got, Some(Recv::Msg(42)));
        assert!(w.chan(c).queue.is_empty());
    }

    #[test]
    fn recv_on_disconnected_empty_channel_reports_disconnect() {
        let mut w = World::new(false);
        let t = w.add_thread("t");
        let c = w.add_channel("data", 0, 1);
        let mut recv = RecvOp::new(c);
        let mut chooser = Fifo;
        let mut got = None;
        for _ in 0..8 {
            if let Some(result) = recv.step(&mut w, &mut chooser, t) {
                got = Some(result);
                break;
            }
        }
        assert_eq!(got, Some(Recv::Disconnected));
    }
}
