//! The standalone model of the vendored channel discipline.
//!
//! [`channel_model`] checks the vendored channel in isolation: one
//! sender pushing [`ChanConfig::items`] messages then dropping,
//! [`ChanConfig::receivers`] receivers looping `recv` until disconnect.
//! The final check demands every message delivered exactly once and
//! every receiver told about the disconnect — which is precisely what
//! `notify_one` after `send` plus `notify_all` at last-sender drop
//! guarantees, and what [`Mutant::DisconnectNotifyOne`] breaks. The
//! discipline guards the channels that carry work across threads in
//! the workspace: `LiveTangram`'s worker (`crates/core/src/runtime.rs`)
//! and the sweep pool (`crates/harness/src/pool.rs`).

use crate::channel::{DropReceiverOp, DropSenderOp, NotifyOnDisconnect, Recv, RecvOp, SendOp};
use crate::mutants::Mutant;
use crate::sched::{ChanId, Chooser, Model, ModelThread, ThreadId, ViolationKind, World};

/// Shape of one standalone channel model instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChanConfig {
    /// Receiver threads looping `recv` until disconnect.
    pub receivers: usize,
    /// Messages the single sender pushes before dropping its handle.
    pub items: usize,
}

impl ChanConfig {
    /// Short display name.
    #[must_use]
    pub fn name(&self) -> String {
        format!("channel r{} n{}", self.receivers, self.items)
    }
}

/// Receiver half of the standalone channel model: loop `recv` until
/// disconnect, then drop the handle.
struct ChanReceiver {
    chan: ChanId,
    state: RState,
}

enum RState {
    Recv(RecvOp),
    DropRx(DropReceiverOp),
    Finished,
}

impl ModelThread for ChanReceiver {
    fn step(&mut self, world: &mut World, chooser: &mut dyn Chooser, tid: ThreadId) {
        match &mut self.state {
            RState::Recv(op) => match op.step(world, chooser, tid) {
                None => {}
                Some(Recv::Msg(_)) => {
                    world.bump("ok-recv");
                    self.state = RState::Recv(RecvOp::new(self.chan));
                }
                Some(Recv::Disconnected) => {
                    world.bump("disconnected-recv");
                    self.state = RState::DropRx(DropReceiverOp::new(self.chan));
                }
            },
            RState::DropRx(op) => {
                if op.step(world, chooser, tid) {
                    self.state = RState::Finished;
                    world.set_done(tid);
                }
            }
            RState::Finished => {}
        }
    }
}

/// Sender half: push every item, then drop the handle (the disconnect
/// broadcast under check).
struct ChanSender {
    chan: ChanId,
    remaining: usize,
    disconnect: NotifyOnDisconnect,
    state: SState,
}

enum SState {
    Idle,
    Send(SendOp),
    DropTx(DropSenderOp),
    Finished,
}

impl ModelThread for ChanSender {
    fn step(&mut self, world: &mut World, chooser: &mut dyn Chooser, tid: ThreadId) {
        loop {
            match &mut self.state {
                SState::Idle => {
                    if self.remaining == 0 {
                        self.state = SState::DropTx(DropSenderOp::new(self.chan, self.disconnect));
                    } else {
                        let value = self.remaining as u64;
                        self.state = SState::Send(SendOp::new(self.chan, value));
                    }
                }
                SState::Send(op) => {
                    if op.step(world, chooser, tid) {
                        self.remaining -= 1;
                        self.state = SState::Idle;
                    }
                    return;
                }
                SState::DropTx(op) => {
                    if op.step(world, chooser, tid) {
                        self.state = SState::Finished;
                        world.set_done(tid);
                    }
                    return;
                }
                SState::Finished => return,
            }
        }
    }
}

/// Builds a standalone vendored-channel model: one sender, `receivers`
/// looping receivers, `items` messages, either faithful
/// ([`Mutant::None`]) or with the seeded
/// [`Mutant::DisconnectNotifyOne`] fault.
#[must_use]
pub fn channel_model(cfg: ChanConfig, mutant: Mutant, recording: bool) -> Model {
    assert!(cfg.receivers > 0);
    let mut world = World::new(recording);
    let chan = world.add_channel("chan", 1, cfg.receivers);
    let mut threads: Vec<Box<dyn ModelThread>> = Vec::new();
    let sender = world.add_thread("sender");
    debug_assert_eq!(sender, 0);
    threads.push(Box::new(ChanSender {
        chan,
        remaining: cfg.items,
        disconnect: if mutant == Mutant::DisconnectNotifyOne {
            NotifyOnDisconnect::One
        } else {
            NotifyOnDisconnect::All
        },
        state: SState::Idle,
    }));
    for i in 0..cfg.receivers {
        world.add_thread(&format!("recv[{i}]"));
        threads.push(Box::new(ChanReceiver {
            chan,
            state: RState::Recv(RecvOp::new(chan)),
        }));
    }

    let items = cfg.items as u64;
    let receivers = cfg.receivers as u64;
    Model {
        world,
        threads,
        final_check: Some(Box::new(move |world: &World| {
            let ok = world.counter("ok-recv");
            let disc = world.counter("disconnected-recv");
            if ok != items {
                return Some((
                    ViolationKind::Protocol,
                    format!("{ok} message(s) delivered, expected {items}"),
                ));
            }
            if disc != receivers {
                return Some((
                    ViolationKind::Protocol,
                    format!("{disc} receiver(s) observed disconnect, expected {receivers}"),
                ));
            }
            None
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_names_and_counts() {
        let cfg = ChanConfig {
            receivers: 3,
            items: 1,
        };
        assert_eq!(cfg.name(), "channel r3 n1");
        let model = channel_model(cfg, Mutant::None, false);
        assert_eq!(model.threads.len(), 4, "sender + 3 receivers");
        assert_eq!(model.world.name(0), "sender");
        assert_eq!(model.world.name(3), "recv[2]");
        assert_eq!(model.world.chan(0).receivers, 3);
    }
}
