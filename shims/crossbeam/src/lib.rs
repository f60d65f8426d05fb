//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate.
//!
//! Only the [`channel`] module is provided — a genuine multi-producer
//! **multi-consumer** FIFO channel (std's `mpsc` is single-consumer, which is
//! not enough: the C5 replica hands one receiver to every worker thread).
//! The implementation is a `Mutex<VecDeque>` plus two condvars; it favours
//! simplicity over crossbeam's lock-free performance, which is fine for the
//! segment-granularity traffic this workspace puts through it. Like
//! crossbeam's, a send or receive with nobody blocked on the other side
//! wakes nobody and makes no system call. Swapping in the real crate
//! requires no source changes.

#![warn(missing_docs)]

/// Multi-producer multi-consumer channels, crossbeam-channel flavoured.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    /// A channel's state, behind its one mutex.
    ///
    /// `recv_waiting` and `send_waiting` count the threads asleep (or about
    /// to sleep) on `not_empty` and `not_full`, so a send, a receive or a
    /// disconnection with nobody waiting makes no `futex` call. No wake-up is
    /// lost: a waiter increments its count before the condvar's wait
    /// releases the mutex and decrements it after the wait reacquires it,
    /// and every change to a predicate a waiter sleeps on (the queue, the
    /// sender and receiver counts) is made under the same mutex as the read
    /// of the count that decides whether to notify. A notifier therefore
    /// counts every waiter that saw the old predicate.
    struct State<T> {
        queue: VecDeque<T>,
        capacity: Option<usize>,
        senders: usize,
        receivers: usize,
        recv_waiting: usize,
        send_waiting: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half of a channel. Cloneable.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel. Cloneable: clones share the queue,
    /// and each message is delivered to exactly one receiver.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone. The
    /// unsent message is returned in the payload.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and all
    /// senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty (but senders remain).
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    fn new_chan<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                capacity,
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// Creates a channel that holds at most `capacity` messages; sends block
    /// while it is full. A capacity of zero is treated as one (the upstream
    /// crate's zero-capacity rendezvous semantics are not needed here).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        new_chan(Some(capacity.max(1)))
    }

    /// Creates a channel with unlimited buffering; sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_chan(None)
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking while the channel is full. Fails only
        /// when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = state.capacity.is_some_and(|cap| state.queue.len() >= cap);
                if !full {
                    state.queue.push_back(value);
                    if state.recv_waiting > 0 {
                        self.chan.not_empty.notify_one();
                    }
                    return Ok(());
                }
                state.send_waiting += 1;
                state = self
                    .chan
                    .not_full
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.send_waiting -= 1;
            }
        }

        /// Number of messages currently buffered.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// Whether the buffer is currently empty.
        pub fn is_empty(&self) -> bool {
            self.chan.lock().queue.is_empty()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            state.senders -= 1;
            if state.senders == 0 && state.recv_waiting > 0 {
                // Receivers blocked in recv() must wake up and observe
                // disconnection.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one is available. Fails only
        /// when the channel is empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.chan.lock();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    if state.send_waiting > 0 {
                        self.chan.not_full.notify_one();
                    }
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.recv_waiting += 1;
                state = self
                    .chan
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.recv_waiting -= 1;
            }
        }

        /// Receives a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.chan.lock();
            if let Some(v) = state.queue.pop_front() {
                if state.send_waiting > 0 {
                    self.chan.not_full.notify_one();
                }
                return Ok(v);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of messages currently buffered.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// Whether the buffer is currently empty.
        pub fn is_empty(&self) -> bool {
            self.chan.lock().queue.is_empty()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            state.receivers -= 1;
            if state.receivers == 0 && state.send_waiting > 0 {
                // Senders blocked on a full channel must wake up and observe
                // disconnection.
                self.chan.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;

        #[test]
        fn fifo_order_single_consumer() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
        }

        #[test]
        fn cloned_receivers_partition_messages() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let n = 100;
            let h1 = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            });
            let h2 = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx2.recv() {
                    got.push(v);
                }
                got
            });
            for i in 0..n {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut all: Vec<i32> = h1.join().unwrap();
            all.extend(h2.join().unwrap());
            let unique: HashSet<i32> = all.iter().copied().collect();
            assert_eq!(unique.len(), n as usize);
        }

        #[test]
        fn bounded_send_blocks_until_recv() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let h = std::thread::spawn(move || tx.send(2));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            h.join().unwrap().unwrap();
        }

        /// Waits for `count` reports, failing instead of hanging when a
        /// thread stays asleep: the symptom of a skipped notify.
        fn expect_reports<T>(rx: &std::sync::mpsc::Receiver<T>, count: usize) -> Vec<T> {
            (0..count)
                .map(|_| {
                    rx.recv_timeout(std::time::Duration::from_secs(30))
                        .expect("a thread never returned: a notify skipped a sleeping waiter")
                })
                .collect()
        }

        /// The waiting counts must never let a send, a receive or a
        /// disconnection skip a blocked thread. A one-slot channel keeps
        /// producers and consumers blocked on each other most of the time;
        /// each side sometimes yields (seeded) so the queue drains and fills
        /// in varying orders. Every message arrives exactly once, every
        /// consumer sees the disconnection, and once all receivers are gone
        /// every sender still blocked on the full channel gets its message
        /// back.
        #[test]
        fn a_one_slot_channel_delivers_everything_once_and_sees_disconnection() {
            const PRODUCERS: u64 = 3;
            const CONSUMERS: u64 = 3;
            const PER_PRODUCER: u64 = 5_000;
            let (tx, rx) = bounded::<u64>(1);
            let (report, reports) = std::sync::mpsc::channel();
            let mut threads = Vec::new();
            for id in 0..CONSUMERS {
                let (rx, report) = (rx.clone(), report.clone());
                threads.push(std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(42 ^ id);
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                        if rng.gen_bool(0.125) {
                            std::thread::yield_now();
                        }
                    }
                    report.send(got).expect("the test thread is listening");
                }));
            }
            drop(rx);
            for id in 0..PRODUCERS {
                let tx = tx.clone();
                threads.push(std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(4242 ^ id);
                    for i in 0..PER_PRODUCER {
                        tx.send(id * PER_PRODUCER + i).expect("consumers alive");
                        if rng.gen_bool(0.125) {
                            std::thread::yield_now();
                        }
                    }
                }));
            }
            drop(tx);
            let mut all: Vec<u64> = expect_reports(&reports, CONSUMERS as usize)
                .into_iter()
                .flatten()
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
            for thread in threads.drain(..) {
                thread.join().expect("channel thread");
            }

            // Senders blocked on a full channel observe the receivers' drop.
            let (tx, rx) = bounded::<u64>(1);
            tx.send(0).expect("receiver alive");
            let (report, reports) = std::sync::mpsc::channel();
            for id in 1..=PRODUCERS {
                let (tx, report) = (tx.clone(), report.clone());
                threads.push(std::thread::spawn(move || {
                    report
                        .send(tx.send(id))
                        .expect("the test thread is listening");
                }));
            }
            // Wait until every sender is asleep on the full channel.
            while rx.chan.lock().send_waiting < PRODUCERS as usize {
                std::thread::yield_now();
            }
            drop(rx);
            let mut refused: Vec<u64> = expect_reports(&reports, PRODUCERS as usize)
                .into_iter()
                .map(|sent| sent.expect_err("no receiver is left").0)
                .collect();
            refused.sort_unstable();
            assert_eq!(refused, (1..=PRODUCERS).collect::<Vec<_>>());
            for thread in threads {
                thread.join().expect("sender thread");
            }
        }

        #[test]
        fn disconnection_is_observed() {
            let (tx, rx) = unbounded::<i32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

            let (tx, rx) = unbounded::<i32>();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }
    }
}
