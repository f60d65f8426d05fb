//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate.
//!
//! Only the [`channel`] module is provided — a genuine multi-producer
//! **multi-consumer** FIFO channel (std's `mpsc` is single-consumer, which is
//! not enough: the C5 replica hands one receiver to every worker thread).
//! The implementation is a `Mutex<VecDeque>` plus two condvars; it favours
//! simplicity over crossbeam's lock-free performance, which is fine for the
//! segment-granularity traffic this workspace puts through it. Swapping in
//! the real crate requires no source changes.

#![warn(missing_docs)]

/// Multi-producer multi-consumer channels, crossbeam-channel flavoured.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        capacity: Option<usize>,
        senders: usize,
        receivers: usize,
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

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for TryRecvError {}

    fn new_chan<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                capacity,
                senders: 1,
                receivers: 1,
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
                    self.chan.not_empty.notify_one();
                    return Ok(());
                }
                state = self
                    .chan
                    .not_full
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
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
            if state.senders == 0 {
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
                    self.chan.not_full.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .chan
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Receives a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.chan.lock();
            if let Some(v) = state.queue.pop_front() {
                self.chan.not_full.notify_one();
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

        /// A blocking iterator over received messages; ends when the channel
        /// closes.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
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
            if state.receivers == 0 {
                // Senders blocked on a full channel must wake up and observe
                // disconnection.
                self.chan.not_full.notify_all();
            }
        }
    }

    /// Blocking iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<'a, T> Iterator for Iter<'a, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
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
