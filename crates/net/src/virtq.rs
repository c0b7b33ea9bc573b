//! Bounded frame queues with wake hooks: the substrate under both the
//! in-memory duplex transport and the reactor's virtual connections.
//!
//! A [`VirtQueue`] is a capacity-bounded MPSC/SPSC frame buffer with
//! blocking *and* non-blocking ends. The blocking end parks on a
//! condvar like a socket would; the non-blocking end (the reactor) gets
//! edge notifications through optional hooks — `on_push` when a frame
//! arrives and `on_drain` when a full queue gains space — so an event
//! loop never has to poll thousands of idle queues.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use crate::NetError;

/// Callback fired by a [`VirtQueue`] edge transition (new frame, space
/// regained, queue closed). Must be cheap and must never block.
pub type QueueHook = Arc<dyn Fn() + Send + Sync>;

/// Outcome of a non-blocking pop.
#[derive(Debug)]
pub enum TryPop {
    /// A frame was dequeued.
    Frame(Vec<u8>),
    /// The queue is currently empty (but still open).
    Empty,
    /// The queue is empty and closed — no more frames will ever arrive.
    Closed,
}

/// Outcome of a non-blocking push.
#[derive(Debug)]
pub enum TryPush {
    /// The frame was enqueued.
    Pushed,
    /// The queue is at capacity; the frame is handed back.
    Full(Vec<u8>),
    /// The queue is closed; the frame is dropped.
    Closed,
}

struct QState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
}

/// A bounded, closable frame queue (see the module docs).
pub struct VirtQueue {
    state: Mutex<QState>,
    cv: Condvar,
    cap: usize,
    on_push: Option<QueueHook>,
    on_drain: Option<QueueHook>,
}

impl std::fmt::Debug for VirtQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtQueue").field("cap", &self.cap).finish()
    }
}

impl VirtQueue {
    /// Creates a queue holding at most `cap` frames, with optional edge
    /// hooks (`on_push` fires after a frame lands or the queue closes;
    /// `on_drain` fires when a pop frees space in a previously-full
    /// queue, or the queue closes).
    #[must_use]
    pub fn new(cap: usize, on_push: Option<QueueHook>, on_drain: Option<QueueHook>) -> VirtQueue {
        VirtQueue {
            state: Mutex::new(QState {
                frames: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
            on_push,
            on_drain,
        }
    }

    /// Enqueues `frame`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] once the queue has been closed.
    pub fn push(&self, frame: Vec<u8>) -> Result<(), NetError> {
        {
            let mut st = self.state.lock().unwrap();
            loop {
                if st.closed {
                    return Err(NetError::Closed);
                }
                if st.frames.len() < self.cap {
                    break;
                }
                st = self.cv.wait(st).unwrap();
            }
            st.frames.push_back(frame);
        }
        self.cv.notify_all();
        if let Some(hook) = &self.on_push {
            hook();
        }
        Ok(())
    }

    /// Enqueues `frame` without blocking.
    pub fn try_push(&self, frame: Vec<u8>) -> TryPush {
        {
            let mut st = self.state.lock().unwrap();
            if st.closed {
                return TryPush::Closed;
            }
            if st.frames.len() >= self.cap {
                return TryPush::Full(frame);
            }
            st.frames.push_back(frame);
        }
        self.cv.notify_all();
        if let Some(hook) = &self.on_push {
            hook();
        }
        TryPush::Pushed
    }

    /// Dequeues the next frame, blocking while the queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] once the queue is both empty and
    /// closed (buffered frames are still delivered after a close).
    pub fn pop(&self) -> Result<Vec<u8>, NetError> {
        let (frame, was_full) = {
            let mut st = self.state.lock().unwrap();
            loop {
                if let Some(frame) = st.frames.pop_front() {
                    break (frame, st.frames.len() + 1 >= self.cap);
                }
                if st.closed {
                    return Err(NetError::Closed);
                }
                st = self.cv.wait(st).unwrap();
            }
        };
        self.cv.notify_all();
        if was_full {
            if let Some(hook) = &self.on_drain {
                hook();
            }
        }
        Ok(frame)
    }

    /// Dequeues the next frame without blocking.
    pub fn try_pop(&self) -> TryPop {
        let (frame, was_full) = {
            let mut st = self.state.lock().unwrap();
            match st.frames.pop_front() {
                Some(frame) => (frame, st.frames.len() + 1 >= self.cap),
                None if st.closed => return TryPop::Closed,
                None => return TryPop::Empty,
            }
        };
        self.cv.notify_all();
        if was_full {
            if let Some(hook) = &self.on_drain {
                hook();
            }
        }
        TryPop::Frame(frame)
    }

    /// Closes the queue: pushers fail immediately, poppers drain the
    /// buffered frames and then see [`NetError::Closed`]. Both hooks
    /// fire so a non-blocking owner notices the transition. Idempotent.
    pub fn close(&self) {
        {
            let mut st = self.state.lock().unwrap();
            if st.closed {
                return;
            }
            st.closed = true;
        }
        self.cv.notify_all();
        if let Some(hook) = &self.on_push {
            hook();
        }
        if let Some(hook) = &self.on_drain {
            hook();
        }
    }

    /// Whether the queue has been closed.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    /// Whether a push would not report `Full` (true once closed).
    #[must_use]
    pub(crate) fn has_room(&self) -> bool {
        let st = self.state.lock().unwrap();
        st.closed || st.frames.len() < self.cap
    }

    /// Frames currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().frames.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hooks_fire_on_push_drain_and_close() {
        let pushes = Arc::new(AtomicUsize::new(0));
        let drains = Arc::new(AtomicUsize::new(0));
        let (p, d) = (Arc::clone(&pushes), Arc::clone(&drains));
        let q = VirtQueue::new(
            2,
            Some(Arc::new(move || {
                p.fetch_add(1, Ordering::Relaxed);
            })),
            Some(Arc::new(move || {
                d.fetch_add(1, Ordering::Relaxed);
            })),
        );
        q.push(vec![1]).unwrap();
        q.push(vec![2]).unwrap();
        assert_eq!(pushes.load(Ordering::Relaxed), 2);
        assert_eq!(drains.load(Ordering::Relaxed), 0, "no drain while filling");
        assert!(matches!(q.try_push(vec![3]), TryPush::Full(_)));
        assert!(matches!(q.try_pop(), TryPop::Frame(_)));
        assert_eq!(drains.load(Ordering::Relaxed), 1, "full->space fires drain");
        assert!(matches!(q.try_pop(), TryPop::Frame(_)));
        assert_eq!(
            drains.load(Ordering::Relaxed),
            1,
            "non-full pop stays quiet"
        );
        q.close();
        assert_eq!(pushes.load(Ordering::Relaxed), 3, "close fires push hook");
        assert_eq!(drains.load(Ordering::Relaxed), 2, "close fires drain hook");
        assert!(matches!(q.try_pop(), TryPop::Closed));
    }

    #[test]
    fn close_drains_buffered_frames_first() {
        let q = VirtQueue::new(4, None, None);
        q.push(vec![1]).unwrap();
        q.close();
        assert_eq!(q.pop().unwrap(), vec![1]);
        assert_eq!(q.pop().unwrap_err(), NetError::Closed);
        assert_eq!(q.push(vec![2]).unwrap_err(), NetError::Closed);
    }

    #[test]
    fn blocking_push_wakes_on_pop() {
        let q = Arc::new(VirtQueue::new(1, None, None));
        q.push(vec![0]).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.push(vec![1]).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop().unwrap(), vec![0]);
        assert_eq!(q.pop().unwrap(), vec![1]);
        assert!(h.join().unwrap());
    }

    #[test]
    fn blocking_pop_wakes_on_close() {
        let q = Arc::new(VirtQueue::new(1, None, None));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap().unwrap_err(), NetError::Closed);
    }
}
