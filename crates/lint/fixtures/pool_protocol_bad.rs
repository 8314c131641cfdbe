//! KL-X positive corpus: each concurrency-protocol rule fires on exactly
//! the seeded defect — the live pool's shape minus one sanitizer at a time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// X01: worker-captured sender, receiver consumed in scheduler order.
pub fn gather(n: usize) -> Vec<u64> {
    let (tx, rx) = mpsc::channel();
    for k in 0..n {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let _ = tx.send(k as u64);
        });
    }
    let mut out = Vec::new();
    while let Ok(v) = rx.recv() {
        out.push(v);
    }
    out
}

pub struct Locks {
    jobs: Mutex<Vec<u64>>,
    done: Mutex<Vec<u64>>,
}

impl Locks {
    /// X02 half A: `jobs` held while `done` is acquired.
    pub fn order_ab(&self) {
        let mut a = self.jobs.lock().unwrap();
        let b = self.done.lock().unwrap();
        a.push(b.len() as u64);
    }

    /// X02 half B: the counter-order, completing the deadlock cycle.
    pub fn order_ba(&self) {
        let mut d = self.done.lock().unwrap();
        let j = self.jobs.lock().unwrap();
        d.push(j.len() as u64);
    }

    pub fn audit(&self) -> usize {
        self.jobs.lock().unwrap().len()
    }

    /// X02 self-deadlock: `jobs` re-acquired through a callee.
    pub fn reenter(&self) -> usize {
        let j = self.jobs.lock().unwrap();
        j.len() + self.audit()
    }
}

/// X03: Relaxed cursor escapes work-partitioning into an ordered fold.
pub fn relaxed_fold(total: Arc<Mutex<Vec<u64>>>, cursor: Arc<AtomicUsize>) {
    let _detached = std::thread::spawn(move || loop {
        let at = cursor.fetch_add(1, Ordering::Relaxed);
        if at > 64 {
            break;
        }
        total.lock().unwrap().push(at as u64);
    });
}

/// X04 (missing Drop): stores handles, never joins.
pub struct Pool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// X04 (Drop without join): clears senders but leaks the threads.
pub struct LazyPool {
    txs: Vec<mpsc::Sender<u64>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for LazyPool {
    fn drop(&mut self) {
        self.txs.clear();
        self.handles.clear();
    }
}

/// X04 (spawn discarded in statement position): a detached thread.
pub fn fire_and_forget(flag: Arc<AtomicUsize>) {
    std::thread::spawn(move || {
        flag.store(1, Ordering::SeqCst);
    });
    flag.store(2, Ordering::SeqCst);
}

/// X03 in a scoped worker: a value read through the Relaxed cursor is
/// folded in claim order.
pub fn scoped_gather(pending: &[u64]) -> Vec<(usize, u64)> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&slot) = pending.get(i) else { break };
                done.lock().unwrap().push((slot, slot * 2));
            });
        }
    });
    done.into_inner().unwrap()
}
