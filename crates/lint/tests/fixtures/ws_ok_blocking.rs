//! Clean blocking fixture (virtual path crates/storage/src/ws.rs):
//! copy-then-drop before blocking, a justified group-commit hold,
//! test code (out of scope), and the same condvar waits as the bad
//! fixture with the engine guard dropped first.

pub fn flush(&self) {
    let page = {
        let g = self.inner.lock().unwrap();
        g.page.clone()
    };
    self.file.sync_all().unwrap();
    let _ = page;
}

pub fn group_commit(&self) {
    let g = self.inner.lock().unwrap();
    // lint: allow(blocking-while-locked) group commit: the latch is held across fsync so followers batch behind one flush
    self.file.sync_all().unwrap();
    drop(g);
}

#[cfg(test)]
mod tests {
    fn t() {
        let g = POOL.inner.lock().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(g);
    }
}

pub fn ship(&self) {
    let pos = {
        let db = self.db.read().unwrap();
        db.wal_durable_len()
    };
    let woke = self.watch.wait_past(pos, FALLBACK);
    let _ = woke;
}

pub fn await_turn(&self) {
    let q = self.queue.lock().unwrap();
    let q = self.turn.wait(q).unwrap();
    let _ = q;
}
