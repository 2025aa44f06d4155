//! Blocking-while-locked violations (virtual path
//! crates/storage/src/ws.rs): fsync, sleep, channel wait, and a thread
//! join, all while the `inner` guard is live; then two condvar waits
//! while an engine `db` guard is live (the wait releases only the guard
//! it is handed).

pub fn flush(&self) {
    let g = self.inner.lock().unwrap();
    self.file.sync_all().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(1));
    drop(g);
}

pub fn wait(&self) {
    let g = self.inner.lock().unwrap();
    let msg = self.rx.recv().unwrap();
    drop(g);
    let _ = msg;
}

pub fn stop(&self) {
    let g = self.inner.lock().unwrap();
    self.handle.join().unwrap();
    drop(g);
}

pub fn ship(&self, pos: u64) {
    let db = self.db.read().unwrap();
    let woke = self.watch.wait_past(pos, FALLBACK);
    drop(db);
    let _ = woke;
}

pub fn await_turn(&self) {
    let db = self.db.write().unwrap();
    let q = self.queue.lock().unwrap();
    let q = self.turn.wait(q).unwrap();
    drop(db);
    let _ = q;
}
