// Fixture: acquisitions that respect the governor order (state < inner),
// plus one nesting of a lock the order does not declare.
// Expected (as crates/governor/src/ok_lock_order.rs): 1 × [lock-graph].

fn correct_nesting(&self) {
    let state_guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
    let inner_guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
    drop((state_guard, inner_guard));
}

fn guard_dropped_by_scope(&self) {
    {
        let inner_guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        drop(inner_guard);
    }
    // The inner guard's scope closed; taking state now is fine.
    let state_guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
    drop(state_guard);
}

fn not_participating(&self, buf: &mut [u8]) {
    // `cache` is not in the declared order (the one finding); ordinary
    // read/write methods take arguments and are not acquisitions.
    let inner_guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
    let _c = self.cache.lock().unwrap_or_else(|e| e.into_inner());
    let _n = self.file.read(buf);
    self.file.write(buf);
    drop(inner_guard);
}
