// Fixture: lock acquisitions violating the governor crate's declared
// order (state < inner).
// Expected (as crates/governor/src/bad_lock_order.rs): 3 × [lock-graph].

fn inner_then_state(&self) {
    let inner_guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
    let state_guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
    drop((inner_guard, state_guard));
}

fn same_lock_twice(&self, other: &Self) {
    let first = self.inner.lock().unwrap_or_else(|e| e.into_inner());
    let second = other.inner.lock().unwrap_or_else(|e| e.into_inner());
    drop((first, second));
}
