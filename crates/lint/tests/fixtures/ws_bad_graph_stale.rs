//! A stale lock declaration (virtual path crates/exec/src/lib.rs — a
//! crate root, so the crate counts as scanned whole): exec declares
//! `first_err < out`, but `out` is only ever taken in test code.

pub fn pull(&self) {
    let e = self.first_err.lock().unwrap();
    drop(e);
}

#[cfg(test)]
mod tests {
    fn peek(&self) {
        let o = self.out.lock().unwrap();
        drop(o);
    }
}
