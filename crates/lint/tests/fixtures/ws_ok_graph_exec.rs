//! Clean stale-declaration fixture (virtual path crates/exec/src/lib.rs):
//! every name exec declares is acquired by production code.

pub fn pull(&self) {
    if self.first_err.lock().unwrap().is_some() {
        return;
    }
    let o = self.out.lock().unwrap();
    drop(o);
}
