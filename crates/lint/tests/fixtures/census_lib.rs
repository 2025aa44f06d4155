// Fixture: a library crate (as crates/demo/src/lib.rs). The product
// reaches every fn but `planted`, which only the test module calls, and
// `orphan` / `never_called`, which nothing calls.

pub mod codec {
    pub fn encode(x: u8) -> u8 {
        x + 1
    }
}

pub struct Wal;

impl Wal {
    pub fn flush_all(&self) {}
}

pub struct Shown;

impl std::fmt::Display for Shown {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        write!(f, "{}", shown_text())
    }
}

fn shown_text() -> &'static str {
    "shown"
}

pub struct Guard;

impl Drop for Guard {
    fn drop(&mut self) {}
}

pub fn run(w: &Wal, xs: &[u8]) -> Vec<u8> {
    w.flush_all();
    xs.iter().copied().map(codec::encode).collect()
}

pub fn example_only() {}

pub fn bench_only() {}

pub fn planted() -> u8 {
    7
}

pub fn orphan() {}

fn never_called() {
    orphan();
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_the_planted_fn() {
        assert_eq!(super::planted(), 7);
    }
}
