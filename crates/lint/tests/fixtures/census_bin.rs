// Fixture: a product binary (as src/bin/bqd.rs). `Shown` reaches `fmt`
// only through `{}`, `Guard` reaches `drop` only by going out of scope.
// The locals named `orphan` and `never_called` define those names: they
// reach neither fn.

use demo::planted;

fn main() {
    let w = demo::Wal;
    println!("{}", demo::Shown);
    let _guard = demo::Guard;
    demo::run(&w, &[1, 2]);
    let orphan = 3;
    let mut never_called = 4;
}
