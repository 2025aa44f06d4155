// Fixture: a product binary (as src/bin/bqd.rs). `Shown` reaches `fmt`
// only through `{}`, `Guard` reaches `drop` only by going out of scope.

use demo::planted;

fn main() {
    let w = demo::Wal;
    println!("{}", demo::Shown);
    let _guard = demo::Guard;
    demo::run(&w, &[1, 2]);
}
