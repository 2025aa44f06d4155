// Fixture: an example (as examples/tour.rs) and the benchmark (as
// benchspine/src/main.rs): both are product roots.

fn main() {
    demo::example_only();
    demo::bench_only();
}
