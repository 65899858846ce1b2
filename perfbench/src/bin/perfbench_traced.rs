//! Traced run of the benchmark (`--trace 1`): per-layer spans and
//! allocation counts.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
