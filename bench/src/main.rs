//! The `launch-bench` command; see `launch-bench help` and README.md.

fn main() {
    let started = std::time::Instant::now();
    std::process::exit(launch_bench::cli::main(started, std::env::args().skip(1).collect()));
}
