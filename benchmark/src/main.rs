fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(sya_benchmark::cli::main(&argv));
}
