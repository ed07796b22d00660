//! The `hignn` command-line binary (see [`hignn_cli::commands::USAGE`]).

use hignn_cli::opts::Opts;

fn main() {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout();
    if let Err(e) = hignn_cli::run(&opts, &mut stdout) {
        eprintln!("error: {e}");
        // Distinct exit codes per failure class: 2 usage/config, 3 I/O,
        // 4 corrupt data, 5 diverged (non-finite training).
        std::process::exit(e.exit_code());
    }
}
