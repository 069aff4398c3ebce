//! `mdr` — the command-line face of the SIGMOD 1994 mobile data-replication
//! library. See `mdr help`.

mod commands;
mod parse;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" || argv[0] == "-h" {
        print!("{}", commands::help());
        return;
    }
    match commands::dispatch(&argv) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `mdr help` for usage");
            std::process::exit(2);
        }
    }
}
