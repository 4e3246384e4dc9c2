//! `patrolctl` — command-line front end for the data-mule patrolling
//! workspace. See `patrolctl help` for usage.

use patrol_cli::{parse_args, run_command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", *patrol_cli::args::USAGE);
            std::process::exit(2);
        }
    };
    match run_command(&command) {
        Ok(output) => {
            print!("{}", output.text);
            for file in &output.files_written {
                eprintln!("wrote {file}");
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
