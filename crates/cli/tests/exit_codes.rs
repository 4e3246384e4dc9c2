//! The `patrolctl` binary's exit-code contract: 0 on success, 2 with the
//! usage on stderr (and nothing on stdout) when the command line does not
//! parse, 1 when a command runs but fails, here a regression gate.

use std::process::{Command, Output};

fn patrolctl(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_patrolctl"))
        .args(args.split_whitespace())
        .output()
        .expect("patrolctl runs")
}

#[test]
fn help_exits_zero_with_the_usage_on_stdout() {
    let out = patrolctl("help");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
}

#[test]
fn command_lines_that_do_not_parse_exit_two_with_the_usage() {
    for args in [
        "simulate --bogus 1",
        "plan --search exact",
        "simulate --horizon inf",
        "loadgen --duration-s inf",
    ] {
        let out = patrolctl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`patrolctl {args}`: {stderr}");
        assert!(
            stderr.starts_with("error: "),
            "`patrolctl {args}`: {stderr}"
        );
        assert!(stderr.contains("USAGE:"), "`patrolctl {args}`: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "`patrolctl {args}` printed to stdout"
        );
    }
}

#[test]
fn a_failing_gate_exits_one() {
    let out = patrolctl("bench-tours --sizes 50 --max-ratio 0.5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--max-ratio"), "{stderr}");
}
