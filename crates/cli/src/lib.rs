//! # patrol-cli
//!
//! Library backing the `patrolctl` binary: a small, dependency-free command
//! line front end for generating scenarios, planning patrols, simulating
//! them and comparing mechanisms.
//!
//! ```text
//! patrolctl render   [--targets N] [--mules N] [--seed S] [--planner P] ...
//! patrolctl simulate [--planner P] [--horizon SECONDS] [--svg FILE] [--csv PREFIX] ...
//! patrolctl compare  [--horizon SECONDS] ...
//! ```
//!
//! The argument parser and command implementations live here so they can be
//! unit-tested; the binary is a thin wrapper.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod commands;

pub use args::{parse_args, CliCommand, CliError, CliOptions};
pub use commands::{run_command, CommandOutput};
