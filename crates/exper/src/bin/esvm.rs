//! `esvm` — reproduce the tables and figures of Xie et al. (ICDCSW
//! 2013) from the command line. Run `esvm` with no arguments for usage.

use std::fmt::Display;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match esvm_exper::cli::run(&args) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            let written = stdout
                .write_all(output.as_bytes())
                .and_then(|()| stdout.write_all(b"\n"))
                .and_then(|()| stdout.flush());
            match written {
                Ok(()) => ExitCode::SUCCESS,
                // The reader stopped reading (`esvm table1 | head -1`):
                // it has all it asked for.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => fail(format_args!("esvm: cannot write the report to stdout: {e}")),
            }
        }
        Err(e) => fail(e),
    }
}

/// Reports `message` on stderr and exits 1. A stderr nobody reads any
/// more (`esvm … 2>&1 | head -1`) loses the message, not the exit code.
fn fail(message: impl Display) -> ExitCode {
    let _ = writeln!(std::io::stderr().lock(), "{message}");
    ExitCode::FAILURE
}
