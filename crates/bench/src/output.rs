//! Experiment output: printed tables, and the one input each harness
//! takes, its argv.

/// Prints a rule-of-dashes header for a table.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Reads the `usize` at argv position `i` (after the binary name),
/// or `default` when there is none. A value that does not parse is a
/// usage error: it exits with status 2 and a message naming `name`,
/// rather than silently running the default scale.
pub fn arg_or(i: usize, name: &str, default: usize) -> usize {
    match std::env::args().nth(i) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("error: argument {i} <{name}>: cannot parse {v:?} as a count: {e}");
            std::process::exit(2)
        }),
    }
}
