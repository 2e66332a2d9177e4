//! The command-line parser every bench binary uses: `--flag VALUE`
//! pairs plus positional arguments, each with a default. Anything it
//! cannot read — an unknown flag, a flag without its value, a value
//! that does not parse, an empty number list, a surplus positional — is
//! an error that ends the process with the usage text, never a silent
//! fall back to the default.

use std::str::FromStr;

/// The arguments of one invocation, read in the order the binary asks
/// for them. Problems accumulate and are reported together by
/// [`Args::finish`] / [`Args::done`].
#[derive(Debug, Default)]
pub struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
    next_pos: usize,
    errors: Vec<String>,
}

impl Args {
    /// Splits `argv` (program name excluded) into values of the `known`
    /// flags and positionals. Every flag takes exactly one value.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I, known: &[&str]) -> Args {
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg);
            } else if !known.contains(&arg.as_str()) {
                args.errors.push(format!("unknown flag {arg}"));
            } else {
                match argv.next() {
                    Some(v) if !v.starts_with("--") => args.flags.push((arg, v)),
                    _ => args.errors.push(format!("{arg} needs a value")),
                }
            }
        }
        args
    }

    /// [`Args::parse`] over the process arguments.
    pub fn from_env(known: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), known)
    }

    fn read<T: FromStr>(&mut self, what: &str, raw: &str) -> Option<T> {
        let v = raw.parse().ok();
        if v.is_none() {
            self.errors.push(format!("{what}: cannot parse {raw:?}"));
        }
        v
    }

    /// The value of `flag`, when given (the last one wins).
    pub fn opt<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let raw = self.flags.iter().rev().find(|(f, _)| f == flag)?.1.clone();
        self.read(flag, &raw)
    }

    /// The value of `flag`, or `default` when it is not given.
    pub fn flag<T: FromStr>(&mut self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }

    fn next_positional(&mut self) -> Option<String> {
        self.next_pos += 1;
        self.positional.get(self.next_pos - 1).cloned()
    }

    /// The next positional argument (called `what` in errors), or
    /// `default` when the command line stops before it.
    pub fn pos<T: FromStr>(&mut self, what: &str, default: T) -> T {
        match self.next_positional() {
            Some(raw) => self.read(what, &raw).unwrap_or(default),
            None => default,
        }
    }

    /// The next positional as a comma-separated list of numbers, or
    /// `default` when absent. An empty list or any bad item is an error.
    pub fn list(&mut self, what: &str, default: &[u64]) -> Vec<u64> {
        let Some(raw) = self.next_positional() else {
            return default.to_vec();
        };
        match raw
            .split(',')
            .map(str::parse)
            .collect::<Result<Vec<u64>, _>>()
        {
            Ok(v) => v,
            Err(_) => {
                self.errors
                    .push(format!("{what}: expected N1,N2,..., got {raw:?}"));
                default.to_vec()
            }
        }
    }

    /// Records a problem the binary found in otherwise well-formed input.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Every problem found, including positionals nobody asked for. Call
    /// after the last read.
    pub fn finish(mut self) -> Result<(), String> {
        if let Some(extra) = self.positional.get(self.next_pos) {
            self.errors.push(format!("unexpected argument {extra:?}"));
        }
        if self.errors.is_empty() {
            Ok(())
        } else {
            Err(self.errors.join("; "))
        }
    }

    /// [`Args::finish`], ending the process with status 2 and `usage` on
    /// any problem.
    pub fn done(self, usage: &str) {
        if let Err(e) = self.finish() {
            // dlaas-lint: allow(debug-print): the bench bins' shared usage-error path; it runs before any simulation exists.
            eprintln!("error: {e}\n\n{usage}");
            // dlaas-lint: allow(process-escape): a rejected command line must end the bench bin with a non-zero status.
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(
            line.split_whitespace().map(str::to_owned),
            &["--threads", "--tolerance"],
        )
    }

    /// Reads what a soak-like binary reads and reports the verdict.
    fn soak_like(line: &str) -> Result<(u64, Vec<u64>, f64), String> {
        let mut a = args(line);
        let tolerance = a.flag("--tolerance", 0.10);
        let _threads: usize = a.flag("--threads", 1);
        let seed = a.pos("seed", 2018u64);
        let ns = a.list("N1,N2,...", &[100]);
        let _out: String = a.pos("out", "BENCH.json".to_owned());
        a.finish().map(|()| (seed, ns, tolerance))
    }

    #[test]
    fn accepts_good_input_and_fills_defaults() {
        assert_eq!(soak_like(""), Ok((2018, vec![100], 0.10)));
        assert_eq!(
            soak_like("--threads 8 7 200,1000 x.json --tolerance 0.2"),
            Ok((7, vec![200, 1000], 0.2))
        );
    }

    #[test]
    fn rejects_every_kind_of_bad_input() {
        for (line, why) in [
            ("--thread 8", "unknown flag"),
            ("7 200 --threads", "needs a value"),
            ("--threads --tolerance 0.1", "needs a value"),
            ("garbage 200 x.json", "seed"),
            ("7 1000,abc", "N1,N2"),
            ("7 ,", "N1,N2"),
            ("7 2h", "N1,N2"),
            ("--tolerance ten", "--tolerance"),
            ("--threads -1", "--threads"),
            ("7 200 x.json extra", "unexpected argument"),
        ] {
            let err = soak_like(line).expect_err(line);
            assert!(err.contains(why), "{line:?}: {err}");
        }
    }
}
