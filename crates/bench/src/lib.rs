//! Shared plumbing for the DeepRecSys experiment harness.
//!
//! Every paper table and figure has a binary under `src/bin/` that
//! regenerates it (see DESIGN.md §5 for the index). Binaries accept:
//!
//! * `--full` — experiment-grade windows (`SearchOptions::standard()`);
//!   the default is the faster `quick()` profile so a laptop can sweep
//!   everything in minutes;
//! * `--smoke` — minimal windows (`SearchOptions::smoke()`); numbers
//!   are meaningless, but every code path runs. Used by the bin smoke
//!   tests (`tests/bin_smoke.rs`) so figure code cannot silently rot;
//! * `--seed N` — override the workload seed;
//! * `--real` — where the binary supports it, additionally
//!   cross-validate on the *real* engine: pace the stream onto
//!   physical worker threads (`Serve::real`) and compare against the
//!   virtual-time report.
//!
//! Criterion micro-benchmarks live under `benches/`.

use drs_sched::SearchOptions;

/// The three run profiles an experiment binary can be launched in.
/// `--full` wins if both `--full` and `--smoke` appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--full`: experiment-grade windows.
    Full,
    /// Default: laptop-friendly windows.
    Quick,
    /// `--smoke`: minimal windows for the bin smoke tests.
    Smoke,
}

impl Mode {
    /// Human label of the mode.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Quick => "quick",
            Mode::Smoke => "smoke",
        }
    }
}

/// Parsed command-line options shared by every experiment binary.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Search/simulation options, preset to match [`Self::mode`].
    pub search: SearchOptions,
    /// The requested run profile.
    pub mode: Mode,
    /// `--real`: also run the real-engine cross-validation section in
    /// binaries that support one.
    pub real: bool,
}

/// Parses `--full` / `--smoke` / `--seed N` / `--real` from the
/// process arguments.
pub fn parse_args() -> ExpOptions {
    let args: Vec<String> = std::env::args().collect();
    let mode = if args.iter().any(|a| a == "--full") {
        Mode::Full
    } else if args.iter().any(|a| a == "--smoke") {
        Mode::Smoke
    } else {
        Mode::Quick
    };
    let real = args.iter().any(|a| a == "--real");
    let mut search = match mode {
        Mode::Full => SearchOptions::standard(),
        Mode::Quick => SearchOptions::quick(),
        Mode::Smoke => SearchOptions::smoke(),
    };
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        if let Some(seed) = args.get(i + 1).and_then(|s| s.parse().ok()) {
            search = search.with_seed(seed);
        }
    }
    ExpOptions { search, mode, real }
}

impl ExpOptions {
    /// Picks a mode-dependent constant: experiment-grade for `--full`,
    /// minimal for `--smoke`, the laptop-friendly default otherwise.
    pub fn pick<T>(&self, full: T, quick: T, smoke: T) -> T {
        match self.mode {
            Mode::Full => full,
            Mode::Quick => quick,
            Mode::Smoke => smoke,
        }
    }

    /// Whether experiment-grade (`--full`) windows were requested.
    pub fn full(&self) -> bool {
        self.mode == Mode::Full
    }
}

/// Prints the standard experiment header: what this binary reproduces
/// and the paper's reference statement to compare against.
pub fn header(id: &str, claim: &str, opts: &ExpOptions) {
    println!("# {id}");
    println!();
    println!("paper reference: {claim}");
    println!(
        "mode: {} (pass --full for experiment-grade windows)",
        opts.mode.label()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_quick() {
        // parse_args reads real argv (the test binary's), which carries
        // no --full flag.
        let o = parse_args();
        assert_eq!(o.mode, Mode::Quick);
        assert!(!o.real, "real cross-validation is opt-in");
        assert_eq!(
            o.search.queries_per_probe,
            SearchOptions::quick().queries_per_probe
        );
    }
}
