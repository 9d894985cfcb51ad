//! `drs-lint` — a workspace invariant checker.
//!
//! The reproduction's headline results rest on contracts the compiler
//! cannot see: byte-identical virtual-time replays, bit-exact
//! real-vs-virtual cross-validation, and the documented `ServingStack`
//! panic contract. This crate turns those prose contracts into a
//! machine-checked pass:
//!
//! | rule | invariant |
//! |------|-----------|
//! | R1 `hash-iter` | no iteration over `HashMap`/`HashSet` state in determinism-critical crates |
//! | R2 `wall-clock` | `Instant::now`/`SystemTime` only on the real path |
//! | R3 `panic-contract` | every public `serve*`/`run*` entry point reaches `assert_nonempty_*` |
//! | R4 `telemetry-guard` | every `sink.record(..)` site is guarded by `S::ENABLED` |
//! | R5 `float-reduce` | no `f64` reduction over a hash-ordered iterator |
//! | R6 `metrics-guard` | every pulse-recording call is guarded by `M::ENABLED` |
//! | R7 `clock-taint` | no wall-clock-derived value reaches a report field or event booking |
//! | R8 `entropy-taint` | all randomness comes from the seeded RNGs |
//! | R9 `float-order-taint` | no hash-/join-ordered `f64` accumulation reaches a report |
//! | `unsafe-audit` | every `unsafe` sits directly under a `// SAFETY:` comment, in an allow-listed file |
//! | `docs-parity` | every library crate warns on missing docs and opts into workspace lints |
//!
//! R1–R6 and `unsafe-audit` are syntactic, per-file passes ([`rules`]). R7–R9 are
//! *interprocedural*: the [`taint`] engine runs a workspace-wide
//! fixpoint over per-function def-use chains, so a timestamp taken in
//! one crate and laundered through two helper calls still trips the
//! gate at the report field it finally lands in. The [`callgraph`]
//! module gives the same treatment to R3 and is exportable via
//! `drs-lint --callgraph` (DOT, or JSON with `--json`).
//!
//! Any finding can be silenced at a specific line with a
//! `// lint:allow(<rule>)` comment (covering that line and the next),
//! which doubles as an in-source audit trail of every exemption. The
//! trail is kept honest by a meta-rule: `stale-allow` reports any
//! directive that no longer suppresses a finding, so exemptions are
//! garbage-collected the moment the code they excused disappears.
//!
//! The analyzer is dependency-free by design — the build environment
//! has no registry access, so the tokenizer ([`lexer`]) and the
//! structural pass ([`parse`]) are hand-rolled and unit-tested on
//! fixture files under `fixtures/`.

#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod symbols;
pub mod taint;
pub mod workspace;
