//! `drs-lint` — the flow checks the compiler cannot make.
//!
//! The reproduction's headline results rest on byte-identical
//! virtual-time replays and bit-exact real-vs-virtual cross-validation.
//! The syntactic half of that contract is toolchain configuration:
//! `clippy.toml` bans the hash collections and the wall-clock reads,
//! and the workspace `[lints]` table denies `unsafe_code` and wants
//! `missing_docs` and `undocumented_unsafe_blocks`. What is left here is
//! what neither tool can see:
//!
//! | check | invariant |
//! |-------|-----------|
//! | R4 `telemetry-guard` | every `sink.record(..)` site is guarded by `S::ENABLED` |
//! | R6 `metrics-guard` | every pulse-recording call is guarded by `M::ENABLED` |
//! | R7 `clock-taint` | no wall-clock-derived value reaches a report field, a metrics record or an event booking |
//! | `stale-allow` | every `lint:allow` directive still suppresses a finding |
//!
//! R4 and R6 are syntactic, per-file passes ([`rules`]). R7 is
//! *interprocedural*: the [`taint`] engine runs a workspace-wide
//! fixpoint over per-function def-use chains, so a timestamp taken in
//! one crate and laundered through two helper calls still trips the
//! gate at the report field it finally lands in.
//!
//! Any finding can be silenced at a specific line with a
//! `// lint:allow(<rule>)` comment (covering that line and the next),
//! which doubles as an in-source audit trail of every exemption. The
//! trail is kept honest by `stale-allow`, which reports any directive
//! that no longer suppresses a finding, so exemptions are
//! garbage-collected the moment the code they excused disappears.
//!
//! The gate is the tier-1 test `shipped_workspace_is_finding_free`. The
//! analyzer is dependency-free by design — the build environment has no
//! registry access, so the tokenizer ([`lexer`]) and the structural pass
//! ([`parse`]) are hand-rolled and unit-tested on fixture files under
//! `fixtures/`.

pub mod lexer;
pub mod parse;
pub mod rules;
pub mod symbols;
pub mod taint;
pub mod workspace;
