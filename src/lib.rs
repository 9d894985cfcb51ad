//! Root umbrella for the DeepRecSys reproduction; see the `deeprecsys` crate docs.
pub use deeprecsys::prelude;
