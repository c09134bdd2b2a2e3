//! Shared by the integration tests that compare the GA kernel against the
//! one it replaced.

pub mod reference;
