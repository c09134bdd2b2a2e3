//! Minimal JSON support: a serde [`Serializer`](serde::Serializer) that
//! renders any `Serialize` type to compact JSON. The workspace
//! deliberately carries no `serde_json`; this module follows the same
//! pattern as `nscc-msg`'s byte-counting serializer and supports exactly
//! what run reports and trace exports need. Its string escape and the
//! reader that tests check its output with are `nscc_ckpt::json`'s.

mod ser;

pub use ser::{to_json, JsonError};
