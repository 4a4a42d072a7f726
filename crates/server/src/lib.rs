//! # themis-server
//!
//! The ThemisIO server (§4.1): a job monitor tracking per-job heartbeats, a
//! communicator that queues incoming I/O requests by job, a controller that
//! turns the sharing policy and the (λ-synchronised) job table into
//! statistical token assignments, and a worker loop that serves requests
//! against the shared burst-buffer file system.
//!
//! [`core::ServerCore`] is the transport-free, steppable implementation
//! (its staging half — class lifecycle, parking, residency — lives in the
//! `staging` module);
//! [`runtime::Deployment`] runs one core per server on real threads with
//! in-process endpoints standing in for UCX.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod core;
pub mod runtime;
mod staging;

pub use crate::core::{ReadyReply, ServerConfig, ServerCore, StageReady};
pub use crate::runtime::{ClientConnection, Deployment};
