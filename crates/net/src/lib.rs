//! # cyclesql-net
//!
//! The wire-protocol serving tier: a std-only HTTP/1.1 front door in
//! front of the in-process [`ServiceEngine`](cyclesql_serve::ServiceEngine),
//! turning the serving engine into something a load balancer can talk to
//! — no async runtime, no TLS, no external dependencies.
//!
//! The tier has five pieces:
//!
//! - [`http`] — an incremental request parser (`Content-Length` framing,
//!   head/body limits, typed `400`/`413`/`431`/`501` rejection) and a
//!   response writer, both over raw byte slices so they test without
//!   sockets.
//! - [`api`] — the `/v1/query` body schema, decoding into the engine's
//!   [`BenchmarkItem`](cyclesql_benchgen::BenchmarkItem) and encoding
//!   answers back; response bodies are byte-stable across shard layouts.
//! - [`router`] — [`ShardedEngine`]: the deployment catalog consistent-
//!   hashed across N engine shards with replicas, plus occupancy-aware
//!   spill routing for hot shards.
//! - [`server`] — [`NetServer`]: the accept loop, keep-alive connection
//!   handling with drain-aware read ticks, the JSON endpoints
//!   (`POST /v1/query`, `GET /v1/health`, `GET /metrics`,
//!   `POST /v1/drain`), and the graceful drain protocol.
//!
//! The `netd` binary boots the whole stack from the generated benchmark
//! suites; [`client`] is the matching minimal HTTP client the tests
//! drive it with. Request bodies are read with [`Json`], the workspace's
//! one JSON reader (`cyclesql_obs::json`).

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod debug;
pub mod http;
pub mod metrics;
pub mod router;
pub mod server;

pub use api::{encode_error, encode_query, encode_response, ApiQuery};
pub use client::{HttpClient, HttpResponse};
pub use cyclesql_obs::Json;
pub use cyclesql_rng::fnv1a;
pub use http::{HttpError, HttpLimits, Request, RequestParser, Response};
pub use metrics::{render_metrics_page, NetMetrics, NetMetricsSnapshot};
pub use router::{RouteDecision, RouterConfig, ShardedEngine};
pub use server::{DrainReport, NetConfig, NetObs, NetServer};
