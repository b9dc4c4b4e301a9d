//! # topk-obs — metrics and tracing primitives for the serving stack
//!
//! The paper's entire argument is made through counted quantities —
//! kernel launches, device-memory traffic, PCIe round-trips (§3.1,
//! Fig. 8, Table 3) — and the ROADMAP's production-serving north star
//! needs the same signals every inference stack needs: percentile
//! latencies, error-rate counters, and traces. This crate supplies the
//! layer-independent primitives; `gpu-sim`, `topk-core` and
//! `topk-engine` wire them through the stack:
//!
//! * [`MetricsRegistry`] — a lightweight, thread-safe registry of
//!   [`Counter`]s, [`Gauge`]s and log-bucketed [`Histogram`]s (with
//!   p50/p95/p99 estimation), rendered in the Prometheus text
//!   exposition format by [`MetricsRegistry::render_prometheus`].
//!
//! No dependencies: everything is `std` atomics plus one mutex around
//! the registry's name table, so the crate can sit below every other
//! workspace member.
//!
//! ```
//! use topk_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let queries = reg.counter("topk_queries_total", "Queries drained");
//! let lat = reg.histogram("topk_latency_us", "Per-query latency, us");
//! for v in [120.0, 340.0, 90.0, 2100.0] {
//!     queries.inc();
//!     lat.observe(v);
//! }
//! assert_eq!(queries.get(), 4);
//! assert!(lat.percentile(0.5) <= lat.percentile(0.99));
//! let text = reg.render_prometheus();
//! assert!(text.contains("# TYPE topk_queries_total counter"));
//! assert!(text.contains("topk_latency_us_bucket"));
//! ```

pub mod metrics;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
