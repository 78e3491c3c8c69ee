//! Shard-per-core routing: the deployment catalog is sliced across N
//! [`ServiceEngine`] shards by consistent hashing on database id, with
//! optional replicas so a front router can spill hot-shard traffic.
//!
//! The hash ring is FNV-1a over `shard:<i>:<v>` virtual-node labels —
//! deterministic across runs and processes, so every `netd` in a fleet
//! routes a database to the same shard without coordination. Each database
//! gets a primary (first distinct shard clockwise of its hash) plus
//! `replication` replicas (next distinct shards); replicas hold the same
//! `Arc<Database>` read-only, so replication costs catalog-entry clones,
//! not data copies. Routing is primary-first: only when the primary's
//! in-flight occupancy reaches `spill_threshold` does the router divert to
//! the least-loaded replica, keeping result caches hot under normal load and
//! shard skew bounded under zipfian load.

use cyclesql_benchgen::BenchmarkItem;
use cyclesql_obs::{SharedSpan, WindowSnapshot};
use cyclesql_rng::fnv1a;
use cyclesql_serve::{
    Catalog, MetricsSnapshot, RequestSummary, ServeError, ServeRequest, ServeResponse,
    ServiceEngine, Ticket,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of engine shards.
    pub shards: usize,
    /// Extra shards each database is assigned to beyond its primary
    /// (capped at `shards - 1`). `0` disables spill routing.
    pub replication: usize,
    /// Virtual nodes per shard on the hash ring (evens out placement).
    pub virtual_nodes: usize,
    /// Primary in-flight occupancy at which traffic spills to a replica.
    pub spill_threshold: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 1,
            replication: 1,
            virtual_nodes: 64,
            spill_threshold: 4,
        }
    }
}

/// Where one request is going.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Chosen shard.
    pub shard: usize,
    /// Whether the primary was bypassed for a replica.
    pub spilled: bool,
}

struct ShardState {
    /// `None` once the shard has been shut down (drain completed).
    engine: RwLock<Option<ServiceEngine>>,
    /// Requests this router currently has outstanding against the shard —
    /// submitted and not yet answered, so queued requests count too
    /// (unlike the engine's own in-flight gauge, which only sees requests
    /// a worker picked up), and a request counts until its completion has
    /// delivered the answer. This is the occupancy signal spill routing
    /// reads.
    outstanding: Arc<AtomicUsize>,
}

/// RAII outstanding-count ticket, decremented on every exit path. It
/// travels with the request's completion, so it may drop on a worker.
struct Outstanding(Arc<AtomicUsize>);

impl Outstanding {
    fn enter(gauge: &Arc<AtomicUsize>) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        Outstanding(Arc::clone(gauge))
    }
}

impl Drop for Outstanding {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A catalog sharded across N serving engines with consistent-hash
/// placement and occupancy-aware replica spill.
pub struct ShardedEngine {
    states: Vec<ShardState>,
    /// db id → [primary, replica, ...] shard indices.
    assignments: BTreeMap<String, Vec<usize>>,
    spill_threshold: usize,
}

impl ShardedEngine {
    /// Slices `catalog` across `config.shards` engines. `make_engine` is
    /// called once per shard with the shard index and that shard's slice
    /// of the catalog (primaries and replicas included) and returns the
    /// shard's running engine.
    pub fn build(
        catalog: &Catalog,
        config: &RouterConfig,
        mut make_engine: impl FnMut(usize, Arc<Catalog>) -> ServiceEngine,
    ) -> Self {
        let shards = config.shards.max(1);
        let replication = config.replication.min(shards - 1);
        let vnodes = config.virtual_nodes.max(1);

        // The ring: virtual nodes sorted by hash. Ties (vanishingly rare)
        // break by shard index for determinism.
        let mut ring: Vec<(u64, usize)> = (0..shards)
            .flat_map(|s| (0..vnodes).map(move |v| (fnv1a(format!("shard:{s}:{v}").as_bytes()), s)))
            .collect();
        ring.sort_unstable();

        // Assign each database its primary + replicas: walk clockwise from
        // the database's hash, collecting distinct shards.
        let mut assignments = BTreeMap::new();
        let mut per_shard: Vec<Vec<String>> = vec![Vec::new(); shards];
        for id in catalog.db_ids() {
            let h = fnv1a(id.as_bytes());
            let start = ring.partition_point(|(p, _)| *p < h) % ring.len();
            let mut picked: Vec<usize> = Vec::with_capacity(1 + replication);
            let mut i = start;
            while picked.len() < 1 + replication {
                let s = ring[i].1;
                if !picked.contains(&s) {
                    picked.push(s);
                }
                i = (i + 1) % ring.len();
            }
            for &s in &picked {
                per_shard[s].push(id.to_string());
            }
            assignments.insert(id.to_string(), picked);
        }

        let states = per_shard
            .into_iter()
            .enumerate()
            .map(|(s, ids)| {
                let slice = Arc::new(catalog.subset(ids.iter().map(String::as_str)));
                ShardState {
                    engine: RwLock::new(Some(make_engine(s, slice))),
                    outstanding: Arc::new(AtomicUsize::new(0)),
                }
            })
            .collect();

        ShardedEngine {
            states,
            assignments,
            spill_threshold: config.spill_threshold.max(1),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.states.len()
    }

    /// Number of routed databases.
    pub fn database_count(&self) -> usize {
        self.assignments.len()
    }

    /// db id → [primary, replicas...] placement (for logs and tests).
    pub fn assignments(&self) -> &BTreeMap<String, Vec<usize>> {
        &self.assignments
    }

    /// Requests outstanding against one shard right now.
    pub fn outstanding(&self, shard: usize) -> usize {
        self.states[shard].outstanding.load(Ordering::Relaxed)
    }

    /// Picks the shard for a database: the primary unless its occupancy
    /// has reached the spill threshold *and* a strictly less-loaded
    /// replica exists (ties keep the primary; among replicas, lower
    /// occupancy wins, then lower position in the assignment list — fully
    /// deterministic given the occupancy snapshot).
    pub fn route(&self, db: &str) -> Result<RouteDecision, ServeError> {
        let Some(candidates) = self.assignments.get(db) else {
            return Err(ServeError::UnknownDatabase(db.to_string()));
        };
        let primary = candidates[0];
        let primary_load = self.outstanding(primary);
        if primary_load < self.spill_threshold || candidates.len() == 1 {
            return Ok(RouteDecision {
                shard: primary,
                spilled: false,
            });
        }
        let mut best = (primary, primary_load);
        for &replica in &candidates[1..] {
            let load = self.outstanding(replica);
            if load < best.1 {
                best = (replica, load);
            }
        }
        Ok(RouteDecision {
            shard: best.0,
            spilled: best.0 != primary,
        })
    }

    /// Submits `item` to the decided shard. `done` receives the outcome
    /// exactly once, as [`ServiceEngine::submit_with`] delivers it: on the
    /// serving worker, or on this thread when the shard refuses the
    /// request (a shut-down shard refuses with [`ServeError::Shutdown`]).
    /// The shard's outstanding count covers the request until `done`
    /// returns, so concurrent routing sees it as load until its answer is
    /// delivered.
    pub fn submit_on(
        &self,
        decision: RouteDecision,
        item: Arc<BenchmarkItem>,
        parent: Option<SharedSpan>,
        done: impl FnOnce(Result<ServeResponse, ServeError>) + Send + 'static,
    ) {
        let state = &self.states[decision.shard];
        let load = Outstanding::enter(&state.outstanding);
        let done = move |result| {
            done(result);
            drop(load);
        };
        let guard = state.engine.read().expect("shard engine lock poisoned");
        if let Some(engine) = guard.as_ref() {
            // The submit (which may block under AdmissionPolicy::Block)
            // happens under the read lock; the wait for the answer does not.
            engine.submit_with(ServeRequest { item }, parent, done);
            return;
        }
        drop(guard);
        done(Err(ServeError::Shutdown));
    }

    /// Routes, submits and blocks for the response (tests and simple
    /// clients).
    pub fn call(&self, item: Arc<BenchmarkItem>) -> Result<ServeResponse, ServeError> {
        let decision = self.route(&item.db_name)?;
        let (ticket, done) = Ticket::pending();
        self.submit_on(decision, item, None, done);
        ticket.wait()
    }

    /// Point-in-time metrics per shard.
    pub fn metrics(&self) -> Vec<(usize, MetricsSnapshot)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let guard = s.engine.read().expect("shard engine lock poisoned");
                guard.as_ref().map(|e| (i, e.metrics_snapshot()))
            })
            .collect()
    }

    /// Per-shard recent-request debug summaries (shards with the request
    /// log disabled contribute empty vecs).
    pub fn recent_requests(&self) -> Vec<(usize, Vec<RequestSummary>)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let guard = s.engine.read().expect("shard engine lock poisoned");
                guard.as_ref().map(|e| (i, e.recent_requests()))
            })
            .collect()
    }

    /// Per-shard slow-request summaries at or above `threshold_us`.
    pub fn slow_requests(&self, threshold_us: u64) -> Vec<(usize, Vec<RequestSummary>)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let guard = s.engine.read().expect("shard engine lock poisoned");
                guard.as_ref().map(|e| (i, e.slow_requests(threshold_us)))
            })
            .collect()
    }

    /// Per-shard rolling-window telemetry snapshots; shards without
    /// windows enabled are omitted.
    pub fn telemetry(&self) -> Vec<(usize, Vec<(&'static str, WindowSnapshot)>)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let guard = s.engine.read().expect("shard engine lock poisoned");
                guard
                    .as_ref()
                    .and_then(|e| e.telemetry_snapshot().map(|t| (i, t)))
            })
            .collect()
    }

    /// Shuts every shard down (graceful: each engine drains its admitted
    /// queue), returning final per-shard metrics. Idempotent; later calls
    /// return an empty vec. Requests submitted afterwards fail with
    /// [`ServeError::Shutdown`].
    pub fn shutdown_all(&self) -> Vec<(usize, MetricsSnapshot)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let engine = s
                    .engine
                    .write()
                    .expect("shard engine lock poisoned")
                    .take()?;
                Some((i, engine.shutdown()))
            })
            .collect()
    }

    #[cfg(test)]
    fn force_outstanding(&self, shard: usize, value: usize) {
        self.states[shard]
            .outstanding
            .store(value, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
    use cyclesql_core::{CycleSql, LoopVerifier};
    use cyclesql_models::{ModelProfile, SimulatedModel};
    use cyclesql_serve::ServeConfig;

    fn suite() -> cyclesql_benchgen::BenchmarkSuite {
        build_spider_suite(
            Variant::Spider,
            SuiteConfig {
                seed: 0x9E7,
                train_per_template: 1,
                eval_per_template: 1,
            },
        )
    }

    fn sharded(shards: usize, replication: usize) -> (ShardedEngine, Vec<Arc<BenchmarkItem>>) {
        let suite = suite();
        let items: Vec<Arc<BenchmarkItem>> = suite.dev.iter().cloned().map(Arc::new).collect();
        let catalog = Catalog::from_suites([&suite]);
        let engine = ShardedEngine::build(
            &catalog,
            &RouterConfig {
                shards,
                replication,
                ..RouterConfig::default()
            },
            |_, slice| {
                ServiceEngine::start(
                    slice,
                    SimulatedModel::new(ModelProfile::resdsql_3b()),
                    CycleSql::new(LoopVerifier::Oracle),
                    ServeConfig {
                        workers: 1,
                        ..ServeConfig::default()
                    },
                )
            },
        );
        (engine, items)
    }

    #[test]
    fn placement_is_deterministic_and_replicas_are_distinct() {
        let (a, _) = sharded(4, 2);
        let (b, _) = sharded(4, 2);
        assert_eq!(
            a.assignments(),
            b.assignments(),
            "same ring, same placement"
        );
        for (db, shards) in a.assignments() {
            assert_eq!(shards.len(), 3, "{db}: primary + 2 replicas");
            let mut dedup = shards.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), shards.len(), "{db}: replicas distinct");
        }
        a.shutdown_all();
        b.shutdown_all();
    }

    #[test]
    fn routing_prefers_the_primary_until_threshold() {
        let (engine, _) = sharded(4, 1);
        let (db, shards) = {
            let (db, shards) = engine.assignments().iter().next().unwrap();
            (db.clone(), shards.clone())
        };
        let primary = shards[0];
        let replica = shards[1];

        let d = engine.route(&db).unwrap();
        assert_eq!((d.shard, d.spilled), (primary, false));

        // Below threshold: still primary.
        engine.force_outstanding(primary, 3);
        let d = engine.route(&db).unwrap();
        assert_eq!((d.shard, d.spilled), (primary, false));

        // At threshold with an idle replica: spill.
        engine.force_outstanding(primary, 4);
        let d = engine.route(&db).unwrap();
        assert_eq!((d.shard, d.spilled), (replica, true));

        // Replica just as loaded: stay on the primary.
        engine.force_outstanding(replica, 4);
        let d = engine.route(&db).unwrap();
        assert_eq!((d.shard, d.spilled), (primary, false));

        engine.force_outstanding(primary, 0);
        engine.force_outstanding(replica, 0);
        engine.shutdown_all();
    }

    #[test]
    fn unknown_database_is_a_routing_error() {
        let (engine, _) = sharded(2, 0);
        assert_eq!(
            engine.route("no_such_db").unwrap_err(),
            ServeError::UnknownDatabase("no_such_db".into())
        );
        engine.shutdown_all();
    }

    #[test]
    fn calls_resolve_on_every_shard_count() {
        for shards in [1, 3] {
            let (engine, items) = sharded(shards, 1);
            for item in items.iter().take(4) {
                let resp = engine.call(Arc::clone(item)).unwrap();
                assert_eq!(resp.db_id, item.db_name);
                assert!(!resp.sql.is_empty());
            }
            let metrics = engine.shutdown_all();
            let completed: u64 = metrics.iter().map(|(_, m)| m.completed).sum();
            assert_eq!(completed, 4);
            assert!(
                engine
                    .call(Arc::clone(&items[0]))
                    .is_err_and(|e| e == ServeError::Shutdown),
                "post-shutdown submits fail typed"
            );
        }
    }

    #[test]
    fn shard_slices_cover_assignments_exactly() {
        let suite = suite();
        let catalog = Catalog::from_suites([&suite]);
        let mut slices: Vec<Vec<String>> = vec![Vec::new(); 4];
        let engine = ShardedEngine::build(
            &catalog,
            &RouterConfig {
                shards: 4,
                replication: 1,
                ..RouterConfig::default()
            },
            |s, slice| {
                slices[s] = slice.db_ids().map(str::to_string).collect();
                ServiceEngine::start(
                    slice,
                    SimulatedModel::new(ModelProfile::resdsql_3b()),
                    CycleSql::new(LoopVerifier::Oracle),
                    ServeConfig {
                        workers: 1,
                        ..ServeConfig::default()
                    },
                )
            },
        );
        for (db, shards) in engine.assignments() {
            for (s, slice) in slices.iter().enumerate() {
                assert_eq!(shards.contains(&s), slice.contains(db), "{db} vs shard {s}");
            }
        }
        engine.shutdown_all();
    }
}
