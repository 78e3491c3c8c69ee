//! A sharded, capacity-bounded LRU keyed by `(db_id, canonical SQL)`, and
//! the serving engine's result cache built on it.
//!
//! The canonical form is the AST's normalized print, so textual variants
//! of the same query share one entry, while the same SQL against two
//! catalog databases never does. Each shard is an intrusive doubly-linked
//! LRU behind its own mutex; hit/miss counters are atomics incremented
//! exactly once per lookup, so they stay exact under concurrency. A lookup
//! borrows its `(db_id, sql)` pair and hashes it once: that hash picks the
//! shard and, unhashed again, the shard's slot. Only a miss's insert owns
//! a copy of the key.
//!
//! The engine caches query *results* ([`ResultCache`]), not compiled
//! plans: a served [`Catalog`](crate::Catalog) never changes after start
//! and its ids are unique, so rerunning a cached plan could only ever
//! produce the same rows again. A failing query is cached too, as `None`.
//! Each result's entry also keeps its bag fingerprint and, once built, the
//! loop's data-grounded explanation of it ([`CachedRun`]): both, too, are
//! functions of the database and the canonical SQL alone.

use cyclesql_core::CachedRun;
use cyclesql_sql::{to_sql, Query};
use cyclesql_storage::{CompiledQuery, Database, ExecOpts};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: database id plus the canonical (AST-printed) SQL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The catalog database id (schema name).
    pub db_id: String,
    /// The canonical SQL text.
    pub sql: String,
}

impl PlanKey {
    /// The key for `ast` against `db`.
    pub fn of(db: &Database, ast: &Query) -> Self {
        PlanKey {
            db_id: db.schema.name.clone(),
            sql: to_sql(ast),
        }
    }
}

/// The one hash of a key: its high half picks the shard, and the shard's
/// map uses it whole to pick the slot.
fn key_hash(db_id: &str, sql: &str) -> u64 {
    let mut h = DefaultHasher::new();
    db_id.hash(&mut h);
    sql.hash(&mut h);
    h.finish()
}

/// A hasher for keys that already are [`key_hash`]es: it passes them
/// through.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a shard map's keys are u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

const NIL: usize = usize::MAX;

struct Node<V> {
    key: PlanKey,
    value: V,
    prev: usize,
    next: usize,
}

/// One LRU shard: slab-backed intrusive list, most-recent at `head`.
struct Shard<V> {
    capacity: usize,
    /// Key hash → slot. No two live entries share a hash: a key whose hash
    /// is already taken replaces the entry that holds it.
    map: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    nodes: Vec<Node<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<V: Clone> Shard<V> {
    fn new(capacity: usize) -> Self {
        Shard {
            capacity,
            map: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn lookup(&mut self, hash: u64, db_id: &str, sql: &str) -> Option<V> {
        let slot = *self.map.get(&hash)?;
        let key = &self.nodes[slot].key;
        if key.db_id != db_id || key.sql != sql {
            return None;
        }
        self.unlink(slot);
        self.push_front(slot);
        Some(self.nodes[slot].value.clone())
    }

    fn insert(&mut self, hash: u64, key: PlanKey, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&hash) {
            // The same key is refreshed; another key with its hash takes
            // the slot over.
            self.nodes[slot].key = key;
            self.nodes[slot].value = value;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let old = self.map.remove(&key_hash(
                &self.nodes[victim].key.db_id,
                &self.nodes[victim].key.sql,
            ));
            debug_assert_eq!(old, Some(victim));
            self.free.push(victim);
        }
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s] = node;
                s
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(hash, slot);
        self.push_front(slot);
    }

    /// Inserts `value` unless the key is already cached, and returns the
    /// cached value either way: concurrent fills of one key converge on
    /// the first one inserted.
    fn insert_or_get(&mut self, hash: u64, key: PlanKey, value: V) -> V {
        if let Some(existing) = self.lookup(hash, &key.db_id, &key.sql) {
            return existing;
        }
        self.insert(hash, key, value.clone());
        value
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The sharded LRU. Total capacity is split exactly across shards (the
/// first `capacity % shards` shards hold one extra entry), so the cache
/// never exceeds its configured bound.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// An LRU of compiled plans.
pub type PlanCache = ShardedLru<Arc<CompiledQuery>>;

/// The serving engine's LRU of query results, each with its memoized
/// explanation; `None` records a query that fails to compile or run.
pub type ResultCache = ShardedLru<Option<Arc<CachedRun>>>;

impl<V: Clone> ShardedLru<V> {
    /// A cache bounded at `capacity` entries spread over `shards` shards
    /// (clamped so every shard holds at least one entry when capacity
    /// allows).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards = (0..shards)
            .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra))))
            .collect();
        ShardedLru {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard<V>> {
        &self.shards[(hash >> 32) as usize % self.shards.len()]
    }

    /// Looks up an entry, counting exactly one hit or miss.
    pub fn lookup(&self, key: &PlanKey) -> Option<V> {
        self.lookup_hashed(key_hash(&key.db_id, &key.sql), &key.db_id, &key.sql)
    }

    fn lookup_hashed(&self, hash: u64, db_id: &str, sql: &str) -> Option<V> {
        let found = self
            .shard(hash)
            .lock()
            .expect("shard poisoned")
            .lookup(hash, db_id, sql);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts (or refreshes) an entry, evicting the shard's least-recently
    /// used entry when at capacity.
    pub fn insert(&self, key: PlanKey, value: V) {
        let hash = key_hash(&key.db_id, &key.sql);
        self.shard(hash)
            .lock()
            .expect("shard poisoned")
            .insert(hash, key, value);
    }

    /// One lookup of the borrowed `(db_id, sql)` key (hit or miss counted
    /// exactly once); a miss computes the value with `fill` outside the
    /// shard lock and caches it under an owned key, unless a concurrent
    /// miss cached the key first — then that value is returned, so every
    /// caller shares one entry. Returns the value and whether it was a hit.
    pub fn get_or_insert_with(
        &self,
        db_id: &str,
        sql: &str,
        fill: impl FnOnce() -> V,
    ) -> (V, bool) {
        let hash = key_hash(db_id, sql);
        if let Some(value) = self.lookup_hashed(hash, db_id, sql) {
            return (value, true);
        }
        let value = fill();
        let key = PlanKey {
            db_id: db_id.to_owned(),
            sql: sql.to_owned(),
        };
        (
            self.shard(hash)
                .lock()
                .expect("shard poisoned")
                .insert_or_get(hash, key, value),
            false,
        )
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ResultCache {
    /// The cached run of `query` on `db`, keyed by `sql` (a text that
    /// parses to `query`), and whether it was a hit. A miss compiles and
    /// runs the query under `opts` and caches the outcome, failures
    /// included. Sound only for databases that never change.
    pub fn run(
        &self,
        db: &Database,
        sql: &str,
        query: &Query,
        opts: &ExecOpts<'_>,
    ) -> (Option<Arc<CachedRun>>, bool) {
        self.get_or_insert_with(&db.schema.name, sql, || CachedRun::execute(db, query, opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_explain::{generate_explanation, Explanation};
    use cyclesql_provenance::track_provenance;
    use cyclesql_sql::parse;
    use cyclesql_storage::{
        compile, ColumnDef, DataType, DatabaseSchema, ResultSet, TableSchema, Value,
    };
    use std::sync::atomic::AtomicUsize;

    fn db(name: &str) -> Database {
        let mut schema = DatabaseSchema::new(name);
        schema.add_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
        ));
        let mut d = Database::new(schema);
        for i in 0..5 {
            d.insert("t", vec![Value::Int(i), Value::Int(i * 10)]);
        }
        d
    }

    /// `ast`'s run through the cache, keyed by its print.
    fn cached_run(
        cache: &ResultCache,
        d: &Database,
        ast: &Query,
    ) -> (Option<Arc<CachedRun>>, bool) {
        cache.run(d, &to_sql(ast), ast, &ExecOpts::default())
    }

    /// [`cached_run`]'s result alone.
    fn cached_result(
        cache: &ResultCache,
        d: &Database,
        ast: &Query,
    ) -> (Option<Arc<ResultSet>>, bool) {
        let (run, hit) = cached_run(cache, d, ast);
        (run.map(|r| Arc::clone(&r.result)), hit)
    }

    /// The loop's data-grounded explanation of `result`'s first row.
    fn explain(d: &Database, ast: &Query, result: &ResultSet) -> Explanation {
        let prov = track_provenance(d, ast, result, 0).expect("provenance");
        generate_explanation(d, ast, result, 0, &prov)
    }

    fn plan_of(d: &Database, sql: &str) -> Arc<CompiledQuery> {
        Arc::new(compile(d, &parse(sql).unwrap()).unwrap())
    }

    #[test]
    fn eviction_respects_total_capacity() {
        let d = db("cap");
        let cache = PlanCache::new(4, 2);
        for i in 0..50 {
            let sql = format!("SELECT v FROM t WHERE id = {i}");
            cache.insert(
                PlanKey {
                    db_id: "cap".into(),
                    sql: sql.clone(),
                },
                plan_of(&d, &sql),
            );
            assert!(
                cache.len() <= 4,
                "after {} inserts: {} entries",
                i + 1,
                cache.len()
            );
        }
        assert_eq!(cache.len(), 4, "full cache stays exactly at capacity");
    }

    #[test]
    fn lru_order_prefers_recently_used() {
        let d = db("lru");
        // One shard so the eviction order is fully deterministic.
        let cache = PlanCache::new(2, 1);
        let key = |sql: &str| PlanKey {
            db_id: "lru".into(),
            sql: sql.into(),
        };
        cache.insert(key("a"), plan_of(&d, "SELECT id FROM t"));
        cache.insert(key("b"), plan_of(&d, "SELECT v FROM t"));
        assert!(cache.lookup(&key("a")).is_some(), "touch a");
        cache.insert(key("c"), plan_of(&d, "SELECT id, v FROM t")); // evicts b
        assert!(
            cache.lookup(&key("a")).is_some(),
            "a survived (recently used)"
        );
        assert!(
            cache.lookup(&key("b")).is_none(),
            "b evicted (least recent)"
        );
        assert!(cache.lookup(&key("c")).is_some());
    }

    #[test]
    fn a_key_whose_hash_is_taken_replaces_its_entry() {
        // Two keys forced onto one hash: the second takes the slot over,
        // and the first then misses instead of reading the second's value.
        let mut shard = Shard::new(4);
        let key = |sql: &str| PlanKey {
            db_id: "clash".into(),
            sql: sql.into(),
        };
        shard.insert(7, key("a"), 1);
        assert_eq!(shard.lookup(7, "clash", "a"), Some(1));
        shard.insert(7, key("b"), 2);
        assert_eq!(shard.lookup(7, "clash", "a"), None);
        assert_eq!(shard.lookup(7, "clash", "b"), Some(2));
        assert_eq!(shard.lookup(7, "other", "b"), None);
        assert_eq!(shard.len(), 1);
    }

    #[test]
    fn keys_include_the_database_id() {
        let d1 = db("db_one");
        let cache = ResultCache::new(8, 2);
        let ast = parse("SELECT count(*) FROM t").unwrap();
        let (result, hit) = cached_result(&cache, &d1, &ast);
        assert!(result.is_some() && !hit);
        // The same canonical SQL against another catalog database misses:
        // entries are never replayed across databases.
        let other = PlanKey {
            db_id: "db_two".into(),
            sql: to_sql(&ast),
        };
        assert!(cache.lookup(&other).is_none());
        // …while the original key hits.
        let original = PlanKey {
            db_id: "db_one".into(),
            sql: to_sql(&ast),
        };
        assert!(cache.lookup(&original).is_some());
    }

    #[test]
    fn hit_and_miss_counters_are_exact_under_concurrency() {
        let d = db("conc");
        let cache = ResultCache::new(64, 4);
        let sqls: Vec<String> = (0..8)
            .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
            .collect();
        let threads = 8;
        let rounds = 200;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let d = &d;
                let sqls = &sqls;
                scope.spawn(move || {
                    for r in 0..rounds {
                        let ast = parse(&sqls[(t + r) % sqls.len()]).unwrap();
                        let (result, _) = cached_result(cache, d, &ast);
                        assert!(result.is_some());
                    }
                });
            }
        });
        let lookups = cache.hits() + cache.misses();
        assert_eq!(
            lookups,
            (threads * rounds) as u64,
            "every lookup counted exactly once: {} hits + {} misses",
            cache.hits(),
            cache.misses()
        );
        // The working set fits in capacity, so after warmup everything hits;
        // at most one run per (thread, key) race is possible.
        assert!(cache.misses() <= (threads * sqls.len()) as u64);
        assert!(cache.hits() >= (threads * rounds - threads * sqls.len()) as u64);
    }

    #[test]
    fn failing_queries_are_cached_as_none() {
        let d = db("badq");
        let cache = ResultCache::new(8, 1);
        let ast = parse("SELECT missing_col FROM t").unwrap();
        for round in 0..3 {
            let (result, hit) = cached_result(&cache, &d, &ast);
            assert!(result.is_none());
            assert_eq!(hit, round > 0, "round {round}");
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(
            (cache.misses(), cache.hits()),
            (1, 2),
            "one miss, then hits"
        );
    }

    #[test]
    fn cached_results_equal_execute_row_for_row() {
        let d = db("rows");
        let cache = ResultCache::new(8, 2);
        let sqls = [
            "SELECT id, v FROM t ORDER BY v DESC",
            "SELECT v FROM t WHERE id > 1",
            "SELECT count(*), sum(v) FROM t",
        ];
        for sql in sqls {
            let ast = parse(sql).unwrap();
            let expected = cyclesql_storage::execute(&d, &ast).unwrap();
            for _ in 0..2 {
                let (result, _) = cached_result(&cache, &d, &ast);
                let result = result.expect("query runs");
                assert_eq!(result.columns, expected.columns, "{sql}");
                assert_eq!(result.rows, expected.rows, "{sql}: same rows, same order");
            }
        }
        assert_eq!((cache.misses(), cache.hits()), (3, 3));
    }

    #[test]
    fn zero_capacity_answers_correctly_and_always_misses() {
        let d = db("zero");
        let cache = ResultCache::new(0, 8);
        let ast = parse("SELECT v FROM t WHERE id < 3").unwrap();
        let expected = cyclesql_storage::execute(&d, &ast).unwrap();
        for _ in 0..4 {
            let (result, hit) = cached_result(&cache, &d, &ast);
            assert_eq!(result.as_deref(), Some(&expected));
            assert!(!hit);
        }
        assert!(cache.is_empty());
        assert_eq!((cache.misses(), cache.hits()), (4, 0));
    }

    #[test]
    fn explanation_is_built_once_per_entry_even_under_concurrency() {
        let d = db("memo");
        let cache = ResultCache::new(8, 2);
        let ast = parse("SELECT v FROM t WHERE id = 3").unwrap();
        let builds = AtomicUsize::new(0);
        // All eight start together, so their result lookups race too.
        let start = std::sync::Barrier::new(8);
        let shared: Vec<Arc<Explanation>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let (run, _) = cached_run(&cache, &d, &ast);
                        let run = run.expect("query runs");
                        let (e, _) = run.explanation_or_init(|| {
                            builds.fetch_add(1, Ordering::Relaxed);
                            explain(&d, &ast, &run.result)
                        });
                        e
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(
            builds.load(Ordering::Relaxed),
            1,
            "one build for eight readers"
        );
        assert!(
            shared.iter().all(|e| Arc::ptr_eq(e, &shared[0])),
            "one shared explanation"
        );
        // Sequential reads of the same entry build nothing more.
        let (run, hit) = cached_run(&cache, &d, &ast);
        assert!(hit);
        let (e, memoized) = run
            .unwrap()
            .explanation_or_init(|| unreachable!("already built"));
        assert!(memoized && Arc::ptr_eq(&e, &shared[0]));
    }

    #[test]
    fn evicting_a_result_drops_its_explanation() {
        let d = db("evict");
        // One entry, one shard: the second query evicts the first.
        let cache = ResultCache::new(1, 1);
        let first = parse("SELECT v FROM t WHERE id = 1").unwrap();
        let second = parse("SELECT v FROM t WHERE id = 2").unwrap();
        let (run, _) = cached_run(&cache, &d, &first);
        let run = run.unwrap();
        let (e, _) = run.explanation_or_init(|| explain(&d, &first, &run.result));
        let memo = Arc::downgrade(&e);
        drop((e, run));
        assert!(memo.upgrade().is_some(), "the entry keeps its explanation");
        cached_run(&cache, &d, &second);
        assert!(memo.upgrade().is_none(), "eviction freed the explanation");
        let (run, hit) = cached_run(&cache, &d, &first);
        assert!(!hit);
        assert!(
            run.unwrap().explanation.get().is_none(),
            "a fresh entry starts unexplained"
        );
    }

    #[test]
    fn zero_capacity_builds_every_explanation_and_matches_a_fresh_one() {
        let d = db("zero_memo");
        let cache = ResultCache::new(0, 4);
        let ast = parse("SELECT id, v FROM t WHERE v > 10 ORDER BY v").unwrap();
        let fresh = explain(&d, &ast, &cyclesql_storage::execute(&d, &ast).unwrap());
        let builds = AtomicUsize::new(0);
        for _ in 0..3 {
            let (run, hit) = cached_run(&cache, &d, &ast);
            let run = run.unwrap();
            let (e, memoized) = run.explanation_or_init(|| {
                builds.fetch_add(1, Ordering::Relaxed);
                explain(&d, &ast, &run.result)
            });
            assert!(!hit && !memoized);
            assert_eq!(e.text, fresh.text);
            assert_eq!(format!("{:?}", e.facets), format!("{:?}", fresh.facets));
        }
        assert_eq!(builds.load(Ordering::Relaxed), 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn failing_entries_carry_no_explanation() {
        let d = db("bad_memo");
        let cache = ResultCache::new(8, 1);
        let ast = parse("SELECT missing_col FROM t").unwrap();
        for round in 0..2 {
            let (run, hit) = cached_run(&cache, &d, &ast);
            assert!(run.is_none(), "round {round}: nothing to explain");
            assert_eq!(hit, round > 0);
        }
        let key = PlanKey::of(&d, &ast);
        assert!(
            matches!(cache.lookup(&key), Some(None)),
            "the failure itself is cached"
        );
    }

    #[test]
    fn memo_reads_are_not_cache_lookups() {
        let d = db("tally");
        let cache = ResultCache::new(8, 2);
        let ast = parse("SELECT count(*) FROM t").unwrap();
        let (run, _) = cached_run(&cache, &d, &ast);
        let run = run.unwrap();
        for _ in 0..3 {
            run.explanation_or_init(|| explain(&d, &ast, &run.result));
        }
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 1),
            "one lookup, however many memo reads"
        );
    }
}
