//! A mutex-striped, shard-partitioned hash-consing arena for concurrent
//! view interning — the million-node backend of the election pipeline.
//!
//! [`ViewArena`](crate::ViewArena) serializes every intern behind one
//! `&mut self`, which is fine for a single-threaded analysis but makes the
//! arena the global bottleneck the moment the `COM` exchange or the level
//! computation runs on scoped threads: every worker funnels through a single
//! lock around the whole store. [`ShardedViewArena`] removes that funnel with
//! the classic unique-table design of BDD packages (Cudd's `unique table`
//! plus per-operation `computed tables`; see the workspace's SNIPPETS notes):
//!
//! * **Striped unique table** — the store is split into
//!   [`SHARD_COUNT`] shards, each an independent `Mutex<…>` holding a dense
//!   vector of records and a hash index. A record's shard is a deterministic
//!   function of its structural key, so two threads interning *different*
//!   records almost always take *different* locks, and two threads interning
//!   the *same* record are serialized only on its one shard — the invariant
//!   "structurally equal ⇒ same id" survives arbitrary interleavings.
//! * **Per-shard dense id ranges** — a [`ViewId`] packs
//!   `(local_index << SHARD_BITS) | shard`, so ids stay 32-bit, lookups are
//!   lock-one-shard, and each shard grows its own dense range independently.
//!   Ids are unique but (unlike the sequential arena's) not globally dense;
//!   all consumers key side tables by hash map, never by raw index.
//! * **Per-operation memo** — `truncate_one` keeps an exact per-shard memo
//!   (same contract as the sequential arena). `cmp_views` keeps none: the
//!   election layer orders views by refinement class ranks, so the
//!   canonical comparison only serves tests and small callers.
//!
//! ## Determinism contract
//!
//! Under concurrency the *numeric* ids depend on the interleaving (whichever
//! thread first interns a record mints its local index), but every
//! *structural* observable is schedule-independent: id equality is exactly
//! structural equality, [`cmp_views`](ShardedViewArena::cmp_views) is the
//! same canonical total order as the sequential arena's, and
//! [`compute_levels`](ShardedViewArena::compute_levels) induces the same
//! class partition and canonical class order for every thread count. The
//! umbrella property tests pin all of this to the sequential
//! [`ViewArena`](crate::ViewArena) oracle under a canonical id remap, and the
//! downstream pipeline (advice bits, elected leader, bench JSON) is
//! byte-identical across thread counts because it only consumes structural
//! observables.
//!
//! # Example
//!
//! ```
//! use anet_graph::generators;
//! use anet_views::{ShardedViewArena, ViewArena};
//!
//! let g = generators::lollipop(4, 3);
//! let sharded = ShardedViewArena::new();
//! let levels = sharded.compute_levels_with(&g, 2, 4); // 4 worker threads
//!
//! // Same number of distinct records as the sequential oracle…
//! let mut oracle = ViewArena::new();
//! let oracle_levels = oracle.compute_levels(&g, 2);
//! assert_eq!(sharded.len(), oracle.len());
//! // …and the same canonical order on every pair of node views.
//! for u in g.nodes() {
//!     for v in g.nodes() {
//!         assert_eq!(
//!             sharded.cmp_views(levels[2][u], levels[2][v]),
//!             oracle.cmp_views(oracle_levels[2][u], oracle_levels[2][v]),
//!         );
//!     }
//! }
//! ```

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

use anet_graph::{Graph, NodeId, Port};
use parking_lot::Mutex;

use crate::arena::ViewId;
use crate::view::AugmentedView;

/// log2 of [`SHARD_COUNT`]; the low bits of a [`ViewId`] carry the shard.
pub const SHARD_BITS: u32 = 4;

/// Number of independent intern-table shards (and memo-cache stripes).
pub const SHARD_COUNT: usize = 1 << SHARD_BITS;

const SHARD_MASK: u32 = (SHARD_COUNT as u32) - 1;

/// Per-shard capacity: local indices must fit in `32 - SHARD_BITS` bits.
const MAX_LOCAL: u32 = u32::MAX >> SHARD_BITS;

/// Minimum node count before `compute_levels_with` spawns worker threads.
const PARALLEL_MIN_NODES: usize = 2048;

/// One interned view record (same shape as the sequential arena's).
#[derive(Debug, Clone)]
struct Record {
    degree: u32,
    depth: u32,
    children: Box<[(Port, ViewId)]>,
}

/// One shard of the unique table: a dense record store, the hash index over
/// it, and the exact `truncate_one` memo for its records.
#[derive(Default)]
struct Shard {
    records: Vec<Record>,
    /// Full structural hash → candidate local indices (collisions resolved
    /// by structural comparison, so hash quality affects speed only).
    index: HashMap<u64, Vec<u32>>,
    /// `trunc[local] = Some(truncate_one(id))` once computed.
    trunc: Vec<Option<ViewId>>,
}

/// A hash-consed view store safe to intern into from many threads at once.
/// See the [module documentation](self) for the design and the determinism
/// contract; the API mirrors [`ViewArena`](crate::ViewArena) with `&self`
/// receivers throughout (all mutation is behind the shard mutexes).
pub struct ShardedViewArena {
    shards: Vec<Mutex<Shard>>,
}

impl Default for ShardedViewArena {
    fn default() -> Self {
        ShardedViewArena {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }
}

impl Clone for ShardedViewArena {
    /// Deep-copies the unique table and the `truncate_one` memo.
    fn clone(&self) -> Self {
        let out = ShardedViewArena::default();
        for (s, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            let mut dst = out.shards[s].lock();
            dst.records = shard.records.clone();
            dst.index = shard.index.clone();
            dst.trunc = shard.trunc.clone();
        }
        out
    }
}

impl fmt::Debug for ShardedViewArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedViewArena")
            .field("len", &self.len())
            .field("shards", &SHARD_COUNT)
            .finish()
    }
}

/// The `splitmix64` finalizer: the deterministic mixer behind both the shard
/// choice and the index hashes (no `RandomState`, so shard layout is
/// reproducible across runs and processes).
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Structural hash of an intern key (root degree + children in port order).
fn hash_key(degree: usize, children: &[(Port, ViewId)]) -> u64 {
    let mut h = mix(degree as u64 ^ 0x9e37_79b9_7f4a_7c15);
    for &(q, c) in children {
        h = mix(h ^ mix(((q as u64) << 32) | c.raw() as u64));
    }
    h
}

impl ShardedViewArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ShardedViewArena::default()
    }

    /// Number of distinct views interned so far (sums the shard lengths, so
    /// it briefly locks every shard).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().records.len()).sum()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().records.is_empty())
    }

    /// Number of records stored in shard `s` (for shard-balance tests).
    pub fn shard_len(&self, s: usize) -> usize {
        self.shards[s].lock().records.len()
    }

    fn shard_of(id: ViewId) -> usize {
        (id.raw() & SHARD_MASK) as usize
    }

    fn local_of(id: ViewId) -> usize {
        (id.raw() >> SHARD_BITS) as usize
    }

    /// Interns the depth-0 view `B^0` of a node of the given degree.
    pub fn intern_leaf(&self, degree: usize) -> ViewId {
        self.intern_record(degree, Vec::new().into_boxed_slice(), 0)
    }

    /// Interns the view assembled from a root degree and its children in
    /// port order — the same contract as
    /// [`ViewArena::intern`](crate::ViewArena::intern), callable from any
    /// thread.
    ///
    /// # Panics
    /// Panics if the record is inconsistent: a positive-depth view must have
    /// exactly `degree` children and all children must have the same depth.
    pub fn intern(&self, degree: usize, children: Vec<(Port, ViewId)>) -> ViewId {
        if children.is_empty() {
            return self.intern_leaf(degree);
        }
        assert_eq!(
            children.len(),
            degree,
            "a positive-depth view has one child per port"
        );
        let child_depth = self.depth(children[0].1);
        assert!(
            children.iter().all(|&(_, c)| self.depth(c) == child_depth),
            "all children must have the same depth"
        );
        self.intern_record(degree, children.into_boxed_slice(), child_depth as u32 + 1)
    }

    fn intern_record(&self, degree: usize, children: Box<[(Port, ViewId)]>, depth: u32) -> ViewId {
        let h = hash_key(degree, &children);
        let s = (h & SHARD_MASK as u64) as usize;
        let mut shard = self.shards[s].lock();
        if let Some(cands) = shard.index.get(&h) {
            for &local in cands {
                let r = &shard.records[local as usize];
                if r.degree as usize == degree && *r.children == *children {
                    return ViewId::from_raw((local << SHARD_BITS) | s as u32);
                }
            }
        }
        let local = shard.records.len() as u32;
        assert!(
            (local as usize) == shard.records.len() && local <= MAX_LOCAL,
            "arena shard capacity exceeded"
        );
        shard.records.push(Record {
            degree: degree as u32,
            depth,
            children,
        });
        shard.trunc.push(None);
        shard.index.entry(h).or_default().push(local);
        ViewId::from_raw((local << SHARD_BITS) | s as u32)
    }

    /// Degree of the root node of the view.
    pub fn degree(&self, id: ViewId) -> usize {
        self.shards[Self::shard_of(id)].lock().records[Self::local_of(id)].degree as usize
    }

    /// Truncation depth `l` of the view.
    pub fn depth(&self, id: ViewId) -> usize {
        self.shards[Self::shard_of(id)].lock().records[Self::local_of(id)].depth as usize
    }

    /// The children of the root in port order, as `(reverse_port, subview)`
    /// (cloned out of the shard; `O(Δ)`).
    pub fn children(&self, id: ViewId) -> Vec<(Port, ViewId)> {
        self.shards[Self::shard_of(id)].lock().records[Self::local_of(id)]
            .children
            .to_vec()
    }

    /// The subview through port `p` of the root, with the reverse port, if
    /// the view has positive depth.
    pub fn child(&self, id: ViewId, p: Port) -> Option<(Port, ViewId)> {
        self.shards[Self::shard_of(id)].lock().records[Self::local_of(id)]
            .children
            .get(p)
            .copied()
    }

    /// `(depth, degree, children)` of a record in one lock acquisition.
    fn record_parts(&self, id: ViewId) -> (u32, u32, Box<[(Port, ViewId)]>) {
        let shard = self.shards[Self::shard_of(id)].lock();
        let r = &shard.records[Self::local_of(id)];
        (r.depth, r.degree, r.children.clone())
    }

    /// The canonical total order on views — exactly
    /// [`ViewArena::cmp_views`](crate::ViewArena::cmp_views): depth, then
    /// root degree, then children in port order by (reverse port, subview).
    /// Equal ids short-circuit, so the walk descends only into subviews
    /// that differ.
    pub fn cmp_views(&self, a: ViewId, b: ViewId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let (da, ga, ca) = self.record_parts(a);
        let (db, gb, cb) = self.record_parts(b);
        da.cmp(&db).then_with(|| ga.cmp(&gb)).then_with(|| {
            for (&(pa, sa), &(pb, sb)) in ca.iter().zip(cb.iter()) {
                let o = pa.cmp(&pb).then_with(|| self.cmp_views(sa, sb));
                if o != Ordering::Equal {
                    return o;
                }
            }
            // Same depth and degree ⇒ same number of children; two views
            // with identical children intern to one id.
            unreachable!("distinct interned views must differ structurally")
        })
    }

    /// The view truncated to one less depth (`B^{d-1}` of the same root),
    /// interned. Exact per-shard memo, same contract as
    /// [`ViewArena::truncate_one`](crate::ViewArena::truncate_one) but with a
    /// `&self` receiver (callable from any thread).
    ///
    /// # Panics
    /// Panics on a depth-0 view.
    pub fn truncate_one(&self, id: ViewId) -> ViewId {
        // A memo hit answers under the one lock without copying the record;
        // only a miss clones the children it must truncate.
        let (depth, degree, children) = {
            let shard = self.shards[Self::shard_of(id)].lock();
            let local = Self::local_of(id);
            if let Some(t) = shard.trunc[local] {
                return t;
            }
            let r = &shard.records[local];
            (r.depth, r.degree as usize, r.children.clone())
        };
        assert!(depth >= 1, "cannot truncate a depth-0 view");
        let result = if depth == 1 {
            self.intern_leaf(degree)
        } else {
            let truncated: Vec<(Port, ViewId)> = children
                .iter()
                .map(|&(q, c)| (q, self.truncate_one(c)))
                .collect();
            self.intern(degree, truncated)
        };
        // Racing writers store the same deterministic value.
        self.shards[Self::shard_of(id)].lock().trunc[Self::local_of(id)] = Some(result);
        result
    }

    /// Interns `B^depth(v)` for every node of `g` and every depth
    /// `0..=depth`, sequentially — semantics of
    /// [`ViewArena::compute_levels`](crate::ViewArena::compute_levels);
    /// `result[d][v]` is the id of `B^d(v)`.
    pub fn compute_levels(&self, g: &Graph, depth: usize) -> Vec<Vec<ViewId>> {
        self.compute_levels_with(g, depth, 1)
    }

    /// [`compute_levels`](Self::compute_levels) with the per-depth interning
    /// sweep split over `threads` scoped worker threads (node-chunk
    /// parallelism; each depth is a barrier since depth `d` reads the depth
    /// `d-1` ids). Numeric ids may differ between thread counts, but the
    /// induced partition and canonical order are identical — see the
    /// [module docs](self) determinism contract.
    pub fn compute_levels_with(&self, g: &Graph, depth: usize, threads: usize) -> Vec<Vec<ViewId>> {
        let n = g.num_nodes();
        let threads = threads.max(1).min(n.max(1));
        let mut levels: Vec<Vec<ViewId>> = Vec::with_capacity(depth + 1);
        levels.push((0..n).map(|v| self.intern_leaf(g.degree(v))).collect());
        for d in 1..=depth {
            let prev = &levels[d - 1];
            let mut next: Vec<ViewId> = vec![ViewId::from_raw(0); n];
            if threads <= 1 || n < PARALLEL_MIN_NODES {
                for (v, slot) in next.iter_mut().enumerate() {
                    let children: Vec<(Port, ViewId)> =
                        g.ports(v).map(|(_, u, q)| (q, prev[u])).collect();
                    *slot = self.intern(g.degree(v), children);
                }
            } else {
                let chunk = n.div_ceil(threads);
                std::thread::scope(|scope| {
                    for (t, mine) in next.chunks_mut(chunk).enumerate() {
                        let base = t * chunk;
                        scope.spawn(move || {
                            for (i, slot) in mine.iter_mut().enumerate() {
                                let v = base + i;
                                let children: Vec<(Port, ViewId)> =
                                    g.ports(v).map(|(_, u, q)| (q, prev[u])).collect();
                                *slot = self.intern(g.degree(v), children);
                            }
                        });
                    }
                });
            }
            levels.push(next);
        }
        levels
    }

    /// Interns the view `B^depth(v)` of a single node.
    pub fn compute(&self, g: &Graph, v: NodeId, depth: usize) -> ViewId {
        if depth == 0 {
            return self.intern_leaf(g.degree(v));
        }
        let children: Vec<(Port, ViewId)> = g
            .ports(v)
            .map(|(_, u, q)| (q, self.compute(g, u, depth - 1)))
            .collect();
        self.intern(g.degree(v), children)
    }

    /// Interns an explicit [`AugmentedView`] tree (the bridge from the
    /// materialized oracle pipeline into the arena).
    pub fn intern_view(&self, view: &AugmentedView) -> ViewId {
        let children: Vec<(Port, ViewId)> = view
            .children()
            .iter()
            .map(|(q, sub)| (*q, self.intern_view(sub)))
            .collect();
        self.intern(view.degree(), children)
    }

    /// Materializes the explicit [`AugmentedView`] tree of an interned view
    /// (exponential in depth; tests and small graphs only).
    pub fn materialize(&self, id: ViewId) -> AugmentedView {
        let children: Vec<(Port, AugmentedView)> = self
            .children(id)
            .iter()
            .map(|&(q, c)| (q, self.materialize(c)))
            .collect();
        AugmentedView::from_parts(self.degree(id), children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ViewArena;
    use anet_graph::generators;

    #[test]
    fn sharded_interning_is_structural_equality() {
        let g = generators::lollipop(4, 3);
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, 3);
        for (d, level) in levels.iter().enumerate() {
            let views = AugmentedView::compute_all(&g, d);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        level[u] == level[v],
                        views[u] == views[v],
                        "depth {d}, nodes {u}/{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_len_and_order_match_the_sequential_oracle() {
        for g in [
            generators::lollipop(5, 4),
            generators::torus(3, 4),
            generators::random_connected(18, 0.2, 7),
        ] {
            let depth = 3;
            let sharded = ShardedViewArena::new();
            let sl = sharded.compute_levels(&g, depth);
            let mut oracle = ViewArena::new();
            let ol = oracle.compute_levels(&g, depth);
            assert_eq!(sharded.len(), oracle.len(), "distinct record counts");
            for d in 0..=depth {
                for u in g.nodes() {
                    for v in g.nodes() {
                        assert_eq!(
                            sharded.cmp_views(sl[d][u], sl[d][v]),
                            oracle.cmp_views(ol[d][u], ol[d][v]),
                            "depth {d}, nodes {u}/{v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_truncate_one_matches_levels_and_memoizes() {
        let g = generators::lollipop(5, 4);
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, 3);
        for v in g.nodes() {
            for d in 1..=3usize {
                let t = arena.truncate_one(levels[d][v]);
                assert_eq!(t, levels[d - 1][v], "depth {d}, node {v}");
                assert_eq!(arena.truncate_one(levels[d][v]), t);
            }
        }
    }

    #[test]
    fn cmp_views_matches_the_explicit_view_order() {
        let g = generators::caterpillar(5);
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, 2);
        let views = AugmentedView::compute_all(&g, 2);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    arena.cmp_views(levels[2][u], levels[2][v]),
                    views[u].cmp(&views[v]),
                    "nodes {u}/{v}"
                );
            }
        }
    }

    #[test]
    fn concurrent_interning_of_one_view_set_yields_no_duplicates() {
        // The striped-table hammer: N threads intern the *same* records
        // concurrently; the unique-table invariant demands the total record
        // count equal the sequential oracle's exactly.
        let g = generators::random_connected(40, 0.15, 11);
        let depth = 3;
        let mut oracle = ViewArena::new();
        let _ = oracle.compute_levels(&g, depth);
        for threads in [2usize, 4, 8] {
            let arena = ShardedViewArena::new();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let _ = arena.compute_levels(&g, depth);
                    });
                }
            });
            assert_eq!(
                arena.len(),
                oracle.len(),
                "{threads} hammer threads minted duplicates"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a 3000-node workload is too large for the interpreter")]
    fn parallel_compute_levels_partition_matches_sequential() {
        let g = generators::random_connected_sparse(3000, 3000, 5);
        let seq_arena = ShardedViewArena::new();
        let seq = seq_arena.compute_levels_with(&g, 2, 1);
        for threads in [2usize, 8] {
            let par_arena = ShardedViewArena::new();
            let par = par_arena.compute_levels_with(&g, 2, threads);
            assert_eq!(par_arena.len(), seq_arena.len());
            for d in 0..=2 {
                // Same partition: equal ids in one run ⟺ equal in the other.
                let mut remap: HashMap<u32, u32> = HashMap::new();
                for v in g.nodes() {
                    let expect = seq[d][v].raw();
                    let got = *remap.entry(par[d][v].raw()).or_insert(expect);
                    assert_eq!(got, expect, "depth {d}, node {v}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn ids_roundtrip_through_shard_packing() {
        let arena = ShardedViewArena::new();
        let mut seen = std::collections::HashSet::new();
        for degree in 0..200usize {
            let id = arena.intern_leaf(degree);
            assert!(seen.insert(id.raw()), "id collision for degree {degree}");
            assert_eq!(arena.degree(id), degree);
            assert_eq!(arena.depth(id), 0);
            assert_eq!(arena.intern_leaf(degree), id, "re-intern must hit");
        }
        assert_eq!(arena.len(), 200);
        let spread = (0..SHARD_COUNT).filter(|&s| arena.shard_len(s) > 0).count();
        assert!(spread > 1, "200 leaves all hashed into one shard");
    }

    #[test]
    fn materialize_roundtrips_through_intern_view() {
        let g = generators::star(4);
        let arena = ShardedViewArena::new();
        for v in g.nodes() {
            for d in 0..3 {
                let explicit = AugmentedView::compute(&g, v, d);
                let id = arena.intern_view(&explicit);
                assert_eq!(arena.materialize(id), explicit);
                assert_eq!(arena.depth(id), d);
                assert_eq!(arena.degree(id), explicit.degree());
            }
        }
    }

    #[test]
    fn clone_preserves_records_and_ids() {
        let g = generators::lollipop(4, 3);
        let arena = ShardedViewArena::new();
        let levels = arena.compute_levels(&g, 2);
        let copy = arena.clone();
        assert_eq!(copy.len(), arena.len());
        for v in g.nodes() {
            assert_eq!(
                copy.materialize(levels[2][v]),
                arena.materialize(levels[2][v])
            );
        }
        // Interning into the copy does not affect the original.
        let before = arena.len();
        copy.intern_leaf(10_000);
        assert_eq!(arena.len(), before);
    }

    #[test]
    #[should_panic]
    fn truncating_a_leaf_panics() {
        let arena = ShardedViewArena::new();
        let leaf = arena.intern_leaf(2);
        arena.truncate_one(leaf);
    }

    #[test]
    #[should_panic]
    fn inconsistent_child_count_panics() {
        let arena = ShardedViewArena::new();
        let leaf = arena.intern_leaf(1);
        arena.intern(3, vec![(0, leaf)]);
    }
}
