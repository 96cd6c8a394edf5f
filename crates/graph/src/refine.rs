//! Flat-buffer, sort-based partition refinement: the workspace's one
//! colour-refinement kernel.
//!
//! This module ranks the refinement keys of all nodes at one depth without
//! materializing any per-node key objects. Every view-partition consumer
//! reads its rows: `ViewClasses` in `anet-views` (the per-depth table behind
//! φ, feasibility and the base-time analysis), [`Graph::canonical_form`]
//! and, through it, [`MinimumBase::of`](crate::MinimumBase::of). The kernel
//! runs over any [`DartRows`] source — a [`Graph`], or the dart rows
//! `[Vec<(NodeId, Port)>]` of a quotient base. The refinement key of a node
//! `v` at depth `d` is
//!
//! ```text
//! (deg(v), [(q_0, c_0), (q_1, c_1), ..., (q_{deg(v)-1}, c_{deg(v)-1})])
//! ```
//!
//! where `q_p` is the reverse port of the dart at port `p` and `c_p` is the
//! depth-`d-1` class of the node behind port `p`. Two nodes have equal
//! keys iff their views at depth `d` are equal, and key order mirrors the
//! canonical view order (degree first, then the port sequence
//! lexicographically). Ranks depend only on keys, never on node ids, so
//! every row is invariant under renumbering.
//!
//! [`until_stable`] is the stopping rule: refine until the class count
//! reaches a target node count, or stops growing.
//!
//! ## Data layout
//!
//! The scratch is a flattened CSR structure shared by every depth:
//!
//! * `offsets` — `n + 1` prefix sums of degrees, built once per source. Node
//!   `v`'s key words live at `words[offsets[v]..offsets[v + 1]]`; the slice
//!   length *is* the degree, so degree-first comparison falls out of a
//!   `(len, slice)` comparison.
//! * `words` — `2m` packed `u64` words, one per (node, port). The word for
//!   `(q_p, c_p)` is `q_p * k + c_p` with `k` the previous depth's class
//!   count, which preserves the lexicographic pair order because `c_p < k`.
//! * `order` / `aux` — `n`-element node-index permutation and its ping-pong
//!   partner for the sorting passes.
//! * `counts` — bucket histogram reused by the counting/radix sorts, with
//!   per-thread rows (`thread_counts` / `thread_offsets`) for the parallel
//!   passes.
//!
//! ## Per-depth pass
//!
//! One [`Refiner::extend`] call performs, with **zero heap allocation in the
//! ranking inner loop** (every buffer above is reused across depths):
//!
//! 1. *key fill* — one linear sweep writing the packed words (`O(m)`),
//! 2. *order* — a stable counting sort of the node indices by degree,
//!    followed, inside each equal-degree group, by an LSD radix sort over the
//!    word positions when the packed-word width permits (`Δ · k` buckets
//!    fitting the reused histogram) or an unstable comparison sort on the
//!    word slices otherwise,
//! 3. *rank* — a scan over the sorted order assigning dense class ids;
//!    equal adjacent keys share an id, so class ids are exactly the ranks of
//!    the distinct keys in canonical order.
//!
//! With [`RefineOptions::threads`] ` > 1` every stage runs on
//! `std::thread::scope` workers and produces **bit-identical** ranks to the
//! sequential path:
//!
//! * the key fill splits the CSR word buffer into disjoint per-chunk slices,
//! * the degree counting sort becomes the textbook parallel counting sort —
//!   per-thread local histograms, a sequential `O(threads · Δ)` prefix-sum
//!   merge establishing every `(chunk, bucket)` run's final position, a
//!   per-chunk stable local scatter, and a bucket-major merge in which each
//!   worker owns a contiguous range of buckets (hence a contiguous output
//!   slice) — stability is preserved because runs concatenate in (bucket,
//!   chunk, in-chunk) order, which is exactly the sequential visit order,
//! * the equal-degree groups are batched into contiguous ranges of roughly
//!   equal element counts, one worker per batch, each with its own histogram
//!   row (group boundaries never split, so per-group sort results are
//!   position-for-position those of the sequential pass),
//! * the rank scan splits into a parallel key-boundary-flag sweep (the
//!   `O(Δ)`-per-element comparisons) and a sequential `O(n)` prefix
//!   accumulation over the flags.
//!
//! The only per-depth allocation is the returned class row itself.

use crate::graph::{Graph, NodeId, Port};

/// A dense class identifier. Classes at depth `d` are numbered `0..k_d` in
/// the canonical order of the corresponding views (class 0 is the
/// lexicographically smallest view at that depth).
pub type ClassId = usize;

/// Largest bucket count the radix path may ask of the reused histogram
/// (64 Ki buckets = 512 KiB of `usize` counts, allocated lazily once).
const RADIX_MAX_BUCKETS: usize = 1 << 16;

/// Minimum size of an equal-degree group before the radix path pays for
/// zeroing its histogram range; smaller groups use the comparison sort.
const RADIX_MIN_GROUP: usize = 256;

/// Minimum node count before the parallel paths are worth the thread
/// spawning overhead.
const PARALLEL_MIN_NODES: usize = 2048;

/// Tuning knobs for the refinement engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineOptions {
    /// Number of worker threads for one depth extension. `0` and `1` both
    /// select the sequential path. Larger values parallelize the key fill,
    /// the counting sort, the per-group radix/comparison sorts and the rank
    /// boundary sweep; the resulting class rows are bit-identical to the
    /// sequential path's at every thread count.
    pub threads: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions { threads: 1 }
    }
}

/// The dart structure the kernel refines: `row(v)[p] = (u, q)` when port `p`
/// of node `v` leads to node `u`, arriving on port `q`. Implemented by
/// [`Graph`] and by the dart rows of a quotient base, whose rows may hold
/// self-loops, parallel darts and darts that are their own partner.
pub trait DartRows: Sync {
    /// Number of nodes (rows).
    fn num_nodes(&self) -> usize;
    /// The darts of node `v`, in port order.
    fn row(&self, v: NodeId) -> &[(NodeId, Port)];
}

impl DartRows for Graph {
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }

    fn row(&self, v: NodeId) -> &[(NodeId, Port)] {
        self.neighbor_slice(v)
    }
}

impl DartRows for [Vec<(NodeId, Port)>] {
    fn num_nodes(&self) -> usize {
        self.len()
    }

    fn row(&self, v: NodeId) -> &[(NodeId, Port)] {
        &self[v]
    }
}

/// The stopping rule, written once: ranks `src` at depth 0, then extends
/// depth by depth, and stops at depth `d` when the class count reaches
/// `target`, or at `d + 1` when an extension does not grow the count (the
/// partition is then the same at every deeper depth). Every row, depth 0
/// first, is handed to `keep` with its class count; returns the stopping
/// depth.
///
/// `target` is the number of nodes the rows describe: `src.num_nodes()`
/// for a graph, and `C · fold` for the base of a `fold`-sheeted cover,
/// whose rows are the cover's rows pushed through the covering map.
pub fn until_stable<S: DartRows + ?Sized>(
    src: &S,
    target: usize,
    opts: &RefineOptions,
    mut keep: impl FnMut(Vec<ClassId>, usize),
) -> usize {
    let mut refiner = Refiner::new(src);
    let (mut row, mut k) = refiner.rank_by_degree();
    let mut depth = 0;
    while k != target {
        let (next, k_next) = refiner.extend(src, &row, k, opts);
        keep(std::mem::replace(&mut row, next), k);
        depth += 1;
        let grew = k_next != k;
        k = k_next;
        if !grew {
            break;
        }
    }
    keep(row, k);
    depth
}

/// Reusable scratch state for refining one dart source across depths.
///
/// Construct once per source with [`Refiner::new`], then call
/// [`rank_by_degree`](Refiner::rank_by_degree) for depth 0 and
/// [`extend`](Refiner::extend) once per further depth. All internal buffers
/// are reused between calls.
#[derive(Debug)]
pub struct Refiner {
    n: usize,
    /// Largest row length `Δ` (the degree histogram has `Δ + 1` buckets).
    max_degree: usize,
    /// CSR offsets: node `v`'s words live at `words[offsets[v]..offsets[v+1]]`.
    offsets: Vec<usize>,
    /// Packed `(reverse_port, neighbor_class)` words for the current depth.
    words: Vec<u64>,
    /// Node indices, sorted by key during a pass.
    order: Vec<NodeId>,
    /// Ping-pong partner of `order` for the stable sorting passes.
    aux: Vec<NodeId>,
    /// Bucket histogram for the counting/radix sorts (grown lazily, capped at
    /// [`RADIX_MAX_BUCKETS`]).
    counts: Vec<usize>,
    /// Per-thread histogram rows for the parallel counting/radix passes.
    thread_counts: Vec<Vec<usize>>,
    /// Per-thread write cursors (prefix sums of `thread_counts`) for the
    /// parallel counting scatter.
    thread_offsets: Vec<Vec<usize>>,
    /// Key-boundary flags for the parallel rank sweep.
    flags: Vec<u8>,
    /// Equal-degree group bounds collected for the parallel group sorts.
    group_bounds: Vec<(usize, usize)>,
}

impl Refiner {
    /// Allocates scratch sized for `src`; the only allocations the engine
    /// ever performs besides the per-depth output rows (the per-thread rows
    /// grow lazily on the first parallel pass).
    pub fn new<S: DartRows + ?Sized>(src: &S) -> Self {
        let n = src.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        let mut max_degree = 0;
        offsets.push(0);
        for v in 0..n {
            let deg = src.row(v).len();
            max_degree = max_degree.max(deg);
            total += deg;
            offsets.push(total);
        }
        Refiner {
            n,
            max_degree,
            offsets,
            words: vec![0; total],
            order: vec![0; n],
            aux: vec![0; n],
            counts: Vec::new(),
            thread_counts: Vec::new(),
            thread_offsets: Vec::new(),
            flags: Vec::new(),
            group_bounds: Vec::new(),
        }
    }

    /// Depth-0 ranking: dense ranks of the node degrees (the depth-0 key is
    /// the degree alone). Returns the class row and the class count. One
    /// `O(n)` counting pass — always sequential.
    pub fn rank_by_degree(&mut self) -> (Vec<ClassId>, usize) {
        self.sort_by_degree(1);
        let mut ranks = vec![0; self.n];
        let mut k = 0;
        if self.n > 0 {
            let mut rank = 0;
            ranks[self.order[0]] = 0;
            for i in 1..self.n {
                if self.degree(self.order[i]) != self.degree(self.order[i - 1]) {
                    rank += 1;
                }
                ranks[self.order[i]] = rank;
            }
            k = rank + 1;
        }
        (ranks, k)
    }

    /// One depth extension: given the previous depth's class row `prev` with
    /// `k_prev` classes, computes the class row of the next depth. `src`
    /// must be the source the refiner was built for.
    pub fn extend<S: DartRows + ?Sized>(
        &mut self,
        src: &S,
        prev: &[ClassId],
        k_prev: usize,
        opts: &RefineOptions,
    ) -> (Vec<ClassId>, usize) {
        debug_assert_eq!(prev.len(), self.n);
        let threads = opts.threads.max(1);
        self.fill_keys(src, prev, k_prev, threads);
        self.sort_by_degree(threads);
        self.sort_groups_by_words(k_prev, threads);
        self.rank_sorted(threads)
    }

    /// Degree of node `v` (the length of its CSR word slice).
    fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Key fill: `words[offsets[v] + p] = q_p * k_prev + c_p`.
    fn fill_keys<S: DartRows + ?Sized>(
        &mut self,
        src: &S,
        prev: &[ClassId],
        k_prev: usize,
        threads: usize,
    ) {
        let k = k_prev as u64;
        if threads <= 1 || self.n < PARALLEL_MIN_NODES {
            for v in 0..self.n {
                let base = self.offsets[v];
                for (p, &(u, q)) in src.row(v).iter().enumerate() {
                    self.words[base + p] = q as u64 * k + prev[u] as u64;
                }
            }
            return;
        }
        // Parallel path: disjoint word ranges per node chunk, one scoped
        // thread each.
        let n = self.n;
        let chunk = n.div_ceil(threads).max(1);
        let offsets = &self.offsets;
        std::thread::scope(|scope| {
            let mut rest: &mut [u64] = &mut self.words;
            for t in 0..threads {
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                if lo >= hi {
                    break;
                }
                let (mine, tail) = rest.split_at_mut(offsets[hi] - offsets[lo]);
                rest = tail;
                scope.spawn(move || {
                    let mut w = 0;
                    for v in lo..hi {
                        for &(u, q) in src.row(v) {
                            mine[w] = q as u64 * k + prev[u] as u64;
                            w += 1;
                        }
                    }
                });
            }
        });
    }

    /// Stable counting sort of `order` by degree (the primary key
    /// component). With `threads > 1` this is the parallel counting sort
    /// described in the [module docs](self); its output is bit-identical to
    /// the sequential pass.
    fn sort_by_degree(&mut self, threads: usize) {
        let buckets = self.max_degree + 1;
        let threads = threads.max(1).min(self.n.max(1));
        if threads <= 1 || self.n < PARALLEL_MIN_NODES || buckets > RADIX_MAX_BUCKETS {
            self.reset_counts(buckets);
            for v in 0..self.n {
                let deg = self.degree(v);
                self.counts[deg] += 1;
            }
            prefix_sums(&mut self.counts[..buckets]);
            for v in 0..self.n {
                let deg = self.degree(v);
                let slot = &mut self.counts[deg];
                self.order[*slot] = v;
                *slot += 1;
            }
            return;
        }
        self.parallel_sort_by_degree(buckets, threads);
    }

    /// The four-phase parallel counting sort: per-chunk histograms, local
    /// stable scatters into `aux`, a sequential global prefix merge, and a
    /// bucket-major parallel merge back into `order`.
    fn parallel_sort_by_degree(&mut self, buckets: usize, threads: usize) {
        let n = self.n;
        let chunk = n.div_ceil(threads);
        let used = n.div_ceil(chunk);
        self.ensure_thread_rows(used, buckets);
        // Phase 1 (parallel): per-chunk degree histograms.
        let offsets: &[usize] = &self.offsets;
        std::thread::scope(|scope| {
            for (t, row) in self.thread_counts.iter_mut().take(used).enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                scope.spawn(move || {
                    for v in lo..hi {
                        row[offsets[v + 1] - offsets[v]] += 1;
                    }
                });
            }
        });
        // Phase 2 (parallel): stable per-chunk counting sort into `aux`,
        // each chunk scattering through its own exclusive-prefix cursors.
        {
            let Refiner {
                offsets,
                aux,
                thread_counts,
                thread_offsets,
                ..
            } = self;
            let offsets: &[usize] = offsets;
            std::thread::scope(|scope| {
                let mut rest: &mut [NodeId] = aux;
                for (t, (row, offs)) in thread_counts
                    .iter()
                    .zip(thread_offsets.iter_mut())
                    .take(used)
                    .enumerate()
                {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    let (mine, tail) = rest.split_at_mut(hi - lo);
                    rest = tail;
                    scope.spawn(move || {
                        let mut running = 0usize;
                        for b in 0..buckets {
                            offs[b] = running;
                            running += row[b];
                        }
                        for v in lo..hi {
                            let slot = &mut offs[offsets[v + 1] - offsets[v]];
                            mine[*slot] = v;
                            *slot += 1;
                        }
                    });
                }
            });
        }
        // Phase 3 (sequential, O(threads · buckets)): global bucket starts.
        self.reset_counts(buckets);
        for row in self.thread_counts.iter().take(used) {
            for (count, &c) in self.counts.iter_mut().zip(&row[..buckets]) {
                *count += c;
            }
        }
        prefix_sums(&mut self.counts[..buckets]);
        // Phase 4 (parallel): merge the per-chunk runs bucket-major into
        // `order`. Each worker owns a contiguous range of buckets, hence a
        // contiguous output slice; within a bucket, runs concatenate in
        // chunk order, which is the original index order — stability.
        let mut bucket_cuts: Vec<usize> = vec![0];
        let target = n.div_ceil(used);
        let mut next_target = target;
        let mut last_cut = 0usize;
        for b in 1..buckets {
            if self.counts[b] >= next_target && last_cut < b {
                bucket_cuts.push(b);
                last_cut = b;
                next_target = self.counts[b] + target;
            }
        }
        bucket_cuts.push(buckets);
        let Refiner {
            order,
            aux,
            counts,
            thread_counts,
            thread_offsets,
            ..
        } = self;
        let aux: &[NodeId] = aux;
        let thread_counts: &[Vec<usize>] = thread_counts;
        let thread_offsets: &[Vec<usize>] = thread_offsets;
        std::thread::scope(|scope| {
            let mut rest: &mut [NodeId] = order;
            let mut consumed = 0usize;
            for w in bucket_cuts.windows(2) {
                let (blo, bhi) = (w[0], w[1]);
                let end = if bhi < buckets { counts[bhi] } else { n };
                if end == consumed {
                    continue;
                }
                let (mine, tail) = rest.split_at_mut(end - consumed);
                rest = tail;
                consumed = end;
                scope.spawn(move || {
                    let mut w = 0usize;
                    for b in blo..bhi {
                        for (t, (row, offs)) in thread_counts
                            .iter()
                            .zip(thread_offsets)
                            .take(used)
                            .enumerate()
                        {
                            let cnt = row[b];
                            if cnt == 0 {
                                continue;
                            }
                            // `offs[b]` ended one past the run after phase 2.
                            let run = t * chunk + offs[b] - cnt;
                            mine[w..w + cnt].copy_from_slice(&aux[run..run + cnt]);
                            w += cnt;
                        }
                    }
                });
            }
        });
    }

    /// Sorts every equal-degree run of `order` by its packed word slice,
    /// choosing radix or comparison sort per group. With `threads > 1` the
    /// groups are batched into contiguous ranges (group boundaries never
    /// split) and the batches sort concurrently, each worker with its own
    /// histogram row; the radix/comparison choice per group is independent
    /// of the batching, so the sorted `order` is the sequential pass's.
    fn sort_groups_by_words(&mut self, k_prev: usize, threads: usize) {
        // Upper bound on any packed word: reverse ports are < Δ and classes
        // are < k_prev.
        let word_bound = (self.max_degree as u64) * (k_prev as u64);
        let radix_buckets = if 1 <= word_bound && word_bound <= RADIX_MAX_BUCKETS as u64 {
            Some(word_bound as usize)
        } else {
            None
        };
        let threads = threads.max(1).min(self.n.max(1));
        if threads <= 1 || self.n < PARALLEL_MIN_NODES {
            let Refiner {
                n,
                offsets,
                words,
                order,
                aux,
                counts,
                ..
            } = self;
            let degree = |v: NodeId| offsets[v + 1] - offsets[v];
            let mut start = 0;
            while start < *n {
                let deg = degree(order[start]);
                let mut end = start + 1;
                while end < *n && degree(order[end]) == deg {
                    end += 1;
                }
                if deg > 0 && end - start > 1 {
                    let (o, a) = (&mut order[start..end], &mut aux[start..end]);
                    sort_group(offsets, words, o, a, deg, radix_buckets, counts);
                }
                start = end;
            }
            return;
        }
        // Collect the equal-degree group bounds, then batch contiguous
        // groups into ranges of roughly n/threads elements.
        self.group_bounds.clear();
        let mut start = 0;
        while start < self.n {
            let deg = self.degree(self.order[start]);
            let mut end = start + 1;
            while end < self.n && self.degree(self.order[end]) == deg {
                end += 1;
            }
            self.group_bounds.push((start, end));
            start = end;
        }
        let target = self.n.div_ceil(threads);
        let mut cuts: Vec<usize> = vec![0];
        let mut acc = 0usize;
        for (i, &(s, e)) in self.group_bounds.iter().enumerate() {
            acc += e - s;
            if acc >= target && i + 1 < self.group_bounds.len() {
                cuts.push(i + 1);
                acc = 0;
            }
        }
        cuts.push(self.group_bounds.len());
        let batches = cuts.len() - 1;
        let hist = radix_buckets.unwrap_or(0);
        self.ensure_thread_rows(batches, hist);
        let Refiner {
            offsets,
            words,
            order,
            aux,
            thread_counts,
            group_bounds,
            ..
        } = self;
        let offsets: &[usize] = offsets;
        let words: &[u64] = words;
        std::thread::scope(|scope| {
            let mut order_rest: &mut [NodeId] = order;
            let mut aux_rest: &mut [NodeId] = aux;
            let mut consumed = 0usize;
            for (b, counts) in thread_counts.iter_mut().take(batches).enumerate() {
                let (glo, ghi) = (cuts[b], cuts[b + 1]);
                if glo == ghi {
                    continue;
                }
                let elo = group_bounds[glo].0;
                let ehi = group_bounds[ghi - 1].1;
                debug_assert_eq!(elo, consumed);
                let (o_mine, o_tail) = order_rest.split_at_mut(ehi - elo);
                let (a_mine, a_tail) = aux_rest.split_at_mut(ehi - elo);
                order_rest = o_tail;
                aux_rest = a_tail;
                consumed = ehi;
                let bounds = &group_bounds[glo..ghi];
                scope.spawn(move || {
                    for &(s, e) in bounds {
                        let v = o_mine[s - elo];
                        let deg = offsets[v + 1] - offsets[v];
                        if deg > 0 && e - s > 1 {
                            let o = &mut o_mine[s - elo..e - elo];
                            let a = &mut a_mine[s - elo..e - elo];
                            sort_group(offsets, words, o, a, deg, radix_buckets, counts);
                        }
                    }
                });
            }
        });
    }

    /// Dense-rank scan over the sorted `order`: adjacent equal keys share a
    /// class id, so ids are ranks of the distinct keys in canonical order.
    /// With `threads > 1` the per-element key comparisons (the `O(Δ)` part)
    /// run as a parallel boundary-flag sweep; the `O(n)` prefix accumulation
    /// over the flags stays sequential.
    fn rank_sorted(&mut self, threads: usize) -> (Vec<ClassId>, usize) {
        let n = self.n;
        let mut ranks = vec![0; n];
        if n == 0 {
            return (ranks, 0);
        }
        let threads = threads.max(1).min(n);
        if threads <= 1 || n < PARALLEL_MIN_NODES {
            let mut rank = 0;
            ranks[self.order[0]] = 0;
            for i in 1..n {
                let (a, b) = (self.order[i - 1], self.order[i]);
                let ka = &self.words[self.offsets[a]..self.offsets[a + 1]];
                let kb = &self.words[self.offsets[b]..self.offsets[b + 1]];
                if ka != kb {
                    rank += 1;
                }
                ranks[b] = rank;
            }
            return (ranks, rank + 1);
        }
        if self.flags.len() < n {
            self.flags.resize(n, 0);
        }
        let Refiner {
            offsets,
            words,
            order,
            flags,
            ..
        } = self;
        let offsets: &[usize] = offsets;
        let words: &[u64] = words;
        let order: &[NodeId] = order;
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, fl) in flags[..n].chunks_mut(chunk).enumerate() {
                let base = t * chunk;
                scope.spawn(move || {
                    for (i, f) in fl.iter_mut().enumerate() {
                        let pos = base + i;
                        *f = if pos == 0 {
                            0
                        } else {
                            let (a, b) = (order[pos - 1], order[pos]);
                            let ka = &words[offsets[a]..offsets[a + 1]];
                            let kb = &words[offsets[b]..offsets[b + 1]];
                            u8::from(ka != kb)
                        };
                    }
                });
            }
        });
        let mut rank = 0usize;
        for i in 0..n {
            rank += self.flags[i] as usize;
            ranks[self.order[i]] = rank;
        }
        (ranks, rank + 1)
    }

    /// Grows the per-thread histogram/cursor pools to `rows` rows of
    /// `buckets` slots and zeroes the histogram rows.
    fn ensure_thread_rows(&mut self, rows: usize, buckets: usize) {
        if self.thread_counts.len() < rows {
            self.thread_counts.resize_with(rows, Vec::new);
        }
        if self.thread_offsets.len() < rows {
            self.thread_offsets.resize_with(rows, Vec::new);
        }
        for row in self.thread_counts.iter_mut().take(rows) {
            if row.len() < buckets {
                row.resize(buckets, 0);
            }
            row[..buckets].fill(0);
        }
        for row in self.thread_offsets.iter_mut().take(rows) {
            if row.len() < buckets {
                row.resize(buckets, 0);
            }
        }
    }

    /// Zeroes the first `buckets` histogram slots, growing the buffer the
    /// first time a size is needed (never beyond [`RADIX_MAX_BUCKETS`] plus
    /// the maximum degree).
    fn reset_counts(&mut self, buckets: usize) {
        if self.counts.len() < buckets {
            self.counts.resize(buckets, 0);
        }
        self.counts[..buckets].fill(0);
    }
}

/// Sorts one equal-degree group (given as the matching `order` / `aux`
/// slices) by its packed word slices: LSD radix when the group is large both
/// absolutely and relative to the histogram every pass must zero and
/// prefix-sum, comparison sort otherwise. Shared verbatim by the sequential
/// and the batched parallel paths, so both make the identical choice per
/// group.
fn sort_group(
    offsets: &[usize],
    words: &[u64],
    order: &mut [NodeId],
    aux: &mut [NodeId],
    deg: usize,
    radix_buckets: Option<usize>,
    counts: &mut Vec<usize>,
) {
    let len = order.len();
    match radix_buckets {
        Some(buckets) if len >= RADIX_MIN_GROUP && buckets <= 8 * len => {
            radix_sort_group(offsets, words, order, aux, deg, buckets, counts);
        }
        _ => {
            order.sort_unstable_by(|&a, &b| {
                words[offsets[a]..offsets[a] + deg].cmp(&words[offsets[b]..offsets[b] + deg])
            });
        }
    }
}

/// LSD radix sort of one group (all of degree `deg`) over the `deg` word
/// positions, last position first; each pass is a stable counting sort
/// ping-ponging between the `order` and `aux` slices.
fn radix_sort_group(
    offsets: &[usize],
    words: &[u64],
    order: &mut [NodeId],
    aux: &mut [NodeId],
    deg: usize,
    buckets: usize,
    counts: &mut Vec<usize>,
) {
    if counts.len() < buckets {
        counts.resize(buckets, 0);
    }
    let mut src: &mut [NodeId] = order;
    let mut dst: &mut [NodeId] = aux;
    for pos in (0..deg).rev() {
        counts[..buckets].fill(0);
        for &v in src.iter() {
            counts[words[offsets[v] + pos] as usize] += 1;
        }
        prefix_sums(&mut counts[..buckets]);
        for &v in src.iter() {
            let slot = &mut counts[words[offsets[v] + pos] as usize];
            dst[*slot] = v;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if deg % 2 == 1 {
        // An odd number of passes left the sorted run in the aux half
        // (now `src`); copy it back into the `order` half (now `dst`).
        dst.copy_from_slice(src);
    }
}

/// In-place exclusive prefix sums: `counts[i]` becomes the number of items in
/// buckets `< i`.
fn prefix_sums(counts: &mut [usize]) {
    let mut running = 0;
    for c in counts.iter_mut() {
        let here = *c;
        *c = running;
        running += here;
    }
}

/// The seed engine, kept verbatim as the correctness oracle and the ablation
/// baseline: per-depth key materialization into `(usize, Vec<(Port, ClassId)>)`
/// tuples ranked through `BTreeMap`s. Hidden from docs; use [`Refiner`] (or
/// `anet_views::ViewClasses`) for real work.
#[doc(hidden)]
pub mod legacy {
    use std::collections::BTreeMap;

    use super::ClassId;
    use crate::graph::{Graph, Port};

    /// A materialized refinement key (the seed representation).
    pub type Key = (usize, Vec<(Port, ClassId)>);

    /// Ranks keys through two `BTreeMap` passes (the seed `rank_keys`).
    pub fn rank_keys(keys: &[Key]) -> (Vec<ClassId>, usize) {
        let mut distinct: BTreeMap<&Key, ClassId> = BTreeMap::new();
        for k in keys {
            let next = distinct.len();
            distinct.entry(k).or_insert(next);
        }
        let mut ordered: Vec<(&Key, ClassId)> = distinct.iter().map(|(k, &v)| (*k, v)).collect();
        ordered.sort_by(|a, b| a.0.cmp(b.0));
        let mut remap = vec![0; ordered.len()];
        for (rank, (_, old)) in ordered.iter().enumerate() {
            remap[*old] = rank;
        }
        let mut final_map: BTreeMap<&Key, ClassId> = BTreeMap::new();
        for (k, old) in distinct {
            final_map.insert(k, remap[old]);
        }
        let ranks = keys.iter().map(|k| final_map[k]).collect();
        (ranks, final_map.len())
    }

    /// The seed depth-extension step: materialize every node's key, then rank.
    pub fn extend(g: &Graph, prev: &[ClassId]) -> (Vec<ClassId>, usize) {
        let keys: Vec<Key> = (0..g.num_nodes())
            .map(|v| {
                (
                    g.degree(v),
                    g.ports(v).map(|(_, u, q)| (q, prev[u])).collect(),
                )
            })
            .collect();
        rank_keys(&keys)
    }

    /// Full class tables for depths `0..=max_depth` with the seed engine.
    pub fn compute(g: &Graph, max_depth: usize) -> (Vec<Vec<ClassId>>, Vec<usize>) {
        let n = g.num_nodes();
        let keys0: Vec<Key> = (0..n).map(|v| (g.degree(v), Vec::new())).collect();
        let (c0, k0) = rank_keys(&keys0);
        let mut classes = vec![c0];
        let mut num_classes = vec![k0];
        for d in 1..=max_depth {
            let (c, k) = extend(g, &classes[d - 1]);
            classes.push(c);
            num_classes.push(k);
        }
        (classes, num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Runs the new engine and the legacy oracle side by side over all
    /// depths and asserts identical class rows and counts.
    fn check_against_legacy(g: &Graph, max_depth: usize, opts: &RefineOptions) {
        let (legacy_classes, legacy_counts) = legacy::compute(g, max_depth);
        let mut refiner = Refiner::new(g);
        let (mut row, mut k) = refiner.rank_by_degree();
        assert_eq!(row, legacy_classes[0], "depth 0 rows");
        assert_eq!(k, legacy_counts[0], "depth 0 counts");
        for d in 1..=max_depth {
            (row, k) = refiner.extend(g, &legacy_classes[d - 1], legacy_counts[d - 1], opts);
            assert_eq!(row, legacy_classes[d], "depth {d} rows");
            assert_eq!(k, legacy_counts[d], "depth {d} counts");
        }
    }

    #[test]
    fn matches_legacy_on_structured_graphs() {
        let opts = RefineOptions::default();
        check_against_legacy(&generators::star(5), 3, &opts);
        check_against_legacy(&generators::caterpillar(5), 4, &opts);
        check_against_legacy(&generators::lollipop(6, 4), 4, &opts);
        check_against_legacy(&generators::hypercube(3), 4, &opts);
        check_against_legacy(&generators::torus(3, 4), 3, &opts);
        check_against_legacy(&generators::path(2), 2, &opts);
    }

    #[test]
    fn matches_legacy_on_seeded_random_graphs() {
        for seed in 0..12 {
            let n = 10 + (seed as usize % 5) * 12;
            let g = generators::random_connected(n, 0.12, seed);
            check_against_legacy(&g, 5, &RefineOptions::default());
        }
    }

    /// Full thread-count sweep: every parallel stage must reproduce the
    /// sequential class rows bit for bit at every depth.
    fn check_thread_sweep(g: &Graph, depths: usize) {
        let seq = RefineOptions { threads: 1 };
        let mut a = Refiner::new(g);
        let (row0, k0) = a.rank_by_degree();
        let mut seq_rows = vec![(row0.clone(), k0)];
        for d in 1..=depths {
            let (prev, kp) = seq_rows[d - 1].clone();
            seq_rows.push(a.extend(g, &prev, kp, &seq));
        }
        for threads in [2usize, 3, 8] {
            let par = RefineOptions { threads };
            let mut b = Refiner::new(g);
            let (row0b, k0b) = b.rank_by_degree();
            assert_eq!((&row0b, k0b), (&seq_rows[0].0, seq_rows[0].1));
            for d in 1..=depths {
                let (prev, kp) = &seq_rows[d - 1];
                let (got, kg) = b.extend(g, prev, *kp, &par);
                assert_eq!(got, seq_rows[d].0, "depth {d}, {threads} threads");
                assert_eq!(kg, seq_rows[d].1, "depth {d}, {threads} threads");
            }
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "above-threshold graphs are too large for the interpreter"
    )]
    fn parallel_rank_passes_match_sequential_on_random_graphs() {
        // Large enough to cross PARALLEL_MIN_NODES so the threaded paths run.
        let n = PARALLEL_MIN_NODES + 97;
        check_thread_sweep(&generators::random_connected_sparse(n, n, 9), 4);
        check_thread_sweep(&generators::random_connected_sparse(n, 3 * n, 17), 3);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "above-threshold graphs are too large for the interpreter"
    )]
    fn parallel_rank_passes_match_sequential_on_all_equal_keys() {
        // Adversarial: a ring has a single degree group, all keys equal at
        // every depth — one giant radix group, boundary flags all zero.
        check_thread_sweep(&generators::ring(PARALLEL_MIN_NODES + 11), 3);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "above-threshold graphs are too large for the interpreter"
    )]
    fn parallel_rank_passes_match_sequential_on_already_sorted_input() {
        // Adversarial: a long path's node ids are already in degree order
        // (two endpoints of degree 1 aside), and its class rows refine
        // monotonically outward — the sorted order barely changes per depth.
        check_thread_sweep(&generators::path(PARALLEL_MIN_NODES + 5), 4);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "above-threshold graphs are too large for the interpreter"
    )]
    fn parallel_rank_passes_match_sequential_on_single_class_input() {
        // Adversarial: a torus is vertex-transitive — one class at every
        // depth, so every rank pass degenerates to a single bucket.
        check_thread_sweep(&generators::torus(64, 40), 3);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "above-threshold graphs are too large for the interpreter"
    )]
    fn parallel_key_fill_matches_sequential() {
        // Large enough to cross PARALLEL_MIN_NODES so the threaded path runs.
        let n = PARALLEL_MIN_NODES + 97;
        let g = generators::random_connected_sparse(n, n, 9);
        let seq = RefineOptions { threads: 1 };
        let par = RefineOptions { threads: 4 };
        let mut a = Refiner::new(&g);
        let mut b = Refiner::new(&g);
        let (row_a, k_a) = a.rank_by_degree();
        let (row_b, k_b) = b.rank_by_degree();
        assert_eq!((&row_a, k_a), (&row_b, k_b));
        let (mut ra, mut ka) = (row_a, k_a);
        for _ in 0..4 {
            let (na, nka) = a.extend(&g, &ra, ka, &seq);
            let (nb, nkb) = b.extend(&g, &ra, ka, &par);
            assert_eq!(na, nb);
            assert_eq!(nka, nkb);
            (ra, ka) = (na, nka);
        }
    }

    #[test]
    fn radix_and_comparison_paths_agree() {
        // A graph big enough that degree groups exceed RADIX_MIN_GROUP (ring:
        // one group of n degree-2 nodes) exercises the radix path; the
        // comparison path is forced by a tiny bucket budget via small groups.
        let g = generators::ring(RADIX_MIN_GROUP + 10);
        check_against_legacy(&g, 3, &RefineOptions::default());
    }

    #[test]
    fn single_node_graph_is_one_class() {
        let g = Graph::from_adjacency(vec![vec![]]).unwrap();
        let mut refiner = Refiner::new(&g);
        let (row, k) = refiner.rank_by_degree();
        assert_eq!(row, vec![0]);
        assert_eq!(k, 1);
        let (row2, k2) = refiner.extend(&g, &row, k, &RefineOptions::default());
        assert_eq!(row2, vec![0]);
        assert_eq!(k2, 1);
        // The parallel options are a no-op below the size threshold but must
        // still be accepted.
        let (row3, k3) = refiner.extend(&g, &row, k, &RefineOptions { threads: 8 });
        assert_eq!((row3, k3), (vec![0], 1));
    }

    /// A fold-1 identity-voltage lift is the base graph with ports assigned
    /// in edge order: the kernel must rank the base's dart-row slice and the
    /// materialized lift identically, row for row, at every thread count.
    #[test]
    fn dart_row_slices_rank_like_the_graph_they_describe() {
        use crate::lift::{identity_voltage, VoltageGraph};
        use crate::quotient::base_dart_rows;
        for n in [40, PARALLEL_MIN_NODES + 97] {
            if cfg!(miri) && n > PARALLEL_MIN_NODES {
                continue; // too large for the interpreter
            }
            let base = generators::random_connected_sparse(n, n / 2, 3);
            let vg = VoltageGraph::from_graph(&base, 1, &identity_voltage(1));
            let rows = base_dart_rows(&vg);
            let lift = vg.lift().unwrap();
            for threads in [1usize, 2, 8] {
                let opts = RefineOptions { threads };
                let (mut from_rows, mut from_graph) = (Vec::new(), Vec::new());
                let d_rows = until_stable(&rows[..], n, &opts, |r, k| from_rows.push((r, k)));
                let d_graph = until_stable(&lift, n, &opts, |r, k| from_graph.push((r, k)));
                assert_eq!(d_rows, d_graph, "n {n}, {threads} threads");
                assert_eq!(from_rows, from_graph, "n {n}, {threads} threads");
            }
        }
    }
}
