//! The high-throughput path engine: parallel, source-restricted and scoped
//! shortest paths.
//!
//! The coordinator must recompute shortest paths over the whole
//! constellation graph at every update interval, which dominates its cost at
//! scale (§3.1). [`PathEngine`] attacks that hot path in three ways on top
//! of the CSR representation of [`crate::path::NetworkGraph`]:
//!
//! 1. **Scratch reuse** — the result matrix and the worker heaps are owned
//!    by the engine and overwritten in place, so a steady-state timestep
//!    solve performs no allocation beyond what the OS hands back to the
//!    reused buffers.
//! 2. **Parallel per-source Dijkstra** — sources are fanned out over
//!    `std::thread::scope` workers (no external dependencies), each writing
//!    into disjoint rows of the flat result matrix.
//! 3. **Scoped bounded rows** — a [`SolveScope`] restricts the solve to the
//!    rows the testbed reads and stops each row once every node it must be
//!    exact for has settled (see `docs/MEGASCALE.md`).
//!
//! The graph's per-edge bandwidth channel is deliberately invisible here:
//! paths are selected by latency alone — the coordinator's programme delta
//! picks a link's bandwidth up when it walks the predecessor chains.
//!
//! `docs/PATHS.md` is the user-facing guide to the algorithms and to the
//! `path-algorithm` configuration key.

use crate::bbox::BoundingBox;
use crate::constellation::ConstellationState;
use crate::path::{Cost, DijkstraHeap, NetworkGraph, PathAlgorithm, ShortestPaths};

/// How a [`PathEngine`] solve was actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveKind {
    /// Every requested source row was solved with per-source Dijkstra.
    FullDijkstra,
    /// The full all-pairs matrix was computed with Floyd–Warshall.
    FloydWarshall,
    /// A [`SolveScope`]-restricted solve: bounded per-source Dijkstra runs
    /// that terminate once every required (programme) target is settled,
    /// plus full rows for the ALT landmarks.
    Scoped,
}

/// Statistics about the most recent solve, for logging, benchmarks and
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveStats {
    /// How the solve was executed.
    pub kind: SolveKind,
    /// Number of source rows solved.
    pub solved_sources: usize,
    /// Scoped solves only: number of in-scope source rows solved.
    pub scope_sources: usize,
    /// Scoped solves only: number of required (programme) target nodes each
    /// bounded row had to settle before terminating.
    pub scope_required: usize,
    /// Scoped solves only: number of fully solved ALT landmark rows.
    pub scope_landmarks: usize,
    /// Scoped solves only: total nodes settled across all bounded rows —
    /// the figure that shows how much work the early termination saved
    /// (compare with `scope_sources × node_count` for a full solve).
    pub scope_settled: u64,
}

impl Default for SolveStats {
    fn default() -> Self {
        SolveStats {
            kind: SolveKind::FullDijkstra,
            solved_sources: 0,
            scope_sources: 0,
            scope_required: 0,
            scope_landmarks: 0,
            scope_settled: 0,
        }
    }
}

/// Tuning knobs of the scope derivation (the `[paths]` table of the
/// configuration file; see `docs/MEGASCALE.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScopeParams {
    /// Degrees by which the configured bounding box is expanded to admit
    /// near-boundary satellites into the solve scope.
    pub margin_deg: f64,
    /// Per ground station, the `k` nearest satellites (by ECEF distance,
    /// ties broken by node index) added to the scope regardless of the box.
    pub k_nearest: usize,
    /// Number of fully solved landmark rows kept for the ALT fallback of
    /// out-of-scope queries. Landmark node ids are a pure function of the
    /// satellite count, so they only change when the topology class does.
    pub landmarks: usize,
}

impl Default for ScopeParams {
    fn default() -> Self {
        ScopeParams {
            margin_deg: 10.0,
            k_nearest: 16,
            landmarks: 8,
        }
    }
}

/// The set of source rows a scoped solve computes, split into *required*
/// nodes (the programme sources — active satellites and ground stations —
/// whose pairwise entries must come out bit-identical to a full solve) and
/// the wider *scope* (expanded-bounding-box satellites, per-ground-station
/// nearest neighbourhoods and ALT landmarks) that pads the search so the
/// bounded rows stay cheap without ever being read directly.
///
/// The scope is a reusable buffer: [`SolveScope::derive`] refills it from a
/// constellation state every epoch without allocating in steady state.
#[derive(Debug, Clone, Default)]
pub struct SolveScope {
    node_count: u32,
    /// Strictly ascending solve sources (scope ∪ required ∪ landmarks).
    sources: Vec<u32>,
    /// Node-indexed required bitset; required nodes are always sources.
    required: Vec<bool>,
    required_count: u32,
    /// Sorted landmark node ids (always a subset of `sources`).
    landmarks: Vec<u32>,
    /// Node-indexed scope bitset (scratch for the derivation).
    scope: Vec<bool>,
    /// Scratch for the per-ground-station k-nearest selection.
    nearest: Vec<(f64, u32)>,
    /// Satellites inside the configured (unexpanded) bounding box.
    active_satellites: usize,
    /// Satellites in the solve scope (expanded box + neighbourhoods +
    /// landmarks).
    scope_satellites: usize,
}

impl SolveScope {
    /// An empty scope; fill it with [`SolveScope::derive`] or
    /// [`SolveScope::from_sets`].
    pub fn new() -> Self {
        SolveScope::default()
    }

    /// Derives the scope for one constellation state: required rows are the
    /// programme sources (bounding-box-active satellites plus every ground
    /// station); the scope widens that by satellites inside the box expanded
    /// by `params.margin_deg`, the `params.k_nearest` satellites closest to
    /// each ground station, and `params.landmarks` evenly spaced landmark
    /// satellites whose rows are solved fully for the ALT fallback.
    pub fn derive(
        &mut self,
        state: &ConstellationState,
        bounding_box: &BoundingBox,
        params: &ScopeParams,
    ) {
        let n = state.node_count();
        let sat_total = state.satellite_count();
        let sats = state.satellite_positions_raw();
        let active = state.active_raw();
        let expanded = bounding_box.expanded(params.margin_deg.max(0.0));
        self.node_count = n as u32;
        self.required.clear();
        self.required.resize(n, false);
        self.scope.clear();
        self.scope.resize(n, false);
        let mut required_count = 0u32;
        let mut active_satellites = 0usize;
        for i in 0..sat_total {
            if active[i] {
                // Bounding-box-active satellites are programme sources; the
                // expanded box contains the configured box (margin >= 0), so
                // every required satellite is in scope.
                self.required[i] = true;
                self.scope[i] = true;
                required_count += 1;
                active_satellites += 1;
            } else if expanded.contains(&sats[i].to_geodetic()) {
                self.scope[i] = true;
            }
        }
        for g in sat_total..n {
            self.required[g] = true;
            self.scope[g] = true;
            required_count += 1;
        }
        // The k nearest satellites to each ground station join the scope:
        // uplink-relevant rows stay cheap even when a station sits right at
        // the box edge. ECEF distance, ties broken by node index, so the
        // selection is deterministic.
        let k = params.k_nearest.min(sat_total);
        if k > 0 {
            for gp in state.ground_positions_raw() {
                self.nearest.clear();
                self.nearest
                    .extend(sats.iter().enumerate().map(|(i, p)| (p.distance_to(gp), i as u32)));
                self.nearest
                    .select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for &(_, i) in &self.nearest[..k] {
                    self.scope[i as usize] = true;
                }
            }
        }
        // Landmarks: evenly spaced satellite indices — a pure function of
        // the satellite count, so the set only changes when the topology
        // class does (never between epochs of one constellation).
        self.landmarks.clear();
        let landmark_count = params.landmarks.min(sat_total);
        for j in 0..landmark_count {
            let idx = (j * sat_total / landmark_count) as u32;
            self.landmarks.push(idx);
            self.scope[idx as usize] = true;
        }
        self.required_count = required_count;
        self.active_satellites = active_satellites;
        self.sources.clear();
        self.sources
            .extend((0..n as u32).filter(|&i| self.scope[i as usize]));
        self.scope_satellites = self
            .sources
            .iter()
            .take_while(|&&s| (s as usize) < sat_total)
            .count();
    }

    /// Builds a scope from explicit node sets — the constructor benches and
    /// property tests use to exercise arbitrary scopes.
    ///
    /// # Panics
    ///
    /// Panics if any node index is out of range.
    pub fn from_sets(
        node_count: usize,
        required_nodes: &[u32],
        extra_scope_nodes: &[u32],
        landmarks: &[u32],
    ) -> Self {
        let mut scope = SolveScope::new();
        scope.node_count = node_count as u32;
        scope.required.resize(node_count, false);
        scope.scope.resize(node_count, false);
        for &r in required_nodes {
            let r = r as usize;
            assert!(r < node_count, "required node out of range");
            if !scope.required[r] {
                scope.required[r] = true;
                scope.required_count += 1;
            }
            scope.scope[r] = true;
        }
        for &s in extra_scope_nodes {
            assert!((s as usize) < node_count, "scope node out of range");
            scope.scope[s as usize] = true;
        }
        for &l in landmarks {
            assert!((l as usize) < node_count, "landmark out of range");
            scope.scope[l as usize] = true;
        }
        scope.landmarks.extend_from_slice(landmarks);
        scope.landmarks.sort_unstable();
        scope.landmarks.dedup();
        scope
            .sources
            .extend((0..node_count as u32).filter(|&i| scope.scope[i as usize]));
        scope
    }

    /// The strictly ascending solve sources.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Whether `node` is a required (programme) node.
    pub fn is_required(&self, node: usize) -> bool {
        self.required.get(node).copied().unwrap_or(false)
    }

    /// Number of required (programme) nodes.
    pub fn required_count(&self) -> usize {
        self.required_count as usize
    }

    /// The sorted landmark node ids.
    pub fn landmarks(&self) -> &[u32] {
        &self.landmarks
    }

    /// Satellites inside the configured (unexpanded) bounding box — the
    /// `scope_active_satellites` figure the `/info` route reports.
    pub fn active_satellites(&self) -> usize {
        self.active_satellites
    }

    /// Satellites admitted to the solve scope.
    pub fn scope_satellites(&self) -> usize {
        self.scope_satellites
    }
}

/// A reusable, parallel shortest-path solver.
///
/// The engine owns the result matrix and all scratch memory; feeding it the
/// graph of each timestep overwrites the matrix in place and returns a
/// borrowed [`ShortestPaths`] without re-allocating in steady state.
///
/// # Examples
///
/// ```
/// use celestial_constellation::engine::PathEngine;
/// use celestial_constellation::path::{NetworkGraph, PathAlgorithm};
///
/// // Timestep 0: a 3-node line 0 —10— 1 —10— 2.
/// let g0 = NetworkGraph::from_edges(3, [(0, 1, 10), (1, 2, 10)]);
/// let mut engine = PathEngine::new(PathAlgorithm::Dijkstra);
/// let paths = engine.solve(&g0);
/// assert_eq!(paths.latency_micros(0, 2), Some(20));
/// assert_eq!(paths.path(0, 2), Some(vec![0, 1, 2]));
///
/// // Timestep 1: a direct 5 µs link appears; the engine re-solves and the
/// // shortest path switches to the new edge.
/// let g1 = NetworkGraph::from_edges(3, [(0, 1, 10), (1, 2, 10), (0, 2, 5)]);
/// let paths = engine.solve(&g1);
/// assert_eq!(paths.latency_micros(0, 2), Some(5));
/// assert_eq!(paths.path(0, 2), Some(vec![0, 2]));
/// ```
#[derive(Debug, Clone)]
pub struct PathEngine {
    algorithm: PathAlgorithm,
    threads: usize,
    /// Whether `paths` holds the result of a solve (and has not been
    /// swapped out since).
    solved: bool,
    /// The result matrix, overwritten in place by every solve.
    paths: ShortestPaths,
    /// One Dijkstra heap per worker thread, reused across solves.
    heaps: Vec<DijkstraHeap>,
    all_sources: Vec<u32>,
    /// Per-row settled-node counts of the most recent solve (scratch).
    row_settled: Vec<u32>,
    stats: SolveStats,
}

/// One row of a solve: (source, the scope bounding it — `None` for an
/// unbounded row —, distances, predecessors, exactness bound, settled-node
/// count).
type RowJob<'a> = (
    u32,
    Option<&'a SolveScope>,
    &'a mut [Cost],
    &'a mut [u32],
    &'a mut Cost,
    &'a mut u32,
);

impl PathEngine {
    /// Creates an engine with as many worker threads as the machine offers.
    pub fn new(algorithm: PathAlgorithm) -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(algorithm, threads)
    }

    /// Creates an engine with an explicit worker-thread count (1 solves on
    /// the calling thread without spawning).
    pub fn with_threads(algorithm: PathAlgorithm, threads: usize) -> Self {
        PathEngine {
            algorithm,
            threads: threads.max(1),
            solved: false,
            paths: ShortestPaths::empty(0),
            heaps: Vec::new(),
            all_sources: Vec::new(),
            row_settled: Vec::new(),
            stats: SolveStats::default(),
        }
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> PathAlgorithm {
        self.algorithm
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Statistics about the most recent solve.
    pub fn last_solve(&self) -> SolveStats {
        self.stats
    }

    /// The most recent result, if a solve has happened and its result has
    /// not been moved out with [`PathEngine::swap_paths`] since.
    pub fn paths(&self) -> Option<&ShortestPaths> {
        self.solved.then_some(&self.paths)
    }

    /// Exchanges the engine's result matrix with `other`: the caller takes
    /// ownership of the most recent result without copying it and hands the
    /// engine a buffer to overwrite — every solve re-shapes and rewrites the
    /// matrix completely, so whatever `other` held never leaks into a later
    /// result. [`PathEngine::paths`] answers `None` until the next solve.
    pub fn swap_paths(&mut self, other: &mut ShortestPaths) {
        std::mem::swap(&mut self.paths, other);
        self.solved = false;
    }

    /// Solves shortest paths from *every* node of `graph`.
    pub fn solve(&mut self, graph: &NetworkGraph) -> &ShortestPaths {
        let n = graph.node_count() as u32;
        if self.all_sources.len() != n as usize {
            self.all_sources.clear();
            self.all_sources.extend(0..n);
        }
        let sources = std::mem::take(&mut self.all_sources);
        self.solve_rows(graph, &sources, None);
        self.all_sources = sources;
        &self.paths
    }

    /// Solves shortest paths restricted to the given source nodes (for the
    /// coordinator: ground stations plus active satellites — satellites
    /// outside the bounding box carry traffic on paths but never originate a
    /// programmed pair, so their rows are never needed).
    ///
    /// # Panics
    ///
    /// Panics if a source index is out of range for `graph`.
    pub fn solve_sources(&mut self, graph: &NetworkGraph, sources: &[u32]) -> &ShortestPaths {
        assert!(
            sources.iter().all(|&s| (s as usize) < graph.node_count()),
            "source index out of range"
        );
        self.solve_rows(graph, sources, None);
        &self.paths
    }

    /// Solves the rows of a [`SolveScope`]: every source row is computed with
    /// a bounded Dijkstra that stops once all of the scope's *required* nodes
    /// are settled (landmark rows run to completion for the ALT fallback).
    ///
    /// The exactness contract — checked by the property tests and relied on
    /// by every reader: for any pair of required nodes `a, b`, the returned
    /// result's `latency_micros(a, b)`, `predecessor(a, b)` and `path(a, b)`
    /// are bit-identical to a full [`PathEngine::solve_sources`] over the
    /// same sources; entries outside a row's exactness bound answer `None`
    /// and must be re-queried through
    /// [`ShortestPaths::one_shot_latency`](crate::path::ShortestPaths::one_shot_latency).
    ///
    /// # Panics
    ///
    /// Panics if the scope was derived for a different node count than
    /// `graph` has.
    pub fn solve_scope(&mut self, graph: &NetworkGraph, scope: &SolveScope) -> &ShortestPaths {
        assert_eq!(
            scope.node_count as usize,
            graph.node_count(),
            "scope node count does not match the graph"
        );
        self.solve_rows(graph, &scope.sources, Some(scope));
        &self.paths
    }

    /// The one solve loop: overwrites the result matrix in place with one
    /// row per source. With a scope, non-landmark rows run the bounded
    /// kernel; every other row — landmark rows, and all rows of an unscoped
    /// solve — is simply an unbounded row.
    fn solve_rows(&mut self, graph: &NetworkGraph, sources: &[u32], scope: Option<&SolveScope>) {
        let n = graph.node_count();
        self.solved = true;
        if self.algorithm == PathAlgorithm::FloydWarshall && n > 0 {
            // The cubic reference sweep yields every row exact, which
            // satisfies any source set and any scope trivially.
            self.paths = graph.floyd_warshall();
            self.stats = SolveStats {
                kind: SolveKind::FloydWarshall,
                solved_sources: n,
                ..SolveStats::default()
            };
            return;
        }

        self.paths.reset(n as u32, sources);
        self.row_settled.clear();
        self.row_settled.resize(sources.len(), 0);
        if let Some(scope) = scope {
            self.paths.landmarks.extend_from_slice(&scope.landmarks);
        }
        {
            let ShortestPaths {
                dist,
                prev,
                exact_bounds,
                ..
            } = &mut self.paths;
            // Unbounded rows keep their reset-time bound of UNREACHABLE
            // (fully exact). An empty graph has no rows to chunk.
            let row_len = n.max(1);
            let mut jobs: Vec<RowJob<'_>> = Vec::with_capacity(sources.len());
            for ((((dist_row, prev_row), bound), settled), &source) in dist
                .chunks_mut(row_len)
                .zip(prev.chunks_mut(row_len))
                .zip(exact_bounds.iter_mut())
                .zip(self.row_settled.iter_mut())
                .zip(sources.iter())
            {
                let bounded_by = scope.filter(|s| s.landmarks.binary_search(&source).is_err());
                jobs.push((source, bounded_by, dist_row, prev_row, bound, settled));
            }

            let workers = self.threads.min(jobs.len()).max(1);
            while self.heaps.len() < workers {
                self.heaps.push(DijkstraHeap::new());
            }
            let run = |job: &mut RowJob<'_>, heap: &mut DijkstraHeap| {
                let (source, bounded_by, dist_row, prev_row, bound, settled) = job;
                match bounded_by {
                    Some(scope) => {
                        (**bound, **settled) = graph.dijkstra_bounded_into(
                            *source,
                            &scope.required,
                            scope.required_count,
                            dist_row,
                            prev_row,
                            heap,
                        );
                    }
                    None => {
                        graph.dijkstra_into(*source, dist_row, prev_row, heap);
                        **settled = n as u32;
                    }
                }
            };
            if workers <= 1 {
                let heap = &mut self.heaps[0];
                for job in &mut jobs {
                    run(job, heap);
                }
            } else {
                let per_worker = jobs.len().div_ceil(workers);
                std::thread::scope(|s| {
                    for (chunk, heap) in jobs.chunks_mut(per_worker).zip(self.heaps.iter_mut()) {
                        s.spawn(move || {
                            for job in chunk {
                                run(job, heap);
                            }
                        });
                    }
                });
            }
        }

        self.stats = match scope {
            Some(scope) => SolveStats {
                kind: SolveKind::Scoped,
                solved_sources: sources.len(),
                scope_sources: sources.len(),
                scope_required: scope.required_count as usize,
                scope_landmarks: scope.landmarks.len(),
                scope_settled: self.row_settled.iter().map(|&s| u64::from(s)).sum(),
            },
            None => SolveStats {
                solved_sources: sources.len(),
                ..SolveStats::default()
            },
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Edge;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random connected-ish graph: spanning chain plus `extra` chords.
    fn random_edges(rng: &mut StdRng, n: usize, extra: usize) -> Vec<Edge> {
        let mut edges = Vec::new();
        for i in 1..n as u32 {
            let parent = rng.gen_range(0..i);
            edges.push((parent, i, rng.gen_range(1..1000)));
        }
        for _ in 0..extra {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a != b {
                edges.push((a.min(b), a.max(b), rng.gen_range(1..1000)));
            }
        }
        edges
    }

    /// Applies a random timestep delta: drop some edges, add some chords,
    /// re-weight others.
    fn mutate_edges(rng: &mut StdRng, n: usize, edges: &[Edge], churn: usize) -> Vec<Edge> {
        let mut next: Vec<Edge> = edges.to_vec();
        for _ in 0..churn {
            match rng.gen_range(0..3u32) {
                0 if next.len() > n => {
                    // Removing a chain edge may disconnect the graph — that
                    // is a legal constellation event (an ISL is cut).
                    let at = rng.gen_range(0..next.len());
                    next.swap_remove(at);
                }
                1 => {
                    let a = rng.gen_range(0..n as u32);
                    let b = rng.gen_range(0..n as u32);
                    if a != b {
                        next.push((a.min(b), a.max(b), rng.gen_range(1..1000)));
                    }
                }
                _ => {
                    let at = rng.gen_range(0..next.len());
                    next[at].2 = rng.gen_range(1..1000);
                }
            }
        }
        next
    }

    /// Asserts that the engine result matches a from-scratch reference on
    /// distances and that every reported path is a real path of that length.
    fn assert_matches_reference(graph: &NetworkGraph, result: &ShortestPaths) {
        let reference = graph.all_pairs_dijkstra();
        let n = graph.node_count();
        for a in 0..n {
            if !result.is_solved(a) {
                continue;
            }
            for b in 0..n {
                assert_eq!(
                    result.latency_micros(a, b),
                    reference.latency_micros(a, b),
                    "distance mismatch {a}->{b}"
                );
                if let Some(total) = result.latency_micros(a, b) {
                    let path = result.path(a, b).expect("reachable pair has a path");
                    assert_eq!(*path.first().unwrap(), a);
                    assert_eq!(*path.last().unwrap(), b);
                    let mut walked = 0;
                    for w in path.windows(2) {
                        let hop = graph
                            .neighbors(w[0])
                            .find(|&(v, _)| v as usize == w[1])
                            .expect("path edge exists in graph");
                        walked += hop.1;
                    }
                    assert_eq!(walked, total, "path cost mismatch {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn large_delta_falls_back_to_full_solve() {
        // There is only the full solve to fall back to: an entirely fresh
        // edge set overwrites every row of the previous timestep in place.
        let mut rng = StdRng::seed_from_u64(11);
        let e0 = random_edges(&mut rng, 20, 20);
        let e1 = random_edges(&mut rng, 20, 20);
        let g0 = NetworkGraph::from_edges(20, e0);
        let g1 = NetworkGraph::from_edges(20, e1);
        let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, 2);
        engine.solve(&g0);
        let paths = engine.solve(&g1).clone();
        assert_eq!(engine.last_solve().kind, SolveKind::FullDijkstra);
        assert_eq!(engine.last_solve().solved_sources, 20);
        assert_matches_reference(&g1, &paths);
    }

    #[test]
    fn empty_graph_solves_to_an_empty_result() {
        let g = NetworkGraph::new(0);
        let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, 2);
        let paths = engine.solve(&g).clone();
        assert_eq!(paths.node_count(), 0);
        assert_eq!(paths.source_count(), 0);
        assert_eq!(engine.last_solve().solved_sources, 0);
    }

    #[test]
    fn source_restriction_solves_only_requested_rows() {
        let g = NetworkGraph::from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, 2);
        let paths = engine.solve_sources(&g, &[0, 4]);
        assert_eq!(paths.source_count(), 2);
        assert!(paths.is_solved(0) && paths.is_solved(4));
        assert!(!paths.is_solved(2));
        assert_eq!(paths.latency_micros(0, 4), Some(4));
        assert_eq!(paths.latency_micros(2, 0), None, "unsolved row reports None");
        assert_eq!(paths.path(2, 2), None, "unsolved self-path reports None");
        assert_eq!(paths.path(4, 0), Some(vec![4, 3, 2, 1, 0]));
    }

    #[test]
    fn changing_source_set_still_yields_correct_rows() {
        let g = NetworkGraph::from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, 1);
        engine.solve_sources(&g, &[0, 4]);
        let paths = engine.solve_sources(&g, &[0, 2]).clone();
        // The matrix is re-shaped in place: no row of the old set survives.
        assert_eq!(engine.last_solve().kind, SolveKind::FullDijkstra);
        assert!(paths.is_solved(2) && !paths.is_solved(4));
        assert_eq!(paths.latency_micros(2, 4), Some(2));
    }

    #[test]
    fn scoped_solve_reports_scope_stats_and_landmark_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 80;
        let graph = NetworkGraph::from_edges(n, random_edges(&mut rng, n, 60));
        let required: Vec<u32> = vec![3, 9, 27, 77];
        let scope = SolveScope::from_sets(n, &required, &[40, 41], &[0, 50]);
        let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, 2);
        let paths = engine.solve_scope(&graph, &scope).clone();
        let stats = engine.last_solve();
        assert_eq!(stats.kind, SolveKind::Scoped);
        assert_eq!(stats.scope_sources, scope.sources().len());
        assert_eq!(stats.scope_required, 4);
        assert_eq!(stats.scope_landmarks, 2);
        assert!(stats.scope_settled > 0);
        assert_eq!(paths.landmark_nodes(), &[0, 50]);
        // Landmark rows are fully exact: every target answers.
        for t in 0..n {
            assert!(paths.is_exact(0, t));
            assert!(paths.is_exact(50, t));
        }
        // An unscoped solve into the same buffer leaves no bound or landmark
        // of the scoped one behind.
        let paths = engine.solve_sources(&graph, &[3, 9, 27, 77]);
        assert!(paths.landmark_nodes().is_empty());
        assert!((0..n).all(|t| paths.is_exact(3, t)));
        assert_eq!(engine.last_solve().kind, SolveKind::FullDijkstra);
        assert_eq!(engine.last_solve().scope_settled, 0);
    }

    #[test]
    fn swapping_the_result_out_hands_it_over_without_a_copy() {
        let g = NetworkGraph::from_edges(3, [(0, 1, 10), (1, 2, 10)]);
        let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, 1);
        let matrix = engine.solve(&g).dist.as_ptr();
        let mut taken = ShortestPaths::empty(0);
        engine.swap_paths(&mut taken);
        assert!(engine.paths().is_none(), "the engine no longer owns a result");
        assert_eq!(taken, g.all_pairs_dijkstra());
        assert_eq!(taken.dist.as_ptr(), matrix, "the matrix moved, it was not copied");
        // The buffer handed in (here: the old result, stale) is overwritten
        // completely by the next solve.
        let g1 = NetworkGraph::from_edges(3, [(0, 2, 5)]);
        engine.swap_paths(&mut taken);
        assert_eq!(engine.solve(&g1), &g1.all_pairs_dijkstra());
    }

    #[test]
    fn out_of_scope_entries_answer_none_and_fall_back_to_one_shot() {
        // A long line: a bounded row from source 0 with only nearby targets
        // required stops early, so the far end must be inexact.
        let n = 200;
        let edges: Vec<Edge> = (1..n as u32).map(|i| (i - 1, i, 10)).collect();
        let graph = NetworkGraph::from_edges(n, edges);
        let scope = SolveScope::from_sets(n, &[0, 1, 2, 3], &[], &[]);
        let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, 1);
        let paths = engine.solve_scope(&graph, &scope);
        assert!(paths.is_exact(0, 3));
        assert_eq!(paths.latency_micros(0, 3), Some(30));
        assert!(!paths.is_exact(0, n - 1), "far end is beyond the bound");
        assert_eq!(paths.latency_micros(0, n - 1), None);
        assert_eq!(paths.path(0, n - 1), None);
        assert_eq!(paths.next_hop(0, n - 1), None);
        assert_eq!(paths.predecessor(0, n - 1), None);
        // The one-shot fallback answers the pruned query exactly.
        assert_eq!(
            paths.one_shot_latency(&graph, 0, n - 1),
            Some(10 * (n as Cost - 1))
        );
        let settled = engine.last_solve().scope_settled;
        assert!(
            settled < 4 * n as u64 / 2,
            "bounded rows must not settle the whole line ({settled} settled)"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        // The headline exactness guarantee of the scoped solve: across
        // random timestep sequences, random scopes and every thread count,
        // each entry a scoped result reports (anything within a row's
        // exactness bound — in particular every required↔required pair) is
        // bit-identical to the full solve over the same sources.
        #[test]
        fn scoped_solves_are_bit_identical_to_full_solves(
            seed in 0u64..400,
            n in 4usize..70,
            extra in 0usize..50,
            churn in 1usize..8,
            steps in 1usize..4,
            threads in 1usize..5,
            required_mask in 1u64..u64::MAX,
            scope_mask in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut edges = random_edges(&mut rng, n, extra);
            let required: Vec<u32> = (0..n as u32).filter(|i| required_mask & (1 << (i % 61)) != 0).collect();
            let extra_scope: Vec<u32> = (0..n as u32).filter(|i| scope_mask & (1 << (i % 53)) != 0).collect();
            let landmarks: Vec<u32> = vec![0, (n / 2) as u32];
            prop_assume!(!required.is_empty());
            let scope = SolveScope::from_sets(n, &required, &extra_scope, &landmarks);
            let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, threads);
            let mut reference = PathEngine::with_threads(PathAlgorithm::Dijkstra, 1);
            for _ in 0..steps {
                let graph = NetworkGraph::from_edges(n, edges.clone());
                let scoped = engine.solve_scope(&graph, &scope).clone();
                let full = reference.solve_sources(&graph, scope.sources()).clone();
                prop_assert_eq!(scoped.solved_sources(), full.solved_sources());
                for &a in scope.sources() {
                    let a = a as usize;
                    for b in 0..n {
                        if scoped.is_exact(a, b) {
                            // Bit-identical: latency AND predecessor.
                            prop_assert_eq!(
                                scoped.latency_micros(a, b),
                                full.latency_micros(a, b),
                                "latency {}->{}", a, b
                            );
                            prop_assert_eq!(
                                scoped.predecessor(a, b),
                                full.predecessor(a, b),
                                "predecessor {}->{}", a, b
                            );
                            prop_assert_eq!(scoped.path(a, b), full.path(a, b));
                        } else {
                            // Inexact entries must never leak a value...
                            prop_assert_eq!(scoped.latency_micros(a, b), None);
                            prop_assert_eq!(scoped.predecessor(a, b), None);
                            // ...and only non-required targets may be inexact.
                            prop_assert!(
                                !scope.is_required(a) || !scope.is_required(b),
                                "required pair {}->{} left inexact", a, b
                            );
                        }
                    }
                }
                // Every required↔required entry is exact, hence (checked
                // above) bit-identical.
                for &a in &required {
                    for &b in &required {
                        prop_assert!(scoped.is_exact(a as usize, b as usize));
                    }
                }
                edges = mutate_edges(&mut rng, n, &edges, churn);
            }
        }

        // Scoped solves are deterministic: any two thread counts produce the
        // same bytes (rows, bounds, landmarks — full struct equality).
        #[test]
        fn scoped_solves_are_deterministic_across_thread_counts(
            seed in 0u64..200,
            n in 4usize..60,
            extra in 0usize..40,
            required_mask in 1u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = NetworkGraph::from_edges(n, random_edges(&mut rng, n, extra));
            let required: Vec<u32> = (0..n as u32).filter(|i| required_mask & (1 << (i % 59)) != 0).collect();
            prop_assume!(!required.is_empty());
            let scope = SolveScope::from_sets(n, &required, &[], &[0]);
            let mut one = PathEngine::with_threads(PathAlgorithm::Dijkstra, 1);
            let mut many = PathEngine::with_threads(PathAlgorithm::Dijkstra, 4);
            prop_assert_eq!(one.solve_scope(&graph, &scope), many.solve_scope(&graph, &scope));
        }

        // Every solve overwrites the previous timestep's matrix in place;
        // nothing of the old graph may survive into the new result.
        #[test]
        fn in_place_resolves_equal_a_full_recompute_across_timesteps(
            seed in 0u64..500,
            n in 4usize..28,
            extra in 0usize..30,
            churn in 1usize..8,
            steps in 1usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut edges = random_edges(&mut rng, n, extra);
            let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, 2);
            engine.solve(&NetworkGraph::from_edges(n, edges.clone()));
            for _ in 0..steps {
                edges = mutate_edges(&mut rng, n, &edges, churn);
                let graph = NetworkGraph::from_edges(n, edges.clone());
                let result = engine.solve(&graph).clone();
                let reference = graph.all_pairs_dijkstra();
                for a in 0..n {
                    for b in 0..n {
                        prop_assert_eq!(result.latency_micros(a, b), reference.latency_micros(a, b));
                    }
                }
                assert_matches_reference(&graph, &result);
            }
        }

        #[test]
        fn engine_agrees_with_both_references(seed in 0u64..500, n in 2usize..90, extra in 0usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = NetworkGraph::from_edges(n, random_edges(&mut rng, n, extra));
            let mut engine = PathEngine::new(PathAlgorithm::Dijkstra);
            let result = engine.solve(&graph).clone();
            let dijkstra = graph.all_pairs_dijkstra();
            let floyd_warshall = graph.floyd_warshall();
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(result.latency_micros(a, b), dijkstra.latency_micros(a, b));
                    prop_assert_eq!(result.latency_micros(a, b), floyd_warshall.latency_micros(a, b));
                }
            }
        }

        // A full row is an unbounded row of the same loop: a scope that
        // requires every node bounds nothing, so it must reproduce the
        // unscoped solve entry for entry on any source subset.
        #[test]
        fn rows_of_a_scope_requiring_every_node_equal_unscoped_rows(
            seed in 0u64..200,
            n in 3usize..40,
            threads in 1usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = NetworkGraph::from_edges(n, random_edges(&mut rng, n, n));
            let every_node: Vec<u32> = (0..n as u32).collect();
            let scope = SolveScope::from_sets(n, &every_node, &[], &[]);
            let sources: Vec<u32> = (0..n as u32).filter(|s| s % 2 == 0).collect();
            let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, threads);
            let scoped = engine.solve_scope(&graph, &scope).clone();
            let unscoped = engine.solve_sources(&graph, &sources);
            for &s in &sources {
                let s = s as usize;
                for t in 0..n {
                    prop_assert!(scoped.is_exact(s, t));
                    prop_assert_eq!(scoped.latency_micros(s, t), unscoped.latency_micros(s, t));
                    prop_assert_eq!(scoped.predecessor(s, t), unscoped.predecessor(s, t));
                }
            }
        }

        #[test]
        fn restricted_solves_match_full_rows(seed in 0u64..200, n in 3usize..30) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = NetworkGraph::from_edges(n, random_edges(&mut rng, n, n));
            let sources: Vec<u32> = (0..n as u32).filter(|s| s % 3 == 0).collect();
            let mut engine = PathEngine::with_threads(PathAlgorithm::Dijkstra, 3);
            let restricted = engine.solve_sources(&graph, &sources).clone();
            let full = graph.all_pairs_dijkstra();
            for &s in &sources {
                for t in 0..n {
                    prop_assert_eq!(
                        restricted.latency_micros(s as usize, t),
                        full.latency_micros(s as usize, t)
                    );
                }
            }
        }
    }
}
