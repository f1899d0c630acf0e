// PMC — Probe Matrix Construction (Algorithm 1 of the paper).
//
// Greedy selection over candidate paths minimizing score(p) = sum_{l in p} w[l] − #linksets(p)
// until the probe matrix achieves alpha-coverage of every monitored link and the link-set
// partition over the (virtual-link-extended) routing matrix is fully resolved, or no candidate
// path has positive marginal gain.
//
// The three §4.3 optimizations are individually switchable so the Table 2 ablation can be
// reproduced:
//   decompose   — Observation 1, independent bipartite components (parallelizable);
//   lazy        — Observation 2, CELF-style deferred score refresh on a min-heap;
//   (symmetry)  — Observation 3 lives in the PathProvider's kSymmetryReduced enumeration.
#ifndef SRC_PMC_PMC_H_
#define SRC_PMC_PMC_H_

#include <cstdint>

#include "src/pmc/probe_matrix.h"
#include "src/routing/path_provider.h"

namespace detector {

struct PmcOptions {
  int alpha = 1;
  int beta = 1;
  bool decompose = true;
  bool lazy = true;
  // The w[link] term of Eq. 1, which spreads probe load evenly over links. Disabling it is an
  // ablation only (bench_ablation_evenness): selection then ignores how often a link is
  // already covered until the alpha constraint binds.
  bool evenness_term = true;
  double time_limit_seconds = 0.0;  // 0 = unlimited; exceeded runs report timed_out
  size_t num_threads = 1;           // parallelism across decomposed components
  // When false, PmcResult::matrix is left empty (stats and selected_ids only) — IncrementalPmc
  // renders the selection itself via its stable-slot store, so the solver's copy would be
  // thrown away.
  bool build_matrix = true;
  // Guard on the explicit extended-link state (sum over components of n + C(n,2) + C(n,3));
  // exceeding it throws std::runtime_error, mirroring the paper's ">24h" infeasibility rows.
  uint64_t max_extended_links = 300'000'000;

  bool operator==(const PmcOptions&) const = default;
};

struct PmcStats {
  double seconds = 0.0;
  uint64_t num_candidates = 0;
  uint64_t num_selected = 0;
  int num_components = 0;
  uint64_t score_evaluations = 0;
  uint64_t extended_links = 0;   // total extended links across components
  uint64_t resolved_sets = 0;    // final link-set partition size, summed over components
  int32_t uncoverable_links = 0; // monitored links no candidate path touches
  bool alpha_satisfied = false;
  bool fully_resolved = false;   // every component drove its partition to singletons
  bool timed_out = false;
};

struct PmcResult {
  ProbeMatrix matrix;
  PmcStats stats;
  // Candidate-store ids of the selected paths, ascending; matrix path i is candidate
  // selected_ids[i]. IncrementalPmc adopts these to seed its persistent solver state.
  std::vector<PathId> selected_ids;
};

// Enumerates candidates from the provider (kFull or kSymmetryReduced) and runs PMC.
PmcResult BuildProbeMatrix(const PathProvider& provider, PathEnumMode mode,
                           const PmcOptions& options);

// Runs PMC over a caller-supplied candidate set (lets benches reuse one enumeration across
// several (alpha, beta) configurations).
PmcResult BuildProbeMatrixFromCandidates(const Topology& topo, const PathStore& candidates,
                                         const PmcOptions& options);

struct Decomposition;

// Same, over an explicit link domain instead of every monitored link — the churn pipeline
// passes the currently-live monitored links so a post-churn rebuild does not chase coverage of
// dead links. Candidate paths traversing links outside the domain must be filtered out by the
// caller. `precomputed`, when non-null, replaces the solver's own decomposition of
// (candidates, links) — IncrementalPmc passes the one it keeps for repair scoping so the
// union-find pass over millions of path-link entries runs once, not twice.
PmcResult BuildProbeMatrixFromCandidates(const Topology& topo, const PathStore& candidates,
                                         const PmcOptions& options, LinkIndex links,
                                         const Decomposition* precomputed = nullptr);

}  // namespace detector

#endif  // SRC_PMC_PMC_H_
