// OutputValidator — Figure 2's "Output Validator": "checks the outcome of
// the benchmark to ensure correctness."
//
// Every platform output is compared against the reference implementation:
// exact per-vertex equality for BFS/CONN/CD, exact edge-set equality for
// EVO, numeric tolerance for STATS (floating-point summation order differs
// across platforms).

#pragma once

#include "common/result.h"
#include "ref/algorithms.h"

namespace gly::harness {

/// Validates `actual` against a freshly computed reference result.
/// OK on match; ValidationFailed with a diagnostic otherwise.
Status ValidateOutput(const Graph& graph, AlgorithmKind kind,
                      const AlgorithmParams& params,
                      const AlgorithmOutput& actual);

/// Validates against a precomputed expected output (used when the reference
/// run is amortized across platforms).
Status ValidateAgainst(const AlgorithmOutput& expected,
                       const AlgorithmOutput& actual, AlgorithmKind kind);

/// True when `kind`'s output is invariant under vertex relabeling (the
/// reorder-permutation contract): STATS, BFS, CONN, and PR qualify; CD and
/// EVO seed their dynamics with vertex ids, so a relabeled run is a
/// different computation and cannot be mapped back.
bool RelabelingInvariant(AlgorithmKind kind);

/// Maps an output computed on a `Graph::ReorderByDegree` graph back into
/// original vertex ids (`new_to_old[new_id] == original_id`): per-vertex
/// values and scores move to their original slots, and CONN's labels —
/// which are vertex ids — are rewritten to the component's smallest
/// original id, exactly what the reference produces on the original graph.
/// Requires RelabelingInvariant(kind).
AlgorithmOutput MapOutputToOriginalIds(AlgorithmKind kind,
                                       const std::vector<VertexId>& new_to_old,
                                       AlgorithmOutput output);

/// CRC32C fingerprint of an algorithm output: per-vertex values, scores
/// (bit patterns), stats, and EVO's new edges, each section length-prefixed
/// so empty/missing sections cannot alias. Two runs that produced the same
/// answer checksum identically — the differential scheduler test compares
/// these across jobs=1 and jobs=N journals; the harness records it per cell
/// as `output_checksum`.
uint32_t OutputChecksum(const AlgorithmOutput& output);

}  // namespace gly::harness
