// OutputValidator — Figure 2's "Output Validator": "checks the outcome of
// the benchmark to ensure correctness."
//
// Every platform output is compared against the reference implementation:
// exact per-vertex equality for BFS/CONN/CD, exact edge-set equality for
// EVO, numeric tolerance for STATS (floating-point summation order differs
// across platforms). Tolerance checks fail closed: a non-finite answer never
// passes. The reference output itself is checked by a certificate that does
// not use the reference: BFS, CONN and STATS have one.

#pragma once

#include "common/result.h"
#include "ref/algorithms.h"

namespace gly::harness {

/// Validates `actual` against a freshly computed reference result.
/// OK on match; ValidationFailed with a diagnostic otherwise.
Status ValidateOutput(const Graph& graph, AlgorithmKind kind,
                      const AlgorithmParams& params,
                      const AlgorithmOutput& actual);

/// Validates against a precomputed expected output. The harness computes
/// each (dataset, algorithm)'s reference output once, certifies it, and
/// validates every platform's cell of that pair with this.
Status ValidateAgainst(const AlgorithmOutput& expected,
                       const AlgorithmOutput& actual, AlgorithmKind kind);

/// Checks a reference output against `graph` without running the
/// reference: a certificate of BFS distances from `params.bfs.source`
/// (exact, directed graphs included), of CONN labels (smallest id per
/// component) and of STATS' vertex and edge counts. PR, CD and EVO have no
/// certificate and pass. ValidationFailed names the reference output.
Status CertifyReference(const Graph& graph, AlgorithmKind kind,
                        const AlgorithmParams& params,
                        const AlgorithmOutput& expected);

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
