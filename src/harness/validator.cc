#include "harness/validator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/crc32.h"
#include "common/string_util.h"

namespace gly::harness {

namespace {

constexpr double kStatsTolerance = 1e-6;  ///< relative, for mean LCC
constexpr double kScoreTolerance = 1e-9;  ///< relative, for PR ranks

Status CompareVertexValues(const std::vector<int64_t>& expected,
                           const std::vector<int64_t>& actual,
                           const char* what) {
  if (expected.size() != actual.size()) {
    return Status::ValidationFailed(StringPrintf(
        "%s: size mismatch (expected %zu, got %zu)", what, expected.size(),
        actual.size()));
  }
  size_t mismatches = 0;
  size_t first = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != actual[i]) {
      if (mismatches == 0) first = i;
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    return Status::ValidationFailed(StringPrintf(
        "%s: %zu/%zu vertices differ; first at vertex %zu (expected %lld, "
        "got %lld)",
        what, mismatches, expected.size(), first,
        static_cast<long long>(expected[first]),
        static_cast<long long>(actual[first])));
  }
  return Status::OK();
}

Status CompareVertexScores(const std::vector<double>& expected,
                           const std::vector<double>& actual,
                           double tolerance) {
  if (expected.size() != actual.size()) {
    return Status::ValidationFailed(StringPrintf(
        "PR scores: size mismatch (expected %zu, got %zu)", expected.size(),
        actual.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    double scale = std::max({std::abs(expected[i]), std::abs(actual[i]),
                             1e-300});
    if (std::abs(expected[i] - actual[i]) / scale > tolerance) {
      return Status::ValidationFailed(StringPrintf(
          "PR score mismatch at vertex %zu (expected %.12g, got %.12g)", i,
          expected[i], actual[i]));
    }
  }
  return Status::OK();
}

Status CompareEdges(const EdgeList& expected, const EdgeList& actual) {
  std::vector<Edge> e = expected.edges();
  std::vector<Edge> a = actual.edges();
  std::sort(e.begin(), e.end());
  std::sort(a.begin(), a.end());
  if (e != a) {
    return Status::ValidationFailed(StringPrintf(
        "EVO edge sets differ (expected %zu edges, got %zu)", e.size(),
        a.size()));
  }
  return Status::OK();
}

}  // namespace

Status ValidateAgainst(const AlgorithmOutput& expected,
                       const AlgorithmOutput& actual, AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kBfs:
      return CompareVertexValues(expected.vertex_values, actual.vertex_values,
                                 "BFS distances");
    case AlgorithmKind::kConn:
      return CompareVertexValues(expected.vertex_values, actual.vertex_values,
                                 "CONN labels");
    case AlgorithmKind::kCd:
      return CompareVertexValues(expected.vertex_values, actual.vertex_values,
                                 "CD labels");
    case AlgorithmKind::kEvo:
      return CompareEdges(expected.new_edges, actual.new_edges);
    case AlgorithmKind::kPr:
      return CompareVertexScores(expected.vertex_scores, actual.vertex_scores,
                                 kScoreTolerance);
    case AlgorithmKind::kStats: {
      if (expected.stats.num_vertices != actual.stats.num_vertices) {
        return Status::ValidationFailed(
            StringPrintf("STATS vertex count mismatch (expected %llu, got %llu)",
                         static_cast<unsigned long long>(
                             expected.stats.num_vertices),
                         static_cast<unsigned long long>(
                             actual.stats.num_vertices)));
      }
      if (expected.stats.num_edges != actual.stats.num_edges) {
        return Status::ValidationFailed(StringPrintf(
            "STATS edge count mismatch (expected %llu, got %llu)",
            static_cast<unsigned long long>(expected.stats.num_edges),
            static_cast<unsigned long long>(actual.stats.num_edges)));
      }
      double e = expected.stats.mean_local_clustering;
      double a = actual.stats.mean_local_clustering;
      double scale = std::max({std::abs(e), std::abs(a), 1e-12});
      if (std::abs(e - a) / scale > kStatsTolerance) {
        return Status::ValidationFailed(StringPrintf(
            "STATS mean LCC mismatch (expected %.9f, got %.9f)", e, a));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled algorithm kind in validator");
}

Status ValidateOutput(const Graph& graph, AlgorithmKind kind,
                      const AlgorithmParams& params,
                      const AlgorithmOutput& actual) {
  AlgorithmOutput expected = ref::Run(graph, kind, params);
  return ValidateAgainst(expected, actual, kind);
}

bool RelabelingInvariant(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kStats:
    case AlgorithmKind::kBfs:
    case AlgorithmKind::kConn:
    case AlgorithmKind::kPr:
      return true;
    case AlgorithmKind::kCd:
    case AlgorithmKind::kEvo:
      return false;
  }
  return false;
}

AlgorithmOutput MapOutputToOriginalIds(AlgorithmKind kind,
                                       const std::vector<VertexId>& new_to_old,
                                       AlgorithmOutput output) {
  const size_t n = new_to_old.size();
  if (!output.vertex_values.empty() && output.vertex_values.size() == n) {
    std::vector<int64_t> mapped(n);
    if (kind == AlgorithmKind::kConn) {
      // CONN labels are vertex ids: in the reordered space a component is
      // labeled with its smallest *new* id. Recover the original-space
      // convention (smallest original id per component) in one pass.
      std::vector<VertexId> min_orig(n, kInvalidVertex);
      for (size_t i = 0; i < n; ++i) {
        int64_t label = output.vertex_values[i];
        if (label < 0 || static_cast<size_t>(label) >= n) continue;
        min_orig[label] = std::min(min_orig[label], new_to_old[i]);
      }
      for (size_t i = 0; i < n; ++i) {
        int64_t label = output.vertex_values[i];
        int64_t translated =
            (label >= 0 && static_cast<size_t>(label) < n)
                ? static_cast<int64_t>(min_orig[label])
                : label;
        mapped[new_to_old[i]] = translated;
      }
    } else {
      // BFS distances are id-free: move each value to its original slot.
      for (size_t i = 0; i < n; ++i) {
        mapped[new_to_old[i]] = output.vertex_values[i];
      }
    }
    output.vertex_values = std::move(mapped);
  }
  if (!output.vertex_scores.empty() && output.vertex_scores.size() == n) {
    std::vector<double> mapped(n);
    for (size_t i = 0; i < n; ++i) {
      mapped[new_to_old[i]] = output.vertex_scores[i];
    }
    output.vertex_scores = std::move(mapped);
  }
  return output;
}

namespace {

uint32_t FoldU64(uint32_t state, uint64_t v) {
  return Crc32cUpdate(state, &v, sizeof(v));
}

uint32_t FoldDouble(uint32_t state, double v) {
  // Bit pattern, not value: NaNs and signed zeros stay distinguishable and
  // the fold is exact (no formatting round-trip).
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FoldU64(state, bits);
}

}  // namespace

uint32_t OutputChecksum(const AlgorithmOutput& output) {
  uint32_t state = kCrc32cInit;
  state = FoldU64(state, output.vertex_values.size());
  if (!output.vertex_values.empty()) {
    state = Crc32cUpdate(state, output.vertex_values.data(),
                         output.vertex_values.size() * sizeof(int64_t));
  }
  state = FoldU64(state, output.vertex_scores.size());
  for (double score : output.vertex_scores) state = FoldDouble(state, score);
  state = FoldU64(state, output.stats.num_vertices);
  state = FoldU64(state, output.stats.num_edges);
  state = FoldDouble(state, output.stats.mean_local_clustering);
  state = FoldU64(state, output.new_edges.num_edges());
  for (const Edge& e : output.new_edges.edges()) {
    state = FoldU64(state, static_cast<uint64_t>(e.src));
    state = FoldU64(state, static_cast<uint64_t>(e.dst));
  }
  return Crc32cFinalize(state);
}

}  // namespace gly::harness
