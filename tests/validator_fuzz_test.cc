// Property-based validator tests: over seeded random graphs (R-MAT and
// Erdős–Rényi-ish) plus pathological shapes (star, two components,
// self-loops), the OutputValidator must accept the reference output
// verbatim and reject *any* single-vertex perturbation of it. That is the
// validator's whole contract — "checks the outcome of the benchmark to
// ensure correctness" — stated as properties instead of hand-picked
// examples, so tolerance bugs (a perturbation inside an accidentally-wide
// epsilon, a NaN that compares false) or missing-field bugs (a perturbed
// vertex the comparison never reads) fail across many graphs, not just one.
//
// The same corpus, plus a directed graph, checks the reference's own
// certificates (CertifyReference): the reference output passes, and each
// mutation of a BFS, CONN or STATS output that a buggy reference could
// produce fails. The robustness label runs this file under ASan and TSan.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/rmat.h"
#include "graph/graph.h"
#include "harness/validator.h"
#include "ref/algorithms.h"

namespace gly::harness {
namespace {

Graph RandomUndirected(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

Graph RmatGraph(uint32_t scale, uint64_t seed) {
  datagen::RmatConfig config;
  config.scale = scale;
  config.edge_factor = 8;
  config.seed = seed;
  EdgeList edges = datagen::RmatGenerator(config).Generate().ValueOrDie();
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

/// Hub 0 with n-1 leaves: maximal degree skew, diameter 2.
Graph StarGraph(VertexId n) {
  EdgeList edges(n);
  for (VertexId v = 1; v < n; ++v) edges.Add(0, v);
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

/// Two rings with no edge between them: vertices in the second component
/// are unreachable from the BFS source, exercising the "infinity"
/// distance and the multi-component CONN labels.
Graph TwoComponentGraph(VertexId half) {
  EdgeList edges(2 * half);
  for (VertexId v = 0; v < half; ++v) {
    edges.Add(v, (v + 1) % half);
    edges.Add(half + v, half + (v + 1) % half);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

/// A ring where every vertex also has a self-loop.
Graph SelfLoopGraph(VertexId n) {
  EdgeList edges(n);
  for (VertexId v = 0; v < n; ++v) {
    edges.Add(v, (v + 1) % n);
    edges.Add(v, v);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

/// The fuzz corpus: seeded random graphs plus the pathological shapes.
std::vector<NamedGraph> Corpus() {
  std::vector<NamedGraph> corpus;
  for (uint64_t seed : {11u, 22u, 33u}) {
    corpus.push_back({"rmat-" + std::to_string(seed), RmatGraph(7, seed)});
  }
  for (uint64_t seed : {44u, 55u, 66u}) {
    corpus.push_back(
        {"random-" + std::to_string(seed), RandomUndirected(200, 600, seed)});
  }
  corpus.push_back({"star", StarGraph(64)});
  corpus.push_back({"two-component", TwoComponentGraph(40)});
  corpus.push_back({"self-loop", SelfLoopGraph(32)});
  return corpus;
}

const std::vector<AlgorithmKind> kKinds = {
    AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kPr};

/// Perturbs one vertex of `output`: +1 on the integer value for BFS/CONN
/// (-1 on an unreached BFS vertex, since kUnreachable is the largest
/// int64_t); on the PR score either a 1e-3 relative bump (far outside the
/// validator's 1e-9 tolerance, far inside what a "roughly right" buggy
/// engine produces) or, with `nan`, a NaN (which a relative-error test
/// that is not written to fail closed lets through).
void PerturbVertex(AlgorithmKind kind, size_t vertex, bool nan,
                   AlgorithmOutput* out) {
  if (kind == AlgorithmKind::kPr) {
    out->vertex_scores[vertex] =
        nan ? std::numeric_limits<double>::quiet_NaN()
            : out->vertex_scores[vertex] * 1.001;
  } else {
    int64_t& value = out->vertex_values[vertex];
    value += value == kUnreachable ? -1 : 1;
  }
}

TEST(ValidatorFuzzTest, AcceptsReferenceOutputOnEveryGraph) {
  for (const NamedGraph& g : Corpus()) {
    for (AlgorithmKind kind : kKinds) {
      AlgorithmParams params;
      AlgorithmOutput reference = ref::Run(g.graph, kind, params);
      Status status = ValidateOutput(g.graph, kind, params, reference);
      EXPECT_TRUE(status.ok())
          << g.name << "/" << AlgorithmKindName(kind) << ": "
          << status.ToString();
    }
  }
}

TEST(ValidatorFuzzTest, RejectsEverySingleVertexPerturbation) {
  Rng rng(0xF00D);
  for (const NamedGraph& g : Corpus()) {
    for (AlgorithmKind kind : kKinds) {
      AlgorithmParams params;
      const AlgorithmOutput reference = ref::Run(g.graph, kind, params);
      const size_t n = kind == AlgorithmKind::kPr
                           ? reference.vertex_scores.size()
                           : reference.vertex_values.size();
      ASSERT_GT(n, 0u) << g.name << "/" << AlgorithmKindName(kind);
      // A handful of random victims per (graph, kind), plus the endpoints
      // (first/last vertex are where off-by-one comparisons slip).
      std::vector<size_t> victims = {0, n - 1};
      for (int i = 0; i < 6; ++i) victims.push_back(rng.NextBounded(n));
      for (size_t vertex : victims) {
        for (bool nan : {false, true}) {
          if (nan && kind != AlgorithmKind::kPr) continue;
          AlgorithmOutput mutated = reference;
          PerturbVertex(kind, vertex, nan, &mutated);
          Status status = ValidateOutput(g.graph, kind, params, mutated);
          EXPECT_TRUE(status.IsValidationFailed())
              << g.name << "/" << AlgorithmKindName(kind) << " vertex "
              << vertex << (nan ? " (NaN)" : "")
              << ": perturbed output was accepted (" << status.ToString()
              << ")";
        }
      }
    }
  }
}

// ------------------------------------------------ reference certificates

/// A seeded random digraph: BFS follows edge direction only, and the
/// weakly connected components include isolated vertices.
Graph RandomDirected(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  return GraphBuilder::Directed(edges).ValueOrDie();
}

std::vector<NamedGraph> CertificateCorpus() {
  std::vector<NamedGraph> corpus = Corpus();
  corpus.push_back({"directed", RandomDirected(200, 320, 77)});
  return corpus;
}

/// BFS from the highest-out-degree vertex, so that the search reaches
/// more than its source on every graph of the corpus.
AlgorithmParams CertificateParams(const Graph& g) {
  AlgorithmParams params;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(params.bfs.source)) params.bfs.source = v;
  }
  return params;
}

/// CONN classes of `labels`: label -> members, ascending.
std::map<int64_t, std::vector<VertexId>> Classes(
    const std::vector<int64_t>& labels) {
  std::map<int64_t, std::vector<VertexId>> classes;
  for (size_t v = 0; v < labels.size(); ++v) {
    classes[labels[v]].push_back(static_cast<VertexId>(v));
  }
  return classes;
}

void ExpectCertificateFails(const NamedGraph& g, AlgorithmKind kind,
                            const AlgorithmParams& params,
                            const AlgorithmOutput& mutated,
                            const std::string& what) {
  Status status = CertifyReference(g.graph, kind, params, mutated);
  EXPECT_TRUE(status.IsValidationFailed())
      << g.name << ": " << what << " passed the certificate";
  EXPECT_NE(status.message().find("reference"), std::string::npos)
      << status.ToString();
}

TEST(ReferenceCertificateTest, ReferencePassesOnEveryGraph) {
  for (const NamedGraph& g : CertificateCorpus()) {
    const AlgorithmParams params = CertificateParams(g.graph);
    for (AlgorithmKind kind :
         {AlgorithmKind::kStats, AlgorithmKind::kBfs, AlgorithmKind::kConn,
          AlgorithmKind::kCd, AlgorithmKind::kEvo, AlgorithmKind::kPr}) {
      Status status = CertifyReference(g.graph, kind, params,
                                       ref::Run(g.graph, kind, params));
      EXPECT_TRUE(status.ok()) << g.name << "/" << AlgorithmKindName(kind)
                               << ": " << status.ToString();
    }
  }
}

TEST(ReferenceCertificateTest, RejectsOneDistanceOffByOne) {
  Rng rng(0xCE47);
  for (const NamedGraph& g : CertificateCorpus()) {
    const AlgorithmParams params = CertificateParams(g.graph);
    const AlgorithmOutput reference =
        ref::Run(g.graph, AlgorithmKind::kBfs, params);
    std::vector<VertexId> reached;
    for (VertexId v = 0; v < g.graph.num_vertices(); ++v) {
      if (reference.vertex_values[v] != kUnreachable) reached.push_back(v);
    }
    ASSERT_GT(reached.size(), 1u) << g.name;
    // The source, plus a handful of other reached vertices.
    std::vector<VertexId> victims = {params.bfs.source};
    for (int i = 0; i < 8; ++i) {
      victims.push_back(reached[rng.NextBounded(reached.size())]);
    }
    for (VertexId v : victims) {
      for (int64_t delta : {-1, 1}) {
        AlgorithmOutput mutated = reference;
        mutated.vertex_values[v] += delta;
        ExpectCertificateFails(g, AlgorithmKind::kBfs, params, mutated,
                               "distance of vertex " + std::to_string(v) +
                                   (delta > 0 ? " + 1" : " - 1"));
      }
    }
  }
}

TEST(ReferenceCertificateTest, RejectsAReachedVertexNextToAnUnreachedOne) {
  for (const NamedGraph& g : CertificateCorpus()) {
    const AlgorithmParams params = CertificateParams(g.graph);
    const AlgorithmOutput reference =
        ref::Run(g.graph, AlgorithmKind::kBfs, params);
    // Every out-neighbor of the source other than itself: unreach it.
    size_t mutations = 0;
    for (VertexId w : g.graph.OutNeighbors(params.bfs.source)) {
      if (w == params.bfs.source) continue;
      AlgorithmOutput mutated = reference;
      mutated.vertex_values[w] = kUnreachable;
      ExpectCertificateFails(g, AlgorithmKind::kBfs, params, mutated,
                             "unreached vertex " + std::to_string(w));
      ++mutations;
    }
    EXPECT_GT(mutations, 0u) << g.name;
  }
}

TEST(ReferenceCertificateTest, RejectsTwoComponentsMergedUnderOneLabel) {
  size_t graphs_with_two_components = 0;
  for (const NamedGraph& g : CertificateCorpus()) {
    const AlgorithmParams params = CertificateParams(g.graph);
    const AlgorithmOutput reference =
        ref::Run(g.graph, AlgorithmKind::kConn, params);
    const auto classes = Classes(reference.vertex_values);
    if (classes.size() < 2) continue;
    ++graphs_with_two_components;
    // The last class joins the first under the first's (smaller) label:
    // equal across every edge, smallest in its class, one label short.
    AlgorithmOutput mutated = reference;
    for (VertexId v : classes.rbegin()->second) {
      mutated.vertex_values[v] = classes.begin()->first;
    }
    ExpectCertificateFails(g, AlgorithmKind::kConn, params, mutated,
                           "merged components");
  }
  EXPECT_GE(graphs_with_two_components, 3u);
}

TEST(ReferenceCertificateTest, RejectsALabelThatIsNotItsClassMinimum) {
  for (const NamedGraph& g : CertificateCorpus()) {
    const AlgorithmParams params = CertificateParams(g.graph);
    const AlgorithmOutput reference =
        ref::Run(g.graph, AlgorithmKind::kConn, params);
    // The largest class, relabeled with its second-smallest member.
    std::vector<VertexId> largest;
    for (const auto& [label, members] : Classes(reference.vertex_values)) {
      if (members.size() > largest.size()) largest = members;
    }
    ASSERT_GE(largest.size(), 2u) << g.name;
    AlgorithmOutput mutated = reference;
    for (VertexId v : largest) mutated.vertex_values[v] = largest[1];
    ExpectCertificateFails(g, AlgorithmKind::kConn, params, mutated,
                           "label " + std::to_string(largest[1]));
  }
}

TEST(ReferenceCertificateTest, RejectsAStatsCountOffByOne) {
  for (const NamedGraph& g : CertificateCorpus()) {
    const AlgorithmParams params = CertificateParams(g.graph);
    const AlgorithmOutput reference =
        ref::Run(g.graph, AlgorithmKind::kStats, params);
    for (int64_t delta : {-1, 1}) {
      AlgorithmOutput mutated = reference;
      mutated.stats.num_vertices += delta;
      ExpectCertificateFails(g, AlgorithmKind::kStats, params, mutated,
                             "vertex count");
      mutated = reference;
      mutated.stats.num_edges += delta;
      ExpectCertificateFails(g, AlgorithmKind::kStats, params, mutated,
                             "edge count");
    }
  }
}

}  // namespace
}  // namespace gly::harness
