// Reproduction of the paper's Section 5.7 case study (Figure 10): the
// Wikipedia pages for plant species of the genus Guzmania form a natural
// cluster although none of them links to another — they all point to the
// same pages ("Poales", "Ecuador", the "Guzmania" genus page) and are
// pointed to by the same pages. Degree-discounted symmetrization recovers
// the cluster with both MLR-MCL and Metis; A+Aᵀ cannot.
//
//   $ ./case_study_guzmania
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cluster/mlr_mcl.h"
#include "cluster/partition_metis.h"
#include "core/symmetrize.h"
#include "gen/hyperlink.h"

namespace {

using namespace dgc;

/// Finds the output cluster containing the majority of `members` and
/// reports how many of them it captured.
std::pair<int, Index> MajorityCapture(const Clustering& clustering,
                                      const std::vector<Index>& members) {
  std::map<Index, int> counts;
  for (Index v : members) {
    const Index label = clustering.LabelOf(v);
    if (label != Clustering::kUnassigned) ++counts[label];
  }
  int best = 0;
  Index best_label = -1;
  for (const auto& [label, count] : counts) {
    if (count > best) {
      best = count;
      best_label = label;
    }
  }
  return {best, best_label};
}

}  // namespace

int main() {
  // A small Wikipedia-like graph; we graft a Guzmania-style species
  // cluster onto it: 14 species pages that never link to one another but
  // all link to "Poales", "Ecuador" and "Guzmania", with "Guzmania" and a
  // "List of Guzmania species" page linking back.
  HyperlinkOptions options;
  options.num_articles = 4000;
  options.num_categories = 60;
  options.seed = 17;
  auto base = GenerateHyperlink(options);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }

  const Index n0 = base->graph.NumVertices();
  const Index num_species = 14;
  // New vertices: species pages, then Poales / Ecuador / Guzmania / List.
  const Index poales = n0 + num_species;
  const Index ecuador = poales + 1;
  const Index guzmania = ecuador + 1;
  const Index list_page = guzmania + 1;
  const Index n = list_page + 1;

  std::vector<Edge> edges;
  const CsrMatrix& a = base->graph.adjacency();
  for (Index u = 0; u < n0; ++u) {
    auto cols = a.RowCols(u);
    auto vals = a.RowValues(u);
    for (size_t i = 0; i < cols.size(); ++i) {
      edges.push_back(Edge{u, cols[i], vals[i]});
    }
  }
  std::vector<Index> species;
  std::vector<std::string> names(static_cast<size_t>(n));
  for (Index v = 0; v < n0; ++v) names[static_cast<size_t>(v)] = base->NameOf(v);
  for (Index s = 0; s < num_species; ++s) {
    const Index page = n0 + s;
    species.push_back(page);
    std::string& name = names[static_cast<size_t>(page)];
    name = std::string("Guzmania species ");
    name += std::to_string(s + 1);
    edges.push_back(Edge{page, poales, 1.0});
    edges.push_back(Edge{page, ecuador, 1.0});
    edges.push_back(Edge{page, guzmania, 1.0});
    edges.push_back(Edge{guzmania, page, 1.0});
    edges.push_back(Edge{list_page, page, 1.0});
    // Each species page also links to a few unrelated pages of its own
    // (references, localities), so the cluster is not a clean star.
    for (int e = 0; e < 6; ++e) {
      edges.push_back(
          Edge{page, static_cast<Index>((s * 131 + e * 977 + 7) % n0), 1.0});
    }
  }
  names[static_cast<size_t>(poales)] = "Poales";
  names[static_cast<size_t>(ecuador)] = "Ecuador";
  names[static_cast<size_t>(guzmania)] = "Guzmania";
  names[static_cast<size_t>(list_page)] = "List of Guzmania species";
  // Like their real-Wikipedia counterparts, the shared pages are popular:
  // Ecuador/Poales have many unrelated in-links, and the Guzmania/List
  // pages link to and are linked from plenty of other botany pages. This
  // is what prevents A+Aᵀ from recovering the species cluster through the
  // shared pages acting as star centers.
  for (int i = 0; i < 400; ++i) {
    edges.push_back(Edge{static_cast<Index>(i * 7 % n0), ecuador, 1.0});
    if (i % 4 == 0) {
      edges.push_back(Edge{static_cast<Index>(i * 13 % n0), poales, 1.0});
    }
    if (i % 2 == 0) {
      edges.push_back(Edge{static_cast<Index>(i * 11 % n0), guzmania, 1.0});
      edges.push_back(Edge{guzmania, static_cast<Index>(i * 17 % n0), 1.0});
    }
    if (i % 3 == 0) {
      edges.push_back(Edge{list_page, static_cast<Index>(i * 19 % n0), 1.0});
      edges.push_back(Edge{static_cast<Index>(i * 23 % n0), list_page, 1.0});
    }
  }
  auto graph = Digraph::FromEdges(n, edges);
  if (!graph.ok()) return 1;

  std::printf("graph: %d pages, %lld links; %d Guzmania species planted\n",
              n, static_cast<long long>(graph->NumEdges()), num_species);
  std::printf("(species pages share out-links {Poales, Ecuador, Guzmania}\n"
              " and in-links {Guzmania, List of Guzmania species}, but no\n"
              " species page links to another)\n\n");

  for (dgc::SymmetrizationMethod method :
       {SymmetrizationMethod::kAPlusAT,
        SymmetrizationMethod::kDegreeDiscounted}) {
    SymmetrizationOptions sym;
    sym.prune_threshold =
        method == SymmetrizationMethod::kDegreeDiscounted ? 0.01 : 0.0;
    auto u = Symmetrize(*graph, method, sym);
    if (!u.ok()) return 1;
    std::printf("--- %s\n", SymmetrizationMethodName(method).data());
    // Direct check: are species pages even connected to one another?
    std::printf("  species<->species edge weight in symmetrized graph: "
                "%.3f\n",
                u->adjacency().At(species[0], species[1]));

    MlrMclOptions mcl;
    mcl.rmcl.inflation = 2.0;
    auto mcl_clustering = MlrMcl(*u, mcl);
    MetisOptions metis;
    metis.k = 60;
    auto metis_clustering = MetisPartition(*u, metis);
    if (!mcl_clustering.ok() || !metis_clustering.ok()) return 1;
    auto [mcl_count, mcl_label] = MajorityCapture(*mcl_clustering, species);
    auto [metis_count, metis_label] =
        MajorityCapture(*metis_clustering, species);
    std::printf("  MLR-MCL : %2d/%d species in one cluster\n", mcl_count,
                num_species);
    std::printf("  Metis   : %2d/%d species in one cluster\n", metis_count,
                num_species);
  }
  std::printf(
      "\nAs in the paper's Figure 10, the species cluster is recovered by\n"
      "Degree-discounted symmetrization under both clustering algorithms,\n"
      "independent of the clusterer; A+A' leaves the species pages\n"
      "mutually unconnected, so no clustering algorithm can group them.\n");
  return 0;
}
