#include "bench_util/workloads.h"

#include <algorithm>
#include <random>

#include "query/query_generator.h"

namespace rigpm {

namespace {

// Labels sorted by decreasing frequency in the data graph.
std::vector<LabelId> FrequentLabels(const Graph& g) {
  std::vector<LabelId> labels(g.NumLabels());
  for (LabelId a = 0; a < g.NumLabels(); ++a) labels[a] = a;
  std::sort(labels.begin(), labels.end(), [&](LabelId a, LabelId b) {
    return g.LabelCount(a) > g.LabelCount(b);
  });
  return labels;
}

}  // namespace

std::vector<NamedQuery> TemplateWorkload(const Graph& g,
                                         const std::vector<std::string>& names,
                                         QueryVariant variant, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<LabelId> frequent = FrequentLabels(g);
  // Instances draw labels from the top half of the frequency ranking so the
  // match sets are non-trivial (rare labels would make everything empty).
  const size_t pool = std::max<size_t>(1, frequent.size() / 2);

  std::vector<NamedQuery> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    const QueryTemplate& tpl = TemplateByName(name);
    std::vector<LabelId> labels(tpl.num_nodes);
    std::uniform_int_distribution<size_t> pick(0, pool - 1);
    for (auto& l : labels) l = frequent[pick(rng)];
    out.push_back({name, InstantiateTemplate(tpl, variant, std::move(labels))});
  }
  return out;
}

std::vector<std::string> RepresentativeTemplateNames() {
  return {"HQ0",  "HQ3",  "HQ5",   // acyclic
          "HQ6",  "HQ8",  "HQ17",  // cyclic
          "HQ11", "HQ12", "HQ19",  // clique
          "HQ10", "HQ14", "HQ16"}; // combo
}

std::vector<NamedQuery> ExtractedWorkload(const Graph& g,
                                          const std::vector<uint32_t>& sizes,
                                          QueryVariant variant,
                                          uint32_t count_per_size,
                                          uint64_t seed) {
  std::vector<NamedQuery> out;
  for (uint32_t size : sizes) {
    for (uint32_t i = 0; i < count_per_size; ++i) {
      ExtractedQueryOptions opts;
      opts.num_nodes = size;
      opts.variant = variant;
      opts.seed = seed + size * 1000 + i;
      auto q = ExtractQueryFromGraph(g, opts);
      if (!q.has_value()) continue;
      std::string name = std::to_string(size) + "N";
      if (count_per_size > 1) name += "_" + std::to_string(i);
      out.push_back({std::move(name), std::move(*q)});
    }
  }
  return out;
}

}  // namespace rigpm
