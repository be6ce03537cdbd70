#ifndef SOFOS_BENCH_BENCH_UTIL_H_
#define SOFOS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/engine.h"
#include "datagen/registry.h"

namespace sofos {
namespace bench {

/// Loads dataset `name` at `scale` into a fresh engine (store + facet +
/// exact profile). Exits the process on error — benches are scripts.
inline void LoadEngine(core::SofosEngine* engine, const std::string& name,
                       datagen::Scale scale, uint64_t seed = 42) {
  TripleStore store;
  // Build directly at the engine's shard count; LoadStore then no-ops its
  // repartition instead of rebuilding the freshly sorted indexes.
  store.SetShardCount(engine->ResolvedShardCount());
  auto spec = datagen::GenerateByName(name, scale, seed, &store);
  if (!spec.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", name.c_str(),
                 spec.status().ToString().c_str());
    std::exit(1);
  }
  auto facet =
      core::Facet::FromSparql(spec->facet_sparql, spec->name, spec->dim_labels);
  if (!facet.ok()) {
    std::fprintf(stderr, "facet %s: %s\n", name.c_str(),
                 facet.status().ToString().c_str());
    std::exit(1);
  }
  Status status = engine->LoadStore(std::move(store));
  if (status.ok()) status = engine->SetFacet(std::move(facet).value());
  if (status.ok()) status = engine->Profile().status();
  if (!status.ok()) {
    std::fprintf(stderr, "engine %s: %s\n", name.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
}

/// Pearson correlation coefficient.
inline double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

/// Average ranks with ties.
inline std::vector<double> Ranks(const std::vector<double>& values) {
  size_t n = values.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    double rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

/// Spearman rank correlation.
inline double Spearman(const std::vector<double>& x, const std::vector<double>& y) {
  return Pearson(Ranks(x), Ranks(y));
}

/// Median of a (copied) vector.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median and quartiles of a sample (nearest rank).
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Spread SpreadOf(std::vector<double> values) {
  Spread out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  out.median = values[n / 2];
  out.q1 = values[n / 4];
  out.q3 = values[(3 * n) / 4];
  return out;
}

/// "median (q1-q3)" with `digits` decimals, for bench tables.
inline std::string SpreadCell(const Spread& spread, int digits) {
  return StrFormat("%.*f (%.*f-%.*f)", digits, spread.median, digits,
                   spread.q1, digits, spread.q3);
}

/// Process memory as the kernel accounts it (/proc/self/status): VmHWM is
/// the peak resident set over the process lifetime, VmRSS the current one.
/// Zeros on platforms without procfs — the JSON still validates.
struct MemoryStats {
  uint64_t vm_hwm_kb = 0;
  uint64_t vm_rss_kb = 0;
};

inline MemoryStats ReadMemoryStats() {
  MemoryStats stats;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return stats;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      stats.vm_hwm_kb = kb;
    } else if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
      stats.vm_rss_kb = kb;
    }
  }
  std::fclose(f);
  return stats;
}

/// Emits the shared `"memory"` JSON object every BENCH_*.json carries (no
/// trailing comma or newline; callers place it like any other field).
inline void WriteMemoryJson(std::FILE* out) {
  MemoryStats stats = ReadMemoryStats();
  std::fprintf(out,
               "\"memory\": {\"vm_hwm_kb\": %llu, \"vm_rss_kb\": %llu}",
               static_cast<unsigned long long>(stats.vm_hwm_kb),
               static_cast<unsigned long long>(stats.vm_rss_kb));
}

}  // namespace bench
}  // namespace sofos

#endif  // SOFOS_BENCH_BENCH_UTIL_H_
