// bench_e2e_compare: compares two result sets written by pulse_bench_e2e.
//
//   bench_e2e_compare <parent.jsonl> <change.jsonl>
//
// Each file holds the metric lines of many runs (one JSON object per line:
// workload, seed, metric, unit, better, bound, value; "run" header lines
// are skipped). Per workload and metric the tool prints each side's median
// and quartiles (the quartiles of Python's statistics.quantiles(n=4)) and,
// for end-to-end metrics (those with a bound), one verdict:
//
//   unresolved  either side's quartile spread exceeds the bound, unless
//               every change run beats (better) or trails (worse) every
//               parent run;
//   worse       the change's median is worse than the parent's by more
//               than the bound;
//   better      the change wins at least 9/10 of the runs paired by seed,
//               and the medians differ by more than the parent's spread;
//   same        otherwise.
//
// Exit status: 0, or 1 when any end-to-end metric is worse, 2 on bad input.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace {

struct Sample {
  double seed;
  double value;
};

struct Series {
  std::string unit;
  std::string better;
  std::optional<double> bound;
  std::vector<Sample> parent;
  std::vector<Sample> change;
};

/// Raw text of `"key":value` in a flat JSON object line (string values
/// without their quotes); nullopt when the key is absent.
std::optional<std::string_view> field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key).append("\":");
  std::size_t pos = line.find(pattern);
  if (pos == std::string_view::npos) return std::nullopt;
  pos += pattern.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos < line.size() && line[pos] == '"') {
    const std::size_t end = line.find('"', pos + 1);
    if (end == std::string_view::npos) return std::nullopt;
    return line.substr(pos + 1, end - pos - 1);
  }
  const std::size_t end = line.find_first_of(",}", pos);
  if (end == std::string_view::npos) return std::nullopt;
  return line.substr(pos, end - pos);
}

double to_double(std::string_view text) { return std::strtod(std::string(text).c_str(), nullptr); }

using Key = std::pair<std::string, std::string>;  // (workload, metric)

bool load(const char* path, bool parent, std::map<Key, Series>& series,
          std::vector<Key>& order) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const auto metric = field(line, "metric");
    if (!metric) continue;
    const auto workload = field(line, "workload");
    const auto value = field(line, "value");
    const auto seed = field(line, "seed");
    if (!workload || !value || !seed) {
      std::fprintf(stderr, "%s: malformed line: %s\n", path, line.c_str());
      return false;
    }
    const Key key{std::string(*workload), std::string(*metric)};
    auto [it, inserted] = series.try_emplace(key);
    if (inserted) order.push_back(key);
    Series& s = it->second;
    s.unit = std::string(field(line, "unit").value_or(""));
    s.better = std::string(field(line, "better").value_or("lower"));
    if (const auto bound = field(line, "bound"); bound && *bound != "null") {
      s.bound = to_double(*bound);
    }
    (parent ? s.parent : s.change).push_back({to_double(*seed), to_double(*value)});
  }
  return true;
}

struct Summary {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Median and quartiles as Python's statistics.median and
/// statistics.quantiles(values, n=4) (the default "exclusive" method).
Summary summarize(const std::vector<Sample>& samples) {
  std::vector<double> x;
  for (const Sample& s : samples) x.push_back(s.value);
  std::sort(x.begin(), x.end());
  Summary out;
  const std::size_t n = x.size();
  out.min = x.front();
  out.max = x.back();
  out.median = n % 2 == 1 ? x[n / 2] : (x[n / 2 - 1] + x[n / 2]) / 2.0;
  if (n == 1) {
    out.q1 = out.q3 = x[0];
    return out;
  }
  const auto quartile = [&](long i) {
    const long m = static_cast<long>(n) + 1;
    long j = i * m / 4;
    j = std::clamp<long>(j, 1, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (x[j - 1] * static_cast<double>(4 - delta) + x[j] * static_cast<double>(delta)) / 4.0;
  };
  out.q1 = quartile(1);
  out.q3 = quartile(3);
  return out;
}

const char* verdict(const Series& s, const Summary& a, const Summary& b) {
  const bool lower = s.better == "lower";
  const double bound = *s.bound;
  const auto spread = [](const Summary& x) {
    return x.median != 0.0 ? (x.q3 - x.q1) / std::fabs(x.median) : 0.0;
  };
  const bool all_better = lower ? b.max < a.min : b.min > a.max;
  const bool all_worse = lower ? b.min > a.max : b.max < a.min;
  if (spread(a) > bound || spread(b) > bound) {
    return all_better ? "better" : all_worse ? "worse" : "unresolved";
  }
  const double change = a.median != 0.0 ? (b.median - a.median) / std::fabs(a.median) : 0.0;
  if ((lower ? change : -change) > bound) return "worse";

  std::size_t pairs = 0;
  std::size_t wins = 0;
  for (const Sample& pa : s.parent) {
    for (const Sample& pb : s.change) {
      if (pa.seed != pb.seed) continue;
      ++pairs;
      if (lower ? pb.value < pa.value : pb.value > pa.value) ++wins;
    }
  }
  const bool median_better = lower ? b.median < a.median : b.median > a.median;
  if (pairs > 0 && 10 * wins >= 9 * pairs && median_better &&
      std::fabs(b.median - a.median) > a.q3 - a.q1) {
    return "better";
  }
  return "same";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <parent.jsonl> <change.jsonl>\n", argv[0]);
    return 2;
  }
  std::map<Key, Series> series;
  std::vector<Key> order;
  if (!load(argv[1], true, series, order) || !load(argv[2], false, series, order)) return 2;

  std::printf("%-17s %-30s %-6s %32s %32s %9s  %s\n", "workload", "metric", "unit",
              "parent median [q1, q3]", "change median [q1, q3]", "change", "verdict");
  std::map<std::string, int> counts;
  for (const Key& key : order) {
    const Series& s = series.at(key);
    if (s.parent.empty() || s.change.empty()) {
      std::printf("%-17s %-30s missing on one side\n", key.first.c_str(), key.second.c_str());
      continue;
    }
    const Summary a = summarize(s.parent);
    const Summary b = summarize(s.change);
    const char* v = s.bound ? verdict(s, a, b) : "-";
    if (s.bound) ++counts[v];
    char pa[64];
    char pb[64];
    std::snprintf(pa, sizeof(pa), "%.4g [%.4g, %.4g]", a.median, a.q1, a.q3);
    std::snprintf(pb, sizeof(pb), "%.4g [%.4g, %.4g]", b.median, b.q1, b.q3);
    const double change = a.median != 0.0 ? 100.0 * (b.median - a.median) / std::fabs(a.median)
                                          : 0.0;
    std::printf("%-17s %-30s %-6s %32s %32s %+8.2f%%  %s\n", key.first.c_str(),
                key.second.c_str(), s.unit.c_str(), pa, pb, change, v);
  }
  std::printf("\nend-to-end verdicts:");
  for (const auto& [name, n] : counts) std::printf(" %s=%d", name.c_str(), n);
  std::printf("\n");
  return counts.count("worse") ? 1 : 0;
}
