#include "exp/artifact.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>

namespace pulse::exp {

namespace {

void write_lines(const std::filesystem::path& path, const sim::EnsembleResult& ensemble,
                 double (*metric)(const sim::RunResult&)) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open artifact file: " + path.string());
  os.precision(10);
  for (const auto& run : ensemble.runs) os << metric(run) << '\n';
  if (!os) throw std::runtime_error("artifact write failed: " + path.string());
}

}  // namespace

ArtifactFiles write_artifact_files(const std::filesystem::path& directory,
                                   const std::string& technique,
                                   const sim::EnsembleResult& ensemble) {
  std::filesystem::create_directories(directory);
  const std::string suffix = "_sliding_with_memory_constraint_T1.txt";

  ArtifactFiles files;
  files.service_time = directory / (technique + "_servicetime" + suffix);
  files.keepalive_cost = directory / (technique + "_keepalive_cost" + suffix);
  files.accuracy = directory / (technique + "_accuracy" + suffix);

  write_lines(files.service_time, ensemble,
              [](const sim::RunResult& r) { return r.total_service_time_s; });
  write_lines(files.keepalive_cost, ensemble,
              [](const sim::RunResult& r) { return r.total_keepalive_cost_usd; });
  write_lines(files.accuracy, ensemble,
              [](const sim::RunResult& r) { return r.average_accuracy_pct(); });
  return files;
}

std::vector<double> read_artifact_metric(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open artifact file: " + path.string());
  std::vector<double> values;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    // One finite number per line; trailing whitespace (a CRLF file's '\r')
    // is fine, anything else after the number is not.
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(line, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || line.find_first_not_of(" \t\r", used) != std::string::npos ||
        !std::isfinite(value)) {
      throw std::runtime_error("malformed artifact line in " + path.string() + ": " + line);
    }
    values.push_back(value);
  }
  return values;
}

}  // namespace pulse::exp
