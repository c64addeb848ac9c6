#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>

namespace perfbench {

std::int64_t TraceLog::add(std::string name, std::int64_t start_ns,
                           std::int64_t end_ns, std::int64_t parent,
                           std::int64_t batch) {
  spans_.push_back(Span{std::move(name), start_ns, std::max(start_ns, end_ns),
                        parent, batch});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

bool TraceLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"batch\":" << s.batch << "}\n";
  }
  return static_cast<bool>(out);
}

void TraceLog::print_self_times(std::ostream& os) const {
  // Children of each span, to subtract the union of their intervals.
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

  struct Agg {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> by_name;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(s.start_ns, spans_[c].start_ns);
      const std::int64_t b = std::min(s.end_ns, spans_[c].end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    Agg& g = by_name[s.name];
    ++g.count;
    g.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    g.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %9s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  os << line;
  for (const auto& [name, g] : rows) {
    std::snprintf(line, sizeof line, "%-28s %9zu %12.3f %12.3f\n",
                  name.c_str(), g.count, g.total_ms, g.self_ms);
    os << line;
  }
}

}  // namespace perfbench
