// In-memory span store of a traced benchmark run.
//
// A span is a named interval in monotonic nanoseconds with a parent span
// (-1 for a root) and the batch it belongs to (-1 outside any batch).
// Spans are only appended while the run is analysed and written out once,
// at the end, as JSON lines. The summary gives every span name's self
// time: its duration minus the part its child spans cover.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t batch = -1;
};

class TraceLog {
 public:
  // Returns the new span's index (a parent for later spans).
  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent,
                   std::int64_t batch);
  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line; returns false when the file cannot be
  // written.
  bool write_jsonl(const std::string& path) const;

  // Per-name count, total and self time in ms, largest self time first.
  void print_self_times(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
