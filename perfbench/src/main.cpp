// perfbench — one run of one workload of the end-to-end rekey benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints the host it ran on, a few informational lines, and as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 records spans, checks
// that the daemon phases tile each batch, writes the spans to --trace-out
// and reports the per-layer metrics instead. Workloads and metrics are
// described in README.md.
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "crypto/sha256.h"
#include "fec/gf256_simd.h"
#include "wire/backend.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

// Environment knobs that change the program's behaviour. run.py clears
// them; a run that still sees one refuses to start, so no figure is ever
// taken under a stray override.
constexpr const char* kBehaviourEnv[] = {
    "REKEY_THREADS",  "REKEY_SIMD",     "REKEY_WIRE_BACKEND",
    "REKEY_PIN",      "REKEY_IO_BATCH", "REKEY_TRACE"};

// Every per-layer metric, in report order. A workload that has no such
// layer reports 0 for it (see README.md for which apply where).
const std::pair<const char*, const char*> kPerLayer[] = {
    {"daemon.ack_linger_ms", "ms"},
    {"daemon.pipeline_ms", "ms"},
    {"daemon.burst_ms", "ms"},
    {"daemon.report_ms", "ms"},
    {"daemon.unicast_ms", "ms"},
    {"daemon.done_ms", "ms"},
    {"daemon.teardown_ms", "ms"},
    {"daemon.rounds_per_batch", "count"},
    {"daemon.waves_per_batch", "count"},
    {"daemon.control_retransmits", "count"},
    {"daemon.cycle_tiling_error", "ratio"},
    {"wire.send_ms", "ms"},
    {"wire.send_us_per_datagram", "us"},
    {"wire.tx_datagrams", "count"},
    {"wire.syscalls_per_batch", "count"},
    {"fleet.busy_ms", "ms"},
    {"fleet.report_turnaround_ms", "ms"},
    {"fleet.frames_rx", "count"},
    {"fleet.shaped_off", "count"},
    {"fleet.linger_ms", "ms"},
    {"transport.parity_frames", "count"},
    {"transport.server_ms", "ms"},
    {"keytree.mark_ms", "ms"},
    {"keytree.payload_ms", "ms"},
    {"keytree.payload_ns_per_enc", "ns"},
    {"keytree.encryptions", "count"},
    {"packet.assign_ms", "ms"},
    {"packet.enc_packets", "count"},
    {"packet.dup_ratio", "ratio"},
    {"parallel.workers", "count"},
};

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    line += (i ? ", \"" : "\"") + json_escape(metrics[i].name) +
            "\": {\"value\": " + num + ", \"unit\": \"" +
            json_escape(metrics[i].unit) + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-out <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kBehaviourEnv)
    if (std::getenv(name) != nullptr) {
      std::cerr << "perfbench: " << name
                << " is set; clear every REKEY_* override before a run\n";
      return 2;
    }

  perfbench::RunOptions opt;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("bad --seed");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0 && opt.seconds < 3600))
        return usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  const bool wire = perfbench::is_wire_workload(opt.workload);
  if (!wire && !perfbench::is_pipeline_workload(opt.workload))
    return usage(("unknown workload " + opt.workload).c_str());
  opt.threads = online_cpus();

  utsname un{};
  uname(&un);
  std::cout << "host: nproc=" << opt.threads << " kernel=" << un.release
            << " wire_backend="
            << rekey::wire::backend_name(
                   rekey::wire::effective_backend(std::nullopt))
            << " io_uring="
            << (rekey::wire::io_uring_supported() ? "available" : "absent")
            << " fec_simd="
            << rekey::fec::simd_path_name(rekey::fec::active_simd_path())
            << " sha256=" << rekey::crypto::Sha256::compress_path_name()
            << "\n";
  std::cout << "run: workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << "\n";

  perfbench::RunResult r;
  try {
    r = wire ? perfbench::run_wire_workload(opt)
             : perfbench::run_pipeline_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& n : r.notes) std::cout << "note: " << n << "\n";
  for (const std::string& e : r.errors) std::cout << "check failed: " << e << "\n";

  std::vector<Metric> out;
  if (opt.trace) {
    std::map<std::string, double> have;
    for (const Metric& m : r.per_layer) have[m.name] = m.value;
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = have.find(name);
      out.push_back({name, it == have.end() ? 0.0 : it->second, unit});
    }
    // The traced run's own end-to-end figures, for the tracing overhead.
    std::cout << "traced end-to-end:";
    for (const Metric& m : r.end_to_end)
      std::cout << " " << m.name << "=" << m.value << m.unit;
    std::cout << "\n";
    std::cerr << "self time by span (" << opt.workload << "):\n";
    r.trace.print_self_times(std::cerr);
    if (!trace_out.empty()) {
      if (!r.trace.write_jsonl(trace_out)) {
        std::cerr << "perfbench: cannot write " << trace_out << "\n";
        return 1;
      }
      std::cout << "trace: " << r.trace.spans().size() << " spans written to "
                << trace_out << "\n";
    }
  } else {
    out = r.end_to_end;
    out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  }
  print_result(r.correct, r.attempted, r.failed, out);
  return 0;
}
