// Wire workloads: KeyServerDaemon and ClientFleets in one process over UDP
// loopback, every socket wrapped in a ProbeWire.
//
// A run repeats whole sessions (set-up, a fixed number of churn batches,
// teardown) until --seconds have passed. Every batch's cycle is cut from
// the daemon probe's log alone:
//
//   cycle b   = last DoneAck of batch b-1 (batch 0: last SlotMapAck)
//               -> last DoneAck of batch b
//   linger    = cycle start -> return of the last receive before BatchStart
//   pipeline  = that return -> first BatchStart send
//   burst     = BatchStart -> first RoundMark (and, after round 1, the
//               reactive-parity burst between a round's last Report and the
//               next RoundMark)
//   report    = first RoundMark of a multicast round -> its last Report
//   unicast   = USR waves: last Report before a wave -> the wave's last
//               Report
//   done      = last Report of the batch -> last DoneAck
//
// The phases tile the cycle; the traced run checks that they do.
#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "probe.h"
#include "wire/backend.h"
#include "wire/daemon.h"
#include "wire/fleet.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace w = rekey::wire;
using w::ControlOp;

constexpr std::uint32_t kLoopback = 0x7F000001;  // 127.0.0.1
constexpr int kRetryMs = 20;
// The shaping seed of the lossy workload. It stays fixed, whatever --seed
// says, so that the straggler fault it exposes fails the same client-
// batches on every run (see README.md, "Known faults").
constexpr std::uint64_t kLossyShapeSeed = 0x5751;

struct WireSpec {
  std::uint32_t clients = 0;
  std::uint32_t churn_pool = 0;
  std::uint32_t churn = 0;  // joins == leaves per batch
  std::uint32_t batches = 0;
  double down_loss = 0.0;
  double up_loss = 0.0;
  int max_multicast_rounds = 2;
};

std::optional<WireSpec> spec_for(const std::string& name) {
  WireSpec s;
  if (name == "wire-32k" || name == "wire-32k-lossy") {
    s.clients = 1u << 15;
    s.churn = 256;
    s.churn_pool = 2 * s.churn;
    s.batches = 10;
    if (name == "wire-32k-lossy") {
      s.down_loss = 0.15;
      s.up_loss = 0.05;
    }
    return s;
  }
  if (name == "wire-1m") {
    s.clients = 1u << 14;
    s.churn_pool = (1u << 20) - s.clients;
    s.churn = 1u << 16;
    s.batches = 5;
    return s;
  }
  return std::nullopt;
}

enum Phase { kLinger, kPipeline, kBurst, kReport, kUnicast, kDone, kPhases };
constexpr const char* kPhaseSpan[kPhases] = {
    "daemon.ack_linger", "daemon.pipeline", "daemon.burst",
    "daemon.report",     "daemon.unicast",  "daemon.done"};

struct Bound {
  std::int64_t t = 0;
  Phase phase = kLinger;
};

struct BatchTiming {
  std::int64_t begin = 0;  // cycle start
  std::int64_t start = 0;  // first BatchStart send
  std::int64_t end = 0;    // last DoneAck receipt
  std::vector<Bound> bounds;
  double phase_ms[kPhases] = {};
  double bytes = 0.0;
  double datagrams = 0.0;
  double send_ms = 0.0;
  double syscalls = 0.0;
  double tiling_error = 0.0;  // |sum(phases) - cycle| / cycle
  double cycle_ms() const { return static_cast<double>(end - begin) / 1e6; }
  double deliver_ms() const { return static_cast<double>(end - start) / 1e6; }
};

using StepKey = std::tuple<std::uint32_t, std::uint8_t, std::uint16_t>;

struct Timeline {
  std::string error;  // empty when every boundary was found
  std::vector<BatchTiming> batches;
};

// Cuts the daemon probe's call log into batch cycles and phases.
Timeline analyse_daemon(const ProbeWire& probe, std::size_t endpoints,
                        std::uint32_t batches) {
  Timeline tl;
  const auto& calls = probe.calls();
  const auto& notes = probe.notes();
  std::map<std::uint64_t, std::size_t> slot_ack;  // endpoint -> call index
  std::vector<std::map<std::uint64_t, std::size_t>> done_ack(batches);
  std::vector<std::int64_t> start(batches, -1);
  std::vector<std::vector<std::pair<std::int64_t, StepKey>>> marks(batches);
  std::set<StepKey> marked;
  struct Parts {
    std::uint32_t nparts = 0;
    std::set<std::uint32_t> seen;
    std::int64_t done = -1;
  };
  std::map<StepKey, std::map<std::uint64_t, Parts>> reports;

  for (std::size_t ci = 0; ci < calls.size(); ++ci) {
    const WireCall& c = calls[ci];
    const bool rx = c.kind == CallKind::kReceive;
    for (std::uint32_t k = 0; k < c.notes; ++k) {
      const ControlNote& n = notes[c.first_note + k];
      switch (n.op) {
        case ControlOp::SlotMapAck:
          if (rx) slot_ack.emplace(n.peer, ci);
          break;
        case ControlOp::BatchStart:
          if (!rx && n.seq < batches && start[n.seq] < 0) start[n.seq] = c.t0_ns;
          break;
        case ControlOp::RoundMark: {
          const StepKey key{n.seq, n.phase, n.round};
          if (!rx && n.seq < batches && marked.insert(key).second)
            marks[n.seq].emplace_back(c.t0_ns, key);
          break;
        }
        case ControlOp::Report:
        case ControlOp::ReportV2: {
          if (!rx) break;
          Parts& p = reports[StepKey{n.seq, n.phase, n.round}][n.peer];
          if (p.done >= 0) break;
          if (p.nparts == 0) p.nparts = n.nparts;
          if (n.nparts != p.nparts || n.part >= p.nparts) break;
          p.seen.insert(n.part);
          if (p.seen.size() == p.nparts) p.done = c.t1_ns;
          break;
        }
        case ControlOp::DoneAck:
          if (rx && n.seq < batches) done_ack[n.seq].emplace(n.peer, ci);
          break;
        default:
          break;
      }
    }
  }

  if (slot_ack.size() != endpoints) {
    tl.error = "not every endpoint acked its slot map";
    return tl;
  }
  std::size_t prev_call = 0;
  for (const auto& [ep, ci] : slot_ack) prev_call = std::max(prev_call, ci);

  std::size_t scan = 0;  // receive-call cursor for the linger boundary
  for (std::uint32_t b = 0; b < batches; ++b) {
    if (start[b] < 0 || done_ack[b].size() != endpoints) {
      tl.error = "batch " + std::to_string(b) +
                 " has no BatchStart or misses a DoneAck";
      return tl;
    }
    std::size_t end_call = 0;
    for (const auto& [ep, ci] : done_ack[b]) end_call = std::max(end_call, ci);
    BatchTiming bt;
    bt.begin = calls[prev_call].t1_ns;
    bt.start = start[b];
    bt.end = calls[end_call].t1_ns;

    // Last receive that returned before the BatchStart send.
    std::int64_t last_rx = bt.begin;
    for (scan = std::max(scan, prev_call); scan < calls.size(); ++scan) {
      const WireCall& c = calls[scan];
      if (c.t0_ns >= bt.start) break;
      if (c.kind == CallKind::kReceive && c.t1_ns <= bt.start)
        last_rx = std::max(last_rx, c.t1_ns);
    }
    bt.bounds.push_back({bt.begin, kLinger});
    bt.bounds.push_back({last_rx, kPipeline});
    bt.bounds.push_back({bt.start, kBurst});
    auto& steps = marks[b];
    std::sort(steps.begin(), steps.end());
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const auto& [t, key] = steps[i];
      const bool unicast = std::get<1>(key) == 1;
      bt.bounds.push_back({t, unicast ? kUnicast : kReport});
      const auto it = reports.find(key);
      std::int64_t last = -1;
      std::size_t complete = 0;
      if (it != reports.end())
        for (const auto& [ep, parts] : it->second)
          if (parts.done >= 0) {
            ++complete;
            last = std::max(last, parts.done);
          }
      if (complete != endpoints) continue;  // the round closed at its deadline
      Phase next = kDone;
      if (i + 1 < steps.size())
        next = std::get<1>(steps[i + 1].second) == 1 ? kUnicast : kBurst;
      bt.bounds.push_back({last, next});
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < bt.bounds.size(); ++i) {
      const std::int64_t from = bt.bounds[i].t;
      const std::int64_t to =
          i + 1 < bt.bounds.size() ? bt.bounds[i + 1].t : bt.end;
      if (to < from || from < bt.begin || to > bt.end) {
        tl.error = "phase boundaries of batch " + std::to_string(b) +
                   " are out of order";
        return tl;
      }
      const double ms = static_cast<double>(to - from) / 1e6;
      bt.phase_ms[bt.bounds[i].phase] += ms;
      sum += ms;
    }
    const double cycle = bt.cycle_ms();
    bt.tiling_error = cycle > 0 ? std::abs(sum - cycle) / cycle : 1.0;

    for (std::size_t ci = prev_call + 1; ci <= end_call; ++ci) {
      const WireCall& c = calls[ci];
      if (c.kind == CallKind::kReceive) continue;
      bt.bytes += static_cast<double>(c.bytes);
      bt.datagrams += c.datagrams;
      bt.send_ms += static_cast<double>(c.t1_ns - c.t0_ns) / 1e6;
    }
    bt.syscalls = static_cast<double>(calls[end_call].syscalls -
                                      calls[prev_call].syscalls);
    tl.batches.push_back(std::move(bt));
    prev_call = end_call;
  }
  return tl;
}

struct FleetSide {
  std::unique_ptr<w::SocketWire> socket;
  std::unique_ptr<ProbeWire> probe;
  w::FleetStats stats;
  std::int64_t end_ns = 0;
};

struct Session {
  w::DaemonStats daemon;
  std::vector<FleetSide> fleets;
  std::int64_t start_ns = 0;
  std::int64_t daemon_end_ns = 0;
  std::uint64_t server = 0;
  Timeline timeline;
  std::unique_ptr<w::SocketWire> daemon_socket;
  std::unique_ptr<ProbeWire> daemon_probe;
};

Session run_session(const WireSpec& spec, std::uint64_t key_seed,
                    std::uint64_t shape_seed, unsigned nfleets, bool trace) {
  Session s;
  s.start_ns = now_ns();
  s.daemon_socket = w::make_socket_wire(std::nullopt, kLoopback, 0);
  s.daemon_probe = std::make_unique<ProbeWire>(*s.daemon_socket, true);
  const w::Endpoint server = s.daemon_socket->local_endpoint();
  s.server = server.id;

  w::DaemonConfig dc;
  dc.key_seed = key_seed;
  dc.clients = spec.clients;
  dc.churn_pool = spec.churn_pool;
  dc.batches = spec.batches;
  dc.churn_joins = spec.churn;
  dc.churn_leaves = spec.churn;
  dc.max_multicast_rounds = spec.max_multicast_rounds;
  dc.round_wait_ms = 30000;
  dc.retry_ms = kRetryMs;
  w::KeyServerDaemon daemon(*s.daemon_probe, dc);

  s.fleets.resize(nfleets);
  for (FleetSide& f : s.fleets) {
    f.socket = w::make_socket_wire(std::nullopt, kLoopback, 0);
    f.probe = std::make_unique<ProbeWire>(*f.socket, trace);
  }
  std::vector<std::thread> threads;
  const std::uint32_t base = spec.clients / nfleets;
  const std::uint32_t extra = spec.clients % nfleets;
  std::uint32_t uid = 0;
  for (unsigned i = 0; i < nfleets; ++i) {
    const std::uint32_t count = base + (i < extra ? 1 : 0);
    threads.emplace_back([&, i, uid, count] {
      FleetSide& f = s.fleets[i];
      w::FleetConfig fc;
      fc.first_uid = uid;
      fc.count = count;
      fc.shaping.down_loss = spec.down_loss;
      fc.shaping.up_loss = spec.up_loss;
      fc.shaping.seed = shape_seed;
      fc.retry_ms = kRetryMs;
      fc.idle_timeout_ms = 15000;
      w::ClientFleet fleet(*f.probe, server, fc);
      f.stats = fleet.run();
      f.end_ns = now_ns();
    });
    uid += count;
  }
  std::exception_ptr failure;
  try {
    s.daemon = daemon.run();
  } catch (...) {
    failure = std::current_exception();
  }
  s.daemon_end_ns = now_ns();
  // Fleets end on Fin, or on their idle timeout when the daemon failed.
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
  s.timeline = analyse_daemon(*s.daemon_probe, nfleets, spec.batches);
  return s;
}

// Time a fleet spent outside receive() within [from, to).
double busy_ms(const ProbeWire& p, std::int64_t from, std::int64_t to) {
  std::int64_t inside = 0;
  for (const WireCall& c : p.calls()) {
    if (c.kind != CallKind::kReceive) continue;
    const std::int64_t a = std::max(from, c.t0_ns);
    const std::int64_t b = std::min(to, c.t1_ns);
    if (b > a) inside += b - a;
  }
  return static_cast<double>(to - from - inside) / 1e6;
}

// Per step: first RoundMark receipt -> first Report part sent.
void report_turnarounds(const ProbeWire& p, std::vector<double>& out) {
  std::map<StepKey, std::int64_t> mark_rx;
  std::set<StepKey> answered;
  for (const WireCall& c : p.calls())
    for (std::uint32_t k = 0; k < c.notes; ++k) {
      const ControlNote& n = p.notes()[c.first_note + k];
      const StepKey key{n.seq, n.phase, n.round};
      if (c.kind == CallKind::kReceive && n.op == ControlOp::RoundMark) {
        mark_rx.emplace(key, c.t1_ns);
      } else if (c.kind != CallKind::kReceive &&
                 (n.op == ControlOp::Report || n.op == ControlOp::ReportV2) &&
                 answered.insert(key).second) {
        const auto it = mark_rx.find(key);
        if (it != mark_rx.end())
          out.push_back(static_cast<double>(c.t0_ns - it->second) / 1e6);
      }
    }
}

std::int64_t first_fin_rx(const ProbeWire& p) {
  for (const WireCall& c : p.calls())
    if (c.kind == CallKind::kReceive)
      for (std::uint32_t k = 0; k < c.notes; ++k)
        if (p.notes()[c.first_note + k].op == ControlOp::Fin) return c.t1_ns;
  return -1;
}

const char* call_span(CallKind k, bool fleet) {
  switch (k) {
    case CallKind::kSend:
      return fleet ? "fleet.wire.send" : "wire.send";
    case CallKind::kSendFrames:
      return fleet ? "fleet.wire.send_frames" : "wire.send_frames";
    case CallKind::kReceive:
      break;
  }
  return fleet ? "fleet.wire.receive" : "wire.receive";
}

// Appends the session's spans: set-up, every batch with its phases and the
// daemon's wire calls inside them, teardown, and each fleet's run.
void add_spans(const Session& s, std::int64_t batch_base, TraceLog& log) {
  struct Interval {
    std::int64_t from, to, span;
  };
  std::vector<Interval> iv;
  const auto& batches = s.timeline.batches;
  if (batches.empty()) return;
  const std::int64_t first = batches.front().begin;
  iv.push_back({s.start_ns, first,
                log.add("session.setup", s.start_ns, first, -1, -1)});
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const BatchTiming& bt = batches[b];
    const std::int64_t id = batch_base + static_cast<std::int64_t>(b);
    const std::int64_t root = log.add("batch", bt.begin, bt.end, -1, id);
    for (std::size_t i = 0; i < bt.bounds.size(); ++i) {
      const std::int64_t to =
          i + 1 < bt.bounds.size() ? bt.bounds[i + 1].t : bt.end;
      if (to == bt.bounds[i].t) continue;
      iv.push_back({bt.bounds[i].t, to,
                    log.add(kPhaseSpan[bt.bounds[i].phase], bt.bounds[i].t,
                            to, root, id)});
    }
  }
  const std::int64_t last = batches.back().end;
  iv.push_back({last, s.daemon_end_ns,
                log.add("session.teardown", last, s.daemon_end_ns, -1, -1)});
  std::size_t k = 0;
  for (const WireCall& c : s.daemon_probe->calls()) {
    while (k < iv.size() && c.t0_ns >= iv[k].to) ++k;
    if (k == iv.size()) break;
    if (c.t0_ns < iv[k].from) continue;
    const auto parent = static_cast<std::size_t>(iv[k].span);
    log.add(call_span(c.kind, false), c.t0_ns, std::min(c.t1_ns, iv[k].to),
            iv[k].span, log.spans()[parent].batch);
  }
  for (const FleetSide& f : s.fleets) {
    const auto& calls = f.probe->calls();
    if (calls.empty()) continue;
    const std::int64_t root =
        log.add("fleet.run", calls.front().t0_ns, f.end_ns, -1, -1);
    for (const WireCall& c : calls)
      log.add(call_span(c.kind, true), c.t0_ns, c.t1_ns, root, -1);
  }
}

}  // namespace

bool is_wire_workload(const std::string& name) {
  return spec_for(name).has_value();
}

RunResult run_wire_workload(const RunOptions& opt) {
  RunResult r;
  const WireSpec spec = *spec_for(opt.workload);
  const bool lossy = spec.down_loss > 0.0 || spec.up_loss > 0.0;
  const unsigned nfleets = std::clamp(opt.threads, 2u, 4u) - 1;
  const std::uint64_t key_seed = w::mix64(opt.seed ^ 0x6B657973ull);
  const std::uint64_t shape_seed =
      lossy ? kLossyShapeSeed : w::mix64(opt.seed ^ 0x73686170ull);

  std::vector<double> cycles, delivers, setups, kbytes, rec_p50, rec_p99;
  std::vector<double> phase[kPhases], send_ms, tx, syscalls, teardown;
  std::vector<double> busy, turnaround, linger;
  double send_total_ms = 0.0, tx_total = 0.0, tiling_worst = 0.0;
  std::uint64_t batches = 0, rounds = 0, waves = 0, retransmits = 0,
                parities = 0, enc_packets = 0, frames_rx = 0, shaped = 0;
  std::vector<std::uint64_t> failed_per_session;

  const std::int64_t t_begin = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - t_begin) / 1e9;
  };
  unsigned sessions = 0;
  while (sessions == 0 || elapsed_s() < opt.seconds) {
    const Session s =
        run_session(spec, key_seed, shape_seed, nfleets, opt.trace);
    ++sessions;
    const w::DaemonStats& d = s.daemon;
    const std::string tag = "session " + std::to_string(sessions) + ": ";
    const std::uint64_t client_batches =
        static_cast<std::uint64_t>(spec.clients) * spec.batches;

    // --- independent correctness checks ---
    r.check(d.completed && d.batches_run == spec.batches,
            tag + "daemon did not run every batch");
    r.check(d.endpoints == nfleets && d.endpoints_dropped == 0,
            tag + "an endpoint was missing or dropped");
    r.check(d.recovered + d.gave_up + d.gave_up_dead == client_batches,
            tag + "daemon ledger does not cover clients x batches");
    std::uint64_t f_recovered = 0, f_gave_up = 0;
    for (std::size_t i = 0; i < s.fleets.size(); ++i) {
      const FleetSide& f = s.fleets[i];
      r.check(f.stats.finished, tag + "a fleet never saw Fin");
      r.check(f.stats.batches == spec.batches,
              tag + "a fleet finalized the wrong number of batches");
      f_recovered += f.stats.recovered;
      f_gave_up += f.stats.unrecovered;
      // Every data frame the daemon handed to this fleet's socket arrived.
      const auto& sent = s.daemon_probe->data_sent_to();
      const auto& got = f.probe->data_received_from();
      const auto si = sent.find(f.socket->local_endpoint().id);
      const auto gi = got.find(s.server);
      r.check(si != sent.end() && gi != got.end() && si->second == gi->second,
              tag + "fleet " + std::to_string(i) +
                  " did not receive every data frame sent to it");
      frames_rx += f.stats.data_frames;
      shaped += f.stats.shaped_off;
    }
    // Per-batch recovery quantiles over all fleets' clients. recovery_ms
    // lists each batch's recovered clients in batch order, and the fleet's
    // DoneAcks say how many belong to each batch.
    std::vector<std::vector<double>> by_batch(spec.batches);
    for (const FleetSide& f : s.fleets) {
      std::size_t k = 0;
      for (const auto& [seq, n] : f.probe->done_acks_sent()) {
        if (seq >= spec.batches || k + n > f.stats.recovery_ms.size()) break;
        by_batch[seq].insert(by_batch[seq].end(),
                             f.stats.recovery_ms.begin() + k,
                             f.stats.recovery_ms.begin() + k + n);
        k += n;
      }
      r.check(k == f.stats.recovery_ms.size(),
              tag + "fleet DoneAcks do not match its recovery samples");
    }
    for (std::uint32_t b = 1; b < spec.batches; ++b) {  // batch 0: warm-up
      rec_p50.push_back(quantile(by_batch[b], 0.50));
      rec_p99.push_back(quantile(by_batch[b], 0.99));
    }
    r.check(f_recovered + f_gave_up == client_batches,
            tag + "fleet ledger does not cover clients x batches");
    r.check(f_recovered == d.recovered && f_gave_up == d.gave_up,
            tag + "daemon and fleet ledgers disagree");
    if (!lossy) {
      r.check(d.rounds == spec.batches && d.unicast_waves == 0,
              tag + "a zero-loss batch needed more than round 1");
      r.check(d.gave_up + d.gave_up_dead == 0,
              tag + "a zero-loss client-batch was abandoned");
    }
    r.check(s.timeline.error.empty(), tag + s.timeline.error);

    r.attempted += client_batches;
    r.failed += d.gave_up + d.gave_up_dead;
    failed_per_session.push_back(d.gave_up + d.gave_up_dead);

    // --- timings ---
    const auto& tl = s.timeline.batches;
    if (!tl.empty()) {
      setups.push_back(static_cast<double>(tl.front().start - s.start_ns) /
                       1e9);
      teardown.push_back(static_cast<double>(s.daemon_end_ns - tl.back().end) /
                         1e6);
    }
    for (std::size_t b = 0; b < tl.size(); ++b) {
      const BatchTiming& bt = tl[b];
      tiling_worst = std::max(tiling_worst, bt.tiling_error);
      if (b == 0) continue;  // the first batch after set-up is a warm-up
      cycles.push_back(bt.cycle_ms());
      delivers.push_back(bt.deliver_ms());
      kbytes.push_back(bt.bytes / 1000.0);
      for (int p = 0; p < kPhases; ++p) phase[p].push_back(bt.phase_ms[p]);
      send_ms.push_back(bt.send_ms);
      tx.push_back(bt.datagrams);
      syscalls.push_back(bt.syscalls);
      send_total_ms += bt.send_ms;
      tx_total += bt.datagrams;
      if (opt.trace)
        for (const FleetSide& f : s.fleets)
          busy.push_back(busy_ms(*f.probe, bt.start, bt.end));
    }
    batches += d.batches_run;
    rounds += d.rounds;
    waves += d.unicast_waves;
    retransmits += d.control_retransmits;
    parities += d.proactive_parities + d.reactive_parities;
    enc_packets += d.enc_packets;
    if (opt.trace) {
      for (const FleetSide& f : s.fleets) {
        report_turnarounds(*f.probe, turnaround);
        const std::int64_t fin = first_fin_rx(*f.probe);
        if (fin >= 0)
          linger.push_back(static_cast<double>(f.end_ns - fin) / 1e6);
      }
      add_spans(s, static_cast<std::int64_t>(batches - d.batches_run), r.trace);
    }
  }

  if (lossy) {
    const bool same = std::all_of(
        failed_per_session.begin(), failed_per_session.end(),
        [&](std::uint64_t f) { return f == failed_per_session.front(); });
    if (!same)
      r.notes.push_back(
          "abandoned client-batches differ between sessions of this run");
  }
  r.check(!cycles.empty(), "no measured batch (run too short)");
  if (opt.trace)
    r.check(tiling_worst <= 0.05,
            "daemon phase spans do not tile a batch cycle within 5%");
  r.notes.push_back("sessions=" + std::to_string(sessions) +
                    " batches=" + std::to_string(batches) +
                    " measured=" + std::to_string(cycles.size()) +
                    " fleets=" + std::to_string(nfleets));

  const double nb = batches == 0 ? 1.0 : static_cast<double>(batches);
  r.end_to_end = {
      {"batch_cycle_ms", median(cycles), "ms"},
      {"deliver_ms", median(delivers), "ms"},
      {"recovery_p50_ms", median(rec_p50), "ms"},
      {"recovery_p99_ms", median(rec_p99), "ms"},
      {"setup_s", median(setups), "s"},
      {"server_kb_per_batch", median(kbytes), "KB"},
  };
  r.per_layer = {
      {"daemon.ack_linger_ms", mean(phase[kLinger]), "ms"},
      {"daemon.pipeline_ms", mean(phase[kPipeline]), "ms"},
      {"daemon.burst_ms", mean(phase[kBurst]), "ms"},
      {"daemon.report_ms", mean(phase[kReport]), "ms"},
      {"daemon.unicast_ms", mean(phase[kUnicast]), "ms"},
      {"daemon.done_ms", mean(phase[kDone]), "ms"},
      {"daemon.teardown_ms", mean(teardown), "ms"},
      {"daemon.rounds_per_batch", static_cast<double>(rounds) / nb, "count"},
      {"daemon.waves_per_batch", static_cast<double>(waves) / nb, "count"},
      {"daemon.control_retransmits", static_cast<double>(retransmits) / nb,
       "count"},
      {"daemon.cycle_tiling_error", tiling_worst, "ratio"},
      {"wire.send_ms", mean(send_ms), "ms"},
      {"wire.send_us_per_datagram",
       tx_total > 0 ? send_total_ms * 1e3 / tx_total : 0.0, "us"},
      {"wire.tx_datagrams", mean(tx), "count"},
      {"wire.syscalls_per_batch", mean(syscalls), "count"},
      {"fleet.busy_ms", mean(busy), "ms"},
      {"fleet.report_turnaround_ms", mean(turnaround), "ms"},
      {"fleet.frames_rx", static_cast<double>(frames_rx) / nb, "count"},
      {"fleet.shaped_off", static_cast<double>(shaped) / nb, "count"},
      {"fleet.linger_ms", mean(linger), "ms"},
      {"transport.parity_frames", static_cast<double>(parities) / nb, "count"},
      {"packet.enc_packets", static_cast<double>(enc_packets) / nb, "count"},
      {"parallel.workers", 1.0, "count"},  // the daemon's serial pipeline
  };
  return r;
}

}  // namespace perfbench
