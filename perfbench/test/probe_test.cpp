// ProbeWire must be transparent: a daemon+fleet session over LoopbackWire
// gives identical ledgers and delivery counters with and without a probe
// around every socket, and the probe's own counts agree with the
// program's. Runs a shaped-loss session so NACKs, reactive parities and
// unicast waves cross the probe too.
//
//   perfbench_probe_test   (exit 0 = transparent)
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "probe.h"
#include "wire/daemon.h"
#include "wire/fleet.h"
#include "wire/loopback.h"

namespace {

namespace w = rekey::wire;

constexpr unsigned kFleets = 2;

struct Outcome {
  w::DaemonStats daemon;
  std::vector<w::FleetStats> fleets;
  std::vector<std::uint64_t> probe_data_sent;  // per fleet endpoint
  std::vector<std::uint64_t> probe_data_rx;    // per fleet, from the daemon
  std::uint64_t probe_data_total = 0;
};

Outcome run(bool probed, double down_loss, double up_loss) {
  w::LoopbackHub hub;
  auto daemon_wire = hub.attach();
  const w::Endpoint server = daemon_wire->endpoint();
  std::unique_ptr<perfbench::ProbeWire> daemon_probe;
  w::WireTransport* dw = daemon_wire.get();
  if (probed) {
    daemon_probe = std::make_unique<perfbench::ProbeWire>(*daemon_wire, true);
    dw = daemon_probe.get();
  }
  w::DaemonConfig dc;
  dc.clients = 512;
  dc.churn_pool = 128;
  dc.batches = 3;
  dc.churn_joins = 64;
  dc.churn_leaves = 64;
  dc.max_multicast_rounds = 2;
  dc.protocol.packet_size = 300;
  dc.round_wait_ms = 20000;
  dc.retry_ms = 20;
  w::KeyServerDaemon daemon(*dw, dc);

  std::vector<std::unique_ptr<w::LoopbackWire>> wires;
  std::vector<std::unique_ptr<perfbench::ProbeWire>> probes;
  for (unsigned i = 0; i < kFleets; ++i) {
    wires.push_back(hub.attach());
    if (probed)
      probes.push_back(std::make_unique<perfbench::ProbeWire>(*wires[i], true));
  }
  Outcome out;
  out.fleets.resize(kFleets);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kFleets; ++i) {
    threads.emplace_back([&, i] {
      w::FleetConfig fc;
      fc.first_uid = i * (dc.clients / kFleets);
      fc.count = dc.clients / kFleets;
      fc.shaping.down_loss = down_loss;
      fc.shaping.up_loss = up_loss;
      fc.shaping.seed = 0x5751;
      fc.retry_ms = 20;
      w::WireTransport& fw =
          probed ? static_cast<w::WireTransport&>(*probes[i]) : *wires[i];
      w::ClientFleet fleet(fw, server, fc);
      out.fleets[i] = fleet.run();
    });
  }
  out.daemon = daemon.run();
  for (std::thread& t : threads) t.join();
  if (probed) {
    for (unsigned i = 0; i < kFleets; ++i) {
      const auto& sent = daemon_probe->data_sent_to();
      const auto it = sent.find(wires[i]->endpoint().id);
      out.probe_data_sent.push_back(it == sent.end() ? 0 : it->second);
      const auto& rx = probes[i]->data_received_from();
      const auto jt = rx.find(server.id);
      out.probe_data_rx.push_back(jt == rx.end() ? 0 : jt->second);
    }
    for (const auto& [ep, n] : daemon_probe->data_sent_to())
      out.probe_data_total += n;
  }
  return out;
}

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what);
}

#define SAME(field) \
  expect(a.daemon.field == b.daemon.field, "daemon " #field " differs")
#define SAME_FLEET(field) \
  expect(fa.field == fb.field, "fleet " #field " differs")

void compare(const Outcome& a, const Outcome& b) {
  SAME(endpoints);
  SAME(batches_run);
  SAME(enc_packets);
  SAME(slots);
  SAME(data_frames);
  SAME(data_bytes);
  SAME(proactive_parities);
  SAME(reactive_parities);
  SAME(rounds);
  SAME(unicast_waves);
  SAME(usr_frags);
  SAME(nack_users);
  SAME(recovered);
  SAME(via_usr);
  SAME(gave_up);
  SAME(gave_up_dead);
  SAME(endpoints_dropped);
  SAME(completed);
  for (unsigned i = 0; i < kFleets; ++i) {
    const w::FleetStats& fa = a.fleets[i];
    const w::FleetStats& fb = b.fleets[i];
    SAME_FLEET(batches);
    SAME_FLEET(recovered);
    SAME_FLEET(via_usr);
    SAME_FLEET(unrecovered);
    SAME_FLEET(data_frames);
    SAME_FLEET(shaped_off);
    SAME_FLEET(nacks_suppressed);
    SAME_FLEET(finished);
  }
}

}  // namespace

int main() {
  const double losses[][2] = {{0.0, 0.0}, {0.15, 0.05}};
  for (const auto& loss : losses) {
    const Outcome bare = run(false, loss[0], loss[1]);
    const Outcome probed = run(true, loss[0], loss[1]);
    compare(bare, probed);
    expect(probed.daemon.completed, "probed session did not complete");
    expect(probed.probe_data_total == probed.daemon.data_frames,
           "probe data-frame count differs from the daemon's");
    for (unsigned i = 0; i < kFleets; ++i)
      expect(probed.probe_data_sent[i] == probed.probe_data_rx[i],
             "a fleet's probe saw fewer data frames than were sent to it");
    std::printf("loss %.2f/%.2f: recovered=%llu gave_up=%llu rounds=%llu "
                "waves=%llu data_frames=%llu\n",
                loss[0], loss[1],
                static_cast<unsigned long long>(probed.daemon.recovered),
                static_cast<unsigned long long>(probed.daemon.gave_up),
                static_cast<unsigned long long>(probed.daemon.rounds),
                static_cast<unsigned long long>(probed.daemon.unicast_waves),
                static_cast<unsigned long long>(probed.daemon.data_frames));
  }
  if (failures == 0) std::printf("probe transparent\n");
  return failures == 0 ? 0 : 1;
}
