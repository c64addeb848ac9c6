// pipeline-1m: the key server's batch pipeline without a wire.
//
// One persistent tree of 2^20 members. Each batch drops N/16 members drawn
// uniformly at random and adds as many fresh ones, then runs the sharded
// stages back to back, each timed from here: Marker::run_sharded,
// generate_rekey_payload_sharded, sharded assign_keys, and a
// ServerTransport walking its round-1 wires.
//
// Checks, outside the timed stages: tracked members keep a
// tree::UserKeyView across batches and must derive the tree's new group
// key from the one ENC packet (parsed from the round-1 wire) that covers
// their slot — UKA's single-packet property; sampled departed members
// must not derive it from all of the batch's encryptions.
#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "common/parallel.h"
#include "common/rng.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"
#include "keytree/shard_pipeline.h"
#include "keytree/user_view.h"
#include "packet/assign.h"
#include "probe.h"
#include "transport/server.h"
#include "wire/fleet.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rekey::tree::MemberId;
using rekey::tree::NodeId;

constexpr unsigned kDegree = 4;
constexpr std::size_t kMembers = 1u << 20;
constexpr std::size_t kChurn = kMembers / 16;  // joins == leaves per batch
constexpr unsigned kShards = 4;
constexpr int kSetups = 3;             // tree populations timed per run
constexpr std::size_t kTracked = 256;  // members whose views persist
constexpr std::size_t kDeparted = 16;  // leavers sampled per batch

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

rekey::tree::UserKeyView view_of(const rekey::tree::KeyTree& t, MemberId m) {
  const NodeId slot = t.slot_of(m);
  const auto keys = t.keys_for_slot(slot);
  return rekey::tree::UserKeyView(m, slot, kDegree, keys);
}

}  // namespace

bool is_pipeline_workload(const std::string& name) {
  return name == "pipeline-1m";
}

RunResult run_pipeline_workload(const RunOptions& opt) {
  namespace tree = rekey::tree;
  namespace packet = rekey::packet;
  RunResult r;
  rekey::Rng rng(rekey::wire::mix64(opt.seed ^ 0x706970656C696E65ull));
  const std::uint64_t key_seed = rng.next_u64();

  std::vector<double> setups;
  std::unique_ptr<tree::KeyTree> kt;
  for (int i = 0; i < kSetups; ++i) {
    kt.reset();
    const std::int64_t t0 = now_ns();
    kt = std::make_unique<tree::KeyTree>(kDegree, key_seed);
    kt->populate(kMembers);
    const std::int64_t t1 = now_ns();
    setups.push_back(ms_between(t0, t1) / 1e3);
    if (opt.trace) r.trace.add("session.setup", t0, t1, -1, -1);
  }

  const unsigned workers = std::clamp(opt.threads, 1u, 4u);
  rekey::ThreadPool pool(workers, 0);
  rekey::TaskRunner runner(&pool);
  const tree::ShardPlan plan = tree::ShardPlan::make(kDegree, kShards);
  rekey::transport::ProtocolConfig protocol;
  protocol.wide_slots = true;  // 2^20 members outgrow 16-bit slot ids
  const rekey::transport::RhoController rho(protocol, key_seed ^ 0x5EED);

  std::vector<MemberId> members(kMembers);
  for (std::size_t m = 0; m < kMembers; ++m)
    members[m] = static_cast<MemberId>(m);
  MemberId next_member = static_cast<MemberId>(kMembers);
  std::map<MemberId, tree::UserKeyView> tracked;

  std::vector<double> cycle, mark, payload_ms, assign, server_ms, kbytes;
  std::vector<double> ns_per_enc, encs, packets, dup, parity, frames;
  std::vector<double> rec_p50, rec_p99;
  const std::int64_t t_begin = now_ns();
  std::uint32_t batch = 0;
  tree::RekeyPayload payload;
  while (batch == 0 || ms_between(t_begin, now_ns()) / 1e3 < opt.seconds) {
    const auto msg_id = static_cast<std::uint8_t>(batch % 64);
    // Refill the tracked set from current members (views as registered).
    while (tracked.size() < kTracked) {
      const MemberId m = members[rng.next_u64() % members.size()];
      if (!tracked.count(m)) tracked.emplace(m, view_of(*kt, m));
    }
    std::vector<MemberId> leaves;
    leaves.reserve(kChurn);
    std::vector<bool> leaving(members.size(), false);
    for (const auto i : rng.sample_without_replacement(members.size(), kChurn)) {
      leaves.push_back(members[i]);
      leaving[i] = true;
    }
    std::vector<MemberId> joins(kChurn);
    for (MemberId& j : joins) j = next_member++;
    std::vector<tree::UserKeyView> departed;
    for (std::size_t i = 0; i < kDeparted; ++i)
      departed.push_back(view_of(*kt, leaves[i]));
    for (const MemberId m : leaves) {
      const auto it = tracked.find(m);
      if (it == tracked.end()) continue;
      departed.push_back(it->second);
      tracked.erase(it);
    }

    // --- timed stage calls ---
    const std::int64_t t0 = now_ns();
    tree::Marker marker(*kt);
    const tree::BatchUpdate update =
        marker.run_sharded(joins, leaves, plan, runner);
    const std::int64_t t1 = now_ns();
    tree::generate_rekey_payload_sharded(*kt, update, msg_id, payload, plan,
                                         runner);
    const std::int64_t t2 = now_ns();
    packet::Assignment assignment =
        packet::assign_keys(payload, protocol.packet_size, plan, runner, true);
    const std::int64_t t3 = now_ns();
    const std::size_t enc_packets = assignment.packets.size();
    const double dup_ratio =
        assignment.unique_encryptions == 0
            ? 0.0
            : static_cast<double>(assignment.total_entries) /
                  static_cast<double>(assignment.unique_encryptions);
    std::vector<const rekey::Bytes*> wires;
    std::vector<std::int64_t> emitted;
    wires.reserve(2 * enc_packets);
    emitted.reserve(2 * enc_packets);
    std::deque<rekey::Bytes> fresh;
    std::size_t round_bytes = 0;
    {
      rekey::transport::ServerTransport server(
          protocol, payload, std::move(assignment), rho.proactive_parities(),
          msg_id);
      server.for_each_round_wire(
          1,
          [&](const rekey::Bytes& w) {
            wires.push_back(&w);
            emitted.push_back(now_ns());
            round_bytes += w.size() + 1;
          },
          [&](rekey::Bytes&& w) {
            round_bytes += w.size() + 1;
            fresh.push_back(std::move(w));
          });
      const std::int64_t t4 = now_ns();

      // --- checks (untimed) ---
      const std::string tag = "batch " + std::to_string(batch) + ": ";
      struct Range {
        NodeId from, to;
        std::size_t wire;
      };
      std::vector<Range> ranges;
      for (std::size_t i = 0; i < wires.size(); ++i) {
        const auto p = packet::EncPacket::parse(*wires[i], true);
        if (p && !p->duplicate) ranges.push_back({p->frm_id, p->to_id, i});
      }
      r.check(ranges.size() == enc_packets,
              tag + "round-1 wires do not carry every ENC packet");
      std::sort(ranges.begin(), ranges.end(),
                [](const Range& a, const Range& b) { return a.from < b.from; });
      const rekey::crypto::SymmetricKey group = kt->group_key();
      std::vector<double> batch_recovery;
      for (auto& [m, view] : tracked) {
        const NodeId slot = kt->slot_of(m);
        const auto it = std::upper_bound(
            ranges.begin(), ranges.end(), slot,
            [](NodeId s, const Range& rg) { return s < rg.from; });
        if (it == ranges.begin() || std::prev(it)->to < slot) {
          r.check(false, tag + "no ENC packet covers member " +
                             std::to_string(m));
          continue;
        }
        const Range& rg = *std::prev(it);
        const std::int64_t d0 = now_ns();
        const auto p = packet::EncPacket::parse(*wires[rg.wire], true);
        std::vector<tree::Encryption> encs_of;
        encs_of.reserve(p->entries.size());
        for (const packet::EncEntry& e : p->entries)
          encs_of.push_back(packet::to_tree_encryption(e, kDegree));
        view.update_slot(p->max_kid);
        view.apply(msg_id, p->max_kid, encs_of);
        const std::int64_t d1 = now_ns();
        const auto key = view.group_key();
        r.check(key.has_value() && *key == group,
                tag + "member " + std::to_string(m) +
                    " did not derive the new group key from its ENC packet");
        r.check(view.id() == slot,
                tag + "member " + std::to_string(m) + " lost track of its slot");
        batch_recovery.push_back(ms_between(t0, emitted[rg.wire]) +
                                 ms_between(d0, d1));
      }
      for (tree::UserKeyView& view : departed) {
        view.apply(msg_id, payload.max_kid, payload.encryptions);
        const auto key = view.group_key();
        r.check(!key.has_value() || *key != group,
                tag + "departed member " + std::to_string(view.member()) +
                    " derived the new group key");
      }
      r.check(payload.encryptions.size() > 0 && dup_ratio >= 1.0,
              tag + "empty payload or impossible duplication");

      if (batch > 0) {  // the first batch after set-up is a warm-up
        cycle.push_back(ms_between(t0, t4));
        mark.push_back(ms_between(t0, t1));
        payload_ms.push_back(ms_between(t1, t2));
        assign.push_back(ms_between(t2, t3));
        server_ms.push_back(ms_between(t3, t4));
        kbytes.push_back(static_cast<double>(round_bytes) / 1000.0);
        rec_p50.push_back(quantile(batch_recovery, 0.50));
        rec_p99.push_back(quantile(batch_recovery, 0.99));
      }
      encs.push_back(static_cast<double>(payload.encryptions.size()));
      ns_per_enc.push_back(ms_between(t1, t2) * 1e6 /
                           static_cast<double>(payload.encryptions.size()));
      packets.push_back(static_cast<double>(enc_packets));
      dup.push_back(dup_ratio);
      parity.push_back(static_cast<double>(fresh.size()));
      frames.push_back(static_cast<double>(wires.size() + fresh.size()));
      if (opt.trace) {
        const std::int64_t root = r.trace.add("batch", t0, t4, -1, batch);
        r.trace.add("keytree.mark", t0, t1, root, batch);
        r.trace.add("keytree.payload", t1, t2, root, batch);
        r.trace.add("packet.assign", t2, t3, root, batch);
        r.trace.add("transport.server", t3, t4, root, batch);
      }
    }

    // Membership after the batch: survivors in order, then the joins.
    std::vector<MemberId> next;
    next.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i)
      if (!leaving[i]) next.push_back(members[i]);
    next.insert(next.end(), joins.begin(), joins.end());
    members.swap(next);
    ++batch;
    ++r.attempted;
  }
  r.check(!cycle.empty(), "no measured batch (run too short)");
  r.notes.push_back("batches=" + std::to_string(batch) +
                    " measured=" + std::to_string(cycle.size()) +
                    " workers=" + std::to_string(pool.size()) +
                    " shards=" + std::to_string(kShards));

  r.end_to_end = {
      {"batch_cycle_ms", median(cycle), "ms"},
      {"deliver_ms", median(server_ms), "ms"},
      {"recovery_p50_ms", median(rec_p50), "ms"},
      {"recovery_p99_ms", median(rec_p99), "ms"},
      {"setup_s", median(setups), "s"},
      {"server_kb_per_batch", median(kbytes), "KB"},
  };
  r.per_layer = {
      {"keytree.mark_ms", mean(mark), "ms"},
      {"keytree.payload_ms", mean(payload_ms), "ms"},
      {"keytree.payload_ns_per_enc", mean(ns_per_enc), "ns"},
      {"keytree.encryptions", mean(encs), "count"},
      {"packet.assign_ms", mean(assign), "ms"},
      {"packet.enc_packets", mean(packets), "count"},
      {"packet.dup_ratio", mean(dup), "ratio"},
      {"transport.server_ms", mean(server_ms), "ms"},
      {"transport.parity_frames", mean(parity), "count"},
      {"wire.tx_datagrams", mean(frames), "count"},
      {"parallel.workers", static_cast<double>(pool.size()), "count"},
  };
  return r;
}

}  // namespace perfbench
