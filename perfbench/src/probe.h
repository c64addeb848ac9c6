// ProbeWire — a benchmark-owned WireTransport decorator.
//
// It forwards every call unchanged to the wrapped transport and watches
// what crosses it: per-destination data-frame counts, bytes handed to the
// socket, and (when recording) one WireCall per send / send_frames /
// receive with its monotonic start and end. Control frames are decoded
// with the public wire/control.h parsers into ControlNotes, so the
// benchmark can stamp daemon and fleet phases (BatchStart, RoundMark,
// Report, BatchDone, DoneAck, Fin) without any hook inside the program.
//
// A probe belongs to the one thread that drives its socket; nothing in it
// is synchronized.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "wire/control.h"
#include "wire/wire.h"

namespace perfbench {

// steady_clock in nanoseconds (one clock for every thread of a run).
std::int64_t now_ns();

enum class CallKind : std::uint8_t { kSend, kSendFrames, kReceive };

// A control frame of interest that crossed the probed socket.
struct ControlNote {
  rekey::wire::ControlOp op{};
  std::uint64_t peer = 0;  // destination of a send, source of a receipt
  std::uint32_t seq = 0;   // batch_seq, where the frame carries one
  std::uint16_t round = 0;
  std::uint8_t phase = 0;
  std::uint32_t part = 0;
  std::uint32_t nparts = 0;
};

struct WireCall {
  CallKind kind = CallKind::kSend;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint32_t datagrams = 0;   // frames sent, or datagrams received
  std::uint64_t bytes = 0;       // including the channel byte
  std::uint64_t syscalls = 0;    // wire::wire_syscalls() at t1
  std::uint32_t first_note = 0;  // notes()[first_note, +notes)
  std::uint32_t notes = 0;
};

class ProbeWire final : public rekey::wire::WireTransport {
 public:
  // `record` keeps the per-call log and control notes; without it the
  // probe only counts (no clock reads, no parsing).
  ProbeWire(rekey::wire::WireTransport& inner, bool record);

  bool send(rekey::wire::Endpoint to, std::uint8_t channel,
            std::span<const std::uint8_t> payload) override;
  std::size_t send_frames(rekey::wire::Endpoint to, std::uint8_t channel,
                          std::span<const rekey::Bytes* const> frames) override;
  std::size_t receive(std::vector<rekey::wire::Datagram>& out,
                      int timeout_ms) override;
  std::size_t max_payload() const override { return inner_.max_payload(); }

  const std::vector<WireCall>& calls() const { return calls_; }
  const std::vector<ControlNote>& notes() const { return notes_; }
  // Data-channel datagrams the transport accepted, per destination id.
  const std::map<std::uint64_t, std::uint64_t>& data_sent_to() const {
    return data_sent_to_;
  }
  // Data-channel datagrams received, per source id.
  const std::map<std::uint64_t, std::uint64_t>& data_received_from() const {
    return data_received_from_;
  }
  // (batch_seq, recovered) of every first DoneAck sent for a batch; kept
  // even when not recording, so recoveries can be told apart by batch.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& done_acks_sent()
      const {
    return done_acks_sent_;
  }

 private:
  void note(std::uint64_t peer, std::uint8_t channel,
            std::span<const std::uint8_t> payload);
  void note_done_ack(std::uint8_t channel,
                     std::span<const std::uint8_t> payload);
  void begin_call(CallKind kind);
  void end_call();

  rekey::wire::WireTransport& inner_;
  const bool record_;
  std::vector<WireCall> calls_;
  std::vector<ControlNote> notes_;
  WireCall open_;
  std::map<std::uint64_t, std::uint64_t> data_sent_to_;
  std::map<std::uint64_t, std::uint64_t> data_received_from_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> done_acks_sent_;
};

}  // namespace perfbench
