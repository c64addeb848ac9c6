#include "probe.h"

#include <chrono>

#include "wire/backend.h"

namespace perfbench {

using rekey::wire::ControlOp;
using rekey::wire::kChanControl;
using rekey::wire::kChanData;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProbeWire::ProbeWire(rekey::wire::WireTransport& inner, bool record)
    : inner_(inner), record_(record) {}

void ProbeWire::begin_call(CallKind kind) {
  if (!record_) return;
  open_ = WireCall{};
  open_.kind = kind;
  open_.first_note = static_cast<std::uint32_t>(notes_.size());
  open_.t0_ns = now_ns();
}

void ProbeWire::end_call() {
  if (!record_) return;
  open_.t1_ns = now_ns();
  open_.syscalls = rekey::wire::wire_syscalls().value();
  open_.notes = static_cast<std::uint32_t>(notes_.size()) - open_.first_note;
  calls_.push_back(open_);
}

void ProbeWire::note(std::uint64_t peer, std::uint8_t channel,
                     std::span<const std::uint8_t> p) {
  if (!record_ || channel != kChanControl) return;
  namespace w = rekey::wire;
  const auto op = w::peek_op(p);
  if (!op) return;
  ControlNote n;
  n.op = *op;
  n.peer = peer;
  switch (*op) {
    case ControlOp::BatchStart: {
      const auto f = w::parse_batch_start(p);
      if (!f) return;
      n.seq = f->batch_seq;
      break;
    }
    case ControlOp::RoundMark: {
      const auto f = w::parse_round_mark(p);
      if (!f) return;
      n.seq = f->batch_seq;
      n.round = f->round;
      n.phase = f->phase;
      break;
    }
    case ControlOp::Report: {
      const auto f = w::parse_report(p);
      if (!f) return;
      n.seq = f->batch_seq;
      n.round = f->round;
      n.phase = f->phase;
      n.part = f->part;
      n.nparts = f->nparts;
      break;
    }
    case ControlOp::ReportV2: {
      const auto f = w::parse_report_v2(p);
      if (!f) return;
      n.seq = f->batch_seq;
      n.round = f->round;
      n.phase = f->phase;
      n.part = f->part;
      n.nparts = f->nparts;
      break;
    }
    case ControlOp::BatchDone: {
      const auto f = w::parse_batch_done(p);
      if (!f) return;
      n.seq = f->batch_seq;
      break;
    }
    case ControlOp::DoneAck: {
      const auto f = w::parse_done_ack(p);
      if (!f) return;
      n.seq = f->batch_seq;
      break;
    }
    case ControlOp::SlotMapAck:
    case ControlOp::Fin:
    case ControlOp::FinAck:
      break;
    default:
      return;  // no phase boundary hangs on the other ops
  }
  notes_.push_back(n);
}

void ProbeWire::note_done_ack(std::uint8_t channel,
                              std::span<const std::uint8_t> p) {
  if (channel != kChanControl ||
      rekey::wire::peek_op(p) != ControlOp::DoneAck)
    return;
  const auto f = rekey::wire::parse_done_ack(p);
  if (!f) return;
  for (const auto& [seq, n] : done_acks_sent_)
    if (seq == f->batch_seq) return;  // a resend of a lost ack
  done_acks_sent_.emplace_back(f->batch_seq, f->recovered);
}

bool ProbeWire::send(rekey::wire::Endpoint to, std::uint8_t channel,
                     std::span<const std::uint8_t> payload) {
  begin_call(CallKind::kSend);
  const bool ok = inner_.send(to, channel, payload);
  if (ok) {
    if (channel == kChanData) ++data_sent_to_[to.id];
    note(to.id, channel, payload);
    note_done_ack(channel, payload);
    open_.datagrams = 1;
    open_.bytes = payload.size() + 1;
  }
  end_call();
  return ok;
}

std::size_t ProbeWire::send_frames(
    rekey::wire::Endpoint to, std::uint8_t channel,
    std::span<const rekey::Bytes* const> frames) {
  begin_call(CallKind::kSendFrames);
  const std::size_t sent = inner_.send_frames(to, channel, frames);
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < sent; ++i) {
    bytes += frames[i]->size() + 1;
    note(to.id, channel, *frames[i]);
    note_done_ack(channel, *frames[i]);
  }
  if (channel == kChanData && sent > 0) data_sent_to_[to.id] += sent;
  open_.datagrams = static_cast<std::uint32_t>(sent);
  open_.bytes = bytes;
  end_call();
  return sent;
}

std::size_t ProbeWire::receive(std::vector<rekey::wire::Datagram>& out,
                               int timeout_ms) {
  begin_call(CallKind::kReceive);
  const std::size_t before = out.size();
  const std::size_t got = inner_.receive(out, timeout_ms);
  std::uint64_t bytes = 0;
  for (std::size_t i = before; i < out.size(); ++i) {
    const rekey::wire::Datagram& d = out[i];
    bytes += d.payload.size() + 1;
    if (d.channel == kChanData) ++data_received_from_[d.from.id];
    note(d.from.id, d.channel, d.payload);
  }
  open_.datagrams = static_cast<std::uint32_t>(out.size() - before);
  open_.bytes = bytes;
  end_call();
  return got;
}

}  // namespace perfbench
