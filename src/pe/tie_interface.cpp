#include "pe/tie_interface.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace medea::pe {

using noc::Flit;
using noc::FlitSubType;
using noc::FlitType;

TieInterface::TieInterface(noc::Network& net, int self_id, sim::StatSet& stats)
    : net_(net),
      self_id_(self_id),
      st_packets_sent_(stats, "tie.packets_sent"),
      st_flits_sent_(stats, "tie.flits_sent"),
      st_credits_returned_(stats, "tie.credits_returned"),
      st_flits_received_(stats, "tie.flits_received"),
      st_packets_received_(stats, "tie.packets_received"),
      st_packets_consumed_(stats, "tie.packets_consumed") {}

Flit TieInterface::make_flit(int dst_id, FlitSubType sub, std::uint8_t seq,
                             std::uint8_t burst, std::uint32_t data) const {
  Flit f;
  f.valid = true;
  f.dst = net_.geometry().coord_of(dst_id);  // the addressing LUT
  f.type = FlitType::kMessage;
  f.subtype = sub;
  f.seq_num = seq;
  f.burst_size = burst;
  f.src_id = static_cast<std::uint8_t>(self_id_);
  f.data = data;
  f.uid = net_.next_flit_uid();
  return f;
}

bool TieInterface::can_send(int dst_id) const {
  auto it = credits_.find(dst_id);
  return (it == credits_.end() ? kCreditsPerPeer : it->second) > 0;
}

void TieInterface::start_send(int dst_id, const std::uint32_t* words, int n) {
  assert(n >= 1 && n <= kMaxMpPacketWords);
  assert(dst_id != self_id_ && "MP send to self is not supported");
  assert(can_send(dst_id));
  auto [it, inserted] = credits_.try_emplace(dst_id, kCreditsPerPeer);
  it->second -= 1;

  const std::uint64_t idx = tx_idx_[dst_id]++;
  const auto slot = static_cast<std::uint8_t>(idx % 4);
  for (int i = 0; i < n; ++i) {
    // SEQNUM = {landing slot, word offset}: the receiver stores the word
    // at base + seq offset with no sorting buffer (paper Fig. 2-b).
    const auto seq = static_cast<std::uint8_t>((slot << 2) | i);
    tx_q_.push_back(make_flit(dst_id, noc::kMpData, seq,
                              static_cast<std::uint8_t>(n - 1),
                              words[i]));
  }
  send_pending_ += n;
  st_packets_sent_.inc();
  st_flits_sent_.inc(static_cast<std::uint64_t>(n));
}

void TieInterface::on_tx_departure(const Flit& f) {
  if (f.subtype == noc::kMpData && send_pending_ > 0) --send_pending_;
}

bool TieInterface::on_rx_flit(const Flit& f) {
  assert(f.type == FlitType::kMessage);
  if (f.subtype == FlitSubType::kAck) {
    // Credit return: the peer consumed one of our packets.
    auto [it, inserted] = credits_.try_emplace(f.src_id, kCreditsPerPeer);
    if (!inserted) it->second += 1;
    if (it->second > kCreditsPerPeer) {
      throw std::runtime_error(
          "TIE credit return above the " + std::to_string(kCreditsPerPeer) +
          " credits per peer: " + f.to_string());
    }
    st_credits_returned_.inc();
    return false;
  }
  assert(f.subtype == noc::kMpData);
  PeerRx& peer = rx_[f.src_id];
  Slot& slot = peer.slots[(f.seq_num >> 2) & 3];
  const int offset = f.seq_num & 3;
  // Checked before the slot is touched, so a bad flit leaves it intact.
  // A burst past the 2-bit BURST field could never complete its slot.
  if (offset > f.burst_size || f.burst_size >= kMaxMpPacketWords) {
    throw std::runtime_error(
        "TIE message flit SEQNUM offset or BURST out of range: " +
        f.to_string());
  }
  if ((slot.mask & (1u << offset)) != 0) {
    throw std::runtime_error("TIE duplicate message flit delivery: " +
                             f.to_string());
  }
  slot.expected = f.burst_size + 1;
  slot.words[static_cast<std::size_t>(offset)] = f.data;
  slot.mask |= 1u << offset;
  st_flits_received_.inc();
  if (slot.complete()) {
    st_packets_received_.inc();
    return true;
  }
  return false;
}

bool TieInterface::packet_ready(int src_id) const {
  auto it = rx_.find(src_id);
  if (it == rx_.end()) return false;
  const PeerRx& peer = it->second;
  return peer.slots[peer.next_consume % 4].complete();
}

std::vector<std::uint32_t> TieInterface::consume_packet(int src_id) {
  assert(packet_ready(src_id));
  PeerRx& peer = rx_[src_id];
  Slot& slot = peer.slots[peer.next_consume % 4];
  std::vector<std::uint32_t> out(slot.words.begin(),
                                 slot.words.begin() + slot.expected);
  slot = Slot{};
  peer.next_consume += 1;
  // Return a credit so the sender can reuse the landing area.
  tx_q_.push_front(make_flit(src_id, FlitSubType::kAck, 0, 0, 0));
  st_packets_consumed_.inc();
  return out;
}

int TieInterface::any_ready_source() const {
  for (const auto& [src, peer] : rx_) {
    if (peer.slots[peer.next_consume % 4].complete()) return src;
  }
  return -1;
}

}  // namespace medea::pe
