#include "mpmmu/mpmmu.h"

#include <cassert>
#include <stdexcept>

namespace medea::mpmmu {

using noc::Flit;
using noc::FlitSubType;
using noc::FlitType;

Mpmmu::Mpmmu(sim::Scheduler& sched, noc::Network& net, int node_id,
             int num_cores, const MpmmuConfig& cfg, mem::BackingStore& store)
    : sim::Component(sched, "mpmmu@" + std::to_string(node_id)),
      net_(net),
      node_id_(node_id),
      num_cores_(num_cores),
      cfg_(cfg),
      store_(store),
      cache_(cfg.cache),
      // Paper: "The depth of this queue is as large as the number of
      // processors" — each core has at most one outstanding transaction.
      req_q_(sched, static_cast<std::size_t>(num_cores)),
      data_q_(sched, mem::kWordsPerLine) {
  req_q_.set_consumer(this);
  data_q_.set_consumer(this);
  net_.eject(node_id_).set_consumer(this);
  net_.inject(node_id_).set_producer(this);
}

bool Mpmmu::idle() const {
  return state_ == State::kIdle && reply_q_.empty() && req_q_.empty() &&
         data_q_.empty();
}

Flit Mpmmu::make_reply(std::uint8_t dst_id, FlitType type, FlitSubType sub,
                       std::uint8_t seq, std::uint8_t burst,
                       std::uint32_t data, sim::Cycle now) const {
  Flit f;
  f.valid = true;
  f.dst = net_.geometry().coord_of(dst_id);
  f.type = type;
  f.subtype = sub;
  f.seq_num = seq;
  f.burst_size = burst;
  f.src_id = static_cast<std::uint8_t>(node_id_);
  f.data = data;
  f.inject_cycle = now;  // refined at router injection
  f.uid = net_.next_flit_uid();
  return f;
}

void Mpmmu::drain_network(sim::Cycle now) {
  (void)now;
  auto& eject = net_.eject(node_id_);
  while (!eject.empty()) {
    // Requests (and lock/unlock commands) carry an Address subtype;
    // granted write payloads carry Data.  Nothing else may address the
    // MPMMU — a Message flit here is a programming error.
    const Flit& head = eject.front();
    if (head.subtype == FlitSubType::kData) {
      if (!data_q_.can_push()) break;
      data_q_.push(eject.pop());
      st_data_flits_in_.inc();
    } else if (head.subtype == FlitSubType::kAddress) {
      if (!req_q_.can_push()) break;  // cannot happen: depth == #cores
      req_q_.push(eject.pop());
      st_requests_in_.inc();
    } else {
      throw std::runtime_error("MPMMU received unexpected flit: " +
                               head.to_string());
    }
  }
}

std::uint32_t Mpmmu::cached_line_touch(mem::Addr line_addr, bool for_write) {
  line_addr = mem::line_align(line_addr);
  if (!cfg_.use_cache) {
    return cfg_.ddr.burst_cycles(for_write ? mem::kWordsPerLine
                                           : mem::kWordsPerLine);
  }
  if (cache_.contains(line_addr)) {
    return cfg_.cache_hit_latency;
  }
  std::uint32_t lat = cfg_.ddr.burst_cycles(mem::kWordsPerLine);
  auto wb = cache_.fill_line(line_addr, store_.read_line(line_addr));
  if (wb.has_value()) {
    store_.write_line(wb->line_addr, wb->data);
    lat += cfg_.ddr.burst_cycles(mem::kWordsPerLine);
  }
  return lat + cfg_.cache_hit_latency;
}

std::uint32_t Mpmmu::memory_read_latency(mem::Addr addr, int words) {
  (void)words;  // all reads touch a single 16-byte line in this model
  return cached_line_touch(addr, /*for_write=*/false);
}

std::uint32_t Mpmmu::memory_write_latency(mem::Addr addr, int words) {
  if (!cfg_.use_cache) return cfg_.ddr.burst_cycles(words);
  return cached_line_touch(addr, /*for_write=*/true);
}

void Mpmmu::handle_lock(const Transaction& t, sim::Cycle now) {
  LockEntry& e = locks_[t.addr];
  if (!e.held) {
    e.held = true;
    e.owner = t.src;
    reply_q_.push_back(make_reply(t.src, FlitType::kLock, FlitSubType::kAck,
                                  0, 0, t.addr, now));
    stats_.inc("mpmmu.locks_granted");
  } else {
    e.waiters.push_back(t.src);
    stats_.inc("mpmmu.locks_queued");
  }
}

void Mpmmu::handle_unlock(const Transaction& t, sim::Cycle now) {
  auto it = locks_.find(t.addr);
  if (it == locks_.end() || !it->second.held || it->second.owner != t.src) {
    // Protocol violation: unlock of a word not held by the sender.
    reply_q_.push_back(make_reply(t.src, FlitType::kUnlock, FlitSubType::kNack,
                                  0, 0, t.addr, now));
    stats_.inc("mpmmu.unlock_nacks");
    return;
  }
  LockEntry& e = it->second;
  reply_q_.push_back(make_reply(t.src, FlitType::kUnlock, FlitSubType::kAck,
                                0, 0, t.addr, now));
  stats_.inc("mpmmu.unlocks");
  if (!e.waiters.empty()) {
    e.owner = e.waiters.front();
    e.waiters.pop_front();
    // Grant to the next waiter, FIFO order.
    reply_q_.push_back(make_reply(e.owner, FlitType::kLock, FlitSubType::kAck,
                                  0, 0, t.addr, now));
    stats_.inc("mpmmu.locks_granted");
  } else {
    e.held = false;
  }
}

void Mpmmu::start_transaction(sim::Cycle now) {
  assert(!req_q_.empty());
  const Flit req = req_q_.pop();
  cur_ = Transaction{};
  cur_.type = req.type;
  cur_.src = req.src_id;
  cur_.addr = req.data;
  st_transactions_.inc();

  switch (req.type) {
    case FlitType::kSingleRead:
      busy_until_ =
          now + cfg_.engine_overhead + memory_read_latency(cur_.addr, 1);
      state_ = State::kMemAccess;
      stats_.inc("mpmmu.single_reads");
      break;
    case FlitType::kBlockRead:
      busy_until_ = now + cfg_.engine_overhead +
                    memory_read_latency(cur_.addr, mem::kWordsPerLine);
      state_ = State::kMemAccess;
      stats_.inc("mpmmu.block_reads");
      break;
    case FlitType::kSingleWrite:
    case FlitType::kBlockWrite:
      cur_.words_expected =
          req.type == FlitType::kSingleWrite ? 1 : mem::kWordsPerLine;
      // Fig. 4(a): grant the sender; its payload will arrive in Pif-Data.
      reply_q_.push_back(make_reply(cur_.src, req.type, FlitSubType::kAck, 0,
                                    0, cur_.addr, now));
      state_ = State::kWriteCollect;
      stats_.inc(req.type == FlitType::kSingleWrite ? "mpmmu.single_writes"
                                                    : "mpmmu.block_writes");
      break;
    case FlitType::kLock:
      handle_lock(cur_, now);
      busy_until_ = now + cfg_.engine_overhead;
      state_ = State::kMemAccess;
      break;
    case FlitType::kUnlock:
      handle_unlock(cur_, now);
      busy_until_ = now + cfg_.engine_overhead;
      state_ = State::kMemAccess;
      break;
    case FlitType::kMessage:
      throw std::runtime_error("MPMMU cannot serve Message flits: " +
                               req.to_string());
  }
}

void Mpmmu::finish_mem_access(sim::Cycle now) {
  switch (cur_.type) {
    case FlitType::kSingleRead: {
      const mem::Addr a = mem::word_align(cur_.addr);
      std::uint32_t v;
      if (cfg_.use_cache) {
        auto r = cache_.read_word(a);
        assert(r.has_value() && "line was touched during latency accounting");
        v = *r;
      } else {
        v = store_.read_word(a);
      }
      reply_q_.push_back(make_reply(cur_.src, FlitType::kSingleRead,
                                    FlitSubType::kData, 0, 0, v, now));
      break;
    }
    case FlitType::kBlockRead: {
      const mem::Addr base = mem::line_align(cur_.addr);
      for (int i = 0; i < mem::kWordsPerLine; ++i) {
        const mem::Addr a = base + static_cast<mem::Addr>(i) * mem::kWordBytes;
        std::uint32_t v;
        if (cfg_.use_cache) {
          auto r = cache_.read_word(a);
          assert(r.has_value());
          v = *r;
        } else {
          v = store_.read_word(a);
        }
        reply_q_.push_back(make_reply(
            cur_.src, FlitType::kBlockRead, FlitSubType::kData,
            static_cast<std::uint8_t>(i),
            static_cast<std::uint8_t>(mem::kWordsPerLine - 1), v, now));
      }
      break;
    }
    case FlitType::kSingleWrite:
    case FlitType::kBlockWrite: {
      // Payload fully collected; commit it, then send the final Ack.
      const mem::Addr base = cur_.type == FlitType::kSingleWrite
                                 ? mem::word_align(cur_.addr)
                                 : mem::line_align(cur_.addr);
      for (int i = 0; i < cur_.words_expected; ++i) {
        const mem::Addr a = base + static_cast<mem::Addr>(i) * mem::kWordBytes;
        const std::uint32_t v = cur_.data[static_cast<std::size_t>(i)];
        if (cfg_.use_cache &&
            cfg_.cache.policy == mem::WritePolicy::kWriteBack) {
          const bool ok = cache_.write_word(a, v);
          assert(ok && "line was allocated during latency accounting");
          (void)ok;
        } else {
          store_.write_word(a, v);
          if (cfg_.use_cache) cache_.write_word(a, v);  // update-on-hit
        }
      }
      reply_q_.push_back(make_reply(cur_.src, cur_.type, FlitSubType::kAck, 0,
                                    0, cur_.addr, now));
      break;
    }
    case FlitType::kLock:
    case FlitType::kUnlock:
      break;  // bookkeeping done at dispatch; replies already queued
    case FlitType::kMessage:
      break;  // unreachable
  }
  state_ = State::kSendReply;
}

void Mpmmu::push_reply(sim::Cycle now) {
  (void)now;
  if (reply_q_.empty()) return;
  auto& inject = net_.inject(node_id_);
  if (!inject.can_push()) return;  // producer hook re-wakes us
  inject.push(reply_q_.front());
  reply_q_.pop_front();
  st_reply_flits_out_.inc();
}

void Mpmmu::tick(sim::Cycle now) {
  drain_network(now);

  switch (state_) {
    case State::kIdle:
      if (!req_q_.empty()) start_transaction(now);
      break;
    case State::kMemAccess:
      if (now >= busy_until_) finish_mem_access(now);
      break;
    case State::kSendReply:
      // Pipelined mode: the outgoing FIFO drains on its own; the engine
      // is free for the next token immediately (§IV "MPMMU optimization").
      if (reply_q_.empty() || cfg_.pipelined_replies) {
        state_ = State::kIdle;
        if (!req_q_.empty()) start_transaction(now);
      }
      break;
    case State::kWriteCollect:
      // Consume one payload word per cycle from Pif-Data (Fig. 2 timing).
      if (!data_q_.empty()) {
        const Flit f = data_q_.pop();
        // The request/data protocol admits one write payload at a time.
        if (f.src_id != cur_.src) {
          throw std::runtime_error("MPMMU write payload from wrong core: " +
                                   f.to_string());
        }
        if (f.seq_num >= cur_.words_expected) {
          throw std::runtime_error("MPMMU write payload SEQNUM out of range: " +
                                   f.to_string());
        }
        const std::uint32_t bit = 1u << f.seq_num;
        if ((cur_.received_mask & bit) != 0) {
          throw std::runtime_error("duplicate MPMMU write payload: " +
                                   f.to_string());
        }
        cur_.data[f.seq_num] = f.data;
        cur_.received_mask |= bit;
        const std::uint32_t all =
            (1u << cur_.words_expected) - 1;
        if (cur_.received_mask == all) {
          // Writes pay the same engine decode/dispatch occupancy as reads.
          busy_until_ = now + cfg_.engine_overhead +
                        memory_write_latency(cur_.addr, cur_.words_expected);
          state_ = State::kMemAccess;
        }
      }
      break;
  }

  push_reply(now);

  // Re-arm: timed waits use wake_at; queue-driven work self-wakes when we
  // know there is more to do next cycle.
  if (state_ == State::kMemAccess && busy_until_ > now) {
    scheduler().wake_at(*this, busy_until_);
  } else if (!reply_q_.empty() || !req_q_.empty() ||
             (state_ == State::kWriteCollect && !data_q_.empty()) ||
             state_ == State::kSendReply ||
             (state_ == State::kMemAccess && busy_until_ <= now)) {
    wake();
  }
}

}  // namespace medea::mpmmu
