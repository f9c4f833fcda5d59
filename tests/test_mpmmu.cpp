/// Unit tests for the MPMMU driven directly over the NoC (no PE): builds
/// raw request flits, checks the Fig. 4 protocols, lock semantics and the
/// MPMMU cache effect.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "mem/backing_store.h"
#include "mpmmu/mpmmu.h"
#include "noc/network.h"
#include "sim/scheduler.h"

namespace medea::mpmmu {
namespace {

using noc::Flit;
using noc::FlitSubType;
using noc::FlitType;

/// Minimal raw NoC client: queues flits for injection, records ejections.
class RawClient : public sim::Component {
 public:
  RawClient(sim::Scheduler& s, noc::Network& net, int node)
      : sim::Component(s, "raw" + std::to_string(node)), net_(net),
        node_(node) {
    net.eject(node).set_consumer(this);
    net.inject(node).set_producer(this);
  }

  void queue(Flit f) {
    tx_.push_back(f);
    scheduler().wake_at(*this, scheduler().now() + 1);
  }

  void tick(sim::Cycle now) override {
    auto& ej = net_.eject(node_);
    while (!ej.empty()) rx.emplace_back(now, ej.pop());
    auto& inj = net_.inject(node_);
    while (!tx_.empty() && inj.can_push()) {
      inj.push(tx_.front());
      tx_.pop_front();
    }
    if (!tx_.empty()) wake();
  }

  Flit make(noc::Coord dst, FlitType t, FlitSubType s, std::uint8_t seq,
            std::uint8_t burst, std::uint32_t data) {
    Flit f;
    f.valid = true;
    f.dst = dst;
    f.type = t;
    f.subtype = s;
    f.seq_num = seq;
    f.burst_size = burst;
    f.src_id = static_cast<std::uint8_t>(node_);
    f.data = data;
    f.uid = net_.next_flit_uid();
    return f;
  }

  std::vector<std::pair<sim::Cycle, Flit>> rx;

 private:
  noc::Network& net_;
  int node_;
  std::deque<Flit> tx_;
};

struct Fixture {
  explicit Fixture(MpmmuConfig cfg = {})
      : net(sched, noc::TorusGeometry(4, 4)),
        mpmmu(sched, net, /*node=*/0, /*cores=*/4, cfg, store) {
    for (int n = 1; n <= 4; ++n) {
      clients.push_back(std::make_unique<RawClient>(sched, net, n));
    }
  }
  noc::Coord mpmmu_coord() { return net.geometry().coord_of(0); }

  sim::Scheduler sched;
  mem::BackingStore store;
  noc::Network net;
  Mpmmu mpmmu;
  std::vector<std::unique_ptr<RawClient>> clients;
};

TEST(Mpmmu, SingleReadReturnsMemoryWord) {
  Fixture fx;
  fx.store.write_word(0x1000, 0xFEEDFACE);
  auto& c = *fx.clients[0];
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kSingleRead,
                 FlitSubType::kAddress, 0, 0, 0x1000));
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(c.rx.size(), 1u);
  EXPECT_EQ(c.rx[0].second.type, FlitType::kSingleRead);
  EXPECT_EQ(c.rx[0].second.subtype, FlitSubType::kData);
  EXPECT_EQ(c.rx[0].second.data, 0xFEEDFACEu);
}

TEST(Mpmmu, BlockReadReturnsFourWordsWithSequenceNumbers) {
  Fixture fx;
  fx.store.write_line(0x2000, {10, 11, 12, 13});
  auto& c = *fx.clients[0];
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kBlockRead,
                 FlitSubType::kAddress, 0, 0, 0x2000));
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(c.rx.size(), 4u);
  std::map<int, std::uint32_t> by_seq;
  for (auto& [cy, f] : c.rx) {
    EXPECT_EQ(f.type, FlitType::kBlockRead);
    EXPECT_EQ(f.burst_size, 3);
    by_seq[f.seq_num] = f.data;
  }
  ASSERT_EQ(by_seq.size(), 4u);
  EXPECT_EQ(by_seq[0], 10u);
  EXPECT_EQ(by_seq[3], 13u);
}

TEST(Mpmmu, WriteProtocolGrantThenAck) {
  Fixture fx;
  auto& c = *fx.clients[0];
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kSingleWrite,
                 FlitSubType::kAddress, 0, 0, 0x3000));
  // Run until the grant arrives.
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(c.rx.size(), 1u);
  EXPECT_EQ(c.rx[0].second.subtype, FlitSubType::kAck);  // Fig. 4a grant
  // Send the payload; expect the final Ack.
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kSingleWrite, FlitSubType::kData,
                 0, 0, 0xBEEF));
  ASSERT_TRUE(fx.sched.run(200000));
  ASSERT_EQ(c.rx.size(), 2u);
  EXPECT_EQ(c.rx[1].second.subtype, FlitSubType::kAck);
  // Value is behind the MPMMU (its cache is WB, so flush to check store).
  for (auto& wb : fx.mpmmu.cache_backdoor().flush_all()) {
    fx.store.write_line(wb.line_addr, wb.data);
  }
  EXPECT_EQ(fx.store.read_word(0x3000), 0xBEEFu);
}

TEST(Mpmmu, BlockWriteStoresWholeLine) {
  Fixture fx;
  auto& c = *fx.clients[0];
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kBlockWrite,
                 FlitSubType::kAddress, 0, 0, 0x4000));
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(c.rx.size(), 1u);  // grant
  for (int i = 0; i < 4; ++i) {
    c.queue(c.make(fx.mpmmu_coord(), FlitType::kBlockWrite, FlitSubType::kData,
                   static_cast<std::uint8_t>(i), 3,
                   static_cast<std::uint32_t>(100 + i)));
  }
  ASSERT_TRUE(fx.sched.run(200000));
  ASSERT_EQ(c.rx.size(), 2u);  // final ack
  for (auto& wb : fx.mpmmu.cache_backdoor().flush_all()) {
    fx.store.write_line(wb.line_addr, wb.data);
  }
  EXPECT_EQ(fx.store.read_line(0x4000),
            (mem::LineData{100, 101, 102, 103}));
}

TEST(Mpmmu, ReadAfterWriteServedFromMpmmuCache) {
  MpmmuConfig cfg;
  cfg.ddr.access_latency = 100;  // make DDR misses very visible
  Fixture fx(cfg);
  auto& c = *fx.clients[0];
  // Cold read: pays DDR latency.
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kSingleRead,
                 FlitSubType::kAddress, 0, 0, 0x5000));
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(c.rx.size(), 1u);
  const sim::Cycle cold = c.rx[0].first;
  // Warm read of the same line: much faster.
  const sim::Cycle t0 = fx.sched.now();
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kSingleRead,
                 FlitSubType::kAddress, 0, 0, 0x5004));
  ASSERT_TRUE(fx.sched.run(200000));
  ASSERT_EQ(c.rx.size(), 2u);
  const sim::Cycle warm = c.rx[1].first - t0;
  EXPECT_LT(warm + 50, cold) << "MPMMU cache hit should avoid DDR latency";
}

TEST(Mpmmu, UncachedConfigAlwaysPaysDdr) {
  MpmmuConfig cfg;
  cfg.use_cache = false;
  Fixture fx(cfg);
  fx.store.write_word(0x6000, 5);
  auto& c = *fx.clients[0];
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kSingleRead,
                 FlitSubType::kAddress, 0, 0, 0x6000));
  ASSERT_TRUE(fx.sched.run(100000));
  EXPECT_EQ(c.rx[0].second.data, 5u);
  EXPECT_EQ(fx.mpmmu.cache().stats().get("cache.fills"), 0u);
}

TEST(Mpmmu, LockGrantedImmediatelyWhenFree) {
  Fixture fx;
  auto& c = *fx.clients[0];
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kLock, FlitSubType::kAddress, 0,
                 0, 0x7000));
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(c.rx.size(), 1u);
  EXPECT_EQ(c.rx[0].second.type, FlitType::kLock);
  EXPECT_EQ(c.rx[0].second.subtype, FlitSubType::kAck);
}

TEST(Mpmmu, ContendedLockGrantedInFifoOrderOnUnlock) {
  Fixture fx;
  auto& a = *fx.clients[0];
  auto& b = *fx.clients[1];
  a.queue(a.make(fx.mpmmu_coord(), FlitType::kLock, FlitSubType::kAddress, 0,
                 0, 0x7000));
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(a.rx.size(), 1u);  // A holds the lock
  b.queue(b.make(fx.mpmmu_coord(), FlitType::kLock, FlitSubType::kAddress, 0,
                 0, 0x7000));
  ASSERT_TRUE(fx.sched.run(200000));
  EXPECT_TRUE(b.rx.empty()) << "B must wait while A holds the lock";
  a.queue(a.make(fx.mpmmu_coord(), FlitType::kUnlock, FlitSubType::kAddress, 0,
                 0, 0x7000));
  ASSERT_TRUE(fx.sched.run(300000));
  ASSERT_EQ(a.rx.size(), 2u);  // unlock ack
  ASSERT_EQ(b.rx.size(), 1u);  // lock grant after release
  EXPECT_EQ(b.rx[0].second.type, FlitType::kLock);
  EXPECT_EQ(b.rx[0].second.subtype, FlitSubType::kAck);
}

TEST(Mpmmu, UnlockWithoutOwnershipIsNacked) {
  Fixture fx;
  auto& c = *fx.clients[0];
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kUnlock, FlitSubType::kAddress, 0,
                 0, 0x8000));
  ASSERT_TRUE(fx.sched.run(100000));
  ASSERT_EQ(c.rx.size(), 1u);
  EXPECT_EQ(c.rx[0].second.subtype, FlitSubType::kNack);
}

TEST(Mpmmu, ServesRequestsFromMultipleCores) {
  Fixture fx;
  for (int k = 0; k < 4; ++k) {
    fx.store.write_word(0x9000 + static_cast<mem::Addr>(k) * 64,
                        static_cast<std::uint32_t>(k + 1));
    auto& c = *fx.clients[static_cast<std::size_t>(k)];
    c.queue(c.make(fx.mpmmu_coord(), FlitType::kSingleRead,
                   FlitSubType::kAddress, 0, 0,
                   0x9000 + static_cast<std::uint32_t>(k) * 64));
  }
  ASSERT_TRUE(fx.sched.run(500000));
  for (int k = 0; k < 4; ++k) {
    auto& c = *fx.clients[static_cast<std::size_t>(k)];
    ASSERT_EQ(c.rx.size(), 1u) << "client " << k;
    EXPECT_EQ(c.rx[0].second.data, static_cast<std::uint32_t>(k + 1));
  }
  EXPECT_EQ(fx.mpmmu.stats().get("mpmmu.transactions"), 4u);
}

TEST(Mpmmu, PipelinedRepliesServeBackToBackReadsFaster) {
  // §IV "MPMMU optimization": overlapping reply streaming with the next
  // token's decode shortens a read convoy.
  auto serve_time = [](bool pipelined) {
    MpmmuConfig cfg;
    cfg.pipelined_replies = pipelined;
    Fixture fx(cfg);
    for (int k = 0; k < 4; ++k) {
      auto& c = *fx.clients[static_cast<std::size_t>(k)];
      c.queue(c.make(fx.mpmmu_coord(), FlitType::kBlockRead,
                     FlitSubType::kAddress, 0, 0,
                     0x1000 + static_cast<std::uint32_t>(k) * 64));
    }
    EXPECT_TRUE(fx.sched.run(1000000));
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(fx.clients[static_cast<std::size_t>(k)]->rx.size(), 4u);
    }
    return fx.sched.now();
  };
  EXPECT_LT(serve_time(true), serve_time(false));
}

TEST(Mpmmu, PipelinedRepliesPreserveProtocolCorrectness) {
  MpmmuConfig cfg;
  cfg.pipelined_replies = true;
  Fixture fx(cfg);
  auto& a = *fx.clients[0];
  // Interleave a block read and a write from different cores.
  fx.store.write_line(0x5000, {9, 9, 9, 9});
  a.queue(a.make(fx.mpmmu_coord(), FlitType::kBlockRead,
                 FlitSubType::kAddress, 0, 0, 0x5000));
  auto& b = *fx.clients[1];
  b.queue(b.make(fx.mpmmu_coord(), FlitType::kSingleWrite,
                 FlitSubType::kAddress, 0, 0, 0x6000));
  ASSERT_TRUE(fx.sched.run(1000000));
  EXPECT_EQ(a.rx.size(), 4u);   // full line delivered
  ASSERT_EQ(b.rx.size(), 1u);   // grant
  b.queue(b.make(fx.mpmmu_coord(), FlitType::kSingleWrite, FlitSubType::kData,
                 0, 0, 0x77));
  ASSERT_TRUE(fx.sched.run(2000000));
  EXPECT_EQ(b.rx.size(), 2u);   // final ack
}

TEST(Mpmmu, IdleAfterServingEverything) {
  Fixture fx;
  auto& c = *fx.clients[0];
  c.queue(c.make(fx.mpmmu_coord(), FlitType::kSingleRead,
                 FlitSubType::kAddress, 0, 0, 0xA000));
  ASSERT_TRUE(fx.sched.run(100000));
  EXPECT_TRUE(fx.mpmmu.idle());
}

TEST(Mpmmu, MalformedWritePayloadThrowsInEveryBuildMode) {
  // The payload's SEQNUM indexes the collected line; a word past the
  // granted write's size, a duplicate, or a payload from a core other
  // than the one granted must fail loudly, not corrupt memory.
  enum class Bad { kSeqPastWrite, kSeqPastLine, kDuplicate, kWrongSource };
  for (Bad bad : {Bad::kSeqPastWrite, Bad::kSeqPastLine, Bad::kDuplicate,
                  Bad::kWrongSource}) {
    Fixture fx;
    auto& c = *fx.clients[0];
    const FlitType t = bad == Bad::kSeqPastWrite ? FlitType::kSingleWrite
                                                 : FlitType::kBlockWrite;
    c.queue(c.make(fx.mpmmu_coord(), t, FlitSubType::kAddress, 0, 0, 0x3000));
    ASSERT_TRUE(fx.sched.run(100000));
    ASSERT_EQ(c.rx.size(), 1u);  // grant
    switch (bad) {
      case Bad::kSeqPastWrite:
        c.queue(c.make(fx.mpmmu_coord(), t, FlitSubType::kData, 1, 0, 9));
        break;
      case Bad::kSeqPastLine:
        c.queue(c.make(fx.mpmmu_coord(), t, FlitSubType::kData, 200, 3, 9));
        break;
      case Bad::kDuplicate:
        c.queue(c.make(fx.mpmmu_coord(), t, FlitSubType::kData, 1, 3, 9));
        c.queue(c.make(fx.mpmmu_coord(), t, FlitSubType::kData, 1, 3, 9));
        break;
      case Bad::kWrongSource: {
        auto& o = *fx.clients[1];
        o.queue(o.make(fx.mpmmu_coord(), t, FlitSubType::kData, 0, 3, 9));
        break;
      }
    }
    EXPECT_THROW(fx.sched.run(200000), std::runtime_error)
        << "case " << static_cast<int>(bad);
  }
}

}  // namespace
}  // namespace medea::mpmmu
